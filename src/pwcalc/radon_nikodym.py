"""Derivative-like factorizations of calculus values over a definite base.

When the first matrix of the pair is positive definite, the absolutely
continuous part of the second admits a factorization ``Z* Z`` with
``Z = H^(1/2) a^(1/2)``, where ``H`` applies ``h(x) = (1 - x) / x`` to
the outer Gram of the first contraction. The same congruence shape
``a^(1/2) (...) a^(1/2)`` works for every nonnegative bounded profile
vanishing on the ray x = 0, which recovers the familiar mean/connection
form of those operators. The ratio blows up toward 0, so the spectral
classification there is safety-critical: suppressed directions and
near-threshold eigenvalues are counted and reported rather than silently
dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PwRep, _headroom, build_rep
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InputError, NumericError
from .functions import PwFunction, _require_profile, abs_part
from .linalg import (SpectralDecomposition, _exponent, _ldexp, _numeric, hermitize,
                     safe_frobenius)


@dataclass(frozen=True)
class RnFactorization:
    """Derivative factor with its conditioning diagnostics.

    ``value = root* root`` reproduces the target operator with
    ``residual = ||value - target||_F / ||target||_F``, relative and in the
    Frobenius norm; ``condition`` is the largest ratio value used, which
    scales the attainable accuracy. ``infinite_directions`` counts
    eigenvalues suppressed to zero by classification and
    ``near_singular`` those retained but within a factor 10 of the
    threshold; ``margin`` is the distance of the closest retained
    eigenvalue to the suppression threshold (+inf if nothing is retained).
    """

    factor: np.ndarray
    root: np.ndarray
    value: np.ndarray
    residual: float
    condition: float
    infinite_directions: int
    near_singular: int
    margin: float


def _require_definite(rep: PwRep) -> None:
    """Raise :class:`InputError` unless ``rep``'s ``a`` is positive
    definite at the support threshold; the empty ``a`` is."""
    if not rep.n:
        return
    w = rep.a_eigs
    smallest = float(w[0])
    th = rep.tol.support_threshold(rep.n, float(w[-1]))
    if smallest <= th or rep.rank != rep.n:
        raise InputError(
            f"base matrix must be positive definite: smallest eigenvalue "
            f"{smallest:.3e} at support threshold {th:.3e}")


def _ratio(rep: PwRep, fvals: np.ndarray):
    """Ratio ``fvals/x`` on the outer Gram ``dec`` of the first contraction.

    ``fvals`` are a profile's :meth:`PwRep.values`; returns ``(dec, hvals,
    margin)``. ``X X*`` shares its spectrum with ``gram_a = X* X``, and
    ``X`` maps the eigenbasis ``W`` of one onto that of the other, so no
    solve is needed: ``dec`` takes ``gram_a``'s ascending eigenvalues ``x``
    and the basis of :meth:`PwRep._outer_basis` on ``X``, which raises
    :class:`NumericError` if a column of ``X W`` has no weight (``a`` is
    definite, so ``X`` is invertible and none should). The masks of
    ``rep.split`` index ``x`` itself: both sides of the reconstruction
    identity kill the same directions, where ``fvals`` is 0. ``margin`` is
    the distance of the smallest retained eigenvalue above ``zero_tol``.
    """
    zero = rep.split.zero
    w = rep.gram_a_spec.eigenvalues
    dec = SpectralDecomposition(w, rep._outer_basis(rep.contr_a)[0])
    kept = w[~zero]
    margin = float(kept.min() - rep.tol.zero_tol) if kept.size else math.inf
    return dec, fvals / np.where(zero, 1.0, w), margin


def rn_factor(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> RnFactorization:
    """Factor the absolutely continuous part of ``b`` over definite ``a``.

    Returns ``H`` (the ratio ``(1 - x)/x`` of the first contraction's
    outer Gram, zero on classified directions), the root
    ``Z = H^(1/2) a^(1/2)`` and the reconstruction ``Z* Z``, which
    matches ``abs_cont_part(a, b)`` up to a condition-scaled residual.
    This is :func:`kubo_ando_form` with the :func:`abs_part` profile.

    Raises
    ------
    InputError
        If ``a`` is singular at the support threshold. Near-singular
        spectra only warn through the ``near_singular`` count.
    """
    return kubo_ando_form(a, b, abs_part(), tol)


def kubo_ando_form(a, b, fn: PwFunction,
                   tol: ToleranceConfig = DEFAULT_TOL) -> RnFactorization:
    """Congruence form ``a^(1/2) h(outer gram) a^(1/2)`` of a calculus value.

    Requires a nonnegative bounded profile with ``fn(0) = 0`` and a
    positive definite base; a profile that is +inf on the spectrum raises
    :meth:`PwRep.eval`'s :class:`ExtendedValueError`. The ratio profile
    ``fn(x)/x`` is applied to the outer Gram of the first contraction, and
    the reconstruction residual against the direct evaluation is reported
    relative to it, in the Frobenius norm (see :class:`RnFactorization`).
    Both are scaled by the power of two that brings the target's largest
    part into ``[1/2, 1)`` before they are subtracted, so the residual
    needs no floor and keeps its bits when the pair is scaled by a power
    of four, wherever the value and the target stay normal; a zero target,
    which comes only with a zero value, reads 0.
    """
    rep = build_rep(a, b, tol)
    _require_definite(rep)
    _require_profile(fn)
    if fn.at_zero != 0.0:
        raise InputError(
            f"profile {fn.name!r} must vanish on the ray x = 0")
    if math.isinf(fn.at_one):
        raise InputError(
            f"profile {fn.name!r} is unbounded; the congruence form "
            f"requires a bounded profile")
    vals = rep._bounded_values(fn)
    if (vals < 0.0).any():
        raise InputError(
            f"profile {fn.name!r} is negative on the spectrum; the "
            f"congruence form requires a nonnegative profile")
    dec, hvals, margin = _ratio(rep, vals)
    factor = hermitize(dec.apply(hvals))
    # factor's root shares dec's basis; h at or below the support
    # threshold counts as zero, as for any PSD root
    th = tol.support_threshold(hvals.size, float(hvals.max(initial=0.0)))
    root_h = hermitize(dec.apply(np.sqrt(np.where(hvals > th, hvals, 0.0))))
    root = root_h @ rep.a_half
    value = hermitize(root.conj().T @ root)
    target = rep._push(vals)
    k = _exponent(target)
    unit_target = _ldexp(target, -k, np.empty_like(target))
    scale = safe_frobenius(unit_target)
    diff = safe_frobenius(_ldexp(value, -k, np.empty_like(value)) - unit_target)
    residual = diff / scale if scale else 0.0
    condition = float(hvals.max()) if hvals.size else 0.0
    return RnFactorization(factor=factor, root=root, value=value,
                           residual=residual, condition=condition,
                           infinite_directions=int(rep.split.zero.sum()),
                           near_singular=rep.split.near_zero, margin=margin)


def rn_quadratic_form(a, b, xi, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Quadratic form of the derivative factor at a vector.

    Integrates ``(1 - x)/x`` against the spectral weights of ``xi`` in
    the outer Gram of the first contraction, with the same suppression
    of classified-zero directions as :func:`rn_factor`. At finite
    dimension the value is always finite; it is returned as a float for
    interface uniformity with the pairings. It is summed once, with
    ``xi`` scaled by ``2**-k``, ``k`` the excess of its binary exponent
    over half the headroom of size ``n`` (:func:`calculus._headroom`), so
    no square ``|B* xi|**2`` overflows,
    and scaled back by ``4**k``: every term is nonnegative, so a value
    that still overflows lies beyond the float64 range, and raises
    :class:`NumericError`. The value has the bits of the plain sum
    wherever that is finite, except where a term is subnormal in one
    computation and not in the other.
    ``xi`` must be a 1-D vector of length ``n``; anything else raises
    :class:`InputError`.
    """
    rep = build_rep(a, b, tol)
    _require_definite(rep)
    vec = _numeric(xi, "vector").astype(np.complex128, copy=False)
    if vec.shape != (rep.n,):
        raise InputError(
            f"expected a vector of length {rep.n}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise InputError("vector contains non-finite entries")
    dec, hvals, _ = _ratio(rep, rep.values(abs_part()))
    k = max(0, _exponent(vec) - _headroom(rep.n) // 2)
    vec = _ldexp(vec, -k, np.empty_like(vec))
    with np.errstate(over="ignore"):
        value = float(np.ldexp((hvals * np.abs(dec.basis.conj().T @ vec) ** 2).sum(), 2 * k))
    if not math.isfinite(value):
        raise NumericError("quadratic form outside the float64 range")
    return value
