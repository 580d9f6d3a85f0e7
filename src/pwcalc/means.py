"""Named functionals of PSD pairs: means, power pairings, entropy.

Bounded profiles (weighted geometric means) evaluate to operators;
unbounded ones (power divergences with exponent above 1, relative
entropy) are exposed as scalar pairings that carry +inf. Products of
pairs behave predictably under the Kronecker product, and
:func:`tensor_pairing_check` measures how well the implementation
reproduces the product and sum rules, including agreement of the +inf
cases on both sides.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PairingResult, _build_rep, _headroom, build_rep, pw_pairing
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InputError, NumericError
from .functions import PwFunction, _require_profile, entropy, geometric, power
from .linalg import _exponent, _ldexp, kron


@dataclass(frozen=True)
class TensorCheck:
    """Both sides of a product-state pairing identity.

    ``residual`` is ``|lhs - rhs|`` when both sides are finite and None
    otherwise; ``infinity_consistent`` records whether +inf occurred on
    both sides or on neither.
    """

    lhs: float
    rhs: float
    residual: float | None
    infinity_consistent: bool


def weighted_geometric_mean(a, b, alpha: float,
                            tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Weighted geometric mean of a PSD pair, weight ``alpha`` in (0, 1).

    The pair is validated before the weight, as in every one-shot call."""
    return build_rep(a, b, tol).eval(geometric(alpha))


def power_pairing(a, b, alpha: float, rho,
                  tol: ToleranceConfig = DEFAULT_TOL) -> PairingResult:
    """Power-divergence pairing ``(x/y)^alpha y`` against a state, alpha > 1.

    +inf exactly when the first slot has weight on the kernel of the
    second (beyond ``weight_tol``).
    """
    rep, w = _build_rep(a, b, tol, lambda: rho)
    return rep._pairing(power(alpha), w)


def entropy_pairing(a, b, rho,
                    tol: ToleranceConfig = DEFAULT_TOL) -> PairingResult:
    """Relative-entropy pairing ``x log(x/y)`` against a state.

    Finite values may be negative. Inside the float64 range the value is
    never -inf, because the profile is bounded from below on the simplex
    section; a negative value beyond float64 reads -inf.
    """
    rep, w = _build_rep(a, b, tol, lambda: rho)
    return rep._pairing(entropy(), w)


def trace_functional(a, b, fn: PwFunction,
                     tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Trace of the calculus value: the pairing with the identity state."""
    rep = build_rep(a, b, tol)
    w = rep._weights(np.eye(rep.n, dtype=np.complex128))
    return rep._pairing(fn, w).value


def _ext_mul(u: float, v: float) -> float:
    # measure-theoretic convention: a zero factor kills an infinite one
    if u == 0.0 or v == 0.0:
        return 0.0
    return u * v


def _trace_product(rho, a) -> float:
    """``Re tr(rho a)`` of a state and pair member as the caller passed
    them: :func:`tensor_pairing_check` hands over its raw ``rho1, a1`` and
    ``rho2, a2``, which its slot pairings have validated, but neither
    their Hermitian parts nor their clamped matrices. Each is promoted to
    at least ``float64``, so integers do not wrap and floats keep their
    bits. Where the binary exponents of the two sum past the headroom of
    their size (:func:`calculus._headroom`), the excess is taken off both
    by powers of two, half each, and the trace is scaled back once: no
    term overflows, and a trace beyond float64 reads +-inf, as pairing
    values do. The trace has the bits of the plain ``tr(rho a)`` of the
    promoted pair wherever that is finite, except where a term is
    subnormal in one computation and not in the other."""
    rho, a = (np.asarray(m) for m in (rho, a))
    rho, a = (m.astype(np.result_type(m, np.float64), copy=False) for m in (rho, a))
    excess = max(0, _exponent(rho) + _exponent(a) - _headroom(rho.shape[0]))
    kr, ka = excess // 2, excess - excess // 2
    product = _ldexp(rho, -kr, np.empty_like(rho)) @ _ldexp(a, -ka, np.empty_like(a))
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.trace(product).real, kr + ka))


def tensor_pairing_check(a1, b1, a2, b2, rho1, rho2, fn: PwFunction,
                         tol: ToleranceConfig = DEFAULT_TOL) -> TensorCheck:
    """Compare a Kronecker-pair pairing with its factorized form.

    For power profiles the factorized side is the product of the slot
    pairings; for the entropy profile it is the symmetrized sum
    ``psi1 * rho2(a2) + rho1(a1) * psi2``. Zero factors absorb infinite
    ones on the factorized side, matching the integral picture where
    null sets contribute nothing. A sum whose terms are -inf and +inf
    has no value and raises :class:`NumericError`.
    """
    # the Kronecker pair and its state are checked before the profile, as
    # in every other pairing
    rep, w = _build_rep(kron(a1, a2), kron(b1, b2), tol, lambda: kron(rho1, rho2))
    _require_profile(fn)
    if fn.name.startswith("power:"):
        rule = "product"
    elif fn.name == "entropy":
        rule = "sum"
    else:
        raise InputError(
            f"no tensor rule known for profile {fn.name!r}; "
            f"use a power or entropy profile")
    lhs = rep._pairing(fn, w).value
    p1 = pw_pairing(a1, b1, fn, rho1, tol)
    p2 = pw_pairing(a2, b2, fn, rho2, tol)
    if rule == "product":
        rhs = _ext_mul(p1, p2)
    else:
        w1, w2 = _trace_product(rho1, a1), _trace_product(rho2, a2)
        rhs = _ext_mul(p1, w2) + _ext_mul(w1, p2)
        if math.isnan(rhs):
            raise NumericError(
                "entropy sum rule undefined: its terms are -inf and +inf")
    both_finite = math.isfinite(lhs) and math.isfinite(rhs)
    residual = abs(lhs - rhs) if both_finite else None
    return TensorCheck(lhs=lhs, rhs=rhs, residual=residual,
                       infinity_consistent=math.isinf(lhs) == math.isinf(rhs))
