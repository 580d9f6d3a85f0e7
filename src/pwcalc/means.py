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

from .calculus import PairingResult, _build_rep, build_rep, pw_eval, pw_pairing
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InputError
from .functions import PwFunction, _require_profile, entropy, geometric, power
from .linalg import kron


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
    """Weighted geometric mean of a PSD pair, weight ``alpha`` in (0, 1)."""
    return pw_eval(a, b, geometric(alpha), tol)


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


def tensor_pairing_check(a1, b1, a2, b2, rho1, rho2, fn: PwFunction,
                         tol: ToleranceConfig = DEFAULT_TOL) -> TensorCheck:
    """Compare a Kronecker-pair pairing with its factorized form.

    For power profiles the factorized side is the product of the slot
    pairings; for the entropy profile it is the symmetrized sum
    ``psi1 * rho2(a2) + rho1(a1) * psi2``. Zero factors absorb infinite
    ones on the factorized side, matching the integral picture where
    null sets contribute nothing.
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
        w1 = float(np.trace(np.asarray(rho1) @ np.asarray(a1)).real)
        w2 = float(np.trace(np.asarray(rho2) @ np.asarray(a2)).real)
        rhs = _ext_mul(p1, w2) + _ext_mul(w1, p2)
    both_finite = math.isfinite(lhs) and math.isfinite(rhs)
    residual = abs(lhs - rhs) if both_finite else None
    return TensorCheck(lhs=lhs, rhs=rhs, residual=residual,
                       infinity_consistent=math.isinf(lhs) == math.isinf(rhs))
