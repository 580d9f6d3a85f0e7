"""Profiles of degree-one homogeneous binary functions.

A Borel function f(x, y) on [0, inf)^2 with f(tx, ty) = t f(x, y) is
determined by its restriction g(x) = f(x, 1 - x) to the section
x + y = 1, and the pair calculus only ever needs g on the spectrum of the
commuting representative, which lives in [0, 1]. Values at the endpoints
are stored separately: eigenvalues classified as exactly 0 or exactly 1
must receive the indicator-style endpoint value, not the profile
evaluated at a noisy nearby point.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericError


@dataclass(frozen=True)
class PwFunction:
    """Profile of a homogeneous binary function on the simplex section.

    Attributes
    ----------
    name : str
        Identifier used in reports and error messages.
    profile : callable
        Scalar map of x in (0, 1) to a finite float or ``math.inf``.
        Must be side-effect free; it may be called from multiple threads.
    at_zero, at_one : float
        Values used for eigenvalues classified to the endpoints; each is
        finite or ``math.inf``, never ``-inf`` or NaN.
    vanishes_at_zero : bool
        True iff the function is zero on the whole ray x = 0.
    """

    name: str
    profile: Callable[[float], float]
    at_zero: float
    at_one: float
    vanishes_at_zero: bool

    def values(self, x: np.ndarray, zero_mask: np.ndarray,
               one_mask: np.ndarray) -> np.ndarray:
        """Evaluate on classified eigenvalues; entries may be +inf."""
        out = np.empty(len(x), dtype=np.float64)
        # loop over Python floats and bools: indexing numpy scalars costs
        # more than most profile calls
        for i, (xi, at_zero, at_one) in enumerate(
                zip(x.tolist(), zero_mask.tolist(), one_mask.tolist())):
            if at_zero:
                val = self.at_zero
            elif at_one:
                val = self.at_one
            else:
                try:
                    val = float(self.profile(min(max(xi, 0.0), 1.0)))
                except OverflowError:
                    raise NumericError(
                        f"profile {self.name!r} leaves the float64 range "
                        f"at x = {xi!r}")
            if math.isnan(val):
                raise NumericError(
                    f"profile {self.name!r} returned NaN at x = {xi!r}")
            if val == -math.inf:
                raise InputError(
                    f"profile {self.name!r} returned -inf at x = {xi!r}; "
                    f"profiles must be bounded from below")
            out[i] = val
        return out


def _require_profile(fn) -> None:
    """Raise :class:`InputError`, naming the type, unless ``fn`` is a
    :class:`PwFunction`."""
    if not isinstance(fn, PwFunction):
        raise InputError(f"a profile must be a PwFunction, got {type(fn).__name__}")


def _require_parameter(value, in_range: Callable[[float], bool], message: str) -> None:
    """Raise :class:`InputError` with ``message`` unless ``value`` is a
    finite real number that ``in_range`` accepts. A ``bool`` is not one,
    nor is ``numpy.bool_``, which is no ``numbers.Real``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not in_range(value)):
        raise InputError(message)


def abs_part() -> PwFunction:
    """Indicator-weighted second slot, ``1_(0,inf)(x) * y``.

    Evaluating it on a pair gives the absolutely continuous part of the
    second operator with respect to the first.
    """
    return PwFunction("abs", lambda x: 1.0 - x, 0.0, 0.0, True)


def parallel() -> PwFunction:
    """Parallel sum profile, ``x y / (x + y)``."""
    return PwFunction("parallel", lambda x: x * (1.0 - x), 0.0, 0.0, True)


def arithmetic() -> PwFunction:
    """Plain sum, ``x + y``."""
    return PwFunction("arith", lambda x: 1.0, 1.0, 1.0, False)


def left() -> PwFunction:
    """First slot, ``(x, y) -> x``."""
    return PwFunction("left", lambda x: x, 0.0, 1.0, True)


def right() -> PwFunction:
    """Second slot, ``(x, y) -> y``."""
    return PwFunction("right", lambda x: 1.0 - x, 1.0, 0.0, False)


def geometric(alpha: float) -> PwFunction:
    """Weighted geometric mean profile, ``x^a y^(1-a)`` for a in (0, 1)."""
    _require_parameter(alpha, lambda x: 0.0 < x < 1.0,
                       f"geometric mean weight must lie in (0, 1), got {alpha!r}")
    return PwFunction(f"geom:{alpha:g}",
                      lambda x: x ** alpha * (1.0 - x) ** (1.0 - alpha),
                      0.0, 0.0, True)


def power(alpha: float) -> PwFunction:
    """Power divergence profile, ``(x/y)^a y`` for a > 1.

    Unbounded at y = 0 (x > 0), so evaluation as an operator fails there;
    use pairings, which carry +inf.
    """
    _require_parameter(alpha, lambda x: x > 1.0,
                       f"power exponent must be finite and exceed 1, got {alpha!r}")
    return PwFunction(f"power:{alpha:g}",
                      lambda x: x ** alpha * (1.0 - x) ** (1.0 - alpha),
                      0.0, math.inf, True)


def entropy() -> PwFunction:
    """Relative entropy profile, ``x log(x/y)`` with 0 log 0 = 0."""
    return PwFunction("entropy",
                      lambda x: x * math.log(x / (1.0 - x)),
                      0.0, math.inf, True)


def scaled_parallel(n: float) -> PwFunction:
    """Parallel sum with a scaled first slot, ``n x y / (n x + y)``."""
    _require_parameter(n, lambda x: x > 0.0,
                       f"scale must be a finite positive number, got {n!r}")
    return PwFunction(f"parallel*{n:g}",
                      lambda x: n * x * (1.0 - x) / (n * x + 1.0 - x),
                      0.0, 0.0, True)


def rn_cutoff(n: float) -> PwFunction:
    """Truncated derivative profile, ``(y/x) 1_[1/n, 1](x)``.

    The increasing family of these profiles approximates the
    Radon-Nikodym factor from below.
    """
    _require_parameter(n, lambda x: x >= 1,
                       f"cutoff index must be a finite number of at least 1, got {n!r}")
    return PwFunction(f"rncut:{n:g}",
                      lambda x: (1.0 - x) / x if x >= 1.0 / n else 0.0,
                      0.0, 0.0, True)


_PLAIN_BUILTINS = {
    "abs": abs_part,
    "parallel": parallel,
    "arith": arithmetic,
    "left": left,
    "right": right,
    "entropy": entropy,
}

_PARAMETRIC_BUILTINS = {
    "geom": geometric,
    "power": power,
}


def named_function(token: str, alpha: float | None = None) -> PwFunction:
    """Resolve a built-in profile from its CLI name.

    ``token`` is ``NAME`` or ``NAME:PARAM``; a parameter embedded in the
    token wins over the separate ``alpha`` argument.
    """
    if not isinstance(token, str):
        raise InputError(f"a profile name must be a string, got {type(token).__name__}")
    name, sep, param = token.partition(":")
    if name in _PLAIN_BUILTINS:
        if sep:
            raise InputError(f"profile {name!r} takes no parameter")
        return _PLAIN_BUILTINS[name]()
    if name in _PARAMETRIC_BUILTINS:
        if sep:
            try:
                alpha = float(param)
            except ValueError:
                raise InputError(f"bad parameter {param!r} for profile {name!r}")
        if alpha is None:
            raise InputError(
                f"profile {name!r} needs a parameter, e.g. {name}:0.5 "
                f"or --alpha")
        return _PARAMETRIC_BUILTINS[name](alpha)
    known = sorted(_PLAIN_BUILTINS) + sorted(_PARAMETRIC_BUILTINS)
    raise InputError(f"unknown profile {token!r}; known names: {', '.join(known)}")
