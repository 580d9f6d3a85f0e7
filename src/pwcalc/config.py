"""Numerical tolerance settings used by every operation in the library."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError

EPS = float(np.finfo(np.float64).eps)


def _finite_positive(value) -> bool:
    # bool is an int subclass, but True is not a tolerance; numpy.bool_ is
    # no numbers.Real
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 < value < math.inf)


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of tolerances controlling validation and spectral classification.

    Every tolerance is a finite positive real number, numpy's included
    (``support_tol`` may also be None), stored as ``float``, and
    ``max_doublings`` a positive integer, stored as ``int``; ``bool`` is
    neither.

    Attributes
    ----------
    herm_tol : float
        Allowed deviation from Hermitian symmetry, relative to
        ``max |entry|``, so the verdict is invariant under scaling.
    psd_tol : float
        Eigenvalues in ``[-psd_tol * scale, 0)`` are treated as rounding
        noise and clamped to zero, where ``scale`` is the spectral norm.
        Anything more negative is a hard error.
    support_tol : float or None
        Absolute threshold separating the support of a positive matrix
        from its kernel. ``None`` selects ``dim * eps * max_eigenvalue``.
    zero_tol : float
        Eigenvalues of the commuting representative within ``zero_tol``
        of 0 are classified as exactly 0 (absolute, valid because that
        spectrum lives in [0, 1]).
    one_tol : float
        Same classification at the other endpoint 1. The two windows
        must not overlap: ``zero_tol + one_tol < 1``.
    weight_tol : float
        Spectral weights at or below this value contribute nothing to a
        pairing, implementing the convention ``0 * inf = 0``.
    conv_tol : float
        Convergence threshold for iterative limits (Frobenius gaps,
        Cauchy gaps of pairing sequences).
    max_doublings : int
        Cap on the number of doubling steps in parallel-sum limits.
    """

    herm_tol: float = 1e-10
    psd_tol: float = 1e-9
    support_tol: float | None = None
    zero_tol: float = 1e-8
    one_tol: float = 1e-8
    weight_tol: float = 1e-12
    conv_tol: float = 1e-9
    max_doublings: int = 60

    def __post_init__(self):
        for name in ("herm_tol", "psd_tol", "support_tol", "zero_tol",
                     "one_tol", "weight_tol", "conv_tol"):
            value = getattr(self, name)
            optional = name == "support_tol"
            if optional and value is None:
                continue
            if not _finite_positive(value):
                raise InputError(f"{name} must be a finite positive number"
                                 f"{' or None' if optional else ''}, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not self.zero_tol + self.one_tol < 1.0:
            raise InputError(
                f"zero_tol + one_tol must be below 1, got {self.zero_tol!r} "
                f"+ {self.one_tol!r}: an eigenvalue would be both 0 and 1")
        if (not isinstance(self.max_doublings, numbers.Integral)
                or isinstance(self.max_doublings, bool)
                or self.max_doublings <= 0):
            raise InputError(f"max_doublings must be a positive integer, "
                             f"got {self.max_doublings!r}")
        object.__setattr__(self, "max_doublings", int(self.max_doublings))

    def support_threshold(self, dim: int, max_eig: float) -> float:
        """Effective kernel/support cutoff for a positive matrix."""
        if self.support_tol is not None:
            return self.support_tol
        return dim * EPS * max(max_eig, 0.0)


DEFAULT_TOL = ToleranceConfig()
