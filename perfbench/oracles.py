"""Independent numpy.linalg oracles for checking pwcalc outputs.

pwcalc runs on its own Jacobi kernel; everything here goes through LAPACK
(``numpy.linalg``) so the two routes stay independent. The generated
inputs have clean spectral gaps (eigenvalues are either exact zeros up to
rounding or at least ``0.2 * scale``), so rank decisions made here and in
the library cannot disagree.
"""

import math

import numpy as np

RTOL = 1e-8
"""Agreement required between pwcalc and an oracle, relative to the
inputs' scale. Loose enough that last-bit changes from a new rotation
order in the kernel do not count as failures."""


def rank_cut(w: np.ndarray) -> float:
    return 1e-9 * max(float(np.max(np.abs(w))) if w.size else 0.0, 1e-300)


def support_basis(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the range of PSD ``m``; eigenvalues at or below
    ``1e-9 * scale`` (default: ``m``'s own norm) count as zero."""
    w, v = np.linalg.eigh(m)
    cut = rank_cut(w) if scale is None else 1e-9 * scale
    return v[:, w > cut]


def kernel_basis(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    cut = rank_cut(w) if scale is None else 1e-9 * scale
    return v[:, w <= cut]


def norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if np.asarray(m).size else 0.0


def rank(m: np.ndarray) -> int:
    return support_basis(m).shape[1]


def sqrtm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.where(w > rank_cut(w), w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def powm(m: np.ndarray, p: float) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0) ** p) @ v.conj().T


def anderson_duffin(a, b):
    """Parallel sum ``a (a+b)^+ b`` (Anderson and Duffin)."""
    return a @ np.linalg.pinv(a + b, hermitian=True) @ b


def abs_cont_part(a, b):
    """``b^(1/2) P b^(1/2)`` with ``P`` the projection onto the vectors ``v``
    for which ``b^(1/2) v`` lies in the range of ``a``."""
    n = a.shape[0]
    pa = support_basis(a)
    bh = sqrtm(b)
    g = (np.eye(n) - pa @ pa.conj().T) @ bh
    null = kernel_basis(g.conj().T @ g, scale=norm(b))
    return bh @ (null @ null.conj().T) @ bh


def geometric_mean(a, b, alpha):
    """Congruence closed form ``a^(1/2) (a^(-1/2) b a^(-1/2))^(1-alpha) a^(1/2)``."""
    ah = sqrtm(a)
    ahi = np.linalg.inv(ah)
    return ah @ powm(ahi @ b @ ahi, 1.0 - alpha) @ ah


def is_singular(a, b) -> bool:
    """Ranges of ``a`` and ``b`` meet only in 0."""
    return rank(a) + rank(b) == rank(a + b)


def is_abs_continuous(a, b) -> bool:
    """The range of ``b`` lies in the range of ``a``."""
    return rank(a) == rank(a + b)


def pairing_is_infinite(a, b, rho) -> bool:
    """An unbounded-at-``y = 0`` pairing is +inf exactly when ``rho`` puts
    weight on ``a(ker b)``, the directions where the second slot vanishes
    and the first does not."""
    z = a @ kernel_basis(b)
    if z.shape[1] == 0:
        return False
    zb = support_basis(z @ z.conj().T, scale=norm(a) ** 2)
    weight = float(np.real(np.trace(zb.conj().T @ rho @ zb)))
    return weight > 1e-6 * float(np.real(np.trace(rho)))


class PairOracle:
    """The pair representation of ``(a, b)`` recomputed through LAPACK.

    Evaluates any profile ``g`` on the commuting pair as
    ``T* V diag(g(x)) V* T``, with the same endpoint classification the
    library documents (``x <= zero_tol`` is 0, ``x >= 1 - one_tol`` is 1).
    """

    def __init__(self, a, b, zero_tol=1e-8, one_tol=1e-8):
        lam, q = np.linalg.eigh(a + b)
        keep = lam > rank_cut(lam)
        lam, q = lam[keep], q[:, keep]
        self.coord = np.sqrt(lam)[:, None] * q.conj().T
        scaled = q / np.sqrt(lam)[None, :]
        gram = scaled.conj().T @ a @ scaled
        x, v = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        self.x = x
        self.zero = x <= zero_tol
        self.one = x >= 1.0 - one_tol
        self.tv = v.conj().T @ self.coord

    def values(self, fn) -> np.ndarray:
        out = np.empty(self.x.size)
        for i, xi in enumerate(self.x):
            if self.zero[i]:
                out[i] = fn.at_zero
            elif self.one[i]:
                out[i] = fn.at_one
            else:
                out[i] = fn.profile(min(max(float(xi), 0.0), 1.0))
        return out

    def eval(self, fn) -> np.ndarray:
        return (self.tv.conj().T * self.values(fn)) @ self.tv

    def weights(self, rho) -> np.ndarray:
        return np.maximum(np.real(np.einsum("ij,jk,ik->i", self.tv, rho,
                                            self.tv.conj())), 0.0)

    def pairing(self, fn, rho) -> float:
        vals = self.values(fn)
        w = self.weights(rho)
        inf = np.isinf(vals)
        if inf.any() and w[inf].sum() > 1e-6 * w.sum():
            return math.inf
        return float((vals[~inf] * w[~inf]).sum())


def _power(a, b, alpha):
    """``x^alpha y^(1-alpha)`` of a definite-``b`` pair, by congruence."""
    bh = sqrtm(b)
    bhi = np.linalg.inv(bh)
    return bh @ powm(bhi @ a @ bhi, alpha) @ bh


def _entropy(a, b):
    """``x log(x/y)`` of a definite-``b`` pair, with ``0 log 0 = 0``."""
    bh = sqrtm(b)
    bhi = np.linalg.inv(bh)
    w, v = np.linalg.eigh(bhi @ a @ bhi)
    w = np.maximum(w, 0.0)
    f = np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
    return bh @ ((v * f) @ v.conj().T) @ bh


def pairing(a, b, fn, rho, alpha=None):
    """Value of ``tr(rho f(a, b))``: +inf by the kernel rule for profiles
    unbounded at ``y = 0``, closed forms for definite ``b`` (``alpha`` is the
    exponent of a power profile), else the LAPACK pair representation."""
    if math.isinf(fn.at_one) and pairing_is_infinite(a, b, rho):
        return math.inf
    definite = rank(b) == b.shape[0]
    if definite and alpha is not None:
        m = _power(a, b, alpha)
    elif definite and fn.name == "entropy":
        m = _entropy(a, b)
    else:
        return PairOracle(a, b).pairing(fn, rho)
    return float(np.real(np.trace(rho @ m)))


def psd_ok(m, scale) -> bool:
    m = np.asarray(m)
    if m.size == 0:
        return True
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()) >= -RTOL * scale


def close(x, ref, scale) -> bool:
    """Entrywise agreement within ``RTOL * scale``."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        return False
    if x.size == 0:
        return True
    return float(np.max(np.abs(x - ref))) <= RTOL * scale


def close_scalar(x, ref, scale) -> bool:
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= RTOL * scale
