"""Dense Hermitian linear-algebra kernel.

Deterministic primitives for complex Hermitian and positive semidefinite
matrices: a cyclic two-sided Jacobi eigensolver, PSD validation, square
roots, support projections, polar isometries and Kronecker products.
Everything operates on plain ``numpy`` arrays in ``complex128`` and is
a pure function of its inputs, so concurrent use is safe.

The Jacobi solver is used instead of a LAPACK driver because it is
bit-deterministic for identical input bits and resolves small
eigenvalues with high relative accuracy; the spectral classification at
0 and 1 performed elsewhere in the library depends on both properties.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InputError, NotPsdError, NumericError

MAX_JACOBI_SWEEPS = 64
KRON_MAX_DIM = 4096


def _as_square(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m.astype(np.complex128, copy=False)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, ``(m + m*) / 2``."""
    return 0.5 * (m + m.conj().T)


def hermitian_part(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian within tolerance and symmetrize it.

    The deviation ``max |a - a*|`` must stay below
    ``herm_tol * max(1, max |entry|)``.
    """
    m = _as_square(a)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if dev > tol.herm_tol * scale:
        raise InputError(
            f"matrix is not Hermitian: asymmetry {dev:.3e} exceeds "
            f"herm_tol*scale = {tol.herm_tol * scale:.3e}")
    return hermitize(m)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with an orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble ``basis @ diag(values) @ basis*``."""
        return self.basis @ (np.asarray(values)[:, None] * self.basis.conj().T)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def _offdiag_norm(h: np.ndarray) -> float:
    m = h.copy()
    np.fill_diagonal(m, 0.0)
    return float(np.linalg.norm(m))


def _jacobi_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic two-sided Jacobi diagonalization of a Hermitian matrix."""
    n = mat.shape[0]
    h = np.array(mat, dtype=np.complex128, copy=True)
    v = np.eye(n, dtype=np.complex128)
    if n < 2:
        return np.diag(h).real.astype(np.float64), v
    target = n * float(np.finfo(np.float64).eps) * float(np.linalg.norm(h))
    for _ in range(MAX_JACOBI_SWEEPS):
        if _offdiag_norm(h) <= target:
            vals = np.diag(h).real.copy()
            order = np.argsort(vals, kind="stable")
            return vals[order], v[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                app = h[p, p].real
                aqq = h[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                su = (t * c) * (apq / mag)
                suc = su.conjugate()
                colp = h[:, p].copy()
                colq = h[:, q].copy()
                h[:, p] = c * colp - suc * colq
                h[:, q] = su * colp + c * colq
                rowp = h[p, :].copy()
                rowq = h[q, :].copy()
                h[p, :] = c * rowp - su * rowq
                h[q, :] = suc * rowp + c * rowq
                h[p, p] = app - t * mag
                h[q, q] = aqq + t * mag
                h[p, q] = 0.0
                h[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - suc * vq
                v[:, q] = su * vp + c * vq
    raise NumericError(
        f"Jacobi eigensolver did not converge within {MAX_JACOBI_SWEEPS} sweeps")


def eig_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within ``tol.herm_tol``.
    tol : ToleranceConfig

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and an orthonormal eigenbasis. The result
        is deterministic for identical input bits.
    """
    m = hermitian_part(a, tol)
    vals, vecs = _jacobi_eig(m)
    return SpectralDecomposition(vals, vecs)


def _psd_eig(a, tol: ToleranceConfig,
             scale: float = 0.0) -> SpectralDecomposition | None:
    """Diagonalize ``a``, raising below ``-psd_tol * max(norm, scale)``;
    ``None`` for the empty matrix."""
    dec = eig_hermitian(a, tol)
    w = dec.eigenvalues
    if w.size == 0:
        return None
    norm = max(abs(float(w[0])), abs(float(w[-1])))
    floor = tol.psd_tol * max(norm, scale)
    if float(w[0]) < -floor:
        raise NotPsdError(
            f"matrix is not positive semidefinite: eigenvalue {float(w[0]):.6e} "
            f"below -psd_tol*scale = {-floor:.6e}")
    return dec


def validate_psd(a, tol: ToleranceConfig = DEFAULT_TOL,
                 scale: float = 0.0) -> tuple[np.ndarray, float]:
    """Validate positive semidefiniteness and clamp rounding-level negatives.

    Eigenvalues in ``[-floor, 0)`` with ``floor = psd_tol * max(norm, scale)``
    are treated as noise and clamped to zero; anything below ``-floor`` is
    a hard :class:`NotPsdError`. Silent repair of genuinely indefinite
    input would mask user errors, so no attempt is made to "fix" it.

    Returns
    -------
    (matrix, min_eig) : (ndarray, float)
        The clamped Hermitian PSD matrix and the smallest eigenvalue seen
        during validation.
    """
    dec = _psd_eig(a, tol, scale)
    if dec is None:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    w = dec.eigenvalues
    smallest = float(w[0])
    if smallest < 0.0:
        m = hermitize(dec.apply(np.maximum(w, 0.0)))
    else:
        m = hermitize(np.asarray(a, dtype=np.complex128))
    return m, smallest


def psd_sqrt(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    dec = _psd_eig(a, tol)
    if dec is None:
        return np.zeros((0, 0), dtype=np.complex128)
    return hermitize(dec.apply(np.sqrt(np.maximum(dec.eigenvalues, 0.0))))


def support_projection(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD matrix."""
    dec = _psd_eig(a, tol)
    if dec is None:
        return np.zeros((0, 0), dtype=np.complex128)
    w = dec.eigenvalues
    th = tol.support_threshold(w.size, float(w[-1]))
    return hermitize(dec.apply(np.where(w > th, 1.0, 0.0)))


def polar_isometry(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Partial-isometry factor of the polar decomposition ``m = w |m|``.

    Works for any rectangular matrix. The returned ``w`` satisfies
    ``w @ psd_sqrt(m* m) = m`` and ``w* w`` is the support projection of
    ``m* m``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got shape {m.shape}")
    gram = hermitize(m.conj().T @ m)
    dec = eig_hermitian(gram, tol)
    w = np.maximum(dec.eigenvalues, 0.0)
    if w.size == 0:
        return np.zeros_like(m)
    th = tol.support_threshold(w.size, float(w[-1]))
    keep = w > th
    if not keep.any():
        return np.zeros_like(m)
    vecs = dec.basis[:, keep]
    cols = (m @ vecs) / np.sqrt(w[keep])[None, :]
    return cols @ vecs.conj().T


def kron(a, b, max_dim: int = KRON_MAX_DIM) -> np.ndarray:
    """Kronecker product with a guard against runaway dimensions."""
    ma = np.asarray(a, dtype=np.complex128)
    mb = np.asarray(b, dtype=np.complex128)
    if ma.ndim != 2 or mb.ndim != 2:
        raise InputError("kron expects two matrices")
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if rows > max_dim or cols > max_dim:
        raise InputError(
            f"Kronecker product dimension {rows}x{cols} exceeds the "
            f"configured maximum {max_dim}")
    return np.kron(ma, mb)


def hermitian_norm(a) -> float:
    """Spectral norm of a (nearly) Hermitian matrix via the Jacobi solver."""
    m = hermitize(np.asarray(a, dtype=np.complex128))
    if m.size == 0:
        return 0.0
    vals, _ = _jacobi_eig(m)
    return float(np.abs(vals).max())


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))
