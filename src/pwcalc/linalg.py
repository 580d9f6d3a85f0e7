"""Dense Hermitian linear-algebra kernel.

Deterministic primitives for complex Hermitian and positive semidefinite
matrices: a two-sided Jacobi eigensolver, PSD validation, square roots,
support projections, polar isometries and Kronecker products.
Everything takes and returns plain ``numpy`` arrays, matrices in
``complex128`` and eigenvalues in ``float64``, and is a pure function of
its inputs, so concurrent use is safe. Inside the eigensolver, a matrix
whose imaginary parts are all zero is rotated in ``float64``, with the
same bits as ``complex128`` rotations would give.

The Jacobi solver is used instead of a LAPACK driver because it is
bit-deterministic for identical input bits and resolves small
eigenvalues with high relative accuracy; the spectral classification at
0 and 1 performed elsewhere in the library depends on both properties.
The solver visits index pairs in a fixed round-robin order (the parallel
ordering of Brent and Luk, 1985): each round rotates ``n/2`` disjoint
pairs in one numpy step. Every rotation uses the classic two-sided
formula, which keeps the relative accuracy on graded matrices (Demmel
and Veselic, 1992).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InputError, NotPsdError, NumericError

MAX_JACOBI_SWEEPS = 64
# |h[p, q]| below this (zero or subnormal) gets no rotation: its phase
# apq / |apq| is not representable to working precision, and complex
# division by a subnormal overflows
_TINY = float(np.finfo(np.float64).tiny)
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
    ``herm_tol * max |entry|``, so the verdict does not change when ``a``
    is scaled; the zero matrix passes with deviation 0.
    """
    m = _as_square(a)
    scale = float(np.abs(m).max()) if m.size else 0.0
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


def _norm(m: np.ndarray) -> float:
    """Frobenius norm of ``m``, summed as for ``complex128`` whatever its
    dtype: numpy sums a complex array through a strided view of its real
    parts, in another order than a contiguous ``float64`` array, and the
    kernel's stopping rule must not depend on the dtype of its rounds."""
    return float(np.linalg.norm(m.astype(np.complex128, copy=False)))


def _offdiag_norm(h: np.ndarray) -> float:
    m = h.astype(np.complex128)
    np.fill_diagonal(m, 0.0)
    return _norm(m)


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of disjoint index pairs ``(p, q)``, ``p < q``, by rounds.

    Circle method: index ``m - 1`` (``m = n`` rounded up to even) stays
    fixed while the others rotate, so each of the ``m - 1`` rounds pairs
    every index once and every pair meets exactly once per sweep. For odd
    ``n`` the fixed index is padding and its partner sits the round out.
    """
    m = n + n % 2
    k = np.arange(1, m // 2)
    rounds = []
    for r in range(m - 1):
        i = (r + k) % (m - 1)
        j = (r - k) % (m - 1)
        p = np.minimum(i, j)
        q = np.maximum(i, j)
        if m == n:
            p = np.concatenate(([r], p))
            q = np.concatenate(([m - 1], q))
        rounds.append((p, q))
    return rounds


# A process solves at few sizes: lib-medium's mix reaches 8 and its traced
# run 13 (with the 64 and 128 of the kernel sweep). Rebuilding the plan
# once per solve cost 1-4% of lib-medium's ops/s. An entry holds about
# 24 n^2 bytes.
@functools.lru_cache(maxsize=16)
def _round_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The rounds of :func:`_round_robin` as read-only indices into the
    flattened ``n x n`` matrix: ``pq`` (the ``p`` then the ``q`` of each
    pair), the diagonal entries ``(pq, pq)``, and the off-diagonal entries
    ``(p, q)`` then ``(q, p)``."""
    plan = []
    for p, q in _round_robin(n):
        pq = np.concatenate((p, q))
        arrays = (pq, pq * (n + 1), np.concatenate((p * n + q, q * n + p)))
        for a in arrays:
            a.flags.writeable = False
        plan.append(arrays)
    return tuple(plan)


def _rotate(x: np.ndarray, y: np.ndarray, c, s, s_conj) -> None:
    """In place: ``x <- c x - s_conj y`` and ``y <- s x + c y``."""
    sx = s * x
    x *= c
    x -= s_conj * y
    y *= c
    y += sx


def _jacobi_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Jacobi diagonalization of a Hermitian matrix.

    Each sweep runs the rounds of :func:`_round_robin`. A round computes
    the rotations of all its disjoint pairs from the same matrix, then
    applies them with one gather and scatter of the paired columns of
    ``h`` and ``v`` and one of the paired rows of ``h``, and sets the 2x2
    diagonal blocks exactly. Pairs whose ``h[p, q]`` is zero or subnormal
    are skipped. The order is fixed, so the result is a function of the
    input bits.

    A matrix with no nonzero imaginary part is rotated in ``float64``,
    with the bits the ``complex128`` rounds give it: every step is the
    same IEEE operation on the same real parts. Its phase is
    ``apq * (1 / |apq|)``, because numpy's complex division (Smith's
    method) computes the real part of ``apq / |apq|`` as that product;
    the float quotient ``apq / |apq|`` rounds once where Smith's method
    rounds twice. The eigenvalues are ``float64`` and the eigenvectors
    ``complex128`` for either dtype.
    """
    n = mat.shape[0]
    real = not mat.imag.any()
    dtype = np.float64 if real else np.complex128
    # v sits under h: both take the same column rotations
    hv = np.empty((2 * n, n), dtype=dtype)
    h = hv[:n]
    h[...] = mat.real if real else mat
    hv[n:] = np.eye(n)
    if n < 2:
        return np.diag(h).real.astype(np.float64), hv[n:].astype(np.complex128)
    target = n * float(np.finfo(np.float64).eps) * _norm(h)
    flat = hv.reshape(-1)
    # tau overflows to inf, and |tau| + hypot(1, tau) with it, when
    # h[p, q] is negligible next to the diagonal gap; t is then 0 and the
    # rotation the identity
    with np.errstate(over="ignore"):
        for _ in range(MAX_JACOBI_SWEEPS):
            if _offdiag_norm(h) <= target:
                vals = np.diag(h).real.copy()
                order = np.argsort(vals, kind="stable")
                return vals[order], hv[n:, order].astype(np.complex128, copy=False)
            for pq, diag, off in _round_plan(n):
                k = pq.size // 2
                apq = flat[off[:k]]
                mag = np.abs(apq)
                if mag.min() < _TINY:
                    live = mag >= _TINY
                    if not live.any():
                        continue
                    apq, mag = apq[live], mag[live]
                    live = np.concatenate((live, live))
                    pq, diag, off = pq[live], diag[live], off[live]
                    k = mag.size
                d = flat[diag].real
                app = d[:k]
                aqq = d[k:]
                tau = (aqq - app) / (2.0 * mag)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                if real:
                    su = (t * c) * (apq * (1.0 / mag))
                    su_conj = su
                else:
                    su = (t * c) * (apq / mag)
                    su_conj = su.conj()
                c = c.astype(dtype, copy=False)
                cols = hv[:, pq]
                _rotate(cols[:, :k], cols[:, k:], c, su, su_conj)
                hv[:, pq] = cols
                rows = h[pq]
                _rotate(rows[:k], rows[k:], c[:, None], su_conj[:, None], su[:, None])
                h[pq] = rows
                tm = t * mag
                flat[diag] = np.concatenate((app - tm, aqq + tm))
                flat[off] = 0.0
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


def _psd_eig(a, tol: ToleranceConfig) -> SpectralDecomposition:
    """Diagonalize ``a``, raising below ``-psd_tol * norm``."""
    dec = eig_hermitian(a, tol)
    w = dec.eigenvalues
    if w.size:
        floor = tol.psd_tol * max(abs(float(w[0])), abs(float(w[-1])))
        if float(w[0]) < -floor:
            raise NotPsdError(
                f"matrix is not positive semidefinite: eigenvalue {float(w[0]):.6e} "
                f"below -psd_tol*scale = {-floor:.6e}")
    return dec


def _above_support(w: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the ascending eigenvalues ``w`` above the support threshold."""
    return w > tol.support_threshold(w.size, float(w[-1]) if w.size else 0.0)


def _validated(a, tol: ToleranceConfig) -> tuple[np.ndarray, SpectralDecomposition]:
    """:func:`validate_psd`'s matrix with the decomposition that checked it."""
    dec = _psd_eig(a, tol)
    w = dec.eigenvalues
    if w.size and float(w[0]) < 0.0:
        return hermitize(dec.apply(np.maximum(w, 0.0))), dec
    return hermitize(np.asarray(a, dtype=np.complex128)), dec


def validate_psd(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Validate positive semidefiniteness and clamp rounding-level negatives.

    Eigenvalues in ``[-floor, 0)`` with ``floor = psd_tol * norm`` (the
    spectral norm of ``a``) are treated as noise and clamped to zero;
    anything below ``-floor`` is a hard :class:`NotPsdError`. Silent
    repair of genuinely indefinite input would mask user errors, so no
    attempt is made to "fix" it.

    Returns
    -------
    (matrix, min_eig) : (ndarray, float)
        The clamped Hermitian PSD matrix and the smallest eigenvalue seen
        during validation.
    """
    m, dec = _validated(a, tol)
    w = dec.eigenvalues
    return m, float(w[0]) if w.size else 0.0


def _sqrt_of(dec: SpectralDecomposition, tol: ToleranceConfig) -> np.ndarray:
    """Square root from a PSD decomposition; eigenvalues at or below the
    support threshold count as zero, so kernel noise leaves no root."""
    w = dec.eigenvalues
    return hermitize(dec.apply(np.sqrt(np.where(_above_support(w, tol), w, 0.0))))


def psd_sqrt(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Its rank is that of :func:`support_projection`: eigenvalues at or
    below the support threshold are taken as zero.
    """
    return _sqrt_of(_psd_eig(a, tol), tol)


def _support_of(dec: SpectralDecomposition, tol: ToleranceConfig) -> np.ndarray:
    """Support projection from a PSD decomposition, with the cutoff of
    :func:`_sqrt_of`."""
    return hermitize(dec.apply(np.where(_above_support(dec.eigenvalues, tol), 1.0, 0.0)))


def support_projection(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD matrix."""
    return _support_of(_psd_eig(a, tol), tol)


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
    keep = _above_support(dec.eigenvalues, tol)
    vecs = dec.basis[:, keep]
    cols = (m @ vecs) / np.sqrt(dec.eigenvalues[keep])[None, :]
    return cols @ vecs.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with a guard against runaway dimensions."""
    ma = np.asarray(a, dtype=np.complex128)
    mb = np.asarray(b, dtype=np.complex128)
    if ma.ndim != 2 or mb.ndim != 2:
        raise InputError("kron expects two matrices")
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if rows > KRON_MAX_DIM or cols > KRON_MAX_DIM:
        raise InputError(
            f"Kronecker product dimension {rows}x{cols} exceeds the "
            f"configured maximum {KRON_MAX_DIM}")
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
