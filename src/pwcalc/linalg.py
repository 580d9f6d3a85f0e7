"""Dense Hermitian linear-algebra kernel.

Deterministic primitives for complex Hermitian and positive semidefinite
matrices: a two-sided Jacobi eigensolver, PSD validation, square roots,
support projections, polar isometries, Kronecker products and
orthonormal bases by pivoted Gram-Schmidt.
Everything takes and returns plain ``numpy`` arrays, matrices in
``complex128`` and eigenvalues in ``float64``, and is a pure function of
its inputs, so concurrent use is safe. Inside the eigensolver, a matrix
whose imaginary parts are all zero is rotated in ``float64``, with the
same bits as ``complex128`` rotations would give.

The Jacobi solver is used instead of a LAPACK driver because it is
bit-deterministic for identical input bits; the spectral classification
at 0 and 1 performed elsewhere in the library depends on that. It stops
when the off-diagonal Frobenius norm falls to ``n * eps * ||h||_F``, an
absolute bound: by Weyl's inequality each eigenvalue it returns lies
within the final off-diagonal Frobenius norm of an eigenvalue of the
rotated matrix, which differs from the input only by the rotations'
rounding. Eigenvalues far below that bound, such as the small ones of a
graded matrix, are not resolved to high relative accuracy.

Every matrix is solved at unit scale: scaled by the power of two that
brings its largest entry into ``[1/2, 1)``, with its eigenvalues scaled
back. That is exact, and every step of the solve is homogeneous, so a
matrix and its multiple by a power of two get the same eigenvectors,
and eigenvalues that factor apart, wherever their entries stay normal.
So the PSD verdict, relative to the spectral norm, does not change when
the input is scaled, however small or large it is.
:func:`safe_frobenius` and :func:`polar_isometry` work at unit scale
too.

The solver visits index pairs in a fixed order, the modulus ordering
(Luk and Park, 1989): a sweep runs the rounds ``r = n - 1, ..., 0``, and
round ``r`` rotates the disjoint pairs ``p < q`` with ``p + q = r (mod
n)`` in one numpy step. That is ``n`` rounds per sweep, of ``n/2`` or
``n/2 - 1`` pairs for even ``n`` and ``(n - 1)/2`` for odd ``n``. A
cluster of eigenvalues, such as the kernel of a rank-deficient matrix,
then costs few sweeps more than a definite spectrum, where the circle
ordering of Brent and Luk (``n - 1`` rounds of ``n/2`` pairs) took three
or four more.

A caller that needs only a PSD verdict and the validated matrix, such as
the pairing of a state or ``PwRep.to_support``, may let the solve stop
early. Such a member is tested at every sweep's end and, when it is
solved alone, up to three times inside a sweep: Weyl's inequality bounds
the smallest eigenvalue from below by ``min_i Re h_ii - ||e||_2``, with
``e = off(h)`` the off-diagonal part, and ``||e||_2`` is at most the
smaller of ``||e||_F`` and the Schatten-4 bound ``sqrt(||e* e||_F)``,
taken with the rounding of the product (:func:`_certified`). When that
clears a margin of ``32 * MAX_JACOBI_SWEEPS * n`` times the stopping
target (the rounding of every round the solve could still run, and
more), the member is :data:`CERTIFIED` positive: its full solve would
have returned no negative eigenvalue, so validation clamps nothing and
its matrix is the Hermitian part of the input, with the same bits.
:func:`validate_psd`, which reports the smallest eigenvalue, and every
caller of an eigenbasis still solve to convergence.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, EPS, ToleranceConfig
from .errors import InputError, NotPsdError, NumericError

MAX_JACOBI_SWEEPS = 64
# |h[p, q]| below this (zero or subnormal) gets no rotation: its phase
# apq / |apq| is not representable to working precision, and complex
# division by a subnormal overflows
_TINY = float(np.finfo(np.float64).tiny)
KRON_MAX_DIM = 4096


def _numeric(a, what: str) -> np.ndarray:
    """``a`` as an array of numbers (integer, float or complex).

    Anything else raises :class:`InputError`: numpy would parse strings
    into numbers, compare objects only where they happen to support it,
    and read ``bool`` as 0 and 1.
    """
    try:
        m = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not an array of numbers: {exc}")
    if not np.issubdtype(m.dtype, np.number):
        raise InputError(f"{what} must hold numbers, got dtype {m.dtype}")
    return m


def _as_square(a) -> np.ndarray:
    m = _numeric(a, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m.astype(np.complex128, copy=False)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, ``(m + m*) / 2``.

    Halving first cannot overflow for finite entries, and it gives the
    bits of ``(m + m*) / 2`` wherever the halves stay normal.
    """
    h = 0.5 * m
    return h + h.conj().T


def hermitian_part(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian within tolerance and symmetrize it.

    The deviation ``max |a - a*|`` must stay below
    ``herm_tol * max |entry|``, so the verdict does not change when ``a``
    is scaled; the zero matrix passes with deviation 0. Both sides are
    scanned on the halves ``a / 2``, which cannot overflow for finite
    entries and give the same verdict wherever they stay normal.

    Every operation that takes a ``tol`` reads it here first, so a ``tol``
    that is not a :class:`ToleranceConfig` raises :class:`InputError`.
    """
    if not isinstance(tol, ToleranceConfig):
        raise InputError(f"tol must be a ToleranceConfig, got {type(tol).__name__}")
    m = _as_square(a)
    h = 0.5 * m
    half_scale = float(np.abs(h).max()) if m.size else 0.0
    half_dev = float(np.abs(h - h.conj().T).max()) if m.size else 0.0
    if half_dev > tol.herm_tol * half_scale:
        dev, scale = 2.0 * half_dev, 2.0 * half_scale
        if math.isfinite(dev) and math.isfinite(scale):
            raise InputError(
                f"matrix is not Hermitian: asymmetry {dev:.3e} exceeds "
                f"herm_tol*scale = {tol.herm_tol * scale:.3e}")
        raise InputError(
            f"matrix is not Hermitian: half its asymmetry, {half_dev:.3e}, "
            f"exceeds herm_tol*scale/2 = {tol.herm_tol * half_scale:.3e} "
            f"(the asymmetry or the scale overflows float64)")
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


def frobenius(m) -> float:
    """Frobenius norm of ``m``, summed as for ``complex128`` whatever its
    dtype: numpy sums a complex array through a strided view of its real
    parts, in another order than a contiguous ``float64`` array, and the
    kernel's stopping rule must not depend on the dtype of its rounds."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128)))


def _exponent(m: np.ndarray) -> int:
    """The binary exponent ``k`` of the largest real or imaginary part of
    the finite ``m``: ``m * 2**-k`` has its largest part in ``[1/2, 1)``.
    It is 0 for an empty or zero ``m``."""
    return int(np.frexp(max(np.abs(m.real).max(initial=0.0),
                            np.abs(m.imag).max(initial=0.0)))[1])


def _ldexp(m: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """``out`` set to ``m * 2**k``, each part apart by ``np.ldexp``: exact
    wherever the result stays normal, for every ``k``, and every zero
    keeps its sign. A real ``out`` takes the real part."""
    np.ldexp(m.real, k, out=out.real)
    if np.iscomplexobj(out):
        np.ldexp(m.imag, k, out=out.imag)
    return out


def safe_frobenius(m) -> float:
    """:func:`frobenius` that neither overflows nor underflows for finite
    entries.

    The plain norm squares the entries, which overflow above about 1e154
    and underflow below about 1e-154. So ``m`` is scaled by the power of
    two ``2**-k`` that brings its largest part into ``[1/2, 1)``, and the
    norm is scaled back. That is exact wherever the plain norm's squares
    stay normal, so every such norm keeps its bits. It is ``inf`` only
    when the norm itself exceeds the float range or an entry is infinite,
    and ``nan`` when an entry is ``nan``: ``np.ldexp`` keeps every
    non-finite part.
    """
    m = np.asarray(m, dtype=np.complex128)
    k = _exponent(m)
    with np.errstate(over="ignore"):
        return float(np.ldexp(frobenius(_ldexp(m, -k, np.empty_like(m))), k))


def _offdiag_norm(h: np.ndarray) -> tuple[float, np.ndarray]:
    """The Frobenius norm of the off-diagonal part of ``h`` and that part,
    as a ``complex128`` copy whatever the dtype of ``h``."""
    e = h.astype(np.complex128)
    np.fill_diagonal(e, 0.0)
    return frobenius(e), e


# what _jacobi_eig gives for a member that it certifies positive semidefinite
CERTIFIED = "certified positive semidefinite"
# the remaining rounds' rounding, in units of eps * ||h||_F per round and per
# row: see _certified
_ROUND_ROUNDING = 32
# how often a sweep tests its certify members, the test before it included
_TESTS_PER_SWEEP = 4


def _certified(h: np.ndarray, off: float, e: np.ndarray, target: float,
               k: int) -> bool:
    """Whether Weyl's bound certifies that the solve of ``h``, stopped here
    with off-diagonal part ``e`` of Frobenius norm ``off``, at a sweep's
    end or between two rounds inside it, would end with its smallest
    eigenvalue at or above 0.

    The smallest eigenvalue of ``h`` is at least ``min_i Re h_ii -
    ||e||_2`` (Weyl), and ``||e||_2`` is at most ``min(off, s)``. Here
    ``s = sqrt(||fl(e* e)||_F (1 + 4 n eps) + 4 n eps off**2) (1 + 4
    eps)`` is the Schatten-4 bound ``||e||_2^2 = ||e* e||_2 <= ||e*
    e||_F``, tighter than ``off`` by up to ``sqrt(n)`` for a dense ``e``,
    with the rounding of the product: ``fl(e* e)`` is off ``e* e``
    entrywise by at most ``sqrt(2) gamma_(n+2) <= 4 n eps`` times ``|e|*
    |e|``, whatever the order of each sum (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, section 3.6, on complex inner
    products), and ``|| |e|* |e| ||_F`` is at most ``off**2``. The
    factors ``1 + 4 n eps`` and ``1 + 4 eps`` allow for the rounding of
    the norm and of the square root; the margin below covers what they
    miss. The Gram ``e* e`` is used, not ``e @ e``: the rotated ``h`` is
    Hermitian only to rounding, and ``||e^2||_F`` does not bound
    ``||e||_2^2`` for a non-Hermitian ``e``. ``e`` is a ``complex128``
    copy, so the decision does not depend on the member's dtype.

    The rounds left, at most ``MAX_JACOBI_SWEEPS * n``, move the smallest
    eigenvalue by their rounding, each under ``_ROUND_ROUNDING * n * eps *
    ||h||_F``, and the diagonal that the solve returns lies at or above
    the smallest eigenvalue of the matrix it converged to. So the
    difference must clear ``_ROUND_ROUNDING * MAX_JACOBI_SWEEPS * n *
    target``, a margin that also covers ``target`` and the rest of this
    test's own rounding: the sums in the two norms err by under ``n**2 *
    eps`` relative, and ``s`` is at most about ``off <= ||h||_F``. ``h``
    is solved at unit scale, ``2**-k`` times its member, so ``||h||_F`` is
    at least 1/2, and the squares and products that underflow in ``off``
    and ``s`` hide at most ``n * 2**-537`` from either, far inside the
    margin. The same bound from above, scaled back by ``2**k``, must stay
    finite, where the solve would raise.
    """
    n = h.shape[0]
    d = h.diagonal().real
    margin = _ROUND_ROUNDING * MAX_JACOBI_SWEEPS * n * target
    gram = frobenius(e.conj().T @ e)
    s = math.sqrt(gram * (1.0 + 4 * n * EPS) + 4 * n * EPS * off * off) * (1.0 + 4 * EPS)
    bound = min(off, s)
    if float(d.min()) - bound <= margin:
        return False
    return bool(np.isfinite(np.ldexp(float(d.max()) + bound + margin, k)))


def _rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of disjoint index pairs ``(p, q)``, ``p < q``, by rounds.

    Modulus ordering: round ``r`` holds the pairs with ``p + q = r
    (mod n)``, and the sweep runs ``r = n - 1, ..., 0``, so every pair
    meets exactly once. For ``n >= 3`` that is ``n`` rounds: for even
    ``n``, ``n/2`` pairs in odd rounds and ``n/2 - 1`` in even ones,
    whose two indices with ``2 p = r`` sit out; for odd ``n``,
    ``(n - 1)/2`` pairs and one index sitting out in each. Empty rounds
    (``n <= 2``) are dropped.
    """
    p = np.arange(n)
    rounds = []
    for r in range(n - 1, -1, -1):
        q = (r - p) % n
        keep = p < q
        if keep.any():
            rounds.append((p[keep], q[keep]))
    return rounds


# A process solves at few (size, members) keys: the input sizes side by
# side (a pair, its sum and a state, fewer as members converge) and the
# retained blocks of gram_a alone, whose sizes vary with the ranks drawn.
# One seeded lib-medium cycle used 21-24 keys at seeds 1-5 and three cycles
# 23; its traced run adds the 64 and 128 of the kernel sweep. A rep-sweep
# pair's whole sequence used 2 and five pairs 4.
# tests/test_api.py checks that no plan is evicted. Rebuilding the plan once
# per solve cost 1-4% of lib-medium's ops/s. An entry holds about 32 m n^2
# bytes.
@functools.lru_cache(maxsize=32)
def _round_plan(n: int, m: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rounds of :func:`_rounds` as read-only indices for ``m``
    members of size ``n`` side by side, ``[h_1 | ... | h_m]`` over
    ``[v_1 | ... | v_m]``.

    Each round gives the columns ``pq`` (the ``p`` then the ``q`` of each
    pair) of every member, the same rows of the ``(n m, n)`` view that
    holds one row of one member per line, the diagonal entries
    ``(pq, pq)`` and the off-diagonal entries ``(p, q)`` then ``(q, p)``
    in the flattened array. Each half is pair-major: the members of a
    pair sit together, in member order. For one member these are the
    indices of the lone matrix.
    """
    members = np.arange(m)
    plan = []
    for p, q in _rounds(n):
        pq = np.concatenate((p, q))[:, None]
        qp = np.concatenate((q, p))[:, None]
        cols = members * n + pq
        arrays = (cols, pq * m + members, pq * (m * n) + cols,
                  pq * (m * n) + members * n + qp)
        arrays = tuple(a.reshape(-1) for a in arrays)
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


def _jacobi_eig(*mats: np.ndarray, certify=()):
    """Two-sided Jacobi diagonalization of Hermitian matrices of one size.

    Each member is solved as if alone, with the same output bits; solving
    several side by side shares each round's numpy calls among them.
    Returns ``(eigenvalues, eigenvectors)`` for one member and a list of
    them, in member order, for several.

    Each sweep runs the rounds of :func:`_rounds`. A round computes
    the rotations of all its disjoint pairs from the same matrix, then
    applies them with one gather and scatter of the paired columns of
    ``h`` and ``v`` and one of the paired rows of ``h``, and sets the 2x2
    diagonal blocks exactly. The members sit side by side,
    ``[h_1 | ... | h_m]`` over ``[v_1 | ... | v_m]``, and each pair of
    each member gets its own rotation: the members' paired columns move
    in one gather, and their rows, which they share, in one gather of
    the ``(n m, n)`` view that holds one row of one member per line.
    A pair whose ``h[p, q]`` is zero or subnormal is skipped in that
    member only. Each member keeps its own stopping test and leaves the
    array when it meets it. The order is fixed, so each result is a
    function of its member's input bits, whatever else shares the call.

    Every member is solved at unit scale: it enters the array as ``m *
    2**-k``, with ``k`` from :func:`_exponent`, so that its largest part
    lies in ``[1/2, 1)``. Its eigenvalues are scaled back by ``2**k`` and
    checked when it converges, once for each member: a spectrum beyond the
    float64 range raises :class:`NumericError` there, whatever the other
    members still do. Scaling by a power of two is exact for every
    entry that stays normal, and every step of a round (``tau``, the
    rotation, its phase and the stopping norm) is homogeneous. So ``m``
    and ``2**j m`` get the same eigenvectors and eigenvalues ``2**j``
    apart, bit for bit, for every ``j`` that keeps their entries and
    eigenvalues normal. At unit scale the stopping norm's squares cannot
    overflow, and they underflow only for entries below ``2**-537`` of
    the largest, which lie far below the stopping target.

    Members with no nonzero imaginary part are rotated in ``float64``,
    with the bits the ``complex128`` rounds give them: every step is the
    same IEEE operation on the same real parts. Their phase is
    ``apq * (1 / |apq|)``, because numpy's complex division (Smith's
    method) computes the real part of ``apq / |apq|`` as that product;
    the float quotient ``apq / |apq|`` rounds once where Smith's method
    rounds twice. If any member is complex, all are rotated in
    ``complex128``. The eigenvalues are ``float64`` and the eigenvectors
    ``complex128`` for either dtype.

    A member whose index is in ``certify`` is finished once it passes
    :func:`_certified`, before it converges: its result is then
    :data:`CERTIFIED` instead of a decomposition. Its full solve would
    have returned no negative eigenvalue and raised nothing, so a caller
    that needs only the PSD verdict loses nothing by it. It is tested at
    each stopping test. When every member the call still holds is in
    ``certify``, as for a state or a dominated matrix solved alone, they
    are also tested between rounds, after every ``ceil(rounds /
    _TESTS_PER_SWEEP)`` rounds of a sweep, and the call stops there once
    all of them are certified; a member certified there while others
    still rotate leaves the array at the sweep's end, as a converged one
    does. A call that also holds other members, such as a state folded
    into a pair's validating call, cannot stop inside a sweep, so its
    members are tested only at stopping tests. The tests only read the
    array, so no member's bits depend on them.
    """
    n = mats[0].shape[0]
    real = not any(m.imag.any() for m in mats)
    hv = np.empty((2 * n, len(mats) * n), dtype=np.float64 if real else np.complex128)
    results = [None] * len(mats)
    exps = [_exponent(m) for m in mats]
    targets = []
    for j, m in enumerate(mats):
        h = _ldexp(m, -exps[j], hv[:n, j * n:(j + 1) * n])
        hv[n:, j * n:(j + 1) * n] = np.eye(n)
        targets.append(n * float(np.finfo(np.float64).eps) * frobenius(h))
    # tau overflows to inf, and |tau| + hypot(1, tau) with it, when h[p, q]
    # is negligible next to the diagonal gap; t is then 0 and the rotation
    # the identity
    with np.errstate(over="ignore"):
        active = list(range(len(mats)))  # the member in each block of hv
        for _ in range(MAX_JACOBI_SWEEPS):
            left = []
            for i, j in enumerate(active):
                if results[j] is CERTIFIED:
                    continue  # certified inside the previous sweep
                h = hv[:n, i * n:(i + 1) * n]
                off, e = _offdiag_norm(h)
                if off > targets[j]:
                    if j in certify and _certified(h, off, e, targets[j], exps[j]):
                        results[j] = CERTIFIED
                    else:
                        left.append(i)
                    continue
                vals = np.diag(h).real
                order = np.argsort(vals, kind="stable")
                vals = np.ldexp(vals[order], exps[j])
                if not np.isfinite(vals).all():
                    raise NumericError(
                        "eigenvalue outside the float64 range: the matrix's "
                        "spectral norm overflows")
                results[j] = (vals,
                              hv[n:, i * n + order].astype(np.complex128, copy=False))
            if not left:
                break
            if len(left) < len(active):
                hv = hv.reshape(2 * n, len(active), n)[:, left].reshape(2 * n, -1)
                active = [active[i] for i in left]
            flat = hv.reshape(-1)
            # one row of one member's h per line
            h_rows = hv[:n].reshape(-1, n)
            plan = _round_plan(n, len(active))
            stride = -(-len(plan) // _TESTS_PER_SWEEP)
            # a test inside a sweep pays only where it can stop the call
            early = all(j in certify for j in active)
            for r, (cols, rows, diag, off) in enumerate(plan):
                if early and r and r % stride == 0:
                    for i, j in enumerate(active):
                        h = hv[:n, i * n:(i + 1) * n]
                        if results[j] is None and _certified(
                                h, *_offdiag_norm(h), targets[j], exps[j]):
                            results[j] = CERTIFIED
                    if all(results[j] is CERTIFIED for j in active):
                        break  # every member is finished
                k = cols.size // 2
                apq = flat[off[:k]]
                mag = np.abs(apq)
                if mag.min() < _TINY:
                    live = mag >= _TINY
                    if not live.any():
                        continue
                    apq, mag = apq[live], mag[live]
                    live = np.concatenate((live, live))
                    cols, rows, diag, off = cols[live], rows[live], diag[live], off[live]
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
                c = c.astype(hv.dtype, copy=False)
                both = hv[:, cols]
                _rotate(both[:, :k], both[:, k:], c, su, su_conj)
                hv[:, cols] = both
                both = h_rows[rows]
                _rotate(both[:k], both[k:], c[:, None], su_conj[:, None], su[:, None])
                h_rows[rows] = both
                tm = t * mag
                flat[diag] = np.concatenate((app - tm, aqq + tm))
                flat[off] = 0.0
    if any(res is None for res in results):
        raise NumericError(
            f"Jacobi eigensolver did not converge within {MAX_JACOBI_SWEEPS} sweeps")
    return results[0] if len(mats) == 1 else results


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


def _pivoted_columns(z: np.ndarray, m: np.ndarray, steps: int,
                     floor: float = 0.0) -> np.ndarray | None:
    """``z``, with orthonormal columns, and ``steps`` more orthonormal
    columns from the span of ``m`` after it, by Gram-Schmidt with column
    pivoting; None when a step finds no part of ``m`` left above ``floor``
    in norm.

    ``m`` is taken at unit scale (:func:`_exponent`), so its squares
    neither overflow nor underflow. Each step projects the basis so far
    out of every column of ``m`` twice, each time by the two products
    ``z (z* r)``, and appends the column with the largest part left,
    normalized: projecting twice leaves it orthogonal to ``z`` to
    rounding. Householder reflectors are not used: they put rounding into
    entries that the products leave exactly zero, such as those of a
    diagonal pair."""
    if not steps:
        return z
    e = _exponent(m)
    m = _ldexp(m, -e, np.empty_like(m))
    for _ in range(steps):
        r = m - z @ (z.conj().T @ m)
        r -= z @ (z.conj().T @ r)
        sq = np.sum(np.abs(r) ** 2, axis=0)
        j = int(np.argmax(sq))
        norm = np.sqrt(sq[j])
        if not (norm > 0.0 and np.ldexp(norm, e) > floor):
            return None
        z = np.concatenate((z, r[:, j:j + 1] / norm), axis=1)
    return z


def _checked(h: np.ndarray, solved, tol: ToleranceConfig):
    """``(matrix, dec)``: :func:`validate_psd`'s matrix for the Hermitian
    ``h`` and the decomposition of the kernel's ``(eigenvalues,
    eigenvectors)`` of it, raising below ``-psd_tol * norm``. Every PSD
    verdict is taken here. A ``solved`` of :data:`CERTIFIED` gives ``(h,
    None)``: the full solve would have clamped nothing."""
    if solved is CERTIFIED:
        return h, None
    dec = SpectralDecomposition(*solved)
    w = dec.eigenvalues
    if w.size:
        floor = tol.psd_tol * max(abs(float(w[0])), abs(float(w[-1])))
        if float(w[0]) < -floor:
            raise NotPsdError(
                f"matrix is not positive semidefinite: eigenvalue {float(w[0]):.6e} "
                f"below -psd_tol*scale = {-floor:.6e}")
        if float(w[0]) < 0.0:
            return hermitize(dec.apply(np.maximum(w, 0.0))), dec
    return h, dec


def _above_support(w: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the ascending eigenvalues ``w`` above the support threshold."""
    return w > tol.support_threshold(w.size, float(w[-1]) if w.size else 0.0)


def _rounding_level(dec: SpectralDecomposition, tol: ToleranceConfig) -> bool:
    """Whether ``dec``'s smallest eigenvalue lies at or above minus the
    rounding cutoff ``n * EPS * max(w[-1], 0)``, or minus the support
    threshold where that is smaller: a clamp there is rounding, and
    removes only what :func:`_sqrt_of` and :func:`_support_of` already
    count as zero. A ``support_tol`` above the rounding cutoff does not
    widen it, since a clamp that deep moves the sum's retained
    eigenvalues by more than rounding."""
    w = dec.eigenvalues
    if not w.size:
        return True
    top = float(w[-1])
    cutoff = min(w.size * EPS * max(top, 0.0), tol.support_threshold(w.size, top))
    return float(w[0]) >= -cutoff


def _validated(a, tol: ToleranceConfig,
               certify: bool = False) -> tuple[np.ndarray, SpectralDecomposition | None]:
    """:func:`validate_psd`'s matrix with the decomposition that checked it.

    With ``certify`` the solve may stop once it certifies ``a`` positive
    (:func:`_certified`), and the decomposition is then None: for a caller
    that reads only the matrix, whose bits are the same."""
    h = hermitian_part(a, tol)
    return _checked(h, _jacobi_eig(h, certify=(0,) if certify else ()), tol)


def _validated_pair(a, b, tol: ToleranceConfig, sum_too: bool = False, also=None):
    """``(av, a_dec, bv, b_dec, sum_dec, also_solved)``: :func:`_validated`
    of a pair of one size, both solved in one side-by-side call.

    The same call may solve two more members of the pair's size. Each is
    a function of its own input bits only, so it has the bits of a solve
    of its own, and only ``also`` may leave the call certified:

    - with ``sum_too``, ``hermitize(ha + hb)`` of the Hermitian parts.
      ``sum_dec`` is that member's decomposition when every clamp is
      rounding-level (:func:`_rounding_level`): the clamp then moves the
      sum by no more than the support cutoff that every reader of it
      applies. A deeper clamp, up to ``psd_tol``, makes ``sum_dec`` the
      decomposition of ``hermitize(av + bv)``, the sum of the clamped
      pair, in one more solve. A sum outside the float64 range raises
      :class:`NumericError`. Without ``sum_too`` it is None.
    - ``also``, a Hermitian matrix such as a state. ``also_solved`` is
      the kernel's ``(eigenvalues, eigenvectors)`` of it, not yet
      checked, or :data:`CERTIFIED` when the kernel certified it positive
      before it converged, or None when ``also`` is None, of another size
      or the call failed. :func:`_checked` takes either, for a caller
      that reads only the validated matrix.

    There is one fallback. When ``b``'s Hermitian check, the size check
    or the call fails, ``a`` and then ``b`` are validated on their own,
    one call each: that raises what failed, a non-PSD ``a`` before
    anything wrong with ``b``, or else the size mismatch. A pair that
    passes goes on without the extra members, so a failing extra member
    costs the pair nothing: the sum is solved in a call of its own, and
    ``also_solved`` is None. A bad pair is reported before the sum.
    """
    ha = hermitian_part(a, tol)
    try:
        hb = hermitian_part(b, tol)
        if hb.shape != ha.shape:
            raise InputError("pair members differ in size")  # reported below
        members = {}
        if sum_too:
            with np.errstate(over="ignore"):
                total = ha + hb
            if np.isfinite(total).all():
                # eig_hermitian(hermitize(av + bv)) solves hermitize of that
                # exactly Hermitian matrix again
                members["sum"] = hermitize(hermitize(total))
        if also is not None and also.shape == ha.shape:
            members["also"] = also
        # "also" is the last member
        last = (1 + len(members),) if "also" in members else ()
        a_res, b_res, *rest = _jacobi_eig(ha, hb, *members.values(), certify=last)
    except (InputError, NumericError):
        av, a_dec = _validated(a, tol)
        bv, b_dec = _validated(b, tol)
        if av.shape != bv.shape:
            raise InputError(f"pair members differ in size: {av.shape} vs {bv.shape}")
        extra = {}
    else:
        extra = dict(zip(members, rest))
        av, a_dec = _checked(ha, a_res, tol)
        bv, b_dec = _checked(hb, b_res, tol)
    sum_dec = None
    if "sum" in extra and _rounding_level(a_dec, tol) and _rounding_level(b_dec, tol):
        sum_dec = SpectralDecomposition(*extra["sum"])
    elif sum_too:
        with np.errstate(over="ignore"):
            total = av + bv
        if not np.isfinite(total).all():
            raise NumericError(
                "pair sum outside the float64 range: an entry of a + b overflows")
        sum_dec = eig_hermitian(hermitize(total), tol)
    return av, a_dec, bv, b_dec, sum_dec, extra.get("also")


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
    return _sqrt_of(_validated(a, tol)[1], tol)


def _support_of(dec: SpectralDecomposition, tol: ToleranceConfig) -> np.ndarray:
    """Support projection from a PSD decomposition, with the cutoff of
    :func:`_sqrt_of`."""
    return hermitize(dec.apply(np.where(_above_support(dec.eigenvalues, tol), 1.0, 0.0)))


def support_projection(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD matrix."""
    return _support_of(_validated(a, tol)[1], tol)


def polar_isometry(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Partial-isometry factor of the polar decomposition ``m = w |m|``.

    Works for any rectangular matrix. The returned ``w`` satisfies
    ``w @ psd_sqrt(m* m) = m`` and ``w* w`` is the support projection of
    ``m* m``. The factor does not change when ``m`` is scaled, so it is
    taken from ``m * 2**-k`` at unit scale (:func:`_exponent`), whose
    Gram neither overflows nor underflows: ``polar_isometry(diag(1e200,
    1))`` and ``polar_isometry(diag(1, 1e-200))`` are both ``diag(1, 0)``,
    since ``1e-400`` lies below the support threshold of ``diag(1,
    1e-400)``. An explicit ``support_tol`` still bounds the eigenvalues
    of ``m* m`` itself.
    """
    m = _numeric(m, "matrix").astype(np.complex128, copy=False)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix contains non-finite entries")
    k = _exponent(m)
    m = _ldexp(m, -k, np.empty_like(m))
    dec = eig_hermitian(hermitize(m.conj().T @ m), tol)
    w = dec.eigenvalues
    with np.errstate(over="ignore"):
        # an explicit support_tol bounds the eigenvalues 4**k w of m* m
        keep = (_above_support(w, tol) if tol.support_tol is None
                else w > np.ldexp(tol.support_tol, -2 * k))
    vecs = dec.basis[:, keep]
    cols = (m @ vecs) / np.sqrt(w[keep])[None, :]
    return cols @ vecs.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with a guard against runaway dimensions."""
    ma = _numeric(a, "matrix").astype(np.complex128, copy=False)
    mb = _numeric(b, "matrix").astype(np.complex128, copy=False)
    if ma.ndim != 2 or mb.ndim != 2:
        raise InputError("kron expects two matrices")
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if rows > KRON_MAX_DIM or cols > KRON_MAX_DIM:
        raise InputError(
            f"Kronecker product dimension {rows}x{cols} exceeds the "
            f"configured maximum {KRON_MAX_DIM}")
    # non-finite factors are rejected where the product is validated; finite
    # factors whose product leaves the float64 range fail as the kernel does
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(ma, mb)
    if np.isfinite(ma).all() and np.isfinite(mb).all() and not np.isfinite(out).all():
        raise NumericError(
            "Kronecker product outside the float64 range: an entry overflows")
    return out


def hermitian_norm(a) -> float:
    """Spectral norm of a (nearly) Hermitian matrix via the Jacobi solver."""
    m = hermitize(_as_square(a))
    if m.size == 0:
        return 0.0
    vals, _ = _jacobi_eig(m)
    return float(np.abs(vals).max())
