"""Lebesgue decomposition of one positive matrix relative to another.

For PSD matrices ``a`` and ``b``, ``b`` splits uniquely into a part that
is absolutely continuous with respect to ``a`` (an increasing limit of
pieces dominated by multiples of ``a``) and a part mutually singular
with ``a``. On the support side this is just a spectral split of the
commuting representative at 0: directions where the ``a``-component
vanishes carry the singular part, everything else the continuous part.
The same split drives the parallel-sum limit characterization, and both
routes are exposed here so they can check each other.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import PwRep, build_rep
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NumericError
from .functions import abs_part, parallel, scaled_parallel
from .linalg import (_sqrt_of, _support_of, _validated_pair, eig_hermitian,
                     hermitize, safe_frobenius)

# residual_sum above this fraction of ||b||_F means the parts lost part of b
# (an eigenvalue classified as 1 below 1 weighs in neither part); rounding
# alone stays near n * eps * cond
RESIDUAL_WARN_FACTOR = 1e-8


@dataclass(frozen=True)
class LebesgueDecomposition:
    """Result of splitting ``b`` relative to ``a``.

    ``abs_part + sing_part`` reproduces ``b`` up to rounding (the two
    parts are computed spectrally, not by subtraction, so the residual
    is an honest diagnostic). ``residual_sum`` is
    ``||b - abs_part - sing_part||_F``, absolute and in the Frobenius
    norm; above ``RESIDUAL_WARN_FACTOR * ||b||_F`` a warning names both
    numbers. ``projection`` is the orthogonal projection implementing
    ``abs_part = b^(1/2) P b^(1/2)``.

    ``sing_part`` and ``projection`` are read off the eigenvectors ``W0``
    that the split classifies as 0, with ``Y`` the second contraction
    and ``T`` the coordinate map: ``sing_part = E0* diag(y0) E0`` for the
    rows ``E0 = W0* T`` of the rep's ``eig_map``, and
    ``projection = I - U U*`` with ``U = Y W0 / sqrt(y0)``, where
    ``y0 = ||Y w||^2`` per column; both come from
    :meth:`PwRep._outer_basis`.
    """

    abs_part: np.ndarray
    sing_part: np.ndarray
    projection: np.ndarray
    rank: int
    num_zero_eigs: int
    spectral_margin: float
    residual_sum: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class SingularityCheck:
    """Mutual-singularity verdict with the worst offending eigenvalue."""

    is_singular: bool
    witness: float | None
    distance: float


@dataclass(frozen=True)
class ParallelSumLimit:
    """Doubling iteration toward the absolutely continuous part."""

    value: np.ndarray
    iterates: list[np.ndarray]
    gaps: list[float]
    converged: bool
    doublings: int


def abs_cont_part(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Maximal part of ``b`` absolutely continuous with respect to ``a``."""
    return build_rep(a, b, tol).eval(abs_part())


def _singular_part(rep: PwRep, y0: np.ndarray) -> np.ndarray:
    # T* W0 diag(y0) W0* T, as factor* factor on the zero rows of W* T
    factor = np.sqrt(y0)[:, None] * rep.eig_map[rep.split.zero]
    return hermitize(factor.conj().T @ factor)


def lebesgue_decompose(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> LebesgueDecomposition:
    """Split ``b`` into absolutely continuous and singular parts.

    Both parts come from the spectral split of the commuting
    representative, so ``abs_part + sing_part = b`` holds only up to
    floating error; the deviation is reported in ``residual_sum`` rather
    than hidden by computing one part as a difference. A deviation above
    rounding level warns: the weight of ``b`` on eigenvalues that
    ``one_tol`` classifies as 1 below 1 lies in neither part.
    """
    rep = build_rep(a, b, tol)
    split = rep.split
    bc = rep.eval(abs_part())
    # the killed directions U = Y W0 / sqrt(y0) are orthonormal
    u, y0 = rep._outer_basis(rep.contr_b, split.zero)
    bs = _singular_part(rep, y0)
    proj = hermitize(np.eye(rep.n, dtype=np.complex128) - u @ u.conj().T)
    warnings = []
    if split.near_zero:
        warnings.append(
            f"low spectral margin: {split.near_zero} eigenvalue(s) retained "
            f"within 10*zero_tol of the classification threshold zero_tol="
            f"{tol.zero_tol:g}, margin={split.margin:.3e}")
    residual = safe_frobenius(rep.b - bc - bs)
    b_norm = safe_frobenius(rep.b)
    if residual > RESIDUAL_WARN_FACTOR * b_norm:
        warnings.append(
            f"parts do not sum to b: residual_sum={residual:.3e} exceeds "
            f"{RESIDUAL_WARN_FACTOR:g}*||b||_F with ||b||_F={b_norm:.3e} "
            f"(classification at one_tol={tol.one_tol:g})")
    return LebesgueDecomposition(
        abs_part=bc, sing_part=bs, projection=proj, rank=rep.rank,
        num_zero_eigs=int(split.zero.sum()), spectral_margin=split.margin,
        residual_sum=residual, warnings=tuple(warnings))


def abs_continuity_projection(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection ``P`` with ``abs_cont_part(a, b) = b^(1/2) P b^(1/2)``,
    the ``projection`` of :func:`lebesgue_decompose`."""
    return lebesgue_decompose(a, b, tol).projection


def solvable_subspace_projection(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection onto ``{v : b^(1/2) v lies in ran(a^(1/2))}``.

    Computed without the pair representation: a vector qualifies exactly
    when the component of ``b^(1/2) v`` outside the range of ``a``
    vanishes, so this is the null-space projection of
    ``(I - P_ran(a)) b^(1/2)``. Serves as an independent route to
    :func:`abs_continuity_projection`.
    """
    av, a_dec, _, b_dec, _, _ = _validated_pair(a, b, tol)
    n = av.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    # P_ran(a), b^(1/2) and the norm of b all come from the validating
    # decompositions: with nothing clamped they are the bits a fresh
    # diagonalization of av and bv would give. A clamped eigenvalue is
    # negative, so it lies below the support cutoff and counts as zero,
    # as it does in the clamped matrix
    pa = _support_of(a_dec, tol)
    g = (np.eye(n, dtype=np.complex128) - pa) @ _sqrt_of(b_dec, tol)
    gram = hermitize(g.conj().T @ g)
    dec = eig_hermitian(gram, tol)
    # the cutoff lives on the scale of b, not of the residual Gram, so a
    # residual that is pure rounding noise still counts as zero
    w = b_dec.eigenvalues
    th = tol.support_threshold(n, max(abs(float(w[0])), abs(float(w[-1]))))
    return hermitize(dec.apply(np.where(dec.eigenvalues <= th, 1.0, 0.0)))


def is_mutually_singular(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> SingularityCheck:
    """Decide mutual singularity via the spectrum of the representative.

    The pair is mutually singular exactly when the split retains no
    eigenvalue, so that the spectrum sits at {0, 1}; the witness is the
    eigenvalue farthest from the endpoints. The zero pair is singular
    vacuously.
    """
    rep = build_rep(a, b, tol)
    x = rep.gram_a_spec.eigenvalues
    if rep.rank == 0:
        return SingularityCheck(True, None, 0.0)
    dist = np.minimum(np.abs(x), np.abs(1.0 - x))
    idx = int(np.argmax(dist))
    return SingularityCheck(not rep.split.retained.any(), float(x[idx]),
                            float(dist[idx]))


def is_abs_continuous(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when ``b`` is absolutely continuous with respect to ``a``.

    Equivalent characterizations: the decomposition returns ``b`` itself
    as the absolutely continuous part, and the associated projection is
    the identity. The predicate reads the pair's spectral split: it
    holds when no eigenvalue of the representative is classified as 0.
    """
    return not build_rep(a, b, tol).split.zero.any()


def parallel_sum(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Parallel sum of two PSD matrices (series-parallel composition)."""
    return build_rep(a, b, tol).eval(parallel())


def parallel_sum_limit(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> ParallelSumLimit:
    """Doubling limit of parallel sums with the first slot scaled by 2^k.

    Each iterate equals the parallel sum of ``2^k a`` with ``b`` and is
    computed from a single representation of the pair by rescaling the
    profile; the profile family is pointwise nondecreasing, which makes
    the iterates nondecreasing in the PSD order. Iteration stops once
    the successive Frobenius gap drops below ``conv_tol`` or after
    ``max_doublings`` steps; running out of steps is reported through
    the ``converged`` flag, not as an exception.
    """
    rep = build_rep(a, b, tol)
    prev_vals = rep.values(scaled_parallel(1.0))
    prev = rep._push(prev_vals)
    iterates = [prev]
    gaps: list[float] = []
    converged = False
    doublings = 0
    for k in range(1, tol.max_doublings + 1):
        cur_vals = rep.values(scaled_parallel(2.0 ** k))
        if float((cur_vals - prev_vals).min(initial=0.0)) < -1e-9:
            raise NumericError(
                "parallel-sum profile family failed to be nondecreasing")
        cur = rep._push(cur_vals)
        gap = safe_frobenius(cur - prev)
        gaps.append(gap)
        iterates.append(cur)
        prev, prev_vals = cur, cur_vals
        doublings = k
        if gap < tol.conv_tol:
            converged = True
            break
    return ParallelSumLimit(value=prev, iterates=iterates, gaps=gaps,
                            converged=converged, doublings=doublings)


def parallel_sum_expressions(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> dict[str, np.ndarray]:
    """Four classical closed forms of the parallel sum for cross-checks.

    ``e1`` and ``e2`` are the congruence forms through ``b^(1/2)`` and
    ``a^(1/2)``; ``e3`` and ``e4`` are the mixed forms built from both
    contractions. All four agree with :func:`parallel_sum` up to
    rounding.
    """
    rep = build_rep(a, b, tol)
    eye = np.eye(rep.n, dtype=np.complex128)
    yy = rep.contr_b @ rep.contr_b.conj().T
    xx = rep.contr_a @ rep.contr_a.conj().T
    e1 = hermitize(rep.b_half @ (eye - yy) @ rep.b_half)
    e2 = hermitize(rep.a_half @ (eye - xx) @ rep.a_half)
    e3 = rep.a_half @ rep.contr_a @ rep.contr_b.conj().T @ rep.b_half
    e4 = rep.b_half @ rep.contr_b @ rep.contr_a.conj().T @ rep.a_half
    return {"e1": e1, "e2": e2, "e3": e3, "e4": e4}
