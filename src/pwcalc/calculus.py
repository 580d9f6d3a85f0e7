"""Binary functional calculus for pairs of positive semidefinite matrices.

Given PSD matrices ``a`` and ``b`` of the same size, the pair is
transported to a commuting pair on the support of ``a + b``: with the
spectral decomposition ``a + b = Q diag(lam) Q*`` restricted to
eigenvalues above the support threshold, the coordinate map is
``T = diag(sqrt(lam)) Q*`` and the contractions ``X = a^(1/2) Q
diag(lam)^(-1/2)``, ``Y = b^(1/2) Q diag(lam)^(-1/2)`` satisfy
``X T = a^(1/2)`` and ``Y T = b^(1/2)``. Their Grams ``X* X`` and
``Y* Y`` commute and sum to the identity, so any profile of a
homogeneous binary function can be evaluated on them by ordinary
functional calculus and pushed back through the congruence
``m -> T* m T``.

``gram_a = X* X`` is 0 on ``T(ker a)`` and 1 on ``T(ker b)``, of
dimensions ``k0 = rank(a+b) - rank(a)`` and ``k1 = rank(a+b) - rank(b)``
(Ando's decomposition in finite dimension), every rank taken at the
support threshold of ``a + b``. Those eigenspaces come from the kernels
that validating the pair already found, with their eigenvalues exactly
0 and 1, and only the rest of ``gram_a`` is solved: a mutually singular
pair, or one with a zero member, needs no second solve. One function,
:func:`_split_spectrum`, takes every decision at that threshold and
``rep.split`` (:class:`SpectrumSplit`) records it: the counts, whether the
split was made or why it was refused, and the masks of the
eigenvalues classified as 0 and 1.

With ``W`` the eigenbasis of ``X* X``, every query reads the one map
``E = W* T``: a profile's value is ``E* diag(f(x)) E``, the pairing
weights of a positive functional ``rho`` are the diagonal of
``E rho E*``, and the singular part of the Lebesgue decomposition takes
the rows of ``E`` whose eigenvalue is classified as 0. Pairings
integrate the profile against those weights and extend gracefully to
+inf, which is how unbounded values (entropy against a singular second
slot, for instance) are reported.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, EPS, ToleranceConfig
from .errors import (DominationError, ExtendedValueError, InputError, NumericError,
                     PwCalcError)
from .functions import PwFunction, _require_profile
from .linalg import (SpectralDecomposition, _checked, _exponent, _ldexp, _pivoted_columns,
                     _sqrt_of, _validated, _validated_pair, eig_hermitian, hermitian_part,
                     hermitize, safe_frobenius)

_REP_RESIDUAL_LIMIT = 1e-6
_ROUNDTRIP_LIMIT = 1e-8
# gram_a's spectrum may leave [0, 1] by its rounding noise, about
# n * eps * cond(a + b) on the support, and never need be held tighter
# than _SPECTRUM_SLACK
_SPECTRUM_SLACK = 1e-9
_SPECTRUM_NOISE_FACTOR = 8.0


@dataclass(frozen=True)
class SpectrumSplit:
    """The one classification of the commuting representative's spectrum,
    with the rank decision it rests on.

    ``zero`` and ``one`` mark eigenvalues within ``zero_tol`` of 0 and
    within ``one_tol`` of 1; ``retained`` marks the rest. ``margin`` is
    the smallest distance of a retained eigenvalue to either threshold
    (+inf when nothing is retained); the classification is inherently
    discontinuous, so callers should surface it. ``near_zero`` counts
    retained eigenvalues below ``10 * zero_tol``.

    ``k0 = rank(a+b) - rank(a)`` and ``k1 = rank(a+b) - rank(b)`` count
    the directions of ``T(ker a)`` and ``T(ker b)``, every rank taken at
    the support threshold of ``a + b``; rounding at that cut can make them
    contradict each other. ``verdict`` says what became of the structural
    split: ``"none"`` when ``k0 = k1 = 0`` and nothing needed splitting
    off, ``"split"`` when ``k0`` zeros and ``k1`` ones were split off
    exactly, and otherwise why nothing was: ``"counts"`` (a count is
    negative or they sum beyond the rank), ``"pivot"`` (a kernel image
    left only rounding outside the bases before it) or ``"eigenvectors"``
    (the bases failed as eigenvectors of ``gram_a``).

    It is computed once per pair by :func:`_split_spectrum` and every 0/1
    decision reads it: every profile value (through :meth:`PwRep.values`),
    the absolutely continuous and singular parts and the projection of the
    Lebesgue decomposition, both singularity predicates and the
    suppressed directions of the derivative factors.

    The spectrum ascends and ``zero_tol + one_tol < 1``, so ``zero`` is a
    prefix and ``one`` a suffix. The private ``_points``, ``(kz, xs,
    ko)``, holds their lengths and the retained eigenvalues as a tuple of
    floats, all inside (0, 1): the evaluation points of every profile.
    """

    zero: np.ndarray
    one: np.ndarray
    retained: np.ndarray
    margin: float
    near_zero: int
    k0: int
    k1: int
    verdict: str
    _points: tuple = field(repr=False, compare=False)


def _split_spectrum(t: np.ndarray, gram: np.ndarray, lam: np.ndarray,
                    a_dec: SpectralDecomposition, b_dec: SpectralDecomposition,
                    cut: float, tol: ToleranceConfig):
    """``(spec, split)``: the spectral decomposition of ``gram``, the
    ``gram_a`` of the coordinate map ``t`` (``rank x n``), and its
    :class:`SpectrumSplit`. ``lam`` holds the sum's eigenvalues above its
    support threshold ``cut``, and ``a_dec`` and ``b_dec`` are the
    validating decompositions of the members. Every rank decision at the
    cut is taken here.

    The kernel eigenvectors ``K_a`` and ``K_b`` of the members at the cut
    give orthonormal bases ``Z0`` of ``t K_a`` and ``Z1`` of ``t K_b``, of
    ``k0`` and ``k1`` columns, by Gram-Schmidt with column pivoting
    (``linalg._pivoted_columns``), and the identity's columns complete them
    by ``C``. Only ``C* gram C`` is solved; ``Z0`` gets the eigenvalue 0
    and ``Z1`` the eigenvalue 1, exactly, and the spectrum is merged in
    ascending order by a stable sort, with ``[Z0 | C V | Z1]`` in the same
    order. Nothing is split off, and ``gram`` is solved whole, with the
    bits of ``eig_hermitian(gram)``, when the verdict is not ``"split"``:

    - ``"counts"``: a count is negative or ``k0 + k1`` exceeds the rank;
    - ``"pivot"``: a pivot's part left is at most ``8 n eps ||t||_F``, a
      margin over the rounding of the products ``t K``. Rounding at the
      cut can put a direction of the sum's support in the kernel of both
      members: the part of its second image left outside the first is
      then rounding, which normalized would be an arbitrary direction;
    - ``"eigenvectors"``: the residual ``gram [Z0 | Z1] - [0 | Z1]``
      exceeds, in Frobenius norm, the spectrum's rounding slack plus
      ``sqrt(rank)`` times ``cut / lam_min``, the most ``gram_a`` may be
      on a kernel direction at the cut.

    The merged spectrum must lie in ``[0, 1]`` up to its rounding slack,
    about ``n eps cond(a + b)`` and at least ``_SPECTRUM_SLACK``, or
    :class:`NumericError` is raised. The masks then cut it at ``zero_tol``
    and ``one_tol``, the only place that reads them to decide, and the
    retained eigenvalues between them become the profiles' evaluation
    points.
    """
    rank, n = t.shape
    slack = allowed = 0.0
    if rank:
        slack = max(_SPECTRUM_SLACK,
                    _SPECTRUM_NOISE_FACTOR * n * EPS * float(lam[-1] / lam[0]))
        # gram_a is up to about cut / lam[0] on a direction of ker a at the cut
        allowed = slack + math.sqrt(rank) * cut / float(lam[0])
    # gram_a is 0 on T(ker a) and 1 on T(ker b)
    k_a = a_dec.basis[:, a_dec.eigenvalues <= cut]
    k_b = b_dec.basis[:, b_dec.eigenvalues <= cut]
    k0 = rank - n + k_a.shape[1]
    k1 = rank - n + k_b.shape[1]
    z0 = z1 = empty = np.zeros((rank, 0), dtype=np.complex128)
    verdict = "none" if k0 == k1 == 0 else "counts"
    if min(k0, k1) >= 0 and 0 < k0 + k1 <= rank:
        floor = 8 * n * EPS * safe_frobenius(t)
        z = _pivoted_columns(empty, t @ k_a, k0, floor)
        z = None if z is None else _pivoted_columns(z, t @ k_b, k1, floor)
        verdict = "pivot"
        if z is not None:
            resid = gram @ z
            resid[:, k0:] -= z[:, k0:]
            verdict = "split" if safe_frobenius(resid) <= allowed else "eigenvectors"
    block, c = gram, None
    if verdict == "split":
        c = _pivoted_columns(z, np.eye(rank, dtype=np.complex128), rank - k0 - k1)[:, k0 + k1:]
        z0, z1 = z[:, :k0], z[:, k0:]
        block = c.conj().T @ gram @ c
    solved = (eig_hermitian(block, tol) if block.size else SpectralDecomposition(
        np.zeros(0), np.zeros((0, 0), dtype=np.complex128)))
    v = solved.basis if c is None else c @ solved.basis
    x = np.concatenate((np.zeros(z0.shape[1]), solved.eigenvalues, np.ones(z1.shape[1])))
    order = np.argsort(x, kind="stable")
    x = x[order]
    spec = SpectralDecomposition(x, np.concatenate((z0, v, z1), axis=1)[:, order])
    if rank and (x[0] < -slack or x[-1] > 1.0 + slack):
        lo, hi = float(x[0]), float(x[-1])
        raise NumericError(
            f"commuting representative has spectrum outside [0, 1] by "
            f"{max(-lo, hi - 1.0):.3e}, beyond its rounding slack {slack:.3e}: "
            f"[{lo!r}, {hi!r}]")
    zero = x <= tol.zero_tol
    one = x >= 1.0 - tol.one_tol
    retained = ~(zero | one)
    near_zero = int((x[~zero] <= 10.0 * tol.zero_tol).sum())
    xr = x[retained]
    margin = math.inf
    if xr.size:
        margin = float(np.minimum(xr - tol.zero_tol, (1.0 - tol.one_tol) - xr).min())
    # every query of the rep reads the same masks and points
    for mask in (zero, one, retained):
        mask.flags.writeable = False
    points = (int(zero.sum()), tuple(xr.tolist()), int(one.sum()))
    return spec, SpectrumSplit(zero, one, retained, margin, near_zero, k0, k1, verdict,
                               points)


@dataclass(frozen=True)
class PairingResult:
    """Scalar pairing value with its +inf bookkeeping.

    ``value`` is ``finite_part`` when the total spectral weight sitting
    on infinite profile values stays at or below ``weight_tol``, and
    ``math.inf`` otherwise.
    """

    value: float
    finite_part: float
    infinite_weight: float


@dataclass(frozen=True)
class SequenceResult:
    """Values of a profile sequence paired against one fixed state."""

    values: list[float]
    gaps: list[float]
    converged: bool


def _headroom(n: int) -> int:
    """The binary exponent ``r`` for which ``4 n**3 2**r`` stays below
    ``2**1022``: a sum of at most ``4 n**3`` terms below ``2**r`` each,
    such as a pairing weight, a trace or a quadratic form of size ``n`` on
    operands scaled to it, then neither overflows nor rounds up to inf."""
    return 1020 - 3 * n.bit_length()


@dataclass(frozen=True)
class PwRep:
    """Support-side representation of a PSD pair.

    Fields
    ------
    n, rank : int
        Ambient dimension and the rank of ``a + b``.
    basis : (n, rank) ndarray
        Orthonormal columns spanning the range of ``a + b``.
    sum_eigs : (rank,) ndarray
        Eigenvalues of ``a + b`` on its support, ascending.
    coord_map : (rank, n) ndarray
        ``diag(sqrt(sum_eigs)) basis*``; full row rank. Only
        :meth:`from_support`, for arbitrary support-side matrices, reads it.
    contr_a, contr_b : (n, rank) ndarray
        Contractions carrying the square roots of ``a`` and ``b``.
    gram_a : (rank, rank) ndarray
        ``X* X``; with :attr:`gram_b` a commuting PSD pair summing to the
        identity.
    gram_a_spec : SpectralDecomposition
        Spectral decomposition of ``gram_a``; its spectrum lies in [0, 1]
        up to rounding. It is exactly 0 on ``k0 = rank - rank(a)``
        directions, an orthonormal basis of ``T(ker a)``, and exactly 1 on
        ``k1 = rank - rank(b)``, one of ``T(ker b)``, with the ranks of
        ``a`` and ``b`` at the support threshold of ``a + b``; the other
        eigenpairs solve ``gram_a`` on the complement. The eigenvalues
        ascend, ties in the order 0s, solved, 1s.
    eig_map : (rank, n) ndarray
        ``E = W* T`` for the eigenbasis ``W`` of ``gram_a_spec`` and the
        coordinate map ``T``: row ``i`` is ``(T* w_i)*``. Every calculus
        value ``E* diag(v) E``, pairing weight ``Re diag(E rho E*)`` and
        the singular part of the Lebesgue decomposition read it; the
        private ``_eig_map_h`` holds ``E*`` contiguous, for :meth:`_push`.
    a, b, a_half, b_half : ndarray
        Validated inputs and their PSD square roots.
    a_eigs : ndarray
        Ascending eigenvalues of ``a`` found by its validation, before
        rounding-level negatives were clamped.
    split : SpectrumSplit
        Classification of ``gram_a``'s spectrum at 0 and 1 (read-only
        masks), with the counts ``k0`` and ``k1`` and the split's verdict,
        computed once since it depends only on the rep.
    """

    n: int
    rank: int
    basis: np.ndarray
    sum_eigs: np.ndarray
    coord_map: np.ndarray
    contr_a: np.ndarray
    contr_b: np.ndarray
    gram_a: np.ndarray
    gram_a_spec: SpectralDecomposition
    eig_map: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_half: np.ndarray
    b_half: np.ndarray
    a_eigs: np.ndarray
    split: SpectrumSplit
    tol: ToleranceConfig
    _eig_map_h: np.ndarray = field(repr=False, compare=False)

    @property
    def gram_b(self) -> np.ndarray:
        """``I - gram_a`` exactly, symmetrized, read off :attr:`gram_a`
        on each access, so the structural identity holds by
        construction."""
        return hermitize(np.eye(self.rank, dtype=np.complex128) - self.gram_a)

    def from_support(self, m) -> np.ndarray:
        """Push a support-side Hermitian matrix through ``T* m T``.

        Order preserving: it maps operators dominated by a multiple of
        the identity to operators dominated by the same multiple of
        ``a + b``. A result beyond the float64 range raises
        :class:`NumericError`.
        """
        mm = hermitian_part(m, self.tol)
        if mm.shape != (self.rank, self.rank):
            raise InputError(
                f"expected a {self.rank}x{self.rank} support-side matrix, "
                f"got {mm.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.coord_map.conj().T @ mm @ self.coord_map
        if not np.isfinite(out).all():
            raise NumericError(
                "pushed matrix outside the float64 range: an entry of T* m T overflows")
        return hermitize(out)

    def _push(self, vals: np.ndarray) -> np.ndarray:
        """``T* W diag(vals) W* T`` for finite ``vals`` on ``gram_a``'s
        spectrum, as the one product ``E* (vals E)`` on :attr:`eig_map`."""
        return hermitize(self._eig_map_h @ (vals[:, None] * self.eig_map))

    def _outer_basis(self, contr: np.ndarray, cols=slice(None)):
        """``(C W / sqrt(sq), sq)`` with ``sq = ||C w||^2`` per column, for
        the eigenvectors ``W`` of ``gram_a`` that ``cols`` selects and a
        contraction ``C`` with ``C* C`` in ``{gram_a, I - gram_a}``.

        ``C`` carries eigenvectors of ``C* C`` onto eigenvectors of
        ``C C*`` with the same eigenvalue ``sq``, so the first member is
        orthonormal without a solve: Ando's projection reads it on
        ``contr_b``, the derivative factor's basis on ``contr_a``. A
        column with no weight means an inconsistent representation and
        raises :class:`NumericError`.
        """
        cw = contr @ self.gram_a_spec.basis[:, cols]
        sq = np.sum(np.abs(cw) ** 2, axis=0)
        if not (sq > 0.0).all():
            raise NumericError(
                "an eigenvector of gram_a has no weight in the contraction; "
                "the representation is inconsistent")
        return cw / np.sqrt(sq)[None, :], sq

    def to_support(self, c) -> np.ndarray:
        """Invert :meth:`from_support` on operators dominated by ``a + b``.

        With ``S = basis diag(sum_eigs)^(-1/2)``, ``S T`` is the projection
        ``P`` onto the range of ``a + b``, so the inverse is the congruence
        ``c -> S* c S``. Its round trip ``T* S* c S T`` is ``P c P``, which
        is ``c`` precisely when the range of ``c`` lies inside the range of
        ``a + b``. A round-trip residual above tolerance means no multiple
        of ``a + b`` dominates ``c`` and raises :class:`DominationError`.
        ``c`` is validated as for :meth:`pairing_weights`: only its matrix
        is read, so its solve stops once it is certified positive.

        The congruence is taken at unit scale, on ``c 2**-k`` and ``S
        2**-j`` with ``k`` and ``j`` from ``linalg._exponent``, and the
        result is scaled back by ``2**(k + 2 j)``; its round trip is then
        held against ``c 2**-(k + 2 j)``. So the congruence does not
        overflow for a pair whose eigenvalues are subnormal, and the
        verdict does not change when ``c`` is scaled by a power of two,
        however small it gets.
        A result beyond the float64 range raises :class:`NumericError`.
        """
        cv, _ = _validated(c, self.tol, certify=True)
        if cv.shape != (self.n, self.n):
            raise InputError(
                f"expected a {self.n}x{self.n} matrix, got {cv.shape}")
        k = _exponent(cv)
        cu = _ldexp(cv, -k, np.empty_like(cv))
        s = self.basis / np.sqrt(self.sum_eigs)[None, :]
        j = _exponent(s)
        s = _ldexp(s, -j, s)
        ct = hermitize(s.conj().T @ cu @ s)
        # the round trip of ct is P cu P 2**-2j
        cu = _ldexp(cu, -2 * j, cu)
        resid = safe_frobenius(self.from_support(ct) - cu)
        norm = safe_frobenius(cu)
        if resid > _ROUNDTRIP_LIMIT * norm:
            raise DominationError(
                f"matrix is not dominated by any multiple of the pair sum: "
                f"round-trip residual {resid / norm:.3e} of its norm, above "
                f"{_ROUNDTRIP_LIMIT:.0e}")
        with np.errstate(over="ignore"):
            ct = _ldexp(ct, k + 2 * j, ct)
        if not np.isfinite(ct).all():
            raise NumericError(
                "support-side matrix outside the float64 range: an entry of "
                "S* c S overflows")
        return ct

    def eval(self, fn: PwFunction) -> np.ndarray:
        """Evaluate a profile on the pair, returning a Hermitian matrix.

        Raises
        ------
        ExtendedValueError
            If the profile takes +inf on a present (classified)
            eigenvalue; the operator is unbounded and only pairings can
            represent it.
        """
        return self._push(self._bounded_values(fn))

    def values(self, fn: PwFunction) -> np.ndarray:
        """``fn`` on ``gram_a``'s spectrum as :attr:`split` classifies it:
        its endpoint values on the eigenvalues classified 0 and 1, and the
        profile called once on each retained eigenvalue, in ascending
        order, from the points fixed when the rep was built."""
        _require_profile(fn)
        kz, xs, ko = self.split._points
        return fn._evaluate(xs, kz, ko)

    def _bounded_values(self, fn: PwFunction) -> np.ndarray:
        vals = self.values(fn)
        if np.isinf(vals).any():
            raise ExtendedValueError(
                f"extended value: profile {fn.name!r} is infinite on the "
                f"spectrum of the pair; use a pairing (pair/trace) instead")
        return vals

    def pairing_weights(self, rho) -> np.ndarray:
        """Spectral weights of ``T rho T*`` in the ``gram_a`` eigenbasis,
        the diagonal of ``E rho E*`` on :attr:`eig_map`, from
        :meth:`_weights`; a weight beyond the float64 range reads ``inf``.

        ``rho`` is validated as by :func:`validate_psd`, whose matrix it
        reads with the same bits, but its solve stops once Weyl's bound
        certifies ``rho`` positive (``linalg._certified``): nothing would be
        clamped then, so the matrix is ``rho``'s Hermitian part."""
        w, k = self._state_weights(rho)
        with np.errstate(over="ignore"):
            return np.ldexp(w, k)

    def _state_weights(self, rho) -> tuple[np.ndarray, int]:
        """:meth:`_weights` of the state ``rho``, validated. The solve may
        stop once it certifies ``rho`` positive: only the validated matrix
        is read, and its bits are those of :func:`validate_psd`'s."""
        rv, _ = _validated(rho, self.tol, certify=True)
        if rv.shape != (self.n, self.n):
            raise InputError(
                f"state must be {self.n}x{self.n}, got {rv.shape}")
        return self._weights(rv)

    def _weights(self, rv: np.ndarray) -> tuple[np.ndarray, int]:
        """``(w, k)``: the pairing weights ``Re diag(E rv E*)`` on
        :attr:`eig_map` of a validated ``complex128`` state are ``w 2**k``,
        clipped at 0.

        ``E`` is read at unit scale, ``E 2**-ke`` with ``ke`` from
        ``linalg._exponent``, and ``rv`` is scaled by ``2**-kr`` only by
        the headroom its size needs, ``kr = max(0, _exponent(rv) -
        _headroom(n))``, so no term or sum of a weight, nor the sum of all
        of them, overflows; ``k = 2 ke + kr``. Scaling by a power of two is
        exact, so ``w 2**k`` has the bits of the plain sum ``E rv E*``
        wherever that is finite, except where a term is subnormal in one
        computation and not in the other. ``rv`` is not scaled by its own
        largest entry: that would send a small entry beside a huge one,
        and its weight, to 0."""
        e = self.eig_map
        ke = _exponent(e)
        e = _ldexp(e, -ke, np.empty_like(e))
        kr = max(0, _exponent(rv) - _headroom(self.n))
        rv = _ldexp(rv, -kr, np.empty_like(rv))
        w = np.real(np.sum((e @ rv) * e.conj(), axis=1))
        return np.maximum(w, 0.0), 2 * ke + kr

    def pairing(self, fn: PwFunction, rho) -> PairingResult:
        """Pair a profile with a positive functional, +inf allowed.

        The value is the integral of the profile against the spectral
        weights; weights at or below ``weight_tol`` contribute nothing
        regardless of the profile value (the 0 * inf = 0 convention),
        and the result is +inf exactly when the total weight on infinite
        profile values exceeds ``weight_tol``.

        The state is validated as for :meth:`pairing_weights`: its solve
        stops once Weyl's bound certifies it positive, which leaves the
        value's bits as they are, so a well-conditioned state costs a
        few sweeps instead of a full eigensolve.
        """
        return self._pairing(fn, self._state_weights(rho))

    def _pairing(self, fn: PwFunction, wk) -> PairingResult:
        """:meth:`pairing` against a state's :meth:`_weights` ``wk = (w, k)``.

        Each weight ``w 2**k`` is compared with the absolute
        ``weight_tol``. The kept terms are summed once, with the profile
        values scaled by ``2**-kv``: ``kv`` is the headroom (see
        :func:`_headroom`) that the exponents of the values and of ``w``
        need, so no term or sum overflows. The sums are scaled back once by
        ``np.ldexp``, so a value beyond the float64 range reads +-inf with
        its sign and none reads NaN. The value has the bits of the plain
        sum of the values times ``w 2**k`` wherever that is finite, except
        where a term is subnormal in one computation and not in the
        other."""
        w, k = wk
        vals = self.values(fn)
        inf_mask = np.isinf(vals)
        with np.errstate(over="ignore"):
            keep = (~inf_mask) & (np.ldexp(w, k) > self.tol.weight_tol)
            kept = vals[keep]
            kv = max(0, _exponent(kept) + _exponent(w) - _headroom(self.n))
            finite_part = float(np.ldexp((np.ldexp(kept, -kv) * w[keep]).sum(), k + kv))
            infinite_weight = float(np.ldexp(w[inf_mask].sum(), k))
        value = math.inf if infinite_weight > self.tol.weight_tol else finite_part
        return PairingResult(value, finite_part, infinite_weight)

    def eval_sequence(self, fns, rho) -> SequenceResult:
        """Pair each profile of a sequence with one state and track gaps.

        The Cauchy gaps ``|v[k+1] - v[k]|`` treat two consecutive equal
        infinite values as gap zero, and an infinite value next to any
        other value as gap +inf. The sequence counts as converged when it
        has at least one gap and the last three gaps (or all of them, if
        fewer) stay below ``conv_tol``: a one-profile sequence has no gap
        and reads ``converged=False``.
        """
        return self._sequence(fns, self._state_weights(rho))

    def _sequence(self, fns, w) -> SequenceResult:
        """:meth:`eval_sequence` against a state's :meth:`_weights` ``w``."""
        try:
            fns = iter(fns)
        except TypeError:
            raise InputError(
                f"a profile sequence must be iterable, got {type(fns).__name__}")
        fns = list(fns)
        if not fns:
            raise InputError("profile sequence must be nonempty")
        values = [self._pairing(fn, w).value for fn in fns]
        gaps = []
        for prev, cur in zip(values, values[1:]):
            if prev == cur:
                gaps.append(0.0)
            elif math.isinf(prev) or math.isinf(cur):
                gaps.append(math.inf)
            else:
                gaps.append(abs(cur - prev))
        tail = gaps[-3:]
        converged = bool(tail) and all(g < self.tol.conv_tol for g in tail)
        return SequenceResult(values, gaps, converged)


def build_rep(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> PwRep:
    """Construct the support-side representation of a PSD pair.

    Parameters
    ----------
    a, b : array_like
        Square PSD matrices of the same size (validated, rounding-level
        negative eigenvalues clamped).
    tol : ToleranceConfig

    Returns
    -------
    PwRep

    Raises
    ------
    InputError
        On dimension mismatch or failed validation.
    NumericError
        If ``a + b`` overflows ``float64``, or the reconstruction residuals
        of the contractions exceed 1e-6, which indicates a numerically
        hopeless input.
    """
    return _build_rep(a, b, tol)[0]


def _build_rep(a, b, tol: ToleranceConfig, state=None):
    """``(rep, w)``: :func:`build_rep`, and for a one-shot pairing the
    :meth:`PwRep._weights` ``w`` of the state that the zero-argument
    callable ``state`` returns (None without one).

    The validating call of the pair also solves the sum ``a + b`` and an
    n x n Hermitian state. The state may leave that call once it is
    certified positive, as in :meth:`PwRep.pairing_weights`. A member
    clamped deeper than rounding (``linalg._rounding_level``) costs another
    call, for the sum of the clamped pair. When ``state()`` or
    its Hermitian part fails, the state has another size or its solve
    fails, ``w`` comes from validating ``state()`` after the rep exists,
    which raises the state's error. So errors come from the pair first,
    then the state, then the profiles and parameters that the caller
    applies to ``w``.

    The ranks of ``a``, ``b`` and ``a + b`` count the eigenvalues of their
    validating decompositions above the support threshold of ``a + b``.
    ``_build_rep`` cuts the sum there, and :func:`_split_spectrum` takes
    every other decision at that cut once: the counts ``k0 = rank -
    rank(a)`` and ``k1 = rank - rank(b)``, the split of ``gram_a``'s exact
    0- and 1-eigenspaces ``T(ker a)`` and ``T(ker b)`` or the reason it
    was refused, the last kernel call, which solves only the retained
    block, and the masks at ``zero_tol`` and ``one_tol``; ``rep.split``
    records them. A mutually singular pair, or one with a zero member,
    makes no such call. With nothing split off (``k0 = k1 = 0``: ``a``,
    ``b`` and ``a + b`` of one rank, as for two definite members, or a
    split refused) the block is ``gram_a`` itself, with the bits of its
    whole solve. So a direction of ``ker a`` at the cut gets ``x = 0``
    exactly. An explicit ``support_tol`` is the cut of the roots
    (:func:`_sqrt_of`) and of ``gram_a`` alike: an eigenvalue of ``a`` or
    ``b`` at or below it counts as kernel in ``gram_a`` too, not only in
    the roots.
    """
    hr = None
    if state is not None:
        try:
            hr = hermitian_part(state(), tol)
        except PwCalcError:
            pass  # raised again by _state_weights, after the pair's verdict
    av, a_dec, bv, b_dec, dec, state_solved = _validated_pair(
        a, b, tol, sum_too=True, also=hr)
    n = av.shape[0]
    # the support threshold of a + b and its rank; _split_spectrum reads the
    # kernels of a and b at the same cut
    cut = tol.support_threshold(n, float(dec.eigenvalues[-1]) if n else 0.0)
    keep = dec.eigenvalues > cut
    lam = dec.eigenvalues[keep]
    q = dec.basis[:, keep]
    rank = int(keep.sum())
    root = np.sqrt(lam)
    coord_map = root[:, None] * q.conj().T
    # the roots reuse the validating decompositions: when nothing was
    # clamped they are the same bits psd_sqrt(av) would diagonalize
    a_half = _sqrt_of(a_dec, tol)
    b_half = _sqrt_of(b_dec, tol)
    scaled = q / root[None, :] if rank else q
    contr_a = a_half @ scaled
    contr_b = b_half @ scaled
    gram_a = hermitize(scaled.conj().T @ av @ scaled)
    spec, split = _split_spectrum(coord_map, gram_a, lam, a_dec, b_dec, cut, tol)
    resid_a = safe_frobenius(contr_a @ coord_map - a_half)
    resid_b = safe_frobenius(contr_b @ coord_map - b_half)
    limit_a = _REP_RESIDUAL_LIMIT * max(1.0, safe_frobenius(a_half))
    limit_b = _REP_RESIDUAL_LIMIT * max(1.0, safe_frobenius(b_half))
    if resid_a > limit_a or resid_b > limit_b:
        raise NumericError(
            f"representation residuals too large: {resid_a:.3e}, {resid_b:.3e}")
    eig_map = spec.basis.conj().T @ coord_map
    rep = PwRep(n=n, rank=rank, basis=q, sum_eigs=lam, coord_map=coord_map,
                contr_a=contr_a, contr_b=contr_b, gram_a=gram_a, gram_a_spec=spec,
                eig_map=eig_map, a=av, b=bv, a_half=a_half, b_half=b_half,
                a_eigs=a_dec.eigenvalues, split=split, tol=tol,
                _eig_map_h=np.ascontiguousarray(eig_map.conj().T))
    if state is None:
        return rep, None
    if state_solved is None:
        return rep, rep._state_weights(state())
    return rep, rep._weights(_checked(hr, state_solved, tol)[0])


def pw_eval(a, b, fn: PwFunction, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """One-shot profile evaluation on a PSD pair."""
    return build_rep(a, b, tol).eval(fn)


def pw_pairing(a, b, fn: PwFunction, rho,
               tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """One-shot pairing value; returns ``math.inf`` for unbounded values."""
    rep, w = _build_rep(a, b, tol, lambda: rho)
    return rep._pairing(fn, w).value


def eval_sequence(a, b, fns, rho,
                  tol: ToleranceConfig = DEFAULT_TOL) -> SequenceResult:
    """One-shot sequence pairing with a convergence report."""
    rep, w = _build_rep(a, b, tol, lambda: rho)
    return rep._sequence(fns, w)
