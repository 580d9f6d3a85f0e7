"""Invariances that the paper's identities imply, on seeded random pairs.

Unitary covariance: for a unitary ``U`` the calculus commutes with the
rotation, ``f(U a U*, U b U*) = U f(a, b) U*``, and so do both Lebesgue
parts and Ando's projection; a pairing of the rotated pair against
``U rho U*`` equals the pairing of the pair against ``rho``. Tolerances are
relative to ``||a + b||_F`` (times ``tr rho`` for pairings), so they hold at
any joint scale. The worst seen on these cases is 1.2e-14 for the matrices,
1e-15 for the bounded pairings and 6e-13 relative for the finite unbounded
ones; the projection, which has norm 1 at any scale, is held absolutely
(worst 1.2e-13).

On definite bases the derivative factor ``H``, its root ``H^(1/2) a^(1/2)``
and their product rotate the same way, and the quadratic form of ``H`` at
``U xi`` on the rotated pair equals the form at ``xi``. Each matrix is held
relative to its own norm (worst 3.1e-13 for ``factor``, 9.4e-13 for
``root``, 1.1e-12 for ``value``) and the form relative to
``||H||_F ||xi||^2`` (worst 3.0e-14).

Slot symmetry: swapping the pair swaps the slots of the profile,
``f(a, b) = f~(b, a)`` with ``f~(x, y) = f(y, x)``. ``parallel`` and
``arithmetic`` are their own swaps, ``geometric(alpha)`` swaps to
``geometric(1 - alpha)`` and ``left`` to ``right``; mutual singularity is
a symmetric relation. Each value is held relative to ``||a + b||_F`` at
ten times the worst seen on these cases (1.2e-15 for ``parallel``,
1.3e-15 for ``arithmetic``, 1.6e-14 for ``geometric``, 2.3e-15 for
``left``), and the singularity verdicts must agree exactly.

Joint homogeneity: ``f(t a, t b) = t f(a, b)`` at ``t = 4**k``, bit for
bit, including +inf. Scaling by a power of four is exact and scales every
square root by a power of two, so the matrix outputs hold it for
``|k| <= 100``. The pairings hold it down to ``k = -10``; at ``k = -30``
and ``-100`` the weights fall under the absolute ``weight_tol``, and those
cases are strict xfails until the tolerance is relative. Pairings are
linear in the state: on a reused rep, a generic full-rank state scaled by
``4**+-5`` scales every pairing and ``eval_sequence`` value by the same
power, bit for bit.
"""

import math

import numpy as np
import pytest

import pwcalc as pw

from conftest import rand_complex, rand_pair, rand_psd, rand_unitary

CASES = 120
MATRIX_TOL = 1e-13
PROJECTION_TOL = 2e-12
RN_REL_TOL = {"factor": 5e-12, "root": 2e-11, "value": 2e-11}
FORM_TOL = 2e-12
EVAL_FNS = (pw.parallel(), pw.geometric(0.3), pw.abs_part(), pw.arithmetic(),
            pw.scaled_parallel(8.0))
BOUNDED_PAIRINGS = (pw.parallel(), pw.geometric(0.5), pw.abs_part())
# x^2/y and x log(x/y) amplify the rounding of the rotation by 1/y on
# retained eigenvalues near 1; their +inf decision must agree exactly
UNBOUNDED_PAIRINGS = (pw.power(2.0), pw.entropy())
UNBOUNDED_REL_TOL = 1e-10


def _haar(rng, n, real):
    """Haar-distributed orthogonal (real) or unitary (complex) matrix."""
    if not real:
        return rand_unitary(rng, n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def _rotated_cases():
    """``(a, b, rho, u)``: n 2-8, random ranks, real (rotated by an
    orthogonal ``u``, so the rotated pair stays real) and complex."""
    rng = np.random.default_rng(606)
    for k in range(CASES):
        n = int(rng.integers(2, 9))
        real = bool(k % 2)
        a, b = rand_pair(rng, n, int(rng.integers(0, n + 1)),
                         int(rng.integers(0, n + 1)))
        rho = rand_psd(rng, n, int(rng.integers(1, n + 1)))
        if real:
            a, b, rho = a.real, b.real, rho.real
        yield a, b, rho, _haar(rng, n, real)


def _definite_cases():
    """``(a, b, xi, u)``: n 2-8, ``a`` definite and ``b`` of random rank,
    real and complex as in :func:`_rotated_cases`."""
    rng = np.random.default_rng(607)
    for k in range(CASES):
        n = int(rng.integers(2, 9))
        real = bool(k % 2)
        a, b = rand_pair(rng, n, n, int(rng.integers(0, n + 1)))
        xi = rand_complex(rng, n, 1).reshape(-1)
        if real:
            a, b, xi = a.real, b.real, xi.real
        yield a, b, xi, _haar(rng, n, real)


def _rotate(u, m):
    return u @ m @ u.conj().T


@pytest.fixture(scope="module")
def cases():
    return list(_rotated_cases())


class TestUnitaryCovariance:
    def test_cases_cover_both_dtypes_and_singular_parts(self, cases):
        assert {np.iscomplexobj(a) for a, *_ in cases} == {False, True}
        singular = sum(pw.lebesgue_decompose(a, b).num_zero_eigs > 0
                       for a, b, _, _ in cases)
        assert 0 < singular < len(cases)

    def test_eval(self, cases):
        for a, b, _, u in cases:
            scale = np.linalg.norm(a + b)
            ua, ub = _rotate(u, a), _rotate(u, b)
            for fn in EVAL_FNS:
                lhs = pw.pw_eval(ua, ub, fn)
                rhs = _rotate(u, pw.pw_eval(a, b, fn))
                assert np.linalg.norm(lhs - rhs) <= MATRIX_TOL * scale, fn.name

    def test_lebesgue_parts(self, cases):
        for a, b, _, u in cases:
            scale = np.linalg.norm(a + b)
            ref = pw.lebesgue_decompose(a, b)
            dec = pw.lebesgue_decompose(_rotate(u, a), _rotate(u, b))
            assert dec.num_zero_eigs == ref.num_zero_eigs
            for part in ("abs_part", "sing_part"):
                gap = getattr(dec, part) - _rotate(u, getattr(ref, part))
                assert np.linalg.norm(gap) <= MATRIX_TOL * scale, part
            gap = dec.projection - _rotate(u, ref.projection)
            assert np.linalg.norm(gap) <= PROJECTION_TOL

    def test_pairings(self, cases):
        infinite = 0
        for a, b, rho, u in cases:
            scale = np.linalg.norm(a + b) * np.trace(rho).real
            rep = pw.build_rep(a, b)
            rotated = pw.build_rep(_rotate(u, a), _rotate(u, b))
            urho = _rotate(u, rho)
            for fn in BOUNDED_PAIRINGS:
                ref = rep.pairing(fn, rho).value
                got = rotated.pairing(fn, urho).value
                assert abs(got - ref) <= MATRIX_TOL * scale, fn.name
            for fn in UNBOUNDED_PAIRINGS:
                ref = rep.pairing(fn, rho).value
                got = rotated.pairing(fn, urho).value
                if math.isinf(ref) or math.isinf(got):
                    assert got == ref, fn.name
                    infinite += 1
                else:
                    assert (abs(got - ref)
                            <= UNBOUNDED_REL_TOL * max(abs(ref), scale)), fn.name
        assert infinite > 0  # the +inf decisions are exercised

    def test_derivative_factor(self):
        for a, b, _, u in _definite_cases():
            ref = pw.rn_factor(a, b)
            res = pw.rn_factor(_rotate(u, a), _rotate(u, b))
            assert res.infinite_directions == ref.infinite_directions
            for part, tol in RN_REL_TOL.items():
                want = getattr(ref, part)
                gap = getattr(res, part) - _rotate(u, want)
                assert np.linalg.norm(gap) <= tol * np.linalg.norm(want), part

    def test_quadratic_form(self):
        for a, b, xi, u in _definite_cases():
            ref = pw.rn_quadratic_form(a, b, xi)
            got = pw.rn_quadratic_form(_rotate(u, a), _rotate(u, b), u @ xi)
            scale = np.linalg.norm(pw.rn_factor(a, b).factor) * np.vdot(xi, xi).real
            assert abs(got - ref) <= FORM_TOL * scale


SWAP_TOL = {"parallel": 2e-14, "arith": 2e-14, "geom": 2e-13, "left": 3e-14}


def _swap_cases():
    """``(a, b, alpha)``: n 2-8, random ranks, real and complex, jointly
    scaled by 1e-3..1e3, and a geometric weight in (0.05, 0.95)."""
    rng = np.random.default_rng(608)
    for k in range(150):
        n = int(rng.integers(2, 9))
        a, b = rand_pair(rng, n, int(rng.integers(0, n + 1)),
                         int(rng.integers(0, n + 1)), 10.0 ** rng.uniform(-3.0, 3.0))
        if k % 2:
            a, b = a.real, b.real
        yield a, b, float(rng.uniform(0.05, 0.95))


class TestSlotSymmetry:
    def test_profiles(self):
        worst = dict.fromkeys(SWAP_TOL, 0.0)
        for a, b, alpha in _swap_cases():
            scale = np.linalg.norm(a + b)
            for name, fn, swapped in (
                    ("parallel", pw.parallel(), pw.parallel()),
                    ("arith", pw.arithmetic(), pw.arithmetic()),
                    ("geom", pw.geometric(alpha), pw.geometric(1.0 - alpha)),
                    ("left", pw.left(), pw.right())):
                gap = np.linalg.norm(pw.pw_eval(a, b, fn) - pw.pw_eval(b, a, swapped))
                assert gap <= SWAP_TOL[name] * scale, name
                worst[name] = max(worst[name], gap / scale if scale else gap)
        assert min(worst.values()) > 0.0  # rounding-level, not exact

    def test_mutual_singularity(self):
        singular = 0
        for a, b, _ in _swap_cases():
            verdict = pw.is_mutually_singular(a, b).is_singular
            assert pw.is_mutually_singular(b, a).is_singular == verdict
            singular += verdict
        assert 0 < singular < 150


def _homogeneity_pairs():
    """``(a, b)``: 40 pairs, n 2-8, random ranks, real and complex."""
    rng = np.random.default_rng(609)
    for k in range(40):
        n = int(rng.integers(2, 9))
        a, b = rand_pair(rng, n, int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))
        if k % 2:
            a, b = a.real, b.real
        yield a, b


def _lebesgue_parts(a, b):
    dec = pw.lebesgue_decompose(a, b)
    return dec.abs_part, dec.sing_part


HOMOGENEOUS_MATRICES = {
    "parallel_sum": lambda a, b: (pw.parallel_sum(a, b),),
    "lebesgue": _lebesgue_parts,
    "geometric": lambda a, b: (pw.weighted_geometric_mean(a, b, 0.3),),
    "left": lambda a, b: (pw.pw_eval(a, b, pw.left()),),
}
HOMOGENEOUS_PAIRINGS = {
    "entropy": lambda a, b, rho: pw.entropy_pairing(a, b, rho).value,
    "power": lambda a, b, rho: pw.power_pairing(a, b, 2.0, rho).value,
    "trace_parallel": lambda a, b, rho: pw.trace_functional(a, b, pw.parallel()),
}
# below the absolute weight_tol the scaled weights drop out of the pairing
_ABSOLUTE_WEIGHT_TOL = pytest.mark.xfail(
    strict=True, reason="ROADMAP items 7 and 10: weight_tol is absolute")


@pytest.fixture(scope="module")
def homogeneity_cases():
    """``(a, b, refs)`` with every operation's unscaled value in ``refs``."""
    cases = []
    for a, b in _homogeneity_pairs():
        eye = np.eye(a.shape[0])
        refs = {name: op(a, b) for name, op in HOMOGENEOUS_MATRICES.items()}
        refs.update((name, op(a, b, eye)) for name, op in HOMOGENEOUS_PAIRINGS.items())
        cases.append((a, b, refs))
    return cases


class TestJointHomogeneity:
    """``f(t a, t b) = t f(a, b)`` bit for bit at ``t = 4**k``: the kernel
    and the relative tolerances keep it exactly, since scaling by a power
    of four scales every square root by a power of two. The kernel solves
    at unit scale, so it holds below ``1e-154`` too, where the squares of
    an unscaled stopping test underflow (``k = -280`` and ``-400``)."""

    @pytest.mark.parametrize("name", sorted(HOMOGENEOUS_MATRICES))
    @pytest.mark.parametrize("k", [-400, -280, -100, -30, -10, -1, 1, 10, 30, 100])
    def test_matrices(self, homogeneity_cases, name, k):
        op = HOMOGENEOUS_MATRICES[name]
        t = 4.0 ** k
        for a, b, refs in homogeneity_cases:
            for got, ref in zip(op(t * a, t * b), refs[name]):
                assert got.tobytes() == (t * ref).tobytes()

    @pytest.mark.parametrize("name", sorted(HOMOGENEOUS_PAIRINGS))
    @pytest.mark.parametrize("k", [
        pytest.param(-100, marks=_ABSOLUTE_WEIGHT_TOL),
        pytest.param(-30, marks=_ABSOLUTE_WEIGHT_TOL),
        -10, -1, 1, 10, 30, 100, 250, 500, 510])
    def test_pairings(self, homogeneity_cases, name, k):
        op = HOMOGENEOUS_PAIRINGS[name]
        t = 4.0 ** k
        for a, b, refs in homogeneity_cases:
            assert op(t * a, t * b, np.eye(a.shape[0])) == t * refs[name]

    def test_pairings_with_a_scaled_state(self, homogeneity_cases):
        # the pair by 4**10 and the state by 4**-5: the value by 4**5
        for a, b, refs in homogeneity_cases:
            rho = 4.0 ** -5 * np.eye(a.shape[0])
            for name in ("entropy", "power"):
                got = HOMOGENEOUS_PAIRINGS[name](4.0 ** 10 * a, 4.0 ** 10 * b, rho)
                assert got == 4.0 ** 5 * refs[name], name

    @pytest.mark.parametrize("k", [-5, 5])
    def test_reused_rep_with_a_scaled_state(self, k):
        # rho = I is diagonal and its validation never reaches a sweep; a
        # generic full-rank state's does, certified or to convergence
        t = 4.0 ** k
        fns = (pw.entropy(), pw.power(2.0), pw.parallel(), pw.geometric(0.5))
        seq = [pw.scaled_parallel(2.0 ** j) for j in range(4)]
        rng = np.random.default_rng(610)
        for a, b in _homogeneity_pairs():
            rep = pw.build_rep(a, b)
            rho = rand_psd(rng, a.shape[0])
            if not np.iscomplexobj(a):
                rho = rho.real
            for fn in fns:
                assert rep.pairing(fn, t * rho).value == t * rep.pairing(fn, rho).value
            want = rep.eval_sequence(seq, rho).values
            assert rep.eval_sequence(seq, t * rho).values == [t * v for v in want]
