"""The Jacobi kernel's rounds against independent references.

References: ``numpy.linalg.eigvalsh``, mpmath at 60 digits on a graded
matrix, the scalar cyclic loop the rounds replaced, and the rounds as
they ran before real input got ``float64`` rounds (both kept below).
"""

import math
import threading
import warnings

import mpmath
import numpy as np
import pytest

from pwcalc import linalg
from pwcalc.linalg import (MAX_JACOBI_SWEEPS, _TINY, _jacobi_eig, _round_plan,
                           _rounds)

from conftest import SEED, rand_complex, rand_hermitian, rand_psd


def _cyclic_jacobi(mat):
    """Scalar cyclic ``(p, q)`` Jacobi loop: same rotation formula and
    stopping rule as the library kernel, one rotation at a time."""
    n = mat.shape[0]
    h = np.array(mat, dtype=np.complex128)
    v = np.eye(n, dtype=np.complex128)
    target = n * float(np.finfo(np.float64).eps) * float(np.linalg.norm(h))
    for _ in range(MAX_JACOBI_SWEEPS):
        off = h - np.diag(np.diag(h))
        if float(np.linalg.norm(off)) <= target:
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
                colp, colq = h[:, p].copy(), h[:, q].copy()
                h[:, p] = c * colp - su.conjugate() * colq
                h[:, q] = su * colp + c * colq
                rowp, rowq = h[p, :].copy(), h[q, :].copy()
                h[p, :] = c * rowp - su * rowq
                h[q, :] = su.conjugate() * rowp + c * rowq
                h[p, p] = app - t * mag
                h[q, q] = aqq + t * mag
                h[p, q] = h[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - su.conjugate() * vq
                v[:, q] = su * vp + c * vq
    raise AssertionError("reference loop did not converge")


def _complex_rounds(mat):
    """The kernel's rounds with every round in ``complex128``, the
    phase as the complex quotient ``apq / |apq|`` and the index pairs
    rebuilt on every call; the library kernel must match it byte for
    byte. The matrix is solved at unit scale, ``2**-e`` times ``mat``
    with its largest real or imaginary part in ``[1/2, 1)`` (each part
    by ``np.ldexp``, so that zeros keep their signs), and the eigenvalues
    are scaled back by ``2**e``."""
    n = mat.shape[0]
    top = max(np.abs(mat.real).max(initial=0.0), np.abs(mat.imag).max(initial=0.0))
    e = int(np.frexp(top)[1])
    hv = np.empty((2 * n, n), dtype=np.complex128)
    h = hv[:n]
    h.real = np.ldexp(mat.real, -e)
    h.imag = np.ldexp(mat.imag, -e)
    hv[n:] = np.eye(n)
    if n < 2:
        return np.ldexp(np.diag(h).real, e), hv[n:].copy()
    target = n * float(np.finfo(np.float64).eps) * float(np.linalg.norm(h))
    rounds = _rounds(n)
    for _ in range(MAX_JACOBI_SWEEPS):
        off = h - np.diag(np.diag(h))
        if float(np.linalg.norm(off)) <= target:
            vals = np.diag(h).real.copy()
            order = np.argsort(vals, kind="stable")
            return np.ldexp(vals[order], e), hv[n:, order]
        for p, q in rounds:
            apq = h[p, q]
            mag = np.abs(apq)
            live = mag >= _TINY
            p, q, apq, mag = p[live], q[live], apq[live], mag[live]
            k = p.size
            pq = np.concatenate((p, q))
            d = h[pq, pq].real
            app = d[:k]
            aqq = d[k:]
            with np.errstate(over="ignore"):
                tau = (aqq - app) / (2.0 * mag)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            su = (t * c) * (apq / mag)
            cols = hv[:, pq]
            x, y = cols[:, :k], cols[:, k:]
            sx = su * x
            x *= c
            x -= su.conj() * y
            y *= c
            y += sx
            hv[:, pq] = cols
            rows = h[pq]
            x, y = rows[:k], rows[k:]
            sx = su.conj()[:, None] * x
            x *= c[:, None]
            x -= su[:, None] * y
            y *= c[:, None]
            y += sx
            h[pq] = rows
            tm = t * mag
            h[pq, pq] = np.concatenate((app - tm, aqq + tm))
            h[p, q] = 0.0
            h[q, p] = 0.0
    raise AssertionError("reference rounds did not converge")


def _graded():
    """``D M D`` with ``D = diag(1, 1e-4, 1e-8, 1e-12)`` and a
    well-conditioned SPD ``M``: eigenvalues from about 1 down to ~1e-24."""
    m = np.array([[4.0, 1.0, 0.5, 0.25],
                  [1.0, 3.0, 0.75, 0.5],
                  [0.5, 0.75, 2.0, 0.125],
                  [0.25, 0.5, 0.125, 1.0]])
    d = np.array([1.0, 1e-4, 1e-8, 1e-12])
    return d[:, None] * m * d[None, :]


def _tiny_offdiagonal():
    """h[2, 3] is subnormal with equal diagonal entries, which asks for a
    45-degree rotation whose phase apq / |apq| overflowed into NaN; it is
    skipped now. h[0, 4] is normal but so small next to its diagonal gap
    that tau overflows to inf, giving the identity."""
    m = np.diag([1.0, 2.0, 3.0, 3.0, 2e9]).astype(np.complex128)
    m[0, 1] = m[1, 0] = 0.5
    m[1, 2] = m[2, 1] = 1e-310
    m[2, 3] = 3e-320 + 2e-320j
    m[3, 2] = np.conj(m[2, 3])
    m[0, 4] = m[4, 0] = 1e-300
    return m


_IDENTITY_KINDS = ["full", "half", "one", "zero", "indefinite", "diagonal",
                   "tiny", "negated-blocks"]


def _identity_case(rng, kind, n, real):
    """A Hermitian ``complex128`` matrix of the byte-identity set; with
    ``real`` every imaginary part is zero."""
    def gram(rank):
        g = rng.standard_normal((n, rank)) if real else rand_complex(rng, n, rank)
        m = g @ g.conj().T
        return 0.5 * (m + m.conj().T)

    if kind == "diagonal":
        m = np.diag(rng.standard_normal(n))
    elif kind == "indefinite":
        m = gram(n)
        m = m - (np.trace(m).real / max(n, 1)) * np.eye(n)
    elif kind == "tiny":
        m = 1e-150 * gram(n)
    elif kind == "negated-blocks":
        # skipped pairs between the blocks, and zeros that are -0.0
        m = np.zeros((n, n), dtype=complex)
        m[: n // 2, : n // 2] = gram(n)[: n // 2, : n // 2]
        m[n // 2:, n // 2:] = gram(n)[n // 2:, n // 2:]
        m = -m
    else:
        m = gram({"full": n, "half": n // 2, "one": min(1, n), "zero": 0}[kind])
    return np.asarray(m, dtype=np.complex128)


def _check_eigenpairs(m, vals, vecs):
    n = m.shape[0]
    scale = max(float(np.abs(np.linalg.eigvalsh(m)).max()) if n else 0.0, 1e-300)
    assert np.isfinite(vals).all() and np.isfinite(vecs).all()
    assert (np.diff(vals) >= 0).all()
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0, atol=1e-13 * scale)
    resid = vecs @ np.diag(vals) @ vecs.conj().T - m
    assert np.abs(resid).max(initial=0.0) <= 1e-13 * scale
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max(initial=0.0) <= 1e-13


class TestRoundRobin:
    """The rounds of a sweep, in the modulus ordering."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_every_pair_once_per_sweep(self, n):
        # round r = n - 1, ..., 0 holds the disjoint pairs with p + q = r
        # (mod n); for n = 2 the round r = 0 is empty and dropped
        rounds = _rounds(n)
        sums = range(n - 1, -1, -1) if n > 2 else [1]
        assert len(rounds) == len(sums)
        seen = []
        for r, (p, q) in zip(sums, rounds):
            assert (p < q).all() and ((p + q) % n == r).all()
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * p.size
            # for even n, the two indices with 2 p = r (mod n) sit out of
            # an even round
            assert p.size == ((n - 1) // 2 if n % 2 else n // 2 - 1 + r % 2)
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_plan_indexes_the_rounds(self, n):
        for m in (1, 2, 3):
            plan = _round_plan(n, m)
            for (p, q), arrays in zip(_rounds(n), plan, strict=True):
                cols, rows, diag, off = arrays
                # pair-major: entry s * m + j is pair s of member j
                pq = np.repeat(np.concatenate((p, q)), m)
                qp = np.repeat(np.concatenate((q, p)), m)
                member = np.tile(np.arange(m), pq.size // m)
                assert (cols == member * n + pq).all()
                assert (rows == pq * m + member).all()
                assert (diag == pq * (m * n) + member * n + pq).all()
                assert (off == pq * (m * n) + member * n + qp).all()
                assert not any(a.flags.writeable for a in arrays)
            if m == 1:
                # one member: the indices of the lone matrix
                for (p, q), (cols, rows, diag, off) in zip(_rounds(n), plan):
                    pq = np.concatenate((p, q))
                    assert (cols == pq).all() and (rows == pq).all()
                    assert (diag == pq * (n + 1)).all()


def _stopping_tests(m) -> int:
    """The stopping tests that ``_jacobi_eig(m)`` runs: one before each
    sweep and one more when ``m`` has converged."""
    with linalg._kernel_record() as calls:
        _jacobi_eig(m)
    (solve,), = calls
    assert solve.certified is False
    return solve.sweeps + 1


class TestKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_small_and_odd_sizes(self, rng, n):
        for real in (False, True):
            m = rand_hermitian(rng, n, real=real)
            vals, vecs = _jacobi_eig(m)
            assert vals.shape == (n,) and vecs.shape == (n, n)
            _check_eigenpairs(m, vals, vecs)

    def test_diagonal_input(self):
        vals, vecs = _jacobi_eig(np.diag([3.0, -1.0, 2.0, 0.0, 2.0]))
        assert vals.tolist() == [-1.0, 0.0, 2.0, 2.0, 3.0]
        assert (vecs == np.eye(5)[:, [1, 3, 2, 4, 0]]).all()

    def test_block_diagonal_skips_zero_pairs(self, rng):
        blocks = [rand_hermitian(rng, 3), rand_hermitian(rng, 4, real=True)]
        m = np.zeros((7, 7), dtype=np.complex128)
        m[:3, :3] = blocks[0]
        m[3:, 3:] = blocks[1]
        vals, vecs = _jacobi_eig(m)
        _check_eigenpairs(m, vals, vecs)
        # no rotation ever mixed the blocks
        in_first = np.abs(vecs[:3]).max(axis=0) > 0
        assert (vecs[3:, in_first] == 0).all() and (vecs[:3, ~in_first] == 0).all()
        assert in_first.sum() == 3

    def test_tiny_offdiagonal(self):
        m = _tiny_offdiagonal()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = _jacobi_eig(m)
        _check_eigenpairs(m, vals, vecs)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_huge_finite_tau_warns_nothing(self, dtype):
        # tau = 10 / (2 * 5e-308) is finite, but |tau| + hypot(1, tau)
        # overflows; that sum ran outside the errstate block and leaked
        # "overflow encountered in add"
        m = np.array([[0.0, 5e-308, 1.0], [5e-308, 10.0, 0.0], [1.0, 0.0, 5.0]],
                     dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = _jacobi_eig(m)
        _check_eigenpairs(m, vals, vecs)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_overflowing_norm_is_solved_scaled(self, dtype):
        # every entry is finite but the plain Frobenius norm overflows; an
        # unscaled stopping rule accepted the unrotated diagonal
        for m, want in (([[1e200, 2e200], [2e200, 1e200]], [-1e200, 3e200]),
                        ([[1e200] * 2] * 2, [0.0, 2e200])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals, vecs = _jacobi_eig(np.array(m, dtype=dtype))
            assert vals.tolist() == want
            assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() < 1e-15

    def test_memory_layout_does_not_change_bits(self, rng):
        m = rand_hermitian(rng, 7)
        padded = np.zeros((14, 21), dtype=np.complex128)
        padded[::2, ::3] = m
        ref = _jacobi_eig(m)
        for copy in (np.asfortranarray(m), padded[::2, ::3]):
            vals, vecs = _jacobi_eig(copy)
            assert vals.tobytes() == ref[0].tobytes()
            assert vecs.tobytes() == ref[1].tobytes()

    def test_input_untouched(self, rng):
        m = rand_hermitian(rng, 6)
        big = np.full((6, 6), 1e200)  # solved scaled
        before = [m.copy(), big.copy()]
        _jacobi_eig(m)
        _jacobi_eig(m, big)
        assert m.tobytes() == before[0].tobytes() and big.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_agrees_with_lapack(self, rng, n):
        m = rand_hermitian(rng, n)
        vals, vecs = _jacobi_eig(m)
        _check_eigenpairs(m, vals, vecs)

    def test_graded_relative_accuracy_mpmath(self):
        m = _graded()
        with mpmath.workdps(60):
            exact = sorted(mpmath.eigsy(mpmath.matrix(m.tolist()),
                                        eigvals_only=True))
            vals, _ = _jacobi_eig(m)
            for got, want in zip(vals, exact):
                assert abs(mpmath.mpf(float(got)) - want) <= 1e-14 * abs(want)
        assert float(exact[0]) < 1e-23

    # a rank-n/2 matrix carries an n/2-fold cluster at 0; in the modulus
    # ordering its coupling to the rest vanishes in about as many sweeps
    # as a definite spectrum takes (the circle ordering of Brent and Luk
    # needed 10, 11, 12 and 11 stopping tests for these four)
    @pytest.mark.parametrize("n, real, want", [(16, True, 7), (16, False, 8),
                                               (24, True, 9), (24, False, 8)])
    def test_sweeps_of_rank_deficient_input(self, n, real, want):
        rng = np.random.default_rng([SEED, n])
        g = rng.standard_normal((n, n // 2)) if real else rand_complex(rng, n, n // 2)
        m = linalg.hermitize(g @ g.conj().T)
        assert _stopping_tests(m) == want

    def test_sweeps_of_definite_input(self):
        m = rand_psd(np.random.default_rng([SEED, 24]), 24)
        assert _stopping_tests(m) == 8

    def test_matches_cyclic_reference(self, rng):
        graded = _graded()
        vals, _ = _jacobi_eig(graded)
        ref, _ = _cyclic_jacobi(graded)
        assert (np.abs(vals - ref) <= 1e-13 * np.abs(ref)).all()
        for n in range(2, 9):
            m = rand_hermitian(rng, n, real=bool(n % 2))
            vals, _ = _jacobi_eig(m)
            ref, _ = _cyclic_jacobi(m)
            assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


class TestByteIdentity:
    """``float64`` rounds for real input, the cached round plan and the
    other per-round savings must not move a single output bit."""

    @pytest.mark.parametrize("kind", _IDENTITY_KINDS)
    def test_matches_complex_rounds(self, kind):
        rng = np.random.default_rng([SEED, _IDENTITY_KINDS.index(kind)])
        # sizes 0..40 in steps of 3, so each kind meets odd and even n
        for n in range(_IDENTITY_KINDS.index(kind) % 3, 41, 3):
            for real in (True, False):
                m = _identity_case(rng, kind, n, real)
                vals, vecs = _jacobi_eig(m)
                assert vals.dtype == np.float64 and vecs.dtype == np.complex128
                ref_vals, ref_vecs = _complex_rounds(m)
                where = f"{kind}, n={n}, real={real}"
                assert vals.tobytes() == ref_vals.tobytes(), where
                assert vecs.tobytes() == ref_vecs.tobytes(), where


def _solved_alone(mats):
    """Solve ``mats`` side by side; assert that every member has the bits
    of its own solve and return the results."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _jacobi_eig(*mats)
    assert len(got) == len(mats)
    for i, (m, (vals, vecs)) in enumerate(zip(mats, got)):
        ref_vals, ref_vecs = _jacobi_eig(m)
        assert vals.dtype == np.float64 and vecs.dtype == np.complex128
        assert vals.tobytes() == ref_vals.tobytes(), f"member {i}"
        assert vecs.tobytes() == ref_vecs.tobytes(), f"member {i}"
    return got


class TestSideBySide:
    """Members solved in one call: each gets the bits of its own solve."""

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_mixed_real_and_complex(self, rng, n):
        # the real members are rotated in complex128 here, alone in float64
        mats = [rand_hermitian(rng, n, real=True).astype(np.complex128),
                rand_hermitian(rng, n),
                rand_psd(rng, n, n // 2).real.astype(np.complex128)]
        _solved_alone(mats)
        _solved_alone(mats[::2])

    def test_members_leave_when_they_converge(self, rng):
        # a definite and a rank-deficient member need different numbers of
        # sweeps, and a diagonal one none; each member leaves the call at
        # the stopping test where it converges, after the sweeps and rounds
        # of its own solve
        n = 12
        mats = [rand_psd(rng, n).astype(np.complex128),
                rand_psd(rng, n, 1).astype(np.complex128),
                np.diag(rng.standard_normal(n)).astype(np.complex128)]
        with linalg._kernel_record() as calls:
            _solved_alone(mats)
        batch, *alone = calls
        assert [len(call) for call in alone] == [1, 1, 1]
        sweeps = [solve.sweeps for (solve,) in alone]
        assert len(set(sweeps)) == 3 and sweeps[2] == 0
        assert batch == [solve for (solve,) in alone]

    def test_subnormal_pivots(self, rng):
        tiny = _tiny_offdiagonal()
        _solved_alone([tiny, rand_hermitian(rng, 5), tiny.real.astype(np.complex128)])
        _solved_alone([rand_hermitian(rng, 5, real=True).astype(np.complex128), tiny])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_overflowing_norm(self, rng, dtype):
        # every entry is finite but the plain Frobenius norm overflows; each
        # member is solved at its own unit scale
        got = _solved_alone([np.array([[1e200, 2e200], [2e200, 1e200]], dtype=dtype),
                             rand_hermitian(rng, 2, real=dtype == np.float64),
                             np.full((2, 2), 1e200, dtype=dtype)])
        assert got[0][0].tolist() == [-1e200, 3e200]
        assert got[2][0].tolist() == [0.0, 2e200]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_small_sizes(self, rng, n):
        mats = [rand_hermitian(rng, n), rand_hermitian(rng, n, real=True).astype(np.complex128),
                rand_psd(rng, n, n // 2)]
        got = _solved_alone(mats)
        for m, (vals, vecs) in zip(mats, got):
            _check_eigenpairs(m, vals, vecs)

    @pytest.mark.parametrize("n", [3, 8, 13])
    def test_every_identity_kind_in_one_call(self, n):
        # the byte-identity set, real and complex, sixteen members side by
        # side, against the complex rounds of the kernel before side-by-side
        # solving
        rng = np.random.default_rng([SEED, n])
        mats = [_identity_case(rng, kind, n, real)
                for kind in _IDENTITY_KINDS for real in (True, False)]
        for m, (vals, vecs) in zip(mats, _solved_alone(mats)):
            ref_vals, ref_vecs = _complex_rounds(m)
            assert vals.tobytes() == ref_vals.tobytes()
            assert vecs.tobytes() == ref_vecs.tobytes()


class TestRecord:
    """The kernel's record of its calls, which every count in the tests
    reads."""

    def test_absent_outside_a_listener(self, rng):
        m = rand_psd(rng, 4)
        _jacobi_eig(m)
        assert linalg._RECORD.get() is None
        with linalg._kernel_record() as calls:
            _jacobi_eig(m)
        assert len(calls) == 1 and linalg._RECORD.get() is None

    def test_a_listener_sees_only_its_own_thread(self, rng):
        # three threads listen and solve in turn, each at its own size; a
        # record holds the two calls of its own thread and no other
        sizes = {"main": 2, "a": 3, "b": 5}
        mats = {name: rand_psd(rng, n) for name, n in sizes.items()}
        barrier = threading.Barrier(len(sizes), timeout=60)
        records = {}

        def solve(name):
            with linalg._kernel_record() as calls:
                for _ in range(2):
                    barrier.wait()
                    _jacobi_eig(mats[name])
                barrier.wait()
            records[name] = calls

        threads = [threading.Thread(target=solve, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        solve("main")
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for name, n in sizes.items():
            assert [[member.n for member in call] for call in records[name]] == [[n]] * 2, name
