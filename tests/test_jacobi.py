"""The round-robin Jacobi kernel against independent references.

References: ``numpy.linalg.eigvalsh``, mpmath at 60 digits on a graded
matrix, the scalar cyclic loop the round-robin kernel replaced, and the
round-robin kernel as it ran before real input got ``float64`` rounds
(both kept below).
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from pwcalc.linalg import (MAX_JACOBI_SWEEPS, _TINY, _jacobi_eig, _round_plan,
                           _round_robin)

from conftest import SEED, rand_complex, rand_hermitian


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
    """The round-robin kernel with every round in ``complex128``, the
    phase as the complex quotient ``apq / |apq|`` and the index pairs
    rebuilt on every call; the library kernel must match it byte for
    byte."""
    n = mat.shape[0]
    hv = np.empty((2 * n, n), dtype=np.complex128)
    h = hv[:n]
    h[...] = mat
    hv[n:] = np.eye(n)
    if n < 2:
        return np.diag(h).real.astype(np.float64), hv[n:].copy()
    target = n * float(np.finfo(np.float64).eps) * float(np.linalg.norm(h))
    rounds = _round_robin(n)
    for _ in range(MAX_JACOBI_SWEEPS):
        off = h - np.diag(np.diag(h))
        if float(np.linalg.norm(off)) <= target:
            vals = np.diag(h).real.copy()
            order = np.argsort(vals, kind="stable")
            return vals[order], hv[n:, order]
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
    @pytest.mark.parametrize("n", range(2, 12))
    def test_every_pair_once_per_sweep(self, n):
        rounds = _round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for p, q in rounds:
            assert (p < q).all()
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * p.size == n - n % 2
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_plan_indexes_the_rounds(self, n):
        for (p, q), (pq, diag, off) in zip(_round_robin(n), _round_plan(n), strict=True):
            assert pq.tolist() == p.tolist() + q.tolist()
            assert (diag == pq * (n + 1)).all()
            rows, cols = np.divmod(off, n)
            assert rows.tolist() == pq.tolist()
            assert cols.tolist() == q.tolist() + p.tolist()
            assert not (pq.flags.writeable or diag.flags.writeable or off.flags.writeable)


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
        # h[2, 3] is subnormal with equal diagonal entries, which asks for a
        # 45-degree rotation whose phase apq / |apq| overflowed into NaN; it
        # is skipped now. h[0, 4] is normal but so small next to its
        # diagonal gap that tau overflows to inf, giving the identity.
        m = np.diag([1.0, 2.0, 3.0, 3.0, 2e9]).astype(np.complex128)
        m[0, 1] = m[1, 0] = 0.5
        m[1, 2] = m[2, 1] = 1e-310
        m[2, 3] = 3e-320 + 2e-320j
        m[3, 2] = np.conj(m[2, 3])
        m[0, 4] = m[4, 0] = 1e-300
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
        before = m.copy()
        _jacobi_eig(m)
        assert m.tobytes() == before.tobytes()

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
