"""The structural split of ``gram_a``: its 0- and 1-eigenspaces come from the
validating decompositions, and only the rest is solved.

In finite dimension ``gram_a`` is 0 on ``T(ker a)``, of dimension ``k0 =
rank(a+b) - rank(a)``, and 1 on ``T(ker b)``, of dimension ``k1 =
rank(a+b) - rank(b)``, with every rank taken at the support threshold of
``a + b``. ``build_rep`` gives those directions their eigenvalue exactly
and solves only the retained block. The undeflated reference here is the
same construction with nothing split off, so its ``gram_a_spec`` is
``eig_hermitian(rep.gram_a)``, as before the split.
"""

import math
from operator import attrgetter

import numpy as np
import pytest

import pwcalc as pw
from pwcalc import calculus, linalg
from pwcalc.config import EPS

from conftest import rand_psd
from kernel_rounds import haar, pair, spectral

SCALES = (1.0, 4.0 ** -5, 4.0 ** 5)


def _structural_counts(kind, n):
    """``(k0, k1)`` of a ``kind`` pair from :func:`kernel_rounds.pair`:
    the dimensions of gram_a's 0- and 1-eigenspaces."""
    r = max(1, n // 2)
    return {"full": (0, 0), "a_def": (n - r, 0), "b_def": (0, n - r), "ac": (0, 0),
            "singular": (n - r, r), "a_zero": (n, 0), "b_zero": (0, n)}[kind]


KINDS = ("full", "a_def", "b_def", "ac", "singular", "a_zero", "b_zero")


def _cases():
    rng = np.random.default_rng(2305_15085)
    cases = []
    for kind in KINDS:
        for real in (True, False):
            for scale in SCALES:
                n = int(rng.integers(2, 25))
                a, b = pair(rng, kind, n, real, scale)
                k0, k1 = _structural_counts(kind, n)
                cases.append((f"{kind}-{'real' if real else 'complex'}-n{n}-{scale:g}",
                              a, b, k0, k1))
    return cases


CASES = _cases()
IDS = [c[0] for c in CASES]


def _split_nothing(z, m, steps, floor=0.0):
    # no pivot is ever found, so every split that is needed is refused
    return None


@pytest.fixture
def undeflated(monkeypatch):
    """Call it to make ``build_rep`` split nothing off for the rest of the
    test: ``gram_a`` is then solved whole, as ``eig_hermitian(rep.gram_a)``."""
    return lambda: monkeypatch.setattr(calculus, "_pivoted_columns", _split_nothing)


def _slack(rep):
    lam = rep.sum_eigs
    return max(calculus._SPECTRUM_SLACK,
               calculus._SPECTRUM_NOISE_FACTOR * rep.n * EPS * float(lam[-1] / lam[0]))


@pytest.mark.parametrize("name,a,b,k0,k1", CASES, ids=IDS)
def test_exact_eigenvalues_number_k0_and_k1(name, a, b, k0, k1):
    rep = pw.build_rep(a, b)
    x = rep.gram_a_spec.eigenvalues
    assert int((x == 0.0).sum()) == k0
    assert int((x == 1.0).sum()) == k1
    assert int(rep.split.zero.sum()) == k0
    assert int(rep.split.one.sum()) == k1
    assert (np.diff(x) >= 0.0).all()
    assert (rep.split.k0, rep.split.k1) == (k0, k1)
    assert rep.split.verdict == ("none" if k0 == k1 == 0 else "split")
    # the slots swap T(ker a) and T(ker b), and the decision with them
    swapped = pw.build_rep(b, a).split
    assert (swapped.k0, swapped.k1, swapped.verdict) == (k1, k0, rep.split.verdict)


@pytest.mark.parametrize("name,a,b,k0,k1", CASES, ids=IDS)
def test_eigenbasis_reproduces_gram_a(name, a, b, k0, k1):
    rep = pw.build_rep(a, b)
    spec = rep.gram_a_spec
    w = spec.basis
    assert np.linalg.norm(w.conj().T @ w - np.eye(rep.rank)) <= 64 * rep.rank * EPS
    assert np.linalg.norm(spec.reconstruct() - rep.gram_a) <= _slack(rep)
    # eig_map is W* T, with T the coordinate map
    assert np.array_equal(rep.eig_map, w.conj().T @ rep.coord_map)


def _outputs(a, b):
    """Every public operation on the pair that reads gram_a's spectrum or
    eigenbasis, each as its value or the type of its error."""
    n = a.shape[0]
    rho = np.eye(n) / n
    xi = np.ones(n) / math.sqrt(n)
    ops = {
        "lebesgue": lambda: attrgetter("abs_part", "sing_part", "projection",
                                       "num_zero_eigs")(pw.lebesgue_decompose(a, b)),
        "abs_cont_part": lambda: pw.abs_cont_part(a, b),
        "abs_continuity_projection": lambda: pw.abs_continuity_projection(a, b),
        "parallel_sum": lambda: pw.parallel_sum(a, b),
        "geometric_mean": lambda: pw.weighted_geometric_mean(a, b, 0.3),
        "pw_eval": lambda: pw.pw_eval(a, b, pw.geometric(0.5)),
        "pw_pairing": lambda: pw.pw_pairing(a, b, pw.parallel(), rho),
        "power_pairing": lambda: pw.power_pairing(a, b, 2.0, rho).value,
        "entropy_pairing": lambda: pw.entropy_pairing(a, b, rho).value,
        "trace_functional": lambda: pw.trace_functional(a, b, pw.geometric(0.3)),
        "eval_sequence": lambda: pw.eval_sequence(
            a, b, [pw.power(1.5), pw.power(2.0)], rho).values,
        "is_mutually_singular": lambda: pw.is_mutually_singular(a, b).is_singular,
        "is_abs_continuous": lambda: pw.is_abs_continuous(a, b),
        "rn_factor": lambda: attrgetter("factor", "root", "value",
                                        "infinite_directions")(pw.rn_factor(a, b)),
        "kubo_ando_form": lambda: attrgetter("factor", "root", "value")(
            pw.kubo_ando_form(a, b, pw.parallel())),
        "rn_quadratic_form": lambda: pw.rn_quadratic_form(a, b, xi),
    }
    out = {}
    for name, op in ops.items():
        try:
            value = op()
        except pw.PwCalcError as exc:
            value = type(exc)
        out[name] = value if isinstance(value, tuple) else (value,)
    return out


# the degree of each output under a joint scaling of the pair, where it is
# not 1: projections and ratio factors have degree 0, roots 1/2
DEGREES = {"lebesgue": (1, 1, 0, 0), "abs_continuity_projection": (0,),
           "rn_factor": (0, 0.5, 1, 0), "kubo_ando_form": (0, 0.5, 1)}


@pytest.mark.parametrize("name,a,b,k0,k1", CASES, ids=IDS)
def test_operations_agree_with_the_undeflated_reference(undeflated, name, a, b, k0, k1):
    got = _outputs(a, b)
    undeflated()
    want = _outputs(a, b)
    pair_scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2))
    for op, values in want.items():
        for g, w, degree in zip(got[op], values, DEGREES.get(op, [1] * len(values))):
            if isinstance(w, type) or isinstance(g, type):
                assert g == w, op  # the same error, or none
                continue
            g, w = np.asarray(g), np.asarray(w)
            assert g.shape == w.shape and g.dtype == w.dtype, op
            if k0 == k1 == 0:
                # nothing is split off: the same solve, the same bits
                assert g.tobytes() == w.tobytes(), op
            elif w.dtype.kind in "bi":
                assert np.array_equal(g, w), op  # the same verdict or count
            else:
                inf = np.isinf(w)
                assert np.array_equal(np.isinf(g), inf) and np.array_equal(g[inf], w[inf]), op
                scale = max(pair_scale ** degree, np.abs(w[~inf]).max(initial=0.0))
                err = np.abs(g[~inf] - w[~inf]).max(initial=0.0)
                assert err <= 1e-12 * scale, (op, err / scale)


def test_the_reference_solves_gram_a_whole(undeflated):
    _, a, b, k0, _ = next(c for c in CASES if c[0].startswith("a_def"))
    assert k0
    undeflated()
    rep = pw.build_rep(a, b)
    whole = pw.eig_hermitian(rep.gram_a)
    assert rep.gram_a_spec.eigenvalues.tobytes() == whole.eigenvalues.tobytes()
    assert rep.gram_a_spec.basis.tobytes() == whole.basis.tobytes()


def _calls(*args):
    """``(build_rep(*args), sizes)``, with the member sizes of each kernel
    call that it makes."""
    with linalg._kernel_record() as calls:
        rep = pw.build_rep(*args)
    return rep, [[member.n for member in call] for call in calls]


@pytest.mark.parametrize("name,a,b,k0,k1", CASES, ids=IDS)
def test_the_second_call_solves_the_retained_block(name, a, b, k0, k1):
    rep, sizes = _calls(a, b)
    n = a.shape[0]
    retained = rep.rank - k0 - k1
    assert sizes[0] == [n, n, n]
    assert sizes[1:] == ([[retained]] if retained else [])


class TestGuard:
    """Rank decisions that contradict each other at the cut split nothing
    off: ``gram_a`` is solved whole, as the undeflated reference solves it."""

    def _same_as_reference(self, monkeypatch, a, b, tol=pw.DEFAULT_TOL):
        rep, sizes = _calls(a, b, tol)
        assert sizes[1:] == [[rep.rank]]
        monkeypatch.setattr(calculus, "_pivoted_columns", _split_nothing)
        want = pw.build_rep(a, b, tol)
        monkeypatch.undo()
        assert rep.gram_a_spec.eigenvalues.tobytes() == want.gram_a_spec.eigenvalues.tobytes()
        assert rep.eig_map.tobytes() == want.eig_map.tobytes()
        return rep

    def test_rank_of_a_above_the_rank_of_the_sum(self, monkeypatch):
        # b's clamp of -4e-16 is rounding, so the sum solved beside the
        # pair keeps it: a's eigenvalue 1.2 * cut lies above the cut, the
        # sum's 1.2 * cut - 4e-16 below it, so k0 = rank(a+b) - rank(a) = -1
        cut = 2 * EPS * 2.0
        a = np.diag([1.0, 1.2 * cut])
        b = np.diag([1.0, -4e-16])
        rep = self._same_as_reference(monkeypatch, a, b)
        assert rep.rank == 1
        assert (rep.split.k0, rep.split.k1, rep.split.verdict) == (-1, 0, "counts")

    def test_a_direction_in_both_kernels(self, monkeypatch):
        # a = b: the direction of 0.6 * cut lies in the kernel of each at
        # the cut, but not in the kernel of the sum, so k0 = k1 = 1 and
        # the two images coincide; its eigenvalue of gram_a is 1/2
        cut = 2 * EPS * 2.0
        a = np.diag([1.0, 0.6 * cut])
        rep = self._same_as_reference(monkeypatch, a, a.copy())
        assert rep.rank == 2
        assert (rep.split.k0, rep.split.k1, rep.split.verdict) == (1, 1, "pivot")
        assert np.allclose(rep.gram_a_spec.eigenvalues, 0.5, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("real", [True, False])
    def test_a_rotated_direction_in_both_kernels(self, monkeypatch, seed, real):
        # a = b = U diag(1, 0.7 cut, 0, ...) U*: k0 = k1 = 1 as on the
        # diagonal, but the part of b's kernel image left outside a's is
        # now rounding, not zero. Normalized, it would give the direction
        # of 1, where gram_a is 1/2, the eigenvalue 1
        n = 16
        cut = n * EPS * 2.0
        u = haar(np.random.default_rng([seed, n]), n, real)
        a = spectral(u, np.array([1.0, 0.7 * cut] + [0.0] * (n - 2)))
        rep = self._same_as_reference(monkeypatch, a, a.copy())
        assert rep.rank == 2
        assert (rep.split.k0, rep.split.k1, rep.split.verdict) == (1, 1, "pivot")
        assert not pw.is_mutually_singular(a, a.copy()).is_singular
        assert np.abs(pw.parallel_sum(a, a.copy()) - 0.5 * a).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_a_rotated_direction_in_both_kernels_at_a_custom_support_tol(
            self, monkeypatch, seed):
        # 6e-7 is kernel of a and of b at support_tol = 1e-6 but 1.2e-6 is
        # support of the sum: k0 = 1 and k1 = 2 fit rank 3, yet b's kernel
        # image adds one direction only, and rounding for the other would
        # give the direction of u1, where gram_a is 1 / 1.3, the eigenvalue 1
        tol = pw.ToleranceConfig(support_tol=1e-6)
        u = haar(np.random.default_rng([seed, 3]), 3, False)
        a = spectral(u, np.array([1.0, 6e-7, 0.5]))
        b = spectral(u, np.array([0.3, 6e-7, 0.0]))
        rep = self._same_as_reference(monkeypatch, a, b, tol)
        assert rep.rank == 3
        assert (rep.split.k0, rep.split.k1, rep.split.verdict) == (1, 2, "pivot")
        assert np.allclose(rep.gram_a_spec.eigenvalues, [0.5, 1 / 1.3, 1.0],
                           rtol=0, atol=1e-9)
        assert not pw.is_mutually_singular(a, b, tol).is_singular
        want = spectral(u, np.array([0.3 / 1.3, 3e-7, 0.0]))
        assert np.abs(pw.parallel_sum(a, b, tol) - want).max() <= 1e-12

    @staticmethod
    def _split(t, gram, ker_a, ker_b):
        """``calculus._split_spectrum`` of ``gram`` for the coordinate map
        ``t`` of a sum with unit eigenvalues, at the cut 0, of members
        whose kernels there are spanned by ``ker_a`` and ``ker_b``."""
        def dec(ker):
            n, k = ker.shape
            x = np.concatenate((np.zeros(k), np.ones(n - k)))
            return linalg.SpectralDecomposition(
                x, np.concatenate((ker, np.zeros((n, n - k))), axis=1))
        return calculus._split_spectrum(t, gram, np.ones(t.shape[0]), dec(ker_a),
                                        dec(ker_b), 0.0, pw.DEFAULT_TOL)

    @staticmethod
    def _solved_whole(spec, gram):
        whole = pw.eig_hermitian(gram)
        return (spec.eigenvalues.tobytes() == whole.eigenvalues.tobytes()
                and spec.basis.tobytes() == whole.basis.tobytes())

    def test_contradictory_counts_split_nothing_off(self):
        # a coordinate map of a rank-3 sum on C^4, whose kernel e4 lies in
        # the kernel of each member at the cut unless rounding moved it
        t = np.eye(3, 4, dtype=np.complex128)
        gram = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
        e = np.eye(4, dtype=np.complex128)
        for ker_a, ker_b, counts, verdict in (
                (e[:, :0], e[:, 2:], (-1, 1), "counts"),
                (e[:, [0, 1, 3]], e[:, [0, 1, 3]], (2, 2), "counts"),
                (e[:, 3:], e[:, 3:], (0, 0), "none")):
            spec, split = self._split(t, gram, ker_a, ker_b)
            assert (split.k0, split.k1, split.verdict) == (*counts, verdict)
            assert self._solved_whole(spec, gram)

    def test_a_pivot_of_rounding_splits_nothing_off(self):
        # b's kernel image leaves 1e-17 outside a's: rounding, at most the
        # floor, though normalized it would be e2, a 1-eigenvector of gram
        t = np.eye(3, dtype=np.complex128)
        gram = np.diag([0.0, 1.0, 0.5]).astype(np.complex128)
        k_b = np.array([[1.0], [1e-17], [0.0]], dtype=np.complex128)
        spec, split = self._split(t, gram, t[:, :1], k_b)
        assert (split.k0, split.k1, split.verdict) == (1, 1, "pivot")
        assert self._solved_whole(spec, gram)
        spec, split = self._split(t, gram, t[:, :1], t[:, 1:2])
        assert split.verdict == "split"
        assert list(spec.eigenvalues) == [0.0, 0.5, 1.0]
        assert np.array_equal(np.abs(spec.basis), t[:, [0, 2, 1]])

    def test_bases_that_fail_as_eigenvectors_split_nothing_off(self):
        # e1 and e2 are eigenvectors of gram, but for 0.5 and 0.2
        t = np.eye(3, dtype=np.complex128)
        gram = np.diag([0.5, 0.2, 0.7]).astype(np.complex128)
        spec, split = self._split(t, gram, t[:, :1], t[:, 1:2])
        assert (split.k0, split.k1, split.verdict) == (1, 1, "eigenvectors")
        assert self._solved_whole(spec, gram)


class TestExplicitSupportTol:
    """An eigenvalue of ``a`` at or below an explicit ``support_tol``
    counts as kernel in ``gram_a`` too, not only in the roots."""

    def _pair(self):
        u = haar(np.random.default_rng(7), 3, False)
        a = u @ np.diag([1.0, 1e-7, 0.5]) @ u.conj().T
        b = u @ np.diag([0.0, 1.0, 0.0]) @ u.conj().T
        return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T), u[:, 1]

    def test_the_direction_gets_zero_exactly(self):
        a, b, v = self._pair()
        tol = pw.ToleranceConfig(support_tol=1e-6)
        rep = pw.build_rep(a, b, tol)
        x = rep.gram_a_spec.eigenvalues
        # rank(a) = 2 and rank(b) = 1 at the cut, the sum has rank 3
        assert list(x[:1]) == [0.0] and list(x[1:]) == [1.0, 1.0]
        assert pw.is_mutually_singular(a, b, tol).is_singular
        dec = pw.lebesgue_decompose(a, b, tol)
        assert dec.warnings == ()
        assert np.abs(dec.abs_part).max() == 0.0
        assert np.linalg.norm(dec.sing_part - b) <= 1e-13

    def test_the_default_cut_retains_it(self):
        a, b, _ = self._pair()
        x = pw.build_rep(a, b).gram_a_spec.eigenvalues
        assert int((x == 0.0).sum()) == 0 and int((x == 1.0).sum()) == 2
        assert abs(x[0] - 1e-7 / (1 + 1e-7)) <= 1e-14


class TestMendedCases:
    def test_b_zero_with_an_ill_conditioned_a(self):
        # rounding at 1 - 2.75e-8 used to stay a retained eigenvalue
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        a = q @ np.diag([1.0, 1e-9, 1e-9, 1e-9]) @ q.T
        a = 0.5 * (a + a.T)
        zero = np.zeros((4, 4))
        check = pw.is_mutually_singular(a, zero)
        assert check.is_singular and check.distance == 0.0
        assert not pw.parallel_sum(a, zero).any()
        dec = pw.lebesgue_decompose(a, zero)
        assert dec.warnings == ()
        assert not dec.abs_part.any() and not dec.sing_part.any()
        assert dec.residual_sum == 0.0

    def test_mixed_scale_rank_one_pairs_are_singular(self):
        # the kernel noise of a over ||b|| used to put an eigenvalue of
        # about 1e-8 on either side of zero_tol
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = rand_psd(rng, 5, 1, 2.6e3)
            b = rand_psd(rng, 5, 1, 5.2e-6)
            assert pw.is_mutually_singular(a, b).is_singular, seed
            assert pw.trace_functional(a, b, pw.geometric(0.3)) == 0.0, seed
