"""Acceptance suite: one test per exit criterion, fixed seed, stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output on failure). Oracles are independent of the library path
under test: ``numpy.linalg`` routines, scalar formulas and hand-computed
cases.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import pwcalc as pw
from conftest import (GOLDEN_CASES, SEED, anderson_duffin, dominated_matrix,
                      eigmin, np_sqrtm, rand_pair, rand_psd, rand_state,
                      run_cli, spec_norm, structured_pair)

GOLDEN = Path(__file__).parent / "golden"

ANDO_A = np.diag([1.0, 0.0])
ANDO_B = np.array([[1.0, 1.0], [1.0, 1.0]])


def _report(num, label):
    print(f"[acceptance] criterion {num:2d} ({label}): PASS")


class _Failure:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _report(self.num, self.label)
        else:
            print(f"[acceptance] criterion {self.num:2d} ({self.label}): FAIL")
        return False


def random_rank_pair(rng, max_n=10):
    n = int(rng.integers(1, max_n + 1))
    return rand_pair(rng, n, int(rng.integers(0, n + 1)),
                     int(rng.integers(0, n + 1)))


def test_criterion_01_contraction_gram_identity():
    with _Failure(1, "contraction grams sum to identity"):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(200):
            a, b = random_rank_pair(rng)
            rep = pw.build_rep(a, b)
            eye = np.eye(rep.rank)
            gap = spec_norm(rep.contr_a.conj().T @ rep.contr_a
                            + rep.contr_b.conj().T @ rep.contr_b - eye)
            worst = max(worst, gap)
        assert worst < 1e-9, worst


def test_criterion_02_congruence_round_trip_and_order():
    with _Failure(2, "congruence round trip and order preservation"):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, n + 1)))
            rep = pw.build_rep(a, b)
            total = a + b
            cases = [a, b, total] + [dominated_matrix(rng, total)
                                     for _ in range(20)]
            for c in cases:
                back = rep.from_support(rep.to_support(c))
                assert spec_norm(back - c) <= 1e-8 * max(spec_norm(c), 1e-300)
            # order preservation spot-checks, both directions
            small = dominated_matrix(rng, total, norm_cap=0.5)
            big = small + dominated_matrix(rng, total, norm_cap=0.5)
            assert eigmin(rep.to_support(big) - rep.to_support(small)) >= -1e-8
            ct = rep.to_support(small)
            bump = 0.25 * np.eye(rep.rank)
            assert eigmin(rep.from_support(ct + bump)
                          - rep.from_support(ct)) >= -1e-8


def test_criterion_03_doubling_limit_bound_and_monotonicity():
    with _Failure(3, "doubling parallel sums reach the continuous part"):
        rng = np.random.default_rng(SEED + 3)
        tol = pw.ToleranceConfig(max_doublings=40)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            a, b = structured_pair(rng, n, int(rng.integers(1, n)))
            rep = pw.build_rep(a, b, tol)
            x = rep.gram_a_spec.eigenvalues
            retained = x > tol.zero_tol
            xmin = float(x[retained].min()) if retained.any() else 1.0
            bc = rep.eval(pw.abs_part())
            res = pw.parallel_sum_limit(a, b, tol)
            for k, it in enumerate(res.iterates):
                assert spec_norm(it - bc) <= 1.0 / (2.0 ** k * xmin) + 1e-8
            for prev, cur in zip(res.iterates, res.iterates[1:]):
                assert eigmin(cur - prev) >= -1e-9
            assert spec_norm(res.value - bc) < 1e-6


def test_criterion_04_decomposition_identities():
    with _Failure(4, "decomposition, projections and parallel-sum forms"):
        rng = np.random.default_rng(SEED + 4)
        for trial in range(200):
            n = int(rng.integers(2, 11))
            if trial % 2 == 0:
                a, b = structured_pair(rng, n, int(rng.integers(1, n + 1)))
            else:
                a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)),
                                 int(rng.integers(1, n + 1)))
            dec = pw.lebesgue_decompose(a, b)
            scale = max(spec_norm(b), 1e-300)
            assert spec_norm(b - dec.abs_part - dec.sing_part) <= 1e-9 * scale
            assert pw.is_mutually_singular(a, dec.sing_part).distance < 1e-7
            bh = np_sqrtm(b)
            assert spec_norm(bh @ dec.projection @ bh - dec.abs_part) < 1e-8
            assert spec_norm(dec.projection
                             - pw.solvable_subspace_projection(a, b)) < 1e-7
            rep = pw.build_rep(a, b)
            eye = np.eye(n)
            yy = rep.contr_b @ rep.contr_b.conj().T
            xx = rep.contr_a @ rep.contr_a.conj().T
            lhs = rep.b_half @ (eye - yy) @ rep.b_half
            rhs = rep.a_half @ (eye - xx) @ rep.a_half
            assert spec_norm(lhs - rhs) < 1e-8
            ad = anderson_duffin(a, b)
            for expr in pw.parallel_sum_expressions(a, b).values():
                assert spec_norm(expr - ad) < 1e-8


def test_criterion_05_commuting_discrete_measure_oracle():
    with _Failure(5, "diagonal pairs reproduce discrete-measure decomposition"):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            da = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.1, 2.0, n))
            db = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.1, 2.0, n))
            dec = pw.lebesgue_decompose(np.diag(da), np.diag(db))
            bc_ref = np.diag(np.where(da > 0, db, 0.0))
            bs_ref = np.diag(np.where(da > 0, 0.0, db))
            assert np.abs(dec.abs_part - bc_ref).max() <= 1e-12
            assert np.abs(dec.sing_part - bs_ref).max() <= 1e-12


def test_criterion_06_tensor_identities():
    with _Failure(6, "Kronecker multiplicativity and trace tensor rules"):
        rng = np.random.default_rng(SEED + 6)
        for _ in range(50):
            a1, b1 = rand_pair(rng, 2, 2, 2)
            a2, b2 = rand_pair(rng, 2, 2, 2)
            lhs = pw.weighted_geometric_mean(pw.kron(a1, a2), pw.kron(b1, b2), 0.5)
            rhs = pw.kron(pw.weighted_geometric_mean(a1, b1, 0.5),
                          pw.weighted_geometric_mean(a2, b2, 0.5))
            assert spec_norm(lhs - rhs) < 1e-7
        for _ in range(50):
            a1, b1 = structured_pair(rng, 2, 1)
            a2, b2 = structured_pair(rng, 2, int(rng.integers(1, 3)))
            lhs = pw.abs_cont_part(pw.kron(a1, a2), pw.kron(b1, b2))
            rhs = pw.kron(pw.abs_cont_part(a1, b1), pw.abs_cont_part(a2, b2))
            assert spec_norm(lhs - rhs) < 1e-7
        for _ in range(50):
            a1 = np.diag(rng.uniform(0.1, 2.0, 2))
            b1 = np.diag(rng.uniform(0.1, 2.0, 2))
            a2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
            b2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
            lhs = pw.trace_functional(pw.kron(a1, a2), pw.kron(b1, b2),
                                      pw.power(2.0))
            rhs = pw.trace_functional(a1, b1, pw.power(2.0)) * \
                pw.trace_functional(a2, b2, pw.power(2.0))
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))
            lhs = pw.trace_functional(pw.kron(a1, a2), pw.kron(b1, b2),
                                      pw.entropy())
            rhs = pw.trace_functional(a1, b1, pw.entropy()) * np.trace(a2).real \
                + np.trace(a1).real * pw.trace_functional(a2, b2, pw.entropy())
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))
        # +inf consistency on constructed kernel overlaps
        for fn in (pw.entropy(), pw.power(2.0)):
            a2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
            b2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
            rho2 = rand_state(rng, 2) + 0.1 * np.eye(2)
            res = pw.tensor_pairing_check(np.array([[1.0]]), np.array([[0.0]]),
                                          a2, b2, np.array([[1.0]]), rho2, fn)
            assert math.isinf(res.lhs) and math.isinf(res.rhs)
            assert res.infinity_consistent


def test_criterion_07_derivative_factorizations():
    with _Failure(7, "derivative factor, congruence forms, quadratic form"):
        rng = np.random.default_rng(SEED + 7)
        profiles = (pw.parallel(), pw.left(), pw.geometric(0.5))
        for trial in range(200):
            n = int(rng.integers(1, 9))
            a = rand_psd(rng, n) + 0.2 * np.eye(n)
            b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            res = pw.rn_factor(a, b)
            cond = max(res.condition, 1.0)
            scale = max(spec_norm(b), 1e-300)
            assert spec_norm(res.value - b) <= 1e-6 * cond * scale + 1e-12
            assert res.residual <= 1e-6 * cond
            xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            val = pw.rn_quadratic_form(a, b, np_sqrtm(a) @ xi)
            ref = float((xi.conj() @ b @ xi).real)
            assert abs(val - ref) <= 1e-7 * max(abs(ref), 1.0)
            if trial % 4 == 0:
                for fn in profiles:
                    kres = pw.kubo_ando_form(a, b, fn)
                    direct = pw.pw_eval(a, b, fn)
                    kcond = max(kres.condition, 1.0)
                    kscale = max(spec_norm(direct), 1e-300)
                    assert spec_norm(kres.value - direct) <= 1e-7 * kcond * kscale


def test_criterion_08_pairing_sequences():
    with _Failure(8, "pairing sequences converge as the profiles do"):
        rng = np.random.default_rng(SEED + 8)
        a, b = structured_pair(rng, 6, 4)
        rho = rand_state(rng, 6) + 0.05 * np.eye(6)
        rep = pw.build_rep(a, b)
        # doubling-scale parallel profiles approach the continuous-part pairing
        fns = [pw.scaled_parallel(2.0 ** k) for k in range(0, 38)]
        seq = rep.eval_sequence(fns, rho)
        target = rep.pairing(pw.abs_part(), rho).value
        assert seq.converged
        assert all(g < 1e-8 for g in seq.gaps[-3:])
        assert abs(seq.values[-1] - target) < 1e-6
        # truncated ratio profiles pair monotonically
        cuts = [pw.rn_cutoff(2.0 ** k) for k in range(0, 12)]
        mono = rep.eval_sequence(cuts, rho)
        assert (np.diff(mono.values) >= -1e-10).all()
        # uniformly bounded pointwise-convergent custom sequence
        def bent(n):
            return pw.PwFunction(f"bent:{n}", lambda x: x ** (1.0 + 1.0 / n)
                                 * (1.0 - x), 0.0, 0.0, True)
        custom = [bent(2.0 ** k) for k in range(0, 31)]
        cseq = rep.eval_sequence(custom, rho)
        limit = rep.pairing(pw.parallel(), rho).value
        assert abs(cseq.values[-1] - limit) < 1e-6
        assert cseq.converged


def test_criterion_09_hand_computed_hard_case():
    with _Failure(9, "hand-computed singular pair"):
        dec = pw.lebesgue_decompose(ANDO_A, ANDO_B)
        assert np.abs(dec.abs_part).max() <= 1e-10
        assert np.abs(dec.sing_part - ANDO_B).max() <= 1e-10
        assert np.abs(dec.projection
                      - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-10
        assert pw.is_mutually_singular(ANDO_A, ANDO_B).is_singular
        res = pw.parallel_sum_limit(ANDO_A, ANDO_B)
        for it in res.iterates:
            assert np.abs(it).max() <= 1e-10
        for k in (0, 1, 5, 10):
            assert np.abs(pw.parallel_sum(2.0 ** k * ANDO_A, ANDO_B)).max() <= 1e-10


def test_criterion_10_cli_contract():
    with _Failure(10, "CLI golden files, determinism, exit codes"):
        for name, argv in GOLDEN_CASES.items():
            proc = run_cli(argv)
            expected = 4 if name == "eval_entropy_extended" else 0
            assert proc.returncode == expected, f"{name}: {proc.stderr.decode()}"
            assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes(), \
                f"{name}: {proc.stderr.decode()}"
        # byte-identical rerun
        again = run_cli(GOLDEN_CASES["lebesgue"])
        assert again.stdout == (GOLDEN / "lebesgue.json").read_bytes(), \
            again.stderr.decode()
        # exit-code table
        for argv, expected in [
                (["psum", "--a", "a3.json", "--b", "b3.json"], 0),
                (["psum", "--a", "bad_syntax.json", "--b", "b3.json"], 2),
                (["psum", "--a", "bad_nonpsd.json", "--b", "b3.json"], 3),
                (["eval", "--phi", "entropy", "--a", "a1.json",
                  "--b", "b1.json"], 4)]:
            proc = run_cli(argv)
            assert proc.returncode == expected, proc.stderr.decode()
