"""Tests for the decomposition, projections, predicates and parallel sums."""

import dataclasses
import math

import numpy as np
import pytest

from pwcalc import lebesgue
from pwcalc import (InputError, NumericError, abs_cont_part, abs_continuity_projection, build_rep,
                    is_abs_continuous, is_mutually_singular,
                    lebesgue_decompose, kron, parallel_sum,
                    parallel_sum_expressions, parallel_sum_limit,
                    polar_isometry, rn_factor, solvable_subspace_projection,
                    ToleranceConfig)

from conftest import (SEED, anderson_duffin, dominated_matrix, eigmin,
                      np_sqrtm, rand_pair, rand_psd, rand_unitary, spec_norm,
                      structured_pair)

ANDO_A = np.diag([1.0, 0.0])
ANDO_B = np.array([[1.0, 1.0], [1.0, 1.0]])


def diagonal_pair(rng, n):
    """Random diagonal pair with exact zeros and well-separated positives."""
    mask_a = rng.random(n) < 0.4
    mask_b = rng.random(n) < 0.4
    a = np.where(mask_a, 0.0, rng.uniform(0.1, 2.0, n))
    b = np.where(mask_b, 0.0, rng.uniform(0.1, 2.0, n))
    return np.diag(a), np.diag(b)


class TestAbsContPart:
    def test_commuting_diagonal(self):
        out = abs_cont_part(np.diag([1.0, 1.0, 0.0]), np.diag([5.0, 0.0, 3.0]))
        np.testing.assert_allclose(out, np.diag([5.0, 0.0, 0.0]), atol=1e-12)

    def test_degenerate_bases(self, rng):
        b = rand_psd(rng, 4)
        assert np.abs(abs_cont_part(np.zeros((4, 4)), b)).max() == 0.0
        a = rand_psd(rng, 4) + 0.3 * np.eye(4)
        np.testing.assert_allclose(abs_cont_part(a, b), b, atol=1e-10)
        assert np.abs(abs_cont_part(a, np.zeros((4, 4)))).max() < 1e-12

    def test_ando_pair_vanishes(self):
        out = abs_cont_part(ANDO_A, ANDO_B)
        assert np.abs(out).max() < 1e-10
        # limit oracle: n a : b stays zero for every n
        for n in (1.0, 4.0, 1024.0):
            ad = anderson_duffin(n * ANDO_A, ANDO_B)
            assert np.abs(ad).max() < 1e-12

    def test_idempotent(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)), n)
            bc = abs_cont_part(a, b)
            again = abs_cont_part(a, bc)
            assert spec_norm(again - bc) < 1e-8

    def test_gamma_monotone_surrogate(self, rng):
        # any image of a support-side piece below the continuous split part
        # stays below the continuous part
        for _ in range(10):
            n = 5
            a, b = rand_pair(rng, n, 3, n)
            rep = build_rep(a, b)
            dec = lebesgue_decompose(a, b)
            x = rep.gram_a_spec.eigenvalues
            keep = x > rep.tol.zero_tol
            vals = np.where(keep, 1.0 - x, 0.0)
            sc = rep.gram_a_spec.apply(vals)
            shrink = rng.uniform(0.0, 1.0)
            c = rep.from_support(shrink * sc)
            assert eigmin(dec.abs_part - c) >= -1e-8


class TestLebesgueDecompose:
    def test_definite_base(self, rng):
        b = rand_psd(rng, 4)
        dec = lebesgue_decompose(np.eye(4), b)
        np.testing.assert_allclose(dec.abs_part, b, atol=1e-10)
        assert np.abs(dec.sing_part).max() < 1e-10
        np.testing.assert_allclose(dec.projection, np.eye(4), atol=1e-9)

    def test_ando_pair(self):
        dec = lebesgue_decompose(ANDO_A, ANDO_B)
        assert np.abs(dec.abs_part).max() < 1e-10
        np.testing.assert_allclose(dec.sing_part, ANDO_B, atol=1e-10)
        np.testing.assert_allclose(dec.projection,
                                   np.array([[0.5, -0.5], [-0.5, 0.5]]),
                                   atol=1e-10)

    def test_commuting_three_blocks(self):
        dec = lebesgue_decompose(np.diag([1.0, 1.0, 0.0]),
                                 np.diag([5.0, 0.0, 3.0]))
        np.testing.assert_allclose(dec.abs_part, np.diag([5.0, 0.0, 0.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(dec.sing_part, np.diag([0.0, 0.0, 3.0]),
                                   atol=1e-12)

    def test_discrete_measure_oracle_200(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 11))
            a, b = diagonal_pair(rng, n)
            dec = lebesgue_decompose(a, b)
            da = np.diag(a).real
            db = np.diag(b).real
            bc_ref = np.diag(np.where(da > 0, db, 0.0))
            bs_ref = np.diag(np.where(da > 0, 0.0, db))
            assert np.abs(dec.abs_part - bc_ref).max() <= 1e-12
            assert np.abs(dec.sing_part - bs_ref).max() <= 1e-12

    def test_parts_are_ordered_and_sum(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, n + 1)))
            dec = lebesgue_decompose(a, b)
            scale = max(spec_norm(b), 1e-300)
            assert spec_norm(b - dec.abs_part - dec.sing_part) <= 1e-9 * scale
            assert eigmin(dec.abs_part) >= -1e-9 * scale
            assert eigmin(dec.sing_part) >= -1e-9 * scale
            assert eigmin(b - dec.abs_part) >= -1e-9 * scale
            assert eigmin(b - dec.sing_part) >= -1e-9 * scale
            proj = dec.projection
            assert spec_norm(proj @ proj - proj) < 1e-9
            # singular part is mutually singular with the base
            check = is_mutually_singular(a, dec.sing_part)
            assert check.distance < 1e-7

    def test_zero_eig_count_matches_kernel(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            rank_a = int(rng.integers(1, n))
            a, b = structured_pair(rng, n, rank_a)
            dec = lebesgue_decompose(a, b)
            assert dec.num_zero_eigs == n - rank_a

    def test_projection_identity(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)), n)
            dec = lebesgue_decompose(a, b)
            bh = np_sqrtm(b)
            assert spec_norm(bh @ dec.projection @ bh - dec.abs_part) < 1e-8


class TestProjections:
    def test_identity_base(self):
        np.testing.assert_allclose(abs_continuity_projection(np.eye(3),
                                                             np.diag([1.0, 0, 2])),
                                   np.eye(3), atol=1e-9)

    def test_ando_projection_by_hand(self):
        ref = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(abs_continuity_projection(ANDO_A, ANDO_B),
                                   ref, atol=1e-10)
        np.testing.assert_allclose(solvable_subspace_projection(ANDO_A, ANDO_B),
                                   ref, atol=1e-10)

    def test_solvable_subspace_degenerate(self, rng):
        a = rand_psd(rng, 4) + 0.2 * np.eye(4)
        b = rand_psd(rng, 4)
        np.testing.assert_allclose(solvable_subspace_projection(a, b),
                                   np.eye(4), atol=1e-9)
        np.testing.assert_allclose(
            solvable_subspace_projection(rand_psd(rng, 4), np.zeros((4, 4))),
            np.eye(4), atol=1e-9)

    def test_solvable_subspace_size_mismatch_and_empty(self):
        with pytest.raises(InputError, match="differ in size"):
            solvable_subspace_projection(np.eye(2), np.eye(3))
        empty = solvable_subspace_projection(np.zeros((0, 0)), np.zeros((0, 0)))
        assert empty.shape == (0, 0) and empty.dtype == np.complex128

    def test_two_routes_agree(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a, b = structured_pair(rng, n, int(rng.integers(1, n + 1)))
            p1 = abs_continuity_projection(a, b)
            p2 = solvable_subspace_projection(a, b)
            assert spec_norm(p1 - p2) < 1e-7

    def test_killed_direction_without_weight(self):
        # y0 = 0 on a zero direction is an inconsistent representation
        rep = build_rep(ANDO_A, ANDO_B)
        broken = dataclasses.replace(rep, contr_b=np.zeros_like(rep.contr_b))
        with pytest.raises(NumericError):
            broken._outer_basis(broken.contr_b, broken.split.zero)

    def test_isometry_identity(self, rng):
        # two expressions of the projection from the polar parts agree
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)), n)
            rep = build_rep(a, b)
            eye = np.eye(n)
            iso_a = polar_isometry(rep.contr_a, rep.tol)
            iso_b = polar_isometry(rep.contr_b, rep.tol)
            uu = iso_a.conj().T @ iso_a
            lhs = eye - iso_b @ iso_b.conj().T + iso_b @ uu @ iso_b.conj().T
            yy = rep.contr_b @ rep.contr_b.conj().T
            rhs = eye - yy + rep.contr_b @ uu @ rep.contr_b.conj().T
            assert np.abs(lhs - rhs).max() < 1e-8
            # and both reproduce the spectral projection
            assert spec_norm(lhs - abs_continuity_projection(a, b)) < 1e-7


class TestPredicates:
    def test_singular_pairs(self):
        assert is_mutually_singular(np.diag([1.0, 0.0]),
                                    np.diag([0.0, 1.0])).is_singular
        res = is_mutually_singular(np.eye(2), np.eye(2))
        assert not res.is_singular
        assert res.witness == pytest.approx(0.5, abs=1e-12)
        assert is_mutually_singular(ANDO_A, ANDO_B).is_singular
        assert is_mutually_singular(np.zeros((2, 2)), np.zeros((2, 2))).is_singular

    def test_abs_continuous(self, rng):
        a = rand_psd(rng, 4) + 0.1 * np.eye(4)
        assert is_abs_continuous(a, a / 2)
        assert not is_abs_continuous(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not is_abs_continuous(ANDO_A, ANDO_B)
        # cross-check against the decomposition itself
        b = rand_psd(rng, 4)
        assert is_abs_continuous(a, b) == (spec_norm(
            b - abs_cont_part(a, b)) < 1e-7)


class TestOneSplit:
    """Every 0/1 decision reads the pair's one spectral split, so the
    operations agree with each other under any tolerances."""

    @pytest.mark.parametrize("zero_tol,one_tol",
                             [(1e-8, 1e-8), (0.5, 1e-8), (1e-8, 0.5), (0.2, 0.3)])
    def test_consistent_answers(self, zero_tol, one_tol):
        tol = ToleranceConfig(zero_tol=zero_tol, one_tol=one_tol)
        rng = np.random.default_rng(SEED + 7)
        for k in range(24):
            n = int(rng.integers(2, 9))
            rank_a = n if k % 3 == 0 else int(rng.integers(0, n + 1))
            a, b = rand_pair(rng, n, rank_a, int(rng.integers(0, n + 1)))
            dec = lebesgue_decompose(a, b, tol)
            b_half = np_sqrtm(b)
            # b^(1/2) P b^(1/2) is abs_part plus the directions the split
            # rounds to 1, where abs_part is 0 and b weighs at most one_tol
            gap = b_half @ dec.projection @ b_half - dec.abs_part
            assert eigmin(gap) >= -1e-9
            assert eigmin(one_tol * (a + b) - gap) >= -1e-9
            assert is_abs_continuous(a, b, tol) == (dec.num_zero_eigs == 0)
            assert (is_mutually_singular(a, b, tol).is_singular
                    == (not dec.abs_part.any()))
            if rank_a == n:
                assert (rn_factor(a, b, tol).infinite_directions
                        == dec.num_zero_eigs)

    def test_fixture_pair_under_wide_tolerances(self):
        a = np.diag([1.0, 1.0, 0.0])
        b = np.diag([5.0, 0.0, 3.0])
        # x = 1/6 on e1 is classified as 0: b is singular to a
        tol = ToleranceConfig(zero_tol=0.5)
        dec = lebesgue_decompose(a, b, tol)
        b_half = np_sqrtm(b)
        assert np.abs(dec.abs_part).max() == 0.0
        assert np.abs(b_half @ dec.projection @ b_half).max() < 1e-12
        assert is_mutually_singular(a, b, tol).is_singular
        # x = 1/6 is retained: b has an absolutely continuous part
        tol = ToleranceConfig(one_tol=0.5)
        np.testing.assert_allclose(lebesgue_decompose(a, b, tol).abs_part,
                                   np.diag([5.0, 0.0, 0.0]), atol=1e-12)
        assert not is_mutually_singular(a, b, tol).is_singular


class TestResidualWarning:
    def test_lost_part_of_b_warns(self):
        # x in [1 - one_tol, 1) is classified as 1: abs_part is 0 there and
        # the singular part covers only the zero directions
        a, b = rand_pair(np.random.default_rng(3), 5, 3, 4)
        dec = lebesgue_decompose(a, b, ToleranceConfig(one_tol=0.5))
        b_norm = float(np.linalg.norm(b))
        assert dec.residual_sum > lebesgue.RESIDUAL_WARN_FACTOR * b_norm
        assert len(dec.warnings) == 1
        assert f"residual_sum={dec.residual_sum:.3e}" in dec.warnings[0]
        assert f"||b||_F={b_norm:.3e}" in dec.warnings[0]
        assert lebesgue_decompose(a, b).warnings == ()


class TestParallelSum:
    def test_scalars_and_disjoint(self):
        np.testing.assert_allclose(parallel_sum(np.eye(2), np.eye(2)),
                                   np.eye(2) / 2, atol=1e-12)
        assert np.abs(parallel_sum(np.diag([1.0, 0.0]),
                                   np.diag([0.0, 1.0]))).max() < 1e-12

    def test_anderson_duffin_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, n + 1)))
            ps = parallel_sum(a, b)
            assert spec_norm(ps - anderson_duffin(a, b)) < 1e-8

    def test_expressions_cross_validate(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)), n)
            exprs = parallel_sum_expressions(a, b)
            ad = anderson_duffin(a, b)
            for key in ("e1", "e2", "e3", "e4"):
                assert spec_norm(exprs[key] - ad) < 1e-8, key
            # congruence forms agree with each other directly
            assert spec_norm(exprs["e1"] - exprs["e2"]) < 1e-8

    def test_expressions_trivial(self):
        exprs = parallel_sum_expressions(np.eye(2), np.eye(2))
        for key in ("e1", "e2", "e3", "e4"):
            np.testing.assert_allclose(exprs[key], np.eye(2) / 2, atol=1e-10)


class TestParallelSumLimit:
    def test_identity_pair_formula(self):
        res = parallel_sum_limit(np.eye(2), np.eye(2))
        assert res.converged
        np.testing.assert_allclose(res.value, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(res.iterates[0], np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(res.iterates[3],
                                   np.eye(2) * 8.0 / 9.0, atol=1e-12)

    def test_ando_pair_stays_zero(self):
        res = parallel_sum_limit(ANDO_A, ANDO_B)
        assert res.converged
        for it in res.iterates:
            assert np.abs(it).max() < 1e-10

    def test_definite_base_recovers_b(self, rng):
        tol = ToleranceConfig()
        for _ in range(10):
            a = rand_psd(rng, 5) + 0.2 * np.eye(5)
            b = rand_psd(rng, 5)
            res = parallel_sum_limit(a, b, tol)
            assert res.converged
            assert spec_norm(res.value - b) < tol.conv_tol * 10

    def test_monotone_and_bounded(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a, b = structured_pair(rng, n, int(rng.integers(1, n)))
            rep = build_rep(a, b)
            x = rep.gram_a_spec.eigenvalues
            retained = x > rep.tol.zero_tol
            xmin = float(x[retained].min()) if retained.any() else 1.0
            bc = abs_cont_part(a, b)
            res = parallel_sum_limit(a, b)
            for k, it in enumerate(res.iterates):
                bound = 1.0 / (2.0 ** k * xmin) + 1e-8
                assert spec_norm(it - bc) <= bound
            for prev, cur in zip(res.iterates, res.iterates[1:]):
                assert eigmin(cur - prev) >= -1e-9

    def test_matches_fresh_scaled_rep(self, rng):
        # profile route equals honestly rescaled pairs
        a, b = rand_pair(rng, 4, 3, 4)
        res = parallel_sum_limit(a, b)
        for k in (0, 1, 3, 5):
            if k < len(res.iterates):
                direct = parallel_sum(2.0 ** k * a, b)
                assert spec_norm(res.iterates[k] - direct) < 1e-9

    def test_unconverged_reports_flag(self, rng):
        a, b = structured_pair(rng, 4, 2)
        tol = ToleranceConfig(conv_tol=1e-30, max_doublings=5)
        res = parallel_sum_limit(a, b, tol)
        assert not res.converged
        assert res.doublings == 5
        assert len(res.gaps) == 5


class TestTensorMultiplicativity:
    def test_kron_factorization(self, rng):
        for _ in range(15):
            a1, b1 = structured_pair(rng, 2, 1)
            a2, b2 = structured_pair(rng, 3, 2)
            lhs = abs_cont_part(kron(a1, a2), kron(b1, b2))
            rhs = kron(abs_cont_part(a1, b1), abs_cont_part(a2, b2))
            assert spec_norm(lhs - rhs) < 1e-7

    def test_kron_with_definite_factors(self, rng):
        a1 = rand_psd(rng, 2) + 0.2 * np.eye(2)
        b1 = rand_psd(rng, 2)
        a2, b2 = structured_pair(rng, 2, 1)
        lhs = abs_cont_part(kron(a1, a2), kron(b1, b2))
        rhs = kron(abs_cont_part(a1, b1), abs_cont_part(a2, b2))
        assert spec_norm(lhs - rhs) < 1e-7
