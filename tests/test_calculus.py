"""Tests for the pair representation, congruence map, evaluation and pairings."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from pwcalc import (DominationError, ExtendedValueError, InputError,
                    NumericError, PwFunction, SpectralDecomposition, abs_part,
                    arithmetic, build_rep, eig_hermitian, entropy,
                    eval_sequence, geometric, left, parallel, parallel_sum,
                    polar_isometry, power, psd_sqrt, pw_eval, pw_pairing,
                    right, rn_cutoff, scaled_parallel, validate_psd)
from pwcalc import calculus, linalg

from conftest import (dominated_matrix, geometric_mean_oracle, np_sqrtm,
                      rand_complex, rand_pair, rand_psd, rand_state,
                      rand_unitary, eigmin, spec_norm)


def random_rank_pair(rng, max_n=10):
    n = int(rng.integers(1, max_n + 1))
    rank_a = int(rng.integers(0, n + 1))
    rank_b = int(rng.integers(0, n + 1))
    return rand_pair(rng, n, rank_a, rank_b)


class TestBuildRep:
    def test_equal_identity_pair(self):
        rep = build_rep(np.eye(2), np.eye(2))
        assert rep.rank == 2
        np.testing.assert_allclose(rep.gram_a, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(rep.gram_b, np.eye(2) / 2, atol=1e-12)

    def test_orthogonal_supports(self):
        rep = build_rep(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert rep.rank == 2
        np.testing.assert_allclose(np.sort(np.diag(rep.gram_a).real), [0, 1],
                                   atol=1e-12)
        np.testing.assert_allclose(rep.gram_a + rep.gram_b, np.eye(2),
                                   atol=1e-12)

    def test_gram_b_is_read_off_gram_a(self, rng):
        # not stored: each read gives hermitize(I - gram_a), the bits that
        # build_rep stored as a field before
        assert "gram_b" not in {f.name for f in dataclasses.fields(calculus.PwRep)}
        for _ in range(30):
            rep = build_rep(*random_rank_pair(rng))
            want = linalg.hermitize(np.eye(rep.rank, dtype=np.complex128) - rep.gram_a)
            assert rep.gram_b.dtype == want.dtype
            assert rep.gram_b.shape == (rep.rank, rep.rank)
            assert rep.gram_b.tobytes() == want.tobytes()

    def test_contraction_identity_200_random(self, rng):
        # Gram identity of the two contractions, rank-deficient pairs included
        worst = 0.0
        for _ in range(200):
            a, b = random_rank_pair(rng)
            rep = build_rep(a, b)
            eye = np.eye(rep.rank)
            gap = spec_norm(rep.contr_a.conj().T @ rep.contr_a
                            + rep.contr_b.conj().T @ rep.contr_b - eye)
            worst = max(worst, gap)
        assert worst < 1e-9

    def test_contractions_are_contractions(self, rng):
        a = np.diag([1.0, 0.0])
        b = np.ones((2, 2))
        rep = build_rep(a, b)
        assert spec_norm(rep.contr_a) <= 1 + 1e-9
        assert spec_norm(rep.contr_b) <= 1 + 1e-9
        assert spec_norm(rep.gram_a + rep.gram_b - np.eye(rep.rank)) < 1e-9

    def test_roots_reproduced(self, rng):
        for _ in range(30):
            a, b = random_rank_pair(rng, max_n=7)
            rep = build_rep(a, b)
            assert np.abs(rep.contr_a @ rep.coord_map - rep.a_half).max() < 1e-8
            assert np.abs(rep.contr_b @ rep.coord_map - rep.b_half).max() < 1e-8

    def test_roots_reuse_validation(self, rng):
        # a_half and b_half come from the decompositions validation made;
        # with nothing clamped they are psd_sqrt of the same bits
        unclamped = 0
        for _ in range(30):
            a, b = random_rank_pair(rng, max_n=7)
            rep = build_rep(a, b)
            assert rep.a_eigs.tobytes() == eig_hermitian(a).eigenvalues.tobytes()
            for m, valid, root in ((a, rep.a, rep.a_half), (b, rep.b, rep.b_half)):
                if validate_psd(m)[1] >= 0.0:
                    assert root.tobytes() == psd_sqrt(valid).tobytes()
                    unclamped += 1
        assert unclamped >= 10

    def test_split_is_read_only(self, rng):
        # every query shares the split build_rep computed
        a, b = random_rank_pair(rng, max_n=6)
        split = build_rep(a, b).split
        for mask in (split.zero, split.one, split.retained):
            assert not mask.flags.writeable

    def test_spectrum_in_unit_interval(self, rng):
        for _ in range(30):
            a, b = random_rank_pair(rng, max_n=7)
            rep = build_rep(a, b)
            x = rep.gram_a_spec.eigenvalues
            if x.size:
                assert x.min() > -1e-9 and x.max() < 1 + 1e-9

    def test_ill_conditioned_pairs_are_accepted(self):
        # gram_a's rounding noise, about eps * cond(a + b), exceeds 1e-9 here
        t = np.pi / 7
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        a = r @ np.diag([1.0, 1e-9]) @ r.T
        assert np.abs(parallel_sum(a, np.zeros((2, 2)))).max() == 0.0
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        a = q @ np.diag([1.0, 1e-3, 1e-6, 1e-9]) @ q.T
        assert np.abs(parallel_sum(a, np.zeros((4, 4)))).max() <= 1e-15

    def test_spectrum_excess_is_reported(self, monkeypatch):
        # the validating call solves the sum of this unclamped pair, so
        # build_rep's one eig_hermitian solve is gram_a's, [0.5, 0.5]
        def shifted(m, tol):
            dec = eig_hermitian(m, tol)
            return SpectralDecomposition(dec.eigenvalues + 0.51, dec.basis)

        monkeypatch.setattr(calculus, "eig_hermitian", shifted)
        with pytest.raises(NumericError, match=r"outside \[0, 1\] by 1\.000e-02"):
            build_rep(np.eye(2), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            build_rep(np.eye(2), np.eye(3))

    def test_overflowing_sum_is_a_numeric_error(self):
        # both members are finite; only a + b leaves the float64 range
        with pytest.raises(NumericError, match=r"a \+ b overflows"):
            parallel_sum([[1e308]], [[1e308]])
        assert np.isfinite(parallel_sum([[1e308]], [[7e307]])).all()

    def test_zero_pair(self):
        rep = build_rep(np.zeros((3, 3)), np.zeros((3, 3)))
        assert rep.rank == 0
        assert rep.eval(parallel()).shape == (3, 3)
        assert np.abs(rep.eval(parallel())).max() == 0.0


class TestCongruence:
    def test_identity_maps_to_sum(self, rng):
        a, b = rand_pair(rng, 5, 3, 5)
        rep = build_rep(a, b)
        np.testing.assert_allclose(rep.from_support(np.eye(rep.rank)), a + b,
                                   atol=1e-12)

    def test_gram_a_maps_to_a(self, rng):
        a, b = rand_pair(rng, 5, 5, 2)
        rep = build_rep(a, b)
        np.testing.assert_allclose(rep.from_support(rep.gram_a), a, atol=1e-11)
        np.testing.assert_allclose(rep.from_support(rep.gram_b), b, atol=1e-11)

    def test_round_trips(self, rng):
        for _ in range(40):
            a, b = random_rank_pair(rng, max_n=8)
            rep = build_rep(a, b)
            total = a + b
            for c in (a, b, total, dominated_matrix(rng, total)):
                ct = rep.to_support(c)
                back = rep.from_support(ct)
                scale = max(spec_norm(c), 1e-300)
                assert spec_norm(back - c) <= 1e-8 * scale

    def test_matches_the_square_root_formula(self, rng):
        # to_support is the congruence S* c S with S = basis
        # diag(sum_eigs)^(-1/2); the factored d d*, d = S* c^(1/2), that it
        # replaced agrees within rounding, also where c does not certify
        certified = 0
        for _ in range(40):
            a, b = random_rank_pair(rng, max_n=8)
            rep = build_rep(a, b)
            c = dominated_matrix(rng, a + b)
            ct = rep.to_support(c)
            d = (rep.basis / np.sqrt(rep.sum_eigs)[None, :]).conj().T @ psd_sqrt(c)
            assert np.linalg.norm(ct - d @ d.conj().T) <= 1e-13 * np.linalg.norm(ct)
            solved = linalg._jacobi_eig(linalg.hermitian_part(c), certify=(0,))
            certified += solved is linalg.CERTIFIED
        assert 0 < certified < 40

    def test_inverse_on_named_images(self, rng):
        a, b = rand_pair(rng, 6, 4, 6)
        rep = build_rep(a, b)
        np.testing.assert_allclose(rep.to_support(a), rep.gram_a, atol=1e-9)
        np.testing.assert_allclose(rep.to_support(a + b), np.eye(rep.rank),
                                   atol=1e-9)
        np.testing.assert_allclose(rep.to_support(b / 2), rep.gram_b / 2,
                                   atol=1e-9)

    def test_order_preserving_both_ways(self, rng):
        for _ in range(20):
            a, b = rand_pair(rng, 5, 4, 5)
            rep = build_rep(a, b)
            total = a + b
            small = dominated_matrix(rng, total, norm_cap=0.5)
            extra = dominated_matrix(rng, total, norm_cap=0.5)
            big = small + extra
            ct_small = rep.to_support(small)
            ct_big = rep.to_support(big)
            assert eigmin(ct_big - ct_small) >= -1e-8
            m_small = rep.from_support(ct_small)
            m_big = rep.from_support(ct_big)
            assert eigmin(m_big - m_small) >= -1e-8

    def test_domination_error(self, rng):
        a = np.diag([1.0, 0.0])
        b = np.diag([2.0, 0.0])
        rep = build_rep(a, b)
        with pytest.raises(DominationError):
            rep.to_support(np.eye(2))

    def test_shape_guards(self, rng):
        rep = build_rep(np.eye(2), np.eye(2))
        with pytest.raises(InputError):
            rep.from_support(np.eye(3))
        with pytest.raises(InputError):
            rep.to_support(np.eye(3))


class TestEval:
    def test_arithmetic_gives_sum(self, rng):
        a, b = rand_pair(rng, 5, 3, 4)
        np.testing.assert_allclose(pw_eval(a, b, arithmetic()), a + b,
                                   atol=1e-12)

    def test_left_right_recover_slots(self, rng):
        a, b = rand_pair(rng, 5, 5, 3)
        np.testing.assert_allclose(pw_eval(a, b, left()), a, atol=1e-11)
        np.testing.assert_allclose(pw_eval(a, b, right()), b, atol=1e-11)

    def test_geometric_mean_closed_form(self, rng):
        for alpha in (0.5, 0.25):
            a = rand_psd(rng, 4) + 0.2 * np.eye(4)
            b = rand_psd(rng, 4) + 0.2 * np.eye(4)
            ref = geometric_mean_oracle(a, b, alpha)
            got = pw_eval(a, b, geometric(alpha))
            assert spec_norm(got - ref) < 1e-9

    def test_extended_value_raises(self):
        with pytest.raises(ExtendedValueError):
            pw_eval([[1.0]], [[0.0]], entropy())

    def test_same_bits_as_validated_push(self, rng):
        # eval pushes through eig_map = W* T in one product and skips
        # from_support's checks; it may differ from the validated push
        # T* (W diag(v) W*) T only by the rounding of the association
        for k in range(20):
            a, b = random_rank_pair(rng)
            if k % 2:
                a, b = a.real, b.real
            rep = build_rep(a, b)
            x, split = rep.gram_a_spec.eigenvalues, rep.split
            scale = np.linalg.norm(rep.a + rep.b)
            for fn in (abs_part(), parallel(), geometric(0.3), left(), right(),
                       arithmetic(), scaled_parallel(8.0)):
                vals = fn.values(x, split.zero, split.one)
                ref = rep.from_support(rep.gram_a_spec.apply(vals))
                assert np.linalg.norm(rep.eval(fn) - ref) <= 1e-14 * scale

    def test_psd_when_profile_nonnegative(self, rng):
        a, b = rand_pair(rng, 6, 4, 5)
        out = pw_eval(a, b, parallel())
        assert eigmin(out) >= -1e-10

    def test_operator_homogeneity(self, rng):
        # congruence by an invertible matrix commutes with the calculus
        for fn in (parallel(), geometric(0.5), abs_part()):
            for _ in range(10):
                n = 5
                a, b = rand_pair(rng, n, 4, n)
                w = rand_complex(rng, n, n) + 2.0 * np.eye(n)
                lhs = pw_eval(w.conj().T @ a @ w, w.conj().T @ b @ w, fn)
                rhs = w.conj().T @ pw_eval(a, b, fn) @ w
                scale = max(spec_norm(rhs), 1e-300)
                assert spec_norm(lhs - rhs) <= 1e-7 * scale

    def test_scaling_homogeneity(self, rng):
        a, b = rand_pair(rng, 5, 3, 5)
        base = pw_eval(a, b, parallel())
        for t in (0.5, 2.0, 10.0):
            out = pw_eval(t * a, t * b, parallel())
            assert spec_norm(out - t * base) < 1e-9 * max(t, 1.0) * spec_norm(
                base) + 1e-12


def poly_profile(coeffs):
    """Bounded polynomial profile with matching endpoint values."""
    def f(x):
        return float(np.polyval(coeffs, x))
    return PwFunction("poly", f, f(0.0), f(1.0), vanishes_at_zero=f(0.0) == 0.0)


def matrix_poly(coeffs, m):
    out = np.zeros_like(m)
    for c in coeffs:
        out = out @ m + c * np.eye(m.shape[0])
    return out


class TestStructuralLemmas:
    def test_outer_gram_transfer(self, rng):
        # polynomial f: f(outer gram of Y) = f(0)(I - V V*) + V f(gram_b) V*
        coeffs = [0.3, -1.0, 0.5, 2.0, -0.25, 0.0, 1.5]
        for _ in range(20):
            a, b = random_rank_pair(rng, max_n=7)
            rep = build_rep(a, b)
            yy = rep.contr_b @ rep.contr_b.conj().T
            lhs = matrix_poly(coeffs, yy)
            f0 = float(np.polyval(coeffs, 0.0))
            inner = matrix_poly(coeffs, rep.gram_b)
            iso_b = polar_isometry(rep.contr_b, rep.tol)
            vv = iso_b @ iso_b.conj().T
            rhs = f0 * (np.eye(rep.n) - vv) + iso_b @ inner @ iso_b.conj().T
            assert np.abs(lhs - rhs).max() < 1e-8

            # mirrored version with the first contraction
            xx = rep.contr_a @ rep.contr_a.conj().T
            lhs_a = matrix_poly(coeffs, xx)
            inner_a = matrix_poly(coeffs, rep.gram_a)
            iso_a = polar_isometry(rep.contr_a, rep.tol)
            uu = iso_a @ iso_a.conj().T
            rhs_a = f0 * (np.eye(rep.n) - uu) + iso_a @ inner_a @ iso_a.conj().T
            assert np.abs(lhs_a - rhs_a).max() < 1e-8

    def test_second_slot_weighted_profile(self, rng):
        # g(x) = (1-x) p(1-x) evaluates to b_half V p(gram_b) V* b_half
        coeffs = [0.2, -0.7, 1.0, 0.5]
        for _ in range(20):
            a, b = random_rank_pair(rng, max_n=7)
            rep = build_rep(a, b)

            def g(x):
                return (1.0 - x) * float(np.polyval(coeffs, 1.0 - x))

            fn = PwFunction("weighted-poly", g, g(0.0), 0.0,
                            vanishes_at_zero=False)
            lhs = rep.eval(fn)
            inner = matrix_poly(coeffs, rep.gram_b)
            iso_b = polar_isometry(rep.contr_b, rep.tol)
            rhs = rep.b_half @ iso_b @ inner @ iso_b.conj().T @ rep.b_half
            assert np.abs(lhs - rhs).max() < 1e-8


class TestOuterBasis:
    """``PwRep._outer_basis``: a contraction carries eigenvectors of
    ``gram_a`` onto eigenvectors of its outer Gram."""

    def test_transfers_eigenvectors(self, rng):
        eps = np.finfo(float).eps
        unweighted = 0
        for k in range(60):
            a, b = random_rank_pair(rng, max_n=8)
            if k % 2:
                a, b = a.real, b.real
            rep = build_rep(a, b)
            x = rep.gram_a_spec.eigenvalues
            # |C w|^2 matches x up to the rounding of the roots against
            # a + b, about n * eps * cond(a + b) on the support
            noise = 8.0 * rep.n * eps * (
                rep.sum_eigs[-1] / rep.sum_eigs[0] if rep.rank else 1.0)
            for contr, cols, want in ((rep.contr_a, ~rep.split.zero, x),
                                      (rep.contr_b, ~rep.split.one, 1.0 - x)):
                u, sq = rep._outer_basis(contr, cols)
                # normalizing column i by |C w_i| = sqrt(sq_i) scales its
                # rounding by 1/sqrt(sq_i), so the bounds are 1e-12 at
                # weight 1 and grow as the weights shrink
                outer = contr @ (contr.conj().T @ u)
                assert (np.abs(outer - u * sq[None, :])
                        <= 1e-12 / np.sqrt(sq)[None, :]).all()
                assert (np.abs(u.conj().T @ u - np.eye(sq.size))
                        <= 1e-12 / np.sqrt(np.outer(sq, sq))).all()
                assert np.abs(sq - want[cols]).max(initial=0.0) <= noise
            unweighted += int(rep.split.zero.sum() + rep.split.one.sum())
        assert unweighted > 0  # the masks leave columns out

    def test_column_without_weight_raises(self):
        rep = build_rep(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(NumericError, match="no weight"):
            rep._outer_basis(rep.contr_a)


class TestPairing:
    def test_entropy_equal_pair_is_zero(self):
        assert pw_pairing(np.eye(3), np.eye(3), entropy(), np.eye(3)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_entropy_against_kernel_is_inf(self):
        assert math.isinf(pw_pairing([[1.0]], [[0.0]], entropy(), [[1.0]]))

    def test_finite_consistency_with_eval(self, rng):
        for _ in range(30):
            a, b = random_rank_pair(rng, max_n=8)
            rho = rand_state(rng, a.shape[0])
            val = pw_pairing(a, b, parallel(), rho)
            ref = float(np.trace(rho @ pw_eval(a, b, parallel())).real)
            assert val == pytest.approx(ref, abs=1e-9, rel=1e-9)

    def test_breakdown_fields(self, rng):
        rep = build_rep(np.diag([1.0, 1.0]), np.diag([0.0, 1.0]))
        res = rep.pairing(entropy(), np.eye(2))
        assert math.isinf(res.value)
        assert res.infinite_weight == pytest.approx(1.0, abs=1e-9)
        assert math.isfinite(res.finite_part)

    def test_tiny_weight_contributes_nothing(self):
        # state supported away from the infinite direction
        rho = np.diag([0.0, 1.0])
        val = pw_pairing(np.diag([1.0, 1.0]), np.diag([0.0, 1.0]), entropy(), rho)
        assert math.isfinite(val)

    def test_dimension_guard(self):
        rep = build_rep(np.eye(2), np.eye(2))
        with pytest.raises(InputError):
            rep.pairing(entropy(), np.eye(3))

    def test_huge_pair_and_moderate_state(self):
        # the weights of 1e10 I overflow to inf for a pair of norm 1e300; a
        # zero profile value takes none of them, a value of 1 all
        a, b = 1e300 * np.diag([1.0, 0.0]), 1e300 * np.diag([0.0, 1.0])
        rho = 1e10 * np.eye(2)
        rep = build_rep(a, b)
        for fn, want in ((parallel(), 0.0), (left(), math.inf)):
            assert pw_pairing(a, b, fn, rho) == want
            assert rep.pairing(fn, rho).value == want

    def test_small_weight_beside_an_overflowing_one_keeps_its_bits(self):
        # the first weight, 1e315, leaves the float64 range; the second,
        # 1e-11, reads as if the state had no first entry
        a, b = 1e10 * np.diag([1.0, 0.0]), 1e10 * np.diag([0.0, 1.0])
        rep = build_rep(a, b)
        want = pw_pairing(a, b, right(), np.diag([0.0, 1e-21]))
        assert want == pytest.approx(1e-11, rel=1e-15)
        rho = np.diag([1e305, 1e-21])
        assert pw_pairing(a, b, right(), rho) == want
        assert rep.pairing(right(), rho).value == want
        assert list(rep.pairing_weights(rho)) == [want, math.inf]

    def test_small_weight_beside_a_huge_finite_one_keeps_its_bits(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert pw_pairing(a, b, right(), np.diag([1e308, 1e-10])) == 1e-10
        assert pw_pairing(a, b, right(), np.diag([0.0, 1e-10])) == 1e-10

    def test_overflowing_terms_of_a_finite_pairing(self):
        # finite weights near the float64 maximum: the entropy term of the
        # first is 2e308, the two others -4.4e307 each, and the sum is finite
        b2 = 1.2e308
        a = np.diag([1e308, b2 / math.e, b2 / math.e])
        b = np.diag([1e308 * math.exp(-2.0), b2, b2])
        want = 1e308 * (2.0 - 2.0 * 1.2 / math.e)
        for got in (pw_pairing(a, b, entropy(), np.eye(3)),
                    build_rep(a, b).pairing(entropy(), np.eye(3)).value):
            assert got == pytest.approx(want, rel=1e-12)

    def test_huge_seeded_pairs_read_inf_not_nan(self, rng):
        # at a joint scale of 1e300 with the state 1e10 I the exact pairing
        # is 1e310 times the unit one: finite below the float64 maximum,
        # +-inf with the sign of the unit pairing beyond it, 0 where it is 0
        beyond = sys.float_info.max * 1e-300 * 1e-10
        seen = {"zero": 0, "finite": 0, "inf": 0}
        for trial in range(20):
            a, b = random_rank_pair(rng, max_n=5)
            if trial % 2:
                a, b = a.real, b.real
            n = a.shape[0]
            rep = build_rep(1e300 * a, 1e300 * b)
            for fn in (parallel(), left(), power(2.0), entropy()):
                unit = pw_pairing(a, b, fn, np.eye(n))
                for got in (pw_pairing(1e300 * a, 1e300 * b, fn, 1e10 * np.eye(n)),
                            rep.pairing(fn, 1e10 * np.eye(n)).value):
                    if math.isinf(got):
                        assert got == math.copysign(math.inf, unit), fn.name
                        assert abs(unit) > beyond * (1.0 - 1e-12), fn.name
                        seen["inf"] += 1
                    else:
                        assert got * 1e-300 * 1e-10 == pytest.approx(
                            unit, rel=1e-12, abs=0.0), fn.name
                        seen["zero" if unit == 0.0 else "finite"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("j", [1000, 1015, 1020])
    def test_reused_rep_is_linear_in_the_state_up_to_the_float64_edge(self, j):
        # the weights of 2**j rho are those of rho times 2**j, so every
        # value is too, bit for bit: +-inf with the unit value's sign where
        # the product leaves the float64 range, and no weight reads NaN. At
        # norm 16 some weights of 2**1020 rho leave it while the value
        # stays finite
        rng = np.random.default_rng(5)
        t = 2.0 ** j
        seen = {"finite": 0, "inf": 0}
        for _ in range(40):
            n = int(rng.integers(2, 9))
            a, b = rand_pair(rng, n, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, n + 1)), scale=16.0)
            rep = build_rep(a, b)
            rho = rand_psd(rng, n)
            rho /= np.abs(rho).max()
            assert not np.isnan(rep.pairing_weights(t * rho)).any()
            for fn in (entropy(), power(2.0), parallel(), left()):
                unit = rep.pairing(fn, rho).value
                assert rep.pairing(fn, t * rho).value == t * unit, fn.name
                seen["inf" if math.isinf(t * unit) else "finite"] += 1
        assert seen["finite"] > 0


class TestEvalSequence:
    def test_scaled_parallel_scalar_formula(self):
        fns = [scaled_parallel(n) for n in range(1, 21)]
        seq = eval_sequence(np.eye(3), np.eye(3), fns, np.eye(3))
        for n, value in zip(range(1, 21), seq.values):
            assert value == pytest.approx(3.0 * n / (n + 1.0), rel=1e-12)

    def test_constant_sequence_converges(self, rng):
        a, b = rand_pair(rng, 4, 4, 4)
        rho = rand_state(rng, 4)
        seq = eval_sequence(a, b, [parallel()] * 3, rho)
        assert seq.converged
        assert seq.gaps == [0.0, 0.0]

    def test_one_profile_has_no_gap_and_does_not_converge(self, rng):
        # convergence needs at least one gap, so a lone value reads False,
        # on a reused rep and one-shot alike
        a, b = rand_pair(rng, 4, 4, 4)
        rho = rand_state(rng, 4)
        for seq in (eval_sequence(a, b, [parallel()], rho),
                    build_rep(a, b).eval_sequence([parallel()], rho)):
            assert len(seq.values) == 1 and math.isfinite(seq.values[0])
            assert seq.gaps == []
            assert not seq.converged

    def test_rn_cutoff_monotone(self, rng):
        a = rand_psd(rng, 5) + 0.3 * np.eye(5)
        b = rand_psd(rng, 5)
        rho = rand_state(rng, 5)
        fns = [rn_cutoff(n) for n in (1, 2, 4, 8, 16, 32)]
        seq = eval_sequence(a, b, fns, rho)
        diffs = np.diff(seq.values)
        assert (diffs >= -1e-10).all()

    def test_empty_sequence_rejected(self, rng):
        with pytest.raises(InputError):
            eval_sequence(np.eye(2), np.eye(2), [], np.eye(2))

    def test_inf_gaps(self):
        # +inf to +inf counts as gap zero, finite to +inf as +inf
        a, b, rho = [[1.0]], [[0.0]], [[1.0]]
        seq = eval_sequence(a, b, [entropy(), entropy(), entropy(), entropy()],
                            rho)
        assert seq.converged
        seq2 = eval_sequence(a, b, [parallel(), entropy()], rho)
        assert math.isinf(seq2.gaps[0])
        assert not seq2.converged

    def test_gaps_between_infinities_of_both_signs(self):
        # on 1.25e307 I and 3.75e307 I (n = 20) the entropy trace is about
        # -2.75e308 and the left one 2.5e308: -inf and +inf are no gap zero
        a, b = 1.25e307 * np.eye(20), 3.75e307 * np.eye(20)
        seq = eval_sequence(a, b, [entropy(), entropy(), left(), left()], np.eye(20))
        assert seq.values == [-math.inf, -math.inf, math.inf, math.inf]
        assert seq.gaps == [0.0, math.inf, 0.0]
        assert not seq.converged
