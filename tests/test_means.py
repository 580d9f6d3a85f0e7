"""Tests for means, power/entropy pairings and tensor identities."""

import math
import warnings

import numpy as np
import pytest

from pwcalc import (InputError, NotPsdError, NumericError, abs_part, entropy,
                    entropy_pairing, kron, parallel, power, power_pairing,
                    tensor_pairing_check, trace_functional,
                    weighted_geometric_mean, arithmetic)

from pwcalc import means

from conftest import (geometric_mean_oracle, rand_pair, rand_psd, rand_state,
                      spec_norm, structured_pair)


def diag_pair(rng, n, strictly_positive=True):
    lo = 0.1 if strictly_positive else 0.0
    a = np.diag(rng.uniform(lo, 2.0, n))
    b = np.diag(rng.uniform(lo, 2.0, n))
    return a, b


class TestGeometricMean:
    def test_equal_inputs(self, rng):
        a = rand_psd(rng, 4)
        np.testing.assert_allclose(weighted_geometric_mean(a, a, 0.3), a,
                                   atol=1e-9)

    def test_closed_form(self, rng):
        for alpha in (0.5, 0.7):
            a = rand_psd(rng, 4) + 0.3 * np.eye(4)
            b = rand_psd(rng, 4) + 0.3 * np.eye(4)
            ref = geometric_mean_oracle(a, b, alpha)
            assert spec_norm(weighted_geometric_mean(a, b, alpha) - ref) < 1e-9

    def test_weight_validation(self, rng):
        a = rand_psd(rng, 2)
        with pytest.raises(InputError):
            weighted_geometric_mean(a, a, 1.5)

    def test_tensor_multiplicative(self, rng):
        for _ in range(20):
            a1, b1 = rand_pair(rng, 2, 2, 2)
            a2, b2 = rand_pair(rng, 2, 2, 2)
            lhs = weighted_geometric_mean(kron(a1, a2), kron(b1, b2), 0.5)
            rhs = kron(weighted_geometric_mean(a1, b1, 0.5),
                       weighted_geometric_mean(a2, b2, 0.5))
            assert spec_norm(lhs - rhs) < 1e-7

    def test_tensor_multiplicative_rectangular_sizes(self, rng):
        a1, b1 = rand_pair(rng, 2, 2, 2)
        a2, b2 = rand_pair(rng, 3, 3, 3)
        lhs = weighted_geometric_mean(kron(a1, a2), kron(b1, b2), 0.25)
        rhs = kron(weighted_geometric_mean(a1, b1, 0.25),
                   weighted_geometric_mean(a2, b2, 0.25))
        assert spec_norm(lhs - rhs) < 1e-7


class TestPowerPairing:
    def test_equal_pair_normalized_state(self):
        res = power_pairing(np.eye(3), np.eye(3), 2.0, np.eye(3) / 3.0)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_kernel_direction_is_inf(self):
        res = power_pairing([[1.0]], [[0.0]], 2.0, [[1.0]])
        assert math.isinf(res.value)
        assert res.infinite_weight == pytest.approx(1.0, abs=1e-12)

    def test_commuting_scalar_formula(self, rng):
        for alpha in (1.5, 2.0, 3.0):
            n = 4
            a, b = diag_pair(rng, n)
            rho = np.diag(rng.uniform(0.0, 1.0, n))
            res = power_pairing(a, b, alpha, rho)
            da, db = np.diag(a).real, np.diag(b).real
            ref = float((np.diag(rho).real * da ** alpha * db ** (1 - alpha)).sum())
            assert res.value == pytest.approx(ref, rel=1e-10)

    def test_alpha_validation(self):
        with pytest.raises(InputError):
            power_pairing(np.eye(2), np.eye(2), 1.0, np.eye(2))

    def test_alpha_independent_on_equal_pair(self, rng):
        a = rand_psd(rng, 3) + 0.1 * np.eye(3)
        rho = rand_state(rng, 3)
        ref = float(np.trace(rho @ a).real)
        for alpha in (1.5, 2.0, 4.0):
            assert power_pairing(a, a, alpha, rho).value == pytest.approx(
                ref, rel=1e-10)


class TestEntropyPairing:
    def test_equal_pair_is_zero(self, rng):
        a = rand_psd(rng, 4) + 0.1 * np.eye(4)
        rho = rand_state(rng, 4)
        assert entropy_pairing(a, a, rho).value == pytest.approx(0.0, abs=1e-10)

    def test_scalar_value(self):
        res = entropy_pairing([[2.0]], [[1.0]], [[1.0]])
        assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_kernel_direction_is_inf(self):
        assert math.isinf(entropy_pairing([[1.0]], [[0.0]], [[1.0]]).value)

    def test_lower_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a, b = rand_pair(rng, n, n, n)
            rho = rand_state(rng, n)
            res = entropy_pairing(a, b, rho)
            bound = -float(np.trace(rho @ (a + b)).real) / math.e - 1e-9
            assert res.value >= bound


class TestTraceFunctional:
    def test_arithmetic_gives_trace_of_sum(self, rng):
        a, b = rand_pair(rng, 4, 3, 4)
        val = trace_functional(a, b, arithmetic())
        assert val == pytest.approx(float(np.trace(a + b).real), rel=1e-10)

    def test_entropy_equal_pair(self, rng):
        a = rand_psd(rng, 3) + 0.1 * np.eye(3)
        assert trace_functional(a, a, entropy()) == pytest.approx(0.0, abs=1e-9)

    def test_power_tensor_multiplicative(self, rng):
        for _ in range(10):
            a1, b1 = diag_pair(rng, 2)
            a2, b2 = diag_pair(rng, 2)
            lhs = trace_functional(kron(a1, a2), kron(b1, b2), power(2.0))
            rhs = trace_functional(a1, b1, power(2.0)) * trace_functional(
                a2, b2, power(2.0))
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_entropy_tensor_additive(self, rng):
        for _ in range(10):
            a1, b1 = diag_pair(rng, 2)
            a2, b2 = diag_pair(rng, 2)
            lhs = trace_functional(kron(a1, a2), kron(b1, b2), entropy())
            t1 = trace_functional(a1, b1, entropy())
            t2 = trace_functional(a2, b2, entropy())
            rhs = t1 * float(np.trace(a2).real) + float(np.trace(a1).real) * t2
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    def test_entropy_tensor_additive_noncommuting(self, rng):
        a1, b1 = rand_pair(rng, 2, 2, 2)
        a2, b2 = rand_pair(rng, 3, 3, 3)
        a1 = a1 + 0.1 * np.eye(2); b1 = b1 + 0.1 * np.eye(2)
        a2 = a2 + 0.1 * np.eye(3); b2 = b2 + 0.1 * np.eye(3)
        lhs = trace_functional(kron(a1, a2), kron(b1, b2), entropy())
        t1 = trace_functional(a1, b1, entropy())
        t2 = trace_functional(a2, b2, entropy())
        rhs = t1 * float(np.trace(a2).real) + float(np.trace(a1).real) * t2
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestTensorPairingCheck:
    def test_trivial_identity_factors(self):
        eye = np.eye(2)
        res = tensor_pairing_check(eye, eye, eye, eye, eye, eye, entropy())
        assert res.lhs == pytest.approx(0.0, abs=1e-10)
        assert res.rhs == pytest.approx(0.0, abs=1e-10)
        assert res.infinity_consistent

    def test_infinite_slot_propagates(self, rng):
        a2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
        b2 = rand_psd(rng, 2) + 0.2 * np.eye(2)
        rho2 = rand_state(rng, 2) + 0.1 * np.eye(2)
        res = tensor_pairing_check(np.array([[1.0]]), np.array([[0.0]]),
                                   a2, b2, np.array([[1.0]]), rho2, entropy())
        assert math.isinf(res.lhs) and math.isinf(res.rhs)
        assert res.infinity_consistent
        res2 = tensor_pairing_check(np.array([[1.0]]), np.array([[0.0]]),
                                    a2, b2, np.array([[1.0]]), rho2, power(2.0))
        assert math.isinf(res2.lhs) and math.isinf(res2.rhs)
        assert res2.infinity_consistent

    def test_commuting_fubini(self, rng):
        for _ in range(15):
            a1, b1 = diag_pair(rng, 2)
            a2, b2 = diag_pair(rng, 2)
            rho1 = np.diag(rng.uniform(0.0, 1.0, 2))
            rho2 = np.diag(rng.uniform(0.0, 1.0, 2))
            for fn in (entropy(), power(2.0)):
                res = tensor_pairing_check(a1, b1, a2, b2, rho1, rho2, fn)
                assert res.infinity_consistent
                assert res.residual is not None and res.residual < 1e-9

    def test_generic_pairs(self, rng):
        for _ in range(10):
            a1, b1 = rand_pair(rng, 2, 2, 2)
            a2, b2 = rand_pair(rng, 2, 2, 2)
            rho1, rho2 = rand_state(rng, 2), rand_state(rng, 2)
            for fn in (entropy(), power(2.0)):
                res = tensor_pairing_check(a1, b1, a2, b2, rho1, rho2, fn)
                assert res.infinity_consistent
                assert res.residual is not None and res.residual < 1e-8

    def test_zero_factor_absorbs_infinite_one(self):
        # slot 1 has no weight (rho1 = 0) and slot 2 is +inf: 0 * inf = 0
        one, zero = np.array([[1.0]]), np.array([[0.0]])
        assert math.isinf(power_pairing(one, zero, 2.0, one).value)
        assert math.isinf(entropy_pairing(one, zero, one).value)
        for fn in (power(2.0), entropy()):
            res = tensor_pairing_check(one, one, one, zero, zero, one, fn)
            assert (res.lhs, res.rhs, res.residual) == (0.0, 0.0, 0.0)
            assert res.infinity_consistent

    def test_overflowing_factors_are_a_numeric_error(self):
        big = np.array([[1e200]])
        with pytest.raises(NumericError, match="Kronecker product outside"):
            tensor_pairing_check(big, big, big, big, np.eye(1), np.eye(1),
                                 power(2.0))

    def test_trace_beyond_float64_reads_inf(self):
        # tr(rho1 a1) = 2e308: with psi1 = 0 and psi2 = 2 ln 2 the sum rule
        # is 0 * 2 + inf * psi2 = +inf, as the Kronecker side reads
        eye = np.eye(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = tensor_pairing_check(1e307 * eye, 1e307 * eye, [[2.0]], [[1.0]],
                                       eye, [[1.0]], entropy())
        assert (res.lhs, res.rhs, res.residual) == (math.inf, math.inf, None)
        assert res.infinity_consistent

    def test_integer_traces_do_not_wrap(self):
        # tr(rho1 a1) = 2**64 and tr(rho a) = 300 overflow int64 and int8
        big = [[2 ** 32]], [[2 ** 31]], [[2]], [[1]], [[2 ** 32]], [[1]]
        got = tensor_pairing_check(*big, entropy())
        want = tensor_pairing_check(*(np.array(m, dtype=float) for m in big), entropy())
        assert (got.lhs, got.rhs, got.residual) == (want.lhs, want.rhs, want.residual)
        assert got.residual < 1e-6 * abs(got.rhs)
        three, hundred = np.array([[3]], np.int8), np.array([[100]], np.int8)
        assert means._trace_product(three, hundred) == 300.0

    def test_sum_rule_of_opposite_infinities_is_a_numeric_error(self):
        # psi1 = 1e309 * 0.25 * ln(1/3) reads -inf and tr(rho1 a1) = 2.5e308
        # reads +inf against psi2 = +inf: -inf * 1 + inf * inf has no value
        eye = np.eye(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="terms are -inf and \\+inf"):
                tensor_pairing_check(1.25e307 * eye, 3.75e307 * eye, [[1.0]], [[0.0]],
                                     eye, [[1.0]], entropy())

    def test_rejects_unknown_rule(self, rng):
        eye = np.eye(2)
        with pytest.raises(InputError):
            tensor_pairing_check(eye, eye, eye, eye, eye, eye, abs_part())

    def test_the_pair_is_checked_before_the_profile(self):
        # pair, then state, then profile, as in every other pairing
        eye, one = np.eye(2), np.array([[1.0]])
        with pytest.raises(NotPsdError, match="eigenvalue -1.0"):
            tensor_pairing_check(np.diag([1.0, -1.0]), eye, one, one, eye, one,
                                 parallel())
        with pytest.raises(InputError, match="state must be 2x2"):
            tensor_pairing_check(eye, eye, one, one, np.eye(3), one, parallel())
        with pytest.raises(InputError, match="no tensor rule known for profile 'parallel'"):
            tensor_pairing_check(eye, eye, one, one, eye, one, parallel())
