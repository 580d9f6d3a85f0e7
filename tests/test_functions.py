"""Tests for the built-in profiles and their endpoint semantics."""

import math

import numpy as np
import pytest

from pwcalc import (InputError, NumericError, PwFunction, abs_part, arithmetic,
                    entropy, eval_sequence, geometric, kubo_ando_form, left,
                    named_function, parallel, power, power_pairing, pw_eval,
                    pw_pairing, right, rn_cutoff, scaled_parallel,
                    tensor_pairing_check, trace_functional)


def values_at(fn, xs):
    x = np.asarray(xs, dtype=float)
    zero = np.zeros(len(x), dtype=bool)
    one = np.zeros(len(x), dtype=bool)
    return fn.values(x, zero, one)


def endpoint_values(fn):
    x = np.array([0.0, 1.0])
    return fn.values(x, np.array([True, False]), np.array([False, True]))


class TestBuiltinFormulas:
    def test_abs_part(self):
        fn = abs_part()
        np.testing.assert_allclose(values_at(fn, [0.25, 0.5]), [0.75, 0.5])
        assert endpoint_values(fn).tolist() == [0.0, 0.0]
        assert fn.vanishes_at_zero

    def test_parallel(self):
        np.testing.assert_allclose(values_at(parallel(), [0.25]), [0.1875])
        assert endpoint_values(parallel()).tolist() == [0.0, 0.0]

    def test_arithmetic(self):
        assert values_at(arithmetic(), [0.3]).tolist() == [1.0]
        assert endpoint_values(arithmetic()).tolist() == [1.0, 1.0]
        assert not arithmetic().vanishes_at_zero

    def test_left_right(self):
        assert values_at(left(), [0.3]).tolist() == [pytest.approx(0.3)]
        assert endpoint_values(left()).tolist() == [0.0, 1.0]
        assert values_at(right(), [0.3]).tolist() == [pytest.approx(0.7)]
        assert endpoint_values(right()).tolist() == [1.0, 0.0]

    def test_geometric(self):
        fn = geometric(0.25)
        x = 0.4
        np.testing.assert_allclose(values_at(fn, [x]),
                                   [x ** 0.25 * 0.6 ** 0.75])
        assert endpoint_values(fn).tolist() == [0.0, 0.0]
        with pytest.raises(InputError):
            geometric(1.0)
        with pytest.raises(InputError):
            geometric(0.0)

    def test_power(self):
        fn = power(2.0)
        x = 0.4
        np.testing.assert_allclose(values_at(fn, [x]), [x ** 2 / 0.6])
        vals = endpoint_values(fn)
        assert vals[0] == 0.0 and math.isinf(vals[1])
        with pytest.raises(InputError):
            power(1.0)

    def test_entropy(self):
        fn = entropy()
        x = 2.0 / 3.0
        np.testing.assert_allclose(values_at(fn, [x]), [x * math.log(2.0)])
        vals = endpoint_values(fn)
        assert vals[0] == 0.0 and math.isinf(vals[1])
        # bounded below by -1/e on the section
        xs = np.linspace(1e-6, 1 - 1e-6, 1001)
        assert values_at(fn, xs).min() >= -1.0 / math.e

    def test_scaled_parallel(self):
        fn = scaled_parallel(4.0)
        x = 0.5
        np.testing.assert_allclose(values_at(fn, [x]),
                                   [4 * 0.25 / (4 * 0.5 + 0.5)])
        assert endpoint_values(fn).tolist() == [0.0, 0.0]
        # pointwise nondecreasing toward the abs-part profile
        xs = np.linspace(0.01, 0.99, 99)
        v1 = values_at(scaled_parallel(3.0), xs)
        v2 = values_at(scaled_parallel(6.0), xs)
        assert (v2 >= v1 - 1e-15).all()
        assert (values_at(abs_part(), xs) >= v2 - 1e-15).all()

    def test_rn_cutoff(self):
        fn = rn_cutoff(4.0)
        np.testing.assert_allclose(values_at(fn, [0.5, 0.1]), [1.0, 0.0])
        v1 = values_at(rn_cutoff(2.0), np.linspace(0.01, 0.99, 99))
        v2 = values_at(rn_cutoff(8.0), np.linspace(0.01, 0.99, 99))
        assert (v2 >= v1 - 1e-15).all()


class TestGuards:
    def test_nan_profile_rejected(self):
        fn = PwFunction("bad", lambda x: float("nan"), 0.0, 0.0, True)
        with pytest.raises(NumericError):
            values_at(fn, [0.5])

    def test_minus_inf_rejected(self):
        fn = PwFunction("bad", lambda x: -math.inf, 0.0, 0.0, True)
        with pytest.raises(InputError):
            values_at(fn, [0.5])

    def test_profile_gets_python_floats(self):
        seen = []
        fn = PwFunction("spy", lambda x: seen.append(x) or x, 0.0, 1.0, True)
        values_at(fn, [0.25, -1e-15, 1.0 + 1e-15])
        assert seen == [0.25, 0.0, 1.0]
        assert all(type(x) is float for x in seen)

    def test_messages_print_plain_floats(self):
        nan = PwFunction("bad", lambda x: float("nan"), 0.0, 0.0, True)
        with pytest.raises(NumericError, match=r"at x = 0\.5$"):
            values_at(nan, [0.5])
        neg = PwFunction("bad", lambda x: -math.inf, 0.0, 0.0, True)
        with pytest.raises(InputError, match=r"at x = 0\.5;"):
            values_at(neg, [0.5])

    def test_overflow_is_a_numeric_error(self):
        # (x/y)^400 y at y = 1/11 is about 1e415
        with pytest.raises(NumericError, match=r"'power:400' leaves the "
                                               r"float64 range at x = 0\.909"):
            values_at(power(400.0), [10.0 / 11.0])
        with pytest.raises(NumericError, match="float64 range"):
            power_pairing(np.eye(2), np.diag([1.0, 0.1]), 400.0, np.eye(2))

    @pytest.mark.parametrize("make", [
        lambda: power(math.inf), lambda: power(math.nan),
        lambda: scaled_parallel(math.inf), lambda: scaled_parallel(math.nan),
        lambda: named_function("power:inf"), lambda: named_function("power:nan"),
    ], ids=["power-inf", "power-nan", "scaled-inf", "scaled-nan",
            "named-power-inf", "named-power-nan"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(InputError, match="finite"):
            make()

    def test_out_of_range_eigenvalues_clipped(self):
        # rounding can push retained eigenvalues slightly outside [0, 1]
        fn = geometric(0.5)
        out = values_at(fn, [-1e-15, 1.0 + 1e-15])
        assert np.isfinite(out).all()


class TestParameterTypes:
    @pytest.mark.parametrize("make", [
        lambda: rn_cutoff(math.inf), lambda: rn_cutoff(math.nan),
        lambda: rn_cutoff(True), lambda: scaled_parallel(True),
        lambda: scaled_parallel(False),
    ], ids=["rncut-inf", "rncut-nan", "rncut-bool", "scaled-true", "scaled-false"])
    def test_non_finite_and_bool_parameters_rejected(self, make):
        with pytest.raises(InputError, match="finite"):
            make()

    def test_integer_parameters_still_accepted(self):
        assert rn_cutoff(4).name == "rncut:4"
        assert scaled_parallel(np.int64(3)).name == "parallel*3"

    # one shared check: a finite real number that is not a bool, in the
    # builtin's own range and with its own message
    @pytest.mark.parametrize("make,message", [
        (lambda: geometric("0.5"), "geometric mean weight must lie in (0, 1), got '0.5'"),
        (lambda: power("2"), "power exponent must be finite and exceed 1, got '2'"),
        (lambda: power(None), "power exponent must be finite and exceed 1, got None"),
        (lambda: geometric(1 + 0j), "geometric mean weight must lie in (0, 1), got (1+0j)"),
        (lambda: scaled_parallel("2"), "scale must be a finite positive number, got '2'"),
        (lambda: rn_cutoff("2"),
         "cutoff index must be a finite number of at least 1, got '2'"),
        (lambda: scaled_parallel(np.True_), "scale must be a finite positive number"),
        (lambda: rn_cutoff(np.True_), "cutoff index must be a finite number of at least 1"),
    ], ids=["geom-str", "power-str", "power-none", "geom-complex", "scaled-str",
            "rncut-str", "scaled-np-bool", "rncut-np-bool"])
    def test_non_real_parameters_rejected(self, make, message):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value).startswith(message)

    def test_numpy_numbers_still_accepted(self):
        assert geometric(np.float64(0.25)).name == "geom:0.25"
        assert power(np.int64(2)).name == "power:2"
        assert scaled_parallel(np.float64(0.5)).name == "parallel*0.5"
        assert rn_cutoff(np.int64(4)).name == "rncut:4"

    def test_profile_name_must_be_a_string(self):
        with pytest.raises(InputError, match="must be a string, got NoneType$"):
            named_function(None)


class TestProfileType:
    """A profile that is not a :class:`PwFunction` is an :class:`InputError`
    naming its type, wherever it meets the pair."""

    @pytest.mark.parametrize("op,kind", [
        (lambda a, b, rho: pw_eval(a, b, "parallel"), "str"),
        (lambda a, b, rho: pw_pairing(a, b, parallel, rho), "function"),
        (lambda a, b, rho: eval_sequence(a, b, [parallel(), 1], rho), "int"),
        (lambda a, b, rho: trace_functional(a, b, None), "NoneType"),
        (lambda a, b, rho: kubo_ando_form(a, b, "parallel"), "str"),
        (lambda a, b, rho: tensor_pairing_check(a, b, a, b, rho, rho, "power:2"),
         "str"),
    ], ids=["pw_eval", "pw_pairing", "eval_sequence", "trace", "kubo", "tensor"])
    def test_named_in_an_input_error(self, op, kind):
        a, b = np.diag([2.0, 1.0]), np.diag([1.0, 3.0])
        with pytest.raises(InputError, match=f"must be a PwFunction, got {kind}$"):
            op(a, b, np.eye(2))


class TestNamedLookup:
    def test_plain_names(self):
        assert named_function("abs").name == "abs"
        assert named_function("entropy").name == "entropy"

    def test_parametric(self):
        assert named_function("geom:0.5").name == "geom:0.5"
        assert named_function("power:2").name == "power:2"
        assert named_function("power", alpha=3.0).name == "power:3"

    def test_rejects_unknown(self):
        with pytest.raises(InputError):
            named_function("nope")
        with pytest.raises(InputError):
            named_function("abs:1")
        with pytest.raises(InputError):
            named_function("geom")
        with pytest.raises(InputError):
            named_function("geom:x")
