"""The rules of ``golden_diff.compare``, the check for regenerated goldens."""

import math
import sys

import pytest

import golden_diff
from golden_diff import REL_BOUND, compare

EPS = sys.float_info.epsilon


def _report(**fields):
    # a matrix of size 3 sets the dimension of the residual rule
    return {"outputs": {"value": {"n": 3, "re": [[0.0] * 3] * 3}}, **fields}


def _check(old, new):
    moved, bad, worst = compare("g", _report(**old), _report(**new))
    return moved, bad, worst


class TestFloats:
    def test_unchanged_report_moves_nothing(self):
        assert _check({"x": 0.5, "status": "ok"}, {"x": 0.5, "status": "ok"}) == (
            [], [], 0.0)

    def test_small_relative_move_passes(self):
        moved, bad, worst = _check({"x": 3.0}, {"x": 3.0 * (1 + 1e-14)})
        assert bad == [] and len(moved) == 1
        assert 0.5e-14 < worst < 2e-14

    def test_large_relative_move_fails(self):
        moved, bad, worst = _check({"x": 3.0}, {"x": 3.0 * (1 + 1e-12)})
        assert len(bad) == 1 and "g.x" in bad[0]
        assert worst > REL_BOUND

    def test_float_leaving_zero_fails(self):
        _, bad, worst = _check({"x": 0.0}, {"x": 1e-300})
        assert len(bad) == 1 and worst == math.inf

    def test_zero_int_and_zero_float_are_the_same_value(self):
        assert _check({"x": 0}, {"x": 0.0}) == ([], [], 0.0)


class TestNonFloats:
    @pytest.mark.parametrize("old, new", [
        ("ok", "warning"),
        ("+inf", 1e308),
        (2, 3),
        (True, 1),
        (None, 0.0),
    ], ids=["string", "inf_string", "integer", "bool_vs_int", "null"])
    def test_any_change_fails(self, old, new):
        moved, bad, _ = _check({"f": old}, {"f": new})
        assert moved == [] and len(bad) == 1 and "non-float" in bad[0]

    def test_key_order_fails(self):
        _, bad, _ = compare("g", {"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0})
        assert len(bad) == 1 and "keys" in bad[0]

    def test_key_set_fails(self):
        _, bad, _ = compare("g", {"a": 1.0}, {"a": 1.0, "b": 2.0})
        assert len(bad) == 1 and "keys" in bad[0]

    def test_list_length_fails(self):
        _, bad, _ = compare("g", {"a": [1.0, 2.0]}, {"a": [1.0]})
        assert len(bad) == 1 and "length" in bad[0]


class TestResiduals:
    # a residual may move freely within 0 <= new <= sqrt(n) max(old, n eps)
    BOUND_OLD = 1e-15 * math.sqrt(3)

    @pytest.mark.parametrize("key", golden_diff.RESIDUALS)
    def test_within_the_bound_passes(self, key):
        moved, bad, worst = _check({key: 1e-15}, {key: 0.99 * self.BOUND_OLD})
        assert bad == [] and len(moved) == 1 and "residual, bound" in moved[0]
        assert worst == 0.0  # residuals stay out of the relative figure

    @pytest.mark.parametrize("key", golden_diff.RESIDUALS)
    def test_above_the_bound_fails(self, key):
        _, bad, _ = _check({key: 1e-15}, {key: 1.01 * self.BOUND_OLD})
        assert len(bad) == 1

    def test_negative_fails(self):
        _, bad, _ = _check({"residual": 1e-15}, {"residual": -1e-16})
        assert len(bad) == 1

    def test_a_zero_residual_is_held_to_the_rounding_floor(self):
        floor = math.sqrt(3) * 3 * EPS
        assert _check({"residual_sum": 0.0}, {"residual_sum": 0.99 * floor})[1] == []
        assert len(_check({"residual_sum": 0.0},
                          {"residual_sum": 1.01 * floor})[1]) == 1

    def test_the_largest_matrix_sets_the_dimension(self):
        old = {"m": {"n": 16, "re": []}, "residual": 0.0}
        new = {"m": {"n": 16, "re": []}, "residual": 0.99 * 4 * 16 * EPS}
        assert compare("g", old, new)[1] == []
        assert len(_check({"residual": 0.0}, {"residual": 0.99 * 4 * 16 * EPS})[1]) == 1


def test_usage_error(capsys):
    assert golden_diff.main([]) == 2
    assert "Usage" in capsys.readouterr().err
