import math
import time

import pytest

from filterderiv import (DomainError, NonSmoothPointError, as_function,
                         evaluate, parse, richardson_one_sided,
                         symbolic_derivative, symbolic_derivative_value)
from corpus import SMOOTH_CASES


def d(text):
    return symbolic_derivative(parse(text), "x")


class TestSymbolicRules:
    @pytest.mark.parametrize("text,x0,expected", [
        ("x^2", 3.0, 6.0),
        ("x^3-2*x", 2.0, 10.0),
        ("7", 1.0, 0.0),
        ("sin(x)", 0.0, 1.0),
        ("exp(x)", 0.0, 1.0),
        ("log(x)", 2.0, 0.5),
        ("sqrt(x)", 4.0, 0.25),
        ("tan(x)", 0.0, 1.0),
        ("x*sin(x)", math.pi / 2, 1.0),
        ("sign(x)", 2.0, 0.0),
    ])
    def test_pointwise(self, text, x0, expected):
        assert evaluate(d(text), {"x": x0}) == pytest.approx(expected, abs=1e-12)

    def test_abs_derivative_is_sign(self):
        diff = d("abs(x)")
        assert evaluate(diff, {"x": -3.0}) == -1.0
        assert evaluate(diff, {"x": 2.0}) == 1.0

    def test_min_via_abs_identity(self):
        diff = d("min(x,2*x)")
        assert evaluate(diff, {"x": 1.0}) == 1.0    # min is x for x > 0
        assert evaluate(diff, {"x": -1.0}) == 2.0   # min is 2x for x < 0

    def test_min_max_select_one_derivative_exactly(self):
        # cos(0.3) > sin(0.3), so max picks cos and min picks sin
        assert evaluate(d("max(sin(x),cos(x))"), {"x": 0.3}) == -math.sin(0.3)
        assert evaluate(d("min(sin(x),cos(x))"), {"x": 0.3}) == math.cos(0.3)

    @pytest.mark.parametrize("fn", ["min", "max"])
    def test_deep_min_max_nesting_is_fast(self, fn):
        text = "x"
        for _ in range(30):
            text = f"{fn}({text},{1 if fn == 'min' else 0})"
        start = time.perf_counter()
        ov = symbolic_derivative_value(parse(text), "x", 0.5)
        assert time.perf_counter() - start < 1.0
        assert ov.value == 1.0

    def test_general_power(self):
        diff = d("x^x")
        x0 = 1.5
        expected = (1.5 ** 1.5) * (math.log(1.5) + 1.0)
        assert evaluate(diff, {"x": x0}) == pytest.approx(expected, rel=1e-12)

    def test_oscillating_product_cross_checked(self):
        e = parse("x*sin(1/x)")
        sym = symbolic_derivative_value(e, "x", 0.3).value
        rich = richardson_one_sided(as_function(e), 0.3, "right")
        assert abs(sym - rich.value) <= max(1e-8, rich.estimated_error)


class TestKinkRefusal:
    def test_abs_at_zero_refused(self):
        with pytest.raises(NonSmoothPointError):
            symbolic_derivative_value(parse("abs(x)"), "x", 0.0)

    def test_near_kink_refused(self):
        with pytest.raises(NonSmoothPointError):
            symbolic_derivative_value(parse("abs(x-1)"), "x", 1.0 + 1e-13)

    def test_min_crossing_refused(self):
        with pytest.raises(NonSmoothPointError):
            symbolic_derivative_value(parse("min(x,0-x)"), "x", 0.0)

    def test_away_from_kink_allowed(self):
        ov = symbolic_derivative_value(parse("abs(x)"), "x", 2.0)
        assert ov.value == 1.0
        assert ov.method == "symbolic"
        assert ov.estimated_error == 0.0


class TestRichardson:
    def test_abs_right_left_exact(self):
        right = richardson_one_sided(abs, 0.0, "right")
        left = richardson_one_sided(abs, 0.0, "left")
        assert abs(right.value - 1.0) <= 1e-12
        assert abs(left.value + 1.0) <= 1e-12
        assert right.method == "richardson-right"

    def test_exp_at_zero(self):
        ov = richardson_one_sided(math.exp, 0.0, "right")
        assert abs(ov.value - 1.0) <= 1e-9

    def test_error_estimate_brackets_truth(self):
        ov = richardson_one_sided(math.sin, 0.3, "left")
        assert abs(ov.value - math.cos(0.3)) <= max(1e-10, 10 * ov.estimated_error)

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            richardson_one_sided(as_function(parse("log(x)")), 0.0, "right")

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_tableau_beyond_the_float_range_is_a_domain_error(self, side):
        # every quotient is 1e308, so the first extrapolation step overflows
        with pytest.raises(DomainError, match="left the float range"):
            richardson_one_sided(lambda x: 1e308 * x, 1.0, side)

    def test_side_validated(self):
        with pytest.raises(ValueError):
            richardson_one_sided(abs, 0.0, "up")


class TestSelfConsistency:
    # the two oracle routes agree on the smooth corpus
    @pytest.mark.parametrize("text,pts", SMOOTH_CASES)
    def test_symbolic_vs_richardson(self, text, pts):
        e = parse(text)
        f = as_function(e)
        for x0 in pts:
            sym = symbolic_derivative_value(e, "x", x0).value
            for side in ("right", "left"):
                rich = richardson_one_sided(f, x0, side)
                assert abs(sym - rich.value) <= max(1e-8, rich.estimated_error)
