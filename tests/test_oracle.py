import math
import time

import pytest

from filterderiv import (Call, DomainError, NonSmoothPointError, UnboundVariableError,
                         Variable, as_function, evaluate, parse, render,
                         richardson_one_sided, symbolic_derivative,
                         symbolic_derivative_value)
from filterderiv import cli, oracle
from filterderiv import expr as expr_module
from filterderiv.expr import UNARY_FUNCTIONS
from corpus import SMOOTH_CASES


def d(text):
    return symbolic_derivative(parse(text), "x")


class TestSymbolicRules:
    @pytest.mark.parametrize("text,x0,expected", [
        ("x^2", 3.0, 6.0),
        ("x^3-2*x", 2.0, 10.0),
        ("7", 1.0, 0.0),
        ("sin(x)", 0.0, 1.0),
        ("cos(x)", math.pi / 2, -1.0),
        ("exp(x)", 0.0, 1.0),
        ("log(x)", 2.0, 0.5),
        ("sqrt(x)", 4.0, 0.25),
        ("tan(x)", 0.0, 1.0),
        ("x*sin(x)", math.pi / 2, 1.0),
        ("sign(x)", 2.0, 0.0),
    ])
    def test_pointwise(self, text, x0, expected):
        assert evaluate(d(text), {"x": x0}) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("fn,text", [
        ("abs", "sign(2.0*x)*2.0"),
        ("sign", "0.0"),
        ("sin", "cos(2.0*x)*2.0"),
        ("cos", "-(sin(2.0*x)*2.0)"),
        ("tan", "2.0/cos(2.0*x)^2.0"),
        ("exp", "exp(2.0*x)*2.0"),
        ("log", "2.0/(2.0*x)"),
        ("sqrt", "2.0/(2.0*sqrt(2.0*x))"),
    ])
    def test_chain_rule_tree(self, fn, text):
        assert render(d(f"{fn}(2*x)")) == text

    def test_every_function_has_a_chain_rule(self):
        assert tuple(oracle._CHAIN_RULES) == UNARY_FUNCTIONS
        with pytest.raises(KeyError):  # an unknown name is not differentiated as another
            symbolic_derivative(Call("cbrt", (Variable("x"),)), "x")

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


def _nested_min(depth):
    text = "x"
    for _ in range(depth):
        text = f"min({text},1)"
    return text


_NESTED = _nested_min(45)
_KINK = "the symbolic rules are invalid at this kink"
_ABS_AT_0 = f"argument of abs(x) is 0.0 at x=0.0; {_KINK}"
_LOG_AT_0 = "log applied outside its domain in log(x) (argument 0.0)"
_RECIP_AT_0 = "division by zero in 1.0/x (argument 0.0)"
_SQRT_AT_HALF = "sqrt applied outside its domain in sqrt(x-1.0) (argument -0.5)"


class TestKinkCheckOutcomes:
    """Kinks, domain errors and both together: the kink check walks e
    depth-first, a node before its children and the right child first, and
    the first kink or failing argument on that walk decides. Parts of e
    outside the kink arguments are evaluated only after every kink argument."""

    @pytest.mark.parametrize("text,x0,expected", [
        ("abs(x)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        ("abs(x)", 2.0, 1.0),
        ("abs(x)", math.inf, ("DomainError",
                              "variable is not bound to a finite real in x (argument inf)")),
        ("abs(x)", math.nan, ("DomainError",
                              "variable is not bound to a finite real in x (argument nan)")),
        ("abs(y)", 1.0, ("UnboundVariableError", "unbound variable 'y'")),
        ("sin(x)", 0.3, 0.955336489125606),
        # the failing sqrt is outside every kink argument: the check passes
        # and the derivative's own evaluation fails
        ("sqrt(x-1)+abs(x)", 0.5, ("DomainError", _SQRT_AT_HALF)),
        ("abs(sqrt(x-1))", 0.5, ("DomainError", _SQRT_AT_HALF)),
        ("log(x)+abs(x)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        ("abs(x)+log(x)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        # right operand first: whichever of the kink and the failure it holds wins
        ("abs(x)+abs(log(x))", 0.0, ("DomainError", _LOG_AT_0)),
        ("abs(log(x))+abs(x)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        ("abs(x)*abs(1/x)", 0.0, ("DomainError", _RECIP_AT_0)),
        ("abs(1/x)*abs(x)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        ("min(x,log(x))", 0.0, ("DomainError", _LOG_AT_0)),
        ("min(log(x),x)", 0.0, ("DomainError", _LOG_AT_0)),
        ("max(x,1/x)", 0.0, ("DomainError", _RECIP_AT_0)),
        # a call before its arguments
        ("min(abs(x),1)", 0.0, ("NonSmoothPointError", _ABS_AT_0)),
        ("max(abs(x),log(x))", 0.0, ("DomainError", _LOG_AT_0)),
        ("min(abs(x-1),log(x))", 1.0, (
            "NonSmoothPointError",
            f"arguments of min(abs(x-1.0),log(x)) differ by 0.0 at x=1.0; {_KINK}")),
        ("max(sign(x),abs(log(x)))", 1.0, (
            "NonSmoothPointError", f"argument of abs(log(x)) is 0.0 at x=1.0; {_KINK}")),
        ("max(x,2-x)", 1.0, (
            "NonSmoothPointError", f"arguments of max(x,2.0-x) differ by 0.0 at x=1.0; {_KINK}")),
        ("min(x,1)+abs(x-2)", 1.0, (
            "NonSmoothPointError", f"arguments of min(x,1.0) differ by 0.0 at x=1.0; {_KINK}")),
        ("abs(x-2)+min(x,1)", 1.0, (
            "NonSmoothPointError", f"arguments of min(x,1.0) differ by 0.0 at x=1.0; {_KINK}")),
        ("sign(x-1)*log(x-2)", 1.0, (
            "NonSmoothPointError", f"argument of sign(x-1.0) is 0.0 at x=1.0; {_KINK}")),
        ("-abs(x^0.5)", -1.0, (
            "DomainError", "negative base with non-integer exponent in x^0.5 (argument -1.0)")),
        (_NESTED, 0.5, 1.0),
        (_NESTED, 1.0, (
            "NonSmoothPointError",
            f"arguments of {render(parse(_NESTED))} differ by 0.0 at x=1.0; {_KINK}")),
    ])
    def test_outcome(self, text, x0, expected):
        try:
            outcome = symbolic_derivative_value(parse(text), "x", x0).value
        except (NonSmoothPointError, DomainError, UnboundVariableError) as exc:
            outcome = type(exc).__name__, str(exc)
        assert outcome == expected

    def test_nested_min_compiles_kink_arguments_once(self, capsys, monkeypatch):
        # one function for the CLI's f and one for the oracle's kink
        # arguments, f and the derivative; one per kink argument made 92
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        assert cli.main(["derive", "--expr", _NESTED, "--x0", "0.5",
                         "--base", "punctured:", "--oracle"]) == 0
        assert '"symbolic": {\n      "estimated_error": 0.0,\n      "value": 1.0\n    }' \
            in capsys.readouterr().out
        assert len(sources) <= 2


class TestUndefinedF:
    """The derivative is a limit of (f(x0+h) - f(x0))/h, so there is no
    oracle answer where f(x0) is undefined, even where the symbolic
    derivative's own tree could be evaluated there."""

    @pytest.mark.parametrize("text,x0,message", [
        ("log(x)", -1000.0, "log applied outside its domain in log(x) (argument -1000.0)"),
        ("log(x)", -1e9, "log applied outside its domain in log(x) (argument -1000000000.0)"),
        ("0*log(x)", -1.0, "log applied outside its domain in log(x) (argument -1.0)"),
        ("log(x)*0+x", -1.0, "log applied outside its domain in log(x) (argument -1.0)"),
        ("2/(x-x)", 1.0, "division by zero in 2.0/(x-x) (argument 0.0)"),
    ])
    def test_is_a_domain_error(self, text, x0, message):
        with pytest.raises(DomainError) as exc:
            symbolic_derivative_value(parse(text), "x", x0)
        assert str(exc.value) == message


def _full_tableau(f, x0, side):
    """Reference: the whole 8x8 Richardson tableau, filled column by column
    after every quotient; returns the last diagonal entry and its gap to the
    one before."""
    sigma = 1.0 if side == "right" else -1.0
    fx0 = f(x0)
    t = [[0.0] * 8 for _ in range(8)]
    for j in range(8):
        h = sigma * 0.5 * 2.0 ** -j
        t[j][0] = (f(x0 + h) - fx0) / h
    for i in range(1, 8):
        factor = 2.0 ** i
        for j in range(i, 8):
            t[j][i] = (factor * t[j][i - 1] - t[j - 1][i - 1]) / (factor - 1.0)
    return t[7][7], abs(t[7][7] - t[6][6])


class TestRichardson:
    @pytest.mark.parametrize("text,pts", SMOOTH_CASES + [
        ("abs(x)", [0.0, 0.3]), ("min(x,2*x)", [0.0]), ("1/x", [0.3, -2.0]),
        ("exp(x)", [700.0]), ("1e308*x", [1.0])])
    def test_bit_identical_to_the_full_tableau(self, text, pts):
        f = as_function(parse(text))
        for x0 in pts:
            for side in ("right", "left"):
                value, err = _full_tableau(f, x0, side)
                if math.isfinite(err):
                    got = richardson_one_sided(f, x0, side)
                    assert (got.value.hex(), got.estimated_error.hex()) == (value.hex(), err.hex())
                else:
                    with pytest.raises(DomainError, match="left the float range"):
                        richardson_one_sided(f, x0, side)

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
