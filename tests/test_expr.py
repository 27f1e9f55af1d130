import math
import sys
from decimal import Decimal
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (Binary, Call, Constant, DomainError, ParseError,
                         Unary, UnboundVariableError, Variable, as_function,
                         evaluate, free_vars, parse, render, symbolic_derivative_value)
from filterderiv import expr as expr_module
from filterderiv.expr import _MAX_DEPTH, BINARY_FUNCTIONS, UNARY_FUNCTIONS, evaluate_each


class TestParse:
    def test_abs_call(self):
        assert parse("abs(x)") == Call("abs", (Variable("x"),))

    def test_nested_structure(self):
        assert parse("x*sin(1/x)") == Binary(
            "mul", Variable("x"),
            Call("sin", (Binary("div", Constant(1.0), Variable("x")),)))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x +* 2")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("text", ["x²", "x⁰"])
    def test_superscript_digit_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == 1

    @pytest.mark.parametrize("text,offset", [("x+٣", 2), ("３*x", 0), ("1e٣", 2)])
    def test_non_ascii_digit_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == (f"syntax error at offset {offset}: "
                                  f"expected a token, found '{text[offset]}'")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("2+2 x")

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse("foo(x)")

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse("min(x)")
        with pytest.raises(ParseError):
            parse("abs(x, 1)")

    def test_pow_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_tighter_than_pow(self):
        # per the grammar, -x^2 is (-x)^2
        assert evaluate(parse("-x^2"), {"x": 3.0}) == 9.0
        assert evaluate(parse("-(x^2)"), {"x": 3.0}) == -9.0

    def test_left_associative_sub_div(self):
        assert evaluate(parse("8-3-2"), {}) == 3.0
        assert evaluate(parse("8/2/2"), {}) == 2.0

    def test_number_forms(self):
        assert parse("2.5e-3") == Constant(2.5e-3)
        assert parse("7") == Constant(7.0)

    def test_whitespace_insignificant(self):
        assert parse(" min ( x , 1 ) ") == parse("min(x,1)")


class TestEvaluate:
    def test_abs(self):
        assert evaluate(parse("abs(x)"), {"x": -3.0}) == 3.0

    def test_sign_zero_convention(self):
        assert evaluate(parse("sign(x)"), {"x": 0.0}) == 0.0
        assert evaluate(parse("sign(x)"), {"x": -2.0}) == -1.0

    @pytest.mark.parametrize("text,env", [
        ("log(x)", {"x": -1.0}),
        ("log(x)", {"x": 0.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("1/x", {"x": 0.0}),
        ("x^0.5", {"x": -2.0}),
        ("exp(x)", {"x": 1e6}),       # overflow surfaces as a domain error
        ("x*x", {"x": 1e300}),
    ])
    def test_domain_errors(self, text, env):
        with pytest.raises(DomainError):
            evaluate(parse(text), env)

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x+y"), {"x": 1.0})

    def test_min_max(self):
        assert evaluate(parse("min(x, 2)"), {"x": 5.0}) == 2.0
        assert evaluate(parse("max(x, 2)"), {"x": 5.0}) == 5.0

    def test_deterministic(self):
        e = parse("sin(x)*exp(x/3)-sqrt(1+x^2)")
        a = evaluate(e, {"x": 0.7310585})
        b = evaluate(e, {"x": 0.7310585})
        assert a == b


# Every node kind, every function and every DomainError branch, with the exact
# result (as float.hex) or the exact message. Written against the tree-walking
# evaluator, so any change of IEEE operation, order or error site shows here.
EVALUATION_TABLE = [
    ('2.5', {}, '0x1.4000000000000p+1'),
    ('x', {'x': 0.1}, '0x1.999999999999ap-4'),
    ('x', {'x': 3}, '0x1.8000000000000p+1'),
    ('-x', {'x': 0.0}, '-0x0.0p+0'),
    ('-x', {'x': 1.5}, '-0x1.8000000000000p+0'),
    ('x+y', {'x': 0.1, 'y': 0.2}, '0x1.3333333333334p-2'),
    ('x-y', {'x': 0.3, 'y': 0.1}, '0x1.9999999999999p-3'),
    ('x*y', {'x': 0.1, 'y': 3.0}, '0x1.3333333333334p-2'),
    ('x/y', {'x': 1.0, 'y': 3.0}, '0x1.5555555555555p-2'),
    ('x^y', {'x': 1.1, 'y': 2.5}, '0x1.44e1080833b25p+0'),
    ('x^3', {'x': -2.0}, '-0x1.0000000000000p+3'),
    ('x^0', {'x': 0.0}, '0x1.0000000000000p+0'),
    ('2^3^2', {}, '0x1.0000000000000p+9'),
    ('-x^2', {'x': 3.0}, '0x1.2000000000000p+3'),
    ('8-3-2', {}, '0x1.8000000000000p+1'),
    ('x/3*3', {'x': 0.1}, '0x1.999999999999ap-4'),
    ('abs(x)', {'x': -0.7}, '0x1.6666666666666p-1'),
    ('abs(x)', {'x': -0.0}, '0x0.0p+0'),
    ('sign(x)', {'x': -0.0}, '0x0.0p+0'),
    ('sign(x)', {'x': 2.5}, '0x1.0000000000000p+0'),
    ('sign(x)', {'x': -2.5}, '-0x1.0000000000000p+0'),
    ('sin(x)', {'x': 0.7310585}, '0x1.55d745e98d663p-1'),
    ('cos(x)', {'x': 0.7310585}, '0x1.7d2aec5b01f5fp-1'),
    ('tan(x)', {'x': 1.2}, '0x1.493c43acb164dp+1'),
    ('exp(x)', {'x': -1.25}, '0x1.25618372a584fp-2'),
    ('log(x)', {'x': 2.0}, '0x1.62e42fefa39efp-1'),
    ('sqrt(x)', {'x': 2.0}, '0x1.6a09e667f3bcdp+0'),
    ('min(x,y)', {'x': 0.0, 'y': -0.0}, '0x0.0p+0'),
    ('max(x,y)', {'x': 0.0, 'y': -0.0}, '0x0.0p+0'),
    ('min(x,2)', {'x': 5.0}, '0x1.0000000000000p+1'),
    ('max(x,2)', {'x': 5.0}, '0x1.4000000000000p+2'),
    ('sin(x)*exp(x/3)-sqrt(1+x^2)', {'x': 0.4}, '-0x1.439ee25752e34p-1'),
    ('x*sin(1/x)', {'x': 0.001}, '0x1.b185e4acae1b5p-11'),
]

DOMAIN_ERROR_TABLE = [
    ('1/x', {'x': 0.0}, 'division by zero in 1.0/x (argument 0.0)'),
    ('1/x', {'x': -0.0}, 'division by zero in 1.0/x (argument -0.0)'),
    ('x^0.5', {'x': -2.0}, 'negative base with non-integer exponent in x^0.5 (argument -2.0)'),
    ('x^400', {'x': 10.0}, 'power is not a finite real in x^400.0 (argument 10.0)'),
    ('x^-1', {'x': 0.0}, 'power is not a finite real in x^-1.0 (argument 0.0)'),
    ('log(x)', {'x': 0.0}, 'log applied outside its domain in log(x) (argument 0.0)'),
    ('log(x)', {'x': -1.0}, 'log applied outside its domain in log(x) (argument -1.0)'),
    ('sqrt(x)', {'x': -4.0}, 'sqrt applied outside its domain in sqrt(x) (argument -4.0)'),
    ('exp(x)', {'x': 1000000.0}, 'exp applied outside its domain in exp(x) (argument 1000000.0)'),
    ('x*x', {'x': 1e+300}, 'result is not a finite real in x*x'),
    ('x+x', {'x': 1.7e+308}, 'result is not a finite real in x+x'),
    ('x-y', {'x': -1.7e+308, 'y': 1.7e+308}, 'result is not a finite real in x-y'),
    ('x/y', {'x': 1e+300, 'y': 1e-300}, 'result is not a finite real in x/y'),
    ('log(x)+1/x', {'x': 0.0}, 'log applied outside its domain in log(x) (argument 0.0)'),
    ('min(1/x,log(x))', {'x': 0.0}, 'division by zero in 1.0/x (argument 0.0)'),
    ('-sqrt(x)', {'x': -1.0}, 'sqrt applied outside its domain in sqrt(x) (argument -1.0)'),
]


# Doubles at the ends of the float range and where exp overflows (710) or
# underflows (-745), drawn often, besides any other finite double.
EDGE_DOUBLES = [sign * v for v in (sys.float_info.max, sys.float_info.min, 5e-324, 0.0)
                for sign in (1.0, -1.0)] + [710.0, -745.0]
_finite_doubles = st.one_of(st.sampled_from(EDGE_DOUBLES),
                            st.floats(allow_nan=False, allow_infinity=False))


class TestMathRaisesInsteadOfNonFinite:
    """math raises ValueError or OverflowError rather than return inf or nan
    for finite arguments, so the evaluator's functions and powers need no
    finiteness check of their own: a result is finite or a DomainError."""

    @pytest.mark.parametrize("text", ["sin(x)", "cos(x)", "tan(x)", "exp(x)",
                                      "log(x)", "sqrt(x)", "x^y"])
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(x=_finite_doubles, y=_finite_doubles)
    def test_finite_value_or_domain_error(self, text, x, y):
        try:
            v = evaluate(parse(text), {"x": x, "y": y})
        except DomainError:
            return
        assert type(v) is float and math.isfinite(v)


NOT_FINITE = [math.inf, -math.inf, math.nan]
# the other operand of a carrying one; a power's exponent is its own list
OTHER_OPERANDS = [0.0, -0.0, 1.0, -2.5, 1e308, 5e-324, math.inf, -math.inf, math.nan]
POSITIVE_EXPONENTS = [5e-324, 0.5, 1.0, 2.0, 2.5, 3.0, 1e308]
BINARY_OPERATIONS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                     "mul": lambda a, b: a * b, "div": lambda a, b: a / b, "pow": math.pow}


def _carried(operation, *args) -> bool:
    """Does operation(*args) give a value that is not finite, or raise?"""
    try:
        return not math.isfinite(operation(*args))
    except (ValueError, OverflowError, ZeroDivisionError):
        return True


class TestCarryPremises:
    """A level loop drops a node's finiteness test where every use of the
    node carries a value that is not finite on, to a result that is not
    finite or to a raise (expr._FUNCTIONS, expr._BINARY_OPS, expr._operands),
    and tests each quotient list by its sum. These are the premises, on this
    Python and its libm."""

    @pytest.mark.parametrize("bad", NOT_FINITE, ids=repr)
    def test_carried_function_arguments(self, bad):
        for name, (operation, arity, carries) in expr_module._FUNCTIONS.items():
            if carries:
                assert arity == 1 and _carried(operation, bad), name

    @pytest.mark.parametrize("bad", NOT_FINITE, ids=repr)
    def test_carried_binary_operands(self, bad):
        for name, (_, _, carries) in expr_module._BINARY_OPS.items():
            for other in OTHER_OPERANDS:
                if carries[0]:
                    assert _carried(BINARY_OPERATIONS[name], bad, other), (name, other)
                if carries[1]:
                    assert _carried(BINARY_OPERATIONS[name], other, bad), (name, other)

    @pytest.mark.parametrize("bad", NOT_FINITE, ids=repr)
    def test_power_carries_its_base_to_a_positive_exponent(self, bad):
        for exponent in POSITIVE_EXPONENTS:
            assert _carried(math.pow, bad, exponent), exponent
        carries = {text: [c for _, c in expr_module._operands(parse(text))]
                   for text in ["x^2.5", "x^0", "x^x", "x^(0-1)"]}
        assert carries == {"x^2.5": [True, False], "x^0": [False, False],
                           "x^x": [False, False], "x^(0-1)": [False, False]}

    def test_operations_that_do_not_carry_have_finite_witnesses(self):
        functions, ops = expr_module._FUNCTIONS, expr_module._BINARY_OPS
        assert [name for name, (*_, carries) in functions.items() if not carries] == [
            "sign", "exp", "min", "max"]
        assert (ops["div"][2], ops["pow"][2]) == ((True, False), (False, False))
        assert math.exp(-math.inf) == 0.0
        assert 1.0 / math.inf == 0.0
        assert math.pow(math.inf, 0.0) == 1.0
        assert math.isfinite(functions["sign"][0](math.nan))
        assert min(math.inf, 1.0) == 1.0 and max(-math.inf, 1.0) == 1.0

    @pytest.mark.parametrize("bad", NOT_FINITE, ids=repr)
    def test_sum_of_a_list_with_a_value_not_finite(self, bad):
        finite = [1.0, -2.5, 1e308, -1e308, 5e-324, 0.0, 1e308]
        for n in range(len(finite) + 1):
            for i in range(n + 1):
                values = finite[:n]
                values.insert(i, bad)
                assert not math.isfinite(sum(values)), values
        assert math.isnan(sum([math.inf, -math.inf]))
        assert not math.isfinite(sum([1e308, 1e308]))  # every term is finite: all() decides


class TestEvaluationTable:
    @pytest.mark.parametrize("text,env,expected", EVALUATION_TABLE)
    def test_exact_value(self, text, env, expected):
        assert evaluate(parse(text), env).hex() == expected
        if set(env) <= {"x"}:
            assert as_function(parse(text), "x")(env.get("x", 0.0)).hex() == expected

    @pytest.mark.parametrize("text,env,message", DOMAIN_ERROR_TABLE)
    def test_exact_domain_error(self, text, env, message):
        with pytest.raises(DomainError) as exc:
            evaluate(parse(text), env)
        assert str(exc.value) == message
        if set(env) == {"x"}:
            with pytest.raises(DomainError) as exc:
                as_function(parse(text), "x")(env["x"])
            assert str(exc.value) == message

    def test_unbound_variable_message(self):
        with pytest.raises(UnboundVariableError) as exc:
            evaluate(parse("x+y"), {"x": 1.0})
        assert str(exc.value) == "unbound variable 'y'"
        assert exc.value.name == "y"

    def test_table_covers_every_function(self):
        texts = " ".join(row[0] for row in EVALUATION_TABLE + DOMAIN_ERROR_TABLE)
        for fn in UNARY_FUNCTIONS + BINARY_FUNCTIONS:
            assert f"{fn}(" in texts


class TestFreeVars:
    @pytest.mark.parametrize("text,names", [
        ("2+2", set()),
        ("abs(x)", {"x"}),
        ("x*y", {"x", "y"}),
        ("min(a, b)+a", {"a", "b"}),
    ])
    def test_examples(self, text, names):
        assert free_vars(parse(text)) == names

    def test_tree_deeper_than_the_recursion_limit(self):
        e = Variable("x")
        for i in range(3 * sys.getrecursionlimit()):
            e = Unary("neg", e) if i % 2 else Binary("add", Constant(1.0), e)
        assert free_vars(Call("min", (e, Variable("y")))) == {"x", "y"}


class TestNodes:
    def test_preorder_right_child_first(self):
        e = parse("min(a,-b)+sin(c)*d")
        order = [render(node) for node in expr_module._nodes(e)]
        assert order == ["min(a,-b)+sin(c)*d", "sin(c)*d", "d", "sin(c)", "c",
                         "min(a,-b)", "-b", "b", "a"]

    def test_a_shared_subtree_is_visited_each_time(self):
        x = Variable("x")
        shared = Binary("mul", x, x)
        nodes = list(expr_module._nodes(Binary("add", shared, shared)))
        assert len(nodes) == 7 and sum(node is shared for node in nodes) == 2


class TestAsFunction:
    def test_single_variable(self):
        f = as_function(parse("x^2+1"))
        assert f(3.0) == 10.0

    def test_rejects_two_variables(self):
        with pytest.raises(ValueError):
            as_function(parse("x*y"))

    def test_constant_expression(self):
        f = as_function(parse("4-1"))
        assert f(123.0) == 3.0


def _pow_source(exponent: str, tested: bool) -> str:
    """as_function's source for x^exponent; the namespace's names are numbered
    from k8 in the order they are made, the sign test's error first."""
    k = 8 + tested
    return ("def f(arg):\n"
            f"    if type(arg) is not float or not isfinite(arg): arg = real(arg, k{k + 1})\n"
            "    t1 = arg\n"
            f"    t2 = {exponent}\n"
            + ("    if t1 < 0.0 and t2 != floor(t2): raise k8(t1)\n" if tested else "")
            + "    try:\n        t0 = pow(t1, t2)\n    except Raised:\n"
            f"        raise k{k}(t1) from None\n    return t0\n")


# x^c at each of POW_POINTS, as float.hex or the DomainError's message,
# written before the sign test was dropped for integral exponents.
POW_POINTS = [-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 5e-324, 0.5, 1.5, 2.0, 1e200, -1e200,
              1e-200, -1e-200]
POW_TABLE = [
    ('x^2', [
        '0x1.0000000000000p+2', '0x1.2000000000000p+1', '0x1.0000000000000p+0',
        '0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-2',
        '0x1.2000000000000p+1', '0x1.0000000000000p+2',
        'power is not a finite real in x^2.0 (argument 1e+200)',
        'power is not a finite real in x^2.0 (argument -1e+200)', '0x0.0p+0', '0x0.0p+0',
    ]),
    ('x^3', [
        '-0x1.0000000000000p+3', '-0x1.b000000000000p+1', '-0x1.0000000000000p+0',
        '-0x1.0000000000000p-3', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-3',
        '0x1.b000000000000p+1', '0x1.0000000000000p+3',
        'power is not a finite real in x^3.0 (argument 1e+200)',
        'power is not a finite real in x^3.0 (argument -1e+200)', '0x0.0p+0', '-0x0.0p+0',
    ]),
    ('x^-2', [
        '0x1.0000000000000p-2', '0x1.c71c71c71c71cp-2', '0x1.0000000000000p+0',
        '0x1.0000000000000p+2', 'power is not a finite real in x^-2.0 (argument -0.0)',
        'power is not a finite real in x^-2.0 (argument 0.0)',
        'power is not a finite real in x^-2.0 (argument 5e-324)', '0x1.0000000000000p+2',
        '0x1.c71c71c71c71cp-2', '0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0',
        'power is not a finite real in x^-2.0 (argument 1e-200)',
        'power is not a finite real in x^-2.0 (argument -1e-200)',
    ]),
    ('x^0', [
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0',
    ]),
    ('x^1e300', [
        'power is not a finite real in x^1e+300 (argument -2.0)',
        'power is not a finite real in x^1e+300 (argument -1.5)', '0x1.0000000000000p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        'power is not a finite real in x^1e+300 (argument 1.5)',
        'power is not a finite real in x^1e+300 (argument 2.0)',
        'power is not a finite real in x^1e+300 (argument 1e+200)',
        'power is not a finite real in x^1e+300 (argument -1e+200)', '0x0.0p+0', '0x0.0p+0',
    ]),
    ('(x-1)^2', [
        '0x1.2000000000000p+3', '0x1.9000000000000p+2', '0x1.0000000000000p+2',
        '0x1.2000000000000p+1', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p+0', 'power is not a finite real in (x-1.0)^2.0 (argument 1e+200)',
        'power is not a finite real in (x-1.0)^2.0 (argument -1e+200)', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
    ]),
    ('x^0.5', [
        'negative base with non-integer exponent in x^0.5 (argument -2.0)',
        'negative base with non-integer exponent in x^0.5 (argument -1.5)',
        'negative base with non-integer exponent in x^0.5 (argument -1.0)',
        'negative base with non-integer exponent in x^0.5 (argument -0.5)', '0x0.0p+0',
        '0x0.0p+0', '0x1.0000000000000p-537', '0x1.6a09e667f3bcdp-1', '0x1.3988e1409212ep+0',
        '0x1.6a09e667f3bcdp+0', '0x1.249ad2594c37dp+332',
        'negative base with non-integer exponent in x^0.5 (argument -1e+200)',
        '0x1.bff2ee48e0530p-333',
        'negative base with non-integer exponent in x^0.5 (argument -1e-200)',
    ]),
    ('x^-0.5', [
        'negative base with non-integer exponent in x^-0.5 (argument -2.0)',
        'negative base with non-integer exponent in x^-0.5 (argument -1.5)',
        'negative base with non-integer exponent in x^-0.5 (argument -1.0)',
        'negative base with non-integer exponent in x^-0.5 (argument -0.5)',
        'power is not a finite real in x^-0.5 (argument -0.0)',
        'power is not a finite real in x^-0.5 (argument 0.0)', '0x1.0000000000000p+537',
        '0x1.6a09e667f3bcdp+0', '0x1.a20bd700c2c3ep-1', '0x1.6a09e667f3bcdp-1',
        '0x1.bff2ee48e0530p-333',
        'negative base with non-integer exponent in x^-0.5 (argument -1e+200)',
        '0x1.249ad2594c37dp+332',
        'negative base with non-integer exponent in x^-0.5 (argument -1e-200)',
    ]),
    ('x^x', [
        '0x1.0000000000000p-2',
        'negative base with non-integer exponent in x^x (argument -1.5)',
        '-0x1.0000000000000p+0',
        'negative base with non-integer exponent in x^x (argument -0.5)',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.6a09e667f3bcdp-1', '0x1.d64d51e0db1c6p+0', '0x1.0000000000000p+2',
        'power is not a finite real in x^x (argument 1e+200)', '0x0.0p+0',
        '0x1.0000000000000p+0',
        'negative base with non-integer exponent in x^x (argument -1e-200)',
    ]),
    ('2^x', [
        '0x1.0000000000000p-2', '0x1.6a09e667f3bcdp-2', '0x1.0000000000000p-1',
        '0x1.6a09e667f3bcdp-1', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.6a09e667f3bcdp+0', '0x1.6a09e667f3bcdp+1',
        '0x1.0000000000000p+2', 'power is not a finite real in 2.0^x (argument 2.0)',
        '0x0.0p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
    ]),
    ('x^(1+1)', [
        '0x1.0000000000000p+2', '0x1.2000000000000p+1', '0x1.0000000000000p+0',
        '0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-2',
        '0x1.2000000000000p+1', '0x1.0000000000000p+2',
        'power is not a finite real in x^(1.0+1.0) (argument 1e+200)',
        'power is not a finite real in x^(1.0+1.0) (argument -1e+200)', '0x0.0p+0', '0x0.0p+0',
    ]),

]


class TestPowSignTest:
    """A negative base with a non-integer exponent is a DomainError. An
    integral float constant exponent can never be one, so its power has no
    such test; other exponents keep it."""

    @pytest.mark.parametrize("text,exponent,tested", [
        ("x^2", "2.0", False), ("x^3", "3.0", False), ("x^0.5", "0.5", True),
        ("x^x", "arg", True)])
    def test_emitted_source(self, text, exponent, tested, monkeypatch):
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        as_function(parse(text))
        assert sources == [_pow_source(exponent, tested)]

    @pytest.mark.parametrize("text,expected", POW_TABLE, ids=[r[0] for r in POW_TABLE])
    def test_values(self, text, expected):
        f = as_function(parse(text))
        outcomes = []
        for x in POW_POINTS:
            try:
                outcomes.append(f(x).hex())
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes == expected


_leaf = st.one_of(
    st.builds(Constant, st.floats(min_value=0.0, max_value=1e6,
                                  allow_nan=False, allow_infinity=False)),
    st.builds(Variable, st.sampled_from(["x", "y", "t_0"])),
)


def _compound(children):
    return st.one_of(
        st.builds(Unary, st.just("neg"), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                  children, children),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["abs", "sign", "sin", "cos", "tan",
                                   "exp", "log", "sqrt"]), children),
        st.builds(lambda f, a, b: Call(f, (a, b)),
                  st.sampled_from(["min", "max"]), children, children),
    )


_expr_trees = st.recursive(_leaf, _compound, max_leaves=25)


class TestRender:
    @settings(max_examples=200, deadline=None)
    @given(_expr_trees)
    def test_round_trip(self, tree):
        assert parse(render(tree)) == tree

    @pytest.mark.parametrize("text", [
        "x*sin(1/x)", "a-(b-c)", "a/(b*c)", "(a+b)*c", "2^3^2", "(2^3)^2",
        "-x^2", "-(x+1)", "min(x,max(y,1))", "x-y-z", "abs(x)+1e-09",
    ])
    def test_reparse_is_identity_on_strings(self, text):
        tree = parse(text)
        assert parse(render(tree)) == tree


_A, _B, _C = Variable("a"), Variable("b"), Variable("c")

# Every binary op as the left and as the right child of every binary op:
# (parent, child, printed with the child on the left, on the right). The
# round trips above accept redundant brackets; this pins the ones printed.
BINARY_NESTING_TABLE = [
    ("add", "add", "a+b+c", "a+(b+c)"),
    ("add", "sub", "a-b+c", "a+(b-c)"),
    ("add", "mul", "a*b+c", "a+b*c"),
    ("add", "div", "a/b+c", "a+b/c"),
    ("add", "pow", "a^b+c", "a+b^c"),
    ("sub", "add", "a+b-c", "a-(b+c)"),
    ("sub", "sub", "a-b-c", "a-(b-c)"),
    ("sub", "mul", "a*b-c", "a-b*c"),
    ("sub", "div", "a/b-c", "a-b/c"),
    ("sub", "pow", "a^b-c", "a-b^c"),
    ("mul", "add", "(a+b)*c", "a*(b+c)"),
    ("mul", "sub", "(a-b)*c", "a*(b-c)"),
    ("mul", "mul", "a*b*c", "a*(b*c)"),
    ("mul", "div", "a/b*c", "a*(b/c)"),
    ("mul", "pow", "a^b*c", "a*b^c"),
    ("div", "add", "(a+b)/c", "a/(b+c)"),
    ("div", "sub", "(a-b)/c", "a/(b-c)"),
    ("div", "mul", "a*b/c", "a/(b*c)"),
    ("div", "div", "a/b/c", "a/(b/c)"),
    ("div", "pow", "a^b/c", "a/b^c"),
    ("pow", "add", "(a+b)^c", "a^(b+c)"),
    ("pow", "sub", "(a-b)^c", "a^(b-c)"),
    ("pow", "mul", "(a*b)^c", "a^(b*c)"),
    ("pow", "div", "(a/b)^c", "a^(b/c)"),
    ("pow", "pow", "(a^b)^c", "a^b^c"),
]

RENDER_TABLE = (
    [(Binary(p, Binary(c, _A, _B), _C), left) for p, c, left, _ in BINARY_NESTING_TABLE]
    + [(Binary(p, _A, Binary(c, _B, _C)), right) for p, c, _, right in BINARY_NESTING_TABLE]
    + [(Unary("neg", Binary("add", _A, _B)), "-(a+b)"),
       (Unary("neg", Binary("sub", _A, _B)), "-(a-b)"),
       (Unary("neg", Binary("mul", _A, _B)), "-(a*b)"),
       (Unary("neg", Binary("div", _A, _B)), "-(a/b)"),
       (Unary("neg", Binary("pow", _A, _B)), "-(a^b)"),
       (Unary("neg", Unary("neg", _A)), "--a"),
       (Call("sin", (Binary("add", _A, _B),)), "sin(a+b)")]
)


class TestRenderTable:
    @pytest.mark.parametrize("tree,text", RENDER_TABLE, ids=[t for _, t in RENDER_TABLE])
    def test_exact_text(self, tree, text):
        assert render(tree) == text
        assert parse(text) == tree


class TestNonFiniteConstants:
    @pytest.mark.parametrize("text,offset", [("1e999", 0), ("x + 1e999", 4),
                                             ("sin(2e400*x)", 4)])
    def test_overflowing_literal_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset
        assert exc.value.expected == "a finite number"

    @pytest.mark.parametrize("tree", [
        Binary("add", Constant(math.inf), Variable("x")),
        Call("abs", (Constant(-math.inf),)),
        Call("max", (Constant(math.inf), Constant(0.0))),
        Call("min", (Variable("x"), Constant(math.nan))),
        Binary("add", Constant(10**400), Variable("x")),
        Binary("add", Constant(Decimal("sNaN")), Variable("x")),
    ])
    def test_hand_built_constant_raises_when_evaluated(self, tree):
        f = as_function(tree, "x")
        with pytest.raises(DomainError, match="constant is not a finite real"):
            evaluate(tree, {"x": 1.0})
        with pytest.raises(DomainError, match="constant is not a finite real"):
            f(1.0)

    @pytest.mark.parametrize("tree", [
        Binary("mul", Constant(10**200), Constant(10**200)),
        Binary("add", Constant(10**308), Constant(10**308)),
        Binary("sub", Unary("neg", Constant(10**308)), Constant(10**308)),
        Binary("mul", Call("max", (Constant(10**200), Constant(1.0))), Constant(10**200)),
    ])
    def test_int_constants_too_large_together_raise(self, tree):
        """Finite int constants whose exact result no double holds: the
        node's DomainError, as for Constant(10**200) * x, not the
        OverflowError of math.isfinite on a huge int."""
        message = f"result is not a finite real in {render(tree)}"
        with pytest.raises(DomainError) as exc:
            evaluate(tree, {})
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            as_function(Binary("add", tree, Variable("x")), "x")(1.0)
        assert str(exc.value) == message
        with pytest.raises(DomainError, match="result is not a finite real"):
            evaluate(Binary("mul", Constant(10**200), Variable("x")), {"x": 1e200})

    def test_int_constants_keep_their_exact_result(self):
        assert repr(evaluate(Binary("mul", Constant(3), Constant(4)), {})) == "12"
        big = Binary("sub", Binary("add", Constant(10**17), Constant(1)), Constant(10**17))
        assert repr(evaluate(big, {})) == "1"

    def test_float_nodes_keep_the_bare_check(self, monkeypatch):
        """Only a node over constants that are not floats calls the check
        that tolerates an int: a parsed expression's nodes compute in floats."""
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        as_function(parse("2*3*x + (1 - 4)"))
        checks = [line.strip() for line in sources[0].splitlines() if "finite" in line]
        assert len(checks) == 5  # f's head, then the four binary nodes
        assert all(c.startswith("if not isfinite(t") for c in checks[1:])
        sources.clear()
        as_function(Binary("add", Binary("mul", Constant(2), Constant(3)), Variable("x")))
        assert "isfinite(t" in sources[0]
        assert sum(line.strip().startswith("if not isfinite(t")
                   for line in sources[0].splitlines()) == 1  # x's node; 2*3 takes the other


NON_FINITE = [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400"),
              pytest.param(-10**400, id="-10**400"),
              pytest.param(Decimal("NaN"), id="Decimal-NaN"),
              pytest.param(Decimal("sNaN"), id="Decimal-sNaN")]


class TestNonFiniteBindings:
    @pytest.mark.parametrize("text", ["abs(x)", "max(x,0)", "x", "-x", "sign(x)",
                                      "min(1,x)", "x+1", "1/x", "exp(x)", "x^2",
                                      "sin(x)*x", "2*abs(x)", "-(x^2)", "x^x",
                                      "(0-2)^x"])
    @pytest.mark.parametrize("t", NON_FINITE, ids=repr)
    def test_non_finite_argument_raises(self, text, t):
        with pytest.raises(DomainError, match="not bound to a finite real"):
            evaluate(parse(text), {"x": t})
        with pytest.raises(DomainError, match="not bound to a finite real"):
            as_function(parse(text))(t)

    def test_finite_arguments_unchanged(self):
        for text in ("abs(x)", "max(x,0)", "x", "-x", "sign(x)", "min(1,x)"):
            f = as_function(parse(text))
            for t in (-2.5, 0.0, 1e-300, 3.0):
                assert f(t) == evaluate(parse(text), {"x": t})


def _nested(depth_levels: int, kind: str) -> str:
    n = depth_levels - 1   # levels above the innermost x
    return {"brackets": "(" * n + "x" + ")" * n,
            "signs": "-" * n + "x",
            "calls": "sin(" * n + "x" + ")" * n,
            "sum": "+".join(["x"] * depth_levels),
            "powers": "^".join(["x"] * depth_levels)}[kind]


def _iterate(step, x: float) -> float:
    """step applied _MAX_DEPTH - 1 times to x: the value of the deepest call
    chain or power tower in x."""
    for _ in range(_MAX_DEPTH - 1):
        x = step(x)
    return x


class TestNestingLimit:
    @pytest.mark.parametrize("text,offset", [
        ("(" * 1000 + "x" + ")" * 1000, _MAX_DEPTH - 1),
        ("-" * 1000 + "x", _MAX_DEPTH - 1),
        ("sin(" * 1000 + "x" + ")" * 1000, 4 * (_MAX_DEPTH - 1)),
        # a flat chain nests through the tree it builds: the limit is
        # crossed at the operator that would make the tree too deep
        ("+".join(["x"] * 1000), 2 * _MAX_DEPTH - 1),
    ], ids=["brackets", "signs", "calls", "sum"])
    def test_deep_input_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset
        assert exc.value.expected == f"at most {_MAX_DEPTH} levels of nesting"

    @pytest.mark.parametrize("kind", ["brackets", "signs", "calls", "sum", "powers"])
    def test_limit_is_exact(self, kind):
        parse(_nested(_MAX_DEPTH, kind))
        with pytest.raises(ParseError):
            parse(_nested(_MAX_DEPTH + 1, kind))

    @pytest.mark.parametrize("kind,x,expected", [
        ("brackets", 0.25, 0.25), ("signs", 0.25, -0.25), ("sum", 0.25, 25.0),
        ("calls", 0.25, _iterate(math.sin, 0.25)),
        ("powers", 0.5, _iterate(partial(math.pow, 0.5), 0.5)),
    ])
    def test_deepest_accepted_input_evaluates(self, kind, x, expected):
        e = parse(_nested(_MAX_DEPTH, kind))
        assert evaluate(e, {"x": x}) == expected
        assert as_function(e)(x) == expected
        assert parse(render(e)) == e
        # the oracle's derivative trees are a few times deeper than e
        assert math.isfinite(symbolic_derivative_value(e, "x", x).value)

    def test_deepest_power_tower_derivative_is_a_domain_error(self):
        # 1.5^1.5^... overflows: a DomainError, not a RecursionError
        with pytest.raises(DomainError, match="power is not a finite real"):
            symbolic_derivative_value(parse(_nested(_MAX_DEPTH, "powers")), "x", 1.5)


class TestInputErrors:
    """Each public raise site of the module that no other test reaches."""

    @pytest.mark.parametrize("call,message", [
        (lambda: render(Constant(math.inf)), "cannot render a non-finite constant"),
        (lambda: render(Constant(10**400)), "cannot render a non-finite constant"),
        (lambda: render(Constant(Decimal("sNaN"))), "cannot render a non-finite constant"),
        (lambda: as_function(parse("x*y"), "x"), "free variables besides 'x'"),
        (lambda: as_function(Call("min", (_A,)), "a"), "min takes 2 argument(s), got 1"),
        (lambda: evaluate(Call("sin", (_A, _A)), {"a": 1.0}), "sin takes 1 argument(s), got 2"),
    ], ids=["render-non-finite-constant", "render-huge-int-constant",
            "render-signalling-nan-constant", "as-function-extra-variable",
            "call-with-too-few-arguments", "call-with-too-many-arguments"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert message in str(exc.value)


def _reference(e, env):
    """A tree walk with the evaluator's documented semantics, independent of
    the generated code: each node's IEEE operation in tree order (left
    before right, arguments before the call) and its DomainError at the
    node itself."""
    if isinstance(e, Constant):
        if not math.isfinite(e.value):
            raise DomainError("constant is not a finite real", argument=e.value)
        return e.value
    if isinstance(e, Variable):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        v = float(env[e.name])
        if not math.isfinite(v):
            raise DomainError("variable is not bound to a finite real", subject=e.name,
                              argument=v)
        return v
    if isinstance(e, Unary):
        return -_reference(e.child, env)
    if isinstance(e, Call):
        args = [_reference(a, env) for a in e.args]
        if e.fn in BINARY_FUNCTIONS:
            return (min if e.fn == "min" else max)(*args)
        fn = {"abs": math.fabs, "sin": math.sin, "cos": math.cos, "tan": math.tan,
              "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
              "sign": lambda u: 0.0 if u == 0.0 else math.copysign(1.0, u)}[e.fn]
        try:
            return fn(args[0])
        except (ValueError, OverflowError):
            raise DomainError(f"{e.fn} applied outside its domain", subject=render(e),
                              argument=args[0]) from None
    left, right = _reference(e.left, env), _reference(e.right, env)
    if e.op == "pow":
        if left < 0.0 and right != math.floor(right):
            raise DomainError("negative base with non-integer exponent", subject=render(e),
                              argument=left)
        try:
            return math.pow(left, right)
        except (ValueError, OverflowError):
            raise DomainError("power is not a finite real", subject=render(e),
                              argument=left) from None
    if e.op == "div":
        if right == 0.0:
            raise DomainError("division by zero", subject=render(e), argument=right)
        v = left / right
    else:
        v = {"add": left + right, "sub": left - right, "mul": left * right}[e.op]
    if not math.isfinite(v):
        raise DomainError("result is not a finite real", subject=render(e))
    return v


def _outcome(call):
    """A result as float.hex, or an error as (type, str, subject, argument)."""
    try:
        return call().hex()
    except (DomainError, UnboundVariableError) as exc:
        return (type(exc), str(exc), getattr(exc, "subject", None),
                repr(getattr(exc, "argument", None)))


# Constants that reach every DomainError: zero divisors, negative bases and
# arguments, overflow, non-finite values.
_ref_leaf = st.one_of(
    st.builds(Constant, st.sampled_from([0.0, -0.0, 0.5, 2.0, -1.5, 3.0, 1e300, 1e-300,
                                         710.0, 400.0, math.inf, -math.inf, math.nan])),
    st.builds(Constant, st.floats(min_value=-4.0, max_value=4.0)),
    st.just(Variable("x")),
)


def _ref_compound(children):
    # besides every node kind, subtrees that occur twice as one object
    return st.one_of(
        _compound(children),
        st.builds(lambda op, a: Binary(op, a, a),
                  st.sampled_from(["add", "sub", "mul", "div", "pow"]), children),
        st.builds(lambda f, a, b: Call(f, (a, Binary("sub", b, a))),
                  st.sampled_from(["min", "max"]), children, children),
    )


_ref_trees = st.recursive(_ref_leaf, _ref_compound, max_leaves=12)


def _subtrees(e):
    """e and every subtree of it, a node before its children, right child first."""
    children = (e.child,) if isinstance(e, Unary) else (
        (e.left, e.right) if isinstance(e, Binary) else getattr(e, "args", ()))
    return [e] + [s for c in reversed(children) for s in _subtrees(c)]


class TestGeneratedCodeAgainstReference:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=_ref_trees, t=st.one_of(st.sampled_from(EDGE_DOUBLES + [0.5, -2.0, 1.0]),
                                        st.floats(allow_nan=False, allow_infinity=False)))
    def test_same_value_or_same_error(self, tree, t):
        expected = _outcome(lambda: _reference(tree, {"x": t}))
        assert _outcome(lambda: evaluate(tree, {"x": t})) == expected
        assert _outcome(lambda: as_function(tree, "x")(t)) == expected

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=_ref_trees, t=st.one_of(st.sampled_from(EDGE_DOUBLES + [0.5, -2.0, 1.0]),
                                        st.floats(allow_nan=False, allow_infinity=False)))
    def test_each_subtree_in_turn(self, tree, t):
        # the tree's subtrees share their nodes as one object: each yields its
        # own outcome, until the first error, also where a later tree holds
        # an earlier one (leaves first) or a sibling of it (root first)
        subs = _subtrees(tree)
        for order in (subs, subs[::-1]):
            values = evaluate_each(order, {"x": t})
            for sub in order:
                outcome = _outcome(lambda: next(values))
                assert outcome == _outcome(lambda: _reference(sub, {"x": t}))
                if not isinstance(outcome, str):
                    break

    @pytest.mark.parametrize("t", NON_FINITE, ids=repr)
    def test_non_finite_argument_is_checked_first(self, t):
        tree = Binary("add", Call("log", (Constant(-1.0),)), Variable("x"))
        assert _outcome(lambda: as_function(tree, "x")(t)) == (
            DomainError, f"variable is not bound to a finite real in x (argument {t!r})",
            "x", repr(t))
        assert _outcome(lambda: evaluate(tree, {"x": t}))[1] == (
            "log applied outside its domain in log(-1.0) (argument -1.0)")


class TestNoTreeTextIsCompiled:
    """Names and constants reach the generated code through its namespace,
    never as source text."""

    CODE = "__import__('os').getcwd()"

    def compiled(self, monkeypatch) -> list[str]:
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        return sources

    @pytest.mark.parametrize("name", [CODE, "arg", "t0", "k7", "isfinite"])
    def test_variable_name_is_a_name(self, name, monkeypatch):
        sources = self.compiled(monkeypatch)
        tree = Binary("mul", Variable(name), Call("log", (Variable(name),)))
        assert evaluate(tree, {name: math.e}) == math.e
        assert as_function(tree, name)(math.e) == math.e
        with pytest.raises(UnboundVariableError) as exc:
            evaluate(tree, {})
        assert exc.value.name == name
        with pytest.raises(DomainError) as exc:
            as_function(tree)(-1.0)
        assert str(exc.value) == (f"log applied outside its domain in log({name}) "
                                  "(argument -1.0)")
        assert len(sources) == 4 and not any(self.CODE in s for s in sources)

    def test_int_constant_is_a_value(self, monkeypatch):
        sources = self.compiled(monkeypatch)
        value = 12345678901
        assert evaluate(Constant(value), {}) == value
        assert type(evaluate(Constant(value), {})) is int
        tree = Binary("add", Constant(value), Variable("x"))
        assert evaluate(tree, {"x": 0.5}) == 12345678901.5
        assert as_function(tree)(0.5) == 12345678901.5
        assert len(sources) == 4 and not any(str(value) in s for s in sources)


class TestEvaluateEach:
    def test_values_in_turn_from_one_function(self, monkeypatch):
        trees = [parse(text) for text in ("x", "x^2", "sin(x)+1", "min(x,2)")]
        expected = [evaluate(tree, {"x": 3.0}) for tree in trees]
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        assert list(evaluate_each(trees, {"x": 3.0})) == expected
        assert len(sources) == 1
        assert list(evaluate_each([], {})) == []

    def test_a_shared_node_is_evaluated_once(self):
        reads = []

        class Bindings(dict):
            def __getitem__(self, name):
                reads.append(name)
                return super().__getitem__(name)
        inner = Call("sin", (Variable("x"),))
        outer = Binary("mul", inner, Constant(2.0))
        assert list(evaluate_each([outer, inner], Bindings(x=0.5))) == [
            2 * math.sin(0.5), math.sin(0.5)]
        assert reads == ["x"]

    def test_a_later_tree_raises_only_when_reached(self):
        values = evaluate_each([parse("x"), parse("log(x)")], {"x": 0.0})
        assert next(values) == 0.0
        with pytest.raises(DomainError, match="log applied outside its domain"):
            next(values)
