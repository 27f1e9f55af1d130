import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (Binary, Call, Constant, DomainError, ParseError,
                         Unary, UnboundVariableError, Variable, as_function,
                         evaluate, free_vars, parse, render)
from filterderiv.expr import _MAX_DEPTH, BINARY_FUNCTIONS, UNARY_FUNCTIONS


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
    ])
    def test_hand_built_constant_raises_when_evaluated(self, tree):
        f = as_function(tree, "x")
        with pytest.raises(DomainError, match="constant is not a finite real"):
            evaluate(tree, {"x": 1.0})
        with pytest.raises(DomainError, match="constant is not a finite real"):
            f(1.0)


NON_FINITE = [math.inf, -math.inf, math.nan]


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
    ])
    def test_deepest_accepted_input_evaluates(self, kind, x, expected):
        e = parse(_nested(_MAX_DEPTH, kind))
        assert evaluate(e, {"x": x}) == expected
        assert as_function(e)(x) == expected
        assert parse(render(e)) == e


class TestInputErrors:
    """Each public raise site of the module that no other test reaches."""

    @pytest.mark.parametrize("call,message", [
        (lambda: render(Constant(math.inf)), "cannot render a non-finite constant"),
        (lambda: as_function(parse("x*y"), "x"), "free variables besides 'x'"),
    ], ids=["render-non-finite-constant", "as-function-extra-variable"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert message in str(exc.value)
