import math
import random
import sys
import weakref
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterderiv import expr as expr_module
from filterderiv import fderiv
from filterderiv import (CONVERGED, INCONCLUSIVE, NO_LIMIT, BaseNotPuncturedError, Binary,
                         Constant, DomainError, LimitConfig, QUOTIENT_RULE_NOTE,
                         SequenceSpec, SetDescriptor, Variable, as_function,
                         chain_from_elements, check_linearity, check_product_rule,
                         check_quotient_rule, classical_derivative,
                         derivative, difference_quotient, f_continuity,
                         left_base, parse, punctured_base, right_base,
                         sequence_base, symbolic_derivative_value)
from filterderiv.flimit import _finite_values, estimate_limit
from corpus import (GRID_BASES, GRID_POINTS, GRID_TEXTS, KINK_TEXTS, POSITIVE_TEXTS, PQ_CFG,
                    SMOOTH_CASES, SMOOTH_CFG, SMOOTH_TEXTS, named_functions, one_sided_bases,
                    pick_rule_instance, two_sided_bases)
from test_expr import _ref_compound, _ref_trees

ABS = as_function(parse("abs(x)"))
IDENT = as_function(parse("x"))
SIGN = as_function(parse("sign(x)"))
CFG = LimitConfig()
NON_FINITE = [math.nan, math.inf, -math.inf]
TOO_LARGE = pytest.param(10**400, id="10**400")  # an int no double holds
DECIMAL_NANS = [Decimal("NaN"), Decimal("sNaN")]  # not decimal.InvalidOperation either


class TestDifferenceQuotient:
    def test_abs_quotient_is_sign(self):
        q = difference_quotient(ABS, 0.0)
        assert q(0.25) == 1.0
        assert q(-0.25) == -1.0

    def test_constant_quotient_is_zero(self):
        q = difference_quotient(lambda x: 3.25, 7.0)
        assert q(0.5) == 0.0 and q(-2.0) == 0.0

    def test_square_quotient_frozen_values(self):
        # (f(1+h) - f(1))/h = 2 + h, exact in binary at these h
        q = difference_quotient(as_function(parse("x^2")), 1.0)
        assert q(0.5) == 2.5
        assert q(0.25) == 2.25
        assert q(-0.5) == 1.5
        assert q(-0.25) == 1.75

    def test_zero_increment_rejected(self):
        with pytest.raises(DomainError):
            difference_quotient(ABS, 0.0)(0.0)


def _values_or_error(call):
    """A list of values as reprs, or an error as (type, str, repr of its argument)."""
    try:
        return [repr(v) for v in call()]
    except Exception as exc:
        return type(exc), str(exc), repr(getattr(exc, "argument", None))


_OVERFLOW = Binary("mul", Binary("mul", Variable("x"), Constant(1e308)), Constant(10.0))

_EDGE_HS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 0.5, -0.25, 1e300,
            -sys.float_info.max]

# derivative along punctured_base(1.0, 0.5) under the default config, written
# before a compiled f had a level form: (text, x0, status, value, levels, detail)
LEVEL_FORM_TABLE = [
    ("log(x)", 0.25, "domain-error", None, 0, "domain error at level 0: log applied "
     "outside its domain in log(x) (argument -0.7415523077682843)"),
    ("log(x)", 10**400, "domain-error", None, 0, "domain error at level 0: variable is not "
     f"bound to a finite real in x (argument {10**400!r})"),
    ("sqrt(cos(x*1000)+0.999)", 0.0, "domain-error", None, 0, "domain error at level 0: "
     "sqrt applied outside its domain in sqrt(cos(x*1000.0)+0.999) "
     "(argument -0.0009762634955208238)"),
    ("sqrt(cos(x*1000)+0.999)", 0.5, "domain-error", None, 3, "domain error at level 3: "
     "sqrt applied outside its domain in sqrt(cos(x*1000.0)+0.999) "
     "(argument -0.0006272790460192246)"),
    ("exp(x)", 709.0, "domain-error", None, 0, "domain error at level 0: exp applied "
     "outside its domain in exp(x) (argument 709.8258774751673)"),
    ("sign(x)*1.7e308", 0.0, "domain-error", None, 0, "domain error at level 0: function "
     "value is not a finite real (argument -0.9398518511905846)"),
    ("x", 0.5, "converged", 1.0, 3, None),
    ("x^2", 3, "converged", 5.9999999991529736, 25, None),
    ("abs(x)", 0.0, "no-limit", None, 49, "oscillation stayed >= 1e-06 on the last 3 levels "
     "(last = 2.0)"),
]


class TestLevelForm:
    """The quotient of an f from as_function computes a level in one loop
    that fderiv builds from f.expr; a plain callable's computes it one point
    at a time. Both give the same values, and where a point fails, the same
    error."""

    def test_compiled_once_when_first_map_is_made(self, monkeypatch):
        # as_function compiles f alone; the level form is compiled for the
        # first map and kept for later maps and derivatives of f
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        f = as_function(parse("x^2"))
        assert [s.split("(")[0] for s in sources] == ["def f"]
        assert not hasattr(f, "quotients")
        assert difference_quotient(f, 1.0).finite_values([0.5, -0.25]) == [2.5, 1.75]
        assert [s.split("(")[0] for s in sources] == ["def f", "def quotients"]
        assert difference_quotient(f, 2.0).finite_values([0.25]) == [4.25]
        assert derivative(f, 0.5, P, C).status == CONVERGED
        assert [s.split("(")[0] for s in sources] == ["def f", "def quotients"]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=_ref_trees,
           x0=st.one_of(st.floats(), st.integers(-10**6, 10**6),
                        st.sampled_from([10**400, -10**400, 2**1024]),
                        st.fractions(), st.decimals()),
           hs=st.lists(st.one_of(st.sampled_from(_EDGE_HS),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=6))
    def test_same_values_or_same_error(self, tree, x0, hs):
        f = as_function(tree, "x")
        expected = _values_or_error(
            lambda: _finite_values(difference_quotient(lambda t: f(t), x0), hs))
        assert _values_or_error(
            lambda: _finite_values(difference_quotient(f, x0), hs)) == expected
        # the level form fails only where a point fails, so it is not skipped
        level = _values_or_error(lambda: difference_quotient(f, x0).finite_values(hs))
        assert (level == expected) if isinstance(expected, list) else type(level) is tuple

    @pytest.mark.parametrize("text,x0,status,value,levels,detail", LEVEL_FORM_TABLE,
                             ids=[f"{r[0]}@{repr(r[1])[:8]}" for r in LEVEL_FORM_TABLE])
    def test_pinned_derivative(self, text, x0, status, value, levels, detail):
        res = derivative(as_function(parse(text)), x0, punctured_base(1.0, 0.5), CFG)
        est = res.estimate
        assert (est.status, est.value, len(est.trace), est.failure_detail) == (
            status, value, levels, detail)

    def test_decimal_x0_raises_as_points_do(self):
        f, x0 = as_function(parse("x^2")), Decimal("0.5")
        for check in (lambda: derivative(f, x0, P, C), lambda: f_continuity(f, x0, P, C),
                      lambda: check_product_rule(f, f, x0, P, C, 1e-5)):
            with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
                check()

    def test_short_level_redone_point_by_point(self, monkeypatch):
        # the rule's level loop raises on level 2, which takes the row path:
        # f is read there point by point and raises too, and f's estimates
        # redo the level one point at a time, so no level form is compiled
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        rep = check_product_rule(as_function(parse("sqrt(cos(x*1000)+0.999)")),
                                 as_function(parse("x+1")), 0.0, right_base(1.0, 0.5),
                                 LimitConfig(), 1e-5)
        assert rep.verdict == "inconclusive"
        assert [s.split("(")[0] for s in sources] == [
            "def f", "def f", "def rule"]

    ROW_PATH_CASES = [  # (rule, f, g): the rule loop raises on a level
        ("linearity", "sqrt(cos(x*1000)+0.999)", "x+1"),  # f leaves its domain
        ("product", "sqrt(cos(x*1000)+0.999)", "x+1"),
        ("quotient", "sqrt(cos(x*1000)+0.999)", "x+1"),
        ("product", "exp(x*709.7)", "exp(x*709.7)"),  # f*g overflows
        ("quotient", "exp(x*709.7)", "x-1"),  # f/g divides by zero at x = 1
    ]

    @pytest.mark.parametrize("rule,f_text,g_text", ROW_PATH_CASES,
                             ids=[f"{r}-{f}-{g}" for r, f, g in ROW_PATH_CASES])
    def test_row_path_matches_plain_callables(self, rule, f_text, g_text, monkeypatch):
        # a level where the rule loop raises reads f and g point by point, and
        # the report is the one their plain views, which have no loop, give
        raised = []

        def spy(f, g, rule):
            loop = rule_loop(f, g, rule)

            def run(*args):
                try:
                    return loop(*args)
                except Exception:
                    raised.append(args[-1])
                    raise
            return run
        rule_loop = fderiv._level_form
        monkeypatch.setattr(fderiv, "_level_form", spy)
        f, g = as_function(parse(f_text)), as_function(parse(g_text))
        b = right_base(1.0, 0.5)
        check = {"linearity": lambda f, g: check_linearity(f, g, 2.0, -1.5, 0.0, b, CFG, 1e-5),
                 "product": lambda f, g: check_product_rule(f, g, 0.0, b, CFG, 1e-5),
                 "quotient": lambda f, g: check_quotient_rule(f, g, 0.0, b, CFG, 1e-5)}[rule]
        rep = check(f, g)
        assert raised and rep == check(lambda x: f(x), lambda x: g(x))

    def test_plain_callable_has_no_level_form(self):
        assert not hasattr(difference_quotient(lambda t: t, 0.0), "finite_values")

    # a later operation would hide the overflow of x*1e308*10: 1/inf and
    # exp(-inf) are 0, 2^-inf is 0, sign(inf) is 1, min(inf, 1) is 1, inf^0
    # is 1, and inf - inf is nan, which only the quotient's test sees
    HIDDEN_OVERFLOW = ["1/(x*1e308*10)", "exp(0-x*1e308*10)", "2^(0-x*1e308*10)",
                       "sign(x*1e308*10)", "min(x*1e308*10,1)", "x*1e308*10-x*1e308*10",
                       "(x*1e308*10)^0", "exp(-(x*1e308*10))"]

    @pytest.mark.parametrize("text", HIDDEN_OVERFLOW)
    def test_value_a_later_operation_hides_still_fails(self, text):
        f = as_function(parse(text))
        est = derivative(f, 1.0, punctured_base(1, 0.5), LimitConfig()).estimate
        assert (est.status, len(est.trace), est.failure_detail) == (
            "domain-error", 0, "domain error at level 0: result is not a finite real "
            "in x*1e+308*10.0")
        # at 1e-10 f is defined, and the loop runs: it raises where the point does
        q = difference_quotient(f, 1e-10)
        assert all(math.isfinite(v) for v in q.finite_values([1e-12]))
        with pytest.raises(DomainError):
            q.finite_values([0.5])
        b = punctured_base(1, 0.5)
        assert (derivative(f, 1e-10, b, LimitConfig())
                == derivative(lambda t: f(t), 1e-10, b, LimitConfig()))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=st.recursive(st.sampled_from([_OVERFLOW, Variable("x"), Constant(0.0),
                                              Constant(-1.5), Constant(2.0)]),
                             _ref_compound, max_leaves=6),
           x0=st.sampled_from([0.0, 1e-10, -1e-10]),
           hs=st.lists(st.sampled_from([0.5, -0.25, 1e-12]), min_size=1, max_size=3))
    def test_overflow_fails_the_level_where_a_point_fails(self, tree, x0, hs):
        # x*1e308*10 overflows on |h| >= 0.25 only, under every kind of node
        f = as_function(tree, "x")
        expected = _values_or_error(
            lambda: _finite_values(difference_quotient(lambda t: f(t), x0), hs))
        level = _values_or_error(lambda: difference_quotient(f, x0).finite_values(hs))
        assert (level == expected) if isinstance(expected, list) else type(level) is tuple

    def test_quotients_whose_sum_overflows_are_values(self):
        f = as_function(parse("x*1e308"))
        hs = [0.25, 0.125, -0.25]
        values = difference_quotient(f, 1.0).finite_values(hs)
        assert values == _finite_values(difference_quotient(lambda t: f(t), 1.0), hs)
        assert sum(values) == math.inf

    @pytest.mark.parametrize("text,checks", [
        ("sin(x)*exp(x/2)", ["t4"]),  # exp would hide x/2's overflow, nothing else can
        ("exp(x)", ["arg"]),  # exp(-inf) is 0: the point is tested
        ("2+3", ["arg"]),  # a constant tree ignores the point: it is tested
        ("x*x+sin(x)", []),  # every node carries to the root
        ("x*x+1/x", ["arg"]),  # the divisor x: x/inf is 0
        ("1/(x*2)", ["t2"]),  # the divisor x*2, which tests x too
    ])
    def test_lean_loop_tests_only_what_could_be_hidden(self, text, checks, monkeypatch):
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        fderiv._level_form(as_function(parse(text)))
        lines = [line.strip() for line in sources[-1].splitlines()]
        assert [line.split("(")[1].split(")")[0] for line in lines
                if line.startswith("if not isfinite(") and "sum" not in line] == checks
        assert sum("isfinite(sum(o0))" in line for line in lines) == 1

    def test_level_form_is_freed_with_f(self):
        f = as_function(parse("sin(x)*x"))
        assert derivative(f, 0.5, P, C).status == CONVERGED
        form = weakref.ref(fderiv._level_form(f))
        assert fderiv._level_form(f) is form()  # kept: every map of f shares it
        del f
        assert form() is None  # at once: neither is in a reference cycle


class TestDerivative:
    def test_abs_right_is_exactly_one(self):
        res = derivative(ABS, 0.0, right_base(1.0, 0.5), CFG)
        assert res.status == CONVERGED
        assert res.value == 1.0

    def test_abs_left_is_exactly_minus_one(self):
        res = derivative(ABS, 0.0, left_base(1.0, 0.5), CFG)
        assert res.status == CONVERGED
        assert res.value == -1.0

    def test_abs_punctured_has_no_limit(self):
        res = derivative(ABS, 0.0, punctured_base(1.0, 0.5), CFG)
        assert res.status == NO_LIMIT
        assert all(r.oscillation == 2.0 for r in res.estimate.trace)

    def test_unpunctured_chain_rejected(self):
        chain = chain_from_elements(
            "with-zero", [SetDescriptor(intervals=((-1.0, 1.0),))])
        with pytest.raises(BaseNotPuncturedError):
            derivative(ABS, 0.0, chain, CFG)

    def test_result_carries_context(self):
        b = right_base(1.0, 0.5)
        res = derivative(ABS, 0.0, b, CFG)
        assert res.base_id == b.id
        assert res.x0 == 0.0
        assert res.cfg == CFG

    @pytest.mark.parametrize("f,message", [
        (math.log, "math domain error"),
        (lambda x: math.inf if x == 0 else x, "function value is not a finite real"),
        # an int no double holds: the same DomainError, not an OverflowError
        (lambda x: 10**400 if x == 0 else x, "function value is not a finite real"),
        # a signalling NaN: the gate's domain error, not a TypeError from the radius
        (lambda x: Decimal("sNaN") if x == 0 else x, "function value is not a finite real"),
    ], ids=["raises", "not-finite", "huge-int", "signalling-nan"])
    def test_failure_at_x0_names_x0(self, f, message):
        """A plain callable that fails at x0 is reported at x0, not at a sampled h."""
        b = right_base(1.0, 0.5)
        detail = f"domain error at level 0: {message} (argument 0.0)"
        assert derivative(f, 0.0, b, CFG).estimate.failure_detail == detail
        rep = check_linearity(f, f, 1.0, 1.0, 0.0, b, CFG, 1e-6)
        assert rep.verdict == INCONCLUSIVE
        for d in (rep.f_prime, rep.g_prime, rep.lhs):
            assert d.estimate.failure_detail == detail

    def test_values_past_x0_pass_the_gate(self):
        # f(x0 + h) is a Decimal: the quotient takes it as its float, as
        # estimate_limit does, where it was a TypeError in float - Decimal
        f, b = (lambda x: Decimal(repr(x))), right_base(1.0, 0.5)
        res = derivative(f, 0.5, b, CFG)
        assert (res.status, res.value) == (CONVERGED, 1.0)
        rep = check_linearity(f, f, 1.0, 1.0, 0.5, b, CFG, 1e-6)
        assert (rep.verdict, rep.lhs.value, rep.rhs_value) == ("holds", 2.0, 2.0)

    @pytest.mark.parametrize("bad", [10**400, *DECIMAL_NANS, Decimal("Infinity")],
                             ids=["10**400", "nan", "snan", "inf"])
    def test_value_past_x0_no_double_holds(self, bad):
        b = right_base(1.0, 0.5)
        h = b.sample(0, CFG.samples_per_level, CFG.seed)[0]
        res = derivative(lambda x: bad if x > 0.5 else Decimal(repr(x)), 0.5, b, CFG)
        assert res.estimate.failure_detail == (
            f"domain error at level 0: function value is not a finite real (argument {h!r})")


class TestClassicalDerivative:
    def test_square_at_one(self):
        res = classical_derivative(as_function(parse("x^2")), 1.0, SMOOTH_CFG)
        assert res.status == CONVERGED
        assert abs(res.value - 2.0) <= 2e-6

    def test_constant_is_zero(self):
        res = classical_derivative(lambda x: 4.5, 2.0, CFG)
        assert res.status == CONVERGED
        assert res.value == 0.0

    def test_oscillating_kink_has_no_limit(self):
        f = as_function(parse("x*sin(1/x)"))
        fext = lambda x: 0.0 if x == 0.0 else f(x)
        res = classical_derivative(fext, 0.0, CFG)
        assert res.status == NO_LIMIT


class TestFContinuity:
    def test_abs_continuous_from_right(self):
        rep = f_continuity(ABS, 0.0, right_base(1.0, 0.5), CFG)
        assert rep.is_continuous
        assert rep.target == 0.0
        assert rep.limit.status == CONVERGED

    def test_sign_not_continuous_from_right(self):
        rep = f_continuity(SIGN, 0.0, right_base(1.0, 0.5), CFG)
        assert not rep.is_continuous
        assert rep.limit.status == CONVERGED and rep.limit.value == 1.0

    def test_sign_not_continuous_across_zero(self):
        rep = f_continuity(SIGN, 0.0, punctured_base(1.0, 0.5), CFG)
        assert not rep.is_continuous
        assert rep.limit.status == NO_LIMIT

    def test_undefined_point_raises(self):
        with pytest.raises(DomainError):
            f_continuity(as_function(parse("log(x)")), 0.0,
                         right_base(1.0, 0.5), CFG)

    def test_stdlib_error_at_point_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^math domain error \(argument 0\.0\)$"):
            f_continuity(math.log, 0.0, right_base(1.0, 0.5), CFG)


class TestCheckLinearity:
    def test_one_sided_combination(self):
        # 2*abs + 3*x on (0, delta): every quotient is 5 up to rounding in 3*h
        rep = check_linearity(ABS, IDENT, 2.0, 3.0, 0.0,
                              right_base(1.0, 0.5), CFG, 1e-5)
        assert rep.verdict == "holds"
        assert abs(rep.lhs.value - 5.0) <= 1e-12
        assert rep.rhs_value == 5.0
        assert rep.abs_error <= 1e-12

    def test_zero_coefficients(self):
        rep = check_linearity(ABS, IDENT, 0.0, 0.0, 0.0,
                              right_base(1.0, 0.5), CFG, 1e-5)
        assert rep.verdict == "holds"
        assert rep.lhs.value == 0.0 and rep.rhs_value == 0.0

    def test_cancelling_kinks_inconclusive(self):
        # abs - abs == 0 everywhere, but the ingredient derivatives have no
        # limit across 0, so the rule asserts nothing
        rep = check_linearity(ABS, ABS, 1.0, -1.0, 0.0,
                              punctured_base(1.0, 0.5), CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        assert rep.lhs.status == CONVERGED and rep.lhs.value == 0.0
        assert "did not converge" in rep.failure_detail

    def test_smooth_pair(self):
        f = as_function(parse("sin(x)"))
        g = as_function(parse("x^2"))
        rep = check_linearity(f, g, 2.5, -1.5, 0.7, punctured_base(1.0, 0.5),
                              SMOOTH_CFG, 1e-5)
        assert rep.verdict == "holds"
        truth = 2.5 * math.cos(0.7) - 1.5 * 2 * 0.7
        assert abs(rep.rhs_value - truth) <= 1e-5


class TestCheckProductRule:
    def test_abs_squared_at_zero(self):
        rep = check_product_rule(ABS, ABS, 0.0, right_base(1.0, 0.5),
                                 PQ_CFG, 1e-5)
        assert rep.verdict == "holds"
        assert rep.rhs_value == 0.0
        assert abs(rep.lhs.value) <= 1e-5
        assert len(rep.continuity_reports) == 2

    def test_identity_times_constant(self):
        rep = check_product_rule(IDENT, lambda x: 1.0, 0.5,
                                 punctured_base(1.0, 0.5), PQ_CFG, 1e-5)
        assert rep.verdict == "holds"
        assert abs(rep.lhs.value - 1.0) <= 1e-5
        assert rep.rhs_value == 1.0

    def test_sign_factor_is_inconclusive_not_violated(self):
        rep = check_product_rule(IDENT, SIGN, 0.0, punctured_base(1.0, 0.5),
                                 PQ_CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        assert "F-continuous" in rep.failure_detail

    def test_continuity_reported_for_both_factors(self):
        rep = check_product_rule(IDENT, SIGN, 0.0, right_base(1.0, 0.5),
                                 PQ_CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        cont_f, cont_g = rep.continuity_reports
        assert cont_f.is_continuous
        assert not cont_g.is_continuous

    def test_ingredients_are_the_plain_derivatives(self):
        f = as_function(parse("sin(x)"))
        g = as_function(parse("exp(x/2)"))
        b = punctured_base(1.0, 0.5)
        rep = check_product_rule(f, g, 0.7, b, PQ_CFG, 1e-5)
        for got, h in ((rep.f_prime, f), (rep.g_prime, g)):
            want = derivative(h, 0.7, b, PQ_CFG)
            assert got.converged
            assert got.value.hex() == want.value.hex()
            assert got.estimate == want.estimate

    def test_stdlib_error_at_x0_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^math domain error \(argument 0\.0\)$"):
            check_product_rule(math.log, lambda x: x, 0.0, punctured_base(1.0, 0.5),
                               CFG, 1e-5)


class TestCheckQuotientRule:
    def test_identity_over_one_plus_abs(self):
        g = as_function(parse("1+abs(x)"))
        rep = check_quotient_rule(IDENT, g, 0.0, right_base(1.0, 0.5),
                                  PQ_CFG, 1e-5)
        assert rep.verdict == "holds"
        assert rep.rhs_value == 1.0
        assert abs(rep.lhs.value - 1.0) <= 1e-6
        assert QUOTIENT_RULE_NOTE in rep.notes

    def test_constant_denominator_reduces_to_numerator(self):
        f = as_function(parse("sin(x)"))
        rep = check_quotient_rule(f, lambda x: 1.0, 0.3,
                                  punctured_base(1.0, 0.5), PQ_CFG, 1e-5)
        assert rep.verdict == "holds"
        assert abs(rep.rhs_value - math.cos(0.3)) <= 1e-5

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match=r"requires g\(x0\) != 0, got g\(0\.0\) = 0$"):
            check_quotient_rule(IDENT, IDENT, 0.0, right_base(1.0, 0.5),
                                PQ_CFG, 1e-5)

    def test_denominator_whose_square_underflows_rejected(self):
        with pytest.raises(ValueError, match=r"g\(1e-200\) = 1e-200 squares to 0"):
            check_quotient_rule(IDENT, IDENT, 1e-200, right_base(1.0, 0.5),
                                PQ_CFG, 1e-5)

    def test_sampled_zero_of_g_is_inconclusive(self):
        b = right_base(1.0, 0.5)
        hit = b.sample(0, PQ_CFG.samples_per_level, PQ_CFG.seed)[0]
        g = lambda x: x - hit          # g(0) = -hit != 0, g(hit) = 0
        rep = check_quotient_rule(IDENT, g, 0.0, b, PQ_CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        assert "domain error" in rep.failure_detail

    def test_stdlib_error_at_x0_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^float division by zero \(argument 0\.0\)$"):
            check_quotient_rule(math.sin, lambda x: 1.0 / x, 0.0,
                                punctured_base(1.0, 0.5), CFG, 1e-5)


class TestNonFiniteValueAtX0:
    """A value at x0 (or a) that is not a finite real fails the rule's
    hypothesis: it is a DomainError raised before any sampled point is
    evaluated, naming x0, whichever function it is."""

    @pytest.mark.parametrize("case", ["quotient-g-inf", "product-f-nan", "continuity-f-inf"])
    def test_raised_after_one_call(self, case):
        calls = []

        def counted(fn):
            def wrapped(x):
                calls.append(x)
                return fn(x)
            return wrapped

        b = punctured_base(1.0, 0.5)
        f = counted(lambda x: 2.0 + math.sin(x))
        run = {
            "quotient-g-inf": lambda: check_quotient_rule(
                f, counted(lambda x: math.inf if x == 0 else x), 0.0, b, CFG, 1e-5),
            "product-f-nan": lambda: check_product_rule(
                counted(lambda x: math.nan if x == 0 else x), f, 0.0, b, CFG, 1e-5),
            "continuity-f-inf": lambda: f_continuity(
                counted(lambda x: math.inf if x == 0 else x), 0.0, b, CFG),
        }[case]
        with pytest.raises(DomainError) as exc:
            run()
        assert str(exc.value) == "function value is not a finite real (argument 0.0)"
        assert exc.value.argument == 0.0
        assert calls == [0.0]   # one call, of the non-finite function, at x0


class TestInputErrors:
    """A check_tol that is negative or not finite would give a verdict that
    means nothing: each check rejects it before any sampled point."""

    CHECKS = {
        "linearity": lambda f, g, tol: check_linearity(f, g, 1.0, 1.0, 1.0,
                                                       punctured_base(1, 0.5), PQ_CFG, tol),
        "product": lambda f, g, tol: check_product_rule(f, g, 1.0, punctured_base(1, 0.5),
                                                        PQ_CFG, tol),
        "quotient": lambda f, g, tol: check_quotient_rule(f, g, 1.0, punctured_base(1, 0.5),
                                                          PQ_CFG, tol),
    }

    @pytest.mark.parametrize("rule", ["linearity", "product", "quotient"])
    @pytest.mark.parametrize("check_tol", [-1e-5, math.nan, math.inf, TOO_LARGE, *DECIMAL_NANS],
                             ids=repr)
    def test_bad_check_tol(self, rule, check_tol):
        calls = []
        square = lambda x: calls.append(x) or x * x
        with pytest.raises(ValueError) as exc:
            self.CHECKS[rule](square, IDENT, check_tol)
        assert str(exc.value) == "check_tol must be a finite real >= 0"
        assert set(calls) <= {1.0}   # x0 at most, no sampled point

    @pytest.mark.parametrize("rule", ["linearity", "product", "quotient"])
    def test_zero_check_tol_is_accepted(self, rule):
        rep = self.CHECKS[rule](lambda x: x * x, IDENT, 0.0)
        assert rep.verdict in ("holds", "violated")

    @pytest.mark.parametrize("coefficient", ["alpha", "beta"])
    @pytest.mark.parametrize("value", NON_FINITE + [TOO_LARGE] + DECIMAL_NANS, ids=repr)
    def test_non_finite_linearity_coefficient(self, coefficient, value):
        calls = []
        square = lambda x: calls.append(x) or x * x
        coefficients = {"alpha": 1.0, "beta": 1.0, coefficient: value}
        with pytest.raises(ValueError) as exc:
            check_linearity(square, IDENT, coefficients["alpha"], coefficients["beta"], 1.0,
                            punctured_base(1, 0.5), PQ_CFG, 1e-5)
        assert str(exc.value) == "alpha and beta must be finite reals"
        assert calls == []

    def test_chain_shallower_than_cfg(self):
        # the level budget is checked before f(x0) or g(x0) is read
        calls = []
        square = lambda x: calls.append(x) or x * x
        with pytest.raises(ValueError) as exc:
            check_linearity(square, IDENT, 1.0, 1.0, 1.0, punctured_base(1, 0.5, max_level=8),
                            PQ_CFG, 1e-5)
        assert str(exc.value) == f"cfg.max_level={PQ_CFG.max_level} exceeds chain max_level=8"
        assert calls == []


class TestOneEstimatePerDerivative:
    """derivative and classical_derivative each make exactly one call of
    fderiv.estimate_limit, the name the traced benchmark counts estimates by."""

    @pytest.mark.parametrize("call", [
        lambda: derivative(ABS, 0.0, right_base(1.0, 0.5), CFG),
        lambda: derivative(as_function(parse("log(x)")), 0.0, right_base(1.0, 0.5), CFG),
        lambda: classical_derivative(as_function(parse("x^2")), 1.0, SMOOTH_CFG),
    ], ids=["derivative", "derivative-domain-error", "classical_derivative"])
    def test_one_call(self, call, monkeypatch):
        estimates = []
        estimate_limit = fderiv.estimate_limit

        def counted(*args):
            estimates.append(estimate_limit(*args))
            return estimates[-1]
        monkeypatch.setattr(fderiv, "estimate_limit", counted)
        res = call()
        assert len(estimates) == 1 and res.estimate is estimates[0]


class TestOracleAgreement:
    # classical filter derivative vs the symbolic route, spot check
    @pytest.mark.parametrize("text,x0", [
        ("x^2", 1.0), ("sin(x)", 0.5), ("exp(x/2)", -1.0), ("1/(1+x^2)", 2.0),
    ])
    def test_classical_matches_symbolic(self, text, x0):
        e = parse(text)
        res = classical_derivative(as_function(e), x0, SMOOTH_CFG)
        truth = symbolic_derivative_value(e, "x", x0).value
        assert res.status == CONVERGED
        assert abs(res.value - truth) <= 1e-6 * abs(truth)


P = punctured_base(1.0, 0.5)
C = LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e-2)
C_NO_FLOOR = LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e30)
# Under a 12-level budget the values of g = 1000*(2+x) still spread by about
# 2000*d > tol_osc on the last level, so g's F-continuity is not shown while
# f' and g' converge at level 2: 2**-12 * 1000 > tol_step, too far from 0 for
# g' to imply it.
SHORT = LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e-2, max_level=12)


def _steep(x):
    return 1e3 * (2.0 + x)


def _kink_below(x):
    """A kink at 0 whose slopes differ by 8e-5 where |x| > 0.1 and by 2 below:
    f' looks converged at 1 on levels 0-2, which sample only |h| > 0.125."""
    return x + (4e-5 if abs(x) > 0.1 else 1.0) * abs(x)


HIT = P.sample(0, C.samples_per_level, C.seed)[0]   # g = x - HIT vanishes there


def _half_exp(x):
    return math.exp(x / 2)


class TestRuleVerdictBranches:
    """One case per branch of the verdict: (verdict, failure_detail, and
    whether rhs_value, abs_error and rel_error are present)."""

    @pytest.mark.parametrize("check,verdict,detail,has_rhs,has_errors", [
        (lambda: check_product_rule(math.sin, math.exp, 0.3, P, C, 1e-5),
         "holds", None, True, True),
        (lambda: check_product_rule(math.sin, math.exp, 0.3, P, C, 1e-15),
         "violated", "sides disagree: lhs=1.6884799199338516, rhs=1.688479957696064",
         True, True),
        # f' converges on the first levels, and c = 10*f, whose spread there is
        # ten times f's, goes on to the levels where the kink shows
        (lambda: check_linearity(_kink_below, lambda x: 0.0, 10.0, 1.0, 0.0, P, C, 1e-5),
         "violated", "combined function has no derivative along the base "
                     "although every hypothesis held", True, False),
        (lambda: check_linearity(_kink_below, lambda x: 0.0, 10.0, 1.0, 0.0, P,
                                 C_NO_FLOOR, 1e-5),
         "inconclusive", "combined-function estimate was undecided: stability "
                         "criterion not met within the level budget", True, False),
        (lambda: check_quotient_rule(IDENT, lambda x: x - HIT, 0.0, P, C, 1e-5),
         "inconclusive", "combined-function estimate was domain-error: domain "
                         "error at level 0: g vanishes at a sampled point "
                         "(argument -0.9915523077682843)", True, False),
        (lambda: check_linearity(ABS, IDENT, 1.0, 1.0, 0.0, P, C, 1e-5),
         "inconclusive", "derivative of f did not converge (status: no-limit)",
         False, False),
        (lambda: check_product_rule(IDENT, SIGN, 0.0, P, C, 1e-5),
         "inconclusive", "derivative of g did not converge (status: no-limit); "
                         "g is not F-continuous at x0 along the base", False, False),
        (lambda: check_product_rule(IDENT, _steep, 0.0, P, SHORT, 1e-5),
         "inconclusive", "g is not F-continuous at x0 along the base", True, False),
        (lambda: check_quotient_rule(IDENT, _steep, 0.0, P, SHORT, 1e-5),
         "inconclusive", "g is not F-continuous at x0 along the base", True, False),
        # f' and g' near 1e155 converge, but f'*g(x0) and g(x0)^2 overflow
        (lambda: check_quotient_rule(as_function(parse("1e155*x")),
                                     as_function(parse("1e155*(1+x)")), 1.0, P,
                                     LimitConfig(tol_osc=1e150, tol_step=1e-6), 1e-5),
         "inconclusive", "right-hand side is not a finite real (rhs=nan)", False, False),
    ], ids=["holds", "sides-disagree", "no-derivative", "undecided", "domain-error",
            "ingredient", "ingredient-and-continuity", "product-continuity",
            "quotient-continuity", "non-finite-rhs"])
    def test_branch(self, check, verdict, detail, has_rhs, has_errors):
        rep = check()
        assert rep.verdict == verdict
        assert rep.failure_detail == detail
        assert (rep.rhs_value is not None) == has_rhs
        assert (rep.abs_error is not None) == has_errors
        assert (rep.rel_error is not None) == has_errors


# ------------------------------------------------------------------
# A rule check evaluates f and g once per sampled point for all of its
# estimates. The reference below composes the same ingredients from the
# public API, each estimate evaluating f and g on its own; the check must
# reproduce it bit for bit, raised exceptions included.

def _combined(rule, f, g, alpha, beta):
    """The combined function as a point closure; the quotient reads g first."""
    if rule == "linearity":
        return lambda x: alpha * f(x) + beta * g(x)
    if rule == "product":
        return lambda x: f(x) * g(x)

    def quot(x):
        gx = g(x)
        if gx == 0.0:
            raise DomainError("g vanishes at a sampled point", argument=x)
        return f(x) / gx
    return quot


def _at(fn, x):
    """fn(x), a stdlib domain error raised as DomainError, as the checks read x0."""
    try:
        return fn(x)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(str(exc), argument=x) from exc


def _implied_or_estimated(fn, d, x0, b, cfg):
    """fn's F-continuity report: implied by its converged derivative d on a
    constructor's geometric chain whose last level's |h| < scale keeps
    |fn(x0+h) - fn(x0)| ~ |h * d| within tol_step, else f_continuity's."""
    target = _finite_values(fn, (x0,))[0]
    if (d.converged and b._nested and b.inner_ratio is not None
            and b.scale(cfg.max_level) * abs(d.value) <= cfg.tol_step * (1.0 + abs(target))):
        return fderiv.FContinuityReport(point=x0, base_id=b.id, limit=None, target=target,
                                        is_continuous=True)
    return f_continuity(fn, x0, b, cfg)


def _reference(rule, f, g, x0, b, cfg, alpha, beta):
    """(f', g', the F-continuity reports, the combined derivative), estimated
    in the check's order: f', g' and c', then each report."""
    if rule == "product":
        _at(f, x0), _at(g, x0)
    elif rule == "quotient":
        g0 = _at(g, x0)
        if g0 == 0.0:
            raise ValueError(f"quotient rule requires g(x0) != 0, got g({x0!r}) = 0")
        if g0 * g0 == 0.0:
            raise ValueError(f"quotient rule requires g(x0)^2 != 0, but g({x0!r}) = "
                             f"{g0!r} squares to 0")
        _at(f, x0)
    df = derivative(f, x0, b, cfg)
    dg = derivative(g, x0, b, cfg)
    lhs = derivative(_combined(rule, f, g, alpha, beta), x0, b, cfg)
    continuous = {"linearity": (), "product": ((f, df), (g, dg)), "quotient": ((g, dg),)}[rule]
    cont = tuple(_implied_or_estimated(h, d, x0, b, cfg) for h, d in continuous)
    return df, dg, cont, lhs


def _outcome(thunk):
    try:
        return thunk(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def assert_matches_reference(rule, f, g, x0, b, cfg, alpha=1.0, beta=1.0):
    check = {"linearity": lambda: check_linearity(f, g, alpha, beta, x0, b, cfg, 1e-5),
             "product": lambda: check_product_rule(f, g, x0, b, cfg, 1e-5),
             "quotient": lambda: check_quotient_rule(f, g, x0, b, cfg, 1e-5)}[rule]
    rep, error = _outcome(check)
    ref, ref_error = _outcome(lambda: _reference(rule, f, g, x0, b, cfg, alpha, beta))
    assert error == ref_error
    if ref is not None:
        # repr prints every float exactly: each trace row, status, value and
        # failure_detail of each estimate must agree
        assert repr(rep.f_prime) == repr(ref[0])
        assert repr(rep.g_prime) == repr(ref[1])
        assert repr(rep.continuity_reports) == repr(ref[2])
        assert repr(rep.lhs) == repr(ref[3])
    return rep, error


LOG = as_function(parse("log(x)"))
SQRT = as_function(parse("sqrt(x)"))
POLE = as_function(parse("1/(x-0.25)"))
HUGE = as_function(parse("exp(x)*1e300"))
R = right_base(1.0, 0.5)
VANISH = lambda x: x - HIT            # noqa: E731  g vanishes at a sampled point
POLE_AT_HIT = lambda x: 1.0 / (x - HIT)  # noqa: E731  f fails at that point too
NONE_LEFT = lambda x: None if x < -0.6 else x  # noqa: E731  raises TypeError downstream
# f's quotients raise TypeError on level 2, the first with a sample below
# 1e-3; g's raise KeyError on level 0: the sequential reference raises f's
NONE_NEAR = lambda x: None if 0.0 < abs(x) < 1e-3 else x * x  # noqa: E731
KEY_OFF_X0 = lambda x: 1.0 if x == 0.0 else {}[x]  # noqa: E731

EQUIVALENCE_CASES = [
    ("log-sqrt-at-0", LOG, SQRT, 0.0, R, C),
    ("sqrt-log-at-0", SQRT, LOG, 0.0, R, C),
    ("log-fails-mid-level", IDENT, LOG, 0.5, P, C),
    ("pole", POLE, IDENT, 0.0, P, C),
    ("pole-undefined-at-x0", POLE, IDENT, 0.25, P, C),
    ("g-vanishes", IDENT, VANISH, 0.0, P, C),
    ("g-vanishes-where-f-fails", POLE_AT_HIT, VANISH, 0.0, P, C),
    ("overflowing-product", HUGE, HUGE, 1.0, P, C),
    ("stdlib-errors", math.log, lambda x: 1.0 / x, 0.0, P, C),
    ("uncaught-type-error", NONE_LEFT, IDENT, 0.0, P, C),
    ("f-raises-after-g", NONE_NEAR, KEY_OFF_X0, 0.0, P, C),
    ("finite-values-whose-sum-overflows", as_function(parse("1e308+x")),
     as_function(parse("1+x")), 0.0, P, C),
    ("smooth", math.sin, math.exp, 0.3, P, C),
    ("kinks", ABS, SIGN, 0.0, R, PQ_CFG),
]


class CountingChain:
    """A chain that records the level of each sample call, and of each
    scale call."""

    def __init__(self, chain):
        self._chain, self.calls, self.scales = chain, [], []

    def sample(self, k, m, seed):
        self.calls.append(k)
        return self._chain.sample(k, m, seed)

    def scale(self, k):
        self.scales.append(k)
        return self._chain.scale(k)

    def __getattr__(self, name):
        return getattr(self._chain, name)


class TestSharedEvaluation:
    @pytest.mark.parametrize("rule", ["linearity", "product", "quotient"])
    @pytest.mark.parametrize("name,f,g,x0,b,cfg", EQUIVALENCE_CASES,
                             ids=[c[0] for c in EQUIVALENCE_CASES])
    def test_matches_reference(self, name, f, g, x0, b, cfg, rule):
        assert_matches_reference(rule, f, g, x0, b, cfg, 2.0, -3.0)

    def test_fixed_cases_reach_every_failure_path(self):
        details, raised = set(), set()
        for _, f, g, x0, b, cfg in EQUIVALENCE_CASES:
            for rule in ("linearity", "product", "quotient"):
                rep, error = assert_matches_reference(rule, f, g, x0, b, cfg, 2.0, -3.0)
                if error is not None:
                    raised.add(error[0])
                    continue
                for est in (rep.f_prime.estimate, rep.g_prime.estimate, rep.lhs.estimate,
                            *(c.limit for c in rep.continuity_reports if c.limit)):
                    details.add((est.failure_detail or "").split(": ", 1)[-1].split(" (")[0])
        assert {"g vanishes at a sampled point", "function value is not a finite real",
                "math domain error", "float division by zero"} <= details
        assert any("log applied outside its domain" in d for d in details)
        assert {DomainError, TypeError, ValueError} <= raised

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linearity", "product", "quotient"]))
    def test_corpus_draws_match_reference(self, seed, rule):
        rng = random.Random(seed)
        smooth = [fn for _, fn in named_functions(SMOOTH_TEXTS)]
        kinks = [fn for _, fn in named_functions(KINK_TEXTS)]
        b, x0, pool = pick_rule_instance(rng, smooth, kinks, two_sided_bases(),
                                         one_sided_bases())
        partners = pool
        if rule == "quotient":
            partners = [fn for _, fn in named_functions(POSITIVE_TEXTS)]
        assert_matches_reference(rule, rng.choice(pool), rng.choice(partners), x0, b,
                                 PQ_CFG, rng.uniform(-10, 10), rng.uniform(-10, 10))

    @pytest.mark.parametrize("rule", ["linearity", "product", "quotient"])
    def test_each_level_sampled_once(self, rule):
        b = CountingChain(P)
        rep = {"linearity": lambda: check_linearity(math.sin, math.exp, 2.0, -3.0, 0.3, b,
                                                    C, 1e-5),
               "product": lambda: check_product_rule(math.sin, math.exp, 0.3, b, C, 1e-5),
               "quotient": lambda: check_quotient_rule(math.sin, math.exp, 0.3, b, C,
                                                       1e-5)}[rule]()
        # every derivative converged on P, so each continuity report is implied
        assert all(c.limit is None and c.is_continuous for c in rep.continuity_reports)
        reached = max(len(e.trace) for e in (rep.f_prime.estimate, rep.g_prime.estimate,
                                             rep.lhs.estimate))
        assert b.calls == list(range(reached))
        # one scale per level, for every estimate; an implied report reads the last level's
        assert b.scales == list(range(reached)) + [C.max_level] * (rule != "linearity")

    @pytest.mark.parametrize("rule", ["product", "quotient"])
    def test_hand_built_chain_estimates_continuity(self, rule):
        # P's elements by hand: nothing says they shrink to 0, so a converged
        # derivative implies nothing and f_continuity estimates each report
        b = chain_from_elements("P by hand", [P.element(k) for k in range(C.max_level + 1)],
                                punctured_at_zero=True)
        rep, _ = assert_matches_reference(rule, math.sin, math.exp, 0.3, b, C)
        assert rep.f_prime.converged and rep.g_prime.converged
        assert len(rep.continuity_reports) == {"product": 2, "quotient": 1}[rule]
        assert all(c.limit is not None for c in rep.continuity_reports)

    @pytest.mark.parametrize("b", [sequence_base(SequenceSpec("powinv", p=1e-10)),
                                   right_base(1.0, 0.99)], ids=["powinv", "right-0.99"])
    @pytest.mark.parametrize("rule", ["product", "quotient"])
    def test_slow_chain_estimates_continuity(self, rule, b):
        # |h| stays near 1 (powinv) or above 0.5 (ratio 0.99) on all 49
        # levels: x' = 1 converges but implies no continuity, and g's own
        # estimate does not show it, so the check is inconclusive, not violated
        g = IDENT if rule == "product" else as_function(parse("1+x"))
        rep, _ = assert_matches_reference(rule, IDENT, g, 0.0, b, LimitConfig())
        assert rep.f_prime.converged and rep.g_prime.converged
        assert all(c.limit is not None for c in rep.continuity_reports)
        assert rep.verdict == INCONCLUSIVE
        assert rep.failure_detail == "g is not F-continuous at x0 along the base"

    @pytest.mark.parametrize("rule", ["linearity", "product", "quotient"])
    def test_functions_run_only_where_the_reference_runs_them(self, rule):
        # f' converges within a few levels, g' takes more, and the quotient's
        # combined estimate fails on level 0, where g vanishes: the sequential
        # reference evaluates f on no level past f's own and c's estimates
        def counted(points, fn):
            def wrapped(x):
                points.add(x)
                return fn(x)
            return wrapped

        checks = {"linearity": lambda f, g: check_linearity(f, g, 2.0, -3.0, 0.0, P, C, 1e-5),
                  "product": lambda f, g: check_product_rule(f, g, 0.0, P, C, 1e-5),
                  "quotient": lambda f, g: check_quotient_rule(f, g, 0.0, P, C, 1e-5)}
        ran = []
        for run in (checks[rule], lambda f, g: _reference(rule, f, g, 0.0, P, C, 2.0, -3.0)):
            ran.append((set(), set()))
            run(counted(ran[-1][0], lambda x: 2.0 * x),
                counted(ran[-1][1], lambda x: (x - HIT) * math.exp(x)))
        (check_f, check_g), (reference_f, reference_g) = ran
        assert check_f <= reference_f and check_g <= reference_g

    @pytest.mark.parametrize("x0", [0.3, 0.0])
    def test_product_evaluates_f_and_g_once_per_point(self, x0):
        calls = {"f": 0, "g": 0}

        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)
            return wrapped

        rep = check_product_rule(counted("f", math.sin), counted("g", math.exp), x0,
                                 P, C, 1e-5)
        estimates = [rep.f_prime.estimate, rep.g_prime.estimate, rep.lhs.estimate]
        assert all(e.status != "domain-error" for e in estimates)
        reached = max(len(e.trace) for e in estimates)
        bound = C.samples_per_level * reached + 1   # every point reached, and x0
        assert 0 < calls["f"] <= bound and 0 < calls["g"] <= bound


def _report_or_error(check):
    """A rule check's report as its repr, or its error as (type, str)."""
    try:
        return repr(check())
    except Exception as exc:
        return type(exc), str(exc)


RULE_CHECKS = {
    "linearity": lambda f, g, x0, b, alpha, beta: check_linearity(f, g, alpha, beta, x0, b, C,
                                                                  1e-5),
    "product": lambda f, g, x0, b, alpha, beta: check_product_rule(f, g, x0, b, C, 1e-5),
    "quotient": lambda f, g, x0, b, alpha, beta: check_quotient_rule(f, g, x0, b, C, 1e-5)}
_EDGE_X0 = [0.0, -0.0, 5e-324, 1e-300, 0.5, -1.5, 3.0, 1e16, 1e300]
_COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]),
                         st.floats(min_value=-10.0, max_value=10.0))


class TestRuleLoop:
    """A check on two functions from as_function reads each level from the
    rule's level loop, over f's, g's and c's trees at once; the same check
    on plain wrappers of them takes the row path. Both give the same report
    bit for bit, or the same error."""

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(f_tree=_ref_trees, g_tree=_ref_trees, same=st.booleans(),
           rule=st.sampled_from(sorted(RULE_CHECKS)),
           x0=st.one_of(st.sampled_from(_EDGE_X0), st.floats(min_value=-4.0, max_value=4.0)),
           right=st.booleans(), alpha=_COEFFICIENT, beta=_COEFFICIENT)
    def test_same_report_as_plain_wrappers(self, f_tree, g_tree, same, rule, x0, right,
                                           alpha, beta):
        f = as_function(f_tree, "x")
        g = f if same else as_function(g_tree, "x")
        plain_f = lambda t: f(t)  # noqa: E731
        plain_g = plain_f if same else (lambda t: g(t))
        b = R if right else P
        check = RULE_CHECKS[rule]
        assert _report_or_error(lambda: check(f, g, x0, b, alpha, beta)) == _report_or_error(
            lambda: check(plain_f, plain_g, x0, b, alpha, beta))

    @pytest.mark.parametrize("rule", sorted(RULE_CHECKS))
    def test_one_loop_compiled_per_pair(self, rule, monkeypatch):
        # f and g are defined on every level: no level form is compiled; a
        # second check on the pair, with other coefficients, reuses the loop
        f, g = as_function(parse("sin(x)+x")), as_function(parse("exp(x)"))
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expr_module, "compile", spy, raising=False)
        check = RULE_CHECKS[rule]
        assert check(f, g, 0.3, P, 2.0, -3.0).verdict == "holds"
        assert [s.split("(")[0] for s in sources] == ["def rule"]
        for alpha, beta in ((-0.0, 0.0), (0.0, -0.0)):
            report = repr(check(f, g, 0.3, P, alpha, beta))
            assert report == repr(check(lambda t: f(t), lambda t: g(t), 0.3, P, alpha, beta))
        assert [s.split("(")[0] for s in sources] == ["def rule"]


class TestUnmovedSamples:
    """For |x0| large against a level's scale, a sampled h can give
    x0 + h == x0: the quotient there is exactly 0 and the shifted value
    exactly f(x0), whatever f does, so such levels would pass the streak test
    on their own. The first level whose |h| can be as small as ulp(x0) / 2
    ends the estimate undecided (resolution exhausted). At 1e16 that is level
    0 of punctured_base(1, 0.5): its inner radius is 0.5, and ulp(1e16) / 2
    is 1."""

    @pytest.mark.parametrize("cfg", [CFG, SMOOTH_CFG, PQ_CFG],
                             ids=["default", "smooth", "pq"])
    def test_converged_values_agree_with_the_oracle(self, cfg):
        checked = wrong = 0
        for text in GRID_TEXTS:
            e = parse(text)
            f = as_function(e)
            for x0 in GRID_POINTS:
                try:
                    want = symbolic_derivative_value(e, "x", x0).value
                except DomainError:
                    continue
                for b in GRID_BASES:
                    res = derivative(f, x0, b, cfg)
                    checked += 1
                    if res.converged and abs(res.value - want) > 1e-6 * max(1.0, abs(want)):
                        wrong += 1
        # 7 of the 99 points have no oracle value (see corpus.GRID_TEXTS)
        assert checked == 276 and wrong == 0

    def test_derivative_names_the_level(self):
        res = derivative(as_function(parse("sin(x)")), 1e16, punctured_base(1, 0.5), CFG)
        assert res.status == "undecided" and res.value is None
        assert res.estimate.failure_detail == (
            "resolution exhausted at level 0: |h| down to 0.5 <= ulp(x0) / 2 = 1.0, "
            "where x0 + h can equal x0")

    def test_continuity(self):
        rep = f_continuity(as_function(parse("sign(x-1e16)")), 1e16,
                           punctured_base(1, 0.5), CFG)
        assert rep.limit.status == "undecided" and not rep.is_continuous
        assert rep.limit.failure_detail.startswith("resolution exhausted at level 0: ")

    def test_rule_check(self):
        rep = check_product_rule(as_function(parse("sin(x)")), as_function(parse("cos(x)")),
                                 1e16, punctured_base(1, 0.5), PQ_CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        assert rep.failure_detail == (
            "derivative of f did not converge (status: undecided); derivative of g did not "
            "converge (status: undecided); g is not F-continuous at x0 along the base")
        for est in (rep.f_prime.estimate, rep.g_prime.estimate, rep.lhs.estimate):
            assert est.failure_detail == (
                "resolution exhausted at level 0: |h| down to 0.5 <= ulp(x0) / 2 = 1.0, "
                "where x0 + h can equal x0")

    def test_a_streak_of_levels_that_move_x0_stands(self):
        # the first level whose |h| can reach ulp(1000) / 2 = 2**-44 is level
        # 43, where the inner radius is 2**-44; this streak ends on level 10
        res = derivative(as_function(parse("x^2")), 1000.0, punctured_base(1, 0.5),
                         LimitConfig(tol_osc=1e-2, tol_step=1e-6))
        assert res.converged and len(res.estimate.trace) == 11


def _seeded(cfg, seed):
    return LimitConfig(tol_osc=cfg.tol_osc, tol_step=cfg.tol_step,
                       no_limit_floor=cfg.no_limit_floor, seed=seed)


def _f(text):
    return as_function(parse(text))


def _oracle(text, x0):
    return symbolic_derivative_value(parse(text), "x", x0).value


# Rule draws of acceptance criteria 5-7 whose verdict depended on
# LimitConfig.seed while each level sampled its whole element: with a seed
# among 11, 13, 17, 19, 26, 47, 49, 60, 67, 74 and 80 each was violated or
# inconclusive.
SEED_DRAWS = [
    lambda cfg: check_linearity(_f("exp(0-x^2)"), _f("exp(x/2)"), -8.707884448499183,
                                -7.201961620649085, 1.0, right_base(1.0, 0.5),
                                _seeded(SMOOTH_CFG, cfg), 1e-5),
    lambda cfg: check_product_rule(_f("cos(2*x)"), _f("x^2*cos(x)"), 1.0,
                                   punctured_base(0.7, 0.6), _seeded(PQ_CFG, cfg), 1e-5),
    lambda cfg: check_product_rule(_f("x^2*cos(x)"), _f("x^3-2*x"), 1.5,
                                   left_base(0.9, 0.5), _seeded(PQ_CFG, cfg), 1e-5),
    lambda cfg: check_quotient_rule(_f("cos(2*x)"), _f("2+sin(x)"), -1.5,
                                    right_base(1.0, 0.5), _seeded(PQ_CFG, cfg), 1e-5),
    lambda cfg: check_quotient_rule(_f("x^3-2*x"), _f("exp(x/2)"), -1.0,
                                    left_base(0.9, 0.5), _seeded(PQ_CFG, cfg), 1e-5),
]

# Smooth points where |f'| is large: no-limit under both configs while the
# whole element was sampled and no radius bounded the tests.
LARGE_SLOPE = [("exp(x*(x+x))*x", -1.745), ("sin(exp(x+x)-x*3.0/cos(x))", -1.607),
               ("sin((x-1.0)*(x+0.5))-cos(x-x)*(0.5/x+(3.0+x))", 0.026),
               ("exp(x*(1.0*2.0)-(x+0.5+2.0/x))", -0.416),
               ("exp(x*x+(1.0-0.5))+cos(sin(x))", -1.976),
               ("exp(3.0/2.0/exp(x)-2.0)", -1.538),
               ("(exp(3.0*x)-cos(x)/(2.0*x))*(x-exp(1.0)*(x-x))", 1.479)]

# f(x0 + h) == f(x0) through f's own rounding on the deep levels: the first
# two converged to 0.0 under the defaults, the other two would have under
# annulus sampling without the radius.
ROUNDING = [("sin(exp(3.0*3.0)+(cos(x)-x*x))", 0.10558596615923532),
            ("sin(1.0+2.0)-(sin(3.0)-(x+0.5))-sin(x+1.0)", -1000.0),
            ("cos((exp(exp(2.0))-cos(x)))", -0.5163655551775621),
            ("exp(x+x)+sin(sin(0.5))+exp(exp(exp(0.5)))", -1.01369040591349)]


class TestResolution:
    """Each level samples its annulus, and a difference-quotient estimate
    stops at its rounding floor: its verdicts no longer hang on the seed,
    the defaults certify smooth classical derivatives, and a level past the
    floor is undecided, never a wrong value or a no-limit."""

    @pytest.mark.parametrize("check", [
        lambda: check_product_rule(math.sin, _half_exp, -1.5, punctured_base(0.7, 0.6),
                                   _seeded(PQ_CFG, 13), 1e-5),
        lambda: check_linearity(_f("exp(0-x^2)"), _f("x^2*cos(x)"), -2.8530874435091462,
                                -8.63901651450977, 1.0, right_base(1, 0.5),
                                _seeded(SMOOTH_CFG, 37), 1e-5),
        lambda: check_product_rule(math.sin, math.sin, 1.5, right_base(1, 0.5),
                                   _seeded(PQ_CFG, 11), 1e-5),
    ], ids=["product-seed-13", "linearity-seed-37", "product-seed-11"])
    def test_seed_instance_holds(self, check):
        assert check().verdict == "holds"

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    @example(11)
    @example(13)
    @example(17)
    @example(19)
    @example(26)
    @example(47)
    @example(74)
    @example(80)
    def test_verdict_does_not_hang_on_the_seed(self, seed):
        assert [draw(seed).verdict for draw in SEED_DRAWS] == ["holds"] * len(SEED_DRAWS)

    @pytest.mark.parametrize("cfg", [CFG, SMOOTH_CFG], ids=["default", "smooth"])
    @pytest.mark.parametrize("text,x0", LARGE_SLOPE + ROUNDING,
                             ids=[f"{t}@{x0}" for t, x0 in LARGE_SLOPE + ROUNDING])
    def test_converged_right_or_undecided(self, text, x0, cfg):
        res = classical_derivative(_f(text), x0, cfg)
        want = _oracle(text, x0)
        assert res.status in ("converged", "undecided")
        if res.converged:
            assert abs(res.value - want) <= 1e-6 * max(1.0, abs(want))

    def test_defaults_certify_the_corpus(self):
        worst = 0.0
        for text, points in SMOOTH_CASES:
            for x0 in points:
                res = classical_derivative(_f(text), x0, CFG)
                assert res.converged, (text, x0, res.status)
                want = _oracle(text, x0)
                worst = max(worst, abs(res.value - want) / abs(want))
        assert worst <= 1e-8

    def test_kinks_stay_no_limit(self):
        osc = _f("x*sin(1/x)")
        assert classical_derivative(ABS, 0.0, CFG).status == NO_LIMIT
        assert classical_derivative(lambda x: 0.0 if x == 0.0 else osc(x), 0.0,
                                    CFG).status == NO_LIMIT

    @pytest.mark.parametrize("text,x0", [("abs(x-1)", 1.0), ("1+abs(x)", 0.0)])
    def test_kink_away_from_the_origin_is_undecided(self, text, x0):
        # r > 0 here: the radius passes the cap near level 30, before the
        # budget's no-limit, so the two-sided kink is undecided; each side
        # still converges to its one-sided derivative
        res = classical_derivative(_f(text), x0, CFG)
        assert res.status == "undecided"
        assert res.estimate.failure_detail.startswith("resolution exhausted at level 3")
        assert derivative(_f(text), x0, right_base(1.0, 0.5), CFG).value == 1.0
        assert derivative(_f(text), x0, left_base(0.9, 0.5), CFG).value == -1.0

    def test_geometric_sequence_sized_by_its_median_h(self):
        # a geo level's 32 terms span 2^31 in |h|: sized by the smallest, all
        # 50 points were exhausted at level 0-2; by the median, these converge
        b = sequence_base(SequenceSpec("geo", q=0.5), max_level=48)
        converged = set()
        for text, points in SMOOTH_CASES:
            for x0 in points:
                res = derivative(_f(text), x0, b, SMOOTH_CFG)
                assert res.status in ("converged", "undecided"), (text, x0)
                if res.converged:
                    want = _oracle(text, x0)
                    assert abs(res.value - want) <= 1e-6 * max(1.0, abs(want))
                    converged.add((text, x0))
        assert converged == {("x^2", -0.5), ("x^2", 0.5), ("exp(x/2)", 0.0),
                             ("1/(1+x^2)", -1.0), ("1/(1+x^2)", 1.0)}

    @pytest.mark.parametrize("ratio,levels", [(0.8, 160), (0.9, 330)])
    def test_slow_one_sided_base_is_continuous(self, ratio, levels):
        # an annulus level's mean is off f(a) by about f'(a) * (1 + ratio) * d / 2,
        # more than tol_step here; the slack of the last step covers it, and
        # a jump of 1e-7 still shows
        cfg = LimitConfig(max_level=levels)
        for side in (right_base, left_base):
            b = side(1.0, ratio, max_level=levels)
            for text in ("exp(x/2)", "sin(x)", "x^2", "1+x", "cos(2*x)"):
                for a in (-1.0, 0.5, 1.3):
                    assert f_continuity(_f(text), a, b, cfg).is_continuous, (side, text, a)
            assert not f_continuity(lambda x: 1.0 + x if x else 1.0 + 1e-7, 0.0, b,
                                    cfg).is_continuous

    def test_exhausted_level_is_kept_and_named(self):
        res = derivative(_f("x^2"), 1e16, punctured_base(1.0, 0.5), CFG)
        assert res.status == "undecided" and len(res.estimate.trace) == 1
        assert res.estimate.failure_detail.startswith("resolution exhausted at level 0: ")

    def test_a_limit_has_no_radius(self):
        # the same values as a black box: the estimate runs past the level
        # where the quotient's radius ends it
        f = _f("x^2")
        quotient = derivative(f, 1.7, punctured_base(1.0, 0.5), CFG).estimate
        q = difference_quotient(f, 1.7)
        black_box = estimate_limit(lambda h: q(h), punctured_base(1.0, 0.5), CFG)
        assert quotient.status == "converged" and black_box.status == "no-limit"
        assert black_box.trace[:len(quotient.trace)] == quotient.trace

    def test_rule_ingredients_carry_the_radius(self):
        # f(x0) undefined: g' is still derivative's estimate of g', radius included
        g = _f("x^2")
        rep = check_linearity(_f("log(x-1000)"), g, 1.0, 1.0, 1e3, punctured_base(1.0, 0.5),
                              CFG, 1e-5)
        assert rep.g_prime.estimate == derivative(g, 1e3, punctured_base(1.0, 0.5), CFG).estimate
        assert rep.g_prime.converged
