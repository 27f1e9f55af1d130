import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import fderiv
from filterderiv import (CONVERGED, NO_LIMIT, BaseNotPuncturedError,
                         DomainError, LimitConfig, QUOTIENT_RULE_NOTE,
                         SetDescriptor, as_function, chain_from_elements,
                         check_linearity, check_product_rule,
                         check_quotient_rule, classical_derivative,
                         derivative, difference_quotient, f_continuity,
                         left_base, parse, punctured_base, right_base,
                         symbolic_derivative_value)
from filterderiv.flimit import _finite_values
from corpus import (KINK_TEXTS, POSITIVE_TEXTS, PQ_CFG, SMOOTH_CFG, SMOOTH_TEXTS,
                    named_functions, one_sided_bases, pick_rule_instance,
                    two_sided_bases)
from test_expr import _ref_trees

ABS = as_function(parse("abs(x)"))
IDENT = as_function(parse("x"))
SIGN = as_function(parse("sign(x)"))
CFG = LimitConfig()
NON_FINITE = [math.nan, math.inf, -math.inf]
TOO_LARGE = pytest.param(10**400, id="10**400")  # an int no double holds


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


_EDGE_HS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 0.5, -0.25, 1e300,
            -sys.float_info.max]

# derivative along punctured_base(1.0, 0.5) under the default config, written
# before a compiled f had a level form: (text, x0, status, value, levels, detail)
LEVEL_FORM_TABLE = [
    ("log(x)", 0.25, "domain-error", None, 0, "domain error at level 0: log applied "
     "outside its domain in log(x) (argument -0.7331046155365686)"),
    ("log(x)", 10**400, "domain-error", None, 0, "domain error at level 0: int too large "
     "to convert to float (argument -0.9831046155365686)"),
    ("sqrt(cos(x*1000)+0.999)", 0.0, "domain-error", None, 2, "domain error at level 2: "
     "sqrt applied outside its domain in sqrt(cos(x*1000.0)+0.999) "
     "(argument -0.00019832292921195815)"),
    ("exp(x)", 709.0, "domain-error", None, 0, "domain error at level 0: exp applied "
     "outside its domain in exp(x) (argument 709.8124949892294)"),
    ("sign(x)*1.7e308", 0.0, "domain-error", None, 0, "domain error at level 0: function "
     "value is not a finite real (argument -0.8797037023811691)"),
    ("x", 0.5, "converged", 1.0, 3, None),
    ("x^2", 3, "no-limit", None, 49, "oscillation stayed >= 1e-06 on the last 3 levels "
     "(last = 9.917878441786366)"),
]


class TestLevelForm:
    """The quotient of an f from as_function computes a level in one loop of
    f's generated code; a plain callable's computes it one point at a time.
    Both give the same values, and where a point fails, the same error."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=_ref_trees,
           x0=st.one_of(st.floats(), st.integers(-10**6, 10**6),
                        st.sampled_from([10**400, -10**400, 2**1024])),
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

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tree=_ref_trees,
           x0=st.one_of(st.floats(), st.integers(-10**6, 10**6),
                        st.sampled_from([10**400, -10**400, 2**1024]),
                        st.fractions(), st.decimals()),
           hs=st.lists(st.one_of(st.sampled_from(_EDGE_HS),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=6))
    def test_values_form_matches_points(self, tree, x0, hs):
        f = as_function(tree, "x")
        expected = _values_or_error(lambda: [f(x0 + h) for h in hs])
        level = _values_or_error(lambda: f.values(x0, hs))
        # the same values, or the same error where a point fails; a Decimal x0
        # fails in x0 - 0.0 rather than in x0 + h, so only the type is the same
        if isinstance(x0, Decimal):
            assert type(level) is tuple and level[0] is expected[0] is TypeError
        else:
            assert level == expected

    def test_decimal_x0_raises_as_points_do(self):
        f, x0 = as_function(parse("x^2")), Decimal("0.5")
        for check in (lambda: derivative(f, x0, P, C), lambda: f_continuity(f, x0, P, C),
                      lambda: check_product_rule(f, f, x0, P, C, 1e-5)):
            with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
                check()

    def test_plain_callable_has_no_level_form(self):
        assert not hasattr(difference_quotient(lambda t: t, 0.0), "finite_values")


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
    @pytest.mark.parametrize("check_tol", [-1e-5, math.nan, math.inf, TOO_LARGE], ids=repr)
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
    @pytest.mark.parametrize("value", NON_FINITE + [TOO_LARGE], ids=repr)
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
# At sampling seed 13 the mean of exp((-1.5+h)/2) misses exp(-0.75) by just
# over tol_step, so g is judged not F-continuous while both derivatives
# converge.
SEED_13 = LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e-2, seed=13)


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
         "violated", "sides disagree: lhs=1.688479912031874, rhs=1.6884799882278148",
         True, True),
        (lambda: check_linearity(math.sin, lambda x: x, 1e12, 1.0, 0.3, P, C, 1e-5),
         "violated", "combined function has no derivative along the base "
                     "although every hypothesis held", True, False),
        (lambda: check_linearity(math.sin, lambda x: x, 1e12, 1.0, 0.3, P,
                                 C_NO_FLOOR, 1e-5),
         "inconclusive", "combined-function estimate was undecided: stability "
                         "criterion not met within the level budget", True, False),
        (lambda: check_quotient_rule(IDENT, lambda x: x - HIT, 0.0, P, C, 1e-5),
         "inconclusive", "combined-function estimate was domain-error: domain "
                         "error at level 0: g vanishes at a sampled point "
                         "(argument -0.9831046155365686)", True, False),
        (lambda: check_linearity(ABS, IDENT, 1.0, 1.0, 0.0, P, C, 1e-5),
         "inconclusive", "derivative of f did not converge (status: no-limit)",
         False, False),
        (lambda: check_product_rule(IDENT, SIGN, 0.0, P, C, 1e-5),
         "inconclusive", "derivative of g did not converge (status: no-limit); "
                         "g is not F-continuous at x0 along the base", False, False),
        (lambda: check_product_rule(math.sin, _half_exp, -1.5,
                                    punctured_base(0.7, 0.6), SEED_13, 1e-5),
         "inconclusive", "g is not F-continuous at x0 along the base", True, False),
        (lambda: check_quotient_rule(math.sin, _half_exp, -1.5,
                                     punctured_base(0.7, 0.6), SEED_13, 1e-5),
         "inconclusive", "g is not F-continuous at x0 along the base", True, False),
    ], ids=["holds", "sides-disagree", "no-derivative", "undecided", "domain-error",
            "ingredient", "ingredient-and-continuity", "product-continuity",
            "quotient-continuity"])
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


def _reference(rule, f, g, x0, b, cfg, alpha, beta):
    """(f', g', the F-continuity reports, the combined derivative)."""
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
    continuous = {"linearity": (), "product": (f, g), "quotient": (g,)}[rule]
    cont = tuple(f_continuity(h, x0, b, cfg) for h in continuous)
    lhs = derivative(_combined(rule, f, g, alpha, beta), x0, b, cfg)
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
                            *(c.limit for c in rep.continuity_reports)):
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
        ends = [len(e.trace) for e in (rep.f_prime.estimate, rep.g_prime.estimate,
                                       rep.lhs.estimate)]
        rescans = set()   # _unmoved re-reads a continuity estimate's last levels
        for c in rep.continuity_reports:
            assert c.limit.converged
            rescans |= set(range(len(c.limit.trace) - C.stable_levels, len(c.limit.trace)))
            ends.append(len(c.limit.trace))
        reached = max(ends)
        assert b.calls[:reached] == list(range(reached))
        assert set(b.calls[reached:]) <= rescans
        assert b.scales == list(range(reached))   # one scale per level, for every estimate

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
        estimates = [rep.f_prime.estimate, rep.g_prime.estimate, rep.lhs.estimate,
                     *(c.limit for c in rep.continuity_reports)]
        assert all(e.status != "domain-error" for e in estimates)
        reached = max(len(e.trace) for e in estimates)
        bound = C.samples_per_level * reached + 1   # every point reached, and x0
        assert 0 < calls["f"] <= bound and 0 < calls["g"] <= bound


GRID_TEXTS = ["x", "x^2", "sin(x)", "exp(x/1e6)", "x^3", "1/x", "log(x)", "sqrt(x)",
              "cos(x)*x"]
GRID_POINTS = [1e3, -1e3, 1e2, 3e2, 3e3, 1e4, 1e6, 1e9, -1e9, 1e12, 1e15]


class TestUnmovedSamples:
    """For |x0| large against a level's scale, a sampled h can give
    x0 + h == x0: the quotient there is exactly 0 and the shifted value
    exactly f(x0), whatever f does, so such levels pass the streak test on
    their own. An estimate that converged on one is undecided."""

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
                for b in (punctured_base(1, 0.5), right_base(1, 0.5),
                          punctured_base(0.7, 0.6)):
                    res = derivative(f, x0, b, cfg)
                    checked += 1
                    if res.converged and abs(res.value - want) > 1e-6 * max(1.0, abs(want)):
                        wrong += 1
        # log(x) at -1e3 and -1e9 has no oracle value: f is undefined there
        assert checked == 276 and wrong == 0

    def test_derivative_names_the_level(self):
        res = derivative(as_function(parse("x^2")), 1000.0, punctured_base(1, 0.5), CFG)
        assert res.status == "undecided" and res.value is None
        assert res.estimate.failure_detail == (
            "converged on level 44, which samples an h with 1000.0 + h == 1000.0, "
            "where every function gives 0.0")

    def test_continuity(self):
        rep = f_continuity(as_function(parse("sign(x-1e16)")), 1e16,
                           punctured_base(1, 0.5), CFG)
        assert rep.limit.status == "undecided" and not rep.is_continuous
        assert rep.limit.failure_detail.startswith("converged on level 0, ")

    def test_rule_check(self):
        rep = check_product_rule(IDENT, IDENT, 1000.0, punctured_base(1, 0.5), PQ_CFG, 1e-5)
        assert rep.verdict == "inconclusive"
        assert rep.lhs.status == "undecided"
        assert rep.failure_detail == (
            "combined-function estimate was undecided: converged on level 44, which "
            "samples an h with 1000.0 + h == 1000.0, where every function gives 0.0")

    def test_a_streak_of_levels_that_move_x0_stands(self):
        # the first sample with 1000 + h == 1000 is on level 39; this streak
        # ends on level 10
        res = derivative(as_function(parse("x^2")), 1000.0, punctured_base(1, 0.5),
                         LimitConfig(tol_osc=1e-2, tol_step=1e-6))
        assert res.converged and len(res.estimate.trace) == 11
