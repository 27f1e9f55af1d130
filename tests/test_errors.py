"""errors._real, the one rule for what a real number from outside is, at
every public boundary that takes one."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (DomainError, LimitConfig, SequenceSpec, SetDescriptor, as_function,
                         check_linearity, check_product_rule, classical_derivative, evaluate,
                         left_base, parse, punctured_base, right_base, sequence_base,
                         symbolic_derivative_value)
from filterderiv.expr import evaluate_each

F = as_function(parse("sin(x)"))
CUBIC = as_function(parse("x^3-x"))
SMALL = LimitConfig(max_level=4, samples_per_level=4, stable_levels=1)


@pytest.mark.parametrize("call", [
    lambda d: classical_derivative(F, 1.0, LimitConfig(tol_step=d("1e-9"))),
    lambda d: sequence_base(SequenceSpec("geo", q=d("0.5"))).sample(3, 4, 0),
    lambda d: check_linearity(F, F, d("2"), 1.0, 1.0, punctured_base(1, 0.5), LimitConfig(), 1e-5),
], ids=["tolerance", "sequence-parameter", "linearity-coefficient"])
def test_decimal_accepted_at_construction_is_used_as_a_float(call):
    # each Decimal was stored or used as it came and raised a TypeError mid-estimate
    assert call(Decimal) == call(float)


def _outcome(call, value):
    """call(value), or the type and message of what it raised."""
    try:
        return call(value)
    except Exception as exc:
        return type(exc), str(exc)


def _chain(b):
    """What a geometric constructor's result shows of its parameters."""
    return b.id, b.params, b.element(3)


# boundary -> (call of one outside value, the class a value no finite double
# holds raises there, the class None raises there)
BOUNDARIES = {
    "interval-lo": (lambda v: SetDescriptor(intervals=((v, 1e300),)), ValueError, TypeError),
    "interval-hi": (lambda v: SetDescriptor(intervals=((-1e300, v),)), ValueError, TypeError),
    "point": (lambda v: SetDescriptor(points=(v, 2.0)), ValueError, TypeError),
    "excluded": (lambda v: SetDescriptor(intervals=((-1.0, 1.0),), excluded=(v,)),
                 ValueError, TypeError),
    **{f"{make.__name__}-delta0": (lambda v, make=make: _chain(make(v, 0.5, max_level=3)),
                                   ValueError, TypeError)
       for make in (punctured_base, right_base, left_base)},
    **{f"{make.__name__}-ratio": (lambda v, make=make: _chain(make(1.0, v, max_level=3)),
                                  ValueError, TypeError)
       for make in (punctured_base, right_base, left_base)},
    # a parameter the kind needs that is None is missing: the parameter's ValueError
    "c": (lambda v: SequenceSpec("piovern", c=v), ValueError, ValueError),
    "p": (lambda v: SequenceSpec("powinv", p=v), ValueError, ValueError),
    "q": (lambda v: SequenceSpec("geo", q=v), ValueError, ValueError),
    **{name: (lambda v, name=name: LimitConfig(**{name: v}), ValueError, TypeError)
       for name in ("tol_osc", "tol_step", "no_limit_floor")},
    "check_tol": (lambda v: check_product_rule(CUBIC, CUBIC, 0.5, punctured_base(1, 0.5),
                                               SMALL, v), ValueError, TypeError),
    "alpha": (lambda v: check_linearity(CUBIC, CUBIC, v, 1.0, 0.5, punctured_base(1, 0.5),
                                        SMALL, 1e-5), ValueError, TypeError),
    "beta": (lambda v: check_linearity(CUBIC, CUBIC, 1.0, v, 0.5, punctured_base(1, 0.5),
                                       SMALL, 1e-5), ValueError, TypeError),
    "evaluate": (lambda v: evaluate(parse("x^3-x"), {"x": v}), DomainError, TypeError),
    "evaluate_each": (lambda v: list(evaluate_each([parse("x"), parse("x^3-x")], {"x": v})),
                      DomainError, TypeError),
    "symbolic_x0": (lambda v: symbolic_derivative_value(parse("x^3-x"), "x", v),
                    DomainError, TypeError),
    "as_function": (CUBIC, DomainError, TypeError),
}

# Half the draws are awkward: numbers no finite double holds, text and None.
_values = st.one_of(
    st.sampled_from([10**400, -10**400, 2**1024, math.inf, -math.inf, math.nan, Decimal("NaN"),
                     Decimal("sNaN"), Decimal("-sNaN"), Decimal("Infinity"),
                     Decimal("-Infinity"), Decimal("1e400"), Fraction(10**400, 3), None,
                     "1.5", "nan", "abc", "", b"1.5", bytearray(b"2")]),
    st.one_of(st.floats(), st.integers(-10**6, 10**6), st.sampled_from([2**1024 - 2**970]),
              st.fractions(), st.booleans(), st.decimals(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False).map(str)),
)


def _finite_real(value) -> bool:
    """value is a number float() takes to a finite double."""
    try:
        return not isinstance(value, (str, bytes, bytearray)) and math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(value=_values)
def test_every_boundary_takes_a_finite_float(value):
    for site, (call, not_finite, none) in BOUNDARIES.items():
        outcome = _outcome(call, value)
        if _finite_real(value):
            # the site sees float(value), whatever its type: the same result or error
            assert outcome == _outcome(call, float(value)), site
        elif value is None:
            assert outcome[0] is none, site
        elif isinstance(value, (str, bytes, bytearray)):
            assert outcome[0] is TypeError, site   # a numeric string too: text is no number
        else:
            assert outcome[0] is not_finite, site
