"""The value-record contract of the result, config and tree types: the
methods a frozen dataclass has, pinned type by type."""

import math

import pytest

from filterderiv import (AxiomReport, Binary, Call, Constant, DerivativeResult,
                         FContinuityReport, LimitConfig, LimitEstimate, OracleValue,
                         RuleCheckReport, SequenceSpec, SetDescriptor, TraceRow, Unary,
                         Variable, parse, sequence_base)
from filterderiv.filterbase import Piece

EST = LimitEstimate("converged", 1.0, ())
EST_REPR = "LimitEstimate(status='converged', value=1.0, trace=(), failure_detail=None)"
CFG = LimitConfig()
CFG_REPR = ("LimitConfig(max_level=48, samples_per_level=32, tol_osc=1e-09, tol_step=1e-09, "
            "stable_levels=3, no_limit_floor=1e-06, seed=0)")
DR = DerivativeResult(0.5, "punctured", EST, CFG)
DR_REPR = f"DerivativeResult(x0=0.5, base_id='punctured', estimate={EST_REPR}, cfg={CFG_REPR})"

# (type, its fields in order, positional arguments, repr of the instance)
RECORDS = [
    (Constant, ("value",), (1.0,), "Constant(value=1.0)"),
    (Variable, ("name",), ("x",), "Variable(name='x')"),
    (Unary, ("op", "child"), ("neg", Variable("x")),
     "Unary(op='neg', child=Variable(name='x'))"),
    (Binary, ("op", "left", "right"), ("add", Variable("x"), Constant(1.0)),
     "Binary(op='add', left=Variable(name='x'), right=Constant(value=1.0))"),
    (Call, ("fn", "args"), ("max", (Variable("x"), Constant(0.0))),
     "Call(fn='max', args=(Variable(name='x'), Constant(value=0.0)))"),
    (LimitConfig, ("max_level", "samples_per_level", "tol_osc", "tol_step", "stable_levels",
                   "no_limit_floor", "seed"), (48, 32, 1e-9, 1e-9, 3, 1e-6, 0), CFG_REPR),
    (TraceRow, ("scale", "sample_min", "sample_max", "sample_mean", "oscillation"),
     (0.5, -1.0, 1.0, 0.0, 2.0),
     "TraceRow(scale=0.5, sample_min=-1.0, sample_max=1.0, sample_mean=0.0, oscillation=2.0)"),
    (LimitEstimate, ("status", "value", "trace", "failure_detail"),
     ("converged", 1.0, (), None), EST_REPR),
    (DerivativeResult, ("x0", "base_id", "estimate", "cfg"), (0.5, "punctured", EST, CFG),
     DR_REPR),
    (FContinuityReport, ("point", "base_id", "limit", "target", "is_continuous"),
     (0.5, "right", EST, 1.0, True),
     f"FContinuityReport(point=0.5, base_id='right', limit={EST_REPR}, target=1.0, "
     "is_continuous=True)"),
    (RuleCheckReport, ("rule", "lhs", "rhs_value", "f_prime", "g_prime", "continuity_reports",
                       "verdict", "abs_error", "rel_error", "failure_detail", "notes"),
     ("product", DR, 2.0, DR, DR, (), "holds", 0.0, 0.0, None, ()),
     f"RuleCheckReport(rule='product', lhs={DR_REPR}, rhs_value=2.0, f_prime={DR_REPR}, "
     f"g_prime={DR_REPR}, continuity_reports=(), verdict='holds', abs_error=0.0, "
     "rel_error=0.0, failure_detail=None, notes=())"),
    (Piece, ("lo", "hi", "lo_closed", "hi_closed"), (0.0, 1.0, True, False),
     "Piece(lo=0.0, hi=1.0, lo_closed=True, hi_closed=False)"),
    (SetDescriptor, ("intervals", "points", "excluded"), (((0.0, 1.0),), (2.0,), (0.5,)),
     "SetDescriptor(intervals=((0.0, 1.0),), points=(2.0,), excluded=(0.5,))"),
    (SequenceSpec, ("kind", "c", "p", "q"), ("geo", 1.0, None, 0.5),
     "SequenceSpec(kind='geo', c=1.0, p=None, q=0.5)"),
    (AxiomReport, ("base_id", "levels_checked", "empty_levels", "nesting_failures"),
     ("custom", 2, (), ((0, 2),)),
     "AxiomReport(base_id='custom', levels_checked=2, empty_levels=(), "
     "nesting_failures=((0, 2),))"),
    (OracleValue, ("value", "method", "estimated_error"), (2.0, "symbolic", 0.0),
     "OracleValue(value=2.0, method='symbolic', estimated_error=0.0)"),
]
IDS = [row[0].__name__ for row in RECORDS]

# (type, the required arguments, the values of the defaulted fields)
DEFAULTS = [
    (LimitConfig, (), {"max_level": 48, "samples_per_level": 32, "tol_osc": 1e-9,
                       "tol_step": 1e-9, "stable_levels": 3, "no_limit_floor": 1e-6,
                       "seed": 0}),
    (LimitEstimate, ("undecided", None, ()), {"failure_detail": None}),
    (RuleCheckReport, ("linearity", DR, None, DR, DR, (), "inconclusive", None, None),
     {"failure_detail": None, "notes": ()}),
    (SetDescriptor, (), {"intervals": (), "points": (), "excluded": ()}),
    (SequenceSpec, ("piovern",), {"c": 1.0, "p": None, "q": None}),
]

# __post_init__ validation: (construction, error type, message fragment)
INVALID = [
    (lambda: LimitConfig(seed=0.5), ValueError, "must be ints"),
    (lambda: LimitConfig(stable_levels=0), ValueError, "stable_levels must be >= 1"),
    (lambda: LimitConfig(max_level=2), ValueError, "max_level must be >= stable_levels"),
    (lambda: LimitConfig(samples_per_level=1), ValueError, "samples_per_level must be >= 2"),
    (lambda: LimitConfig(tol_osc=0.0), ValueError, "tol_osc must be > 0"),
    (lambda: LimitConfig(no_limit_floor=math.inf), ValueError, "no_limit_floor must be finite"),
    (lambda: SetDescriptor(intervals=((1.0, 0.0),)), ValueError, "needs lo < hi"),
    (lambda: SetDescriptor(intervals=((0.0, 2.0), (1.0, 3.0))), ValueError, "pairwise disjoint"),
    (lambda: SetDescriptor(points=(math.inf,)), ValueError, "points must be finite"),
    (lambda: SequenceSpec("bad"), ValueError, "unknown sequence kind 'bad'"),
    (lambda: SequenceSpec("geo", q=1.5), ValueError, "geo requires 0 < |q| < 1"),
    (lambda: SequenceSpec("piovern", p=2.0), ValueError, "piovern takes no p"),
    (lambda: Constant(), TypeError, "value"),
    (lambda: Variable("x", "y"), TypeError, "positional argument"),
    (lambda: Unary(op="neg", child=Variable("x"), extra=1), TypeError, "extra"),
]


@pytest.mark.parametrize("cls, fields, args, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls, fields, args, text):
        assert cls.__match_args__ == fields
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(fields, args)))
        assert [getattr(by_keyword, name) for name in fields] == list(args)
        assert by_position == by_keyword

    def test_repr(self, cls, fields, args, text):
        assert repr(cls(*args)) == text

    def test_equal_values_have_equal_hashes(self, cls, fields, args, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(args)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, args, text):
        obj = cls(*args)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        assert [getattr(obj, name) for name in fields] == list(args)


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[row[0].__name__ for row in DEFAULTS])
def test_defaults(cls, required, defaults):
    obj = cls(*required)
    assert {name: getattr(obj, name) for name in defaults} == defaults
    assert obj == cls(*required, *defaults.values())


@pytest.mark.parametrize("make, error, message", INVALID)
def test_invalid_construction_raises_as_before(make, error, message):
    with pytest.raises(error, match=message.replace("|", r"\|")):
        make()


def test_equal_fields_of_two_types_are_not_equal():
    assert Constant("x") != Variable("x") and Variable("x") != Constant("x")
    assert Constant(1.0).__eq__(Variable(1.0)) is NotImplemented
    assert Piece(0.0, 1.0, True, True) != (0.0, 1.0, True, True)


def test_parsed_tree_repr_and_match():
    tree = parse("x+1")
    assert repr(tree) == ("Binary(op='add', left=Variable(name='x'), "
                          "right=Constant(value=1.0))")
    match tree:
        case Binary(op, Variable(name), Constant(value)):
            assert (op, name, value) == ("add", "x", 1.0)
        case _:
            pytest.fail("the tree does not match by position")


def test_sequence_tail_is_its_flat_descriptor():
    tail = sequence_base(SequenceSpec("piovern"), max_level=4).element(2)
    flat = SetDescriptor(points=tail.points)
    assert type(tail) is not SetDescriptor
    assert tail == flat and flat == tail and hash(tail) == hash(flat)
    assert repr(tail) == repr(flat)
