import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (SequenceSpec, SetDescriptor, chain_from_elements,
                         generated_filter_witness, in_generated_filter,
                         left_base, punctured_base, right_base, sequence_base,
                         verify_base_axioms)
from filterderiv import filterbase


def S(*intervals, points=(), excluded=()):
    return SetDescriptor(intervals=intervals, points=points, excluded=excluded)


class TestSetDescriptor:
    def test_punctured_interval_splits(self):
        d = S((-0.5, 0.5), excluded=(0.0,))
        assert d.same_set(S((-0.5, 0.0), (0.0, 0.5)))
        assert not d.contains(0.0)
        assert d.contains(0.25) and d.contains(-0.25)

    def test_point_bridges_adjacent_intervals(self):
        d = S((0.0, 1.0), (1.0, 2.0), points=(1.0,))
        assert len(d.pieces) == 1
        assert d.issubset(S((-0.5, 2.5)))
        # without the bridge, a straddling interval is not a subset of it
        gap = S((0.0, 1.0), (1.0, 2.0))
        assert not S((0.5, 1.5)).issubset(gap)
        assert S((0.5, 1.5)).issubset(d)

    def test_point_closes_endpoint(self):
        d = S((0.0, 1.0), points=(0.0,))
        assert d.contains(0.0)
        assert not S((0.0, 1.0)).contains(0.0)

    def test_isolated_points(self):
        d = S(points=(3.0, 5.0), excluded=(5.0,))
        assert d.isolated_points == (3.0,)
        assert d.contains(3.0) and not d.contains(5.0)

    def test_empty_descriptor_allowed(self):
        d = S(points=(1.0,), excluded=(1.0,))
        assert d.is_empty()

    def test_open_interval_minus_points_is_nonempty(self):
        d = S((0.0, 1.0), excluded=(0.25, 0.5, 0.75))
        assert not d.is_empty()
        assert len(d.pieces) == 4

    def test_subset_respects_endpoint_openness(self):
        closed = S((0.0, 1.0), points=(0.0, 1.0))
        assert S((0.0, 1.0)).issubset(closed)
        assert not closed.issubset(S((0.0, 1.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            S((1.0, 0.5))
        with pytest.raises(ValueError):
            S((0.0, 2.0), (1.0, 3.0))
        with pytest.raises(ValueError):
            S((0.0, math.inf))

    def test_subset_of_self_and_transitivity_sample(self):
        a = S((-0.25, 0.25), excluded=(0.0,))
        b = S((-0.5, 0.5), excluded=(0.0,))
        c = S((-1.0, 1.0))
        assert a.issubset(a) and a.issubset(b) and b.issubset(c)
        assert a.issubset(c)
        assert not c.issubset(a)


    @pytest.mark.parametrize("make", [
        lambda: S((0.0, 1.0)),
        lambda: S((0.0, 1.0), points=(2.0,)),
        lambda: S(points=(0.5, 1.0)),
        lambda: punctured_base(1.0, 0.5).element(3),
        lambda: right_base(1.0, 0.5).element(3),
        lambda: left_base(1.0, 0.5).element(3),
    ], ids=["intervals", "mixed", "points", "punctured", "right", "left"])
    def test_nan_is_no_member(self, make):
        # bisect puts NaN past the last piece, where every comparison with
        # it is False
        d = make()
        assert not d.contains(math.nan)
        assert not _flat(d).contains(math.nan)
        assert not any(p.contains(math.nan) for p in d.pieces)


class TestConstructors:
    def test_punctured_element_formula(self):
        b = punctured_base(1.0, 0.5)
        assert b.element(1).same_set(S((-0.5, 0.5), excluded=(0.0,)))

    def test_punctured_nesting(self):
        b = punctured_base(1.0, 0.5)
        assert b.element(3).issubset(b.element(0))

    @pytest.mark.parametrize("bad", [(-1.0, 0.5), (0.0, 0.5), (1.0, 1.5),
                                     (1.0, 1.0), (1.0, 0.0)])
    def test_parameter_validation(self, bad):
        for maker in (punctured_base, right_base, left_base):
            with pytest.raises(ValueError):
                maker(*bad)

    def test_right_element_formula(self):
        b = right_base(1.0, 0.5)
        assert b.element(2).same_set(S((0.0, 0.25)))
        assert all(not b.element(k).contains(0.0) for k in range(0, 65, 8))

    def test_left_element_formula(self):
        b = left_base(1.0, 0.5)
        assert b.element(2).same_set(S((-0.25, 0.0)))
        assert all(not b.element(k).contains(0.0) for k in range(0, 65, 8))

    def test_scales(self):
        b = right_base(2.0, 0.5)
        assert b.scale(0) == 2.0
        assert b.scale(3) == 0.25

    def test_max_level_underflow_rejected(self):
        with pytest.raises(ValueError):
            punctured_base(1.0, 0.1, max_level=400)

    def test_too_deep_chain_names_its_first_level_below_min_scale(self):
        # 0.5**997 is the first power of 0.5 below 1e-300; the ten million
        # levels asked for are never computed
        with pytest.raises(ValueError, match=r"^delta0\*ratio\*\*997 = 7\.46"):
            right_base(1, 0.5, max_level=10**7)


class TestSequenceBase:
    def test_piovern_terms(self):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0))
        first = b.sample(0, 3, seed=99)
        assert first == [1.0 / (math.pi * n) for n in (1, 2, 3)]
        assert b.element(0).contains(1.0 / (math.pi * 2))

    def test_tails_nest(self):
        b = sequence_base(SequenceSpec(kind="powinv", c=1.0, p=1.0))
        assert b.element(5).issubset(b.element(2))
        assert not b.element(2).issubset(b.element(5))

    @pytest.mark.parametrize("spec_kwargs", [
        dict(kind="powinv", c=1.0, p=-1.0),   # not shrinking
        dict(kind="powinv", c=1.0, p=0.0),
        dict(kind="geo", c=1.0, q=1.5),       # diverging
        dict(kind="geo", c=1.0, q=0.0),
        dict(kind="geo", c=1.0),              # missing q
        dict(kind="piovern", c=0.0),          # all terms zero
        dict(kind="alternating", c=1.0),      # outside the closed family
        dict(kind="geo", c=1.0, q=0.5, p=7.0),  # a parameter the kind does not use
        dict(kind="piovern", c=1.0, p=1.0),
        dict(kind="powinv", c=1.0, p=1.0, q=0.5),
        dict(kind="piovern", c=1.0, q=0.5),
    ])
    def test_specs_outside_family_rejected(self, spec_kwargs):
        with pytest.raises(ValueError):
            sequence_base(SequenceSpec(**spec_kwargs))

    def test_underflowing_tail_rejected(self):
        # the tail runs to term 900 + 256, past 0.5**1075 = 0
        with pytest.raises(ValueError, match="underflowed"):
            sequence_base(SequenceSpec(kind="geo", c=1.0, q=0.5), max_level=900)

    @pytest.mark.parametrize("spec", [SequenceSpec("piovern"), SequenceSpec("powinv", p=1.0),
                                      SequenceSpec("geo", q=0.5), SequenceSpec("geo", q=-0.999)],
                             ids=["piovern", "powinv", "geo", "geo-slow"])
    def test_huge_budget_rejected_before_any_term(self, spec, monkeypatch):
        # the last term, index 10**400 + 256, underflows; building the terms
        # up to it would never return, so a long range of them fails the test
        _forbid_long_ranges(monkeypatch)
        with pytest.raises(ValueError, match="underflowed"):
            sequence_base(spec, max_level=10**400)

    @pytest.mark.parametrize("max_level", [10**400, 2**53 + 1 - 256],
                             ids=["10**400", "least-rejected"])
    @pytest.mark.parametrize("spec", [SequenceSpec("piovern", c=1e308),
                                      SequenceSpec("powinv", p=1e-3)], ids=["piovern", "powinv"])
    def test_huge_budget_of_lasting_terms_rejected_before_any_term(self, spec, max_level,
                                                                   monkeypatch):
        # the last term stays far above underflow, but n = 2**53 + 1 is the
        # double 2**53, so its term repeats the one before: a tail that long
        # is not strictly decreasing and fails before a term is built
        assert spec.c * math.pow(2**53, -spec.p if spec.kind == "powinv" else -1.0) != 0.0
        _forbid_long_ranges(monkeypatch)
        with pytest.raises(ValueError, match="sequence is not strictly decreasing in magnitude"):
            sequence_base(spec, max_level=max_level)

    def test_sample_exhausts_truncation(self):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0), max_level=8)
        assert len(b.sample(8, 256, seed=0)) == 256
        with pytest.raises(ValueError, match="holds 256 points, need 257"):
            b.sample(8, 257, seed=0)

    def test_negative_ratio_geo_allowed(self):
        b = sequence_base(SequenceSpec(kind="geo", c=1.0, q=-0.5))
        pts = b.sample(0, 4, seed=0)
        assert pts[0] < 0 < pts[1]


def _forbid_long_ranges(monkeypatch):
    """Make filterbase's range fail the test where it spans more than 10**6
    numbers, as the term list of a huge budget would."""
    def short(*args):
        if (r := range(*args)).stop - r.start > 10**6:
            raise AssertionError(f"builds terms up to {r.stop}")
        return r
    monkeypatch.setattr(filterbase, "range", short, raising=False)


class TestAxioms:
    @pytest.mark.parametrize("maker", [punctured_base, right_base, left_base])
    def test_builtins_pass(self, maker):
        rep = verify_base_axioms(maker(1.0, 0.5), 16)
        assert rep.passed and rep.axiom1_ok and rep.axiom2_ok

    def test_sequence_passes(self):
        rep = verify_base_axioms(sequence_base(SequenceSpec(kind="piovern", c=2.0),
                                               max_level=16), 16)
        assert rep.passed

    def test_broken_nesting_named(self):
        chain = chain_from_elements("broken-nest", [
            S((-1.0, 1.0)), S((-0.25, 0.25)), S((-0.5, 0.5))])
        rep = verify_base_axioms(chain, 2)
        assert not rep.passed and rep.axiom1_ok and not rep.axiom2_ok
        assert rep.nesting_failures == ((1, 2),)

    def test_empty_element_named(self):
        chain = chain_from_elements("broken-empty", [
            S((-1.0, 1.0)), S(points=(0.5,), excluded=(0.5,))])
        rep = verify_base_axioms(chain, 1)
        assert not rep.passed and not rep.axiom1_ok and rep.axiom2_ok
        assert rep.empty_levels == (1,)

    def test_k_beyond_chain_rejected(self):
        with pytest.raises(ValueError):
            verify_base_axioms(punctured_base(1.0, 0.5, max_level=8), 9)


# Values for random descriptors: a coarse grid, so that random sets often
# touch, contain and exclude one another, with both signs of zero.
_GRID = (-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)


def _membership(d, x):
    """The defining formula of a descriptor's set."""
    return ((any(lo < x < hi for lo, hi in d.intervals) or x in d.points)
            and x not in d.excluded)


def _probes(d):
    """Every value the descriptor or the grid names, their neighbours and
    the midpoints."""
    vals = sorted({v for iv in d.intervals for v in iv}
                  | set(d.points + d.excluded) | set(_GRID))
    out = set(vals) | {(a + b) / 2 for a, b in zip(vals, vals[1:])}
    out |= {math.nextafter(v, t) for v in vals for t in (-math.inf, math.inf)}
    return sorted(out)


def _flat(d):
    """d as a plain descriptor of its own stored shape."""
    return SetDescriptor(intervals=d.intervals, points=d.points, excluded=d.excluded)


def _swept(d):
    """An equal descriptor whose whole canonical form, lookups included,
    comes from the general merge, whatever its shape."""
    c = _flat(d)
    c._set_canonical(*d._merge())
    return c


@st.composite
def open_intervals(draw):
    """Sorted disjoint open intervals over the grid; neighbours may share an
    endpoint, and a shared zero may carry different signs on its two sides."""
    cuts = sorted(draw(st.sets(st.sampled_from(_GRID), max_size=7)))
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            if lo == 0.0 and draw(st.booleans()):
                lo = -lo
            spans.append((lo, hi))
    return tuple(spans)


_point_lists = st.lists(st.sampled_from(_GRID), max_size=8)


@st.composite
def descriptors(draw):
    return SetDescriptor(intervals=draw(open_intervals()), points=draw(_point_lists),
                         excluded=draw(st.lists(st.sampled_from(_GRID), max_size=3)))


@st.composite
def nested_chains(draw):
    """element(k) = (-r_k, r_k) ∪ tail_k \\ excluded_k with r_k non-increasing,
    shrinking point tails and growing excluded sets, so every pair nests; an
    r_k of 0 leaves points only, possibly none."""
    n = draw(st.integers(min_value=1, max_value=8))
    radii = sorted(draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                                 min_size=n, max_size=n)), reverse=True)
    tail = draw(st.lists(st.sampled_from(_GRID), max_size=n + 2))
    gone = draw(st.lists(st.sampled_from(_GRID), min_size=n, max_size=n))
    return [SetDescriptor(intervals=((-r, r),) if r else (), points=tail[k:],
                          excluded=gone[:k]) for k, r in enumerate(radii)]


@st.composite
def swapped_chains(draw):
    """A nested chain with two levels swapped: failures that need not sit
    on consecutive levels."""
    elems = draw(nested_chains())
    j = draw(st.integers(min_value=0, max_value=len(elems) - 1))
    k = draw(st.integers(min_value=0, max_value=len(elems) - 1))
    elems[j], elems[k] = elems[k], elems[j]
    return elems


class TestClosedFormCanonical:
    def _agrees_with_sweep(self, d):
        ref = _swept(d)
        assert d.pieces == ref.pieces
        assert repr(d.isolated_points) == repr(ref.isolated_points)
        for x in _probes(d):
            assert d.contains(x) == ref.contains(x) == _membership(d, x)

    @settings(max_examples=150, deadline=None)
    @given(_point_lists, st.lists(st.sampled_from(_GRID), max_size=4))
    def test_points_only(self, points, excluded):
        self._agrees_with_sweep(S(points=points, excluded=excluded))

    @settings(max_examples=150, deadline=None)
    @given(open_intervals())
    def test_open_intervals_only(self, spans):
        d = S(*spans)
        assert all(not p.lo_closed and not p.hi_closed for p in d.pieces)
        assert d.isolated_points == ()
        self._agrees_with_sweep(d)

    @settings(max_examples=300, deadline=None)
    @given(descriptors())
    def test_merge_gives_maximal_components(self, d):
        """The reference itself, checked without it: its pieces and isolated
        points hold exactly the members, and no two of them touch at a
        point either one holds, so none could be joined."""
        pieces, isolated = d._merge()
        for x in _probes(d):
            assert (any(p.contains(x) for p in pieces) or x in isolated) == _membership(d, x)
        comps = sorted([(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in pieces]
                       + [(x, x, True, True) for x in isolated])
        for a, b in zip(comps, comps[1:]):
            assert a[1] < b[0] or (a[1] == b[0] and not a[3] and not b[2])
        assert list(isolated) == sorted(set(isolated))

    @settings(max_examples=150, deadline=None)
    @given(descriptors())
    def test_mixed_shapes_follow_the_formula(self, d):
        for x in _probes(d):
            assert d.contains(x) == _membership(d, x)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(open_intervals().map(lambda iv: S(*iv)),
                     _point_lists.map(lambda p: S(points=p)), descriptors()),
           st.one_of(open_intervals().map(lambda iv: S(*iv)),
                     _point_lists.map(lambda p: S(points=p)), descriptors()))
    def test_issubset_agrees_with_sweep(self, a, b):
        assert a.issubset(b) == _swept(a).issubset(_swept(b))
        assert a.same_set(b) == _swept(a).same_set(_swept(b))

    def test_cases(self):
        dup = S(points=(0.5, 0.25, 0.5, -0.0, 0.0), excluded=(0.25, 2.0))
        assert repr(dup.isolated_points) == "(-0.0, 0.5)"  # first zero kept
        assert S(points=(0.0,), excluded=(-0.0,)).is_empty()
        assert S(points=(-0.0,)).contains(0.0)
        adjacent = S((-1.0, -0.0), (0.0, 1.0))
        assert adjacent.pieces == (filterbase.Piece(-1.0, 0.0, False, False),
                                   filterbase.Piece(0.0, 1.0, False, False))
        assert not adjacent.contains(0.0) and not adjacent.contains(-0.0)
        assert not S((-0.5, 0.5)).issubset(adjacent)


class TestFastNesting:
    """verify_base_axioms against the full scan of every pair."""

    @staticmethod
    def _full_scan(chain, K):
        descs = [chain.element(k) for k in range(K + 1)]
        return tuple((j, k) for j in range(K + 1) for k in range(j + 1, K + 1)
                     if not descs[k].issubset(descs[j]))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(nested_chains(), swapped_chains(),
                     st.lists(descriptors(), min_size=1, max_size=8)))
    def test_matches_full_scan(self, elems):
        chain = chain_from_elements("random", elems)
        K = chain.max_level
        rep = verify_base_axioms(chain, K)
        assert rep.nesting_failures == self._full_scan(chain, K)
        assert rep.empty_levels == tuple(k for k, d in enumerate(elems)
                                         if _swept(d).is_empty())

    @settings(max_examples=100, deadline=None)
    @given(nested_chains())
    def test_nested_chains_pass(self, elems):
        assert verify_base_axioms(chain_from_elements("nested", elems),
                                  len(elems) - 1).axiom2_ok

    def test_multi_failure_chain_pinned(self):
        # Failing pairs recorded from the all-pairs scan before the
        # consecutive-level check: four of them are not consecutive.
        chain = chain_from_elements("multi", [
            S((-1.0, 1.0)), S((-0.25, 0.25)), S((-0.5, 0.5)), S((-2.0, 2.0)),
            S(points=(0.1,)), S(points=(0.5,), excluded=(0.5,)), S((0.3, 0.4))])
        rep = verify_base_axioms(chain, 6)
        assert rep.empty_levels == (5,)
        assert rep.nesting_failures == (
            (0, 3), (1, 2), (1, 3), (1, 6), (2, 3), (4, 6), (5, 6))


# Sequences of every kind: c of both signs, geo also with q < 0 (signs
# alternate), and geo with c = 1, q = 0.5, whose terms sit on _GRID.
SEQUENCE_SPECS = [SequenceSpec("powinv", c=1.0, p=1.0), SequenceSpec("powinv", c=-0.5, p=2.0),
                  SequenceSpec("geo", c=1.0, q=0.5), SequenceSpec("geo", c=-1.0, q=-0.5),
                  SequenceSpec("geo", c=2.0, q=-0.9), SequenceSpec("piovern", c=1.0),
                  SequenceSpec("piovern", c=-3.0)]


class TestSequenceTails:
    """A sequence base's element(k) against SetDescriptor(points=values[k:])."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(SEQUENCE_SPECS), st.integers(min_value=0, max_value=40),
           st.data())
    def test_tail_agrees_with_its_points(self, spec, n, data):
        b, twin = sequence_base(spec, max_level=n), sequence_base(spec, max_level=n)
        values = b.element(0).points
        k = data.draw(st.integers(min_value=0, max_value=n))
        tail, flat = b.element(k), SetDescriptor(points=values[k:])
        # the twin holds equal terms in another tuple, so no start is compared
        assert twin.element(0).points == values
        assert twin.element(0).points is not values

        probes = [0.0, -0.0, math.nan]
        for v in values:
            probes += [v, -v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        for x in probes:
            assert tail.contains(x) == flat.contains(x)

        levels = data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=3))
        i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        hi = data.draw(st.sampled_from([abs(values[i]), math.nextafter(abs(values[i]), 1.0)]))
        others = ([b.element(j) for j in {0, k, min(k + 1, n), n, *levels}]
                  + [twin.element(j) for j in {k, *levels}]
                  + [data.draw(descriptors()), S((0.0, hi)), S((-hi, 0.0))])
        for other in others:
            assert tail.issubset(other) == flat.issubset(_flat(other))
            assert other.issubset(tail) == _flat(other).issubset(flat)
            assert tail.same_set(other) == flat.same_set(_flat(other))
            assert (tail == other) == (flat == _flat(other))

        assert tail.points == flat.points and type(tail.points) is tuple
        assert tail == flat and flat == tail and not tail != flat
        assert hash(tail) == hash(flat)
        assert repr(tail) == repr(flat)
        assert tail.is_empty() == flat.is_empty()
        assert repr(tail.isolated_points) == repr(flat.isolated_points)

    def test_deep_verify_builds_no_sorted_tail(self, monkeypatch):
        """Nesting of 4001 tails is decided from their starts: no tail is
        canonicalized, so the check is linear in the levels."""
        def no_sort(*args, **kwargs):
            raise AssertionError("verify_base_axioms sorted a tail")

        monkeypatch.setattr(filterbase, "sorted", no_sort, raising=False)
        b = sequence_base(SequenceSpec("piovern"), max_level=4000)
        assert verify_base_axioms(b, 4000).passed

    @pytest.mark.parametrize("spec", SEQUENCE_SPECS, ids=SequenceSpec.describe)
    def test_report_matches_materialized_tails(self, spec):
        b = sequence_base(spec, max_level=64)
        flat = chain_from_elements(b.id, [_flat(b.element(k)) for k in range(65)],
                                   punctured_at_zero=True)
        assert verify_base_axioms(b, 64) == verify_base_axioms(flat, 64)
        assert verify_base_axioms(b.subchain(3), 21) == verify_base_axioms(flat.subchain(3), 21)
        for v in b.sample(0, 40, seed=0)[::3]:
            for cover in (S((0.0, abs(v))), S((-abs(v), 0.0)), S((-abs(v), abs(v)))):
                assert (generated_filter_witness(b, cover, 64)
                        == generated_filter_witness(flat, cover, 64))


GEOMETRIC_MAKERS = {"punctured": punctured_base, "right": right_base, "left": left_base}


def _spans(kind, d):
    """The open intervals of a geometric element at scale d."""
    return {"punctured": ((-d, 0.0), (0.0, d)), "right": ((0.0, d),), "left": ((-d, 0.0),)}[kind]


class TestGeometricElements:
    """A geometric base's element(k) against SetDescriptor(intervals=spans(d)),
    d = scale(k)."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(sorted(GEOMETRIC_MAKERS)), st.sampled_from([0.1, 1.0, 10.0]),
           st.sampled_from([0.25, 0.5, 0.9]), st.data())
    def test_element_agrees_with_its_intervals(self, kind, delta0, ratio, data):
        n = 64
        b = GEOMETRIC_MAKERS[kind](delta0, ratio, max_level=n)
        # small levels too, where delta0 = 1 puts the scales on _GRID
        k = data.draw(st.one_of(st.integers(min_value=0, max_value=3),
                                st.integers(min_value=0, max_value=n)))
        d = b.scale(k)
        elem, flat = b.element(k), S(*_spans(kind, d))

        probes = [0.0, -0.0, math.inf, -math.inf, math.nan,
                  math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)]
        for v in (d, -d):
            probes += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        for x in probes:
            assert elem.contains(x) == flat.contains(x)

        levels = data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=3))
        other_kind = data.draw(st.sampled_from(sorted(GEOMETRIC_MAKERS)))
        other = GEOMETRIC_MAKERS[other_kind](
            data.draw(st.sampled_from([0.1, 1.0, 10.0, delta0])),
            data.draw(st.sampled_from([0.25, 0.5, 0.9, ratio])), max_level=n)
        stride = data.draw(st.integers(min_value=1, max_value=4))
        sub = b.subchain(stride)
        tails = sequence_base(data.draw(st.sampled_from(SEQUENCE_SPECS)), max_level=n)
        others = ([b.element(j) for j in {0, k, min(k + 1, n), n, *levels}]
                  + [GEOMETRIC_MAKERS[other_kind](delta0, ratio, max_level=n).element(k)]
                  + [other.element(j) for j in {k, *levels}]
                  + [sub.element(j // stride) for j in {k, *levels}]
                  + [tails.element(j) for j in {k, *levels}]
                  + [data.draw(descriptors()), S((0.0, d)), S((-d, 0.0)), S((-d, d)),
                     S((0.0, math.nextafter(d, 0.0))), S((-d, math.nextafter(0.0, 1.0)))])
        for o in others:
            assert elem.issubset(o) == flat.issubset(_flat(o))
            assert o.issubset(elem) == _flat(o).issubset(flat)
            assert elem.same_set(o) == flat.same_set(_flat(o))
            assert (elem == o) == (flat == _flat(o))

        assert elem.intervals == flat.intervals and type(elem.intervals) is tuple
        assert elem == flat and flat == elem and not elem != flat
        assert hash(elem) == hash(flat)
        assert repr(elem) == repr(flat)
        assert elem.is_empty() == flat.is_empty()
        assert elem.pieces == flat.pieces
        assert repr(elem.isolated_points) == repr(flat.isolated_points)

    @pytest.mark.parametrize("kind", sorted(GEOMETRIC_MAKERS))
    @pytest.mark.parametrize("delta0", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.9])
    def test_queries_match_flat_chain(self, kind, delta0, ratio):
        b = GEOMETRIC_MAKERS[kind](delta0, ratio)
        flat = chain_from_elements(b.id, [_flat(b.element(k)) for k in range(65)],
                                   punctured_at_zero=True)
        assert verify_base_axioms(b, 64) == verify_base_axioms(flat, 64)
        assert verify_base_axioms(b.subchain(3), 21) == verify_base_axioms(flat.subchain(3), 21)
        for j in (0, 1, 7, 20, 40, 64):
            r = b.scale(j)
            between = r / math.sqrt(ratio)
            for cover in (S((-r, r)), S((0.0, r)), S((-r, 0.0)), S((-between, between)),
                          S((-r, math.nextafter(r, 0.0))), S((-r, r), excluded=(r / 2,)),
                          S((-r, 0.0), (0.0, r), points=(0.0,)),
                          S((0.3 * delta0, 2.0 * delta0))):
                for K in (j, 64):
                    assert (generated_filter_witness(b, cover, K)
                            == generated_filter_witness(flat, cover, K))
                    assert in_generated_filter(b, cover, K) == in_generated_filter(flat, cover, K)

    def test_queries_build_no_piece(self, monkeypatch):
        """Verifying a geometric base and asking whether a set belongs to
        its filter read no element's canonical form: no Piece is built once
        the query sets exist."""
        cover, far = S((-0.3, 0.3)), S((0.2, 2.0))

        def no_piece(*args, **kwargs):
            raise AssertionError("a geometric element built a Piece")

        monkeypatch.setattr(filterbase, "Piece", no_piece)
        for kind, maker in GEOMETRIC_MAKERS.items():
            b = maker(1.0, 0.5)
            assert verify_base_axioms(b, 64).passed, kind
            assert generated_filter_witness(b, cover, 64) == 2, kind  # scale 0.25
            assert not in_generated_filter(b, far, 64), kind


class TestGeneratedFilter:
    def test_superset_of_element_is_member(self):
        b = punctured_base(1.0, 0.5)
        assert in_generated_filter(b, S((-1.0, 1.0)), 16)
        assert generated_filter_witness(b, S((-1.0, 1.0)), 16) <= 1

    def test_one_sided_set_is_not_member(self):
        b = punctured_base(1.0, 0.5)
        assert not in_generated_filter(b, S((0.0, 1.0)), 64)

    def test_right_base_member(self):
        b = right_base(1.0, 0.5)
        assert in_generated_filter(b, S((0.0, 1.0)), 16)

    def test_monotone_in_k(self):
        b = punctured_base(1.0, 0.5)
        tight = S((-0.01, 0.01))
        ks = [K for K in range(11) if in_generated_filter(b, tight, K)]
        assert ks == list(range(7, 11))  # 0.5**7 < 0.01: once in, stays in

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.05, max_value=0.9),
           st.floats(min_value=0.001, max_value=5.0),
           st.integers(min_value=0, max_value=32))
    def test_monotone_in_s(self, delta0, ratio, width, K):
        b = punctured_base(delta0, ratio, max_level=32)
        small = S((-width, width))
        big = S((-2 * width, 2 * width))
        if in_generated_filter(b, small, K):
            assert in_generated_filter(b, big, K)


def _constructor_chains():
    """Every chain a constructor builds for these tests: the three geometric
    kinds over the benchmark's delta0/ratio grid and the sequences above,
    each also as subchain(2) and subchain(3)."""
    bases = [(f"{kind}:{delta0},{ratio}", lambda m=maker, d=delta0, r=ratio: m(d, r))
             for kind, maker in sorted(GEOMETRIC_MAKERS.items())
             for delta0 in (0.1, 1.0, 10.0) for ratio in (0.25, 0.5, 0.9)]
    bases += [(spec.describe(), lambda spec=spec: sequence_base(spec)) for spec in SEQUENCE_SPECS]
    return [(f"{name}/{stride}", make, stride) for name, make in bases for stride in (1, 2, 3)]


CONSTRUCTOR_CHAINS = _constructor_chains()


def _scan_witness(b, S_, K):
    """The level-by-level reference, on plain descriptors: no closed form,
    bisection or hull test is involved."""
    flat = _flat(S_)
    return next((k for k in range(K + 1) if _flat(b.element(k)).issubset(flat)), None)


@st.composite
def _sets_near(draw, b):
    """A union of intervals, points and excluded points at the magnitudes of
    b's levels, so that its witness may sit at any level or nowhere; an
    interval may end at 0 or hold it, and a point may hold or exclude a
    term of a sequence."""
    def mag():
        k = draw(st.integers(min_value=0, max_value=b.max_level))
        e = b.element(k)
        r = max(abs(x) for x in (e.points or e.intervals[0]))
        return r * draw(st.sampled_from([0.3, 1.0, 1.0000001, 3.0]))

    cuts = sorted({*draw(st.sampled_from([(), (0.0,)])),
                   *(draw(st.sampled_from([1.0, -1.0])) * mag()
                     for _ in range(draw(st.integers(min_value=1, max_value=4))))})
    spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if draw(st.booleans())]
    terms = b.element(0).points
    named = lambda: draw(st.sampled_from([0.0, mag(), -mag()] + list(terms[:40:7])))
    points = [named() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    excluded = [named() for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return SetDescriptor(intervals=tuple(spans), points=tuple(points), excluded=tuple(excluded))


class TestWitnessBisection:
    """generated_filter_witness bisects the levels of a chain a constructor
    built and scans a hand-built one's; both give the scan's answer."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(CONSTRUCTOR_CHAINS), st.data())
    def test_bisection_equals_the_scan(self, chain, data):
        _, make, stride = chain
        b = make().subchain(stride) if stride > 1 else make()
        assert b._nested
        S_ = data.draw(_sets_near(b))
        w = _scan_witness(b, S_, b.max_level)
        Ks = {0, 1, data.draw(st.integers(min_value=0, max_value=b.max_level)), b.max_level}
        if w is not None:  # K at the witness and on either side of it
            Ks |= {w - 1, w, w + 1}
        for K in Ks & set(range(b.max_level + 1)):
            expected = _scan_witness(b, S_, K)
            assert generated_filter_witness(b, S_, K) == expected
            assert in_generated_filter(b, S_, K) == (expected is not None)

    @pytest.mark.parametrize("S_,K", [(S((0.5, 2.0)), 20_000), (S((-0.5, 0.5)), 20_000),
                                      (S((-1e-6, 1e-6)), 20_000), (S((-0.5, 0.5)), 0)])
    def test_element_calls_are_logarithmic(self, S_, K):
        b = punctured_base(1.0, 0.999, max_level=20_000)
        calls = []

        def element(k):
            calls.append(k)
            return type(b).element(b, k)
        b.element = element
        found = generated_filter_witness(b, S_, K)
        assert len(calls) <= math.ceil(math.log2(K + 2))
        assert found == _scan_witness(b, S_, K)

    def test_hand_built_chain_is_scanned(self):
        """Not nested: a bisection would probe levels 2, 3 and 4 and say
        None, but level 1 is the first inside S."""
        b = chain_from_elements("not-nested", [S((-1.0, 1.0)), S((-0.1, 0.1)), S((-0.5, 0.5)),
                                               S((-0.5, 0.5)), S((-0.5, 0.5))])
        cover = S((-0.2, 0.2))
        assert not b._nested
        assert generated_filter_witness(b, cover, 4) == 1
        assert in_generated_filter(b, cover, 4)
        b._nested = True  # what bisecting it would give
        assert generated_filter_witness(b, cover, 4) is None

    def test_subchain_of_hand_built_chain_is_scanned(self):
        b = chain_from_elements("c", [S((-1.0, 1.0)), S((0.5, 0.6))])
        assert not b.subchain(1)._nested
        assert punctured_base(1.0, 0.5).subchain(2)._nested

    @pytest.mark.parametrize("spec,cover,inside", [
        # the tail 1, 1/2, 1/3, ... around a hole between 1/2 and 1/3, or on 1/3
        (SequenceSpec("powinv", c=1.0, p=1.0), S((0.0, 2.0), excluded=(0.45,)), True),
        (SequenceSpec("powinv", c=1.0, p=1.0), S((0.0, 2.0), excluded=(1.0 / 3.0,)), False),
        # alternating terms -0.5, 0.25, ... around the hole at 0
        (SequenceSpec("geo", c=1.0, q=-0.5), S((-1.0, 0.0), (0.0, 1.0)), True),
        (SequenceSpec("geo", c=1.0, q=-0.5), S((-1.0, 1.0), excluded=(-0.125,)), False),
    ])
    def test_tail_across_a_hole_is_decided_point_by_point(self, spec, cover, inside, monkeypatch):
        tail = sequence_base(spec).element(0)
        calls = []
        contains = SetDescriptor.contains
        monkeypatch.setattr(SetDescriptor, "contains",
                            lambda self, x: calls.append(x) or contains(self, x))
        assert tail.issubset(cover) == inside == _flat(tail).issubset(_flat(cover))
        assert len(calls) > 2  # the hull test could not decide it

    @pytest.mark.parametrize("cover", [S((-1.0, 0.2)), S((-0.2, 1.0)), S((-0.6, 0.3)),
                                       S((-0.6, 0.2)), S((-0.4, 0.3))])
    def test_alternating_tail_hull_spans_both_signs(self, cover):
        """The terms -0.5, 0.25, -0.125, ...: the hull of a tail runs from its
        first negative to its first positive term, whichever comes first."""
        b = sequence_base(SequenceSpec("geo", c=1.0, q=-0.5))
        for k in range(4):
            assert b.element(k).issubset(cover) == _flat(b.element(k)).issubset(_flat(cover))

    def test_tail_inside_one_component_calls_no_contains(self, monkeypatch):
        tail = sequence_base(SequenceSpec("geo", c=1.0, q=-0.5)).element(3)
        def no_contains(self, x):
            raise AssertionError("the tail's points were tested one by one")
        monkeypatch.setattr(SetDescriptor, "contains", no_contains)
        assert tail.issubset(S((-0.1, 0.1)))  # the tail starts at 0.0625
        assert tail.issubset(S((-1.0, 1.0), excluded=(0.5,)))


class TestSampling:
    def test_membership_and_distinctness(self):
        b = right_base(1.0, 0.5)
        pts = b.sample(0, 4, seed=7)
        assert len(set(pts)) == 4
        assert all(0.0 < p < 1.0 for p in pts)

    def test_deterministic(self):
        b = punctured_base(1.0, 0.5)
        assert b.sample(5, 32, seed=3) == b.sample(5, 32, seed=3)
        assert b.sample(5, 32, seed=3) != b.sample(5, 32, seed=4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=64),
           st.integers(min_value=2, max_value=64),
           st.integers(min_value=-2**40, max_value=2**40))
    def test_punctured_never_yields_zero(self, k, m, seed):
        b = punctured_base(1.0, 0.5)
        pts = b.sample(k, m, seed)
        assert 0.0 not in pts
        d = b.element(k)
        assert all(d.contains(p) for p in pts)

    def test_min_sample_count(self):
        with pytest.raises(ValueError):
            punctured_base(1.0, 0.5).sample(0, 1, seed=0)

    def test_proportional_allocation_covers_both_sides(self):
        b = punctured_base(1.0, 0.5)
        pts = b.sample(0, 32, seed=0)
        assert sum(1 for p in pts if p < 0) == 16
        assert sum(1 for p in pts if p > 0) == 16

    @pytest.mark.parametrize("points,m,expected", [
        ((0.5, 0.5, 0.25), 2, [0.5, 0.25]),
        ((0.0, -0.0, 0.25), 2, [0.0, 0.25]),
        ((-0.0, 0.0, 0.25), 2, [-0.0, 0.25]),
        ((0.75, 0.5, 0.75, 0.25, 0.5), 3, [0.75, 0.5, 0.25]),
    ])
    def test_points_only_samples_are_distinct(self, points, m, expected):
        pts = chain_from_elements("d", [S(points=points)]).sample(0, m, 0)
        assert [repr(p) for p in pts] == [repr(p) for p in expected]

    @pytest.mark.parametrize("maker", [punctured_base, right_base])
    def test_width_beyond_the_float_range_is_a_value_error(self, maker):
        # punctured: the two widths sum past the float range; right: 32
        # times the one width does
        with pytest.raises(ValueError, match="level 0 is too wide to sample 32 points"):
            maker(1e308, 0.5).sample(0, 32, seed=0)

    def test_repeated_points_count_once(self):
        with pytest.raises(ValueError, match="only 1 sampleable points"):
            chain_from_elements("d", [S(points=(0.5, 0.5))]).sample(0, 2, 0)


# sample(k, 32, seed) of each level's annulus (element(k) without
# element(k+1)), as the per-point four-round hash produced it, for both
# geometric shapes, levels 0, 24 and 48, and seeds 0, 13 and 2**64 + 5 (the
# last only reaches the hash through its low 64 bits).
PINNED_SAMPLES = {
    ("punctured", 0, 0): (
        -0.9915523077682843, -0.9398518511905846, -0.9243867185558574, -0.8859447686715834,
        -0.8554853675935388, -0.8205904640866635, -0.7815454041346719, -0.7707641209427907,
        -0.734008438220737, -0.6986970375645727, -0.6862741904461243, -0.6521798254756814,
        -0.5957051432187535, -0.5875772479116221, -0.5574762973100662, -0.5071400582037242,
        0.5201253907070942, 0.5595151890342955, 0.5895053689325458, 0.6036074482239591,
        0.6518265533379508, 0.6662440982990584, 0.7153767044250721, 0.721598746508345,
        0.7794183252640281, 0.7822496806642678, 0.8258774751673441, 0.8670479157618114,
        0.9062474946147168, 0.9064099337188445, 0.9392645139064404, 0.970943421490107),
    ("punctured", 0, 13): (
        -0.9888332626183548, -0.9543794102744241, -0.9162150393816648, -0.8902947929784828,
        -0.8732981020256492, -0.8319751282764539, -0.8005801615647153, -0.7795709170229685,
        -0.7357320992534628, -0.696871375957194, -0.6806234390250447, -0.6309887043593498,
        -0.6138546165905052, -0.5755746183079191, -0.5541681456699765, -0.5024340298462437,
        0.5118263249830339, 0.5445246341925968, 0.5894673901678685, 0.595320858927074,
        0.6518443086255036, 0.668957613476288, 0.7003943597275694, 0.7214321869159943,
        0.768491135872016, 0.7914402568601269, 0.8306520122135155, 0.8718203541029415,
        0.8769704543345114, 0.9064849837590263, 0.9445353603872458, 0.993561949334854),
    ("punctured", 0, 2**64 + 5): (
        -0.9995147924029889, -0.9591317149169403, -0.920838560662736, -0.8928774754391137,
        -0.8595425954255622, -0.8140887160146576, -0.7900621378258054, -0.7519593164817657,
        -0.7417644627618667, -0.697937521288862, -0.6580000489439022, -0.6379544800105665,
        -0.6146161258185856, -0.5935202648170566, -0.5471505793011855, -0.5015619932841304,
        0.5142104678928962, 0.553376768318912, 0.5638459385941109, 0.6190689642625918,
        0.6386495345768766, 0.6844868349966117, 0.6921296446377074, 0.728404171324826,
        0.7588293757481033, 0.8026929414843267, 0.8164688330507346, 0.8450456978050203,
        0.8773719999274382, 0.923301253373493, 0.9551901450268476, 0.9999144993691034),
    ("punctured", 24, 0): (
        -5.854714295993385e-08, -5.660104279281678e-08, -5.5218877929790485e-08,
        -5.2586187902492167e-08, -5.20449761647209e-08, -4.9496087911892146e-08,
        -4.812471499549442e-08, -4.560880676973943e-08, -4.327098341902856e-08,
        -4.1795526622321744e-08, -3.9781335894488645e-08, -3.7494357970962274e-08,
        -3.723843541765276e-08, -3.407177928591074e-08, -3.22602358580083e-08,
        -2.99783221068491e-08, 2.985290139288504e-08, 3.1764705234300545e-08,
        3.400621117824184e-08, 3.687905783893117e-08, 3.815748379041587e-08,
        3.991204353755078e-08, 4.118158072714811e-08, 4.322927836896276e-08,
        4.476248904834691e-08, 4.696975085692566e-08, 4.891402080934979e-08,
        5.1337908064875196e-08, 5.3535960517791516e-08, 5.426229085544088e-08,
        5.6049131779612255e-08, 5.926303679718307e-08),
    ("punctured", 24, 13): (
        -5.8056497051886224e-08, -5.7499181918451595e-08, -5.562668766046981e-08,
        -5.25354954386277e-08, -5.1137979610613466e-08, -4.879199970574993e-08,
        -4.78388634692152e-08, -4.604923548729998e-08, -4.295180109200679e-08,
        -4.174824731108703e-08, -4.031014239317957e-08, -3.847519286266892e-08,
        -3.581428401522776e-08, -3.51547929200494e-08, -3.2904633828382984e-08,
        -3.1330071670348726e-08, 3.0640769313379716e-08, 3.227341054870614e-08,
        3.370520059301456e-08, 3.6575687562349606e-08, 3.803018383649805e-08,
        3.92795593884728e-08, 4.2191218468281034e-08, 4.365145067069435e-08,
        4.655699741434177e-08, 4.741716865800302e-08, 4.970298630023547e-08,
        5.080022134780532e-08, 5.343916862802999e-08, 5.515762047448723e-08,
        5.75541293063325e-08, 5.861101664992342e-08),
    ("punctured", 24, 2**64 + 5): (
        -5.887091278822386e-08, -5.7455203020158665e-08, -5.4741655699050747e-08,
        -5.3949058801775514e-08, -5.186692786242589e-08, -4.8892024350228675e-08,
        -4.670273811975029e-08, -4.580294176165072e-08, -4.455417192962034e-08,
        -4.224174448284888e-08, -4.0238139873690167e-08, -3.79115418106416e-08,
        -3.64609331280811e-08, -3.3611528626968896e-08, -3.2823296924234565e-08,
        -3.059744727079188e-08, 2.987151438090556e-08, 3.2385558692860094e-08,
        3.387221195927424e-08, 3.662465940694469e-08, 3.760387676589438e-08,
        4.033645224987355e-08, 4.1508019568797175e-08, 4.3712401977375456e-08,
        4.492005529655295e-08, 4.691203919529441e-08, 4.9024797334721555e-08,
        5.1070099373981387e-08, 5.2774942964393904e-08, 5.574038311236548e-08,
        5.7632950202383635e-08, 5.9398442394235764e-08),
    ("punctured", 48, 0): (
        -3.5473591591918213e-15, -3.3477574712081754e-15, -3.245078800649546e-15,
        -3.135279993003561e-15, -3.007892146526511e-15, -2.8889742739592484e-15,
        -2.8013807182648275e-15, -2.692359186966988e-15, -2.572808952924267e-15,
        -2.4603400689310643e-15, -2.3661528444527832e-15, -2.2369645768366137e-15,
        -2.197455324278481e-15, -2.0122465035415995e-15, -1.914414235232872e-15,
        -1.7786096185340937e-15, 1.8021691936912928e-15, 1.9554633741119523e-15,
        2.0866812285160666e-15, 2.1709454584242093e-15, 2.271069209380969e-15,
        2.367847595561405e-15, 2.5534874931025265e-15, 2.637278901396914e-15,
        2.711676091316815e-15, 2.8408495323963426e-15, 2.9097698038509255e-15,
        3.0869416937406626e-15, 3.1193032243111353e-15, 3.2267295600963147e-15,
        3.3671806043448916e-15, 3.4847523836182123e-15),
    ("punctured", 48, 13): (
        -3.451491034254623e-15, -3.344388521046217e-15, -3.2688176235821726e-15,
        -3.109279037872762e-15, -3.045025614697452e-15, -2.978684860532922e-15,
        -2.8067450402659477e-15, -2.7741401374063174e-15, -2.565487004012487e-15,
        -2.5269103402170742e-15, -2.3351942485857333e-15, -2.2359753558690113e-15,
        -2.111909183907018e-15, -1.998875321874046e-15, -1.9078310867140085e-15,
        -1.7875960372313396e-15, 1.8684329109372395e-15, 1.892719033437151e-15,
        2.0787802202120014e-15, 2.1803440172883245e-15, 2.2989933095160083e-15,
        2.3768925762110157e-15, 2.5507835879798283e-15, 2.600695961338108e-15,
        2.6685464490513863e-15, 2.8102721498960654e-15, 2.933135786552323e-15,
        3.009285442814769e-15, 3.1358676700208337e-15, 3.2731727297234772e-15,
        3.4323280352006565e-15, 3.543422756981974e-15),
    ("punctured", 48, 2**64 + 5): (
        -3.5042816948523397e-15, -3.3455150848588993e-15, -3.22185086476114e-15,
        -3.1969875592435218e-15, -3.0441567976982024e-15, -2.9074720923200197e-15,
        -2.820665519380384e-15, -2.7151328373090762e-15, -2.5877592017682225e-15,
        -2.5271816989739857e-15, -2.384666734694056e-15, -2.2527031976761774e-15,
        -2.1844011192192683e-15, -2.103325295271147e-15, -1.947257103705333e-15,
        -1.7808356572277384e-15, 1.8438908950650675e-15, 1.92980711092804e-15,
        2.006603903716779e-15, 2.2088141586209944e-15, 2.2673825010896127e-15,
        2.4151581757888107e-15, 2.446630571761241e-15, 2.5758340806849687e-15,
        2.6758057227995202e-15, 2.843690439587022e-15, 2.9835249865143628e-15,
        3.0890604032261714e-15, 3.1269124263374014e-15, 3.2879871180082735e-15,
        3.3822232515105497e-15, 3.4976358895476046e-15),
    ("right", 0, 0): (
        0.5042238461158579, 0.5300740744047077, 0.5378066407220713, 0.5570276156642082,
        0.5722573162032306, 0.5897047679566683, 0.6092272979326641, 0.6146179395286047,
        0.6329957808896315, 0.6506514812177137, 0.6568629047769379, 0.6739100872621593,
        0.7021474283906233, 0.7062113760441889, 0.7212618513449669, 0.7464299708981379,
        0.751413070918697, 0.7692120103701154, 0.7952455864590928, 0.8049086995925356,
        0.8248368072535712, 0.838301790187131, 0.8546592260343036, 0.8689668435421958,
        0.8771978970460443, 0.9059742817713156, 0.908598132682253, 0.9353203509172809,
        0.9440885363417365, 0.9556620048444868, 0.9699287733185529, 0.9986646953525307),
    ("right", 0, 13): (
        0.5055833686908225, 0.522810294862788, 0.5418924803091676, 0.5548526035107586,
        0.5633509489871754, 0.584012435861773, 0.5997099192176423, 0.6102145414885157,
        0.6321339503732686, 0.651564312021403, 0.6596882804874776, 0.6845056478203251,
        0.6930726917047474, 0.7122126908460404, 0.7229159271650117, 0.7487829850768781,
        0.7632043171449143, 0.7749028583347032, 0.7869355940685648, 0.8037978415854101,
        0.814674237292311, 0.8368083665957962, 0.8501101667942393, 0.8723108304243999,
        0.8897089195256302, 0.9021251776040802, 0.9179535208498941, 0.9339261668089249,
        0.9410362894833213, 0.9531528354953656, 0.978718746427486, 0.9857939155182411),
    ("right", 0, 2**64 + 5): (
        0.5002426037985055, 0.5204341425415299, 0.5395807196686321, 0.5535612622804432,
        0.5702287022872189, 0.5929556419926711, 0.6049689310870973, 0.6240203417591171,
        0.6291177686190667, 0.6510312393555691, 0.6709999755280489, 0.6810227599947167,
        0.6926919370907072, 0.7032398675914717, 0.7264247103494073, 0.7492190033579348,
        0.7567855273467485, 0.780990417506185, 0.7882281800124551, 0.8094781110190199,
        0.8203510427800471, 0.8434588303919774, 0.8574150513348623, 0.8607680781371109,
        0.8785914508266998, 0.905662975629866, 0.9134722942110791, 0.9367197897644218,
        0.9492640629781477, 0.9591419127707066, 0.9812558056662228, 0.9859428741979723),
    ("right", 24, 0): (
        3.03310732954237e-08, 3.130412337898223e-08, 3.1995205810495386e-08,
        3.331155082414454e-08, 3.3582156693030174e-08, 3.485660081944455e-08,
        3.5542287277643415e-08, 3.6800241390520913e-08, 3.7969153065876346e-08,
        3.8706881464229756e-08, 3.97139768281463e-08, 4.085746578990949e-08,
        4.098542706656425e-08, 4.2568755132435256e-08, 4.3474526846386474e-08,
        4.4615483721966075e-08, 4.4751960585488784e-08, 4.6480507817204056e-08,
        4.725022105919137e-08, 4.819217883707407e-08, 4.8838355495995714e-08,
        4.99074821305333e-08, 5.0523359317354764e-08, 5.2016802773126356e-08,
        5.277679145577912e-08, 5.360099509916485e-08, 5.4573618403720215e-08,
        5.4993367142093505e-08, 5.603244817278141e-08, 5.73156810187649e-08,
        5.804950348462136e-08, 5.868831024048861e-08),
    ("right", 24, 13): (
        3.057639624944751e-08, 3.0855053816164824e-08, 3.179130094515572e-08,
        3.333689705607677e-08, 3.403565497008389e-08, 3.520864492251566e-08,
        3.5685213040783025e-08, 3.6580027031740633e-08, 3.812874422938723e-08,
        3.873052111984711e-08, 3.944957357880084e-08, 4.036704834405616e-08,
        4.1697502767776743e-08, 4.2027248315365927e-08, 4.315232786119913e-08,
        4.393960894021626e-08, 4.48946463583921e-08, 4.653586608801005e-08,
        4.6659534039629786e-08, 4.7937203625050966e-08, 4.88192072295708e-08,
        4.9446194951950465e-08, 5.120973524647919e-08, 5.145479462002846e-08,
        5.281109209116219e-08, 5.392653769365837e-08, 5.4784548699921766e-08,
        5.530561245642462e-08, 5.630790455339378e-08, 5.6963108289525245e-08,
        5.8120466054609025e-08, 5.933960434290741e-08),
    ("right", 24, 2**64 + 5): (
        3.0169188381278697e-08, 3.0877043265311296e-08, 3.223381692586525e-08,
        3.263011537450287e-08, 3.367118084417768e-08, 3.515863260027629e-08,
        3.6253275715515484e-08, 3.6703173894565267e-08, 3.7327558810580454e-08,
        3.8483772533966184e-08, 3.948557483854554e-08, 4.0648873870069826e-08,
        4.1374178211350074e-08, 4.279888046190618e-08, 4.319299631327334e-08,
        4.4305921139994685e-08, 4.486860884878529e-08, 4.637304490039923e-08,
        4.675628381184984e-08, 4.781014459866184e-08, 4.91161189540068e-08,
        4.9780908456541955e-08, 5.0692226392832494e-08, 5.208633758813306e-08,
        5.2351743013406234e-08, 5.396653070093832e-08, 5.407030498088596e-08,
        5.550763981936318e-08, 5.616167206286481e-08, 5.6818063820702574e-08,
        5.853192661926442e-08, 5.959547637967811e-08),
    ("right", 48, 0): (
        1.7790340992045905e-15, 1.8788349431964132e-15, 1.930174278475728e-15,
        1.9850736822987204e-15, 2.0487676055372454e-15, 2.108226541820877e-15,
        2.152023319668087e-15, 2.206534085317007e-15, 2.2663092023383672e-15,
        2.3225436443349688e-15, 2.3696372565741093e-15, 2.4342313903821943e-15,
        2.4539860166612604e-15, 2.5465904270297014e-15, 2.595506561184065e-15,
        2.663408869533454e-15, 2.7044098766022488e-15, 2.763058671883477e-15,
        2.784970280922057e-15, 2.8538423866885858e-15, 2.9035303031733366e-15,
        2.942981030972012e-15, 2.9993495854209663e-15, 3.065438990370987e-15,
        3.121835812492699e-15, 3.1884822454480774e-15, 3.244337357149608e-15,
        3.3179858527815134e-15, 3.3321243776897382e-15, 3.396811806984219e-15,
        3.4535661977161117e-15, 3.514260480892294e-15),
    ("right", 48, 13): (
        1.8269681616731895e-15, 1.880519418277392e-15, 1.9183048670094144e-15,
        1.99807415986412e-15, 2.030200871451775e-15, 2.06337124853404e-15,
        2.1493411586675273e-15, 2.1656436100973422e-15, 2.2699701767942575e-15,
        2.2892585086919636e-15, 2.3851165545076343e-15, 2.4347260008659953e-15,
        2.4967590868469917e-15, 2.5532760178634778e-15, 2.5987981354434967e-15,
        2.658915660184831e-15, 2.719795379803557e-15, 2.7371811764591235e-15,
        2.776797286195421e-15, 2.8689959737920905e-15, 2.925338140076323e-15,
        2.9506296985250846e-15, 3.041130629750345e-15, 3.07991836760211e-15,
        3.1453149871169257e-15, 3.188490345177887e-15, 3.2413498296571584e-15,
        3.2992017857381392e-15, 3.357762628282579e-15, 3.4097017790021026e-15,
        3.473554573610859e-15, 3.5313515274373236e-15),
    ("right", 48, 2**64 + 5): (
        1.8005728313743313e-15, 1.8799561363710515e-15, 1.941788246419931e-15,
        1.9542198991787402e-15, 2.0306352799513997e-15, 2.098977632640491e-15,
        2.142380919110309e-15, 2.195147260145963e-15, 2.2588340779163897e-15,
        2.289122829313508e-15, 2.360380311453473e-15, 2.4263620799624122e-15,
        2.4605131191908666e-15, 2.501051031164927e-15, 2.5790851269478344e-15,
        2.6622958501866317e-15, 2.6724330225239385e-15, 2.7280767541283274e-15,
        2.82916177942827e-15, 2.8769949751347206e-15, 2.9381082706712353e-15,
        2.9550217697518726e-15, 3.013842833486701e-15, 3.082333472567202e-15,
        3.1431299540097763e-15, 3.1957225305084928e-15, 3.243026002952536e-15,
        3.2880700037625208e-15, 3.350013843057577e-15, 3.395232531913985e-15,
        3.493949187948949e-15, 3.5439766782844502e-15),
}


# left_base(1, 0.5).sample(k, 32, seed) at the same levels and seeds, from
# the same annuli.
PINNED_LEFT_SAMPLES = {
    (0, 0): (
        -0.9957761538841421, -0.9699259255952923, -0.9621933592779287, -0.9429723843357918,
        -0.9277426837967694, -0.9102952320433317, -0.8907727020673359, -0.8853820604713953,
        -0.8670042191103685, -0.8493485187822863, -0.8431370952230621, -0.8260899127378407,
        -0.7978525716093767, -0.7937886239558111, -0.7787381486550331, -0.7535700291018621,
        -0.748586929081303, -0.7307879896298846, -0.7047544135409072, -0.6950913004074644,
        -0.6751631927464288, -0.661698209812869, -0.6453407739656964, -0.6310331564578042,
        -0.6228021029539557, -0.5940257182286844, -0.591401867317747, -0.5646796490827191,
        -0.5559114636582635, -0.5443379951555132, -0.5300712266814471,
        -0.5013353046474693),
    (0, 13): (
        -0.9944166313091775, -0.977189705137212, -0.9581075196908324, -0.9451473964892414,
        -0.9366490510128246, -0.915987564138227, -0.9002900807823577, -0.8897854585114843,
        -0.8678660496267314, -0.848435687978597, -0.8403117195125224, -0.8154943521796749,
        -0.8069273082952526, -0.7877873091539596, -0.7770840728349883, -0.7512170149231219,
        -0.7367956828550857, -0.7250971416652968, -0.7130644059314352, -0.6962021584145899,
        -0.685325762707689, -0.6631916334042038, -0.6498898332057607, -0.6276891695756001,
        -0.6102910804743698, -0.5978748223959198, -0.5820464791501059, -0.5660738331910751,
        -0.5589637105166787, -0.5468471645046344, -0.521281253572514, -0.5142060844817589),
    (0, 2**64 + 5): (
        -0.9997573962014945, -0.9795658574584701, -0.9604192803313679, -0.9464387377195568,
        -0.9297712977127811, -0.9070443580073289, -0.8950310689129027, -0.8759796582408829,
        -0.8708822313809333, -0.8489687606444309, -0.8290000244719511, -0.8189772400052833,
        -0.8073080629092928, -0.7967601324085283, -0.7735752896505927, -0.7507809966420652,
        -0.7432144726532515, -0.719009582493815, -0.7117718199875449, -0.6905218889809801,
        -0.6796489572199529, -0.6565411696080226, -0.6425849486651377, -0.6392319218628891,
        -0.6214085491733002, -0.594337024370134, -0.5865277057889209, -0.5632802102355782,
        -0.5507359370218523, -0.5408580872292934, -0.5187441943337772,
        -0.5140571258020277),
    (24, 0): (
        -5.907589386766224e-08, -5.810284378410371e-08, -5.741176135259055e-08,
        -5.60954163389414e-08, -5.5824810470055763e-08, -5.4550366343641385e-08,
        -5.386467988544252e-08, -5.2606725772565024e-08, -5.143781409720959e-08,
        -5.070008569885618e-08, -4.9692990334939635e-08, -4.854950137317645e-08,
        -4.842154009652169e-08, -4.683821203065068e-08, -4.5932440316699463e-08,
        -4.479148344111986e-08, -4.4655006577597154e-08, -4.292645934588188e-08,
        -4.215674610389457e-08, -4.1214788326011865e-08, -4.0568611667090223e-08,
        -3.9499485032552635e-08, -3.888360784573117e-08, -3.739016438995958e-08,
        -3.663017570730682e-08, -3.580597206392109e-08, -3.483334875936572e-08,
        -3.441360002099243e-08, -3.3374518990304525e-08, -3.209128614432104e-08,
        -3.1357463678464576e-08, -3.071865692259733e-08),
    (24, 13): (
        -5.8830570913638425e-08, -5.855191334692111e-08, -5.761566621793022e-08,
        -5.607007010700917e-08, -5.537131219300205e-08, -5.419832224057028e-08,
        -5.372175412230291e-08, -5.2826940131345304e-08, -5.127822293369871e-08,
        -5.067644604323883e-08, -4.99573935842851e-08, -4.9039918819029775e-08,
        -4.7709464395309194e-08, -4.737971884772001e-08, -4.6254639301886804e-08,
        -4.5467358222869676e-08, -4.451232080469384e-08, -4.287110107507589e-08,
        -4.274743312345615e-08, -4.146976353803497e-08, -4.0587759933515135e-08,
        -3.996077221113547e-08, -3.819723191660675e-08, -3.7952172543057476e-08,
        -3.659587507192375e-08, -3.548042946942757e-08, -3.462241846316417e-08,
        -3.410135470666132e-08, -3.3099062609692156e-08, -3.244385887356069e-08,
        -3.128650110847691e-08, -3.0067362820178525e-08),
    (24, 2**64 + 5): (
        -5.923777878180724e-08, -5.852992389777464e-08, -5.717315023722069e-08,
        -5.677685178858307e-08, -5.573578631890826e-08, -5.424833456280965e-08,
        -5.3153691447570454e-08, -5.270379326852067e-08, -5.2079408352505483e-08,
        -5.092319462911975e-08, -4.9921392324540396e-08, -4.875809329301611e-08,
        -4.8032788951735864e-08, -4.660808670117976e-08, -4.6213970849812595e-08,
        -4.510104602309125e-08, -4.453835831430065e-08, -4.303392226268671e-08,
        -4.26506833512361e-08, -4.15968225644241e-08, -4.0290848209079136e-08,
        -3.962605870654398e-08, -3.8714740770253443e-08, -3.732062957495288e-08,
        -3.7055224149679704e-08, -3.544043646214762e-08, -3.5336662182199975e-08,
        -3.389932734372276e-08, -3.3245295100221126e-08, -3.2588903342383364e-08,
        -3.087504054382152e-08, -2.981149078340783e-08),
    (48, 0): (
        -3.550036418996161e-15, -3.450235575004338e-15, -3.3988962397250236e-15,
        -3.343996835902031e-15, -3.280302912663506e-15, -3.2208439763798745e-15,
        -3.1770471985326642e-15, -3.1225364328837444e-15, -3.062761315862384e-15,
        -3.0065268738657826e-15, -2.959433261626642e-15, -2.894839127818557e-15,
        -2.875084501539491e-15, -2.78248009117105e-15, -2.7335639570166865e-15,
        -2.6656616486672973e-15, -2.6246606415985026e-15, -2.5660118463172744e-15,
        -2.5441002372786946e-15, -2.4752281315121656e-15, -2.425540215027415e-15,
        -2.3860894872287393e-15, -2.329720932779785e-15, -2.2636315278297646e-15,
        -2.2072347057080525e-15, -2.140588272752674e-15, -2.0847331610511434e-15,
        -2.011084665419238e-15, -1.996946140511013e-15, -1.9322587112165326e-15,
        -1.8755043204846397e-15, -1.8148100373084575e-15),
    (48, 13): (
        -3.502102356527562e-15, -3.4485510999233592e-15, -3.410765651191337e-15,
        -3.3309963583366313e-15, -3.2988696467489764e-15, -3.2656992696667113e-15,
        -3.179729359533224e-15, -3.163426908103409e-15, -3.059100341406494e-15,
        -3.0398120095087878e-15, -2.943953963693117e-15, -2.894344517334756e-15,
        -2.8323114313537597e-15, -2.7757945003372736e-15, -2.7302723827572547e-15,
        -2.6701548580159203e-15, -2.6092751383971945e-15, -2.591889341741628e-15,
        -2.5522732320053303e-15, -2.460074544408661e-15, -2.4037323781244284e-15,
        -2.378440819675667e-15, -2.2879398884504065e-15, -2.2491521505986416e-15,
        -2.1837555310838257e-15, -2.1405801730228642e-15, -2.087720688543593e-15,
        -2.029868732462612e-15, -1.9713078899181723e-15, -1.9193687391986488e-15,
        -1.8555159445898923e-15, -1.7977189907634278e-15),
    (48, 2**64 + 5): (
        -3.52849768682642e-15, -3.4491143818297e-15, -3.3872822717808204e-15,
        -3.374850619022011e-15, -3.2984352382493517e-15, -3.2300928855602603e-15,
        -3.1866895990904424e-15, -3.1339232580547886e-15, -3.0702364402843617e-15,
        -3.0399476888872435e-15, -2.9686902067472785e-15, -2.902708438238339e-15,
        -2.8685573990098848e-15, -2.8280194870358242e-15, -2.749985391252917e-15,
        -2.6667746680141197e-15, -2.656637495676813e-15, -2.600993764072424e-15,
        -2.4999087387724814e-15, -2.4520755430660308e-15, -2.390962247529516e-15,
        -2.3740487484488788e-15, -2.3152276847140505e-15, -2.2467370456335492e-15,
        -2.185940564190975e-15, -2.1333479876922586e-15, -2.0860445152482153e-15,
        -2.0410005144382306e-15, -1.9790566751431744e-15, -1.9338379862867665e-15,
        -1.8351213302518023e-15, -1.785093839916301e-15),
}


class TestPinnedSamples:
    @pytest.mark.parametrize("kind,k,seed", sorted(PINNED_SAMPLES),
                             ids=[f"{kind}-k{k}-seed{seed}"
                                  for kind, k, seed in sorted(PINNED_SAMPLES)])
    def test_sample_matches_pinned_values(self, kind, k, seed):
        make = {"punctured": punctured_base, "right": right_base}[kind]
        assert make(1, 0.5).sample(k, 32, seed) == list(PINNED_SAMPLES[kind, k, seed])

    @pytest.mark.parametrize("k,seed", sorted(PINNED_LEFT_SAMPLES),
                             ids=[f"left-k{k}-seed{seed}"
                                  for k, seed in sorted(PINNED_LEFT_SAMPLES)])
    def test_left_sample_matches_pinned_values(self, k, seed):
        assert left_base(1, 0.5).sample(k, 32, seed) == list(PINNED_LEFT_SAMPLES[k, seed])


GEOMETRIC = {"punctured": punctured_base, "right": right_base, "left": left_base}

# Each kind's level-k element, written as in its docstring rather than as the
# closed-form spans it samples from.
TEXTBOOK = {"punctured": lambda d: S((-d, d), excluded=(0.0,)),
            "right": lambda d: S((0.0, d)),
            "left": lambda d: S((-d, 0.0))}

# What level k samples: its element without the next one's, e = ratio*d.
ANNULUS = {"punctured": lambda d, e: S((-d, -e), (e, d)),
           "right": lambda d, e: S((e, d)),
           "left": lambda d, e: S((-d, -e))}


class TestSampleMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GEOMETRIC)),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.05, max_value=0.9),
           st.integers(min_value=0, max_value=64),
           st.integers(min_value=-2**70, max_value=2**70))
    def test_closed_form_matches_descriptor_path(self, kind, delta0, ratio, k, seed):
        b = GEOMETRIC[kind](delta0, ratio)
        custom = chain_from_elements(
            "copy", [ANNULUS[kind](b.scale(j), ratio * b.scale(j)) for j in range(k + 1)],
            punctured_at_zero=True)
        filterbase._sample_spans.cache_clear()
        closed = b.sample(k, 32, seed)
        filterbase._sample_spans.cache_clear()
        assert custom.sample(k, 32, seed) == closed
        d, e = b.scale(k), b.inner_ratio * b.scale(k)
        assert e == ratio * d < min(map(abs, closed))
        assert all(TEXTBOOK[kind](d).contains(h) and not TEXTBOOK[kind](e).contains(h)
                   for h in closed)

    def test_returned_list_is_fresh(self):
        b = punctured_base(1.0, 0.5)
        first = b.sample(7, 32, 3)
        expected = list(first)
        first[0] = 99.0
        first.append(1.0)
        assert b.sample(7, 32, 3) == expected

    def test_memo_is_bounded(self):
        memo = filterbase._sample_spans
        assert memo.cache_info().maxsize == filterbase._SAMPLE_SETS
        b = right_base(1.0, 0.5)
        for seed in range(filterbase._SAMPLE_SETS // 64 + 2):
            for k in range(65):
                b.sample(k, 2, seed)
        assert memo.cache_info().currsize == filterbase._SAMPLE_SETS

    def test_too_thin_raises_on_every_call(self):
        thin = chain_from_elements("thin", [S((1.0, 1.0 + 4 * 2.0 ** -52))])
        for _ in range(3):
            with pytest.raises(ValueError, match="too thin"):
                thin.sample(0, 32, 0)

    @pytest.mark.parametrize("m,seed", [(4, 1.0), (4.0, 1), (4, "1"), (4, None)])
    def test_non_int_m_or_seed_rejected_whatever_the_memo_holds(self, m, seed):
        b = right_base(1, 0.5)
        filterbase._sample_spans.cache_clear()
        with pytest.raises(ValueError, match="must be ints"):
            b.sample(3, m, seed)
        b.sample(3, 4, 1)
        with pytest.raises(ValueError, match="must be ints"):
            b.sample(3, m, seed)

    @pytest.mark.parametrize("make", [
        lambda: right_base(1, 0.5),
        lambda: chain_from_elements("copy", [S((0.0, 0.5 ** k)) for k in range(5)]),
    ], ids=["geometric", "from-elements"])
    def test_non_int_level_rejected_whatever_the_memo_holds(self, make):
        b = make()
        filterbase._sample_spans.cache_clear()
        with pytest.raises(ValueError, match="level must be an int"):
            b.sample(3.0, 4, 1)
        b.sample(3, 4, 1)
        for call in (lambda: b.sample(3.0, 4, 1), lambda: b.element(3.0),
                     lambda: b.scale(3.0)):
            with pytest.raises(ValueError, match="level must be an int"):
                call()


class TestNestednessProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["punctured", "right", "left"]),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.05, max_value=0.9),
           st.integers(min_value=0, max_value=64),
           st.integers(min_value=0, max_value=64))
    def test_elements_nest(self, kind, delta0, ratio, j, k):
        maker = {"punctured": punctured_base, "right": right_base,
                 "left": left_base}[kind]
        b = maker(delta0, ratio)
        j, k = min(j, k), max(j, k)
        assert b.element(k).issubset(b.element(j))


class TestSubchain:
    def test_subchain_skips_levels(self):
        b = punctured_base(1.0, 0.5, max_level=64)
        sub = b.subchain(2)
        assert sub.max_level == 32
        assert sub.element(3).same_set(b.element(6))
        assert sub.scale(3) == b.scale(6)
        assert sub.sample(3, 8, seed=1) == b.sample(6, 8, seed=1)
        assert sub.punctured_at_zero

    def test_subchain_keeps_the_inner_ratio(self):
        # a subchain's level k samples its parent's annulus at level stride*k
        b = right_base(1.0, 0.25)
        sub = b.subchain(3)
        assert sub.inner_ratio == b.inner_ratio == 0.25
        assert min(sub.sample(2, 32, 0)) > sub.inner_ratio * sub.scale(2)

    def test_inner_ratio_only_on_geometric_chains(self):
        seq = sequence_base(SequenceSpec("piovern"))
        custom = chain_from_elements("c", [S((0.5, 1.0))])
        assert seq.inner_ratio is seq.subchain(2).inner_ratio is custom.inner_ratio is None
        # a chain built by hand takes no inner ratio, even with a ratio in its params
        chain = filterbase.FilterBaseChain
        hand = chain(chain_id="h", max_level=3, punctured_at_zero=True, params={"ratio": 0.5},
                     element_fn=lambda k: S((0.0, 2.0 ** -k)), scale_fn=lambda k: 2.0 ** -k)
        assert hand.inner_ratio is None
        with pytest.raises(TypeError):
            chain(chain_id="h", max_level=3, punctured_at_zero=True, params={},
                  element_fn=hand.element, scale_fn=hand.scale, inner_ratio=0.5)


def _lie():
    """A chain flagged punctured at zero whose element(0) contains 0."""
    return chain_from_elements("lie", [S((-1.0, 1.0))], punctured_at_zero=True)


class TestInputErrors:
    """Each public raise site of the module that no other test reaches."""

    @pytest.mark.parametrize("call,message", [
        (lambda: SetDescriptor(points=(math.inf,)), "points must be finite"),
        (lambda: punctured_base(1, 0.5, max_level=-1), "max_level must be >= 0"),
        (lambda: punctured_base(1, 0.5, max_level=4).element(5), "level 5 outside 0..4"),
        (lambda: _lie().element(0), "flagged punctured_at_zero but element(0) contains 0"),
        (lambda: _lie().sample(0, 4, 0), "flagged punctured_at_zero but element(0) contains 0"),
        (lambda: punctured_base(1, 0.5).subchain(0), "stride must be >= 1"),
        (lambda: punctured_base(1, 0.5).subchain(1.5), "stride must be an int"),
        (lambda: punctured_base(1, 0.5).subchain(2.0), "stride must be an int"),
        (lambda: sequence_base(SequenceSpec("powinv", c=1.0, p=1e-300)),
         "not strictly decreasing in magnitude"),
        (lambda: chain_from_elements("e", []), "need at least one element"),
        (lambda: generated_filter_witness(punctured_base(1, 0.5, max_level=8),
                                          S((-1.0, 1.0)), 9), "K must lie in 0..8"),
        # an int too large for a double is not finite: a ValueError, not an OverflowError
        (lambda: SequenceSpec("piovern", c=10**400), "c must be a nonzero real"),
        (lambda: SequenceSpec("powinv", p=10**400), "powinv requires p > 0"),
        (lambda: SequenceSpec("geo", q=10**400), "geo requires 0 < |q| < 1"),
        (lambda: punctured_base(10**400, 0.5), "delta0 must be a positive real"),
        (lambda: right_base(1, 10**400), "ratio must lie strictly inside (0, 1)"),
        (lambda: left_base(1, 10**400), "ratio must lie strictly inside (0, 1)"),
        (lambda: SetDescriptor(intervals=((0, 10**400),)), "interval endpoints must be finite"),
        (lambda: SetDescriptor(points=(10**400,)), "points must be finite"),
        (lambda: SetDescriptor(excluded=(-10**400,)), "points must be finite"),
        # a Decimal NaN, quiet or signalling, is the site's ValueError, not decimal.InvalidOperation
        (lambda: SequenceSpec("piovern", c=Decimal("NaN")), "c must be a nonzero real"),
        (lambda: SequenceSpec("piovern", c=Decimal("sNaN")), "c must be a nonzero real"),
        (lambda: SequenceSpec("powinv", p=Decimal("NaN")), "powinv requires p > 0"),
        (lambda: SequenceSpec("powinv", p=Decimal("sNaN")), "powinv requires p > 0"),
        (lambda: punctured_base(Decimal("NaN"), 0.5), "delta0 must be a positive real"),
        (lambda: punctured_base(Decimal("sNaN"), 0.5), "delta0 must be a positive real"),
        (lambda: right_base(1, Decimal("NaN")), "ratio must lie strictly inside (0, 1)"),
        (lambda: left_base(1, Decimal("sNaN")), "ratio must lie strictly inside (0, 1)"),
        # a depth that is no int is the site's ValueError, not a TypeError from range or <=
        (lambda: verify_base_axioms(punctured_base(1, 0.5), 2.0), "K must be an int"),
        (lambda: verify_base_axioms(punctured_base(1, 0.5), "3"), "K must be an int"),
        (lambda: in_generated_filter(punctured_base(1, 0.5), S((-1.0, 1.0)), 2.5),
         "K must be an int"),
        (lambda: punctured_base(1, 0.5, max_level=2.0), "max_level must be an int"),
        (lambda: sequence_base(SequenceSpec("piovern"), max_level=2.0),
         "max_level must be an int"),
    ], ids=["non-finite-point", "negative-max-level", "level-past-max",
            "punctured-flag-lies-element", "punctured-flag-lies-sample", "stride-0",
            "stride-1.5", "stride-2.0", "non-decreasing-sequence", "no-elements", "witness-past-max",
            "huge-c", "huge-p", "huge-q", "huge-delta0", "huge-right-ratio", "huge-left-ratio",
            "huge-endpoint", "huge-point", "huge-excluded", "decimal-nan-c", "decimal-snan-c",
            "decimal-nan-p", "decimal-snan-p", "decimal-nan-delta0", "decimal-snan-delta0",
            "decimal-nan-ratio", "decimal-snan-ratio", "float-K", "str-K", "float-witness-K",
            "float-max-level", "float-sequence-max-level"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert message in str(exc.value)
