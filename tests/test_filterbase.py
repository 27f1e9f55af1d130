import math

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

    def test_sample_exhausts_truncation(self):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0), max_level=8)
        assert len(b.sample(8, 256, seed=0)) == 256
        with pytest.raises(ValueError, match="holds 256 points, need 257"):
            b.sample(8, 257, seed=0)

    def test_negative_ratio_geo_allowed(self):
        b = sequence_base(SequenceSpec(kind="geo", c=1.0, q=-0.5))
        pts = b.sample(0, 4, seed=0)
        assert pts[0] < 0 < pts[1]


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


# sample(k, 32, seed) as the per-point four-round hash produced it, for both
# geometric shapes, levels 0, 24 and 48, and seeds 0, 13 and 2**64 + 5 (the
# last only reaches the hash through its low 64 bits).
PINNED_SAMPLES = {
    ("punctured", 0, 0): (
        -0.9831046155365686, -0.8797037023811691, -0.8487734371117147,
        -0.7718895373431669, -0.7109707351870775, -0.641180928173327,
        -0.5630908082693438, -0.5415282418855814, -0.46801687644147416,
        -0.3973940751291454, -0.3725483808922486, -0.30435965095136275,
        -0.1914102864375068, -0.17515449582324427, -0.11495259462013252,
        -0.014280116407448529, 0.040250781414188364, 0.11903037806859099,
        0.17901073786509167, 0.20721489644791802, 0.3036531066759015,
        0.3324881965981168, 0.430753408850144, 0.44319749301669004, 0.5588366505280563,
        0.5644993613285355, 0.6517549503346883, 0.7340958315236229, 0.8124949892294335,
        0.8128198674376889, 0.8785290278128807, 0.9418868429802141),
    ("punctured", 0, 13): (
        -0.9776665252367097, -0.9087588205488482, -0.8324300787633298,
        -0.7805895859569655, -0.7465962040512983, -0.6639502565529078,
        -0.6011603231294307, -0.5591418340459372, -0.47146419850692567,
        -0.3937427519143879, -0.3612468780500895, -0.26197740871869957,
        -0.22770923318101055, -0.15114923661583834, -0.10833629133995304,
        -0.004868059692487381, 0.023652649966067783, 0.08904926838519366,
        0.17893478033573698, 0.19064171785414785, 0.3036886172510071,
        0.3379152269525761, 0.4007887194551387, 0.4428643738319885, 0.536982271744032,
        0.5828805137202538, 0.6613040244270311, 0.7436407082058828, 0.7539409086690226,
        0.8129699675180526, 0.8890707207744917, 0.987123898669708),
    ("punctured", 0, 2**64 + 5): (
        -0.9990295848059779, -0.9182634298338805, -0.8416771213254719,
        -0.7857549508782273, -0.7190851908511244, -0.6281774320293152,
        -0.5801242756516107, -0.5039186329635315, -0.4835289255237334,
        -0.395875042577724, -0.3160000978878045, -0.27590896002113297,
        -0.2292322516371713, -0.18704052963411322, -0.09430115860237087,
        -0.0031239865682608503, 0.0284209357857923, 0.10675353663782415,
        0.12769187718822175, 0.23813792852518365, 0.2772990691537532,
        0.3689736699932234, 0.384259289275415, 0.45680834264965214, 0.5176587514962065,
        0.6053858829686534, 0.6329376661014693, 0.6900913956100406, 0.7547439998548764,
        0.8466025067469859, 0.9103802900536953, 0.9998289987382066),
    ("punctured", 24, 0): (
        -5.748964114447707e-08, -5.3597440810242946e-08, -5.083311108419034e-08,
        -4.556773102959371e-08, -4.448530755405117e-08, -3.938753104839367e-08,
        -3.664478521559822e-08, -3.1612968764088235e-08, -2.6937322062666497e-08,
        -2.3986408469252863e-08, -1.9958027013586658e-08, -1.538407116653393e-08,
        -1.487222605991489e-08, -8.538913796430858e-09, -4.915826940625972e-09,
        -3.519994383075798e-10, 1.0115801037944793e-10, 3.9247656932104645e-09,
        8.407777581093058e-09, 1.415347090247171e-08, 1.6710322805441114e-08,
        2.021944229971094e-08, 2.275851667890559e-08, 2.685391196253489e-08,
        2.992033332130319e-08, 3.4334856938460694e-08, 3.822339684330895e-08,
        4.307117135435977e-08, 4.746727626019241e-08, 4.891993693549113e-08,
        5.2493618783833884e-08, 5.8921428818975516e-08),
    ("punctured", 24, 13): (
        -5.6508349328381823e-08, -5.539371906151257e-08, -5.164873054554901e-08,
        -4.546634610186478e-08, -4.267131444583631e-08, -3.797935463610923e-08,
        -3.6073082163039775e-08, -3.249382619920934e-08, -2.6298957408622953e-08,
        -2.3891849846783438e-08, -2.1015640010968513e-08, -1.734574094994721e-08,
        -1.2023923255064908e-08, -1.0704941064708169e-08, -6.204622881375336e-09,
        -3.055498565306821e-09, 1.6768938513688015e-09, 4.9421763220216635e-09,
        7.805756410638506e-09, 1.3546730349308581e-08, 1.6455722897605466e-08,
        1.8954474001554975e-08, 2.4777792161171436e-08, 2.769825656599807e-08,
        3.350935005329291e-08, 3.522969254061541e-08, 3.980132782508032e-08,
        4.1995797920220014e-08, 4.727369248066936e-08, 5.071059617358383e-08,
        5.5503613837274384e-08, 5.7617388524456216e-08),
    ("punctured", 24, 2**64 + 5): (
        -5.81371808010571e-08, -5.53057612649267e-08, -4.987866662271087e-08,
        -4.8293472828160404e-08, -4.412921094946115e-08, -3.8179403925066724e-08,
        -3.3800831464109954e-08, -3.20012387479108e-08, -2.9503699083850052e-08,
        -2.4878844190307145e-08, -2.0871634971989702e-08, -1.6218438845892564e-08,
        -1.3317221480771587e-08, -7.61841247854716e-09, -6.041949073078498e-09,
        -1.5902497661931349e-09, 1.383839864204951e-10, 5.166472610329568e-09,
        8.13977914315786e-09, 1.3644674038498749e-08, 1.5603108756398134e-08,
        2.106825972435647e-08, 2.341139436220372e-08, 2.7820159179360283e-08,
        3.023546581771527e-08, 3.4219433615198196e-08, 3.8444949894052485e-08,
        4.2535553972572155e-08, 4.594524115339718e-08, 5.187612144934033e-08,
        5.566125562937664e-08, 5.9192240013080904e-08),
    ("punctured", 48, 0): (
        -3.5420046395831418e-15, -3.1428012636158495e-15, -2.9374439224985914e-15,
        -2.7178463072066215e-15, -2.463070614252521e-15, -2.225234869117996e-15,
        -2.0500477577291545e-15, -1.832004695133475e-15, -1.5929042270480331e-15,
        -1.3679664590616281e-15, -1.1795920101050652e-15, -9.212154748727264e-16,
        -8.421969697564612e-16, -4.71779328282698e-16, -2.7611479166524276e-16,
        -4.5055582676868525e-18, 5.1624708582084316e-17, 3.5821306942340396e-16,
        6.206487782316328e-16, 7.891772380479173e-16, 9.894247399614367e-16,
        1.1829815123223095e-15, 1.5542613074045523e-15, 1.721844123993327e-15,
        1.870638503833129e-15, 2.1289853859921842e-15, 2.2668259289013496e-15,
        2.6211697086808242e-15, 2.68589276982177e-15, 2.900745441392128e-15,
        3.181647529889282e-15, 3.4167910884359238e-15),
    ("punctured", 48, 13): (
        -3.350268389708745e-15, -3.1360633632919332e-15, -2.9849215683638442e-15,
        -2.6658443969450233e-15, -2.537337550594403e-15, -2.4046560422653433e-15,
        -2.0607764017313945e-15, -1.9955665960121342e-15, -1.5782603292244733e-15,
        -1.5011070016336475e-15, -1.1176748183709657e-15, -9.19237032937522e-16,
        -6.711046890135351e-16, -4.450369649475908e-16, -2.629484946275156e-16,
        -2.2478395662177945e-17, 1.8415214307397835e-16, 2.327243880738007e-16,
        6.04846761623502e-16, 8.079743557761478e-16, 1.0452729402315155e-15,
        1.2010714736215302e-15, 1.5488534971591556e-15, 1.6486782438757146e-15,
        1.7843792193022712e-15, 2.0678306209916295e-15, 2.3135578943041447e-15,
        2.465857206829037e-15, 2.719021661241166e-15, 2.9936317806464535e-15,
        3.311942391600812e-15, 3.534131835163447e-15),
    ("punctured", 48, 2**64 + 5): (
        -3.4558497109041786e-15, -3.1383164909172972e-15, -2.890988050721779e-15,
        -2.8412614396865426e-15, -2.5355999165959043e-15, -2.2622305058395385e-15,
        -2.088617359960267e-15, -1.877551995817651e-15, -1.6228047247359436e-15,
        -1.5016497191474704e-15, -1.2166197905876107e-15, -9.526927165518535e-16,
        -8.160885596380356e-16, -6.539369117417933e-16, -3.418005286101656e-16,
        -8.957635654975515e-18, 1.3506811132963434e-16, 3.069005430555791e-16,
        4.604941286330565e-16, 8.649146384414877e-16, 9.820513233787246e-16,
        1.2776026727771207e-15, 1.340547464721981e-15, 1.5989544825694368e-15,
        1.798897766798539e-15, 2.134667200373543e-15, 2.414336294228225e-15,
        2.625407127651842e-15, 2.701111173874302e-15, 3.0232605572160456e-15,
        3.211732824220599e-15, 3.4425581002947082e-15),
    ("right", 0, 0): (
        0.00844769223171572, 0.060148148809415415, 0.07561328144414264,
        0.11405523132841655, 0.1445146324064612, 0.17940953591333653,
        0.21845459586532812, 0.22923587905720932, 0.2659915617792629,
        0.3013029624354273, 0.3137258095538757, 0.3478201745243186, 0.4042948567812466,
        0.41242275208837786, 0.44252370268993374, 0.49285994179627574,
        0.5028261418373942, 0.5384240207402309, 0.5904911729181858, 0.6098173991850712,
        0.6496736145071423, 0.676603580374262, 0.7093184520686071, 0.7379336870843917,
        0.7543957940920886, 0.8119485635426311, 0.817196265364506, 0.8706407018345618,
        0.888177072683473, 0.9113240096889738, 0.9398575466371056, 0.9973293907050614),
    ("right", 0, 13): (
        0.011166737381645152, 0.045620589725575894, 0.08378496061833512,
        0.10970520702151725, 0.12670189797435083, 0.16802487172354605,
        0.19941983843528466, 0.2204290829770314, 0.26426790074653717,
        0.30312862404280605, 0.31937656097495526, 0.3690112956406502,
        0.3861453834094947, 0.4244253816920808, 0.4458318543300235, 0.4975659701537563,
        0.5264086342898286, 0.5498057166694064, 0.5738711881371297, 0.6075956831708201,
        0.6293484745846222, 0.6736167331915922, 0.7002203335884787, 0.7446216608487999,
        0.7794178390512605, 0.8042503552081604, 0.8359070416997882, 0.8678523336178499,
        0.8820725789666425, 0.9063056709907312, 0.957437492854972, 0.9715878310364823),
    ("right", 0, 2**64 + 5): (
        0.0004852075970110531, 0.04086828508305976, 0.07916143933726406,
        0.10712252456088636, 0.14045740457443776, 0.1859112839853424,
        0.2099378621741946, 0.24804068351823427, 0.2582355372381333, 0.302062478711138,
        0.34199995105609776, 0.3620455199894335, 0.38538387418141434,
        0.4064797351829434, 0.45284942069881456, 0.4984380067158696, 0.5135710546934972,
        0.56198083501237, 0.5764563600249102, 0.6189562220380399, 0.6407020855600943,
        0.6869176607839549, 0.7148301026697246, 0.7215361562742217, 0.7571829016533995,
        0.811325951259732, 0.8269445884221582, 0.8734395795288437, 0.8985281259562953,
        0.9182838255414131, 0.9625116113324456, 0.9718857483959447),
    ("right", 24, 0): (
        1.057501815456778e-09, 3.0036019825738407e-09, 4.3857668456001424e-09,
        7.018456872898458e-09, 7.559668610669726e-09, 1.0108556863498479e-08,
        1.1479929779896204e-08, 1.3995838005651197e-08, 1.6333661356362064e-08,
        1.780911815306888e-08, 1.9823308880901984e-08, 2.2110286804428347e-08,
        2.2366209357737867e-08, 2.5532865489479883e-08, 2.7344408917382327e-08,
        2.9626322668541523e-08, 2.989927639558694e-08, 3.335637085901749e-08,
        3.489579734299211e-08, 3.677971289875752e-08, 3.807206621660081e-08,
        4.021031948567598e-08, 4.14420738593189e-08, 4.442896077086209e-08,
        4.594893813616761e-08, 4.759734542293907e-08, 4.9542592032049806e-08,
        5.0382089508796385e-08, 5.2460251570172193e-08, 5.5026717262139174e-08,
        5.64943621938521e-08, 5.7771975705586596e-08),
    ("right", 24, 13): (
        1.5481477235044024e-09, 2.1054628569390275e-09, 3.9779571149208085e-09,
        7.069149336762921e-09, 8.466665164777159e-09, 1.0812645069640698e-08,
        1.1765781306175423e-08, 1.3555409288090643e-08, 1.6652843683383836e-08,
        1.7856397464303594e-08, 1.9294502382211056e-08, 2.1129451912721707e-08,
        2.379036076016286e-08, 2.4449851855341228e-08, 2.6700010947007645e-08,
        2.8274573105041902e-08, 3.018464794139357e-08, 3.346708740062947e-08,
        3.371442330386895e-08, 3.62697624747113e-08, 3.803376968375097e-08,
        3.92877451285103e-08, 4.281482571756776e-08, 4.330494446466629e-08,
        4.6017539406933756e-08, 4.8248430611926116e-08, 4.996445262445291e-08,
        5.100658013745861e-08, 5.301116433139693e-08, 5.432157180365986e-08,
        5.663628733382743e-08, 5.907456391042419e-08),
    ("right", 24, 2**64 + 5): (
        7.337319871667622e-10, 2.149441755231962e-09, 4.862989076339877e-09,
        5.6555859736151105e-09, 7.737716912964735e-09, 1.0712620425161952e-08,
        1.2901906655640337e-08, 1.3801703013739911e-08, 1.5050472845770287e-08,
        1.736290029254174e-08, 1.936650490170046e-08, 2.169310296474903e-08,
        2.314371164730952e-08, 2.5993116148421732e-08, 2.6781347851156064e-08,
        2.9007197504598745e-08, 3.0132572922179955e-08, 3.3141445025407824e-08,
        3.3907922848309045e-08, 3.6015644421933053e-08, 3.862759313262298e-08,
        3.995717213769329e-08, 4.1779808010274363e-08, 4.456803040087549e-08,
        4.509884125142184e-08, 4.8328416626486004e-08, 4.85359651863813e-08,
        5.141063486333573e-08, 5.271869935033899e-08, 5.4031482866014516e-08,
        5.745920846313821e-08, 5.9586307983965594e-08),
    ("right", 48, 0): (
        5.3545196086796405e-18, 2.0495620759232567e-16, 3.0763487815095475e-16,
        4.174336857969397e-16, 5.448215322739899e-16, 6.637394048412525e-16,
        7.513329605356732e-16, 8.603544918335129e-16, 9.79904725876234e-16,
        1.0923736098694364e-15, 1.1865608343477179e-15, 1.3157491019638873e-15,
        1.3552583545220199e-15, 1.5404671752589015e-15, 1.638299443567629e-15,
        1.774104060266407e-15, 1.8561060744039967e-15, 1.9734036649664535e-15,
        2.017226883043613e-15, 2.1549710945766706e-15, 2.2543469275461722e-15,
        2.3332483831435232e-15, 2.4459854920414314e-15, 2.5781643019414728e-15,
        2.6909579461848973e-15, 2.824250812095654e-15, 2.9359610354987146e-15,
        3.0832580267625258e-15, 3.1115350765789755e-15, 3.2409099351679367e-15,
        3.354418716631723e-15, 3.475807282984087e-15),
    ("right", 48, 13): (
        1.0122264454587805e-16, 2.0832515775428378e-16, 2.8389605521832826e-16,
        4.4343464092773887e-16, 5.076880641030489e-16, 5.740288182675788e-16,
        7.459686385345533e-16, 7.785735413941834e-16, 9.872266747880138e-16,
        1.0258033385834267e-15, 1.2175194302147676e-15, 1.3167383229314894e-15,
        1.440804494893483e-15, 1.553838356926455e-15, 1.6448825920864927e-15,
        1.7651176415691615e-15, 1.8868770808066128e-15, 1.921648674117746e-15,
        2.0008808935903416e-15, 2.1852782687836804e-15, 2.2979626013521446e-15,
        2.348545718249668e-15, 2.5295475807001893e-15, 2.6071230564037183e-15,
        2.7379162954333505e-15, 2.824267011555273e-15, 2.929985980513816e-15,
        3.0456898926757776e-15, 3.1628115777646572e-15, 3.2666898792037047e-15,
        3.394395468421217e-15, 3.5099893760741463e-15),
    ("right", 48, 2**64 + 5): (
        4.843198394816127e-17, 2.0719859394160182e-16, 3.3086281403936094e-16,
        3.5572611955697914e-16, 5.085568811022983e-16, 6.452415864804812e-16,
        7.320481594201169e-16, 8.375808414914249e-16, 9.649544770322787e-16,
        1.0255319798265152e-15, 1.1680469441064451e-15, 1.3000104811243237e-15,
        1.3683125595812327e-15, 1.4493883835293538e-15, 1.6054565750951677e-15,
        1.7718780215727627e-15, 1.792152366247376e-15, 1.903439829456154e-15,
        2.105609880056039e-15, 2.2012762714689403e-15, 2.3235028625419696e-15,
        2.357329860703244e-15, 2.474971988172901e-15, 2.6119532663339034e-15,
        2.7335462292190517e-15, 2.8387313822164846e-15, 2.9333383271045716e-15,
        3.0234263287245403e-15, 3.1473140073146527e-15, 3.2377513850274685e-15,
        3.4351846970973972e-15, 3.5352396777683996e-15),
}


# left_base(1, 0.5).sample(k, 32, seed) at the same levels and seeds, as the
# descriptor-canonicalizing sampler produced it.
PINNED_LEFT_SAMPLES = {
    (0, 0): (
        -0.9915523077682843, -0.9398518511905846, -0.9243867185558574,
        -0.8859447686715834, -0.8554853675935388, -0.8205904640866635,
        -0.7815454041346719, -0.7707641209427907, -0.734008438220737,
        -0.6986970375645727, -0.6862741904461243, -0.6521798254756814,
        -0.5957051432187535, -0.5875772479116221, -0.5574762973100662,
        -0.5071400582037242, -0.49717385816260584, -0.4615759792597691,
        -0.40950882708181424, -0.39018260081492884, -0.35032638549285766,
        -0.32339641962573795, -0.2906815479313929, -0.26206631291560833,
        -0.24560420590791143, -0.18805143645736888, -0.18280373463549404,
        -0.12935929816543823, -0.11182292731652699, -0.08867599031102624,
        -0.060142453362894366, -0.002670609294938564),
    (0, 13): (
        -0.9888332626183548, -0.9543794102744241, -0.9162150393816648,
        -0.8902947929784828, -0.8732981020256492, -0.8319751282764539,
        -0.8005801615647153, -0.7795709170229685, -0.7357320992534628,
        -0.696871375957194, -0.6806234390250447, -0.6309887043593498,
        -0.6138546165905052, -0.5755746183079191, -0.5541681456699765,
        -0.5024340298462437, -0.47359136571017135, -0.45019428333059364,
        -0.4261288118628703, -0.39240431682917987, -0.3706515254153778,
        -0.3263832668084078, -0.2997796664115213, -0.2553783391512001,
        -0.2205821609487395, -0.19574964479183965, -0.16409295830021176,
        -0.13214766638215014, -0.11792742103335752, -0.09369432900926877,
        -0.04256250714502796, -0.028412168963517725),
    (0, 2**64 + 5): (
        -0.9995147924029889, -0.9591317149169403, -0.920838560662736,
        -0.8928774754391137, -0.8595425954255622, -0.8140887160146576,
        -0.7900621378258054, -0.7519593164817657, -0.7417644627618667,
        -0.697937521288862, -0.6580000489439022, -0.6379544800105665,
        -0.6146161258185856, -0.5935202648170566, -0.5471505793011855,
        -0.5015619932841304, -0.4864289453065028, -0.43801916498763005,
        -0.4235436399750898, -0.3810437779619601, -0.35929791443990566,
        -0.3130823392160451, -0.2851698973302754, -0.27846384372577826,
        -0.24281709834660048, -0.18867404874026805, -0.17305541157784177,
        -0.12656042047115634, -0.10147187404370472, -0.08171617445858692,
        -0.03748838866755444, -0.02811425160405534),
    (24, 0): (
        -5.854714295993385e-08, -5.660104279281678e-08, -5.5218877929790485e-08,
        -5.2586187902492167e-08, -5.20449761647209e-08, -4.9496087911892146e-08,
        -4.812471499549442e-08, -4.560880676973943e-08, -4.327098341902856e-08,
        -4.1795526622321744e-08, -3.9781335894488645e-08, -3.7494357970962274e-08,
        -3.723843541765276e-08, -3.407177928591074e-08, -3.22602358580083e-08,
        -2.99783221068491e-08, -2.9705368379803683e-08, -2.6248273916373138e-08,
        -2.4708847432398515e-08, -2.2824931876633105e-08, -2.1532578558789815e-08,
        -1.9394325289714645e-08, -1.8162570916071728e-08, -1.5175684004528537e-08,
        -1.3655706639223014e-08, -1.2007299352451556e-08, -1.006205274334082e-08,
        -9.22255526659424e-09, -7.144393205218432e-09, -4.577927513251451e-09,
        -3.1102825815385266e-09, -1.8326690698040292e-09),
    (24, 13): (
        -5.8056497051886224e-08, -5.7499181918451595e-08, -5.562668766046981e-08,
        -5.25354954386277e-08, -5.1137979610613466e-08, -4.879199970574993e-08,
        -4.78388634692152e-08, -4.604923548729998e-08, -4.295180109200679e-08,
        -4.174824731108703e-08, -4.031014239317957e-08, -3.847519286266892e-08,
        -3.581428401522776e-08, -3.51547929200494e-08, -3.2904633828382984e-08,
        -3.1330071670348726e-08, -2.9419996833997057e-08, -2.6137557374761158e-08,
        -2.5890221471521672e-08, -2.3334882300679324e-08, -2.1570875091639652e-08,
        -2.0316899646880326e-08, -1.6789819057822868e-08, -1.6299700310724333e-08,
        -1.3587105368456869e-08, -1.1356214163464509e-08, -9.640192150937718e-09,
        -8.598064637932014e-09, -6.593480443993693e-09, -5.283072971730767e-09,
        -2.968357441563194e-09, -5.300808649664325e-10),
    (24, 2**64 + 5): (
        -5.887091278822386e-08, -5.7455203020158665e-08, -5.4741655699050747e-08,
        -5.3949058801775514e-08, -5.186692786242589e-08, -4.8892024350228675e-08,
        -4.670273811975029e-08, -4.580294176165072e-08, -4.455417192962034e-08,
        -4.224174448284888e-08, -4.0238139873690167e-08, -3.79115418106416e-08,
        -3.64609331280811e-08, -3.3611528626968896e-08, -3.2823296924234565e-08,
        -3.059744727079188e-08, -2.947207185321067e-08, -2.64631997499828e-08,
        -2.569672192708158e-08, -2.358900035345757e-08, -2.0977051642767646e-08,
        -1.9647472637697333e-08, -1.7824836765116262e-08, -1.5036614374515135e-08,
        -1.4505803523968782e-08, -1.1276228148904621e-08, -1.1068679589009326e-08,
        -8.194009912054895e-09, -6.8859454250516334e-09, -5.573161909376109e-09,
        -2.145436312252413e-09, -1.8336791425030913e-11),
    (48, 0): (
        -3.5473591591918213e-15, -3.3477574712081754e-15, -3.245078800649546e-15,
        -3.135279993003561e-15, -3.007892146526511e-15, -2.8889742739592484e-15,
        -2.8013807182648275e-15, -2.692359186966988e-15, -2.572808952924267e-15,
        -2.4603400689310643e-15, -2.3661528444527832e-15, -2.2369645768366137e-15,
        -2.197455324278481e-15, -2.0122465035415995e-15, -1.914414235232872e-15,
        -1.7786096185340937e-15, -1.6966076043965043e-15, -1.5793100138340474e-15,
        -1.5354867957568878e-15, -1.3977425842238303e-15, -1.2983667512543287e-15,
        -1.2194652956569777e-15, -1.1067281867590696e-15, -9.745493768590282e-16,
        -8.617557326156036e-16, -7.28462866704847e-16, -6.167526433017863e-16,
        -4.694556520379751e-16, -4.4117860222152545e-16, -3.118037436325642e-16,
        -1.9829496216877802e-16, -7.6906395816414e-17),
    (48, 13): (
        -3.451491034254623e-15, -3.344388521046217e-15, -3.2688176235821726e-15,
        -3.109279037872762e-15, -3.045025614697452e-15, -2.978684860532922e-15,
        -2.8067450402659477e-15, -2.7741401374063174e-15, -2.565487004012487e-15,
        -2.5269103402170742e-15, -2.3351942485857333e-15, -2.2359753558690113e-15,
        -2.111909183907018e-15, -1.998875321874046e-15, -1.9078310867140085e-15,
        -1.7875960372313396e-15, -1.6658365979938882e-15, -1.6310650046827549e-15,
        -1.5518327852101594e-15, -1.3674354100168205e-15, -1.2547510774483564e-15,
        -1.2041679605508328e-15, -1.0231660981003116e-15, -9.455906223967826e-16,
        -8.147973833671504e-16, -7.284466672452279e-16, -6.22727698286685e-16,
        -5.070237861247234e-16, -3.899021010358437e-16, -2.860237995967962e-16,
        -1.5831821037928403e-16, -4.272430272635461e-17),
    (48, 2**64 + 5): (
        -3.5042816948523397e-15, -3.3455150848588993e-15, -3.22185086476114e-15,
        -3.1969875592435218e-15, -3.0441567976982024e-15, -2.9074720923200197e-15,
        -2.820665519380384e-15, -2.7151328373090762e-15, -2.5877592017682225e-15,
        -2.5271816989739857e-15, -2.384666734694056e-15, -2.2527031976761774e-15,
        -2.1844011192192683e-15, -2.103325295271147e-15, -1.947257103705333e-15,
        -1.7808356572277384e-15, -1.7605613125531248e-15, -1.6492738493443471e-15,
        -1.4471037987444619e-15, -1.3514374073315606e-15, -1.2292108162585313e-15,
        -1.195383818097257e-15, -1.0777416906276001e-15, -9.407604124665975e-16,
        -8.191674495814493e-16, -7.139822965840163e-16, -6.193753516959293e-16,
        -5.292873500759607e-16, -4.053996714858482e-16, -3.1496229377303245e-16,
        -1.175289817031037e-16, -1.747400103210137e-17),
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
            "copy", [TEXTBOOK[kind](b.scale(j)) for j in range(k + 1)],
            punctured_at_zero=True)
        filterbase._sample_spans.cache_clear()
        closed = b.sample(k, 32, seed)
        filterbase._sample_spans.cache_clear()
        assert custom.sample(k, 32, seed) == closed

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
    ], ids=["non-finite-point", "negative-max-level", "level-past-max",
            "punctured-flag-lies-element", "punctured-flag-lies-sample", "stride-0",
            "stride-1.5", "stride-2.0", "non-decreasing-sequence", "no-elements", "witness-past-max"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert message in str(exc.value)
