import math
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (CONVERGED, DOMAIN_ERROR, NO_LIMIT, UNDECIDED, DomainError,
                         FilterBaseChain, LimitConfig, LimitEstimate, SequenceSpec, TraceRow,
                         as_function, chain_from_elements, derivative, estimate_limit,
                         format_trace_csv, parse, punctured_base, right_base, sequence_base)
from filterderiv import flimit
from corpus import KINK_TEXTS, SMOOTH_CASES, SMOOTH_CFG

import filterderiv as fd


class TestEstimateLimit:
    def test_identity_converges_to_zero(self):
        est = estimate_limit(lambda h: h, punctured_base(1.0, 0.5), LimitConfig())
        assert est.status == CONVERGED
        assert abs(est.value) <= 1e-9

    def test_sign_has_no_limit(self):
        # every punctured element contains both signs, so the sampled range
        # is [-1, 1] at every level
        est = estimate_limit(lambda h: math.copysign(1.0, h),
                             punctured_base(1.0, 0.5), LimitConfig())
        assert est.status == NO_LIMIT
        assert all(r.oscillation == 2.0 for r in est.trace)
        assert len(est.trace) == 49

    def test_sin_converges_along_pi_tail(self):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0))
        est = estimate_limit(lambda h: math.sin(1.0 / h), b, LimitConfig())
        assert est.status == CONVERGED
        assert abs(est.value) <= 1e-9

    def test_constant_converges_immediately(self):
        cfg = LimitConfig()
        est = estimate_limit(lambda h: 5.0, punctured_base(1.0, 0.5), cfg)
        assert est.status == CONVERGED
        assert est.value == 5.0
        assert len(est.trace) == cfg.stable_levels

    def test_domain_error_aborts(self):
        est = estimate_limit(lambda h: math.log(h), punctured_base(1.0, 0.5),
                             LimitConfig())
        assert est.status == DOMAIN_ERROR
        assert est.value is None
        assert "domain error" in est.failure_detail

    def test_nonfinite_value_is_domain_error(self):
        est = estimate_limit(lambda h: float("inf"), punctured_base(1.0, 0.5),
                             LimitConfig())
        assert est.status == DOMAIN_ERROR

    def test_unbounded_is_no_limit(self):
        # log(h) on (0, delta): defined but drifts to -inf; the level spread
        # stays ~log(1/r) so the verdict is no-limit
        est = estimate_limit(math.log, right_base(1.0, 0.5), LimitConfig())
        assert est.status == NO_LIMIT

    def test_mean_whose_sum_overflows_is_finite(self):
        # the fsum of 32 values of 1e308 overflows; their mean does not
        est = estimate_limit(lambda h: 1e308 + h, right_base(1.0, 0.5), LimitConfig())
        assert est.status == CONVERGED
        assert est.value == 1e308
        assert all(r.sample_mean == 1e308 for r in est.trace)

    def test_determinism(self):
        cfg = LimitConfig(seed=11)
        b = punctured_base(1.0, 0.5)
        a = estimate_limit(lambda h: math.sin(h) / h, b, cfg)
        c = estimate_limit(lambda h: math.sin(h) / h, b, cfg)
        assert a == c

    def test_cfg_deeper_than_chain_rejected(self):
        with pytest.raises(ValueError):
            estimate_limit(lambda h: h, punctured_base(1.0, 0.5, max_level=8),
                           LimitConfig(max_level=16))


class TestOscillationAt:
    """The sampled (min, max) of one level, read from the trace rows."""

    def test_sign_range(self):
        row = estimate_limit(lambda h: math.copysign(1.0, h),
                             punctured_base(1.0, 0.5), LimitConfig()).trace[4]
        assert (row.sample_min, row.sample_max) == (-1.0, 1.0)

    def test_square_shrinks_on_right_base(self):
        b = right_base(1.0, 0.5)
        trace = estimate_limit(lambda h: h * h, b, LimitConfig()).trace
        prev = None
        for k in (0, 2, 4):
            lo, hi = trace[k].sample_min, trace[k].sample_max
            assert 0.0 < lo < hi < b.scale(k) ** 2
            assert trace[k].oscillation == hi - lo
            if prev is not None:
                assert hi < prev
            prev = hi

    def test_constant(self):
        row = estimate_limit(lambda h: 5.0, punctured_base(1.0, 0.5),
                             LimitConfig()).trace[0]
        assert (row.sample_min, row.sample_max, row.oscillation) == (5.0, 5.0, 0.0)

    def test_domain_error_passes_through(self):
        # the failing level leaves no row; the error names it
        est = estimate_limit(lambda h: math.log(h), punctured_base(1.0, 0.5),
                             LimitConfig())
        assert est.trace == ()
        assert est.failure_detail.startswith("domain error at level 0: ")


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(stable_levels=0),
        dict(max_level=2, stable_levels=3),
        dict(samples_per_level=1),
        dict(tol_osc=0.0),
        dict(tol_step=-1.0),
        dict(no_limit_floor=0.0),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LimitConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(seed=1.0), dict(seed="0"),
                                        dict(samples_per_level=32.0),
                                        dict(max_level=5.0),
                                        dict(stable_levels=2.0)])
    def test_non_int_seed_or_sample_count_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be ints"):
            LimitConfig(**kwargs)

    @pytest.mark.parametrize("name", ["tol_osc", "tol_step", "no_limit_floor"])
    def test_infinite_tolerance_rejected(self, name):
        # an infinite tolerance would call anything converged: abs'(0) among them;
        # an int too large for a double would overflow at the first comparison, and a
        # Decimal NaN would raise decimal.InvalidOperation there
        for value in (math.inf, 10**400, Decimal("NaN"), Decimal("sNaN")):
            with pytest.raises(ValueError) as exc:
                LimitConfig(**{name: value})
            assert str(exc.value) == f"{name} must be finite"


class TestRefinementAndSeeds:
    # numeric form of: a limit along a filter persists along finer filters
    @pytest.mark.parametrize("text,x0", [(t, pts[0]) for t, pts in SMOOTH_CASES])
    def test_subsampled_chain_agrees(self, text, x0):
        f = fd.as_function(fd.parse(text))
        g = fd.difference_quotient(f, x0)
        b = punctured_base(1.0, 0.5, max_level=96)
        full = estimate_limit(g, b, SMOOTH_CFG)
        halved = estimate_limit(g, b.subchain(2), SMOOTH_CFG)
        assert full.status == CONVERGED and halved.status == CONVERGED
        assert abs(full.value - halved.value) <= 10 * SMOOTH_CFG.tol_step

    @pytest.mark.parametrize("text,x0", [(t, pts[-1]) for t, pts in SMOOTH_CASES[:4]])
    def test_seed_robustness(self, text, x0):
        f = fd.as_function(fd.parse(text))
        b = punctured_base(1.0, 0.5)
        values = []
        for seed in (0, 1, 2):
            cfg = LimitConfig(tol_osc=SMOOTH_CFG.tol_osc,
                              tol_step=SMOOTH_CFG.tol_step,
                              no_limit_floor=SMOOTH_CFG.no_limit_floor,
                              seed=seed)
            est = estimate_limit(fd.difference_quotient(f, x0), b, cfg)
            assert est.status == CONVERGED
            values.append(est.value)
        spread = max(values) - min(values)
        assert spread <= 10 * SMOOTH_CFG.tol_step


class TestTraceCsv:
    def test_format(self):
        est = estimate_limit(lambda h: 5.0, punctured_base(1.0, 0.5), LimitConfig())
        text = format_trace_csv(est)
        lines = text.strip().split("\n")
        assert lines[0] == "k,scale,min,max,mean,osc"
        assert len(lines) == LimitConfig().stable_levels + 1
        assert lines[1] == "0,1.0,5.0,5.0,5.0,0.0"


def _window_descend(level_values, b, cfg):
    """The convergence test as a re-scan of the last stable_levels trace rows
    at every level: the reference that _descend's running streak must match."""
    if cfg.max_level > b.max_level:
        raise ValueError(
            f"cfg.max_level={cfg.max_level} exceeds chain max_level={b.max_level}")
    rows: list[TraceRow] = []
    s = cfg.stable_levels
    status, detail = UNDECIDED, "stability criterion not met within the level budget"
    for k in range(cfg.max_level + 1):
        try:
            vals = level_values(k)
        except DomainError as err:
            status, detail = DOMAIN_ERROR, f"domain error at level {k}: {err}"
            break
        lo, hi = min(vals), max(vals)
        try:
            mean = math.fsum(vals) / len(vals)
        except OverflowError:  # the sum overflows, the mean does not: take it exactly
            from fractions import Fraction  # imported here: it slows every CLI start
            mean = float(sum(map(Fraction, vals)) / len(vals))
        rows.append(TraceRow(scale=b.scale(k), sample_min=lo, sample_max=hi,
                             sample_mean=mean, oscillation=hi - lo))
        if k + 1 >= s:
            window = rows[k - s + 1:]
            osc_ok = all(r.oscillation <= cfg.tol_osc for r in window)
            steps_ok = all(
                abs(cur.sample_mean - prev.sample_mean)
                <= cfg.tol_step * (1.0 + abs(cur.sample_mean))
                for prev, cur in zip(window, window[1:]))
            if osc_ok and steps_ok:
                status, detail = CONVERGED, None
                break
    else:
        tail = rows[-s:]
        first, last = tail[0], tail[-1]
        if all(r.oscillation >= cfg.no_limit_floor for r in tail):
            # no-limit only where the oscillation did not shrink with the scale
            w = (math.sqrt(last.scale / first.scale) if 0.0 < last.scale < first.scale
                 else 0.0)
            if last.oscillation >= w * first.oscillation:
                status, detail = NO_LIMIT, (
                    f"oscillation stayed >= {cfg.no_limit_floor!r} on the last "
                    f"{s} levels (last = {last.oscillation!r})")
            else:
                detail += (f"; the oscillation shrank with the scale on the last {s} "
                           f"levels ({first.oscillation!r} to {last.oscillation!r})")
    value = rows[-1].sample_mean if status == CONVERGED else None
    return LimitEstimate(status=status, value=value, trace=tuple(rows),
                         failure_detail=detail)


# Dyadic tolerances and offsets: the levels below are built so that every
# oscillation and every step between means is exact in floating point, so
# "on the boundary" means exactly on it.
_TOL_OSC, _TOL_STEP, _TINY = 2.0 ** -3, 2.0 ** -2, 2.0 ** -32
# An oscillation, or a step's excess over its bound: on the boundary, a tiny
# amount either side of it, nothing, or far beyond it.
_OFFSETS = (0.0, -_TINY, _TINY, "none", 0.5)


def _levels(last_mean, kinds):
    """Per-level value lists [mean - osc/2, mean + osc/2]. kinds[k] is
    (osc offset, step offset, step sign, domain error); the means are built
    from the last one backwards, so that the step into level k is exactly
    tol_step * (1 + |mean_k|) plus its offset. "none" is oscillation 0 or
    step 0."""
    means = [last_mean]
    for _, step, sign, _ in reversed(kinds[1:]):
        m = means[-1]
        bound = _TOL_STEP * (1.0 + abs(m))
        gap = 0.0 if step == "none" else bound + step
        prev = m - sign * gap
        assert abs(m - prev) == gap  # exact, so the boundary is hit as built
        means.append(prev)
    means.reverse()
    levels = []
    for m, (osc, _, _, fails) in zip(means, kinds):
        half = 0.0 if osc == "none" else (_TOL_OSC + osc) / 2
        vals = [m - half, m + half]
        assert vals[1] - vals[0] == 2 * half and math.fsum(vals) / 2 == m
        levels.append(None if fails else vals)
    return levels


@st.composite
def _descents(draw):
    s = draw(st.integers(1, 4))
    cfg = LimitConfig(max_level=draw(st.integers(s, s + 3)), stable_levels=s,
                      tol_osc=_TOL_OSC, tol_step=_TOL_STEP,
                      no_limit_floor=draw(st.sampled_from([_TOL_OSC, 1.0])))
    kind = st.tuples(st.sampled_from(_OFFSETS), st.sampled_from(_OFFSETS),
                     st.sampled_from([1.0, -1.0]), st.sampled_from([False] * 9 + [True]))
    kinds = draw(st.lists(kind, min_size=cfg.max_level + 1, max_size=cfg.max_level + 1))
    return cfg, _levels(draw(st.sampled_from([0.0, 0.5, -1.25, 3.0])), kinds)


def _from_lists(levels):
    def level_values(k):
        if levels[k] is None:
            raise DomainError("undefined here", argument=float(k))
        return list(levels[k])
    return level_values


def _one_estimate(levels):
    """_from_lists(levels) as the level_values of _descend's one estimate:
    its k-th call returns level k's list."""
    level_values, ks = _from_lists(levels), iter(range(len(levels)))
    return lambda hs, row, i: level_values(next(ks))


class TestStreakMatchesWindow:
    """_descend's verdict, value, trace and detail equal the window re-scan's
    on the same per-level values, with oscillations and steps placed on the
    tolerances and just either side of them."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(_descents())
    def test_same_estimate(self, case):
        cfg, levels = case
        b = punctured_base(1.0, 0.5, max_level=16)
        assert (flimit._descend(_one_estimate(levels), 1, b, cfg)
                == [_window_descend(_from_lists(levels), b, cfg)])


def _const(mean, osc=0.0):
    return [mean - osc / 2, mean + osc / 2]


_NEAR = math.nextafter(_TOL_OSC, math.inf)


class TestDescendBoundaries:
    """Explicit per-level inputs with their verdict and level count."""

    @pytest.mark.parametrize("s,max_level,levels,status,count", [
        # stable_levels=1 converges at level 0
        (1, 3, [_const(2.0)] * 4, CONVERGED, 1),
        # an oscillation equal to tol_osc is ok; one just above it is not
        (2, 3, [_const(0.0, _TOL_OSC)] * 4, CONVERGED, 2),
        (2, 3, [_const(0.0, _NEAR)] * 4, UNDECIDED, 4),
        # a step equal to tol_step * (1 + |mean|) passes: 1.5 -> 1.0 is 0.5
        (2, 3, [_const(1.5), _const(1.0)] * 2, CONVERGED, 2),
        (2, 3, [_const(math.nextafter(1.5, 2.0)), _const(1.0), _const(2.0),
                _const(4.0)], UNDECIDED, 4),
        # a failed step inside an oscillation-ok run restarts the count at
        # that level (run 1, 2, 1, 2, 3), not at 0
        (3, 6, [_const(0.0), _const(0.0), _const(10.0), _const(10.0),
                _const(10.0), _const(10.0), _const(10.0)], CONVERGED, 5),
        # a failed oscillation does restart it at 0 (run 1, 2, 0, 1, 2, 3)
        (3, 6, [_const(0.0), _const(0.0), _const(0.0, 1.0), _const(0.0),
                _const(0.0), _const(0.0), _const(0.0)], CONVERGED, 6),
        # convergence exactly at level s - 1
        (3, 5, [_const(7.0)] * 6, CONVERGED, 3),
        (4, 5, [_const(7.0)] * 6, CONVERGED, 4),
        # the budget runs out: no-limit when the last s levels oscillate by
        # at least the floor, undecided otherwise
        (2, 3, [_const(0.0, 2.0)] * 4, NO_LIMIT, 4),
        (2, 3, [_const(0.0, 2.0)] * 3 + [_const(0.0, 0.5)], UNDECIDED, 4),
        (2, 3, [_const(0.0, 0.5)] * 3 + [_const(0.0, 2.0)], UNDECIDED, 4),
        # and when the oscillation did not shrink with the scale: over levels
        # 1-3 the scale falls by 4, so the last must be >= sqrt(1/4) of the first
        (3, 3, [_const(0.0, 4.0)] * 3 + [_const(0.0, 2.0)], NO_LIMIT, 4),
        (3, 3, [_const(0.0, 4.0)] * 3 + [_const(0.0, 1.5)], UNDECIDED, 4),
        # convergence at the very last level
        (2, 3, [_const(0.0, 2.0)] * 2 + [_const(1.0)] * 2, CONVERGED, 4),
    ])
    def test_verdict_and_level_count(self, s, max_level, levels, status, count):
        cfg = LimitConfig(max_level=max_level, stable_levels=s, tol_osc=_TOL_OSC,
                          tol_step=_TOL_STEP, no_limit_floor=1.0)
        [est] = flimit._descend(_one_estimate(levels), 1, punctured_base(1.0, 0.5), cfg)
        assert (est.status, len(est.trace)) == (status, count)
        assert est.value == (est.trace[-1].sample_mean if status == CONVERGED else None)


class TestLockstep:
    """_descend with n = 3 estimates that end on different levels."""

    CFG = LimitConfig(max_level=6, stable_levels=2, tol_osc=_TOL_OSC, tol_step=_TOL_STEP,
                      no_limit_floor=1.0)

    def _run(self, outcomes):
        """Drive one estimate per list in outcomes, whose k-th entry is that
        estimate's values on level k, None for a DomainError, or an exception
        to raise. Each call is recorded in self.calls as (k, i, the keys row
        held), and then writes row[i]; k counts the distinct rows seen, each
        of which must be new and empty when first seen."""
        b, rows, calls = punctured_base(1.0, 0.5), [], []
        self.calls = calls

        def level_values(hs, row, i):
            if not rows or row is not rows[-1]:
                assert row == {} and all(row is not r for r in rows)
                rows.append(row)
            k = len(rows) - 1
            assert hs == b.sample(k, self.CFG.samples_per_level, self.CFG.seed)
            calls.append((k, i, sorted(row)))
            row[i] = k
            out = outcomes[i][k]
            if isinstance(out, Exception):
                raise out
            if out is None:
                raise DomainError("undefined here", argument=float(k))
            return out
        return flimit._descend(level_values, len(outcomes), b, self.CFG)

    def test_estimates_end_on_their_own_levels(self):
        ests = self._run([[_const(1.0)] * 7,            # converges on level 1
                                 [_const(0.0, 2.0)] * 3 + [None] * 4,  # fails on level 3
                                 [_const(0.0, 2.0)] * 7])      # runs out of levels
        assert [(e.status, len(e.trace)) for e in ests] == [
            (CONVERGED, 2), (DOMAIN_ERROR, 3), (NO_LIMIT, 7)]
        assert ests[1].failure_detail.startswith("domain error at level 3: undefined here")
        # the DomainError ended estimate 1 alone; on each level, each open
        # estimate saw what the ones before it left in that level's row
        assert self.calls == ([(k, i, list(range(i))) for k in (0, 1) for i in range(3)]
                              + [(2, 1, []), (2, 2, [1]), (3, 1, []), (3, 2, [1])]
                              + [(k, 2, []) for k in (4, 5, 6)])
        b = punctured_base(1.0, 0.5)
        assert [r.scale for r in ests[2].trace] == [b.scale(k) for k in range(7)]

    def test_error_waits_for_the_estimates_before_it(self):
        with pytest.raises(TypeError, match="not a number"):
            self._run([[_const(0.0, 2.0)] * 3 + [_const(1.0)] * 4,  # converges on level 4
                       [_const(0.0, 2.0)] * 2 + [TypeError("not a number")] * 5,
                       [_const(0.0, 2.0)] * 7])
        # estimate 1's error on level 2 stops estimate 2 at once, and is
        # raised once estimate 0 has ended, on level 4
        assert self.calls == ([(k, i, list(range(i))) for k in (0, 1) for i in range(3)]
                              + [(2, 0, []), (2, 1, [0]), (3, 0, []), (4, 0, [])])


# Finite floats heavy in repeats and in values whose sign min() and max() keep:
# equal signed zeros, the smallest subnormals, and sums that overflow fsum.
_SIGNED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308])
_LEVEL_VALUE = st.one_of(_SIGNED, _SIGNED, _SIGNED, st.floats(allow_nan=False,
                                                              allow_infinity=False))


class TestLevelReduction:
    """Each row's sample_min and sample_max are the level's min() and max(),
    down to the sign of a zero, and the lists read are left as handed out."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.lists(_LEVEL_VALUE, min_size=1, max_size=6), min_size=4, max_size=4))
    def test_min_and_max_are_the_builtins(self, levels):
        cfg = LimitConfig(max_level=3, stable_levels=2)
        [est] = flimit._descend(_one_estimate(levels), 1, punctured_base(1.0, 0.5), cfg)
        for row, level in zip(est.trace, levels):
            assert ((repr(row.sample_min), repr(row.sample_max))
                    == (repr(min(level)), repr(max(level))))

    def test_max_of_equal_zeros_is_the_first(self):
        # the quotient 0.0 / h is -0.0 at h < 0, sampled first, and 0.0 at h > 0:
        # max() keeps the first of the equal maxima, -0.0
        est = fd.derivative(fd.as_function(fd.parse("0")), 1.0, punctured_base(1.0, 0.5),
                            LimitConfig())
        assert repr(est.estimate.trace[0].sample_max) == "-0.0"

    def test_lists_read_are_not_reordered(self):
        handed = []  # (a list handed out, the repr it had then)

        def level_values(hs, row, i):
            # each read follows the step of every earlier level and estimate
            assert all(repr(vals) == kept for vals, kept in handed)
            vals = [float(len(handed) - i), 3.0, -1.0, 0.0, -0.0, 2.0]
            handed.append((vals, repr(vals)))
            return vals
        flimit._descend(level_values, 2, punctured_base(1.0, 0.5), LimitConfig(max_level=4))
        assert len(handed) == 10 and all(repr(vals) == kept for vals, kept in handed)


class TestRadiusFactor:
    """The level's |h| factor of the rounding radius is read only by an
    estimate whose radius can be non-zero."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(flimit, "sorted", counted, raising=False)
        return calls

    def test_no_median_where_the_radius_is_zero(self, monkeypatch):
        # f(0) = 0 at x0 = 0: 2|f(x0)| and |x0| are both 0, so r = 0 on every level
        f = fd.as_function(fd.parse("x*sin(1/x)"))
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0))
        expected = fd.derivative(lambda x: 0.0 if x == 0.0 else f(x), 0.0, b, LimitConfig())
        calls = self._spy(monkeypatch)
        est = fd.derivative(lambda x: 0.0 if x == 0.0 else f(x), 0.0, b, LimitConfig())
        assert calls == []
        assert est == expected

    def test_median_once_per_level_where_the_radius_is_not_zero(self, monkeypatch):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0))
        calls = self._spy(monkeypatch)
        est = fd.derivative(math.sin, 1.0, b, SMOOTH_CFG)
        assert len(calls) == len(est.estimate.trace) > 0


_POWERS_OF_TWO = st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
_SUBNORMALS = st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_min=True,
                        exclude_max=True)
_HUGE = st.floats(min_value=1e300, allow_infinity=False)


class TestUnmovedStop:
    """The first level whose |h| can be as small as ulp(x0) / 2 ends every
    open estimate undecided, keeping its row: past that bound x0 + h != x0,
    and at it x0 + h can equal x0, where a quotient is exactly 0 and a
    shifted value exactly F(x0), whatever F does."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(x0=st.one_of(st.floats(allow_nan=False, allow_infinity=False), _POWERS_OF_TWO,
                        _SUBNORMALS, _HUGE),
           x0_sign=st.sampled_from([1.0, -1.0]), h_sign=st.sampled_from([1.0, -1.0]),
           data=st.data())
    def test_past_half_an_ulp_x0_moves(self, x0, x0_sign, h_sign, data):
        x0 *= x0_sign
        half = math.ulp(x0) / 2   # 0 where ulp(x0) / 2 is no double: then any h != 0 moves x0
        least = math.nextafter(half, math.inf)
        h = h_sign * data.draw(st.one_of(st.just(least),
                                         st.floats(min_value=least, allow_infinity=False)))
        assert x0 + h != x0

    def test_at_half_an_ulp_x0_can_stay(self):
        assert 1e16 + 1.0 == 1e16 and math.ulp(1e16) / 2 == 1.0
        # below a power of two the spacing halves: an |h| within ulp(x0) / 2
        # can still move x0, so the stop is at the first level that *can* leave it
        assert 1.0 - 0.3 * math.ulp(1.0) != 1.0

    def test_first_level_that_can_leave_x0_ends_the_estimate(self):
        # sign has no limit, so only the stop ends it: level 43 is the first
        # whose inner radius 0.5 * 0.5**k reaches ulp(1000) / 2 = 2**-44
        g = lambda h: math.copysign(1.0, h)
        g.at_x0 = (1000.0, None)
        est = estimate_limit(g, punctured_base(1.0, 0.5), LimitConfig())
        assert (est.status, len(est.trace)) == (UNDECIDED, 44)
        assert est.failure_detail == (
            "resolution exhausted at level 43: |h| down to 5.684341886080802e-14 <= "
            "ulp(x0) / 2 = 5.684341886080802e-14, where x0 + h can equal x0")

    def test_a_sequence_level_reads_its_smallest_h(self):
        b = sequence_base(SequenceSpec(kind="piovern", c=1.0))
        g = lambda h: h
        g.at_x0 = (1e16, None)
        est = estimate_limit(g, b, LimitConfig())
        least = min(map(abs, b.sample(0, 32, 0)))
        assert (est.status, len(est.trace)) == (UNDECIDED, 1)
        assert est.failure_detail == (f"resolution exhausted at level 0: |h| down to "
                                      f"{least!r} <= ulp(x0) / 2 = 1.0, where x0 + h can equal x0")

    @pytest.mark.parametrize("x0", [0.0, -0.0, 5e-324, math.inf, math.nan, 10**400, "x0"])
    def test_no_stop_where_no_h_leaves_x0(self, x0):
        # at 0 and at a tiny x0, where ulp(x0) / 2 rounds to 0, no h != 0
        # leaves x0 unmoved; an x0 that is not finite or no double has no ulp
        g = lambda h: math.copysign(1.0, h)
        g.at_x0 = (x0, None)
        est = estimate_limit(g, punctured_base(1.0, 0.5), LimitConfig())
        assert (est.status, len(est.trace)) == (NO_LIMIT, 49)


class TestBudgetScaleLaw:
    """At the level budget, no-limit also needs an oscillation that did not
    shrink with the scale: last >= sqrt(last scale / first scale) * first
    over the last stable_levels rows. A jump or kink keeps its oscillation;
    a limit the budget cut short halves it with each halving of the scale."""

    @pytest.mark.parametrize("text", KINK_TEXTS)
    def test_kinks_at_the_origin_stay_no_limit(self, text):
        est = derivative(as_function(parse(text)), 0.0, punctured_base(1.0, 0.5),
                         LimitConfig()).estimate
        assert (est.status, len(est.trace)) == (NO_LIMIT, 49)

    @pytest.mark.parametrize("spec", [SequenceSpec(kind="piovern", c=1.0),
                                      SequenceSpec(kind="powinv", c=1.0, p=1.0)])
    def test_cos_of_one_over_h_along_a_sequence_stays_no_limit(self, spec):
        # a sequence base's scale is its tail's start index, which grows
        est = estimate_limit(lambda h: math.cos(1.0 / h), sequence_base(spec), LimitConfig())
        assert (est.status, len(est.trace)) == (NO_LIMIT, 49)

    def test_a_limit_cut_short_is_undecided(self):
        est = estimate_limit(lambda h: h, right_base(1.0, 0.5), LimitConfig(max_level=5))
        first, last = est.trace[-3].oscillation, est.trace[-1].oscillation
        assert est.status == UNDECIDED and last < first / 2
        assert est.failure_detail == (
            "stability criterion not met within the level budget; the oscillation shrank "
            f"with the scale on the last 3 levels ({first!r} to {last!r})")

    @pytest.mark.parametrize("scale_fn", [float, lambda k: 0.0], ids=["k", "zero"])
    def test_scales_that_do_not_shrink_keep_the_floor_rule(self, scale_fn):
        # chain_from_elements' scale(k) is k, 0.0 on level 0; the other chain's
        # is 0.0 on every level. Neither is a divisor: h -> h, whose oscillation
        # halves, is no-limit there as before the scale law
        elements = [punctured_base(1.0, 0.5).element(k) for k in range(4)]
        b = (chain_from_elements("by hand", elements, punctured_at_zero=True)
             if scale_fn is float else
             FilterBaseChain(chain_id="zero scales", max_level=3, punctured_at_zero=True,
                             params={}, element_fn=elements.__getitem__, scale_fn=scale_fn))
        est = estimate_limit(lambda h: h, b, LimitConfig(max_level=3))
        first, last = est.trace[-3].oscillation, est.trace[-1].oscillation
        assert est.trace[0].scale == 0.0 and last < first / 2
        assert (est.status, len(est.trace)) == (NO_LIMIT, 4)
