import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterderiv import (CONVERGED, DOMAIN_ERROR, NO_LIMIT, UNDECIDED, DomainError,
                         LimitConfig, LimitEstimate, SequenceSpec, TraceRow,
                         estimate_limit, format_trace_csv, punctured_base, right_base,
                         sequence_base)
from filterderiv import flimit
from corpus import SMOOTH_CASES, SMOOTH_CFG

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
        if all(r.oscillation >= cfg.no_limit_floor for r in tail):
            status, detail = NO_LIMIT, (
                f"oscillation stayed >= {cfg.no_limit_floor!r} on the last "
                f"{s} levels (last = {tail[-1].oscillation!r})")
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
