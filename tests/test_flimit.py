import math

import pytest

from filterderiv import (CONVERGED, DOMAIN_ERROR, NO_LIMIT, LimitConfig,
                         SequenceSpec, estimate_limit, format_trace_csv,
                         punctured_base, right_base, sequence_base)
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
