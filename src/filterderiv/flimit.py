"""Numerical limit of a function along a filter base chain.

The estimator samples each level of the chain, tracks the sampled
min/max/mean, and issues one of four verdicts:

- converged:   a trailing streak of `stable_levels` levels, each with
               oscillation (max - min) <= max(tol_osc, r) and each after the
               first with a mean that agrees with the one before it to
               max(tol_step * (1 + |mean|), r); the value is the final
               level's mean. The streak is counted as the levels arrive, so
               each level's test takes constant time.
- no-limit:    the level budget is exhausted and oscillation stayed >=
               no_limit_floor, and > r, on each of the last `stable_levels`
               levels.
- undecided:   neither of the above held by the last level; or a level's r
               exceeded 1e-5 * (1 + |mean|), where the estimate stops
               ("resolution exhausted at level k"): it keeps that level's
               row, and no later level would resolve more. Such a stop is
               undecided even where the quotient kept oscillating, as at a
               kink away from the origin (abs(x - 1) at 1, 1 + abs(x) at 0):
               its no-limit needs the levels past the floor.
- domain-error: the function was undefined at a sampled point, which
               falsifies the premise that it is defined on the base element.

r is a level's rounding radius. A difference quotient (f(x0+h) - f(x0)) / h
computed in doubles is off by about eps * (2|f(x0)| + |x0| * |q|) / |h|, so
its estimate takes r = _KAPPA * that, at the level's largest |q| and at
|h| the inner radius of a geometric level's annulus (its smallest |h|),
else the level's median |h|, and stops where r passes _RESOLUTION_CAP *
(1 + |mean|): the error-growth stop of Ridders' extrapolation (Numerical
Recipes 5.7). Any other limit has r = 0.

A numerical procedure cannot decide limit existence, so the verdict comes
with the full per-level trace as falsifiable evidence.

One level loop, `_descend`, runs every estimate: n of them in lockstep on
one sample and one scale per level. `estimate_limit` is its n = 1 case.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence

from ._record import record
from .errors import DomainError, _real
from .filterbase import FilterBaseChain

__all__ = [
    "CONVERGED", "NO_LIMIT", "UNDECIDED", "DOMAIN_ERROR",
    "LimitConfig", "TraceRow", "LimitEstimate",
    "estimate_limit", "format_trace_csv",
]

CONVERGED = "converged"
NO_LIMIT = "no-limit"
UNDECIDED = "undecided"
DOMAIN_ERROR = "domain-error"

# kappa = 4 and 8 let rounding noise pass as a value on random trees; a
# cap of 1e-6 left corpus points undecided.
_KAPPA = 16.0
_RESOLUTION_CAP = 1e-5


@record
class LimitConfig:
    max_level: int = 48
    samples_per_level: int = 32
    tol_osc: float = 1e-9
    tol_step: float = 1e-9
    stable_levels: int = 3
    no_limit_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(getattr(self, name), int) for name in
                   ("max_level", "samples_per_level", "stable_levels", "seed")):
            raise ValueError("max_level, samples_per_level, stable_levels and "
                             "seed must be ints")
        if self.stable_levels < 1:
            raise ValueError("stable_levels must be >= 1")
        if self.max_level < self.stable_levels:
            raise ValueError("max_level must be >= stable_levels")
        if self.samples_per_level < 2:
            raise ValueError("samples_per_level must be >= 2")
        for name in ("tol_osc", "tol_step", "no_limit_floor"):
            value = _real(getattr(self, name), lambda **_: ValueError(f"{name} must be finite"))
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0")
            object.__setattr__(self, name, value)


@record
class TraceRow:
    scale: float
    sample_min: float
    sample_max: float
    sample_mean: float
    oscillation: float


@record
class LimitEstimate:
    status: str
    value: float | None
    trace: tuple[TraceRow, ...]
    failure_detail: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _finite_values(g: Callable[[float], float], pts: Sequence[float]) -> list[float]:
    """g at each of pts, as finite reals, or a DomainError at the first failure
    (a stdlib domain error or a non-finite value): the one check of a value.
    A g with its own finite_values(pts) (fderiv.difference_quotient's, over
    a compiled f) is tried that way first; on any exception the points are
    redone one at a time, so a failure raises what it raises without it."""
    if (level_form := getattr(g, "finite_values", None)) is not None:
        try:
            return level_form(pts)
        except Exception:
            pass
    vals = []
    for x in pts:
        try:
            v = g(x)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(str(exc), argument=x) from exc
        if type(v) is not float or not math.isfinite(v):  # the gate, but free for a float
            v = _real(v, lambda **_: DomainError("function value is not a finite real", argument=x))
        vals.append(v)
    return vals


def _require_depth(b: FilterBaseChain, cfg: LimitConfig) -> None:
    if cfg.max_level > b.max_level:
        raise ValueError(
            f"cfg.max_level={cfg.max_level} exceeds chain max_level={b.max_level}")


def _descend(level_values: Callable[[Sequence[float], dict, int], list[float]], n: int,
             b: FilterBaseChain, cfg: LimitConfig, x0: float = 0.0,
             slots: Sequence[list[float] | None] = ()) -> list[LimitEstimate]:
    """n estimates in lockstep: level k is sampled once, at hs, and its scale
    read once; then each estimate i still open, in order, takes its finite
    values there from level_values(hs, row, i), where row is a dict fresh on
    each level that the level's reads may share. A DomainError ends estimate
    i alone; any other exception leaves only the open estimates before i
    running, and is raised once they end. ValueError first if b has too few
    levels.

    runs[i] is the length of estimate i's trailing streak: a level whose
    oscillation exceeds tol_osc ends it (run 0); an oscillation-ok level
    extends it when its mean passes the step test against the level before,
    and otherwise starts a new one (run 1). An estimate converges at the
    first level with run >= stable_levels, which is the first level whose
    last stable_levels rows all pass both tests.

    slots[i], when given and not None, holds y0 = F(x0) for the F whose
    difference quotient at x0 estimate i takes, once the estimate's first
    read has filled it; coefs[i] = 2|y0| is taken from it then, once. Such
    an estimate has the radius r of the module docstring, at |h| =
    b.inner_ratio * scale(k) where that is known and not 0, else the median
    |h| sampled: a sequence level's |h| may span orders of magnitude (a geo
    level's, 2^31), and noise at its smaller |h| beyond r shows as
    oscillation, which fails the tests rather than passing them. That |h|
    is read once per level, by the first estimate that needs it: where
    2|y0| and |x0| are both 0 (x sin(1/x) at 0), r is 0 on every level and
    no |h| is read. narrow[i]
    is the last level whose oscillation was within r. Any other estimate
    has r = 0."""
    _require_depth(b, cfg)
    m, s, tol_osc, tol_step = cfg.samples_per_level, cfg.stable_levels, cfg.tol_osc, cfg.tol_step
    sample, scale_of, seed, fsum = b.sample, b.scale, cfg.seed, math.fsum
    rows: list[list[TraceRow]] = [[] for _ in range(n)]
    runs, prevs, ends, narrow = [0] * n, [0.0] * n, [None] * n, [-1] * n
    live, error = range(n), None
    try:
        ax0 = abs(x0)
    except Exception:  # x0 is no number: the values fail on their own, as without a radius
        slots = ()
    slots = slots or [None] * n
    inner = b.inner_ratio or 0.0
    coefs = [None] * n  # 2|F(x0)| of estimate i, once its slot holds F(x0)
    unit, cap = _KAPPA * sys.float_info.epsilon, _RESOLUTION_CAP
    for k in range(cfg.max_level + 1):
        hs, row, scale, still = sample(k, m, seed), {}, scale_of(k), []
        step = None  # the radii's common factor on this level, kappa*eps / |h|, once read
        for i in live:
            try:
                vals = level_values(hs, row, i)
            except DomainError as err:
                ends[i] = (DOMAIN_ERROR, None, f"domain error at level {k}: {err}")
                continue
            except Exception as exc:  # raised once the estimates before i end
                error = exc
                break
            lo, hi = min(vals), max(vals)
            try:
                mean = fsum(vals) / len(vals)
            except OverflowError:  # the sum overflows, the mean does not: take it exactly
                from fractions import Fraction  # imported here: it slows every CLI start
                mean = float(sum(map(Fraction, vals)) / len(vals))
            osc, size = hi - lo, 1.0 + abs(mean)
            rows[i].append(TraceRow(scale, lo, hi, mean, osc))
            if (c := coefs[i]) is None and (slot := slots[i]):
                c = coefs[i] = 2.0 * abs(slot[0])
            r = 0.0
            if c is not None:
                if c or ax0:  # else r is 0 whatever |h| is
                    if step is None:
                        step = unit / (inner * scale or sorted(map(abs, hs))[len(hs) // 2])
                    r = step * (c + ax0 * (hi if hi > -lo else -lo))
                if r > cap * size:
                    ends[i] = (UNDECIDED, None, f"resolution exhausted at level {k}: rounding "
                               f"radius {r!r} > {_RESOLUTION_CAP!r} * (1 + |mean|)")
                    continue
                if osc <= r:
                    narrow[i] = k
            run = runs[i]
            if not (osc <= tol_osc or osc <= r):
                run = 0
            elif run and ((d := abs(mean - prevs[i])) <= tol_step * size or d <= r):
                run += 1
            else:
                run = 1
            runs[i], prevs[i] = run, mean
            if run >= s:
                ends[i] = (CONVERGED, mean, None)
            else:
                still.append(i)
        live = still
        if not live:
            break
    for i in live:  # the level budget is exhausted
        tail = rows[i][-s:]
        ends[i] = (UNDECIDED, None, "stability criterion not met within the level budget")
        if narrow[i] < len(rows[i]) - s and all(
                r.oscillation >= cfg.no_limit_floor for r in tail):
            ends[i] = (NO_LIMIT, None, f"oscillation stayed >= {cfg.no_limit_floor!r} on the "
                       f"last {s} levels (last = {tail[-1].oscillation!r})")
    if error is not None:
        raise error
    return [LimitEstimate(status=status, value=value, trace=tuple(trace), failure_detail=detail)
            for (status, value, detail), trace in zip(ends, rows)]


def estimate_limit(g: Callable[[float], float], b: FilterBaseChain,
                   cfg: LimitConfig) -> LimitEstimate:
    """Estimate lim g along the filter generated by b: _descend with n = 1.

    A g from fderiv.difference_quotient carries its x0 and the slot that
    holds f(x0) once read, as g.at_x0 = (x0, slot), so the estimate stops at
    the quotient's rounding floor (see _descend); any other g is a black
    box with no radius.

    Precondition (not re-verified here; the built-in constructors guarantee
    it): b satisfies the base axioms up to cfg.max_level, which must not
    exceed b.max_level.
    """
    x0, slot = getattr(g, "at_x0", (0.0, None))
    return _descend(lambda hs, row, i: _finite_values(g, hs), 1, b, cfg, x0, (slot,))[0]


def format_trace_csv(est: LimitEstimate) -> str:
    """Render the per-level trace as CSV (one row per level)."""
    lines = ["k,scale,min,max,mean,osc"]
    for k, r in enumerate(est.trace):
        lines.append(f"{k},{r.scale!r},{r.sample_min!r},{r.sample_max!r},"
                     f"{r.sample_mean!r},{r.oscillation!r}")
    return "\n".join(lines) + "\n"
