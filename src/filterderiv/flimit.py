"""Numerical limit of a function along a filter base chain.

The estimator samples each level of the chain, tracks the sampled
min/max/mean, and issues one of four verdicts:

- converged:   a trailing streak of `stable_levels` levels, each with
               oscillation (max - min) <= tol_osc and each after the first
               with a mean that agrees with the one before it to
               tol_step * (1 + |mean|); the value is the final level's mean.
               The streak is counted as the levels arrive, so each level's
               test takes constant time.
- no-limit:    the level budget is exhausted and oscillation stayed >=
               no_limit_floor on each of the last `stable_levels` levels.
- undecided:   neither of the above held by the last level.
- domain-error: the function was undefined at a sampled point, which
               falsifies the premise that it is defined on the base element.

A numerical procedure cannot decide limit existence, so the verdict comes
with the full per-level trace as falsifiable evidence.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Generator, Sequence

from ._record import record
from .errors import DomainError
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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
            if getattr(self, name) > sys.float_info.max:  # inf, or an int no double holds
                raise ValueError(f"{name} must be finite")


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
    if hasattr(g, "finite_values"):
        try:
            return g.finite_values(pts)
        except Exception:
            pass
    vals = []
    for x in pts:
        try:
            v = g(x)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(str(exc), argument=x) from exc
        if not math.isfinite(v):
            raise DomainError("function value is not a finite real", argument=x)
        vals.append(v)
    return vals


def _descent(b: FilterBaseChain, cfg: LimitConfig
             ) -> Generator[LimitEstimate | None, list[float] | DomainError, None]:
    """The descent, fed one level at a time: once primed with send(None),
    send takes level k's finite values, or the DomainError that level raised,
    for k = 0, 1, ... in turn, and returns None until the descent ends and
    then its LimitEstimate. Priming raises ValueError if b has too few levels.

    run is the length of the trailing streak: a level whose oscillation
    exceeds tol_osc ends it (run 0); an oscillation-ok level extends it when
    its mean passes the step test against the level before, and otherwise
    starts a new one (run 1). The descent converges at the first level with
    run >= stable_levels, which is the first level whose last stable_levels
    rows all pass both tests."""
    if cfg.max_level > b.max_level:
        raise ValueError(
            f"cfg.max_level={cfg.max_level} exceeds chain max_level={b.max_level}")
    rows: list[TraceRow] = []
    s, tol_osc, tol_step = cfg.stable_levels, cfg.tol_osc, cfg.tol_step
    run, prev = 0, 0.0
    status, detail = UNDECIDED, "stability criterion not met within the level budget"
    for k in range(cfg.max_level + 1):
        vals = yield None
        if isinstance(vals, DomainError):
            status, detail = DOMAIN_ERROR, f"domain error at level {k}: {vals}"
            break
        lo, hi = min(vals), max(vals)
        try:
            mean = math.fsum(vals) / len(vals)
        except OverflowError:  # the sum overflows, the mean does not: take it exactly
            from fractions import Fraction  # imported here: it slows every CLI start
            mean = float(sum(map(Fraction, vals)) / len(vals))
        osc = hi - lo
        rows.append(TraceRow(scale=b.scale(k), sample_min=lo, sample_max=hi,
                             sample_mean=mean, oscillation=osc))
        if not osc <= tol_osc:
            run = 0
        elif run and abs(mean - prev) <= tol_step * (1.0 + abs(mean)):
            run += 1
        else:
            run = 1
        prev = mean
        if run >= s:
            status, detail = CONVERGED, None
            break
    else:
        tail = rows[-s:]
        if all(r.oscillation >= cfg.no_limit_floor for r in tail):
            status, detail = NO_LIMIT, (
                f"oscillation stayed >= {cfg.no_limit_floor!r} on the last "
                f"{s} levels (last = {tail[-1].oscillation!r})")
    value = rows[-1].sample_mean if status == CONVERGED else None
    yield LimitEstimate(status=status, value=value, trace=tuple(rows), failure_detail=detail)


def _or_error(values: Callable[..., list[float]], *args) -> list[float] | DomainError:
    """values(*args), a level's values, or the DomainError it raised: what _descent takes."""
    try:
        return values(*args)
    except DomainError as err:
        return err


def _descend(level_values: Callable[[int], list[float]], b: FilterBaseChain,
             cfg: LimitConfig) -> LimitEstimate:
    """The descent over level_values(k), level k's finite values or a DomainError."""
    step = _descent(b, cfg).send
    step(None)
    levels = (step(_or_error(level_values, k)) for k in range(cfg.max_level + 1))
    return next(est for est in levels if est is not None)


def estimate_limit(g: Callable[[float], float], b: FilterBaseChain,
                   cfg: LimitConfig) -> LimitEstimate:
    """Estimate lim g along the filter generated by b.

    Precondition (not re-verified here; the built-in constructors guarantee
    it): b satisfies the base axioms up to cfg.max_level, which must not
    exceed b.max_level.
    """
    m, seed = cfg.samples_per_level, cfg.seed
    return _descend(lambda k: _finite_values(g, b.sample(k, m, seed)), b, cfg)


def format_trace_csv(est: LimitEstimate) -> str:
    """Render the per-level trace as CSV (one row per level)."""
    lines = ["k,scale,min,max,mean,osc"]
    for k, r in enumerate(est.trace):
        lines.append(f"{k},{r.scale!r},{r.sample_min!r},{r.sample_max!r},"
                     f"{r.sample_mean!r},{r.oscillation!r}")
    return "\n".join(lines) + "\n"
