"""Numerical limit of a function along a filter base chain.

The estimator samples each level of the chain, tracks the sampled
min/max/mean, and issues one of four verdicts:

- converged:   the last `stable_levels` levels all have oscillation
               (max - min) <= tol_osc and successive means agree to
               tol_step * (1 + |mean|); the value is the final level's mean.
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
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TraceRow:
    scale: float
    sample_min: float
    sample_max: float
    sample_mean: float
    oscillation: float


@dataclass(frozen=True)
class LimitEstimate:
    status: str
    value: float | None
    trace: tuple[TraceRow, ...]
    failure_detail: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _level_row(g: Callable[[float], float], b: FilterBaseChain, k: int,
               m: int, seed: int) -> TraceRow:
    pts = b.sample(k, m, seed)
    vals = []
    for x in pts:
        try:
            v = g(x)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            # plain callables signal domain problems the stdlib way
            raise DomainError(str(exc), argument=x) from exc
        if not math.isfinite(v):
            raise DomainError("function value is not a finite real", argument=x)
        vals.append(v)
    lo = min(vals)
    hi = max(vals)
    try:
        mean = math.fsum(vals) / len(vals)
    except OverflowError:  # the sum overflows, the mean does not: take it exactly
        from fractions import Fraction  # imported here: it slows every CLI start
        mean = float(sum(map(Fraction, vals)) / len(vals))
    return TraceRow(scale=b.scale(k), sample_min=lo, sample_max=hi,
                    sample_mean=mean, oscillation=hi - lo)


def estimate_limit(g: Callable[[float], float], b: FilterBaseChain,
                   cfg: LimitConfig) -> LimitEstimate:
    """Estimate lim g along the filter generated by b.

    Precondition (not re-verified here; the built-in constructors guarantee
    it): b satisfies the base axioms up to cfg.max_level, which must not
    exceed b.max_level.
    """
    if cfg.max_level > b.max_level:
        raise ValueError(
            f"cfg.max_level={cfg.max_level} exceeds chain max_level={b.max_level}")
    rows: list[TraceRow] = []
    s = cfg.stable_levels
    status, detail = UNDECIDED, "stability criterion not met within the level budget"
    for k in range(cfg.max_level + 1):
        try:
            rows.append(_level_row(g, b, k, cfg.samples_per_level, cfg.seed))
        except DomainError as err:
            status, detail = DOMAIN_ERROR, f"domain error at level {k}: {err}"
            break
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


def format_trace_csv(est: LimitEstimate) -> str:
    """Render the per-level trace as CSV (one row per level)."""
    lines = ["k,scale,min,max,mean,osc"]
    for k, r in enumerate(est.trace):
        lines.append(f"{k},{r.scale!r},{r.sample_min!r},{r.sample_max!r},"
                     f"{r.sample_mean!r},{r.oscillation!r}")
    return "\n".join(lines) + "\n"
