"""Derivative of a real function with respect to a filter.

The derivative at x0 along the filter generated by a chain b is the limit of
the difference quotient h -> (f(x0+h) - f(x0)) / h along b. Choosing the
punctured two-sided base recovers the classical derivative; the one-sided
bases recover right and left derivatives.

The linearity, product and quotient rules are checked by one skeleton,
`_check_rule`, which runs f', g' and c' (c the rule's combination of f and
g) in lockstep, so f and g are evaluated once per sampled level for all
three; for f and g from as_function a level is one pass of a loop from
`_level_form`, which makes every level loop, else f and g are called per point.
Each rule supplies how it combines the values of f and g and its right-hand
side in f'(x0) and g'(x0). A product check reports f's and g's F-continuity,
a quotient check g's, which a converged derivative implies where the chain
gets near 0 (see _check_rule). A check reports holds / violated /
inconclusive; a failed hypothesis (an f' or g' that does not converge, or a
g not F-continuous) gives inconclusive, never violated.

The quotient rule is computed with numerator f'(x0)*g(x0) - g'(x0)*f(x0)
over g(x0)^2. Statements of this rule sometimes circulate with a misprinted
second term g'(x0)*g(x0); that form is dimensionally inconsistent with the
rule's derivation and is not used (see QUOTIENT_RULE_NOTE).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from functools import lru_cache

from ._record import record
from .errors import BaseNotPuncturedError, DomainError, _real
from .expr import Binary, Variable, _level_loop
from .filterbase import FilterBaseChain, punctured_base
from .flimit import (CONVERGED, NO_LIMIT, LimitConfig, LimitEstimate,
                     _descend, _finite_values, _require_depth, estimate_limit)

__all__ = [
    "DerivativeResult", "FContinuityReport", "RuleCheckReport",
    "difference_quotient", "derivative", "classical_derivative",
    "f_continuity", "check_linearity", "check_product_rule",
    "check_quotient_rule", "HOLDS", "VIOLATED", "INCONCLUSIVE",
    "QUOTIENT_RULE_NOTE",
]

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

QUOTIENT_RULE_NOTE = (
    "quotient rule evaluated as (f'(x0)*g(x0) - g'(x0)*f(x0)) / g(x0)^2; "
    "the misprinted variant with second numerator term g'(x0)*g(x0) is "
    "dimensionally inconsistent with the rule's derivation and is not used")


@record
class DerivativeResult:
    x0: float
    base_id: str
    estimate: LimitEstimate
    cfg: LimitConfig

    @property
    def status(self) -> str:
        return self.estimate.status

    @property
    def value(self) -> float | None:
        return self.estimate.value

    @property
    def converged(self) -> bool:
        return self.estimate.converged


@record
class FContinuityReport:
    """Is lim f(a+h) along the base equal to f(a)? limit is None where a
    rule check took the answer, True, from f's converged derivative."""

    point: float
    base_id: str
    limit: LimitEstimate | None
    target: float
    is_continuous: bool


@record
class RuleCheckReport:
    """Two-sided numerical check of one differentiation rule.

    rel_error is abs_error / (1 + |rhs_value|), the same relative convention
    the limit estimator uses for its step criterion. verdict is holds only
    when every ingredient converged and rel_error <= the check tolerance;
    a failed hypothesis gives inconclusive (the rule asserts nothing then).
    f_prime and g_prime are the ingredient estimates of f'(x0) and g'(x0);
    continuity_reports are f's and g's (product) or g's (quotient).
    """

    rule: str
    lhs: DerivativeResult
    rhs_value: float | None
    f_prime: DerivativeResult
    g_prime: DerivativeResult
    continuity_reports: tuple[FContinuityReport, ...]
    verdict: str
    abs_error: float | None
    rel_error: float | None
    failure_detail: str | None = None
    notes: tuple[str, ...] = ()


def difference_quotient(f: Callable[[float], float], x0: float) -> Callable[[float], float]:
    """The map h -> (f(x0+h) - f(x0)) / h. Undefined at h = 0. f(x0) is
    read once, on first use, through flimit._finite_values, so a failure there names x0;
    an f(x0+h) that is not a float passes errors._real, as there.

    For an f from as_function, the map also has finite_values(hs), which
    flimit._finite_values tries first: the quotients at all of hs from f's
    level form (_level_form(f), found when the map is made), one generated
    loop, sharing the map's f(x0). It raises where any quotient is undefined
    or not finite, but not always the error the map raises there.

    The map's at_x0 is (x0, the one-slot list that holds f(x0) once read),
    from which flimit.estimate_limit takes its stop and the rounding radius."""
    cache: list[float] = []

    def quotient(h: float) -> float:
        if h == 0.0:
            raise DomainError("difference quotient is undefined at h = 0",
                              argument=0.0)
        if not cache:
            cache.append(_finite_values(f, (x0,))[0])
        if type(v := f(x0 + h)) is not float:  # the gate, but free for a float
            v = _real(v, lambda **_: DomainError("function value is not a finite real",
                                                 argument=h))
        return (v - cache[0]) / h

    quotient.at_x0 = (x0, cache)
    if hasattr(f, "expr"):
        form = _level_form(f)

        def finite_values(hs: Sequence[float]) -> list[float]:
            if not cache:
                cache.append(_finite_values(f, (x0,))[0])
            return form(x0, cache[0], hs)
        quotient.finite_values = finite_values
    return quotient


def _require_punctured(b: FilterBaseChain) -> None:
    if not b.punctured_at_zero:
        raise BaseNotPuncturedError(
            f"chain {b.id!r} is not punctured at zero; its elements may "
            "contain h = 0 where the difference quotient is undefined")


def derivative(f: Callable[[float], float], x0: float, b: FilterBaseChain,
               cfg: LimitConfig) -> DerivativeResult:
    """Limit of the difference quotient of f at x0 along b. The chain must
    be flagged punctured_at_zero, since h is a divisor. The estimate ends
    undecided where its resolution is exhausted (see flimit): at the
    quotient's rounding floor, or at the first level that can sample an h
    with x0 + h == x0."""
    _require_punctured(b)
    est = estimate_limit(difference_quotient(f, x0), b, cfg)
    return DerivativeResult(x0=x0, base_id=b.id, estimate=est, cfg=cfg)


def classical_derivative(f: Callable[[float], float], x0: float,
                         cfg: LimitConfig) -> DerivativeResult:
    """Derivative along the punctured two-sided base punctured_base(1.0, 0.5),
    which recovers the classical derivative whenever it exists."""
    b = punctured_base(1.0, 0.5, max_level=cfg.max_level)
    return derivative(f, x0, b, cfg)


def f_continuity(f: Callable[[float], float], a: float, b: FilterBaseChain,
                 cfg: LimitConfig) -> FContinuityReport:
    """Check lim f(a+h) along b against f(a). f(a) must be a finite real: a
    DomainError is raised otherwise, before any sampled point is evaluated.
    The shifted function's at_x0 is (a, None): the limit stops undecided at
    the first level that can sample an h with a + h == a, and has no radius.
    It must come within tol_step * (1 + |f(a)|) of f(a), plus a slack: a
    level's mean is still off by about f'(a) * mean(h), so where the scales
    shrink by rho = scale(k) / scale(k-1) < 1 the slack is |last step| *
    (1 + rho) / (1 - rho), twice the steps to come (rho / (1 - rho) times the
    last) and the step once more for its sampling noise. Other chains (a
    sequence base's scale is its tail's start index) have no slack."""
    target = _finite_values(f, (a,))[0]
    shifted = lambda h: f(a + h)
    shifted.at_x0 = (a, None)
    est = estimate_limit(shifted, b, cfg)
    ok = est.converged
    if ok:
        slack, t = 0.0, est.trace
        if len(t) > 1 and 0.0 < (rho := t[-1].scale / t[-2].scale) < 1.0:
            slack = abs(t[-1].sample_mean - t[-2].sample_mean) * (1.0 + rho) / (1.0 - rho)
        ok = abs(est.value - target) <= cfg.tol_step * (1.0 + abs(target)) + slack
    return FContinuityReport(point=a, base_id=b.id, limit=est, target=target,
                             is_continuous=ok)


# Rule loops kept, each with its f and g: compiling one takes up to 0.5 ms,
# half of a typical check, so the estimates on one (f, g, rule) share it.
_LEVEL_LOOPS = 256

# linearity's alpha and beta: arguments of its level loop, not constants in
# it, so that one loop serves every pair of coefficients (-0.0 included)
_ALPHA, _BETA = Variable("alpha"), Variable("beta")


def _level_form(f, g=None, rule: str | None = None) -> Callable:
    """The level loop of functions from as_function: with g None, f's level
    form quotients(x0, y0, hs), of f's difference quotients, kept on f as
    f._quotients, so that every map of f shares it and it lives as long as
    f; else the loop of a check of rule on f and g (_rule_loop). Each loop
    tests a node only where a later operation could hide a value that is
    not finite, and each quotient list once, so it raises where any point
    or quotient fails, but not always the error the point raises."""
    if g is not None:
        return _rule_loop(f, g, rule)
    form = getattr(f, "_quotients", None)
    if form is None:
        form = f._quotients = _level_loop("quotients", [f.expr])
    return form


@lru_cache(maxsize=_LEVEL_LOOPS)
def _rule_loop(f, g, rule: str) -> Callable:
    """The loop of a check of rule on f and g, of the difference quotients
    of f, g and c, in that order. c's tree is built from f's and g's nodes
    in the operations of the check's combine, alpha*f + beta*g, f*g or f/g,
    so each node is computed once per point and c's values are combine's,
    bit for bit."""
    fe, ge = f.expr, g.expr
    if rule == "linearity":
        params = (_ALPHA, _BETA)
        c = Binary("add", Binary("mul", _ALPHA, fe), Binary("mul", _BETA, ge))
    else:
        c, params = Binary("mul" if rule == "product" else "div", fe, ge), ()
    return _level_loop("rule", [fe, ge, c], params)


def _check_rule(rule: str, f: Callable[[float], float], g: Callable[[float], float],
                x0: float, b: FilterBaseChain, cfg: LimitConfig, check_tol: float,
                combine: Callable[[float, float], float], rhs_of: Callable[[float, float], float],
                coefficients: tuple[float, ...] = (), notes: tuple[str, ...] = (),
                at_x0: tuple[float, float] | None = None,
                c: Callable[[float], float] | None = None) -> RuleCheckReport:
    """The check shared by the three rules: estimate f', g' and the
    derivative of c, and compare it with rhs_of(f', g'). combine(p, q) is
    c's value where f's is p and g's is q; c is x -> combine(f(x), g(x))
    unless given; coefficients are linearity's alpha and beta;
    at_x0 is (f(x0), g(x0)) if the caller has them. f(x0), g(x0), c(x0)
    and the values of f and g that c combines pass errors._real, as in
    derivative. The three estimates run in lockstep in flimit._descend,
    which samples each level once and stops each, as in derivative, at its
    rounding floor and at the first level that can leave x0 unmoved. Where
    f and g come from as_function and f(x0), g(x0) and c(x0) are all
    defined, a level's first read runs _level_form's loop, which computes the three
    quotient lists in one pass. Otherwise, or where that raises, level_values
    evaluates f and g on the level at its first read, and an estimate redoes
    a level where that raises or sums to a non-finite value point by point,
    as derivative would; of several that raise, the first of f', g' and c'
    is raised.

    The report carries the F-continuity of f and g (product) or g (quotient):
    F(x0+h) - F(x0) = h * q(h), so a converged F' implies it (limit None) on
    a constructor's geometric chain, whose |h| on level cfg.max_level is below
    reach = its scale, if reach * |F'(x0)| <= tol_step * (1 + |F(x0)|).
    Otherwise (a sequence base's h need not be near 0 there) f_continuity
    estimates it after the lockstep. A non-finite rhs is a failed computation."""
    _require_punctured(b)
    check_tol = _real(check_tol, lambda **_: ValueError("check_tol must be a finite real >= 0"))
    if check_tol < 0.0:
        raise ValueError("check_tol must be a finite real >= 0")
    _require_depth(b, cfg)  # before f(x0) or g(x0) is read
    # the gate's ValueError becomes _finite_values' DomainError on a level redone point by point
    real = lambda v: _real(v, lambda **_: ValueError("function value is not a finite real"))
    fns = {"f": f, "g": g, "c": c or (lambda x: combine(real(f(x)), real(g(x))))}
    y0: dict = dict(zip("fg", at_x0 or ()))  # f, g and c at x0, each where it is a finite real
    for name in "fgc":
        try:
            if name not in y0:
                y0[name] = real(combine(y0["f"], y0["g"]) if name == "c" else fns[name](x0))
        except Exception:  # its estimate redoes every level point by point
            pass
    loop = None
    if len(y0) == 3 and hasattr(f, "expr") and hasattr(g, "expr"):
        loop = _level_form(f, g, rule)

    def level_values(hs, row, i):  # the quotients of "fgc"[i] on the level sampled at hs
        if loop is not None:
            if "loop" not in row:  # the level's first read
                try:
                    row["loop"] = loop(x0, y0["f"], y0["g"], y0["c"], *coefficients, hs)
                except Exception:  # the level takes the row path
                    row["loop"] = None
            if row["loop"] is not None:
                return row["loop"][i]
        name = "fgc"[i]
        for key in "fgc" if name == "c" else name:  # rows at first read; c's needs f's, g's
            if key not in row:
                try:
                    row[key] = (list(map(combine, row["f"], row["g"])) if key == "c"
                                else list(map(fns[key], [x0 + h for h in hs])))
                except Exception:  # None sends each estimate that reads it to its closure
                    row[key] = None
        try:
            at = y0[name]
            vals = [(v - at) / h for v, h in zip(row[name], hs)]
            if not math.isfinite(sum(vals)):  # a value, or the sum, is not finite
                raise OverflowError
            return vals
        except Exception:  # point by point, on a plain view of fn: no level form reruns it
            fn = fns[name]
            return _finite_values(difference_quotient(lambda x: fn(x), x0), hs)

    slots = [[y0[name]] if name in y0 else None for name in "fgc"]
    ests = _descend(level_values, 3, b, cfg, x0, slots)
    df, dg, lhs = (DerivativeResult(x0=x0, base_id=b.id, estimate=est, cfg=cfg) for est in ests)
    reported = {"product": "fg", "quotient": "g"}.get(rule, "")
    reach = b.scale(cfg.max_level) if reported and b._nested and b.inner_ratio else math.inf
    continuity = tuple(
        FContinuityReport(point=x0, base_id=b.id, limit=None, target=y0[name], is_continuous=True)
        if d.converged and reach * abs(d.value) <= cfg.tol_step * (1.0 + abs(y0[name]))
        else f_continuity(fns[name], x0, b, cfg)
        for name, d in (("f", df), ("g", dg)) if name in reported)
    failures = [f"derivative of {name} did not converge (status: {d.status})"
                for name, d in (("f", df), ("g", dg)) if not d.converged]
    if continuity and not continuity[-1].is_continuous:
        failures.append("g is not F-continuous at x0 along the base")
    rhs = rhs_of(df.value, dg.value) if df.converged and dg.converged else None
    if rhs is not None and not math.isfinite(rhs):  # it overflowed, e.g. in g(x0)^2
        failures.append(f"right-hand side is not a finite real (rhs={rhs!r})")
        rhs = None
    abs_err = rel_err = None
    if failures:
        verdict, detail = INCONCLUSIVE, "; ".join(failures)
    elif lhs.status == CONVERGED:
        abs_err = abs(lhs.value - rhs)
        rel_err = abs_err / (1.0 + abs(rhs))
        verdict = HOLDS if rel_err <= check_tol else VIOLATED
        detail = None if verdict == HOLDS else (
            f"sides disagree: lhs={lhs.value!r}, rhs={rhs!r}")
    elif lhs.status == NO_LIMIT:
        # Hypotheses hold numerically yet the combined function has no
        # derivative along the base: the rule's conclusion itself failed.
        verdict = VIOLATED
        detail = ("combined function has no derivative along the base "
                  "although every hypothesis held")
    else:  # undecided or domain-error: the detail says why
        verdict = INCONCLUSIVE
        detail = f"combined-function estimate was {lhs.status}: {lhs.estimate.failure_detail}"
    return RuleCheckReport(
        rule=rule, lhs=lhs, rhs_value=rhs, f_prime=df, g_prime=dg,
        continuity_reports=continuity, verdict=verdict, abs_error=abs_err,
        rel_error=rel_err, failure_detail=detail, notes=notes)


def check_linearity(f: Callable[[float], float], g: Callable[[float], float],
                    alpha: float, beta: float, x0: float, b: FilterBaseChain,
                    cfg: LimitConfig, check_tol: float) -> RuleCheckReport:
    """Check d(alpha*f + beta*g) = alpha*df + beta*dg along b at x0; alpha and
    beta must be finite reals and check_tol a finite real >= 0 (ValueError
    otherwise, before any sampled point is evaluated). The rule needs no
    value at x0 beyond the quotients', so, as in derivative, f or g
    undefined at x0 is that ingredient's domain-error estimate and an
    inconclusive verdict, not the DomainError the product and quotient
    checks raise."""
    alpha, beta = (_real(c, lambda **_: ValueError("alpha and beta must be finite reals"))
                   for c in (alpha, beta))
    return _check_rule("linearity", f, g, x0, b, cfg, check_tol,
                       lambda p, q: alpha * p + beta * q, lambda df, dg: alpha * df + beta * dg,
                       (alpha, beta))


def check_product_rule(f: Callable[[float], float], g: Callable[[float], float],
                       x0: float, b: FilterBaseChain, cfg: LimitConfig,
                       check_tol: float) -> RuleCheckReport:
    """Check d(f*g) = df*g(x0) + dg*f(x0) along b at x0.

    The rule needs F-continuity only of g (adding and subtracting
    f(x0)*g(x0+h) in the derivation uses nothing more); the verdict enforces
    just that, but the report carries continuity results for both factors.
    check_tol must be a finite real >= 0 (ValueError otherwise).
    """
    f0, g0 = _finite_values(f, (x0,))[0], _finite_values(g, (x0,))[0]
    return _check_rule("product", f, g, x0, b, cfg, check_tol,
                       operator.mul, lambda df, dg: df * g0 + dg * f0, at_x0=(f0, g0))


def check_quotient_rule(f: Callable[[float], float], g: Callable[[float], float],
                        x0: float, b: FilterBaseChain, cfg: LimitConfig,
                        check_tol: float) -> RuleCheckReport:
    """Check d(f/g) = (df*g(x0) - dg*f(x0)) / g(x0)^2 along b at x0.

    Requires g(x0) != 0, a g(x0)^2 that does not underflow to 0 and a
    check_tol that is a finite real >= 0 (ValueError otherwise). A sampled h
    with g(x0+h) = 0 aborts the combined estimate with a domain error.
    """
    g0 = _finite_values(g, (x0,))[0]
    if g0 == 0.0:
        raise ValueError(f"quotient rule requires g(x0) != 0, got g({x0!r}) = 0")
    if g0 * g0 == 0.0:
        raise ValueError(f"quotient rule requires g(x0)^2 != 0, but g({x0!r}) = "
                         f"{g0!r} squares to 0")
    f0 = _finite_values(f, (x0,))[0]

    def quot(x: float) -> float:  # f/g reads g first: it is undefined where g vanishes
        gx = g(x)
        if gx == 0.0:
            raise DomainError("g vanishes at a sampled point", argument=x)
        return f(x) / gx

    return _check_rule("quotient", f, g, x0, b, cfg, check_tol,
                       operator.truediv, lambda df, dg: (df * g0 - dg * f0) / (g0 * g0),
                       notes=(QUOTIENT_RULE_NOTE,), at_x0=(f0, g0), c=quot)
