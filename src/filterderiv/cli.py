"""Command-line front-end.

Every command prints one JSON object to stdout with the fixed top-level keys
command, params, status, value, trace_file, oracle, notes, and exits with

    0  converged / holds / continuous / pass
    2  no-limit / violated / not-continuous / fail
    3  undecided / inconclusive
    4  input or domain error

The params echo contains every resolved setting (defaults included), so a
run is reproducible bit-exactly from its own output. --trace FILE writes the
full per-level CSV regardless of status. The one exception to the JSON
output is --help, on its own or after a command: it prints argparse's usage
text and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .errors import DomainError, FilterDerivError, NonSmoothPointError
from .expr import as_function, free_vars, parse
from .fderiv import (HOLDS, INCONCLUSIVE, VIOLATED, check_linearity,
                     check_product_rule, check_quotient_rule, derivative,
                     f_continuity)
from .filterbase import (FilterBaseChain, SequenceSpec, left_base,
                         punctured_base, right_base, sequence_base,
                         verify_base_axioms)
from .flimit import (CONVERGED, DOMAIN_ERROR, NO_LIMIT, UNDECIDED,
                     LimitConfig, estimate_limit, format_trace_csv)
from .oracle import richardson_one_sided, symbolic_derivative_value

__all__ = ["main", "build_parser", "parse_base_spec"]

_EXIT_CODES = {
    CONVERGED: 0, HOLDS: 0, "continuous": 0, "pass": 0,
    NO_LIMIT: 2, VIOLATED: 2, "not-continuous": 2, "fail": 2,
    UNDECIDED: 3, INCONCLUSIVE: 3,
    DOMAIN_ERROR: 4, "input-error": 4,
}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_base_spec(spec: str, *, max_level: int) -> FilterBaseChain:
    """Build a chain from the mini-language, e.g.
    punctured:delta0=1,ratio=0.5 | right:... | left:... |
    seq:kind=powinv,c=1,p=1 | seq:kind=geo,c=1,q=0.5 | seq:kind=piovern,c=1
    """
    head, _, rest = spec.partition(":")
    opts: dict[str, str] = {}
    if rest:
        for chunk in rest.split(","):
            key, eq, val = chunk.partition("=")
            if not eq or not key:
                raise ValueError(f"malformed base option {chunk!r} in {spec!r}")
            if key in opts:
                raise ValueError(f"duplicate base option {key!r} in {spec!r}")
            opts[key] = val

    def take_float(key: str, default: float) -> float:
        try:
            return float(opts.pop(key, default))
        except ValueError:
            raise ValueError(f"base option {key!r} is not a number") from None

    if head in ("punctured", "right", "left"):
        delta0 = take_float("delta0", 1.0)
        ratio = take_float("ratio", 0.5)
        if opts:
            raise ValueError(f"unknown base options {sorted(opts)} in {spec!r}")
        maker = {"punctured": punctured_base, "right": right_base,
                 "left": left_base}[head]
        return maker(delta0, ratio, max_level=max_level)
    if head == "seq":
        kind = opts.pop("kind", None)
        if kind is None:
            raise ValueError(f"base spec {spec!r} is missing 'kind'")
        c = take_float("c", 1.0)
        p = take_float("p", 1.0) if kind == "powinv" else None
        q = take_float("q", 0.5) if kind == "geo" else None
        if opts:
            raise ValueError(f"unknown base options {sorted(opts)} in {spec!r}")
        return sequence_base(SequenceSpec(kind=kind, c=c, p=p, q=q),
                             max_level=max_level)
    raise ValueError(f"unknown base family {head!r} "
                     "(expected punctured, right, left, or seq)")


def _finite_float(text: str) -> float:
    """argparse type of every number flag: a finite float, so that the params
    echo stays strict JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite real number")
    return value


# The limit flags, one row each: (argparse dest and params echo key,
# LimitConfig field, type, metavar); --dest has dashes for underscores.
_LIMIT_FLAGS = (
    ("levels", "max_level", int, "K"),
    ("samples", "samples_per_level", int, "M"),
    ("tol_osc", "tol_osc", _finite_float, None),
    ("tol_step", "tol_step", _finite_float, None),
    ("stable", "stable_levels", int, "S"),
    ("seed", "seed", int, None),
)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """The base and the limit settings; their defaults are LimitConfig's."""
    d = LimitConfig()
    p.add_argument("--base", required=True, help="base spec, e.g. punctured:delta0=1,ratio=0.5")
    for dest, field, kind, metavar in _LIMIT_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), type=kind,
                       default=getattr(d, field), metavar=metavar)
    p.add_argument("--trace", metavar="FILE", help="write the per-level CSV trace here")


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="filterderiv",
                          description="derivatives and limits along filter bases")
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="derivative of an expression along a base")
    d.add_argument("--expr", required=True)
    d.add_argument("--x0", type=_finite_float, required=True)
    d.add_argument("--oracle", action="store_true",
                   help="append symbolic and Richardson reference values")
    _add_common_flags(d)

    li = sub.add_parser("limit", help="limit of an expression in h along a base")
    li.add_argument("--expr", required=True)
    _add_common_flags(li)

    c = sub.add_parser("continuity", help="F-continuity of an expression at a point")
    c.add_argument("--expr", required=True)
    c.add_argument("--a", type=_finite_float, required=True)
    _add_common_flags(c)

    ch = sub.add_parser("check", help="check a differentiation rule numerically")
    ch.add_argument("rule", choices=["linearity", "product", "quotient"])
    ch.add_argument("--f", required=True)
    ch.add_argument("--g", required=True)
    ch.add_argument("--alpha", type=_finite_float, default=1.0)
    ch.add_argument("--beta", type=_finite_float, default=1.0)
    ch.add_argument("--x0", type=_finite_float, required=True)
    ch.add_argument("--check-tol", type=_finite_float, default=1e-5)
    _add_common_flags(ch)

    v = sub.add_parser("verify-base", help="check the base axioms level by level")
    v.add_argument("--base", required=True)
    v.add_argument("--levels", type=int, default=48, metavar="K")
    return top


def _limit_setup(args: argparse.Namespace) -> tuple[LimitConfig, FilterBaseChain, dict]:
    """The config and base of a limit-type command, and their params echo."""
    cfg = LimitConfig(**{field: getattr(args, dest) for dest, field, _, _ in _LIMIT_FLAGS})
    base = parse_base_spec(args.base, max_level=cfg.max_level)
    echo = {
        "base": args.base,
        "base_id": base.id,
        "base_params": base.params,
        **{dest: getattr(cfg, field) for dest, field, _, _ in _LIMIT_FLAGS},
        "no_limit_floor": cfg.no_limit_floor,
    }
    return cfg, base, echo


def _oracle_payload(e, var: str, x0: float, f, base: FilterBaseChain) -> dict:
    out: dict = {"symbolic": None, "symbolic_note": None,
                 "richardson_right": None, "richardson_left": None}
    try:
        ov = symbolic_derivative_value(e, var, x0)
        out["symbolic"] = {"value": ov.value, "estimated_error": ov.estimated_error}
    except NonSmoothPointError as exc:
        out["symbolic_note"] = str(exc)
    except DomainError as exc:
        out["symbolic_note"] = f"domain error: {exc}"
    kind = base.params.get("kind")
    sides = {"right": ("right",), "left": ("left",)}.get(kind, ("right", "left"))
    for side in sides:
        try:
            rv = richardson_one_sided(f, x0, side)
            out[f"richardson_{side}"] = {"value": rv.value,
                                         "estimated_error": rv.estimated_error}
        except DomainError as exc:
            out[f"richardson_{side}"] = {"error": str(exc)}
    return out


def _function(e, flag: str, default_var: str | None = None):
    """(variable, compiled function) of the parsed expression of flag: without
    default_var it needs exactly one free variable; with it at most one, and
    a constant is a function of default_var."""
    names = sorted(free_vars(e))
    if default_var is None and len(names) != 1:
        raise ValueError(f"{flag} must have exactly one free variable, "
                         f"found {names or 'none'}")
    if len(names) > 1:
        raise ValueError(f"{flag} must have at most one free variable, "
                         f"found {names}")
    var = names[0] if names else default_var
    return var, as_function(e, var)


def _details(result) -> list[str]:
    """The failure detail of an estimate or a rule report, as a list of notes."""
    return [result.failure_detail] if result.failure_detail else []


# Each handler returns (params, status, value, estimate to trace or None,
# notes, oracle); main turns them into the payload.

def _cmd_derive(args: argparse.Namespace):
    e = parse(args.expr)
    var, f = _function(e, "--expr")
    cfg, base, echo = _limit_setup(args)
    res = derivative(f, args.x0, base, cfg)
    params = {"expr": args.expr, "var": var, "x0": args.x0, **echo,
              "oracle": args.oracle}
    oracle = _oracle_payload(e, var, args.x0, f, base) if args.oracle else None
    return params, res.status, res.value, res.estimate, _details(res.estimate), oracle


def _cmd_limit(args: argparse.Namespace):
    var, g = _function(parse(args.expr), "--expr", "h")
    cfg, base, echo = _limit_setup(args)
    est = estimate_limit(g, base, cfg)
    params = {"expr": args.expr, "var": var, **echo}
    return params, est.status, est.value, est, _details(est), None


def _cmd_continuity(args: argparse.Namespace):
    var, f = _function(parse(args.expr), "--expr", "x")
    cfg, base, echo = _limit_setup(args)
    report = f_continuity(f, args.a, base, cfg)
    status = report.limit.status  # undecided and domain-error pass through
    if status == CONVERGED:
        status = "continuous" if report.is_continuous else "not-continuous"
    elif status == NO_LIMIT:
        status = "not-continuous"
    notes = [f"target={report.target!r}", *_details(report.limit)]
    params = {"expr": args.expr, "var": var, "a": args.a, **echo}
    return params, status, report.limit.value, report.limit, notes, None


def _cmd_check(args: argparse.Namespace):
    fe = parse(args.f)
    ge = parse(args.g)
    _, f = _function(fe, "--f")
    _, g = _function(ge, "--g")
    cfg, base, echo = _limit_setup(args)
    if args.rule == "linearity":
        rep = check_linearity(f, g, args.alpha, args.beta, args.x0, base, cfg,
                              args.check_tol)
    elif args.rule == "product":
        rep = check_product_rule(f, g, args.x0, base, cfg, args.check_tol)
    else:
        rep = check_quotient_rule(f, g, args.x0, base, cfg, args.check_tol)
    notes = [f"rhs_value={rep.rhs_value!r}",
             f"abs_error={rep.abs_error!r}",
             f"rel_error={rep.rel_error!r}",
             f"f_prime={rep.f_prime.value!r} ({rep.f_prime.status})",
             f"g_prime={rep.g_prime.value!r} ({rep.g_prime.status})"]
    names = ("f", "g")[2 - len(rep.continuity_reports):]  # g's report is last
    notes += [f"f_continuity({name}, base={c.base_id}, target={c.target!r}): "
              f"{'continuous' if c.is_continuous else 'not continuous'}"
              for name, c in zip(names, rep.continuity_reports)]
    notes += [*_details(rep), *rep.notes]
    params = {"rule": args.rule, "f": args.f, "g": args.g,
              "alpha": args.alpha, "beta": args.beta, "x0": args.x0,
              "check_tol": args.check_tol, **echo}
    return params, rep.verdict, rep.lhs.value, rep.lhs.estimate, notes, None


def _cmd_verify_base(args: argparse.Namespace):
    base = parse_base_spec(args.base, max_level=args.levels)
    rep = verify_base_axioms(base, args.levels)
    notes = [f"axiom 1 violated: element({k}) is empty" for k in rep.empty_levels]
    notes += [f"axiom 2 violated: element({k}) is not contained in "
              f"element({j}) (pair (j,k)=({j},{k}))" for j, k in rep.nesting_failures]
    if not notes:
        notes = [f"axioms 1 and 2 verified for levels 0..{rep.levels_checked}"]
    params = {"base": args.base, "base_id": base.id,
              "base_params": base.params, "levels": args.levels}
    return params, "pass" if rep.passed else "fail", None, None, notes, None


_HANDLERS = {
    "derive": _cmd_derive,
    "limit": _cmd_limit,
    "continuity": _cmd_continuity,
    "check": _cmd_check,
    "verify-base": _cmd_verify_base,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _HANDLERS else "unknown"
    trace_file = None
    try:
        args = build_parser().parse_args(argv)
        params, status, value, est, notes, oracle = _HANDLERS[command](args)
        if est is not None and args.trace:
            with open(args.trace, "w", newline="") as fh:
                fh.write(format_trace_csv(est))
            trace_file = args.trace
    except (_UsageError, FilterDerivError, ValueError, OSError) as exc:
        params, status, value, notes, oracle = (
            {"argv": argv}, "input-error", None, [str(exc)], None)
    payload = {
        "command": command,
        "params": params,
        "status": status,
        "value": value,
        "trace_file": trace_file,
        "oracle": oracle,
        "notes": notes,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
