"""The four workloads: their inputs, drawn from a seed, and the check of
every output.

A workload is a list of operations, one round. The runner repeats whole
rounds, so every run attempts the same operations in the same proportions.
Each operation calls filterderiv through module attributes at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import filterderiv as fd
from reference import (KINK_TEXTS, OSCILLATING_TEXT, PIOVERN_CS, POSITIVE_TEXTS,
                       RULE_POINTS, SMOOTH_CASES, SMOOTH_TEXTS, TABLE,
                       LIMITS_AT_ZERO, rel_close)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
# Relative to the checkout, where the CLI children run, so that the path
# echoed in their stdout is the same on every machine.
CLI_TRACE = "bench/out/cli-trace.csv"

WORKLOADS = ("derive", "rules", "axioms", "cli")

DEFAULT_CONFIG_FAULT = (
    "default LimitConfig() misjudges a smooth function as no-limit "
    "(ROADMAP known defect: default settings misjudge smooth functions)")

CHECK_TOL = 1e-5
OUTPUT_KEYS = {"command", "params", "status", "value", "trace_file", "oracle", "notes"}


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` returns None when
    the output is right and a message otherwise. An operation with a
    ``known_fault`` that fails its check is counted as failed, not as wrong."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: str | None = None


def smooth_config(seed: int) -> fd.LimitConfig:
    """Tolerances above the rounding-noise floor of difference quotients."""
    return fd.LimitConfig(tol_osc=1e-4, tol_step=3e-7, no_limit_floor=1e-2, seed=seed)


def product_config(seed: int) -> fd.LimitConfig:
    return fd.LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e-2, seed=seed)


def config_flags(cfg: fd.LimitConfig) -> list[str]:
    """The CLI flags that select cfg; cfg keeps the other defaults."""
    return ["--tol-osc", repr(cfg.tol_osc), "--tol-step", repr(cfg.tol_step),
            "--seed", str(cfg.seed)]


def functions(texts):
    return {t: fd.as_function(fd.parse(t)) for t in texts}


def side_of_kind(kind: str) -> str:
    """The side of a base kind, in the reference table's terms."""
    return kind if kind in ("right", "left") else "both"


# ---------------------------------------------------------------- derive

def _expect_value(truth: float, rel: float = 1e-6):
    def check(res) -> str | None:
        if res.status != fd.CONVERGED:
            return f"status {res.status}, expected converged"
        if not rel_close(res.value, truth, rel):
            return f"value {res.value!r}, expected {truth!r} (rel {rel})"
        return None
    return check


def _expect_exact(truth: float):
    def check(res) -> str | None:
        if res.status != fd.CONVERGED or res.value != truth:
            return f"{res.status} {res.value!r}, expected exactly {truth!r}"
        return None
    return check


def _expect_no_limit(osc_range: tuple[float, float] | None):
    def check(res) -> str | None:
        if res.status != fd.NO_LIMIT:
            return f"status {res.status}, expected no-limit"
        if osc_range is not None:
            lo, hi = osc_range
            bad = [r.oscillation for r in res.estimate.trace
                   if not lo <= r.oscillation <= hi]
            if bad:
                return f"oscillation {bad[0]!r} outside [{lo}, {hi}]"
        return None
    return check


def _expect_near_zero(res) -> str | None:
    if res.status != fd.CONVERGED or abs(res.value) > 1e-9:
        return f"{res.status} {res.value!r}, expected converged within 1e-9 of 0"
    return None


def derive_ops(seed: int) -> list[Op]:
    smooth_cfg = smooth_config(seed)
    kink_cfg = fd.LimitConfig(seed=seed)
    fs = functions(SMOOTH_TEXTS + KINK_TEXTS + [OSCILLATING_TEXT])
    other_punctured = fd.punctured_base(0.7, 0.6)
    ops: list[Op] = []
    for text, points in SMOOTH_CASES:
        f, entry = fs[text], TABLE[text]
        for x0 in points:
            ops.append(Op("classical", f"classical {text} at {x0}",
                          lambda f=f, x0=x0: fd.classical_derivative(f, x0, smooth_cfg),
                          _expect_value(entry.df(x0))))
            ops.append(Op("punctured", f"{text} at {x0} on {other_punctured.id}",
                          lambda f=f, x0=x0: fd.derivative(f, x0, other_punctured, smooth_cfg),
                          _expect_value(entry.df(x0))))
    for b in (fd.right_base(1.0, 0.5), fd.left_base(0.9, 0.5), fd.punctured_base(1.0, 0.5)):
        for text in KINK_TEXTS:
            entry = TABLE[text]
            truth = entry.derivative(0.0, side_of_kind(b.params["kind"]))
            if truth is None:
                check = _expect_no_limit((1.9, 2.0) if text == "abs(x)" else None)
            elif text == "abs(x)":
                check = _expect_exact(truth)
            else:
                check = _expect_value(truth)
            ops.append(Op("kink", f"{text} at 0 on {b.id}",
                          lambda f=fs[text], b=b: fd.derivative(f, 0.0, b, kink_cfg),
                          check))
    osc = fs[OSCILLATING_TEXT]

    def extended(x: float) -> float:
        return 0.0 if x == 0.0 else osc(x)

    for c in PIOVERN_CS:
        b = fd.sequence_base(fd.SequenceSpec(kind="piovern", c=c))
        ops.append(Op("sequence", f"{OSCILLATING_TEXT} at 0 on {b.id}",
                      lambda b=b: fd.derivative(extended, 0.0, b, kink_cfg),
                      _expect_near_zero))
    # The library defaults, seed 0 whatever the workload seed: these inputs
    # stay fixed so that the known fault fails every time.
    default_cfg = fd.LimitConfig()
    for text, points in SMOOTH_CASES:
        f, entry = fs[text], TABLE[text]
        for x0 in points:
            ops.append(Op("default", f"classical {text} at {x0}, default config",
                          lambda f=f, x0=x0: fd.classical_derivative(f, x0, default_cfg),
                          _expect_value(entry.df(x0)), known_fault=DEFAULT_CONFIG_FAULT))
    return ops


# ---------------------------------------------------------------- rules

def _combined_derivative(rule: str, f: str, g: str, x0: float, side: str,
                         alpha: float = 1.0, beta: float = 1.0) -> float:
    ef, eg = TABLE[f], TABLE[g]
    df, dg = ef.derivative(x0, side), eg.derivative(x0, side)
    if rule == "linearity":
        return alpha * df + beta * dg
    f0, g0 = ef.f(x0), eg.f(x0)
    if rule == "product":
        return df * g0 + f0 * dg
    return (df * g0 - dg * f0) / (g0 * g0)


def within_check_tol(value, truth: float) -> str | None:
    """The rule checks' convention: |value - truth| <= tol * (1 + |truth|)."""
    if not isinstance(value, float):
        return f"value {value!r}, expected {truth!r}"
    err = abs(value - truth) / (1.0 + abs(truth))
    if not err <= CHECK_TOL:
        return f"value {value!r} vs reference {truth!r}: rel err {err:.2e}"
    return None


def _expect_holds(truth: float):
    def check(rep) -> str | None:
        if rep.verdict != fd.HOLDS:
            return f"verdict {rep.verdict}, expected holds ({rep.failure_detail})"
        return within_check_tol(rep.lhs.value, truth)
    return check


def _expect_inconclusive(rep) -> str | None:
    if rep.verdict != fd.INCONCLUSIVE:
        return f"verdict {rep.verdict}, expected inconclusive"
    return None


# The bases of the rule checks; the cli workload names them by spec.
RULE_BASES = [("punctured", 1.0, 0.5), ("punctured", 0.7, 0.6),
              ("right", 1.0, 0.5), ("left", 0.9, 0.5)]
TWO_SIDED, ONE_SIDED = (0, 1), (2, 3)

# Rule checks sample with this LimitConfig.seed whatever the workload seed:
# their verdicts flip with the sampling seed (see CHANGES.md), so only a
# fixed sampling seed lets every candidate below be checked beforehand.
# All of them hold at this seed.
RULE_CONFIG_SEED = 0
POOL_SEED = 20240501
CANDIDATES = 8
PICKS = 2   # per stratum and round: 140 checks, so that 14 lie beyond the p90


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    f: str
    g: str
    x0: float
    base: int
    alpha: float = 1.0
    beta: float = 1.0

    def truth(self) -> float:
        return _combined_derivative(self.rule, self.f, self.g, self.x0,
                                    side_of_kind(RULE_BASES[self.base][0]),
                                    self.alpha, self.beta)


def rule_pool() -> list[tuple[str, list[RuleInstance]]]:
    """Strata of rule instances, each with CANDIDATES draws from a fixed
    seed. A workload round takes PICKS candidates from every stratum, so each
    corpus function appears as often, on each kind of base, whatever the
    workload seed, and the cost of a round moves little from seed to seed.
    Kinked functions appear only at 0 on one-sided bases, where their
    filter derivatives exist."""
    rng = random.Random(POOL_SEED)
    strata = []
    for rule in ("linearity", "product", "quotient"):
        partners = POSITIVE_TEXTS if rule == "quotient" else SMOOTH_TEXTS
        groups = [(f, side, bases, partners, RULE_POINTS)
                  for f in SMOOTH_TEXTS
                  for side, bases in (("two-sided", TWO_SIDED), ("one-sided", ONE_SIDED))]
        if rule != "quotient":
            groups += [(f, "kink", ONE_SIDED, SMOOTH_TEXTS + KINK_TEXTS, [0.0])
                       for f in KINK_TEXTS]
        for f, side, bases, pool, points in groups:
            cands = []
            for _ in range(CANDIDATES):
                coef = ((rng.uniform(-10, 10), rng.uniform(-10, 10))
                        if rule == "linearity" else (1.0, 1.0))
                cands.append(RuleInstance(rule, f, rng.choice(pool), rng.choice(points),
                                          rng.choice(bases), *coef))
            strata.append((f"{rule} {f} {side}", cands))
    return strata


def rule_configs(seed: int) -> dict[str, fd.LimitConfig]:
    return {"linearity": smooth_config(seed), "product": product_config(seed),
            "quotient": product_config(seed)}


def rule_op(inst: RuleInstance, fs: dict, bases: list, cfgs: dict) -> Op:
    f, g, b, cfg = fs[inst.f], fs[inst.g], bases[inst.base], cfgs[inst.rule]
    if inst.rule == "linearity":
        run = lambda: fd.check_linearity(f, g, inst.alpha, inst.beta, inst.x0, b, cfg,
                                         CHECK_TOL)
    elif inst.rule == "product":
        run = lambda: fd.check_product_rule(f, g, inst.x0, b, cfg, CHECK_TOL)
    else:
        run = lambda: fd.check_quotient_rule(f, g, inst.x0, b, cfg, CHECK_TOL)
    return Op(inst.rule, f"{inst.rule} f={inst.f} g={inst.g} x0={inst.x0} on {b.id}",
              run, _expect_holds(inst.truth()))


def rule_bases() -> list:
    return [_geometric(*b) for b in RULE_BASES]


def rules_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    cfgs = rule_configs(RULE_CONFIG_SEED)
    fs = functions(SMOOTH_TEXTS + KINK_TEXTS + POSITIVE_TEXTS + ["x", "sign(x)"])
    bases = rule_bases()
    picks = [inst for _, cands in rule_pool() for inst in rng.sample(cands, PICKS)]
    # Pinned instances: both factors kinked, and a kinked denominator.
    picks += [RuleInstance("product", "abs(x)", "abs(x)", 0.0, 2),
              RuleInstance("quotient", "x", "1+abs(x)", 0.0, 2)]
    ops = [rule_op(inst, fs, bases, cfgs) for inst in picks]
    # sign is not F-continuous at 0 and has no derivative there: the rules
    # assert nothing, so the verdict must be inconclusive, never violated.
    ident, sign = fs["x"], fs["sign(x)"]
    for b in (bases[0], bases[2]):
        ops.append(Op("product", f"product f=x g=sign(x) x0=0 on {b.id}",
                      lambda b=b: fd.check_product_rule(ident, sign, 0.0, b,
                                                        cfgs["product"], CHECK_TOL),
                      _expect_inconclusive))
    ops.append(Op("linearity", f"linearity f=x g=sign(x) x0=0 on {bases[0].id}",
                  lambda: fd.check_linearity(ident, sign, 1.0, 1.0, 0.0, bases[0],
                                             cfgs["linearity"], CHECK_TOL),
                  _expect_inconclusive))
    return ops


# ---------------------------------------------------------------- axioms

GEOMETRIC_GRID = [(kind, delta0, ratio)
                  for kind in ("punctured", "right", "left")
                  for delta0 in (0.1, 1.0, 10.0)
                  for ratio in (0.25, 0.5, 0.9)]
SEQUENCE_SPECS = [("powinv", {"c": 1.0, "p": 1.0}), ("geo", {"c": 1.0, "q": 0.5}),
                  ("piovern", {"c": 1.0})]
AXIOM_LEVELS = 64


def _geometric(kind: str, delta0: float, ratio: float):
    maker = {"punctured": fd.punctured_base, "right": fd.right_base,
             "left": fd.left_base}[kind]
    return maker(delta0, ratio)


def _sequence(kind: str, params: dict):
    return fd.sequence_base(fd.SequenceSpec(kind=kind, **params))


def _sequence_term(kind: str, params: dict, n: int) -> float:
    c = params["c"]
    if kind == "powinv":
        return c * n ** -params["p"]
    if kind == "geo":
        return c * params["q"] ** n
    return c / (math.pi * n)


def _expect_pass(rep) -> str | None:
    if not rep.passed:
        return (f"valid base failed: empty {rep.empty_levels}, "
                f"nesting {rep.nesting_failures[:3]}")
    return None


def _expect_report(empty: tuple, nesting: tuple):
    def check(rep) -> str | None:
        if rep.empty_levels != empty or rep.nesting_failures != nesting:
            return (f"empty {rep.empty_levels}, nesting {rep.nesting_failures}; "
                    f"expected {empty}, {nesting}")
        return None
    return check


def _expect_witness(expected: int, contained: Callable[[int], bool]):
    """``contained(k)`` decides element(k) ⊆ S from the closed form of the
    base, without filterderiv's set algebra."""
    def check(k) -> str | None:
        if k != expected:
            return f"witness {k}, expected {expected}"
        if not (contained(k) and (k == 0 or not contained(k - 1))):
            return f"witness {k} is not the first contained level"
        return None
    return check


def _expect_member(expected: bool):
    def check(found) -> str | None:
        return None if found is expected else f"in_generated_filter {found}"
    return check


def axioms_ops(seed: int) -> list[Op]:
    """Each operation builds its base, as a caller checking one base does:
    a base shared across rounds would hand later rounds the canonical
    forms the first round cached."""
    rng = random.Random(seed)
    S = fd.SetDescriptor
    ops: list[Op] = []
    K = AXIOM_LEVELS
    for kind, delta0, ratio in GEOMETRIC_GRID:
        ops.append(Op("verify", f"verify {kind} delta0={delta0} ratio={ratio}",
                      lambda a=(kind, delta0, ratio): fd.verify_base_axioms(_geometric(*a), K),
                      _expect_pass))
    for kind, params in SEQUENCE_SPECS:
        ops.append(Op("verify", f"verify seq {kind}",
                      lambda a=(kind, params): fd.verify_base_axioms(_sequence(*a), K),
                      _expect_pass))
    broken_nest = [((-1.0, 1.0),), ((-0.25, 0.25),), ((-0.5, 0.5),)]
    ops.append(Op("verify", "verify broken nesting",
                  lambda: fd.verify_base_axioms(fd.chain_from_elements(
                      "broken-nest", [S(intervals=iv) for iv in broken_nest]), 2),
                  _expect_report((), ((1, 2),))))
    ops.append(Op("verify", "verify broken empty level",
                  lambda: fd.verify_base_axioms(fd.chain_from_elements(
                      "broken-empty", [S(intervals=((-1.0, 1.0),)),
                                       S(points=(0.5,), excluded=(0.5,))]), 1),
                  _expect_report((1,), ())))

    # Witness queries. S = (lo, hi) is an open interval whose ends sit
    # halfway, in log scale, between two consecutive levels, so float
    # rounding of the level scales cannot move the expected witness.
    for kind, delta0, ratio in GEOMETRIC_GRID:
        d = [delta0 * ratio ** k for k in range(K + 1)]
        for j in rng.sample(range(1, 41), 2):
            r = d[j] / math.sqrt(ratio)
            lo = -r if kind != "right" else -delta0
            hi = r if kind != "left" else delta0

            def contained(k, d=d, lo=lo, hi=hi, kind=kind):
                a = 0.0 if kind == "right" else -d[k]
                b = 0.0 if kind == "left" else d[k]
                return lo <= a and b <= hi

            ops.append(Op("witness", f"witness {kind} {delta0} {ratio} level {j}",
                          lambda a=(kind, delta0, ratio), lo=lo, hi=hi:
                              fd.generated_filter_witness(_geometric(*a),
                                                          S(intervals=((lo, hi),)), K),
                          _expect_witness(j, contained)))
        # A set away from 0 holds no base element: no witness at any level.
        far = delta0 * rng.uniform(0.1, 0.5)
        ops.append(Op("member", f"member {kind} {delta0} {ratio} ({far}, {2.0 * delta0})",
                      lambda a=(kind, delta0, ratio), far=far: fd.in_generated_filter(
                          _geometric(*a), S(intervals=((far, 2.0 * delta0),)), K),
                      _expect_member(False)))
    # A query on a sequence base canonicalises a ~300-point tail for every
    # level it searches, so its cost grows with the level: one query per
    # base, its level from a narrow range, keeps the cost of a round and
    # its slowest tenth (the p90) nearly the same whatever the seed.
    for kind, params in SEQUENCE_SPECS:
        j = rng.randint(16, 24)
        # element(k) = {h_n : n >= k+1} lies in (0, hi) iff h_(k+1) < hi.
        hi = math.sqrt(_sequence_term(kind, params, j) * _sequence_term(kind, params, j + 1))

        def contained(k, kind=kind, params=params, hi=hi):
            return _sequence_term(kind, params, k + 1) < hi

        ops.append(Op("witness", f"witness seq {kind} level {j}",
                      lambda a=(kind, params), hi=hi: fd.generated_filter_witness(
                          _sequence(*a), S(intervals=((0.0, hi),)), K),
                      _expect_witness(j, contained)))
    return ops


# ---------------------------------------------------------------- cli

@dataclass
class CliResult:
    code: int
    stdout: bytes
    trace: bytes | None


def cli_commands(seed: int) -> list[tuple[str, list[str], int, Callable[[dict], str | None]]]:
    """(kind, argv, expected exit code, check of the JSON output)."""
    rng = random.Random(seed)
    smooth_flags = config_flags(smooth_config(seed))
    punctured = "punctured:delta0=1,ratio=0.5"

    def pick():
        text, points = rng.choice(SMOOTH_CASES)
        return text, rng.choice(points)

    def value_near(truth: float, rel: float):
        def check(out: dict) -> str | None:
            v = out["value"]
            if not isinstance(v, float) or not rel_close(v, truth, rel):
                return f"value {v!r}, expected {truth!r} (rel {rel})"
            return None
        return check

    def with_oracle(truth: float):
        base_check = value_near(truth, 1e-6)

        def check(out: dict) -> str | None:
            msg = base_check(out)
            if msg:
                return msg
            oracle = out["oracle"] or {}
            sym = (oracle.get("symbolic") or {}).get("value")
            if not isinstance(sym, float) or not rel_close(sym, truth, 1e-12):
                return f"oracle symbolic {sym!r}, expected {truth!r}"
            for side in ("richardson_right", "richardson_left"):
                rv = (oracle.get(side) or {}).get("value")
                if not isinstance(rv, float) or not rel_close(rv, truth, 1e-6):
                    return f"oracle {side} {rv!r}, expected {truth!r}"
            return None
        return check

    def status_is(status: str):
        def check(out: dict) -> str | None:
            return None if out["status"] == status else f"status {out['status']}"
        return check

    cmds = []
    for flags in ([], ["--oracle"], ["--trace", CLI_TRACE]):
        text, x0 = pick()
        truth = TABLE[text].df(x0)
        check = with_oracle(truth) if "--oracle" in flags else value_near(truth, 1e-6)
        cmds.append(("derive", ["derive", "--expr", text, "--x0", repr(x0),
                                "--base", punctured, *flags, *smooth_flags], 0, check))
    limit_text = rng.choice(sorted(LIMITS_AT_ZERO))
    cmds.append(("limit", ["limit", "--expr", limit_text, "--base", punctured,
                           "--seed", str(seed)], 0,
                 value_near(LIMITS_AT_ZERO[limit_text], 1e-9)))
    text, a = pick()
    target = TABLE[text].f(a)
    cmds.append(("continuity", ["continuity", "--expr", text, "--a", repr(a),
                                "--base", punctured, "--seed", str(seed)], 0,
                 value_near(target, 1e-8)))
    pool = rule_pool()
    cfgs = rule_configs(RULE_CONFIG_SEED)
    for rule in ("linearity", "product", "quotient"):
        inst = rng.choice(rng.choice([c for name, c in pool if name.startswith(rule)]))
        kind, delta0, ratio = RULE_BASES[inst.base]
        coef = (["--alpha", repr(inst.alpha), "--beta", repr(inst.beta)]
                if rule == "linearity" else [])
        cmds.append(("check", ["check", rule, "--f", inst.f, "--g", inst.g,
                               "--x0", repr(inst.x0), *coef,
                               "--base", f"{kind}:delta0={delta0!r},ratio={ratio!r}",
                               *config_flags(cfgs[rule])],
                     0, lambda out, t=inst.truth(): within_check_tol(out["value"], t)))
    kind, delta0, ratio = rng.choice(GEOMETRIC_GRID)
    cmds.append(("verify-base", ["verify-base", "--base",
                                 f"{kind}:delta0={delta0!r},ratio={ratio!r}"],
                 0, status_is("pass")))
    cmds.append(("input-error", ["derive", "--expr", "sin(x", "--x0", "0",
                                 "--base", punctured], 4, status_is("input-error")))
    return cmds


def check_cli_output(code: int, stdout: bytes, expected_code: int,
                     check: Callable[[dict], str | None]) -> str | None:
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    text = stdout.decode()
    try:
        out = json.loads(text)
    except ValueError:
        return "stdout is not one JSON object"
    if not isinstance(out, dict) or set(out) != OUTPUT_KEYS:
        return f"stdout keys {sorted(out) if isinstance(out, dict) else type(out)}"
    return check(out)


def child_process(env: dict) -> Callable[[list[str]], tuple[int, bytes]]:
    """Runs one ``python -m filterderiv`` child and waits for it."""
    def run(argv: list[str]) -> tuple[int, bytes]:
        proc = subprocess.run([sys.executable, "-m", "filterderiv", *argv],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout
    return run


def cli_ops(seed: int, runner: Callable[[list[str]], tuple[int, bytes]]) -> list[Op]:
    """The CLI commands, each run by ``runner`` (exit code, stdout). Every
    command's stdout and trace CSV must repeat byte for byte on each later
    invocation."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = ROOT / CLI_TRACE
    first: dict[int, CliResult] = {}
    ops: list[Op] = []
    for i, (kind, argv, code, check) in enumerate(cli_commands(seed)):
        def run(argv=argv) -> CliResult:
            rc, stdout = runner(argv)
            trace = trace_path.read_bytes() if "--trace" in argv else None
            return CliResult(rc, stdout, trace)

        def full_check(res: CliResult, i=i, code=code, check=check) -> str | None:
            msg = check_cli_output(res.code, res.stdout, code, check)
            if msg:
                return msg
            seen = first.setdefault(i, res)
            if (seen.stdout, seen.trace) != (res.stdout, res.trace):
                return "output differs from the first invocation"
            return None

        ops.append(Op(kind, " ".join(argv), run, full_check))
    return ops


def build(workload: str, seed: int, env: dict | None = None) -> list[Op]:
    if workload == "derive":
        return derive_ops(seed)
    if workload == "rules":
        return rules_ops(seed)
    if workload == "axioms":
        return axioms_ops(seed)
    if workload == "cli":
        return cli_ops(seed, child_process(env or {}))
    raise ValueError(f"unknown workload {workload!r}")
