"""Correctness census: verdict counts over many sampling seeds and random trees.

Five scans, printed as one JSON object of counts:

- the rule draws of acceptance criteria 5-7 (200 linearity, 99 product and
  99 quotient checks, from corpus.rule_draws, as tests/test_acceptance.py)
  under LimitConfig(seed=s) for every s in 0..83, at check_tol 1e-5: verdict
  counts per rule and in total;
- classical_derivative on the first 400 and the first 2,000 random trees of
  one draw sequence (random_trees), under LimitConfig() and SMOOTH_CFG:
  counts per status, and of the converged values that are wrong, off the
  symbolic oracle by more than 1e-6 * max(1, |f'(x0)|) (counted among
  converged too);
- classical_derivative at the 50 points of corpus.SMOOTH_CASES under
  LimitConfig(): the same counts;
- derivative at each point of corpus.GRID_TEXTS x GRID_POINTS that has an
  oracle value, on each of GRID_BASES (large |x0|, where a sampled h can
  leave x0 unmoved), under LimitConfig(), SMOOTH_CFG and PQ_CFG: the same
  counts per config;
- classical_derivative under LimitConfig() on the first 400 random trees,
  and on the same trees with every x replaced by x*1e200 (where
  intermediates overflow), each on f, whose estimates read f's level loop,
  and on lambda t: f(t), which reads f point by point: the count of
  reports whose repr differs.

    PYTHONPATH=src python tests/census.py
    PYTHONPATH=src python tests/census.py --check tests/census_expected.json

With --check FILE it exits 1 when any violated, inconclusive, wrong,
no-limit or differing count exceeds the one committed in FILE. The name keeps it out of
pytest's collection.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import filterderiv as fd
from corpus import (GRID_BASES, GRID_POINTS, GRID_TEXTS, PQ_CFG, RULE_DRAWS, SMOOTH_CASES,
                    SMOOTH_CFG, rule_draws)

SEEDS = range(84)
CHECK_TOL = 1e-5
VERDICTS = (fd.HOLDS, fd.INCONCLUSIVE, fd.VIOLATED)
TREE_SETS = (400, 2000)
TREE_CONFIGS = {"default": fd.LimitConfig(), "smooth": SMOOTH_CFG}
GRID_CONFIGS = {**TREE_CONFIGS, "pq": PQ_CFG}
STATUSES = (fd.CONVERGED, fd.UNDECIDED, fd.DOMAIN_ERROR, fd.NO_LIMIT)
UNSAFE = (fd.INCONCLUSIVE, fd.VIOLATED, "wrong", fd.NO_LIMIT, "differ")


def seed_scan() -> dict:
    """Verdict counts per rule and in total over every draw and seed."""
    counts = {rule: dict.fromkeys(VERDICTS, 0)
              for rule in ("linearity", "product", "quotient", "total")}
    draws = [(rule, run) for rule in RULE_DRAWS for _, _, run in rule_draws(rule)]
    for seed in SEEDS:
        cfg = fd.LimitConfig(seed=seed)
        for rule, run in draws:
            verdict = run(cfg, CHECK_TOL).verdict
            counts[rule][verdict] += 1
            counts["total"][verdict] += 1
    return counts


def random_trees(n: int) -> list[tuple[fd.Expr, float, float]]:
    """The first n kept draws of one random.Random(7), as (tree, x0, f'(x0)).

    A draw is tree(0), then x0 uniform in [-2, 2]. tree(d) is a leaf when
    d > 0 and (d >= 4 or a coin of 0.25 says so): x with probability 0.6,
    else a constant of 0.5, 1, 2 or 3. Otherwise it is sin, cos or exp of
    tree(d+1) with probability 0.35, else +, -, * or / of two tree(d+1),
    the left drawn first. A draw is kept when x occurs in it, f and the
    oracle are defined at x0, and |f(x0)| and |f'(x0)| are below 1e6."""
    rng = random.Random(7)

    def tree(d: int) -> fd.Expr:
        if d > 0 and (d >= 4 or rng.random() < 0.25):
            if rng.random() < 0.6:
                return fd.Variable("x")
            return fd.Constant(rng.choice([0.5, 1.0, 2.0, 3.0]))
        if rng.random() < 0.35:
            return fd.Call(rng.choice(["sin", "cos", "exp"]), (tree(d + 1),))
        return fd.Binary(rng.choice(["add", "sub", "mul", "div"]), tree(d + 1), tree(d + 1))

    kept = []
    while len(kept) < n:
        e, x0 = tree(0), rng.uniform(-2, 2)
        if "x" not in fd.render(e):
            continue
        try:
            y, d = fd.as_function(e, "x")(x0), fd.symbolic_derivative_value(e, "x", x0).value
        except fd.DomainError:
            continue
        if abs(y) < 1e6 and abs(d) < 1e6:
            kept.append((e, x0, d))
    return kept


def tally(results, wants) -> dict:
    """Counts per status of the results, and of converged values off their
    want by more than 1e-6 * max(1, |want|)."""
    counts = dict.fromkeys((*STATUSES, "wrong"), 0)
    for res, want in zip(results, wants):
        counts[res.status] += 1
        counts["wrong"] += res.converged and abs(res.value - want) > 1e-6 * max(1.0, abs(want))
    return counts


def tree_scan() -> dict:
    """Status and wrong-value counts of classical_derivative per config and set size."""
    trees = random_trees(max(TREE_SETS))
    wants = [d for _, _, d in trees]
    counts = {}
    for name, cfg in TREE_CONFIGS.items():
        got = [fd.classical_derivative(fd.as_function(e, "x"), x0, cfg) for e, x0, _ in trees]
        for n in TREE_SETS:
            counts[f"{name}_{n}"] = tally(got[:n], wants)
    return counts


def corpus_scan() -> dict:
    """Status and wrong-value counts of classical_derivative on SMOOTH_CASES."""
    points = [(fd.parse(text), x0) for text, xs in SMOOTH_CASES for x0 in xs]
    got = [fd.classical_derivative(fd.as_function(e), x0, fd.LimitConfig()) for e, x0 in points]
    return {"default": tally(got, [fd.symbolic_derivative_value(e, "x", x0).value
                                   for e, x0 in points])}


def grid_scan() -> dict:
    """Status and wrong-value counts of derivative on the large-|x0| grid per config."""
    points = []
    for text in GRID_TEXTS:
        e = fd.parse(text)
        f = fd.as_function(e)
        for x0 in GRID_POINTS:
            try:
                want = fd.symbolic_derivative_value(e, "x", x0).value
            except fd.DomainError:  # f is undefined at x0
                continue
            points += [(f, x0, b, want) for b in GRID_BASES]
    wants = [want for *_, want in points]
    return {name: tally([fd.derivative(f, x0, b, cfg) for f, x0, b, _ in points], wants)
            for name, cfg in GRID_CONFIGS.items()}


def scaled(e: fd.Expr) -> fd.Expr:
    """e with every variable x replaced by x*1e200."""
    if isinstance(e, fd.Variable):
        return fd.Binary("mul", e, fd.Constant(1e200))
    if isinstance(e, fd.Unary):
        return fd.Unary(e.op, scaled(e.child))
    if isinstance(e, fd.Binary):
        return fd.Binary(e.op, scaled(e.left), scaled(e.right))
    if isinstance(e, fd.Call):
        return fd.Call(e.fn, tuple(map(scaled, e.args)))
    return e


def level_loop_scan() -> dict:
    """Reports of classical_derivative that differ between f's level loop
    and its point-by-point path, on the first 400 random trees as they are
    and scaled."""
    trees, cfg = random_trees(min(TREE_SETS)), fd.LimitConfig()
    counts = {}
    for name, build in (("default_400", lambda e: e), ("overflow_400", scaled)):
        differ = 0
        for e, x0, _ in trees:
            f = fd.as_function(build(e), "x")
            differ += (repr(fd.classical_derivative(f, x0, cfg))
                       != repr(fd.classical_derivative(lambda t: f(t), x0, cfg)))
        counts[name] = {"differ": differ}
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="fail when a violated, inconclusive, wrong, no-limit "
                        "or differing count exceeds FILE's")
    args = parser.parse_args(argv)
    counts = {"criteria_5_7_seed_scan": seed_scan(), "random_trees": tree_scan(),
              "smooth_corpus": corpus_scan(), "large_x0_grid": grid_scan(),
              "level_loops": level_loop_scan()}
    print(json.dumps(counts, indent=2))
    if args.check is None:
        return 0
    expected = json.loads(Path(args.check).read_text())
    risen = [f"{scan} {group} {key}: {got[key]} > {expected[scan][group][key]}"
             for scan, groups in counts.items() for group, got in groups.items()
             for key in UNSAFE if key in got and got[key] > expected[scan][group][key]]
    print(*(risen or ["no unsafe count rose"]), sep="\n", file=sys.stderr)
    return 1 if risen else 0


if __name__ == "__main__":
    sys.exit(main())
