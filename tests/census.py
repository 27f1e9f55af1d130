"""Correctness census: verdict counts of the rule checks over many sampling seeds.

Runs the rule draws of acceptance criteria 5-7 (200 linearity, 99 product and
99 quotient checks, from corpus.rule_draws, as tests/test_acceptance.py) under
LimitConfig(seed=s) for every s in 0..83, at check_tol 1e-5, and prints one
JSON object of verdict counts per rule and in total.

    PYTHONPATH=src python tests/census.py
    PYTHONPATH=src python tests/census.py --check tests/census_expected.json

With --check FILE it exits 1 when any violated or inconclusive count exceeds
the one committed in FILE. The name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import filterderiv as fd
from corpus import RULE_DRAWS, rule_draws

SEEDS = range(84)
CHECK_TOL = 1e-5
VERDICTS = (fd.HOLDS, fd.INCONCLUSIVE, fd.VIOLATED)
UNSAFE = (fd.INCONCLUSIVE, fd.VIOLATED)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="fail when a violated or inconclusive count exceeds FILE's")
    args = parser.parse_args(argv)
    counts = {"criteria_5_7_seed_scan": seed_scan()}
    print(json.dumps(counts, indent=2))
    if args.check is None:
        return 0
    expected = json.loads(Path(args.check).read_text())
    risen = [f"{scan} {rule} {verdict}: {got[verdict]} > {expected[scan][rule][verdict]}"
             for scan, rules in counts.items() for rule, got in rules.items()
             for verdict in UNSAFE if got[verdict] > expected[scan][rule][verdict]]
    print(*(risen or ["no violated or inconclusive count rose"]), sep="\n", file=sys.stderr)
    return 1 if risen else 0


if __name__ == "__main__":
    sys.exit(main())
