"""Steadiness check: run workloads repeatedly, each run with another seed,
and report the median and quartiles of every end-to-end metric.

    python3 bench/steady.py --runs 10                    # every workload
    python3 bench/steady.py --runs 5 --workload rules --first-seed 100
    python3 bench/steady.py --runs 0 --check-counts      # traced counts only

The spread of a metric is the distance between its first and third
quartile, as a share of its median; the bounds in BENCHMARK.json were set
from these spreads. With ``--check-counts`` it also makes two traced runs on
one seed and checks that every count repeats exactly. The report, with the
Python version, nproc, git SHA and each run's seed, goes to stdout and to
bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--check-counts", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "git_sha": git_sha(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append({"seed": seed, **bench(w, seed, seconds, 0)})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in runs[-1]["metrics"].items()),
                file=sys.stderr)
        if len(runs) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        entry = {"runs": runs, "failed_shares": shares,
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"{w}: failed share {shares}, correct {entry['correct']}")
        ok &= entry["correct"] and len(shares) == 1
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else (" over a third of the bound"
                                                       if s["spread"] < bound else " OVER BOUND")
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bound}){flag}")
        report["workloads"][w] = entry
    if args.check_counts:
        seed = args.first_seed
        first, second = (bench("derive", seed, seconds, 1)["metrics"] for _ in range(2))
        counts = sorted(k for k, m in first.items() if m["unit"] == "count")
        differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
        report["traced_counts"] = {k: first[k]["value"] for k in counts}
        report["traced_counts_differ"] = differ
        print(f"traced counts on seed {seed}: {len(counts)} counts, differing: {differ}")
        ok &= not differ
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
