"""Benchmark command for filterderiv.

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one after another

Run it from the root of a checkout; it imports filterderiv from ``src/``
and installs nothing. Each workload runs in a fresh worker process
(``worker.py``). With ``--trace 0`` the last line of stdout is one JSON
object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics of the traced run. Without ``--workload`` it runs all
four workloads and prints their metrics, one workload per line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("derive", "rules", "axioms", "cli")
# Fresh processes timed for setup_s, after one untimed warm-up that leaves
# the bytecode cache written. Half run before the timed loop and half after,
# so that the median spans the whole run rather than one burst of host load.
SETUP_SAMPLES = 14


class BenchError(Exception):
    pass


def run_worker(*args: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        r = run_worker(*common, "--trace", timeout=170)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in r["metrics"].items()}
        print(f"spans written to {r['spans']}; self seconds per operation by layer:",
              file=sys.stderr)
        for w, layers in r["self_s_per_op"].items():
            print(f"  {w:7s} " + "  ".join(f"{layer}={s:.3g}" for layer, s in layers.items()),
                  file=sys.stderr)
    else:
        def setup_s() -> float:
            return run_worker(*common, "--setup-only", timeout=60)["setup_s"]

        setup_s()
        setups = [setup_s() for _ in range(SETUP_SAMPLES // 2)]
        r = run_worker(*common, timeout=170)
        setups += [r["setup_s"]] + [setup_s() for _ in range(SETUP_SAMPLES // 2)]
        now, quiet = r["reference_ms"]
        print(f"reference during the run: {now:.4f} ms; operation times are scaled "
              f"to its {quiet} ms on a quiet host", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": r["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": r["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": r["op_ms_p90"], "unit": "ms"},
            "peak_rss_mib": {"value": r["peak_rss_mib"], "unit": "MiB"},
        }
    for message in r["unexpected"]:
        print(f"{workload}: wrong output: {message}", file=sys.stderr)
    return {"correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all four when left out")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "filterderiv" / "__init__.py").is_file():
        print(f"no filterderiv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}",
          file=sys.stderr)
    try:
        if args.workload:
            print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        results = {}
        for w in WORKLOADS:
            results[w] = r = measure(w, args.seed, args.seconds, bool(args.trace))
            figures = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                for k, m in r["metrics"].items())
            print(f"{w}: attempted={r['attempted']} failed={r['failed']} "
                  f"correct={r['correct']}  {figures}")
        print(json.dumps(results))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
