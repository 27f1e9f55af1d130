"""One benchmark worker: a fresh process that sets up one workload and runs
it as a closed loop, one caller and one operation at a time.

    python3 bench/worker.py --workload derive --seed 1 --seconds 20
    python3 bench/worker.py --workload derive --seed 1 --setup-only
    python3 bench/worker.py --workload derive --seed 1 --seconds 20 --trace

It imports filterderiv from the checkout's ``src/`` and prints one JSON
object as its last line. ``run.py`` starts it and turns its figures into
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every run repeats each operation at least this many times; an
# operation's latency is the median of its repeats, each taken relative to
# the reference timed next to it (see hostspeed.py).
MIN_ROUNDS = 5


class Tally:
    """Counts operations and checks each output as it arrives."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[int, list[float]] = {}   # by id of the op
        self.unexpected: list[str] = []

    def record(self, op, result, error, latency) -> None:
        self.attempted += 1
        self.latencies.setdefault(id(op), []).append(latency)
        message = f"raised {error!r}" if error is not None else op.check(result)
        if message is None:
            return
        self.failed += 1
        if error is not None or op.known_fault is None:
            self.unexpected.append(f"{op.label}: {message}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "correct": not self.unexpected, "unexpected": self.unexpected[:5]}


def closed_loop(ops, seconds: float, tally: Tally, reference, reference_ms: float
                ) -> list[float]:
    """Repeat whole rounds of ``ops`` until ``seconds`` have passed and at
    least MIN_ROUNDS rounds are done. ``reference()`` runs between every
    two operations; each operation's latency is recorded as its time over
    the mean of the reference times on either side of it, times
    ``reference_ms``. Returns the reference times in ms."""
    start = time.perf_counter()
    before = reference()
    reference_ns = [before]
    for rounds in itertools.count(1):
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failing operation is a result to count
                result, error = None, exc
            op_ns = time.perf_counter_ns() - t0
            after = reference()
            reference_ns.append(after)
            tally.record(op, result, error, reference_ms * 2 * op_ns / (before + after))
            before = after
        if time.perf_counter() - start >= seconds and rounds >= MIN_ROUNDS:
            return [ns / 1e6 for ns in reference_ns]


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    kernel_before = hostspeed.kernel_ms_now()
    t0 = time.perf_counter()
    import filterderiv
    if Path(filterderiv.__file__).resolve().parent != SRC / "filterderiv":
        print(f"imported filterderiv from {filterderiv.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.trace:
        import tracing
    else:
        ops = workloads.build(args.workload, args.seed, env)
    setup_s = time.perf_counter() - t0
    # Set-up time at the reference speed, against the kernel timed on
    # either side of it.
    setup_s *= 2 * hostspeed.REF_MS / (kernel_before + hostspeed.kernel_ms_now())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    if args.trace:
        spans = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        metrics, self_s = tracing.layer_run(args.seed, args.seconds, tally.record, env, spans)
        out = {**tally.summary(), "metrics": metrics, "self_s_per_op": self_s,
               "spans": str(spans.relative_to(ROOT))}
    else:
        if args.workload == "cli":
            reference, scale = (lambda: hostspeed.spawn_ns(env)), hostspeed.SPAWN_MS
        else:
            reference, scale = hostspeed.kernel_ns, hostspeed.REF_MS
        reference_ms = closed_loop(ops, args.seconds, tally, reference, scale)
        op_ms = [statistics.median(v) for v in tally.latencies.values()]
        out = {**tally.summary(), "setup_s": setup_s,
               "reference_ms": [statistics.median(reference_ms), scale],
               "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
               "op_ms_p50": statistics.median(op_ms),
               "op_ms_p90": statistics.quantiles(op_ms, n=10)[-1],
               "peak_rss_mib": peak_rss_mib(with_children=args.workload == "cli")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
