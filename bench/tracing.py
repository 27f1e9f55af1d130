"""The traced run: per-layer counts and times.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing inside filterderiv changes. For the
length of a traced round the run rebinds those functions, in every
filterderiv module that imports them, to wrappers that time and count the
call. Bases built by the wrapped constructors come back wrapped too, and
the functions handed to the library are wrapped callables.

A span is (id, parent id, name, start ns, end ns). Evaluations of f and
``SetDescriptor.issubset`` calls happen thousands of times per operation,
so they are counted and timed into their parent span instead of getting
spans of their own. A layer's self time is its spans' time minus the time
of the spans and counted calls nested in them.

Each layer metric is defined on the workload that exercises the layer (see
README.md), so the traced run runs one round of every workload's
operations, in-process (CLI commands through ``cli.main``), whatever
``--workload`` names. It times an untraced round next to each traced one
and reports the difference as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import filterderiv as fd
import filterderiv.cli
import filterderiv.expr
import filterderiv.fderiv
import filterderiv.filterbase
import filterderiv.flimit
import filterderiv.oracle

import workloads
from reference import (KINK_TEXTS, LIMITS_AT_ZERO, OSCILLATING_TEXT,
                       POSITIVE_TEXTS, SMOOTH_CASES, SMOOTH_TEXTS)

MODULES = [fd, filterderiv.expr, filterderiv.filterbase, filterderiv.flimit,
           filterderiv.fderiv, filterderiv.oracle, filterderiv.cli]

# The public functions timed at each layer boundary.
LAYER_FUNCTIONS = {
    "expr": (filterderiv.expr, ["parse", "as_function"]),
    "filterbase": (filterderiv.filterbase,
                   ["punctured_base", "right_base", "left_base", "sequence_base",
                    "chain_from_elements", "verify_base_axioms",
                    "generated_filter_witness", "in_generated_filter"]),
    "flimit": (filterderiv.flimit, ["estimate_limit", "format_trace_csv"]),
    "fderiv": (filterderiv.fderiv,
               ["derivative", "classical_derivative", "f_continuity",
                "check_linearity", "check_product_rule", "check_quotient_rule"]),
    "oracle": (filterderiv.oracle, ["symbolic_derivative_value", "richardson_one_sided"]),
    "cli": (filterderiv.cli, ["main", "parse_base_spec"]),
}
CONSTRUCTORS = {"punctured_base", "right_base", "left_base", "sequence_base",
                "chain_from_elements"}


class Stats:
    """Counts and times of one workload's traced operations."""

    def __init__(self):
        self.ops = 0
        self.counts: Counter = Counter()
        self.total_ns: Counter = Counter()   # by call name, children included
        self.self_ns: Counter = Counter()    # by layer, children excluded


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list[int]] = []   # [span id, ns covered by children]
        self._next_id = 0
        self.stats: dict[str, Stats] = {}
        self.current = self.begin("setup")

    def begin(self, group: str) -> Stats:
        self.current = self.stats.setdefault(group, Stats())
        return self.current

    def call(self, layer: str, name: str, spanned: bool, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            dur = end - start
            st = self.current
            st.counts[name] += 1
            st.total_ns[name] += dur
            st.self_ns[layer] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if spanned:
                self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))

    def wrap(self, layer: str, name: str, fn, spanned: bool = True):
        def traced(*args, **kwargs):
            return self.call(layer, name, spanned, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


class TracedChain:
    """A base whose sample and element calls are spans; everything else is
    the wrapped chain's."""

    def __init__(self, chain, tracer: Tracer):
        self._chain = chain
        self.sample = tracer.wrap("filterbase", "filterbase.sample", chain.sample)
        self.element = tracer.wrap("filterbase", "filterbase.element", chain.element)

    def __getattr__(self, name):
        return getattr(self._chain, name)


class Installation:
    """Rebinds every layer function, in every module that holds it, to its
    traced wrapper; ``remove`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.wrappers = {}
        for layer, (module, names) in LAYER_FUNCTIONS.items():
            for name in names:
                self.wrappers[id(getattr(module, name))] = (
                    getattr(module, name), self._wrapper(layer, name, getattr(module, name)))
        issubset = fd.SetDescriptor.issubset
        self.issubset = (issubset, tracer.wrap("filterbase", "filterbase.issubset",
                                               issubset, spanned=False))
        self.bound: list[tuple[object, str, object]] = []

    def _wrapper(self, layer: str, name: str, fn):
        tracer = self.tracer
        key = f"{layer}.{name}"
        if name in CONSTRUCTORS:
            def make(*args, **kwargs):
                return TracedChain(tracer.call(layer, key, True, fn, args, kwargs), tracer)
            return make
        if name == "as_function":
            def counted(*args, **kwargs):
                f = tracer.call(layer, key, True, fn, args, kwargs)
                return tracer.wrap("expr", "expr.eval", f, spanned=False)
            return counted
        if name == "estimate_limit":
            def estimate(*args, **kwargs):
                est = tracer.call(layer, key, True, fn, args, kwargs)
                tracer.current.counts["flimit.levels"] += len(est.trace)
                return est
            return estimate
        return tracer.wrap(layer, key, fn)

    def apply(self) -> None:
        for module in MODULES:
            for name, value in list(vars(module).items()):
                found = self.wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, name, found[1])
                    self.bound.append((module, name, value))
        fd.SetDescriptor.issubset = self.issubset[1]

    def remove(self) -> None:
        for module, name, value in self.bound:
            setattr(module, name, value)
        self.bound.clear()
        fd.SetDescriptor.issubset = self.issubset[0]

    @contextlib.contextmanager
    def active(self):
        self.apply()
        try:
            yield
        finally:
            self.remove()


def in_process_main(argv: list[str]) -> tuple[int, bytes]:
    """``cli.main`` in this process with stdout captured, so that the CLI
    commands' layer calls can be traced."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = filterderiv.cli.main(argv)
    return rc, buf.getvalue().encode()


def build_slice(workload: str, seed: int) -> list[workloads.Op]:
    if workload == "cli":
        return workloads.cli_ops(seed, in_process_main)
    return workloads.build(workload, seed)


# ---------------------------------------------------------------- probes

def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds;
    ``fn`` performs ``calls`` calls."""
    times = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        fn()
        times.append((perf_counter_ns() - t0) / calls / 1e3)
    return statistics.median(times)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def probes(seed: int, env: dict) -> dict[str, tuple[float, str]]:
    """Single-layer timings, untraced, on fixed inputs: name -> (value, unit)."""
    texts = sorted(set(SMOOTH_TEXTS + KINK_TEXTS + POSITIVE_TEXTS + list(LIMITS_AT_ZERO)
                       + ["x", "sign(x)", OSCILLATING_TEXT]))
    points = [(fd.as_function(fd.parse(t)), x) for t, xs in SMOOTH_CASES for x in xs]
    smooth = [(fd.parse(t), x) for t, xs in SMOOTH_CASES for x in xs]
    chain = fd.punctured_base(1.0, 0.5)
    est = fd.estimate_limit(fd.difference_quotient(fd.as_function(fd.parse("abs(x)")), 0.0),
                            fd.punctured_base(1.0, 0.5), fd.LimitConfig(seed=seed))
    imports = []
    for _ in range(7):
        proc = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             "import filterderiv.cli; print(time.perf_counter() - t)"],
            env=env, check=True, timeout=60, capture_output=True, text=True)
        imports.append(float(proc.stdout) * 1e3)
    return {
        "expr.parse_us": (_per_call_us(
            lambda: [fd.parse(t) for _ in range(20) for t in texts], 20 * len(texts)), "us"),
        "expr.eval_us": (_per_call_us(
            lambda: [f(x) for _ in range(40) for f, x in points], 40 * len(points)), "us"),
        "filterbase.sample_us": (_per_call_us(
            lambda: [chain.sample(k, 32, seed) for k in range(49)], 49), "us"),
        "filterbase.verify_ms.geometric": (_median_ms(
            lambda: fd.verify_base_axioms(fd.punctured_base(1.0, 0.5), 64), 7), "ms"),
        "filterbase.verify_ms.sequence": (_median_ms(
            lambda: fd.verify_base_axioms(
                fd.sequence_base(fd.SequenceSpec(kind="geo", c=1.0, q=0.5)), 64), 3), "ms"),
        "flimit.csv_us": (_per_call_us(
            lambda: [fd.format_trace_csv(est) for _ in range(50)], 50), "us"),
        "oracle.symbolic_us": (_per_call_us(
            lambda: [fd.symbolic_derivative_value(e, "x", x) for e, x in smooth],
            len(smooth)), "us"),
        "oracle.richardson_us": (_per_call_us(
            lambda: [fd.richardson_one_sided(f, x, "right") for f, x in points],
            len(points)), "us"),
        "cli.interpreter_ms": (_median_ms(
            lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                                   timeout=60), 7), "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
    }


# ---------------------------------------------------------------- the run

def _run_round(ops, outcome, tracer: Tracer | None = None,
               estimates: dict | None = None) -> int:
    """Run every op once and return the elapsed ns; ``outcome(op, result,
    error, latency_ns)`` checks and counts each one."""
    t_start = perf_counter_ns()
    for op in ops:
        t0 = perf_counter_ns()
        before = tracer.current.counts["flimit.estimate_limit"] if tracer else 0
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.call("bench", f"op.{op.kind}", True, op.run, (), {})
            error = None
        except Exception as exc:  # a failing operation is a result to count
            result, error = None, exc
        latency = perf_counter_ns() - t0
        if tracer is not None:
            tracer.current.ops += 1
            if estimates is not None:
                est = estimates.setdefault(op.kind, [0, 0])
                est[0] += tracer.current.counts["flimit.estimate_limit"] - before
                est[1] += 1
        outcome(op, result, error, latency)
    return perf_counter_ns() - t_start


def layer_run(seed: int, seconds: float, outcome, env: dict, spans_path: Path
              ) -> tuple[dict[str, tuple[float, str]], dict[str, dict[str, float]]]:
    """Per-layer metrics, and each workload's self seconds per operation by
    layer."""
    slices = list(workloads.WORKLOADS)
    plain = {w: build_slice(w, seed) for w in slices}
    tracer = Tracer()
    inst = Installation(tracer)
    with inst.active():
        traced = {w: build_slice(w, seed) for w in slices}
    untraced_ns = traced_ns = 0
    cli_latencies: list[int] = []
    estimates: dict[str, list[int]] = {}

    def cli_outcome(op, result, error, latency):
        cli_latencies.append(latency)
        outcome(op, result, error, latency)

    start = time.perf_counter()
    while True:
        for w in slices:
            untraced_ns += _run_round(plain[w], cli_outcome if w == "cli" else outcome)
            tracer.begin(w)
            with inst.active():
                traced_ns += _run_round(traced[w], outcome, tracer,
                                        estimates if w == "rules" else None)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write_spans(spans_path)

    d, r, a = tracer.stats["derive"], tracer.stats["rules"], tracer.stats["axioms"]
    m = probes(seed, env)
    m["expr.evals_per_op"] = (r.counts["expr.eval"] / r.ops, "count")
    m["expr.eval_s_per_op"] = (d.total_ns["expr.eval"] / d.ops / 1e9, "s")
    m["filterbase.sample_calls_per_op"] = (r.counts["filterbase.sample"] / r.ops, "count")
    m["filterbase.sample_s_per_op"] = (d.total_ns["filterbase.sample"] / d.ops / 1e9, "s")
    m["filterbase.element_s_per_op"] = (a.total_ns["filterbase.element"] / a.ops / 1e9, "s")
    m["filterbase.issubset_calls_per_op"] = (a.counts["filterbase.issubset"] / a.ops, "count")
    m["filterbase.issubset_s_per_op"] = (a.total_ns["filterbase.issubset"] / a.ops / 1e9, "s")
    n_est = d.counts["flimit.estimate_limit"]
    m["flimit.estimates_per_op"] = (n_est / d.ops, "count")
    m["flimit.levels_per_estimate"] = (d.counts["flimit.levels"] / n_est, "count")
    m["flimit.self_s_per_op"] = (d.self_ns["flimit"] / d.ops / 1e9, "s")
    for rule in ("linearity", "product", "quotient"):
        total, checks = estimates[rule]
        m[f"fderiv.estimates_per_check.{rule}"] = (total / checks, "count")
    m["fderiv.self_s_per_op"] = (r.self_ns["fderiv"] / r.ops / 1e9, "s")
    m["cli.main_ms"] = (statistics.median(cli_latencies) / 1e6, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced_ns - untraced_ns) / untraced_ns, "%")
    self_s = {w: {layer: ns / tracer.stats[w].ops / 1e9
                  for layer, ns in sorted(tracer.stats[w].self_ns.items())}
              for w in slices}
    return m, self_s
