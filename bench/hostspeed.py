"""Fixed references that track the host's current speed.

This host's speed swings by up to 2× for tens of seconds at a time, so a
raw time says as much about the host as about the program. The benchmark
therefore times a reference next to every operation and reports each
operation's time as a multiple of the reference's time, scaled by the
reference's time on a quiet host: the figures read as milliseconds on
this host when quiet, whatever state the run met.

In-process operations use ``kernel``: it does the kind of work filterderiv
does (a recursive walk of an expression tree with a dict environment and
math calls, 64-bit mixing with Python ints, list building and a sort) and
shares no code with it, so a change to the program leaves its time alone.
CLI commands use ``spawn``, a bare ``python -c pass`` child: process
start-up slows with the host in its own way, which the kernel does not
follow.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter_ns

# The scales the figures are reported at: about the time of one kernel call,
# and of one bare interpreter child, on a 2-core host in its fast state,
# Python 3.11.
REF_MS = 0.42
SPAWN_MS = 50.0

_M64 = (1 << 64) - 1
_TREE = ("add", ("mul", ("var",), ("call", math.sin, ("var",))),
         ("div", ("sub", ("mul", ("var",), ("var",)), ("const", 1.0)),
          ("add", ("var",), ("const", 2.0))))


def _walk(node, env):
    op = node[0]
    if op == "var":
        return env["x"]
    if op == "const":
        return node[1]
    if op == "call":
        return node[1](_walk(node[2], env))
    a, b = _walk(node[1], env), _walk(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    return x ^ (x >> 31)


def kernel() -> float:
    out = []
    h = 0x243F6A8885A308D3
    for i in range(1, 200):
        h = _mix(h ^ i)
        out.append(_walk(_TREE, {"x": (h >> 11) * 2.0 ** -53 + 0.5}))
    out.sort()
    return math.fsum(out)


def kernel_ns() -> int:
    """The time of one kernel call."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def kernel_ms_now(calls: int = 5) -> float:
    """The median time of a few kernel calls, after one warm-up call."""
    kernel()
    return statistics.median(kernel_ns() for _ in range(calls)) / 1e6


def spawn_ns(env: dict) -> int:
    """The time of one bare interpreter child, started as the CLI's are."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   timeout=60, check=True)
    return perf_counter_ns() - t0
