"""Hand-written reference table for the benchmark.

Every function the workloads hand to filterderiv is listed here with its
value and its derivative in closed form, written with Python's ``math``.
Nothing here imports filterderiv: the table shares no code with the
estimator or with ``filterderiv.oracle``. ``test_reference_table.py`` cross-checks
it against sympy.

The expression texts are the ones of the repository's test corpus, copied
rather than imported, so that a change to the tests cannot change what the
benchmark measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Smooth functions, each with five points where |f'| >= 0.16.
SMOOTH_CASES = [
    ("x^2", [-2.0, -0.5, 0.5, 1.0, 1.7]),
    ("x^3-2*x", [-2.0, -1.5, 1.2, 1.5, 2.0]),
    ("sin(x)", [-1.0, -0.3, 0.2, 0.5, 0.9]),
    ("cos(2*x)", [0.3, 0.7, 1.0, 1.2, 2.0]),
    ("exp(x/2)", [-2.0, -1.0, 0.0, 1.0, 2.0]),
    ("x*sin(x)", [-1.2, -0.8, 0.5, 0.8, 1.2]),
    ("1/(1+x^2)", [-1.0, 0.5, 1.0, 1.5, 2.0]),
    ("sqrt(1+x^2)", [-2.0, -1.0, 0.5, 1.0, 2.0]),
    ("exp(0-x^2)", [-1.5, -1.0, 0.5, 1.0, 1.5]),
    ("x^2*cos(x)", [-0.5, 0.5, 1.0, 1.5, 2.5]),
]
SMOOTH_TEXTS = [t for t, _ in SMOOTH_CASES]

# Kinked at 0, with one-sided derivatives there.
KINK_TEXTS = ["abs(x)", "2*abs(x)", "abs(x)+x^2", "min(x,2*x)", "max(x,0-x)+x"]

# Strictly positive near every rule point: quotient denominators.
POSITIVE_TEXTS = ["1+abs(x)", "2+sin(x)", "1+x^2", "exp(x/2)", "2+cos(x)"]

RULE_POINTS = [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]

# x*sin(1/x) has no derivative at 0, but its difference quotient sin(1/h)
# is 0 along h_n = c/(pi*n) whenever 1/c is a nonzero integer.
OSCILLATING_TEXT = "x*sin(1/x)"
PIOVERN_CS = [1.0, -1.0, 0.5, 0.25, -0.5]


def _sign(x: float) -> float:
    return 0.0 if x == 0.0 else math.copysign(1.0, x)


@dataclass(frozen=True)
class Entry:
    """f and f' in closed form. ``kink`` is a point where f' does not exist;
    ``right``/``left`` are the exact one-sided derivatives there."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    kink: float | None = None
    right: float | None = None
    left: float | None = None

    def derivative(self, x0: float, side: str) -> float | None:
        """The derivative at x0 along a base of the given side ("both",
        "right" or "left"); None where it does not exist."""
        if self.kink is None or x0 != self.kink:
            return self.df(x0)
        if side == "right":
            return self.right
        if side == "left":
            return self.left
        return None


TABLE: dict[str, Entry] = {
    "x^2": Entry(lambda x: x * x, lambda x: 2.0 * x),
    "x^3-2*x": Entry(lambda x: x ** 3 - 2.0 * x, lambda x: 3.0 * x * x - 2.0),
    "sin(x)": Entry(math.sin, math.cos),
    "cos(2*x)": Entry(lambda x: math.cos(2.0 * x), lambda x: -2.0 * math.sin(2.0 * x)),
    "exp(x/2)": Entry(lambda x: math.exp(x / 2.0), lambda x: 0.5 * math.exp(x / 2.0)),
    "x*sin(x)": Entry(lambda x: x * math.sin(x),
                      lambda x: math.sin(x) + x * math.cos(x)),
    "1/(1+x^2)": Entry(lambda x: 1.0 / (1.0 + x * x),
                       lambda x: -2.0 * x / (1.0 + x * x) ** 2),
    "sqrt(1+x^2)": Entry(lambda x: math.sqrt(1.0 + x * x),
                         lambda x: x / math.sqrt(1.0 + x * x)),
    "exp(0-x^2)": Entry(lambda x: math.exp(-x * x), lambda x: -2.0 * x * math.exp(-x * x)),
    "x^2*cos(x)": Entry(lambda x: x * x * math.cos(x),
                        lambda x: 2.0 * x * math.cos(x) - x * x * math.sin(x)),
    "abs(x)": Entry(abs, _sign, kink=0.0, right=1.0, left=-1.0),
    "2*abs(x)": Entry(lambda x: 2.0 * abs(x), lambda x: 2.0 * _sign(x),
                      kink=0.0, right=2.0, left=-2.0),
    "abs(x)+x^2": Entry(lambda x: abs(x) + x * x, lambda x: _sign(x) + 2.0 * x,
                        kink=0.0, right=1.0, left=-1.0),
    "min(x,2*x)": Entry(lambda x: min(x, 2.0 * x), lambda x: 1.0 if x > 0 else 2.0,
                        kink=0.0, right=1.0, left=2.0),
    "max(x,0-x)+x": Entry(lambda x: max(x, -x) + x, lambda x: 2.0 if x > 0 else 0.0,
                          kink=0.0, right=2.0, left=0.0),
    "1+abs(x)": Entry(lambda x: 1.0 + abs(x), _sign, kink=0.0, right=1.0, left=-1.0),
    "2+sin(x)": Entry(lambda x: 2.0 + math.sin(x), math.cos),
    "1+x^2": Entry(lambda x: 1.0 + x * x, lambda x: 2.0 * x),
    "2+cos(x)": Entry(lambda x: 2.0 + math.cos(x), lambda x: -math.sin(x)),
    "x": Entry(lambda x: x, lambda x: 1.0),
    # sign has no derivative at 0 and is not continuous there either.
    "sign(x)": Entry(_sign, lambda x: 0.0, kink=0.0),
}

# Expressions in h for the CLI `limit` command, with their limits at 0.
# (exp(h)-1)/h is left out: under the default tolerances its cancellation
# noise makes the estimator answer no-limit (see CHANGES.md).
LIMITS_AT_ZERO = {"sin(h)/h": 1.0, "h*sin(1/h)": 0.0}


def rel_close(value: float, truth: float, rel: float) -> bool:
    """|value - truth| <= rel * |truth|; an absolute test when truth is 0."""
    return abs(value - truth) <= rel * (abs(truth) if truth else 1.0)
