"""Cross-check of the benchmark's hand-written reference table against sympy.

    python3 -m pytest bench/test_reference_table.py
"""

import ast
import math
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

import reference  # noqa: E402
from reference import (KINK_TEXTS, LIMITS_AT_ZERO, PIOVERN_CS, POSITIVE_TEXTS,  # noqa: E402
                       RULE_POINTS, SMOOTH_CASES, TABLE)

x, h = sympy.symbols("x h", real=True)
NAMES = {"abs": sympy.Abs, "sign": sympy.sign, "min": sympy.Min, "max": sympy.Max,
         "sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "sqrt": sympy.sqrt,
         "x": x, "h": h}


def to_sympy(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=NAMES)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


def test_table_names_every_function():
    texts = [t for t, _ in SMOOTH_CASES] + KINK_TEXTS + POSITIVE_TEXTS + ["x", "sign(x)"]
    assert sorted(TABLE) == sorted(set(texts))


@pytest.mark.parametrize("text", sorted(TABLE))
def test_value_and_derivative_away_from_kinks(text):
    e = to_sympy(text)
    de = sympy.diff(e, x)
    entry = TABLE[text]
    points = dict(SMOOTH_CASES).get(text, RULE_POINTS)
    for x0 in points + [0.3, -1.7]:
        if entry.kink is not None and x0 == entry.kink:
            continue
        assert close(entry.f(x0), float(e.subs(x, x0))), (text, x0)
        assert close(entry.df(x0), float(de.subs(x, x0))), (text, x0)


@pytest.mark.parametrize("text", KINK_TEXTS + ["1+abs(x)"])
def test_one_sided_derivatives_at_kink(text):
    e = to_sympy(text)
    q = (e.subs(x, h) - e.subs(x, 0)) / h
    entry = TABLE[text]
    assert entry.kink == 0.0
    assert float(sympy.limit(q, h, 0, "+")) == entry.right
    assert float(sympy.limit(q, h, 0, "-")) == entry.left
    assert entry.derivative(0.0, "both") is None


def test_sign_has_no_limit_at_zero():
    e = to_sympy("sign(x)")
    assert sympy.limit(e, x, 0, "+") != e.subs(x, 0)


@pytest.mark.parametrize("text", sorted(LIMITS_AT_ZERO))
def test_limits_at_zero(text):
    assert float(sympy.limit(to_sympy(text), h, 0)) == LIMITS_AT_ZERO[text]


def test_oscillating_quotient_vanishes_along_piovern():
    # x*sin(1/x) has quotient sin(1/h); at h = c/(pi*n) that is sin(pi*n/c).
    n = sympy.symbols("n", integer=True, positive=True)
    for c in PIOVERN_CS:
        assert sympy.sin(sympy.pi * n / sympy.nsimplify(c)).simplify() == 0, c


def test_reference_imports_only_the_standard_library():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "math", "dataclasses", "typing"}
