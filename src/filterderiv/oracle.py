"""Independent reference answers for validating the filter engine.

Two routes that share no code with the limit estimator:

- symbolic differentiation over the expression AST (exact, valid wherever
  f is defined and no abs/sign/min/max node is at a kink), and
- Richardson-extrapolated one-sided difference quotients.

A disagreement between the two localizes a bug to one of symbolic rules,
extrapolation, or the filter engine itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NonSmoothPointError
from .expr import (BINARY_FUNCTIONS, Binary, Call, Constant, Expr, Unary,
                   Variable, _nodes, evaluate_each, render)

__all__ = [
    "OracleValue", "symbolic_derivative",
    "symbolic_derivative_value", "richardson_one_sided", "KINK_TOLERANCE",
]

# |u(x0)| below this makes an abs/sign/min/max argument "at a kink": the
# symbolic rules are invalid there and the oracle refuses the point.
KINK_TOLERANCE = 1e-12
_KINKS = ("abs", "sign", *BINARY_FUNCTIONS)

# First step and tableau depth of richardson_one_sided: steps h0 * 2**-j
# for j < depth.
_RICHARDSON_H0 = 0.5
_RICHARDSON_DEPTH = 8


@dataclass(frozen=True)
class OracleValue:
    value: float
    method: str  # "symbolic" | "richardson-right" | "richardson-left"
    estimated_error: float


def _const(v: float) -> Constant:
    return Constant(float(v))


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Constant) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _const(0.0)
    return Binary("div", a, b)


def _neg(a: Expr) -> Expr:
    if _is_const(a):
        return _const(-a.value)
    return Unary("neg", a)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    return Binary("pow", a, b)


# The chain rule of each one-argument function f: (u, f(u), u') -> d f(u).
_CHAIN_RULES = {
    "abs": lambda u, e, du: _mul(Call("sign", (u,)), du),
    "sign": lambda u, e, du: _const(0.0),
    "sin": lambda u, e, du: _mul(Call("cos", (u,)), du),
    "cos": lambda u, e, du: _neg(_mul(Call("sin", (u,)), du)),
    "tan": lambda u, e, du: _div(du, _pow(Call("cos", (u,)), _const(2.0))),
    "exp": lambda u, e, du: _mul(e, du),
    "log": lambda u, e, du: _div(du, u),
    "sqrt": lambda u, e, du: _div(du, _mul(_const(2.0), e)),
}


def symbolic_derivative(e: Expr, var: str) -> Expr:
    """Differentiate node by node. Conventions: d abs(u) = sign(u)*u',
    d sign(u) = 0, and d min(a,b) / d max(a,b) is the derivative of the
    argument that sign(a-b) selects; the result is valid wherever no
    abs/sign argument (or min/max argument difference) vanishes."""
    if isinstance(e, Constant):
        return _const(0.0)
    if isinstance(e, Variable):
        return _const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        return _neg(symbolic_derivative(e.child, var))
    if isinstance(e, Binary):
        dl = symbolic_derivative(e.left, var)
        dr = symbolic_derivative(e.right, var)
        if e.op == "add":
            return _add(dl, dr)
        if e.op == "sub":
            return _sub(dl, dr)
        if e.op == "mul":
            return _add(_mul(dl, e.right), _mul(dr, e.left))
        if e.op == "div":
            return _div(_sub(_mul(dl, e.right), _mul(e.left, dr)),
                        _pow(e.right, _const(2.0)))
        # pow: constant exponent uses the power rule, otherwise u^v =
        # exp(v*log u) gives u^v * (v'*log(u) + v*u'/u)
        if _is_const(e.right):
            n = e.right.value
            return _mul(_mul(_const(n), _pow(e.left, _const(n - 1.0))), dl)
        return _mul(e, _add(_mul(dr, Call("log", (e.left,))),
                            _div(_mul(e.right, dl), e.left)))
    if e.fn in BINARY_FUNCTIONS:
        # With s = sign(a-b), min' = ((1-s)*a' + (1+s)*b')/2, and max' swaps
        # the weights. Each argument is differentiated once and its
        # derivative occurs once, so nesting grows the tree linearly; off
        # kinks (s = +-1) the weights are 0 and 2, so the value is exactly
        # a' or b'.
        a, b = e.args
        s = Call("sign", (_sub(a, b),))
        below, above = _sub(_const(1.0), s), _add(_const(1.0), s)
        wa, wb = (below, above) if e.fn == "min" else (above, below)
        return _mul(_const(0.5), _add(_mul(wa, symbolic_derivative(a, var)),
                                      _mul(wb, symbolic_derivative(b, var))))
    return _CHAIN_RULES[e.fn](e.args[0], e, symbolic_derivative(e.args[0], var))


def symbolic_derivative_value(e: Expr, var: str, x0: float) -> OracleValue:
    """Evaluate the symbolic derivative at x0. One compiled function yields,
    in turn, the argument(s) of each abs/sign/min/max node on expr._nodes's
    walk of e (a node before its children, the right child first), f(x0) and
    f'(x0). The first kink on that walk refuses x0 (NonSmoothPointError) and
    nothing after it is evaluated: an argument that raises raises only if no
    earlier kink was found, and f and f' are evaluated only after every kink
    argument. An x0 where f is undefined is a DomainError, whatever f' gives
    there. Symbolic results carry estimated_error 0."""
    d = symbolic_derivative(e, var)
    kinks = [node for node in _nodes(e) if isinstance(node, Call) and node.fn in _KINKS]
    values = evaluate_each([*(arg for node in kinks for arg in node.args), e, d], {var: x0})
    for node in kinks:
        u = [next(values) for _ in node.args]
        pair = node.fn in BINARY_FUNCTIONS
        gap = u[0] - u[1] if pair else u[0]
        if abs(gap) < KINK_TOLERANCE:
            what = "arguments of {} differ by" if pair else "argument of {} is"
            raise NonSmoothPointError(
                f"{what.format(render(node))} {gap!r} at {var}={x0!r}; "
                "the symbolic rules are invalid at this kink")
    next(values)  # f(x0)
    return OracleValue(value=next(values), method="symbolic", estimated_error=0.0)


def richardson_one_sided(f: Callable[[float], float], x0: float,
                         side: str) -> OracleValue:
    """Richardson extrapolation of one-sided difference quotients with step
    halving. estimated_error is the gap between the last two diagonal
    tableau entries; a tableau that leaves the float range is a DomainError."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    sigma = 1.0 if side == "right" else -1.0
    fx0 = f(x0)
    row: list[float] = []  # row j of the tableau; prev is row j - 1
    for j in range(_RICHARDSON_DEPTH):
        h = sigma * _RICHARDSON_H0 * 2.0 ** -j
        prev, row = row, [(f(x0 + h) - fx0) / h]
        # one-sided quotients expand in powers h^1, h^2, ...: column i kills h^i
        for i in range(1, j + 1):
            factor = 2.0 ** i
            row.append((factor * row[i - 1] - prev[i - 1]) / (factor - 1.0))
    value = row[-1]
    err = abs(value - prev[-1])
    if not math.isfinite(err):  # also when value is not finite
        raise DomainError("Richardson tableau left the float range", argument=x0)
    return OracleValue(value=value, method=f"richardson-{side}", estimated_error=err)
