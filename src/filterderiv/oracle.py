"""Independent reference answers for validating the filter engine.

Two routes that share no code with the limit estimator:

- symbolic differentiation over the expression AST (exact, valid wherever
  no abs/sign argument vanishes), and
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
                   Variable, evaluate, render)

__all__ = [
    "OracleValue", "symbolic_derivative",
    "symbolic_derivative_value", "richardson_one_sided", "KINK_TOLERANCE",
]

# |u(x0)| below this makes an abs/sign/min/max argument "at a kink": the
# symbolic rules are invalid there and the oracle refuses the point.
KINK_TOLERANCE = 1e-12

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
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def _neg(a: Expr) -> Expr:
    if _is_const(a):
        return _const(-a.value)
    return Unary("neg", a)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    return Binary("pow", a, b)


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
    u = e.args[0]
    du = symbolic_derivative(u, var)
    if e.fn == "abs":
        return _mul(Call("sign", (u,)), du)
    if e.fn == "sign":
        return _const(0.0)
    if e.fn == "sin":
        return _mul(Call("cos", (u,)), du)
    if e.fn == "cos":
        return _neg(_mul(Call("sin", (u,)), du))
    if e.fn == "tan":
        return _div(du, _pow(Call("cos", (u,)), _const(2.0)))
    if e.fn == "exp":
        return _mul(e, du)
    if e.fn == "log":
        return _div(du, u)
    return _div(du, _mul(_const(2.0), e))  # every other function is sqrt


def _assert_smooth_at(e: Expr, var: str, x0: float) -> None:
    env = {var: x0}
    stack: list[Expr] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, Call):
            stack.extend(node.args)
            if node.fn in ("abs", "sign"):
                u = evaluate(node.args[0], env)
                if abs(u) < KINK_TOLERANCE:
                    raise NonSmoothPointError(
                        f"argument of {render(node)} is {u!r} at {var}={x0!r}; "
                        "the symbolic rules are invalid at this kink")
            elif node.fn in BINARY_FUNCTIONS:
                gap = evaluate(node.args[0], env) - evaluate(node.args[1], env)
                if abs(gap) < KINK_TOLERANCE:
                    raise NonSmoothPointError(
                        f"arguments of {render(node)} differ by {gap!r} at "
                        f"{var}={x0!r}; the symbolic rules are invalid at this kink")


def symbolic_derivative_value(e: Expr, var: str, x0: float) -> OracleValue:
    """Evaluate the symbolic derivative at x0, refusing kink points
    (NonSmoothPointError). Symbolic results carry estimated_error 0."""
    _assert_smooth_at(e, var, x0)
    d = symbolic_derivative(e, var)
    return OracleValue(value=evaluate(d, {var: x0}), method="symbolic",
                       estimated_error=0.0)


def richardson_one_sided(f: Callable[[float], float], x0: float,
                         side: str) -> OracleValue:
    """Richardson extrapolation of one-sided difference quotients with step
    halving. estimated_error is the gap between the last two diagonal
    tableau entries; a tableau that leaves the float range is a DomainError."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    sigma = 1.0 if side == "right" else -1.0
    fx0 = f(x0)
    depth = _RICHARDSON_DEPTH
    tableau = [[0.0] * depth for _ in range(depth)]
    for j in range(depth):
        h = sigma * _RICHARDSON_H0 * 2.0 ** -j
        tableau[j][0] = (f(x0 + h) - fx0) / h
    # one-sided quotients expand in powers h^1, h^2, ...: column i kills h^i
    for i in range(1, depth):
        factor = 2.0 ** i
        for j in range(i, depth):
            tableau[j][i] = (factor * tableau[j][i - 1] - tableau[j - 1][i - 1]) \
                / (factor - 1.0)
    value = tableau[depth - 1][depth - 1]
    err = abs(value - tableau[depth - 2][depth - 2])
    if not math.isfinite(err):  # also when value is not finite
        raise DomainError("Richardson tableau left the float range", argument=x0)
    return OracleValue(value=value, method=f"richardson-{side}", estimated_error=err)
