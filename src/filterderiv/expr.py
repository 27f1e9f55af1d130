"""Expression front-end: parse, evaluate and print real functions of one
real variable.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?          -- "^" is right-associative
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)? ")" | "(" expr ")"

Note that the base of "^" is a *unary* production, so ``-x^2`` parses as
``(-x)^2``; write ``0-x^2`` or ``-(x^2)`` for the other reading.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .errors import DomainError, ParseError, UnboundVariableError

__all__ = [
    "Constant", "Variable", "Unary", "Binary", "Call", "Expr",
    "parse", "evaluate", "free_vars", "render", "as_function",
    "UNARY_FUNCTIONS", "BINARY_FUNCTIONS",
]


def _sign(x: float) -> float:
    return 0.0 if x == 0.0 else (1.0 if x > 0.0 else -1.0)


# The one-argument functions: their ValueError or OverflowError is a DomainError;
# for the finite arguments they receive, math raises instead of returning inf or nan.
_UNARY_OPS = {"abs": math.fabs, "sign": _sign, "sin": math.sin, "cos": math.cos,
              "tan": math.tan, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
UNARY_FUNCTIONS = tuple(_UNARY_OPS)
BINARY_FUNCTIONS = ("min", "max")

# The binary ops: name -> (symbol, binding level); a higher level binds
# tighter. "^" associates to the right, the others to the left.
_BINARY_OPS = {"add": ("+", 1), "sub": ("-", 1), "mul": ("*", 2), "div": ("/", 2),
               "pow": ("^", 3)}
_OP_NAMES = {symbol: name for name, (symbol, _) in _BINARY_OPS.items()}


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "neg"
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Constant, Variable, Unary, Binary, Call]

# One token per match: whitespace, a number, a name, a punctuation mark, or
# any other single character, which is an error. The alternatives cover
# every character, so the matches tile the text.
_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[-+*/^(),])|(?P<other>.)",
                       re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, char-offset) triples, ending with an eof token; a
    punctuation mark is its own kind."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok, i = m.lastgroup, m.group(), m.start()
        if kind == "other":
            raise ParseError(_byte_offset(text, i), "a token", tok)
        if kind != "space":
            tokens.append((tok if kind == "punct" else kind, tok, i))
    tokens.append(("eof", "", len(text)))
    return tokens


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8"))


# Deepest input the parser accepts. Depth counts one level for every
# operator, sign, function call and pair of brackets on the way down to a
# number or a name. At this depth the parser (six frames per bracket), the
# compiled evaluator and the oracle's derivative trees, which grow a few
# times deeper than their input, all stay well inside Python's default
# recursion limit of 1000 frames.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent. Every production returns its tree together with
    the tree's depth (brackets included), so that deep input becomes a
    ParseError instead of a RecursionError here or in later tree walks."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # signs, brackets, calls and exponents around this token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        kind, text, off = self.peek()
        found = text if kind != "eof" else "end of input"
        return ParseError(_byte_offset(self.text, off), expected, found)

    def expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.fail(expected)
        return self.advance()

    def too_deep(self, off: int) -> None:
        raise ParseError(_byte_offset(self.text, off),
                         f"at most {_MAX_DEPTH} levels of nesting",
                         f"{_MAX_DEPTH + 1} levels")

    def nest(self, e: Expr, below: int, off: int) -> tuple[Expr, int]:
        """e with its depth, one more than ``below``, the depth of its
        deepest part; a bracket pair passes its contents here too."""
        if below >= _MAX_DEPTH:
            self.too_deep(off)
        return e, below + 1

    def inner(self, off: int, production) -> tuple[Expr, int]:
        """Run production inside one more construct opened at char offset
        off. Each open construct adds a level above the tree inside it, so
        the limit is known to be crossed before the recursion goes deeper."""
        self.open += 1
        if self.open >= _MAX_DEPTH:
            self.too_deep(off)
        result = production()
        self.open -= 1
        return result

    def parse(self) -> Expr:
        e, _ = self.expr()
        if self.peek()[0] != "eof":
            raise self.fail("an operator or end of input")
        return e

    def expr(self) -> tuple[Expr, int]:
        left, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.advance()
            right, right_depth = self.term()
            left, depth = self.nest(Binary(_OP_NAMES[op], left, right),
                                    max(depth, right_depth), off)
        return left, depth

    def term(self) -> tuple[Expr, int]:
        left, depth = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.advance()
            right, right_depth = self.factor()
            left, depth = self.nest(Binary(_OP_NAMES[op], left, right),
                                    max(depth, right_depth), off)
        return left, depth

    def factor(self) -> tuple[Expr, int]:
        base, depth = self.unary()
        if self.peek()[0] == "^":
            op, _, off = self.advance()
            exponent, exponent_depth = self.inner(off, self.factor)
            return self.nest(Binary(_OP_NAMES[op], base, exponent), max(depth, exponent_depth), off)
        return base, depth

    def unary(self) -> tuple[Expr, int]:
        kind, _, off = self.peek()
        if kind == "-":
            self.advance()
            child, depth = self.inner(off, self.unary)
            return self.nest(Unary("neg", child), depth, off)
        return self.atom()

    def atom(self) -> tuple[Expr, int]:
        kind, text, off = self.peek()
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(_byte_offset(self.text, off), "a finite number", text)
            return Constant(value), 1
        if kind == "ident":
            self.advance()
            if self.peek()[0] != "(":
                return Variable(text), 1
            if text not in UNARY_FUNCTIONS and text not in BINARY_FUNCTIONS:
                raise ParseError(_byte_offset(self.text, off),
                                 "a recognized function name", text)
            self.advance()
            args = [self.inner(off, self.expr)]
            if self.peek()[0] == ",":
                self.advance()
                args.append(self.inner(off, self.expr))
            self.expect(")", "')'")
            want = 2 if text in BINARY_FUNCTIONS else 1
            if len(args) != want:
                raise ParseError(_byte_offset(self.text, off),
                                 f"{want} argument(s) to {text}", f"{len(args)} given")
            return self.nest(Call(text, tuple(a for a, _ in args)),
                             max(d for _, d in args), off)
        if kind == "(":
            self.advance()
            e, depth = self.inner(off, self.expr)
            self.expect(")", "')'")
            return self.nest(e, depth, off)
        raise self.fail("a number, name, '-', or '('")


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST; raises ParseError with a byte offset, also
    for a number that overflows to infinity and for input nested deeper than
    100 levels."""
    return _Parser(text).parse()


def free_vars(e: Expr) -> frozenset[str]:
    """The set of variable names occurring in ``e``."""
    if isinstance(e, Variable):
        return frozenset((e.name,))
    if isinstance(e, Constant):
        return frozenset()
    if isinstance(e, Unary):
        return free_vars(e.child)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    return frozenset().union(*(free_vars(a) for a in e.args))


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _not_finite(node: Expr) -> DomainError:
    return DomainError("result is not a finite real", subject=render(node))


def _compile(e: Expr, read: Callable[[str], Callable],
             shared: dict[int, Callable]) -> Callable:
    """Compile e into nested closures of one argument; ``read(name)`` is the
    closure that takes a variable's value from that argument. Each closure
    does its node's IEEE operations in tree order (left before right,
    arguments before the call) and raises any DomainError at its own node;
    the node is rendered only then. ``shared`` maps id(node) to the closures
    made so far, so that a subtree occurring in e several times as one
    object (the oracle's derivative trees share their parts) compiles once."""
    fn = shared.get(id(e))
    if fn is not None:
        return fn
    if isinstance(e, Constant):
        value = e.value
        if math.isfinite(value):
            fn = lambda arg: value
        else:
            def fn(arg):
                raise DomainError("constant is not a finite real", argument=value)
    elif isinstance(e, Variable):
        fn = read(e.name)
    elif isinstance(e, Unary):
        child = _compile(e.child, read, shared)
        fn = lambda arg: -child(arg)
    elif isinstance(e, Binary):
        fn = _compile_binary(e, _compile(e.left, read, shared),
                             _compile(e.right, read, shared))
    else:
        fn = _compile_call(e, [_compile(a, read, shared) for a in e.args])
    shared[id(e)] = fn
    return fn


def _compile_binary(e: Binary, left: Callable, right: Callable) -> Callable:
    if e.op in _ARITHMETIC:
        op = _ARITHMETIC[e.op]

        def arithmetic(arg):
            v = op(left(arg), right(arg))
            if math.isfinite(v):
                return v
            raise _not_finite(e)
        return arithmetic
    if e.op == "div":
        def div(arg):
            lv = left(arg)
            rv = right(arg)
            if rv == 0.0:
                raise DomainError("division by zero", subject=render(e), argument=rv)
            v = lv / rv
            if math.isfinite(v):
                return v
            raise _not_finite(e)
        return div

    def power(arg):  # every other op is "pow"
        lv = left(arg)
        rv = right(arg)
        if lv < 0.0 and rv != math.floor(rv):
            raise DomainError("negative base with non-integer exponent",
                              subject=render(e), argument=lv)
        try:
            return math.pow(lv, rv)
        except (ValueError, OverflowError):
            raise DomainError("power is not a finite real",
                              subject=render(e), argument=lv) from None
    return power


def _compile_call(e: Call, args: list[Callable]) -> Callable:
    if e.fn in BINARY_FUNCTIONS:
        first, second = args
        pick = min if e.fn == "min" else max
        return lambda arg: pick(first(arg), second(arg))
    (child,) = args
    fn = _UNARY_OPS[e.fn]

    def call(arg):
        x = child(arg)
        try:
            return fn(x)
        except (ValueError, OverflowError):
            raise DomainError(f"{e.fn} applied outside its domain",
                              subject=render(e), argument=x) from None
    return call


def _binding(name: str) -> Callable[[Mapping[str, float]], float]:
    def variable(bindings: Mapping[str, float]) -> float:
        if name not in bindings:
            raise UnboundVariableError(name)
        v = float(bindings[name])
        if math.isfinite(v):
            return v
        raise DomainError("variable is not bound to a finite real", subject=name,
                          argument=v)
    return variable


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE-double evaluation. Out-of-domain conditions (division by zero,
    log/sqrt of negatives, non-real powers, overflow, a non-finite constant
    or binding) raise DomainError, so the result is always a finite float.
    The expression is compiled on each call, so use as_function to evaluate
    one expression at many points."""
    return _compile(e, _binding, {})(bindings)


def render(e: Expr) -> str:
    """Canonical printer. For every tree produced by parse(),
    parse(render(e)) == e structurally."""
    if isinstance(e, Constant):
        if not math.isfinite(e.value):
            raise ValueError("cannot render a non-finite constant")
        return repr(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        child = render(e.child)
        if isinstance(e.child, Binary):
            child = f"({child})"
        return f"-{child}"
    if isinstance(e, Call):
        return f"{e.fn}({','.join(render(a) for a in e.args)})"
    symbol, level = _BINARY_OPS[e.op]
    l, r = render(e.left), render(e.right)
    # A child that binds looser than e is bracketed, and so is one that binds
    # as tightly on the side e does not associate to.
    if _level(e.left) < level or (e.op == "pow" and _level(e.left) == level):
        l = f"({l})"
    if _level(e.right) < level or (e.op != "pow" and _level(e.right) == level):
        r = f"({r})"
    return f"{l}{symbol}{r}"


def _level(e: Expr) -> float:
    """The binding level of e's top node: a binary op's, or above them all."""
    return _BINARY_OPS[e.op][1] if isinstance(e, Binary) else math.inf


def as_function(e: Expr, var: str | None = None) -> Callable[[float], float]:
    """Compile an expression with at most one free variable, once, into
    ``f: float -> float``. For finite t, f(t) equals evaluate(e, {var: t})
    bit for bit; a non-finite t raises DomainError, so f never returns a
    non-finite value."""
    names = free_vars(e)
    if var is None:
        if len(names) > 1:
            raise ValueError(f"expression has several free variables: {sorted(names)}")
        var = next(iter(names)) if names else "x"
    elif names - {var}:
        raise ValueError(f"expression has free variables besides {var!r}: "
                         f"{sorted(names - {var})}")

    # Every variable left is var, read straight from the one argument.
    fn = _compile(e, lambda name: float, {})

    def checked(t: float) -> float:
        if math.isfinite(t):
            return fn(t)
        raise DomainError("variable is not bound to a finite real", subject=var,
                          argument=t)
    return checked
