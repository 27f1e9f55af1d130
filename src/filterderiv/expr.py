"""Expression front-end: parse, evaluate and print real functions of one
real variable.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*     -- level 1
    term   := factor (("*" | "/") factor)*  -- level 2
    factor := unary ("^" factor)?           -- level 3; "^" is right-associative
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)? ")" | "(" expr ")"

Note that the base of "^" is a *unary* production, so ``-x^2`` parses as
``(-x)^2``; write ``0-x^2`` or ``-(x^2)`` for the other reading.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import partial

from ._record import record
from .errors import DomainError, ParseError, UnboundVariableError, _real

__all__ = [
    "Constant", "Variable", "Unary", "Binary", "Call", "Expr",
    "parse", "evaluate", "evaluate_each", "free_vars", "render", "as_function",
    "UNARY_FUNCTIONS", "BINARY_FUNCTIONS",
]


def _sign(x: float) -> float:
    return 0.0 if x == 0.0 else (1.0 if x > 0.0 else -1.0)


# The functions: name -> (operation, arity, carries). An operation's ValueError
# or OverflowError is a DomainError; for the finite arguments they receive, the
# math functions raise instead of returning inf or nan, and min and max never
# raise. carries is True where ±inf or nan in an argument gives a result that
# is not finite, or raises: a level loop then leaves that argument's check to
# the result's (_hidden). exp(-inf) is 0.0, sign(nan) -1.0, min(inf, 1.0) 1.0.
_FUNCTIONS = {"abs": (math.fabs, 1, True), "sign": (_sign, 1, False),
              "sin": (math.sin, 1, True), "cos": (math.cos, 1, True),
              "tan": (math.tan, 1, True), "exp": (math.exp, 1, False),
              "log": (math.log, 1, True), "sqrt": (math.sqrt, 1, True),
              "min": (min, 2, False), "max": (max, 2, False)}
UNARY_FUNCTIONS = tuple(name for name, (_, arity, _) in _FUNCTIONS.items() if arity == 1)
BINARY_FUNCTIONS = tuple(name for name, (_, arity, _) in _FUNCTIONS.items() if arity == 2)

# The binary ops: name -> (symbol, binding level, carries); a higher level
# binds tighter. "^" associates to the right, the others to the left. carries
# is per operand, as for _FUNCTIONS: x/inf is 0.0 (inf*0.0 is nan), and a
# power carries its base only to a float constant exponent > 0 (_operands).
_BINARY_OPS = {"add": ("+", 1, (True, True)), "sub": ("-", 1, (True, True)),
               "mul": ("*", 2, (True, True)), "div": ("/", 2, (True, False)),
               "pow": ("^", 3, (False, False))}
_BY_SYMBOL = {symbol: (name, level) for name, (symbol, level, _) in _BINARY_OPS.items()}
_TOP_LEVEL = max(level for _, level, _ in _BINARY_OPS.values())


@record
class Constant:
    value: float


@record
class Variable:
    name: str


@record
class Unary:
    op: str  # only "neg"
    child: "Expr"


@record
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Expr"
    right: "Expr"


@record
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Constant | Variable | Unary | Binary | Call

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
# number or a name. At this depth the parser (six frames per bracket) and
# the code generator (one frame per level of a tree, also of the oracle's
# derivative trees, which grow a few times deeper than their input) stay
# well inside Python's default recursion limit of 1000 frames; the code it
# generates is flat.
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

    def inner(self, off: int, production, *args) -> tuple[Expr, int]:
        """Run production(*args) inside one more construct opened at char
        offset off. Each open construct adds a level above the tree inside
        it, so the limit is known to be crossed before the recursion goes deeper."""
        self.open += 1
        if self.open >= _MAX_DEPTH:
            self.too_deep(off)
        result = production(*args)
        self.open -= 1
        return result

    def parse(self) -> Expr:
        e, _ = self.expr()
        if self.peek()[0] != "eof":
            raise self.fail("an operator or end of input")
        return e

    def expr(self, level: int = 1) -> tuple[Expr, int]:
        """The operators of _BINARY_OPS that bind at level or tighter. The top
        level's operands are unary; "^" takes its right operand, the rest of
        its chain, at its own level, and the others loop to the left."""
        left, depth = self.expr(level + 1) if level < _TOP_LEVEL else self.unary()
        while (op := _BY_SYMBOL.get(self.peek()[0])) and op[1] == level:
            off = self.advance()[2]
            if op[0] == "pow":
                right, right_depth = self.inner(off, self.expr, level)
            else:
                right, right_depth = self.expr(level + 1) if level < _TOP_LEVEL else self.unary()
            left, depth = self.nest(Binary(op[0], left, right), max(depth, right_depth), off)
        return left, depth

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
            if text not in _FUNCTIONS:
                raise ParseError(_byte_offset(self.text, off),
                                 "a recognized function name", text)
            self.advance()
            args = [self.inner(off, self.expr)]
            if self.peek()[0] == ",":
                self.advance()
                args.append(self.inner(off, self.expr))
            self.expect(")", "')'")
            want = _FUNCTIONS[text][1]
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


def _nodes(e: Expr) -> Iterator[Expr]:
    """Every node of e, iteratively: each node before its children, the right
    child (the last argument) first. A subtree that occurs several times is
    visited each time."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, Call):
            stack.extend(node.args)


def free_vars(e: Expr) -> frozenset[str]:
    """The set of variable names occurring in ``e``."""
    return frozenset(node.name for node in _nodes(e) if isinstance(node, Variable))


def _exact_finite(value) -> bool:
    """math.isfinite for a value that may be an int: False, not an
    OverflowError, for one too large for a double."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _operands(node: Expr) -> list[tuple[Expr, bool]]:
    """node's children, each with whether node carries a non-finite value
    in it on (_FUNCTIONS, _BINARY_OPS)."""
    if isinstance(node, Unary):
        return [(node.child, True)]
    if isinstance(node, Binary):
        exponent = node.right.value if isinstance(node.right, Constant) else None
        base = type(exponent) is float and exponent > 0.0  # pow(inf, 0.0) is 1.0
        return list(zip((node.left, node.right),
                        (base, False) if node.op == "pow" else _BINARY_OPS[node.op][2]))
    if isinstance(node, Call):
        return [(a, _FUNCTIONS[node.fn][2]) for a in node.args]
    return []


def _hidden(trees: Sequence[Expr]) -> set[int]:
    """The ids of the nodes of trees whose non-finite value a later
    operation could hide: an operand its node does not carry, and each
    operand of a hidden node without a check of its own (a negation, call
    or power). A root carries, into its quotient. A shared node is seen at
    most twice: once, and again if a later use hides it."""
    state, stack = {}, [(root, False) for root in trees]
    while stack:
        node, hidden = stack.pop()
        if state.get(id(node), -1) >= hidden:
            continue
        state[id(node)] = hidden
        through = hidden and not (isinstance(node, Binary) and node.op != "pow")
        stack.extend((child, through or not carries) for child, carries in _operands(node))
    return {key for key, hidden in state.items() if hidden}


class _Code:
    """Generated code for trees over one namespace, node by node. Without
    var, a variable reads its value from a mapping, which _binding checks;
    with var, every variable is the point ``arg``, and each node of params
    is an argument of the code, named in self.params. emit gives each node
    one temporary, in tree order (left before right, arguments before the
    call), followed by the node's own check, which raises the node's
    DomainError through a callable that renders the node only then. A
    subtree that occurs several times as one object (the oracle's
    derivative trees share their parts, a rule check's combined function
    shares f's and g's trees) is one temporary. Only temporary names, the
    repr of float constants and the symbols of _BINARY_OPS are written into
    the code: every other object (readers, nodes, messages, functions,
    other constants) reaches it through the namespace. A temporary in exact
    may hold a number that is not a float, such as an int: it is a constant
    that is not a float, or a node over one with no variable below it. Only
    such a node's check tests for a number too large for a double; a node
    that computes in floats keeps the bare isfinite.

    With hidden, _hidden's set, the code is a level loop's, which exists
    only to compute values or raise: a variable is ``arg`` and a finite
    float constant its repr in brackets, with no temporary, a float node
    is tested only if it is hidden, and a float constant divisor only if it
    is 0. arg_uses holds, per variable, whether it is hidden."""

    def __init__(self, var: str | None = None, params: Sequence[Expr] = (),
                 hidden: set[int] | None = None):
        self.ns = {"__builtins__": {}, "isfinite": math.isfinite, "floor": math.floor,
                   "pow": math.pow, "type": type, "float": float, "real": _real,
                   "Raised": (ValueError, OverflowError)}
        self.var, self.lines, self.exact, self.hidden = var, [], set(), hidden
        self.temps = {id(p): f"p{i}" for i, p in enumerate(params)}
        self.params = list(self.temps.values())
        self._gate, self.arg_uses = None, []

    def ref(self, obj) -> str:  # obj's name in the namespace
        name = f"k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def gate(self) -> str:  # the error of a variable bound to no finite real, made once
        if self._gate is None:
            self._gate = self.ref(partial(DomainError, "variable is not bound to a finite real",
                                          subject=self.var))
        return self._gate

    def define(self, signature: str, body: Sequence[str]) -> Callable:
        source = f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, "<expression>", "exec"), self.ns)
        # out of its own namespace, so that it is freed as soon as it is unused
        return self.ns.pop(signature.split("(")[0])

    def emit(self, node: Expr) -> str:  # the temporary that holds node's value
        lines, exact, ref = self.lines, self.exact, self.ref
        if id(node) in self.temps:
            return self.temps[id(node)]
        lean = self.hidden is not None
        if lean and isinstance(node, Variable):
            self.arg_uses.append(id(node) in self.hidden)
            return self.temps.setdefault(id(node), "arg")
        float_constant = isinstance(node, Constant) and type(node.value) is float
        if lean and float_constant and math.isfinite(node.value):
            return self.temps.setdefault(id(node), f"({node.value!r})")
        t = self.temps[id(node)] = f"t{len(self.temps)}"

        def fail(message: str, argument: str = "") -> str:  # node's raise statement
            def error(argument=None):
                return DomainError(message, subject=render(node), argument=argument)
            return f"raise {ref(error)}({argument})"

        if isinstance(node, Constant):
            value = node.value
            error = partial(DomainError, "constant is not a finite real", argument=value)
            try:  # a constant keeps its own type: the gate only checks it
                _real(value, error)
                lines.append(f"{t} = {repr(value) if type(value) is float else ref(value)}")
            except DomainError:
                lines.append(f"raise {ref(error)}()")
            if type(value) is not float:
                exact.add(t)
        elif isinstance(node, Variable):
            lines.append(f"{t} = " + ("arg" if self.var is not None
                                      else f"{ref(_binding(node.name))}(arg)"))
        elif isinstance(node, Unary):
            child = self.emit(node.child)
            lines.append(f"{t} = -{child}")
            if child in exact:
                exact.add(t)
        elif isinstance(node, Binary):
            left, right = self.emit(node.left), self.emit(node.right)
            if left in exact and right in exact:
                exact.add(t)
            if node.op == "pow":
                exponent = node.right.value if isinstance(node.right, Constant) else None
                if not (type(exponent) is float and exponent.is_integer()):
                    # an integral finite float exponent never fails this test
                    lines.append(f"if {left} < 0.0 and {right} != floor({right}): "
                                 + fail("negative base with non-integer exponent", left))
                lines.extend(["try:", f"    {t} = pow({left}, {right})", "except Raised:",
                              f"    {fail('power is not a finite real', left)} from None"])
            else:
                # a float constant divisor, written in place, is tested only if it is 0
                if node.op == "div" and not (right[0] == "(" and node.right.value != 0.0):
                    lines.append(f"if {right} == 0.0: {fail('division by zero', right)}")
                lines.append(f"{t} = {left} {_BINARY_OPS[node.op][0]} {right}")
                if t in exact or not lean or id(node) in self.hidden:
                    finite = ref(_exact_finite) if t in exact else "isfinite"
                    lines.append(f"if not {finite}({t}): {fail('result is not a finite real')}")
        else:
            op, arity, _ = _FUNCTIONS[node.fn]
            if len(node.args) != arity:  # a hand-built call; parse checks its own
                raise ValueError(f"{node.fn} takes {arity} argument(s), got {len(node.args)}")
            args = [self.emit(a) for a in node.args]
            if exact.intersection(args):  # min and max return an argument as it is
                exact.add(t)
            lines.extend(["try:", f"    {t} = {ref(op)}({', '.join(args)})",
                          "except Raised:",
                          f"    {fail(node.fn + ' applied outside its domain', args[0])} from None"])
        return t


def _level_loop(name: str, trees: Sequence[Expr], params: Sequence[Expr] = ()) -> Callable:
    """The level loop ``name(x0, y0, y1, ..., p0, p1, ..., hs)`` of the
    difference quotients of trees, in a namespace of its own where every
    variable is the point (f and g may name theirs differently) and a node
    of params is an argument p<j>. x0 is taken as float(x0 - 0.0) once (it
    fails as x0 + h does), then each node of the trees is computed once per
    h of hs, at x0 + h. For the i-th tree it returns the list of (value -
    y<i>) / h: one tree's list as it is, several as a tuple. The code is
    lean (_Code, _hidden) and each list is tested once, after the loop, so
    the loop raises, though not always the same error, wherever a tree
    raises at a point or a quotient is not finite; h == 0 divides by zero."""
    code = _Code("x", params, _hidden(trees))
    temps = [code.emit(root) for root in trees]
    not_finite = code.ref(partial(DomainError, "difference quotient is not a finite real"))
    # the point's own test, where a use of it could hide it or no tree reads it
    if any(code.arg_uses) or not code.arg_uses:
        code.lines.insert(0, f"if not isfinite(arg): raise {code.gate()}(argument=arg)")
    code.ns.update(sum=sum, all=all, map=map)
    ys, lists = [f"y{i}" for i in range(len(trees))], [f"o{i}" for i in range(len(trees))]
    return code.define(f"{name}({', '.join(['x0', *ys, *code.params, 'hs'])})", [
        "x0 = float(x0 - 0.0)", *(f"{o} = []" for o in lists), "for h in hs:",
        "    arg = x0 + h", *(f"    {line}" for line in code.lines),
        *(f"    {o}.append(({t} - {y}) / h)" for o, t, y in zip(lists, temps, ys)),
        # a sum is finite only if every term is, and all() runs only where it overflows
        *(f"if not (isfinite(sum({o})) or all(map(isfinite, {o}))): raise {not_finite}()"
          for o in lists),
        f"return {', '.join(lists)}"])


def _generate(trees: Sequence[Expr]) -> Callable:
    """Compile trees, once, into a generator function of a mapping, which
    _binding reads each variable from; it yields each tree's value before
    the code of the next tree's unshared nodes runs."""
    code = _Code()
    for root in trees:
        code.lines.append(f"yield {code.emit(root)}")
    return code.define("f(arg)", code.lines)


def _binding(name: str) -> Callable[[Mapping[str, float]], float]:
    error = partial(DomainError, "variable is not bound to a finite real", subject=name)

    def variable(bindings: Mapping[str, float]) -> float:
        if name not in bindings:
            raise UnboundVariableError(name)
        return _real(bindings[name], error)
    return variable


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE-double evaluation. Out-of-domain conditions (division by zero,
    log/sqrt of negatives, non-real powers, overflow, a non-finite constant
    or binding) raise DomainError, so the result is always finite. A binding
    is taken as a float, but a hand-built constant computes in its own type,
    so the result is a float unless only such constants reach the root:
    evaluate(Binary("add", Constant(2), Constant(3)), {}) is the int 5.
    It is evaluate_each's one-tree case: each call compiles one function
    for e (about 0.2 ms for a short expression), so use as_function for one
    expression at many points, and evaluate_each for many at one point."""
    return next(_generate([e])(bindings))


def evaluate_each(exprs: Sequence[Expr], bindings: Mapping[str, float]) -> Iterator[float]:
    """evaluate(e, bindings) for each e of exprs in turn, lazily, from one
    generated function: a node that several of them share as one object is
    evaluated once. Each value is yielded before any node of the next tree
    that no earlier tree shares is evaluated, so a caller that stops early
    never sees the later trees' errors, and a tree that fails raises what
    evaluate raises for it. A hand-built call with the wrong number of
    arguments in any tree raises ValueError here, before the first value."""
    return _generate(exprs)(bindings) if exprs else iter(())


def render(e: Expr) -> str:
    """Canonical printer. For every tree produced by parse(),
    parse(render(e)) == e structurally."""
    if isinstance(e, Constant):
        _real(e.value, lambda **_: ValueError("cannot render a non-finite constant"))
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
    symbol, level, _ = _BINARY_OPS[e.op]
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
    non-finite value.

    f keeps e as ``f.expr``, from which fderiv builds its level loops; it
    keeps f's own loop on f, as ``f._quotients``."""
    names = free_vars(e)
    if var is None:
        if len(names) > 1:
            raise ValueError(f"expression has several free variables: {sorted(names)}")
        var = next(iter(names)) if names else "x"
    elif names - {var}:
        raise ValueError(f"expression has free variables besides {var!r}: "
                         f"{sorted(names - {var})}")

    code = _Code(var)
    root = code.emit(e)
    # the gate for all but a finite float; a level's x0 + h is a float: its loop's test is bare
    f = code.define("f(arg)", [
        f"if type(arg) is not float or not isfinite(arg): arg = real(arg, {code.gate()})",
        *code.lines, f"return {root}"])
    f.expr = e
    return f
