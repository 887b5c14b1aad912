"""Drift expressions: parsing, truncated Taylor arithmetic, bound checking.

The drift f(x) is supplied as a small expression over the single variable x
with +, -, *, /, ^ (constant exponent only) and the functions sin, cos, exp,
tanh.  One evaluator serves plain floats and numpy arrays at orders 0, 1 and
2, so f, (f, f') or (f, f', f'') come out of a single pass with no finite
differencing, and no order is computed that was not asked for.  It runs once
per order, at the order's first use, recording its ufunc calls into a
program that each call runs in buffers of its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


class DriftError(Exception):
    """Base class for drift-expression failures."""


class DriftParseError(DriftError):
    """Malformed source text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DriftDomainError(DriftError):
    """Evaluation left the domain (division by zero, bad power base)."""


_FUNCTIONS = ("sin", "cos", "exp", "tanh")
_EPS = np.finfo(float).eps
_MAX_DEPTH = 100  # AST nesting, far inside the recursive emitter's stack


# ---------------------------------------------------------------------------
# Truncated Taylor arithmetic: a node evaluates to (f, f', f'')[:k + 1], the
# components scalars or numpy arrays, each order computed only if asked for.
# _taylor runs once per order of a DriftExpr, on a stand-in for x (_Reg) that
# records the ufunc calls into a _Program; on constants it computes, as it
# does for the constant exponent of a power.

# each function's g, g' = d1(v, g) and g'' = d2(v, g, g') at its argument v
_CALLS = {
    "sin": (np.sin, lambda v, g: np.cos(v), lambda v, g, g1: -g),
    "cos": (np.cos, lambda v, g: -np.sin(v), lambda v, g, g1: -g),
    "exp": (np.exp, lambda v, g: g, lambda v, g, g1: g),
    "tanh": (np.tanh, lambda v, g: 1.0 - g * g,
             lambda v, g, g1: -2.0 * g * g1),
}


def _chain(u, g, d1, d2):
    """g(u) to the order of u, with g' and g'' from d1 and d2 as in _CALLS."""
    g0 = g(u[0])
    if len(u) == 1:
        return (g0,)
    g1 = d1(u[0], g0)
    if len(u) == 2:
        return g0, g1 * u[1]
    return g0, g1 * u[1], d2(u[0], g0, g1) * u[1] * u[1] + g1 * u[2]


def _any_zero(v):
    return np.any(v == 0.0)


def _any_negative(v):
    return np.any(v < 0.0)


def _any_lost(e1, bound1, e2, bound2):
    return np.any((e1 > bound1) | (e2 > bound2))


def _refuse(message, test, *args):
    """DriftDomainError(message) where test(*args) holds: at once for
    constants, else from the program, in its place among the ufunc calls."""
    reg = next((a for a in args if isinstance(a, _Reg)), None)
    if reg is not None:
        reg.code.append((test, args, message))
    elif test(*args):
        raise DriftDomainError(message)


def _div(a, b):
    """a / b to the order of a and b."""
    _refuse("division by zero", _any_zero, b[0])
    q = (a[0] / b[0],)
    if len(a) > 1:
        q += ((a[1] - q[0] * b[1]) / b[0],)
    if len(a) > 2:
        q += ((a[2] - 2.0 * q[1] * b[1] - q[0] * b[2]) / b[0],)
        # rounding in the quotient rule grows by 1/|divisor| per order, so
        # next to a divisor's zero (x/sin(x) at 1e-12) f' and f'' are noise.
        # The check needs f'': a drift with x in a divisor runs at order 2
        # whatever the order asked (DriftExpr._eval), and with a constant
        # divisor the check never fires
        e1 = _EPS * (abs(a[1]) + 2.0 * abs(q[0] * b[1])) / abs(b[0])
        e2 = 2.0 * e1 * abs(b[1] / b[0])
        _refuse("quotient derivatives lost to rounding", _any_lost,
                e1, 1e-6 * (1.0 + abs(q[1])), e2, 1e-6 * (1.0 + abs(q[2])))
    return q


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser.  AST nodes are plain tuples:
#   ("num", value) ("x",) ("neg", e) ("add"|"sub"|"mul"|"div", l, r)
#   ("pow", base, float_exponent) ("call", name, arg)

def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            try:
                value = float(source[i:j])
            except ValueError:
                raise DriftParseError(f"bad number {source[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise DriftParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise DriftParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise DriftParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            tok = self.next()
            return ("neg", self.factor())
        if self.peek()[0] == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.next()
            exponent = self.factor()
            if _contains_x(exponent):
                raise DriftParseError("exponent must be constant", tok[2])
            n = float(_taylor(exponent, 0.0, 0)[0])
            if not math.isfinite(n):
                raise DriftParseError("exponent must be finite", tok[2])
            return ("pow", base, n)
        return base

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return ("num", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "x":
                return ("x",)
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", value, arg)
            if value == "pi":
                return ("num", math.pi)
            if value == "e":
                return ("num", math.e)
            if value in ("sqrt", "log", "ln", "tan", "abs"):
                raise DriftParseError(f"unsupported function {value!r}", pos)
            raise DriftParseError(f"unknown identifier {value!r}", pos)
        raise DriftParseError(f"unexpected token {value!r}", pos)


def _depth(node):
    """Nesting depth of an AST, found level by level without recursion."""
    level, depth = [node], 0
    while level:
        level = [c for n in level for c in n[1:] if isinstance(c, tuple)]
        depth += 1
    return depth


def _contains_x(node):
    if node[0] == "x":
        return True
    return any(_contains_x(c) for c in node[1:] if isinstance(c, tuple))


def _has_x_divisor(node):
    """Whether some division in node has x in its divisor."""
    if node[0] == "div" and _contains_x(node[2]):
        return True
    return any(_has_x_divisor(c) for c in node[1:] if isinstance(c, tuple))


def _taylor(node, x, k):
    """(f, f', f'')[:k + 1] of node at x: a float, an array or a _Reg."""
    kind = node[0]
    if kind == "num":
        return (node[1], 0.0, 0.0)[:k + 1]
    if kind == "x":
        return (x, 1.0, 0.0)[:k + 1]
    if k and not _contains_x(node):
        # an x-free subtree: its value, with exact zeros as derivatives (not
        # 0 * g', which an overflowed g' = inf would turn to nan) and none of
        # their domain checks (0^0.5 + x is defined at every order)
        return (_taylor(node, x, 0)[0], 0.0, 0.0)[:k + 1]
    if kind == "neg":
        return tuple(-c for c in _taylor(node[1], x, k))
    if kind == "call":
        return _chain(_taylor(node[2], x, k), *_CALLS[node[1]])
    if kind == "pow":
        u, n = _taylor(node[1], x, k), node[2]
        if n != int(n):
            _refuse("negative base with non-integer exponent", _any_negative,
                    u[0])
        if k and n < 1:
            _refuse("zero base with exponent below 1", _any_zero, u[0])
        return _chain(
            u, lambda v: np.power(v, n),
            lambda v, g: n * np.power(v, n - 1) if n != 0 else 0.0,
            lambda v, g, g1:
                n * (n - 1) * np.power(v, n - 2) if n not in (0, 1) else 0.0)
    a, b = _taylor(node[1], x, k), _taylor(node[2], x, k)
    if kind == "add":
        return tuple(map(operator.add, a, b))
    if kind == "sub":
        return tuple(map(operator.sub, a, b))
    if kind == "mul":
        out = (a[0] * b[0],)
        if k:
            out += (a[1] * b[0] + a[0] * b[1],)
        if k > 1:
            out += (a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],)
        return out
    if kind == "div":
        return _div(a, b)
    raise AssertionError(f"unknown node {kind!r}")


# ---------------------------------------------------------------------------
# Compiled programs: the ufunc calls of _taylor, each writing into a buffer
# of the call's own.

class _Reg(np.lib.mixins.NDArrayOperatorsMixin):
    """A value of x in a program being recorded: a ufunc applied to it (by
    Python's operators too, operands in their order) appends
    (ufunc, operands, result) to code and returns the result's _Reg."""

    def __init__(self, code):
        self.code = code

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert method == "__call__" and not kwargs
        out = _Reg(self.code)
        self.code.append((ufunc, inputs, out))
        return out


def _always(*args):
    return True


# the ufuncs that Python's operators call on arrays, and those operators,
# which a scalar x runs as numbers do
_OPERATORS = {np.add: operator.add, np.subtract: operator.sub,
              np.multiply: operator.mul, np.divide: operator.truediv,
              np.negative: operator.neg, np.absolute: operator.abs}


class _Program:
    """(f, f', f'')[:k + 1] of an AST at shift + x as a straight-line
    program: the ufunc calls that _taylor makes on an array x, on the same
    operands and in the same order, so each result has the same bits (a
    scalar x runs Python's operators where _taylor used them, as it did).
    Domain checks run in their place among them; one that fails on
    constants alone (1/0 + x) ends the program.  Calls whose results go
    unread are dropped, and constants are folded once, here.

    A run owns its buffers, each of x's shape: a result overwrites an
    operand read for the last time, so a chain of unary or constant-operand
    calls runs in place, and a new buffer is taken only while two values of
    x are live at once.  x itself is never written."""

    def __init__(self, ast, k, shift):
        code = []
        x = _Reg(code)
        try:
            with np.errstate(all="ignore"):  # warnings of the folds
                outs = _taylor(ast, x if shift is None else shift + x, k)
        except DriftDomainError as exc:
            code.append((_always, (), str(exc)))
            outs = ()
        # keep the checks and what they or the results read
        live = {id(v) for v in outs}
        kept = []
        for f, args, out in reversed(code):
            if isinstance(out, _Reg) and id(out) not in live:
                continue
            kept.append((f, args, out))
            live.update(id(a) for a in args)
        kept.reverse()
        last = {}
        for i, (f, args, out) in enumerate(kept):
            last.update((id(a), i) for a in args)
        last.update((id(v), len(kept)) for v in outs)
        # slots: the constants, then x, then the buffers
        consts = [a for _, args, _ in kept for a in args
                  if not isinstance(a, _Reg)]
        consts += [v for v in outs if not isinstance(v, _Reg)]
        slot = {id(c): i for i, c in enumerate(consts)}
        slot[id(x)] = len(consts)
        free, n_slots, self._code = [], len(consts) + 1, []
        for i, (f, args, out) in enumerate(kept):
            ins = tuple(slot[id(a)] for a in args)
            for a, s in zip(args, ins):  # a buffer read for the last time
                if s > len(consts) and last[id(a)] == i and s not in free:
                    free.append(s)
            if isinstance(out, _Reg):
                if not free:
                    free.append(n_slots)
                    n_slots += 1
                slot[id(out)] = out = free.pop()
            self._code.append((f, _OPERATORS.get(f, f), ins, out))
        self._consts = consts
        self._n_buffers = n_slots - len(consts) - 1
        self._outs = tuple(slot[id(v)] for v in outs)
        code.clear()  # each _Reg holds code: no cycle left for the collector

    def __call__(self, x):
        """The results at x: for an array, each a buffer of x's shape, a
        constant, or x itself; for a scalar, the numbers _taylor gives."""
        scalar = np.ndim(x) == 0
        if scalar:
            regs = [*self._consts, x] + [None] * self._n_buffers
        else:
            x = np.asarray(x, dtype=float)
            regs = [*self._consts, x]
            regs += [np.empty_like(x) for _ in range(self._n_buffers)]
        for f, op, ins, out in self._code:
            args = [regs[i] for i in ins]
            if type(out) is not int:
                if f(*args):
                    raise DriftDomainError(out)
            elif scalar:
                regs[out] = op(*args)
            else:
                f(*args, out=regs[out])
        return [regs[i] for i in self._outs]


def _print_ast(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "x":
        return "x"
    if kind == "neg":
        return f"(-{_print_ast(node[1])})"
    if kind in ("add", "sub", "mul", "div"):
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        return f"({_print_ast(node[1])} {op} {_print_ast(node[2])})"
    if kind == "pow":
        # the base gets its own parens: '^' binds tighter than unary minus,
        # so a bare negative literal would otherwise reparse as -(b ^ n)
        return f"(({_print_ast(node[1])}) ^ {repr(node[2])})"
    if kind == "call":
        return f"{node[1]}({_print_ast(node[2])})"
    raise AssertionError(f"unknown node {kind!r}")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftExpr:
    """Immutable parsed drift; safe to share between workers."""

    ast: tuple
    source_text: str
    # if set, the drift is read at _shift + x, the programs' first call
    _shift: float | None = field(default=None, repr=False)
    # a divisor in x: every order runs at 2, so that values and (f, f') fail
    # where f'' does (see _div)
    _x_divisor: bool = field(init=False, repr=False, compare=False)
    # the program of each order run so far, compiled at its first use (a map
    # runs orders 0 and 1, validate_assumption order 2); threads that
    # compile one order at once build equal programs, and either is kept
    _programs: dict = field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_x_divisor", _has_x_divisor(self.ast))

    def _eval(self, x, k):
        order = 2 if self._x_divisor else k
        if order not in self._programs:
            self._programs[order] = _Program(self.ast, order, self._shift)
        return self._programs[order](x)[:k + 1]

    def __call__(self, x):
        """f at x (scalar or array)."""
        return self._eval(x, 0)[0]

    def jets(self, x, order=2):
        """(f, f', f'')[:order + 1] at x (scalar or array), each of x's
        shape."""
        shape = np.shape(x)
        return tuple(c if np.shape(c) == shape else np.full(shape, c)
                     for c in self._eval(x, order))

    @property
    def is_constant(self):
        return not _contains_x(self.ast)

    def canonical(self):
        """Fully parenthesized form; re-parsing it evaluates identically."""
        return _print_ast(self.ast)


@dataclass(frozen=True)
class AssumptionReport:
    f_min: float
    f_max: float
    f1_max_abs: float
    f2_max_abs: float
    epsilon: float
    scan_range: tuple
    n_samples: int
    passed: bool


BUILTINS = {
    "two_plus_cos": "2 + cos(x)",
    "linear": "x",
    "unit": "1",
    "logistic_floor": "0.1 + tanh(x)^2",
}


def parse_drift(source):
    """Parse an expression in the variable x into a DriftExpr."""
    try:
        ast = _Parser(_tokenize(source)).parse()
    except RecursionError:  # the parser's own stack: nesting far past the cap
        ast = None
    if ast is None or _depth(ast) > _MAX_DEPTH:
        raise DriftParseError(f"nested deeper than {_MAX_DEPTH} levels", 0)
    return DriftExpr(ast=ast, source_text=source)


def builtin_drift(name):
    try:
        return parse_drift(BUILTINS[name])
    except KeyError:
        raise DriftError(
            f"unknown builtin drift {name!r}; available: {sorted(BUILTINS)}"
        ) from None


def drift_from_config(cfg):
    """Build a drift from {"expr": text} or {"builtin": name}."""
    if "expr" in cfg:
        return parse_drift(cfg["expr"])
    if "builtin" in cfg:
        return builtin_drift(cfg["builtin"])
    raise DriftError("drift config needs an 'expr' or 'builtin' key")


def validate_assumption(d, scan_range, epsilon, n):
    """Scan f over n equispaced points; pass iff min f stays above epsilon.

    Global boundedness cannot be certified from a finite scan, so the range
    is caller-chosen and reported back verbatim.
    """
    lo, hi = float(scan_range[0]), float(scan_range[1])
    if n < 2:
        raise ValueError("need at least 2 scan points")
    if not hi > lo:
        raise ValueError("scan range must be non-degenerate")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    xs = np.linspace(lo, hi, n)
    try:
        f, f1, f2 = d.jets(xs)
    except DriftDomainError:
        # bisect for the first point where evaluation breaks down: a slice
        # fails iff one of its points does, so xs[i:j] always holds it
        i, j = 0, n
        while j - i > 1:
            mid = (i + j) // 2
            try:
                d.jets(xs[i:mid])
                i = mid
            except DriftDomainError:
                j = mid
        x = float(xs[i])
        try:
            d.jets(x)
        except DriftDomainError as exc:
            raise DriftDomainError(f"{exc} at x={x!r}") from None
        raise
    f_min = float(np.min(f))
    return AssumptionReport(
        f_min=f_min,
        f_max=float(np.max(f)),
        f1_max_abs=float(np.max(np.abs(f1))),
        f2_max_abs=float(np.max(np.abs(f2))),
        epsilon=float(epsilon),
        scan_range=(lo, hi),
        n_samples=int(n),
        passed=bool(f_min > epsilon),
    )
