"""Drift expressions: parsing, second-order forward-mode AD, bound checking.

The drift f(x) is supplied as a small expression over the single variable x
with +, -, *, /, ^ (constant exponent only) and the functions sin, cos, exp,
tanh.  Evaluation supports plain floats, numpy arrays, and order-2 jets, so
f, f' and f'' come out of a single pass with no finite differencing.
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
_MAX_DEPTH = 100  # AST nesting, far inside the recursive evaluator's stack


# ---------------------------------------------------------------------------
# Order-2 jets: (value, first derivative, second derivative) propagated
# through arithmetic.  Components may be scalars or numpy arrays.

class Jet2:
    __slots__ = ("f", "f1", "f2")

    def __init__(self, f, f1, f2):
        self.f = f
        self.f1 = f1
        self.f2 = f2

    @staticmethod
    def variable(x):
        zero = _zeros_like(x)
        return Jet2(x, zero + 1.0, zero)

    def __add__(self, o):
        return Jet2(self.f + o.f, self.f1 + o.f1, self.f2 + o.f2)

    def __sub__(self, o):
        return Jet2(self.f - o.f, self.f1 - o.f1, self.f2 - o.f2)

    def __mul__(self, o):
        return Jet2(
            self.f * o.f,
            self.f1 * o.f + self.f * o.f1,
            self.f2 * o.f + 2.0 * self.f1 * o.f1 + self.f * o.f2,
        )

    def __truediv__(self, o):
        q = self.f / o.f
        q1 = (self.f1 - q * o.f1) / o.f
        q2 = (self.f2 - 2.0 * q1 * o.f1 - q * o.f2) / o.f
        return Jet2(q, q1, q2)

    def __neg__(self):
        return Jet2(-self.f, -self.f1, -self.f2)

    def _chain(self, g, g1, g2):
        return Jet2(g, g1 * self.f1, g2 * self.f1 * self.f1 + g1 * self.f2)

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(c, -s, -c)

    def exp(self):
        e = np.exp(self.f)
        return self._chain(e, e, e)

    def tanh(self):
        t = np.tanh(self.f)
        sech2 = 1.0 - t * t
        return self._chain(t, sech2, -2.0 * t * sech2)

    def pow_const(self, n):
        v = self.f
        if n != int(n) and np.any(v < 0.0):
            raise DriftDomainError("negative base with non-integer exponent")
        if n < 1 and np.any(v == 0.0):
            raise DriftDomainError("zero base with exponent below 1")
        g = np.power(v, n)
        g1 = n * np.power(v, n - 1) if n != 0 else _zeros_like(v)
        g2 = n * (n - 1) * np.power(v, n - 2) if n not in (0, 1) else _zeros_like(v)
        return self._chain(g, g1, g2)


def _zeros_like(v):
    return np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0


def _promote(lhs, rhs):
    """Lift a plain number to a constant jet next to a Jet2 operand (zeros,
    not 0 * f, so an overflowed f = inf does not turn the constant to nan)."""
    if isinstance(lhs, Jet2) and not isinstance(rhs, Jet2):
        zero = _zeros_like(lhs.f)
        rhs = Jet2(rhs + zero, zero, zero)
    elif isinstance(rhs, Jet2) and not isinstance(lhs, Jet2):
        zero = _zeros_like(rhs.f)
        lhs = Jet2(lhs + zero, zero, zero)
    return lhs, rhs


def _div(lhs, rhs):
    if np.any((rhs.f if isinstance(rhs, Jet2) else rhs) == 0.0):
        raise DriftDomainError("division by zero")
    q = lhs / rhs
    if isinstance(q, Jet2):
        # rounding in the quotient rule grows by 1/|divisor| per order, so
        # next to a divisor's zero (x/sin(x) at 1e-12) f' and f'' are noise
        e1 = _EPS * (abs(lhs.f1) + 2.0 * abs(q.f * rhs.f1)) / abs(rhs.f)
        e2 = 2.0 * e1 * abs(rhs.f1 / rhs.f)
        if np.any((e1 > 1e-6 * (1.0 + abs(q.f1)))
                  | (e2 > 1e-6 * (1.0 + abs(q.f2)))):
            raise DriftDomainError("quotient derivatives lost to rounding")
    return q


# add, sub, mul and div for floats, arrays and jets alike, after _promote
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": _div}


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
            return ("pow", base, float(_eval_ast(exponent, 0.0)))
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


def _eval_ast(node, x):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "x":
        return x
    if kind == "neg":
        return -_eval_ast(node[1], x)
    if kind in _BINARY:
        lhs, rhs = _promote(_eval_ast(node[1], x), _eval_ast(node[2], x))
        return _BINARY[kind](lhs, rhs)
    if kind == "pow":
        base = _eval_ast(node[1], x)
        n = node[2]
        if isinstance(base, Jet2):
            return base.pow_const(n)
        if n != int(n) and np.any(base < 0.0):
            raise DriftDomainError("negative base with non-integer exponent")
        return np.power(base, n)
    if kind == "call":
        arg = _eval_ast(node[2], x)
        name = node[1]
        if isinstance(arg, Jet2):
            return getattr(arg, name)()
        return getattr(np, name)(arg)
    raise AssertionError(f"unknown node {kind!r}")


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
    # a divisor in x: plain values go through the jets, so that they fail
    # where the jets do (see _div)
    _x_divisor: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_x_divisor", _has_x_divisor(self.ast))

    def __call__(self, x):
        if self._x_divisor:
            return self.jets(x)[0]
        return _eval_ast(self.ast, x)

    def jets(self, x):
        """Return (f, f', f'') at x (scalar or array) via order-2 duals."""
        out = _eval_ast(self.ast, Jet2.variable(x))
        if not isinstance(out, Jet2):  # constant expression
            z = _zeros_like(x)
            return out + z, z, _zeros_like(x)
        return out.f, out.f1, out.f2

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
        # Retry pointwise to report where evaluation broke down.
        for x in xs:
            try:
                d.jets(float(x))
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
