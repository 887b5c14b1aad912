"""Drift expressions: parsing, truncated Taylor arithmetic, bound checking.

The drift f(x) is supplied as a small expression over the single variable x
with +, -, *, /, ^ (constant exponent only) and the functions sin, cos, exp,
tanh.  One evaluator serves orders 0, 1 and 2, so f, (f, f') or
(f, f', f'') come out of a single pass with no finite differencing, and no
order is computed that was not asked for.  It runs once per order, at the
order's first use, recording its ufunc calls into a program that each call,
at a scalar or an array, runs in buffers of its own.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .lamperti import _BLOCK_CELLS, _result


class DriftError(ValueError):
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
# nesting of the source and of its AST, far inside the stack of the
# recursive parser and emitter
_MAX_DEPTH = 100


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
# Tokenizer and precedence-climbing parser.  AST nodes are plain tuples:
#   ("num", value) ("x",) ("neg", e) ("add"|"sub"|"mul"|"div", l, r)
#   ("pow", base, float_exponent) ("call", name, arg)

# a number, a name, or any other single character; whitespace is skipped
_TOKEN = re.compile(r"(?P<num>[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d]\w*)|\S")
# each infix operator's node, its binding power, and that of its right
# operand: ^ is right-associative, its right operand taking a further ^
_INFIX = {"+": ("add", 1, 1), "-": ("sub", 1, 1), "*": ("mul", 2, 2),
          "/": ("div", 2, 2), "^": ("pow", 4, 3)}
_PREFIX = 3  # a sign's operand: -x^2 is -(x^2), -x*2 is (-x)*2
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(source):
    """(kind, value, position) of each token, then ("end", ...)."""
    tokens = []
    for m in _TOKEN.finditer(source):
        text, i = m.group(), m.start()
        if m.lastgroup == "num":
            try:
                tokens.append(("num", float(text), i))
            except ValueError:
                raise DriftParseError(f"bad number {text!r}", i) from None
        elif m.lastgroup == "name":
            tokens.append(("name", text, i))
        elif text in "+-*/^()":
            tokens.append((text, text, i))
        else:
            raise DriftParseError(f"unexpected character {text!r}", i)
    tokens.append(("end", "end of input", len(source)))
    return tokens


def _expect(tokens, kind):
    found, value, pos = tokens.pop()
    if found != kind:
        raise DriftParseError(f"expected {kind!r}, found {value!r}", pos)


def _expr(tokens, bp, depth):
    """The expression at the end of tokens (in reverse order, consumed from
    the end), up to an infix operator that binds no tighter than bp.  Every
    parenthesis, call argument and exponent is parsed one level deeper, so
    past _MAX_DEPTH levels the parse ends, not the stack.  A run of signs or
    a right operand of + - * / stays at its level (as deep as the tree, which
    parse_drift caps), and at most four frames are spent per level."""
    kind, value, pos = tokens.pop()
    if depth > _MAX_DEPTH:
        raise DriftParseError(f"nested deeper than {_MAX_DEPTH} levels", pos)
    if kind in ("+", "-"):  # a run of signs, read by a loop
        minus = kind == "-"
        while tokens[-1][0] in ("+", "-"):
            minus += tokens.pop()[0] == "-"
        node = _expr(tokens, _PREFIX, depth)
        for _ in range(minus):
            node = ("neg", node)
    elif kind == "(":
        node = _expr(tokens, 0, depth + 1)
        _expect(tokens, ")")
    elif kind == "num":
        node = ("num", value)
    elif kind != "name":
        raise DriftParseError(f"unexpected token {value!r}", pos)
    elif value == "x":
        node = ("x",)
    elif value in _FUNCTIONS:
        _expect(tokens, "(")
        node = ("call", value, _expr(tokens, 0, depth + 1))
        _expect(tokens, ")")
    elif value in _CONSTANTS:
        node = ("num", _CONSTANTS[value])
    elif value in ("sqrt", "log", "ln", "tan", "abs"):
        raise DriftParseError(f"unsupported function {value!r}", pos)
    else:
        raise DriftParseError(f"unknown identifier {value!r}", pos)
    while (op := tokens[-1][0]) in _INFIX and _INFIX[op][1] > bp:
        pos = tokens.pop()[2]
        name, _, right_bp = _INFIX[op]
        rhs = _expr(tokens, right_bp, depth + (op == "^"))
        if op == "^":  # a constant exponent, folded to a float
            if _depth(rhs) > _MAX_DEPTH:  # a long sum, before recursing on it
                raise DriftParseError(
                    f"nested deeper than {_MAX_DEPTH} levels", pos)
            if _contains_x(rhs):
                raise DriftParseError("exponent must be constant", pos)
            with np.errstate(all="ignore"):  # inf or nan is refused below
                rhs = float(_taylor(rhs, 0.0, 0)[0])
            if not math.isfinite(rhs):
                raise DriftParseError("exponent must be finite", pos)
        node = (name, node, rhs)
    return node


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
    (ufunc, operands, result) to code, as written, and returns the result's
    _Reg."""

    def __init__(self, code):
        self.code = code

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert method == "__call__" and not kwargs
        out = _Reg(self.code)
        self.code.append((ufunc, inputs, out))
        return out


class _Program:
    """(f, f', f'')[:k + 1] of an AST at shift + x as a straight-line
    program: the ufunc calls that _taylor makes on an array x, on the same
    operands and in the same order, so each result has the same bits.
    Domain checks run in their place among them; one that fails on
    constants alone (1/0 + x) ends the program.  Constants are folded once,
    here.

    A run owns its buffers, each of x's shape: a result overwrites an
    operand read for the last time, so a chain of unary or constant-operand
    calls runs in place, and a new buffer is taken only while two values of
    x are live at once.  x itself is never written, and every value comes
    out in a buffer of its own."""

    def __init__(self, ast, k, shift):
        code = []
        x = _Reg(code)
        try:
            with np.errstate(all="ignore"):  # warnings of the folds
                # no shift for an AST without x: nothing would read it
                at = x if shift is None or not _contains_x(ast) else shift + x
                outs = _taylor(ast, at, k)
        except DriftDomainError as exc:
            code.append((lambda: True, (), str(exc)))
            outs = ()
        last = {}
        for i, (f, args, out) in enumerate(code):
            last.update((id(a), i) for a in args)
        last.update((id(v), len(code)) for v in outs)
        # slots: the constants, then x, then the buffers
        consts = [a for _, args, _ in code for a in args
                  if not isinstance(a, _Reg)]
        consts += [v for v in outs if not isinstance(v, _Reg)]
        slot = {id(c): i for i, c in enumerate(consts)}
        slot[id(x)] = len(consts)
        free, n_slots, self._code = [], len(consts) + 1, []
        for i, (f, args, out) in enumerate(code):
            ins = tuple(slot[id(a)] for a in args)
            for a, s in zip(args, ins):  # a buffer read for the last time
                if s > len(consts) and last[id(a)] == i and s not in free:
                    free.append(s)
            if isinstance(out, _Reg):
                if not free:
                    free.append(n_slots)
                    n_slots += 1
                slot[id(out)] = out = free.pop()
            self._code.append((f, ins, out))
        self._consts = consts
        self._n_buffers = n_slots - len(consts) - 1
        self._outs = tuple(slot[id(v)] for v in outs)
        code.clear()  # each _Reg holds code: no cycle left for the collector

    def __call__(self, x):
        """The results at x (a scalar runs as a 0-d array), each in a
        buffer of x's shape that it owns."""
        x = np.asarray(x, dtype=float)
        regs = [*self._consts, x]
        regs += [np.empty_like(x) for _ in range(self._n_buffers)]
        for f, ins, out in self._code:
            args = [regs[i] for i in ins]
            if type(out) is str:
                if f(*args):
                    raise DriftDomainError(out)
            else:
                f(*args, out=regs[out])
        # a value is x, a constant (each copied), or a call's own result
        return [regs[i] if i > len(self._consts) else np.full(x.shape, regs[i])
                for i in self._outs]


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
        return tuple(map(_result, self._programs[order](x)[:k + 1]))

    def __call__(self, x):
        """f at x: a float for a scalar, else a buffer of x's shape."""
        return self._eval(x, 0)[0]

    def jets(self, x, order=2):
        """(f, f', f'')[:order + 1] at x, each as __call__ gives f."""
        return self._eval(x, order)

    @property
    def is_constant(self):
        return not _contains_x(self.ast)


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
    if not isinstance(source, str):
        raise TypeError(f"drift expression must be a string, not "
                        f"{type(source).__name__}")
    tokens = _tokenize(source)[::-1]
    ast = _expr(tokens, 0, 0)
    kind, value, pos = tokens[-1]
    if kind != "end":
        raise DriftParseError(f"trailing input {value!r}", pos)
    if _depth(ast) > _MAX_DEPTH:  # a long sum, built by a loop
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


def _finite_jets(d, x):
    """(f, f', f'') at x, with no floating-point warnings; DriftDomainError
    where evaluation breaks down or one of them is not finite."""
    with np.errstate(all="ignore"):
        jets = d.jets(x)
    if not all(np.all(np.isfinite(v)) for v in jets):
        raise DriftDomainError("f, f' or f'' is not finite")
    return jets


def validate_assumption(d, scan_range, epsilon, n):
    """Scan f over n equispaced points; pass iff min f stays above epsilon.
    DriftDomainError names the first point where f, f' or f'' cannot be
    evaluated or is not finite.

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
    # per block of _BLOCK_CELLS points: min f, max f, max |f'|, max |f''|,
    # so the jets' buffers hold a block, whatever the expression's size
    ends = []
    for b in range(0, n, _BLOCK_CELLS):
        block = xs[b:b + _BLOCK_CELLS]
        try:
            f, f1, f2 = _finite_jets(d, block)
        except DriftDomainError:
            # bisect for the first point where _finite_jets fails: a slice
            # fails iff one of its points does, so block[i:j] holds it
            i, j = 0, block.size
            while j - i > 1:
                mid = (i + j) // 2
                try:
                    _finite_jets(d, block[i:mid])
                    i = mid
                except DriftDomainError:
                    j = mid
            x = float(block[i])
            try:
                _finite_jets(d, x)
            except DriftDomainError as exc:
                raise DriftDomainError(f"{exc} at x={x!r}") from None
            raise
        ends.append((np.min(f), np.max(f), np.max(np.abs(f1)),
                     np.max(np.abs(f2))))
    mins, maxs, max1, max2 = np.array(ends).T
    f_min = float(np.min(mins))
    return AssumptionReport(
        f_min=f_min,
        f_max=float(np.max(maxs)),
        f1_max_abs=float(np.max(max1)),
        f2_max_abs=float(np.max(max2)),
        epsilon=float(epsilon),
        scan_range=(lo, hi),
        n_samples=int(n),
        passed=bool(f_min > epsilon),
    )
