import math
import operator
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from shorttime import LampertiMap
from shorttime import drift as dmod
from shorttime.drift import (
    DriftDomainError,
    DriftExpr,
    DriftParseError,
    builtin_drift,
    parse_drift,
    validate_assumption,
)


class TestParse:
    def test_cos_example(self):
        d = parse_drift("2 + cos(x)")
        assert d(0.0) == pytest.approx(3.0)

    def test_identity(self):
        d = parse_drift("x")
        assert d(1.5) == 1.5

    def test_rational(self):
        d = parse_drift("1/(1+x^2)")
        assert d(1.0) == pytest.approx(0.5)

    def test_precedence_and_unary(self):
        assert parse_drift("-x^2")(3.0) == -9.0
        assert parse_drift("2*x + 3*x")(2.0) == 10.0
        assert parse_drift("2 - 3 - 4")(0.0) == -5.0

    def test_scientific_literals(self):
        assert parse_drift("1e-2 + x")(0.0) == pytest.approx(0.01)

    def test_syntax_error_has_position(self):
        with pytest.raises(DriftParseError) as exc:
            parse_drift("2 + * x")
        assert exc.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(DriftParseError, match="unknown identifier"):
            parse_drift("2 + y")

    def test_unsupported_function(self):
        with pytest.raises(DriftParseError, match="unsupported function"):
            parse_drift("sqrt(x)")

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(DriftParseError, match="constant"):
            parse_drift("2^x")

    @pytest.mark.parametrize("text", ["2 + x^1e400", "x^(0*1e400)"],
                             ids=["inf", "nan"])
    def test_non_finite_exponent_rejected(self, text):
        with pytest.raises(DriftParseError, match="exponent must be finite"):
            parse_drift(text)

    def test_trailing_garbage(self):
        with pytest.raises(DriftParseError):
            parse_drift("x + 1 )")

    @pytest.mark.parametrize("text, message, position", [
        ("1.2.3", "bad number '1.2.3'", 0),
        ("2 * .", "bad number '.'", 4),
        ("x # 1", "unexpected character '#'", 2),
        ("cos x", "expected '(', found 'x'", 4),
        ("x**2", "unexpected token '*'", 2),
        ("", "end of input", 0),
        ("2 +", "end of input", 3),
        ("cos(", "end of input", 4),
        ("(x", "expected ')', found 'end of input'", 2),
    ])
    def test_error_names_the_token_and_position(self, text, message,
                                                 position):
        with pytest.raises(DriftParseError, match=re.escape(message)) as exc:
            parse_drift(text)
        assert exc.value.position == position

    def test_unary_plus_and_constants(self):
        assert parse_drift("+x").ast == ("x",)
        assert parse_drift("2*+x").ast == ("mul", ("num", 2.0), ("x",))
        assert parse_drift("pi + e").ast == ("add", ("num", math.pi),
                                             ("num", math.e))

    def test_signs_powers_and_associativity(self):
        assert parse_drift("-x^2").ast == ("neg", ("pow", ("x",), 2.0))
        assert parse_drift("-x*2").ast == ("mul", ("neg", ("x",)),
                                           ("num", 2.0))
        # ^ is right-associative, its exponent a folded signed constant
        assert parse_drift("x^3^0.5").ast == ("pow", ("x",), 3.0 ** 0.5)
        assert parse_drift("x^-2*3").ast == (
            "mul", ("pow", ("x",), -2.0), ("num", 3.0))
        assert parse_drift("1 - x - 2").ast == (
            "sub", ("sub", ("num", 1.0), ("x",)), ("num", 2.0))

    @pytest.mark.parametrize("source", [1.0, ["x"], None])
    def test_non_string_source_rejected(self, source):
        with pytest.raises(TypeError, match=type(source).__name__):
            parse_drift(source)


class TestEval:
    def test_cos_jet(self):
        assert parse_drift("2 + cos(x)").jets(0.0) == \
            pytest.approx((3.0, 0.0, -1.0))

    def test_linear_jet(self):
        assert parse_drift("x").jets(7.0) == (7.0, 1.0, 0.0)

    def test_exp_jet(self):
        e = math.e
        assert parse_drift("exp(x)").jets(1.0) == pytest.approx((e, e, e))

    def test_tanh_pow_jet(self):
        # g = tanh(x)^2: g' = 2 t (1-t^2), g'' = 2(1-t^2)(1-3t^2)
        f, f1, f2 = parse_drift("tanh(x)^2").jets(0.7)
        t = math.tanh(0.7)
        assert f == pytest.approx(t * t)
        assert f1 == pytest.approx(2 * t * (1 - t * t))
        assert f2 == pytest.approx(2 * (1 - t * t) * (1 - 3 * t * t))

    def test_division_by_zero(self):
        with pytest.raises(DriftDomainError):
            parse_drift("1/x")(0.0)

    def test_divisor_zero_removable_singularity(self):
        # x/sin(x) -> 1 + x^2/6: the quotient rule cancels next to 0, so
        # value and jets both refuse there, and are accurate a bit away
        d = parse_drift("x/sin(x)")
        for x in (1e-12, np.array([0.5, 1e-9])):
            with pytest.raises(DriftDomainError, match="rounding"):
                d(x)
            for order in (1, 2):
                with pytest.raises(DriftDomainError, match="rounding"):
                    d.jets(x, order)
        f, f1, f2 = d.jets(1e-3)
        assert d(1e-3) == f
        assert f2 == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert parse_drift("x/0.008").jets(0.5) == (62.5, 125.0, 0.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(DriftDomainError):
            parse_drift("x^0.5")(-1.0)

    def test_zero_base_fractional_power(self):
        # f' = inf at 0: the value stands, every derivative order refuses
        d = parse_drift("x^0.5")
        assert d(0.0) == 0.0
        for order in (1, 2):
            with pytest.raises(DriftDomainError, match="zero base"):
                d.jets(0.0, order)
        # a constant zero base is no domain question at any order
        d = parse_drift("0^0.5 + x")
        assert d(1.0) == 1.0
        assert d.jets(1.0, 1) == (1.0, 1.0)
        assert d.jets(1.0) == (1.0, 1.0, 0.0)

    def test_orders_truncate(self):
        d = parse_drift("2 + cos(x)")
        xs = np.linspace(-3, 3, 11)
        assert d.jets(0.5, 0) == (d(0.5),)
        f, f1 = d.jets(xs, 1)
        assert np.array_equal(f, d(xs)) and np.array_equal(f1, -np.sin(xs))
        f, f1 = parse_drift("x + 1").jets(xs, 1)
        assert f1.shape == xs.shape and np.all(f1 == 1.0)

    def test_array_evaluation(self):
        d = parse_drift("2 + cos(x)")
        xs = np.linspace(-3, 3, 11)
        f, f1, f2 = d.jets(xs)
        assert np.allclose(f, 2 + np.cos(xs))
        assert np.allclose(f1, -np.sin(xs))
        assert np.allclose(f2, -np.cos(xs))


class TestBuiltins:
    def test_known(self):
        d = builtin_drift("two_plus_cos")
        assert d(0.0) == pytest.approx(3.0)

    def test_unknown(self):
        with pytest.raises(dmod.DriftError, match="unknown builtin"):
            builtin_drift("nope")

    def test_from_config(self):
        assert dmod.drift_from_config({"expr": "x"})(2.0) == 2.0
        assert dmod.drift_from_config({"builtin": "linear"})(2.0) == 2.0
        with pytest.raises(dmod.DriftError):
            dmod.drift_from_config({})


class TestValidateAssumption:
    def test_cos_passes(self):
        rep = validate_assumption(parse_drift("2 + cos(x)"), (-20, 20), 0.5, 4001)
        assert rep.passed
        assert rep.f_min == pytest.approx(1.0, abs=1e-4)
        assert rep.f_max == pytest.approx(3.0, abs=1e-4)
        assert rep.f1_max_abs == pytest.approx(1.0, abs=1e-4)

    def test_linear_fails(self):
        rep = validate_assumption(parse_drift("x"), (-20, 20), 0.5, 101)
        assert not rep.passed
        assert rep.f_min == pytest.approx(-20.0)

    def test_small_floor_fails(self):
        rep = validate_assumption(
            parse_drift("0.1 + tanh(x)^2"), (-20, 20), 0.5, 2001)
        assert not rep.passed
        assert rep.f_min == pytest.approx(0.1, abs=1e-6)

    def test_preconditions(self):
        d = parse_drift("x")
        with pytest.raises(ValueError):
            validate_assumption(d, (-1, 1), 0.5, 1)
        with pytest.raises(ValueError):
            validate_assumption(d, (1, 1), 0.5, 10)
        with pytest.raises(ValueError):
            validate_assumption(d, (-1, 1), 0.0, 10)

    def test_domain_error_reports_point(self):
        with pytest.raises(DriftDomainError, match="at x="):
            validate_assumption(parse_drift("1/x"), (-1, 1), 0.1, 3)

    @pytest.mark.parametrize("text, x", [
        ("exp(x)", 710.0),  # f, f' and f'' overflow
        ("1/(1 + exp(x))", 710.0),  # f = 0 is finite, f' = nan is not
    ])
    def test_non_finite_jets_are_a_domain_error(self, text, x):
        # the first scan point where f, f' or f'' is not finite, found by
        # the bisection, and no floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DriftDomainError) as exc:
                validate_assumption(parse_drift(text), (0.0, 1000.0), 0.5,
                                    2001)
        assert str(exc.value) == f"f, f' or f'' is not finite at x={x!r}"

    def test_failing_scan_is_bisected(self, monkeypatch):
        # the first failing point comes from O(log n) array calls, not a
        # retry of every point, and reads as a plain float
        orders = []
        jets = DriftExpr.jets

        def spy(self, x, order=2):
            orders.append(order)
            return jets(self, x, order)

        monkeypatch.setattr(DriftExpr, "jets", spy)
        n = 10 ** 6
        with pytest.raises(DriftDomainError) as exc:
            validate_assumption(parse_drift("x/sin(x)"), (-1.0, 1e-12), 0.5, n)
        assert str(exc.value) == ("quotient derivatives lost to rounding "
                                  "at x=-3.100003000000573e-05")
        assert len(orders) <= 2 * math.log2(n) + 2
        # F'' is the bound scan's to read
        assert set(orders) == {2}

    @pytest.mark.parametrize("text", ["2 + cos(x)", "0.1 + tanh(x)^2",
                                      "x^3 - x", "1/x"])
    def test_blocks_give_the_whole_scan(self, text, monkeypatch):
        # blocks of 7 points: the extremes, or the error naming the first
        # failing point, of one whole-array scan
        d = parse_drift(text)

        def scan():
            try:
                rep = validate_assumption(d, (-1.0, 1.0), 0.5, 101)
            except DriftDomainError as exc:
                return str(exc)
            return rep

        whole = scan()
        monkeypatch.setattr(dmod, "_BLOCK_CELLS", 7)
        assert scan() == whole
        if not isinstance(whole, str):
            f, f1, f2 = d.jets(np.linspace(-1.0, 1.0, 101))
            assert (whole.f_min, whole.f_max, whole.f1_max_abs,
                    whole.f2_max_abs) == (np.min(f), np.max(f),
                                          np.max(np.abs(f1)),
                                          np.max(np.abs(f2)))

    def test_scan_memory_does_not_grow_with_the_expression(self):
        # the linspace and one block's jets; one whole-array pass held 13.3
        # values a point on this drift
        d = parse_drift("2 + sin(x)*cos(x)*exp(-x^2)*tanh(x) + 1/(2+x^2)"
                        " + cos(3*x)*sin(2*x)")
        validate_assumption(d, (-4.0, 4.0), 0.01, 1000)  # its program
        n = 10 ** 6
        tracemalloc.start()
        try:
            validate_assumption(d, (-4.0, 4.0), 0.01, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n


# ---------------------------------------------------------------------------
# Property tests: random well-formed ASTs.

_literal = hs.floats(min_value=-3.0, max_value=3.0,
                     allow_nan=False).map(lambda v: ("num", round(v, 3)))
_leaf = hs.one_of(_literal, hs.just(("x",)))


def _extend(children):
    return hs.one_of(
        hs.tuples(hs.just("add"), children, children),
        hs.tuples(hs.just("sub"), children, children),
        hs.tuples(hs.just("mul"), children, children),
        hs.tuples(hs.just("div"), children, children),
        hs.tuples(hs.just("neg"), children),
        hs.tuples(hs.just("call"),
                  hs.sampled_from(["sin", "cos", "exp", "tanh"]), children),
        hs.tuples(hs.just("pow"), children, hs.sampled_from([2.0, 3.0])),
    )


_asts = hs.recursive(_leaf, _extend, max_leaves=10)


def _print_ast(node):
    """Fully parenthesized source text of an AST."""
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


def _make_expr(ast):
    return DriftExpr(ast=ast, source_text=_print_ast(ast))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(ast=_asts, x=hs.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False))
# f'' = 0 exactly; a 3-point f'' at h = 1e-5 reads -1.4e-4 from roundoff
@example(ast=("div", ("x",), ("num", 0.008)), x=0.5)
# a 0/0 quotient rule: f'' would read 1.0, not 1/3, so the jets refuse it
@example(ast=("div", ("x",), ("call", "sin", ("x",))), x=1e-12)
def test_jets_match_finite_differences(ast, x):
    d = _make_expr(ast)
    # 5-point stencils at h = 1e-3: truncation O(h^4 f^(5,6)), roundoff
    # O(eps |f| / h^2) ~ 1e-13 |f|, both far inside the tolerances
    h = 1e-3
    try:
        f, f1, f2 = d.jets(x)
        stencil = [float(d(x + k * h)) for k in (-2, -1, 0, 1, 2)]
    except DriftDomainError:
        assume(False)
    vals = np.array(stencil + [f, f1, f2], dtype=float)
    assume(np.all(np.isfinite(vals)))
    assume(np.all(np.abs(vals) <= 1e3))
    fm2, fm1, f0, fp1, fp2 = stencil
    # third-derivative proxy keeps the truncation term inside tolerance
    f3_fd = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * h ** 3)
    assume(abs(f3_fd) <= 1e3)
    fd1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    fd2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    assert abs(f1 - fd1) <= 1e-6 * max(1.0, abs(f1))
    assert abs(f2 - fd2) <= 1e-4 * max(1.0, abs(f2))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ast=_asts)
def test_canonical_roundtrip(ast):
    # the printed text parses back to a drift that evaluates identically
    d = _make_expr(ast)
    reparsed = parse_drift(_print_ast(ast))
    xs = np.linspace(-2.0, 2.0, 100)
    for x in xs:
        try:
            a = d(float(x))
        except DriftDomainError:
            continue
        assert reparsed(float(x)) == a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, derandomize=True, deadline=None)
@given(ast=_asts, x=hs.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False))
@example(ast=("add", ("call", "exp", ("call", "exp", ("call", "exp", ("x",)))),
              ("num", 1.0)), x=2.0)  # f overflows to inf; inf + 1 is inf
@example(ast=("pow", ("x",), 0.5), x=0.0)  # f = 0 stands; f' = inf refuses
@example(ast=("add", ("pow", ("num", 0.0), 0.5), ("x",)), x=1.0)
@example(ast=("div", ("x",), ("call", "sin", ("x",))), x=1e-12)
def test_jet_value_is_the_plain_value(ast, x):
    # every order runs through the same rules: orders 1 and 2 agree bit for
    # bit and refuse together, and refuse wherever the value does
    d = _make_expr(ast)
    for arg in (x, np.array([x, 0.5 * x])):
        out = []
        for call in (lambda: (d(arg),), lambda: d.jets(arg, 1),
                     lambda: d.jets(arg)):
            try:
                out.append(call())
            except DriftDomainError:
                out.append(None)
        plain, one, two = out
        assert (one is None) == (two is None)
        if two is None:
            continue
        assert plain is not None
        assert np.array_equal(np.broadcast_to(plain[0], np.shape(arg)),
                              two[0], equal_nan=True)
        assert len(one) == 2
        for a, b in zip(one, two):
            assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# Differential test: the compiled programs against the recursive evaluator
# that they replaced, kept here as the reference.

_REF_CALLS = {
    "sin": (np.sin, lambda v, g: np.cos(v), lambda v, g, g1: -g),
    "cos": (np.cos, lambda v, g: -np.sin(v), lambda v, g, g1: -g),
    "exp": (np.exp, lambda v, g: g, lambda v, g, g1: g),
    "tanh": (np.tanh, lambda v, g: 1.0 - g * g,
             lambda v, g, g1: -2.0 * g * g1),
}


def _ref_chain(u, g, d1, d2):
    g0 = g(u[0])
    if len(u) == 1:
        return (g0,)
    g1 = d1(u[0], g0)
    if len(u) == 2:
        return g0, g1 * u[1]
    return g0, g1 * u[1], d2(u[0], g0, g1) * u[1] * u[1] + g1 * u[2]


def _ref_div(a, b):
    if np.any(b[0] == 0.0):
        raise DriftDomainError("division by zero")
    q = (a[0] / b[0],)
    if len(a) > 1:
        q += ((a[1] - q[0] * b[1]) / b[0],)
    if len(a) > 2:
        q += ((a[2] - 2.0 * q[1] * b[1] - q[0] * b[2]) / b[0],)
        e1 = dmod._EPS * (abs(a[1]) + 2.0 * abs(q[0] * b[1])) / abs(b[0])
        e2 = 2.0 * e1 * abs(b[1] / b[0])
        if np.any((e1 > 1e-6 * (1.0 + abs(q[1])))
                  | (e2 > 1e-6 * (1.0 + abs(q[2])))):
            raise DriftDomainError("quotient derivatives lost to rounding")
    return q


def _ref_taylor(node, x, k):
    kind = node[0]
    if kind == "num":
        return (node[1], 0.0, 0.0)[:k + 1]
    if kind == "x":
        return (x, 1.0, 0.0)[:k + 1]
    if k and not dmod._contains_x(node):
        return (_ref_taylor(node, x, 0)[0], 0.0, 0.0)[:k + 1]
    if kind == "neg":
        return tuple(-c for c in _ref_taylor(node[1], x, k))
    if kind == "call":
        return _ref_chain(_ref_taylor(node[2], x, k), *_REF_CALLS[node[1]])
    if kind == "pow":
        u, n = _ref_taylor(node[1], x, k), node[2]
        if n != int(n) and np.any(u[0] < 0.0):
            raise DriftDomainError("negative base with non-integer exponent")
        if k and n < 1 and np.any(u[0] == 0.0):
            raise DriftDomainError("zero base with exponent below 1")
        return _ref_chain(
            u, lambda v: np.power(v, n),
            lambda v, g: n * np.power(v, n - 1) if n != 0 else 0.0,
            lambda v, g, g1:
                n * (n - 1) * np.power(v, n - 2) if n not in (0, 1) else 0.0)
    a, b = _ref_taylor(node[1], x, k), _ref_taylor(node[2], x, k)
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
        return _ref_div(a, b)
    raise AssertionError(f"unknown node {kind!r}")


def _ref_eval(ast, x, k):
    """The reference DriftExpr at order k: order 2 for a divisor in x."""
    return _ref_taylor(ast, x, 2 if dmod._has_x_divisor(ast) else k)[:k + 1]


def _ref_jets(ast, x, k):
    """The reference values as DriftExpr gives them: each of x's shape, a
    float for a scalar x."""
    x = np.asarray(x)
    return tuple(float(c) if x.ndim == 0 else
                 c if np.shape(c) == x.shape else np.full(x.shape, c)
                 for c in _ref_eval(ast, x, k))


def _outcome(call):
    """The values of call(), or its DriftDomainError's message."""
    try:
        return call()
    except DriftDomainError as exc:
        return str(exc)


def _assert_same(got, want):
    """Both raised the same message, or gave values of the same types,
    shapes and bits (NaNs' too, but for a 0-d NaN's sign: numpy's 0-d loops
    and its scalar arithmetic may give NaN + NaN of mixed signs either
    operand's)."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        if g.ndim == 0 and np.isnan(w):
            assert np.isnan(g)
        else:
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


_SPECIAL = [0.0, -0.0, 1e-12, -1e-12, 0.5, -2.0, math.inf, -math.inf,
            math.nan]
_leaf_any = hs.one_of(_literal, hs.just(("num", 0.0)), hs.just(("x",)))


def _extend_any(children):
    return hs.one_of(
        _extend(children),
        hs.tuples(hs.just("pow"), children,
                  hs.sampled_from([0.0, 1.0, 0.5, -1.0, -1.5, 2.5])),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(ast=hs.recursive(_leaf_any, _extend_any, max_leaves=8),
       x=hs.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@example(ast=("add", ("pow", ("num", 0.0), 0.5), ("x",)), x=1.0)
@example(ast=("add", ("div", ("num", 1.0), ("num", 0.0)), ("x",)), x=1.0)
@example(ast=("div", ("x",), ("call", "sin", ("x",))), x=1e-3)
@example(ast=("add", ("num", 2.0), ("mul", ("call", "sin", ("x",)),
                                    ("call", "cos", ("x",)))), x=0.7)
def test_programs_match_the_recursive_evaluator(ast, x):
    # every order, at scalars, a 1-D array and a non-contiguous 2-D view,
    # directly and through a map's shift: the same bits, or the same error
    d = _make_expr(ast)
    points = np.array(_SPECIAL + [x])
    b = np.tile(np.append(points, 7.0), (3, 1))
    for arg in (x, 0.0, -0.0, math.inf, math.nan, points, b[:, :-1]):
        _assert_same(_outcome(lambda: (d(arg),)),
                     _outcome(lambda: _ref_jets(ast, arg, 0)))
        for k in (0, 1, 2):
            _assert_same(_outcome(lambda: d.jets(arg, k)),
                         _outcome(lambda: _ref_jets(ast, arg, k)))
    m = _outcome(lambda: LampertiMap(d, alpha=0.3))
    if isinstance(m, str):  # a constant drift that fails at every point
        assert d.is_constant and _outcome(lambda: d(0.0)) == m
        return
    for arg in (np.asarray(x), points, b[:, :-1]):
        shifted = 0.3 + arg
        _assert_same(
            _outcome(lambda: (m.drift_at(arg),)),
            _outcome(lambda: (np.broadcast_to(np.asarray(
                _ref_eval(ast, shifted, 0)[0], dtype=float), arg.shape),)))
        _assert_same(_outcome(lambda: m.drift_jets(arg)),
                     _outcome(lambda: _ref_jets(ast, shifted, 1)))


# binding powers: + - at 1, * / at 2, a sign at 3, ^ at 4 (its base binds
# tighter still), and a number, x or call at 5
_BINARY = {"add": (1, "+"), "sub": (1, "-"), "mul": (2, "*"),
           "div": (2, "/")}


def _print_minimal(node):
    """(source text, binding power) of an AST, with only the parentheses
    that the binding powers need: none around an operand that binds at
    least as tight as its place asks, and a right operand of + - * / must
    bind strictly tighter (they are left-associative)."""
    def operand(child, bp):
        text, own = _print_minimal(child)
        return text if own >= bp else f"({text})"

    kind = node[0]
    if kind == "num":
        text = repr(node[1])
        return text, 3 if text.startswith("-") else 5  # -1.5 is a sign
    if kind == "x":
        return "x", 5
    if kind == "call":
        return f"{node[1]}({_print_minimal(node[2])[0]})", 5
    if kind == "neg":
        return "-" + operand(node[1], 3), 3
    if kind == "pow":
        return f"{operand(node[1], 5)}^{node[2]!r}", 4
    bp, op = _BINARY[kind]
    return f"{operand(node[1], bp)} {op} {operand(node[2], bp + 1)}", bp


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, derandomize=True, deadline=None)
@given(ast=hs.recursive(_leaf_any, _extend_any, max_leaves=12))
def test_minimal_parentheses_roundtrip(ast):
    # text with no more parentheses than precedence and associativity need
    # parses to the tree of the fully parenthesized text (a negative
    # literal to a sign on its magnitude in both), and so to equal values
    text = _print_minimal(ast)[0]
    assert parse_drift(text).ast == parse_drift(_print_ast(ast)).ast
    d, ref = parse_drift(text), _make_expr(ast)
    for x in (-1.5, 0.25, 2.0):
        _assert_same(_outcome(lambda: (d(x),)), _outcome(lambda: (ref(x),)))


@pytest.mark.parametrize("text, calls", [("2 + cos(x)", 3),
                                         ("0.1 + tanh(x)^2", 4)])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_order_zero_programs_of_the_bench_drifts(text, calls, shift):
    # the programs behind drift_at on the Monte Carlo and Euler-Maruyama hot
    # paths, through a map's shift: the shift's add, then the drift's calls,
    # all in place in one buffer
    prog = dmod._Program(parse_drift(text).ast, 0, shift)
    ufuncs = [f for f, ins, out in prog._code if type(out) is int]
    assert (len(ufuncs), prog._n_buffers) == (calls, 1)
    assert ufuncs[0] is np.add


def test_program_without_x_skips_the_shift():
    # a constant drift read through a map's shift: alpha + x would go into
    # a buffer that nothing reads
    x = np.linspace(-1.0, 1.0, 7)
    for k in (0, 1, 2):
        prog = dmod._Program(parse_drift("1").ast, k, 0.3)
        assert prog._code == [] and prog._n_buffers == 0
        values = prog(x)
        assert [v.tolist() for v in values] == [[1.0] * 7, [0.0] * 7,
                                                [0.0] * 7][:k + 1]
    m = LampertiMap(parse_drift("1"), alpha=0.3)
    assert m.drift_at(x).tolist() == [1.0] * 7
    assert [v.tolist() for v in m.drift_jets(x)] == [[1.0] * 7, [0.0] * 7]


@pytest.mark.parametrize("text", ["exp(x)", "x * 1", "sin(x) + sin(x)",
                                  "x", "1", "2 + cos(x)"])
def test_values_own_their_buffers(text):
    # every value is a writable buffer of x's shape, never x nor another
    # value: also when its call is an identity or a repeat, or it is x or a
    # constant; at a scalar, every value is a float
    x = np.linspace(-1.0, 1.0, 7)
    d = parse_drift(text)
    for k in (0, 1, 2):
        values = (d(x),) + d.jets(x, k)
        for i, v in enumerate(values):
            assert v.shape == x.shape and v.flags.writeable
            assert not np.shares_memory(v, x)
            assert not any(np.shares_memory(v, w) for w in values[i + 1:])
        assert all(type(v) is float for v in (d(0.5),) + d.jets(0.5, k))


DEEP = {
    "parentheses": "(" * 200 + "x" + ")" * 200,
    "calls": "cos(" * 200 + "x" + ")" * 200,
    "sum": "+".join(["x"] * 500),
    "unary_minus": "-" * 500 + "x",
    "exponent_sum": "x^(" + "+".join(["1"] * 1000) + ")",
}


class TestNestingCap:
    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_deep_expression_is_a_parse_error(self, shape):
        with pytest.raises(DriftParseError, match="nested deeper"):
            parse_drift(DEEP[shape])

    def test_cap_leaves_shallow_expressions_alone(self):
        d = parse_drift("+".join(["x"] * 50))
        assert d(0.5) == 25.0
        assert parse_drift("(" * 60 + "x" + ")" * 60)(0.5) == 0.5

    @pytest.mark.parametrize("opener, value", [
        ("x*(", 0.5 ** 100), ("1+(", 99.5), ("-(", -0.5)])
    def test_cap_counts_levels_of_the_tree(self, opener, value):
        # a right operand or a sign and its parenthesis make one level of the
        # tree, and count as one: 99 of them (a tree 100 deep) parse
        def nest(n):
            return opener * n + "x" + ")" * n

        assert parse_drift(nest(99))(0.5) == value
        with pytest.raises(DriftParseError, match="nested deeper"):
            parse_drift(nest(100))

    @pytest.mark.parametrize("frames", [0, 800])
    def test_cap_does_not_depend_on_the_stack(self, frames):
        # 100 levels of parentheses parse and 101 do not, also when called
        # from deep in the caller's own recursion
        def nest(n):
            return "(" * n + "x" + ")" * n

        def at_depth(k, call):
            return call() if k == 0 else at_depth(k - 1, call)

        assert sys.getrecursionlimit() >= 1000
        assert at_depth(frames, lambda: parse_drift(nest(100))).ast == ("x",)
        with pytest.raises(DriftParseError, match="nested deeper"):
            at_depth(frames, lambda: parse_drift(nest(101)))
