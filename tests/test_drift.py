import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

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


def _make_expr(ast):
    return DriftExpr(ast=ast, source_text=dmod._print_ast(ast))


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
    d = _make_expr(ast)
    reparsed = parse_drift(d.canonical())
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


DEEP = {
    "parentheses": "(" * 200 + "x" + ")" * 200,
    "calls": "cos(" * 200 + "x" + ")" * 200,
    "sum": "+".join(["x"] * 500),
    "unary_minus": "-" * 500 + "x",
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
