import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

import shorttime
from shorttime import LampertiError, LampertiMap, parse_drift
from shorttime import lamperti as lamperti_mod

TWO_PLUS_COS = parse_drift("2 + cos(x)")


def lambda_cos_exact(x):
    """Antiderivative of 1/(2+cos u) pinned to 0 at 0.

    (2/sqrt 3) atan(tan(u/2)/sqrt 3) plus branch continuation across the
    tangent's poles (period 2 pi adds 2 pi / sqrt 3 to the integral).
    """
    x = np.asarray(x, dtype=float)
    k = np.round(x / (2.0 * math.pi))
    base = (2.0 / math.sqrt(3.0)) * np.arctan(np.tan(x / 2.0) / math.sqrt(3.0))
    return base + k * 2.0 * math.pi / math.sqrt(3.0)


class TestLambdaMap:
    def test_cos_drift_at_pi(self):
        # oracle: closed antiderivative gives Lambda(pi) = pi / sqrt 3
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(math.pi) == pytest.approx(
            math.pi / math.sqrt(3.0), abs=1e-10)

    def test_cos_drift_against_antiderivative(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-9.0, 9.0, 61)
        assert np.allclose(m.lambda_map(xs), lambda_cos_exact(xs), atol=1e-9)

    def test_cos_drift_against_riemann(self):
        # independent cross-check with a plain midpoint Riemann sum
        u = np.linspace(0.0, math.pi, 200001)
        mid = 0.5 * (u[:-1] + u[1:])
        riemann = float(np.sum(1.0 / (2.0 + np.cos(mid))) * (u[1] - u[0]))
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(math.pi) == pytest.approx(riemann, abs=1e-8)

    def test_constant_drift(self):
        m = LampertiMap(parse_drift("3"))
        assert m.lambda_map(6.0) == pytest.approx(2.0)
        assert np.allclose(m.lambda_map(np.array([0.0, 3.0])), [0.0, 1.0])

    def test_linear_drift_is_log(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        xs = np.linspace(0.2, 5.0, 17)
        assert np.allclose(m.lambda_map(xs), np.log(xs), atol=1e-10)

    def test_alpha_shift(self):
        # f(alpha + x) with alpha = pi turns 2+cos into 2-cos
        m = LampertiMap(TWO_PLUS_COS, alpha=math.pi)
        u = np.linspace(0.0, 1.0, 100001)
        mid = 0.5 * (u[:-1] + u[1:])
        riemann = float(np.sum(1.0 / (2.0 - np.cos(mid))) * (u[1] - u[0]))
        assert m.lambda_map(1.0) == pytest.approx(riemann, abs=1e-8)

    def test_monotone(self):
        m = LampertiMap(TWO_PLUS_COS)
        vals = m.lambda_map(np.linspace(-5.0, 5.0, 101))
        assert np.all(np.diff(vals) > 0.0)

    def test_nonpositive_drift_raises(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        m.lambda_map(2.0)
        for _ in range(2):  # a failed build must leave no table behind
            with pytest.raises(LampertiError):
                m.lambda_map(-1.0)

    @pytest.mark.parametrize("text", ["0", "-1"])
    def test_nonpositive_constant_drift_raises(self, text):
        # Lambda divides by the constant: no table, a refusal either way
        m = LampertiMap(parse_drift(text))
        for call in (m.lambda_map, m.lambda_inverse):
            with pytest.raises(LampertiError, match="positive"):
                call(1.0)


class TestInverse:
    def test_cos_drift_roundtrip(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-6.0, 6.0, 41)
        back = m.lambda_inverse(m.lambda_map(xs))
        assert np.allclose(back, xs, atol=1e-9)

    def test_cos_drift_known_value(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_inverse(math.pi / math.sqrt(3.0)) == pytest.approx(
            math.pi, abs=1e-9)

    def test_scalar_in_scalar_out(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert isinstance(m.lambda_inverse(0.5), float)

    def test_bracket_failure_surfaces(self):
        # drift decays to zero on the right: the first step towards
        # y = 1000 reaches where exp(-x) underflows to 0, so the drift
        # positivity guard trips
        m = LampertiMap(parse_drift("exp(-x)"))
        with pytest.raises(LampertiError, match="drift non-positive"):
            m.lambda_inverse(1000.0)

    def test_unreachable_targets_surface(self):
        # Lambda = atan(x) stays below pi/2: the table grows until the
        # drift overflows, and that ends in a typed error
        m = LampertiMap(parse_drift("x^2 + 1"))
        with np.errstate(over="ignore"), pytest.raises(LampertiError):
            m.lambda_inverse(2.0)
        # Lambda = x / 1e300 reaches 1e10 only past the float range
        m = LampertiMap(parse_drift("1e300 + 0*x"))
        with np.errstate(over="ignore"), pytest.raises(
                LampertiError, match="no finite table"):
            m.lambda_inverse(1e10)


class TestFlow:
    def test_constant_drift(self):
        m = LampertiMap(parse_drift("2"))
        assert m.flow(1.0, 0.25) == pytest.approx(1.5)

    def test_zero_drift_constant_case(self):
        m = LampertiMap(parse_drift("0"))
        assert m.flow(1.0, 5.0) == 1.0

    def test_linear_drift_exponential(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        xs = np.linspace(0.5, 3.0, 11)
        assert np.allclose(m.flow(xs, 0.7), xs * math.exp(0.7), atol=1e-8)
        assert np.allclose(m.flow(xs, -0.7), xs * math.exp(-0.7), atol=1e-8)

    def test_large_cell_integrals_converge(self):
        # 1/F = 1 + x^2 reaches 1e4 on [0, 100], so each cell's two Gauss
        # sums differ by rounding alone; Lambda(x) = x + x^3/3 = 100
        x = LampertiMap(parse_drift("1/(1+x^2)")).flow(0.0, 100.0)
        assert x + x ** 3 / 3.0 == pytest.approx(100.0, abs=1e-9)

    def test_long_ranges(self):
        # smooth stretches keep wide cells, so far points cost few nodes
        floor = LampertiMap(parse_drift("0.1 + tanh(x)^2"))
        for x in (5000.0, 1e7):  # F = 1.1 to the last bit out there
            assert floor.flow(x, 0.1) == pytest.approx(x + 0.11, abs=1e-9)
        # Lambda(X) = X / 1.1 + c, with c the integral of 1/F - 1/1.1
        c = quad(lambda u: 1.0 / (0.1 + math.tanh(u) ** 2) - 1.0 / 1.1,
                 0.0, 50.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert floor.flow(0.0, 1e4) == pytest.approx(1.1 * (1e4 - c),
                                                     abs=1e-8)
        linear = LampertiMap(parse_drift("x"), reference_point=1.0)
        assert linear.flow(1.0, 10.0) == pytest.approx(math.exp(10.0),
                                                       rel=1e-12)

    def test_group_law(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-2.0, 2.0, 9)
        lhs = m.flow(m.flow(xs, 0.3), 0.5)
        rhs = m.flow(xs, 0.8)
        assert np.allclose(lhs, rhs, atol=10.0 * m.root_tol)

    def test_backward_inverts_forward(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(m.flow(m.flow(xs, 1.2), -1.2), xs,
                           atol=10.0 * m.root_tol)

    def test_reference_point_invariance(self):
        m0 = LampertiMap(TWO_PLUS_COS, reference_point=0.0)
        m1 = LampertiMap(TWO_PLUS_COS, reference_point=2.5)
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(m0.flow(xs, 0.4), m1.flow(xs, 0.4), atol=1e-9)

    def test_ode_residual_first_order(self):
        # (phi_h(x) - x)/h -> F(x) at first order in h
        m = LampertiMap(TWO_PLUS_COS)
        x = 0.7
        f = m.drift_at(x)
        res = []
        for h in (1e-2, 1e-3, 1e-4):
            res.append(abs((m.flow(x, h) - x) / h - f))
        assert res[0] < 0.1
        # each decade in h buys roughly a decade in the residual
        assert res[1] < 0.2 * res[0]
        assert res[2] < 0.2 * res[1]

    def test_flow_monotone_in_x(self):
        m = LampertiMap(TWO_PLUS_COS)
        vals = m.flow(np.linspace(-3.0, 3.0, 61), 0.5)
        assert np.all(np.diff(vals) > 0.0)

    def test_scalar_and_shape_preservation(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert isinstance(m.flow(0.3, 0.1), float)
        xs = np.linspace(-1, 1, 6).reshape(2, 3)
        assert m.flow(xs, 0.1).shape == (2, 3)


_DRIFTS = ["2 + cos(x)", "0.1 + tanh(x)^2", "1 + 0.5*sin(3*x)"]
_XS = hs.lists(hs.floats(-20.0, 20.0), min_size=1, max_size=20).map(np.array)
_T = hs.floats(-1.0, 1.0)
_TABLE = settings(max_examples=40, derandomize=True, deadline=None)


class TestTableProperties:
    """The Hermite table keeps the identities of Lambda and the flow to the
    scale of root_tol, with and without a shift."""

    @_TABLE
    @given(text=hs.sampled_from(_DRIFTS), alpha=hs.floats(-1.0, 1.0), xs=_XS)
    def test_inverse_undoes_lambda(self, text, alpha, xs):
        m = LampertiMap(parse_drift(text), alpha=alpha)
        assert np.allclose(m.lambda_inverse(m.lambda_map(xs)), xs,
                           rtol=0.0, atol=10.0 * m.root_tol)

    @_TABLE
    @given(text=hs.sampled_from(_DRIFTS), xs=_XS, s=_T, t=_T)
    def test_group_law(self, text, xs, s, t):
        m = LampertiMap(parse_drift(text))
        assert np.allclose(m.flow(m.flow(xs, s), t), m.flow(xs, s + t),
                           rtol=0.0, atol=10.0 * m.root_tol)

    @_TABLE
    @given(text=hs.sampled_from(_DRIFTS), xs=_XS, t=_T)
    def test_strictly_monotone(self, text, xs, t):
        m = LampertiMap(parse_drift(text))
        xs = np.unique(np.round(xs, 4))  # gaps of 1e-4 dwarf root_tol
        assert np.all(np.diff(m.lambda_map(xs)) > 0.0)
        assert np.all(np.diff(m.flow(xs, t)) > 0.0)

    @_TABLE
    @given(xs=_XS, t=_T)
    def test_two_plus_cos_closed_form(self, xs, t):
        m = LampertiMap(TWO_PLUS_COS)
        assert np.allclose(m.lambda_map(xs), lambda_cos_exact(xs),
                           rtol=0.0, atol=10.0 * m.root_tol)
        assert np.allclose(lambda_cos_exact(m.flow(xs, t)),
                           lambda_cos_exact(xs) + t,
                           rtol=0.0, atol=10.0 * m.root_tol)


class TestOneTable:
    """A value depends only on the map and the point: the table grows on a
    lattice of knots that the map alone fixes, so neither the other points
    of a call nor the calls a map served before change a result."""

    @staticmethod
    def _values(m, v, t):
        return [m.lambda_map(v), m.lambda_inverse(v), m.flow(v, t),
                m.flow(v, -t)]

    @_TABLE
    @given(text=hs.sampled_from(_DRIFTS),
           alpha=hs.one_of(hs.just(0.0), hs.floats(-1.0, 1.0)), xs=_XS,
           t=_T, before=hs.lists(hs.floats(-40.0, 40.0), min_size=1,
                                 max_size=4),
           keep=hs.lists(hs.booleans(), min_size=20, max_size=20))
    def test_value_depends_on_map_and_point(self, text, alpha, xs, t, before,
                                            keep):
        d = parse_drift(text)
        fresh = self._values(LampertiMap(d, alpha=alpha), xs, t)
        # a map that first served wider, narrower or disjoint calls
        served = LampertiMap(d, alpha=alpha)
        self._values(served, np.array(before), t)
        for got, want in zip(self._values(served, xs, t), fresh):
            assert np.array_equal(got, want)
        # any sub-batch, on a fresh map
        sub = np.array(keep[:xs.size])
        for got, want in zip(
                self._values(LampertiMap(d, alpha=alpha), xs[sub], t), fresh):
            assert np.array_equal(got, want[sub])

    def test_covered_call_builds_no_cell(self, monkeypatch):
        m = LampertiMap(TWO_PLUS_COS)
        m.flow(np.linspace(-3.0, 3.0, 7), np.array([[0.5], [-0.5]]))
        built = []
        cells = LampertiMap._cells
        monkeypatch.setattr(LampertiMap, "_cells", lambda self, lo, hi: (
            built.append(lo.size), cells(self, lo, hi))[1])
        xs = np.linspace(-2.0, 2.0, 5)
        m.flow(xs, 0.3)
        m.flow(xs, -0.3)
        m.lambda_inverse(m.lambda_map(xs))
        assert built == []
        m.lambda_map(10.0)  # past the covered range: the table grows
        assert built

    def test_growth_evaluates_each_knot_once(self, monkeypatch):
        # outside the cells' own checks, a growth evaluates the jets of its
        # new knots alone and splices their cells onto the old ones: the
        # table grown by 100 calls is the one grown by a single call
        jets, checked = [], []
        real_jets, real_cells = LampertiMap.drift_jets, LampertiMap._cells
        monkeypatch.setattr(LampertiMap, "drift_jets", lambda self, x: (
            jets.append(np.size(x)), real_jets(self, x))[1])
        monkeypatch.setattr(LampertiMap, "_cells", lambda self, lo, hi: (
            checked.append(2 * lo.size), real_cells(self, lo, hi))[1])
        grown = LampertiMap(TWO_PLUS_COS)
        for x in np.linspace(1.0, 300.0, 100):
            grown.lambda_map(np.array([-x / 3.0, x]))  # both ends grow
        t = grown._table
        assert sum(jets) - sum(checked) == t.x.size
        once = LampertiMap(TWO_PLUS_COS)
        once.lambda_map(np.array([-100.0, 300.0]))
        u = once._table
        assert (t.j0, t.j1) == (u.j0, u.j1)
        for name in ("x", "y", "g", "f1", "fwd", "inv"):
            assert getattr(t, name).tobytes() == getattr(u, name).tobytes()


def _gathered_horner(c, v):
    """The lookup that gathered all eight coefficient rows at once, kept as
    the reference: c holds one column per entry of v."""
    s = (v - c[0]) * c[1]
    out = c[7] * s
    for k in (6, 5, 4, 3):
        out += c[k]
        out *= s
    out += c[2]
    return out


def _gathered(m, x, t):
    """lambda_map(x), lambda_inverse(x) and flow(x, t) by the eight-row
    gather, on m's table as it stands (a value does not depend on it)."""
    tb = m._table

    def look(knots, cells, v):
        j = np.searchsorted(knots, v, side="right") - 1
        return _gathered_horner(np.take(cells, j, axis=1), v)

    def fmt(v):
        return float(v) if np.ndim(v) == 0 else v

    x = np.asarray(x, dtype=float)
    lam = look(tb.x, tb.fwd, x)
    y = lam + t
    return [fmt(lam), fmt(look(tb.y, tb.inv, x)),
            fmt(np.where(y == lam, x, look(tb.y, tb.inv, y)))]


class TestRowLookup:
    """Gathering one coefficient row at a time gives the eight-row gather's
    bits, on any points, and holds a few values a point."""

    @pytest.mark.parametrize("text", ["2 + cos(x)", "0.1 + tanh(x)^2"])
    def test_bits_of_the_eight_row_gather(self, text):
        m = LampertiMap(parse_drift(text), alpha=0.3)
        rng = np.random.default_rng(11)
        m.flow(np.array([-7.0, 7.0]), np.array([-0.5, 0.5]))
        tb = m._table
        cases = [rng.uniform(-6.0, 6.0, 5001),  # unsorted
                 tb.x[1:-1], tb.y[1:-1],  # on knots
                 # inside the table's end cells
                 0.5 * np.array([tb.x[:2].sum(), tb.x[-2:].sum()]),
                 0.5 * np.array([tb.y[:2].sum(), tb.y[-2:].sum()]),
                 1.25, np.float64(-2.5), np.array(0.75)]  # 0-d
        for v in cases:
            for t in (0.2, -0.2, 1e-300):
                got = [m.lambda_map(v), m.lambda_inverse(v), m.flow(v, t)]
                for g, w in zip(got, _gathered(m, v, t)):
                    assert type(g) is type(w)
                    assert np.array_equal(np.asarray(g).view(np.uint64),
                                          np.asarray(w).view(np.uint64))
        # the lookup itself, on the knots' own cells and on a 2-D batch
        j = np.arange(tb.fwd.shape[1])
        v = np.stack([tb.x[:-1], tb.x[1:]])
        got = lamperti_mod._horner(tb.fwd, np.broadcast_to(j, v.shape), v)
        assert np.array_equal(
            got, _gathered_horner(np.take(tb.fwd, j, axis=1), v))

    @pytest.mark.parametrize("text", ["2 + cos(x)", "0.1 + tanh(x)^2"])
    def test_flow_holds_six_values_a_point(self, text):
        # the target y, its keep mask, and the lookup's cell indices and
        # three buffers, one of them the result; the eight-row gather held 13
        m = LampertiMap(parse_drift(text))
        x = np.random.default_rng(5).uniform(-4.0, 4.0, 100_000)
        m.flow(x, 0.1)  # the table is grown
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m.flow(x, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6 * x.nbytes


def _bench_table(text):
    """The table of a scatter_sample op on a bench drift: a flow of starts
    x' + B_T, x' in [-1, 1], T = 0.2."""
    m = LampertiMap(parse_drift(text))
    rng = np.random.default_rng(3)
    m.flow(rng.uniform(-1.0, 1.0, 20_000)
           + math.sqrt(0.2) * rng.standard_normal(20_000), 0.2)
    return m


def _far_table(text, grow):
    m = LampertiMap(parse_drift(text))
    grow(m)
    m.flow(np.linspace(-3.0, 3.0, 101), 0.2)  # and both sides of 0
    return m


_LOOKUP_TABLES = {
    "two_plus_cos": lambda: _bench_table("2 + cos(x)"),
    "logistic_floor": lambda: _bench_table("0.1 + tanh(x)^2"),
    # about 128,800 and 47,200 knots: past 204.8 the lattice widens as sinh
    "two_plus_cos_far": lambda: _far_table(
        "2 + cos(x)", lambda m: m.lambda_map(1e4)),
    "logistic_floor_far": lambda: _far_table(
        "0.1 + tanh(x)^2", lambda m: m.flow(1e7, 0.1)),
}


@pytest.fixture(scope="module", params=sorted(_LOOKUP_TABLES))
def lookup_map(request):
    return _LOOKUP_TABLES[request.param]()


def _probes(ix):
    """Points in [knots[0], knots[-1]) where a lookup can go wrong: the
    knots, the lowest key of each bin taken back to a float, the two floats
    on each side of both, and both end cells."""
    k = ix.knots
    key = (np.arange(ix.start.size) + ix.base) << ix.shift
    d = (np.abs(key) + np.float64(ix.width).view(np.int64)).view(np.float64)
    edge = ix.center + np.copysign(d - ix.width, key)
    v = [k, edge, 0.5 * k[:2].sum(keepdims=True),
         0.5 * k[-2:].sum(keepdims=True)]
    for p in (k, edge):
        lo = hi = p
        for _ in range(2):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            v += [lo, hi]
    v = np.concatenate(v)
    return v[(k[0] <= v) & (v < k[-1])]


class TestCellLookup:
    """A lookup finds a point's cell from a key of its bits and a bin
    table, and corrects it in a few passes against the knots: the cell is
    searchsorted's, and the passes stay few on near and far tables."""

    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_cell_is_searchsorted(self, lookup_map, side):
        ix = getattr(lookup_map._table, side)
        v = _probes(ix)
        want = np.searchsorted(ix.knots, v, side="right") - 1
        assert np.array_equal(lamperti_mod._cell(ix, v), want)
        assert want.min() == 0 and want.max() == ix.knots.size - 2
        # and through the public map, against the eight-row gather, on
        # the points that need no growth
        inner = v > ix.knots[0]
        t, v, want = lookup_map._table, v[inner], want[inner]
        got = (lookup_map.lambda_map if side == "xs"
               else lookup_map.lambda_inverse)(v)
        assert lookup_map._table is t
        c = t.fwd if side == "xs" else t.inv
        assert np.array_equal(got, _gathered_horner(np.take(c, want, axis=1),
                                                    v))

    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_passes_stay_few(self, lookup_map, side):
        # the most knots a bin holds bounds the correction passes: a search
        # or a scan of a crowded bin would show here, not as a time
        ix = getattr(lookup_map._table, side)
        assert ix.passes <= 3
        assert ix.start.size <= lamperti_mod._BINS_A_KNOT * ix.knots.size

    def test_crowded_bins_fall_back_to_a_search(self):
        # Lambda of 1 + x^2 is atan: its far knots crowd near pi/2 in y,
        # past what _MAX_PASSES passes resolve
        m = LampertiMap(parse_drift("1 + x^2"))
        m.lambda_map(np.array([-1e4, 1e4]))
        ix = m._table.ys
        assert ix.passes > lamperti_mod._MAX_PASSES
        v = np.concatenate([_probes(ix), np.random.default_rng(2).uniform(
            ix.knots[0], ix.knots[-1], 10_000)])
        assert np.array_equal(lamperti_mod._cell(ix, v),
                              np.searchsorted(ix.knots, v, side="right") - 1)

    def test_key_never_decreases(self):
        v = np.array([-1e300, -3e5, -204.8, -1.0, -1e-300, -5e-324, -0.0,
                      0.0, 5e-324, 1e-300, 1.0, 2.0, 204.8, 3e5, 1e300])
        for center, width in ((0.0, 204.8), (-1.0, 0.5), (2.0, 1e-3)):
            k = lamperti_mod._key(v, center, width, np.empty_like(v),
                                  np.empty(v.size, np.int64))
            assert np.all(np.diff(k) >= 0)
            assert np.all(k[v == center] == 0)


class TestTransport:
    @pytest.mark.parametrize("c", [2.5, 1.0, 0.0])
    def test_constant_drift_shifts_with_unit_ratio(self, c):
        m = LampertiMap(parse_drift(repr(c)))
        xs = np.linspace(-3.0, 3.0, 13)
        y, ratio = m.transport(xs, 0.4)
        assert ratio == 1.0
        assert np.array_equal(y, xs - c * 0.4)

    def test_ratio_is_drift_quotient(self):
        m = LampertiMap(TWO_PLUS_COS, alpha=0.3)
        xs = np.linspace(-3.0, 3.0, 13).reshape(13, 1)
        y, ratio = m.transport(xs, 0.4)
        assert y.shape == ratio.shape == (13, 1)
        assert np.array_equal(y, m.flow(xs, -0.4))
        assert np.array_equal(ratio, (2.0 + np.cos(0.3 + y))
                              / (2.0 + np.cos(0.3 + xs)))

    def test_drift_at_keeps_the_shape(self):
        for text in ("2 + cos(x)", "1"):
            m = LampertiMap(parse_drift(text))
            assert m.drift_at(np.zeros((2, 3))).shape == (2, 3)
            assert m.drift_at(0.0).shape == ()
            assert m.drift_at(0.0).dtype == float

    @pytest.mark.parametrize("text, blocks", [
        ("2 + cos(x)", 1), ("0.1 + tanh(x)^2", 1),  # logistic_floor
        # both operands of the product depend on x: one more buffer
        ("2 + sin(x)*cos(x)", 2)])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_drift_at_peaks_at_its_buffers(self, text, blocks, alpha):
        # one Monte Carlo row block of left points: the shift and every call
        # after it write into the buffers the result leaves in, plus slack
        # for numpy's 8,192-element iteration buffer of the strided view
        m = LampertiMap(parse_drift(text), alpha=alpha)
        b = np.zeros((16, 4097))
        m.drift_at(b[:, :-1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f = m.drift_at(b[:, :-1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert f.shape == (16, 4096) and f.flags.writeable
        assert blocks * f.nbytes <= peak <= blocks * f.nbytes + (96 << 10)


# Runs one flow call in a fresh interpreter whose own address space is capped
# at what the imports took plus 256 MB; prints the error type and seconds.
_GUARD_PROBE = """
import resource, sys, time
from shorttime import LampertiError, LampertiMap, parse_drift
pages = int(open("/proc/self/statm").read().split()[0])
cap = pages * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS,
                   (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
m = LampertiMap(parse_drift("2 + cos(x)"))
start = time.perf_counter()
try:
    m.flow(float(sys.argv[1]), float(sys.argv[2]))
except LampertiError as exc:
    print(type(exc).__name__, time.perf_counter() - start)
"""


class TestFlowGuards:
    @pytest.mark.parametrize("x,t", [
        (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (0.0, math.nan),
        (0.0, math.inf),
    ])
    def test_non_finite_rejected(self, x, t):
        for m in (LampertiMap(TWO_PLUS_COS), LampertiMap(parse_drift("2"))):
            with pytest.raises(LampertiError, match="non-finite"):
                m.flow(x, t)
            with pytest.raises(LampertiError, match="non-finite"):
                m.flow(np.array([0.0, x, 1.0]), t)

    def test_lambda_map_rejects_non_finite(self):
        with pytest.raises(LampertiError, match="non-finite x=nan"):
            LampertiMap(TWO_PLUS_COS).lambda_map(np.array([0.5, math.nan]))
        with pytest.raises(LampertiError, match="non-finite x=inf"):
            LampertiMap(parse_drift("3")).lambda_map(math.inf)

    def test_budget_raises_quadrature_error(self):
        with pytest.raises(LampertiError, match="budget"):
            LampertiMap(TWO_PLUS_COS).flow(1e8, 0.1)

    def test_budget_leaves_long_integrals_alone(self):
        # [0, 1e4] spans ~1600 periods and needs ~1.2e5 table cells
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(1e4) == pytest.approx(
            float(lambda_cos_exact(1e4)), abs=1e-6)

    def test_overflowing_inverse_curvature_names_a_knot(self):
        # F = exp(700 + x) and 1/F are finite near 0, but the inverse's
        # second derivative F F' is not: refused at a knot, with no warning,
        # not at x = nan after its Hermite cells turned to nan
        m = LampertiMap(parse_drift("exp(x)"), alpha=700.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LampertiError) as exc:
                m.flow(0.0, 0.1)
        assert "F F' is not finite at x=" in str(exc.value)
        x = float(str(exc.value).split("x=")[1].split(";")[0])
        assert math.isfinite(x) and abs(x) <= 1.0

    @pytest.mark.xfail(raises=LampertiError, strict=True,
                       reason="the table grows by whole lattice cells, and "
                              "the cell below 0.04 reaches past F's zero "
                              "at 0 (a knot sits at x = -4e-6)")
    def test_point_near_a_zero_of_the_drift(self):
        # F = x is positive on (0, inf), and both flows stay inside it
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        assert m.flow(0.06, 0.5) == pytest.approx(0.06 * math.exp(0.5),
                                                   rel=1e-8)
        assert m.flow(0.04, 0.5) == pytest.approx(0.04 * math.exp(0.5),
                                                   rel=1e-8)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="caps the child's RLIMIT_AS via /proc")
    @pytest.mark.parametrize("x,t", [
        (math.nan, 0.1), (math.inf, 0.1), (1e8, 0.1), (0.0, 1e6),
    ])
    def test_bounded_time_and_memory(self, x, t):
        src = os.path.dirname(os.path.dirname(shorttime.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_PROBE, repr(x), repr(t)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        name, seconds = proc.stdout.split()
        assert issubclass(getattr(shorttime, name), LampertiError)
        assert float(seconds) < 1.0


class TestReturnPolicy:
    """One input and return policy on both forks (constant drift and
    quadrature): a scalar gives a float, anything else an array of the
    input's shape, equal to the flat call reshaped."""

    MAPS = {"one": "1", "zero": "0", "two_plus_cos": "2 + cos(x)"}
    GRID = np.linspace(-1.0, 1.0, 6)

    def _methods(self, name):
        m = LampertiMap(parse_drift(self.MAPS[name]))
        flow = ("flow", lambda v: m.flow(v, 0.3))
        if name == "zero":  # Lambda needs a positive drift
            return [flow]
        return [("lambda_map", m.lambda_map),
                ("lambda_inverse", m.lambda_inverse), flow]

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_scalar_list_and_shape(self, name):
        for label, fn in self._methods(name):
            assert isinstance(fn(0.25), float), label
            assert isinstance(fn(np.float64(0.25)), float), label
            assert isinstance(fn(np.array(0.25)), float), label
            out = fn([0.0, 0.5])
            assert isinstance(out, np.ndarray) and out.shape == (2,), label
            flat = fn(self.GRID)
            grid = fn(self.GRID.reshape(2, 3))
            assert grid.shape == (2, 3), label
            assert np.array_equal(grid, flat.reshape(2, 3)), label

    @pytest.mark.parametrize("text", ["1", "2 + cos(x)"])
    def test_nan_y_raises(self, text):
        m = LampertiMap(parse_drift(text))
        with pytest.raises(LampertiError, match="non-finite y=nan"):
            m.lambda_inverse(math.nan)
        with pytest.raises(LampertiError, match="non-finite y=inf"):
            m.lambda_inverse(np.array([0.0, math.inf]))

    def test_flow_broadcasts_x_and_t(self):
        for text in ("1", "2 + cos(x)"):
            m = LampertiMap(parse_drift(text))
            out = m.flow(self.GRID, np.array([[0.1], [0.2]]))
            assert out.shape == (2, 6)
            assert np.array_equal(out[1], m.flow(self.GRID, 0.2))


def _horizon_sites():
    """The twelve entry points that take a horizon, as T -> call."""
    from reference import (BrownianPath, approx_exponential_euler,
                           liouville_density)
    from shorttime import (CompositionPlan, GridSpec, InitialLaw, KernelKind,
                           MCConfig, girsanov_kernel_cdf, kernel_eval,
                           lp_errors, marginal_density, sample_crypto,
                           sample_em_path, solve_fokker_planck, u_eval)

    m = LampertiMap(TWO_PLUS_COS)
    grid = GridSpec(-4.0, 5.0, 301)
    law = InitialLaw(((0.0, 1.0),))
    cfg = MCConfig(n_paths=8, n_steps=4, base_seed=1)
    return {
        "u_eval": lambda T: u_eval(m, 0.0, 0.5, T),
        "approx_exponential_euler": lambda T: approx_exponential_euler(
            m, 0.5, T),
        "kernel_eval": lambda T: kernel_eval(KernelKind.EULER_MARUYAMA, m,
                                             T, 0.5, 0.0),
        "marginal_density": lambda T: marginal_density(
            KernelKind.BACKWARD_EULER, m, law, T, 0.5),
        "liouville_density": lambda T: liouville_density(m, 0.0, T, 0.5,
                                                         0.0),
        "solve_fokker_planck": lambda T: solve_fokker_planck(m, T, 0.0,
                                                             grid, 10),
        "CompositionPlan": lambda T: CompositionPlan(
            total_time=T, n_slices=2, grid=grid, kind=KernelKind.GIRSANOV),
        "sample_crypto": lambda T: sample_crypto(m, 0.0, T, 10, 3),
        "sample_em_path": lambda T: sample_em_path(m, 0.0, T, 4, 10, 3),
        "lp_errors": lambda T: lp_errors(m, [T], cfg, [2.0]),
        "BrownianPath.generate": lambda T: BrownianPath.generate(T, 4, 1),
        # the check runs before the cdf is built, not when it is first called
        "girsanov_kernel_cdf": lambda T: girsanov_kernel_cdf(m, T, 0.0)(0.5),
    }


class TestHorizonCheck:
    """Every entry point that takes a horizon T refuses a T that is not
    finite and positive with ValueError, before drawing any path."""

    @pytest.mark.parametrize("site", sorted(_horizon_sites()))
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_bad_horizon(self, site, T, monkeypatch):
        from shorttime import girsanov

        calls = []
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="T must be finite and positive"):
            _horizon_sites()[site](T)
        assert calls == []

    @pytest.mark.parametrize("site", sorted(_horizon_sites()))
    def test_good_horizon_runs(self, site):
        _horizon_sites()[site](0.1)

    @pytest.mark.parametrize("t", [-0.01, 0.11, math.nan, math.inf])
    def test_t_outside_the_horizon(self, t):
        from reference import liouville_density
        from shorttime import u_eval

        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError, match="0 <= t <= T"):
            u_eval(m, t, 0.5, 0.1)
        with pytest.raises(ValueError, match="0 <= t <= T"):
            liouville_density(m, t, 0.1, 0.5, 0.0)
