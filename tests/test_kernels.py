import math
import tracemalloc

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest

from shorttime import (
    CompositionPlan,
    GridSpec,
    InitialLaw,
    KernelKind,
    LampertiMap,
    compose_chapman,
    kernel_eval,
    kernel_matrix,
    marginal_density,
    builtin_drift,
    normalization_defect,
    parse_drift,
)
from shorttime import kernels as kernels_mod
from shorttime.kernels import TailMassError

TWO_PLUS_COS = parse_drift("2 + cos(x)")
BENCH_DRIFTS = {"two_plus_cos": TWO_PLUS_COS,
                "logistic_floor": builtin_drift("logistic_floor")}


def gauss(x, mu, var):
    return np.exp(-np.square(x - mu) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var)


class TestKernelEval:
    def test_constant_drift_collapse(self):
        # all four kernels reduce to the same shifted heat kernel for F = c
        m = LampertiMap(parse_drift("2"))
        T, xp = 0.2, 0.5
        xs = np.linspace(-2.0, 4.0, 201)
        expected = gauss(xs, xp + 2.0 * T, T)
        for kind in KernelKind:
            vals = kernel_eval(kind, m, T, xs, xp)
            assert np.max(np.abs(vals - expected)) <= 1e-12, kind

    def test_linear_drift_girsanov_exact(self):
        # dX = X dt + dB from x' is N(e^T x', e^{2T} T); the flow-based
        # kernel reproduces it pointwise
        m = LampertiMap(parse_drift("x"), reference_point=1.0, root_tol=1e-13)
        T, xp = 0.25, 1.0
        xs = np.linspace(0.4, 3.0, 27)
        expected = gauss(xs, math.exp(T) * xp, math.exp(2 * T) * T)
        vals = kernel_eval(KernelKind.GIRSANOV, m, T, xs, xp)
        assert np.max(np.abs(vals - expected)) <= 1e-10

    def test_backward_euler_equals_haken(self):
        m = LampertiMap(TWO_PLUS_COS)
        rng = np.random.default_rng(3)
        for _ in range(100):
            T = float(rng.uniform(0.01, 0.5))
            x = float(rng.uniform(-3, 3))
            xp = float(rng.uniform(-3, 3))
            a = kernel_eval(KernelKind.BACKWARD_EULER, m, T, x, xp)
            b = kernel_eval(KernelKind.HAKEN, m, T, x, xp)
            assert a == b

    def test_em_closed_form(self):
        m = LampertiMap(TWO_PLUS_COS)
        T, x, xp = 0.1, 0.7, 0.2
        f = 2.0 + math.cos(xp)
        expected = gauss(np.array(x), xp + f * T, T)
        assert kernel_eval(KernelKind.EULER_MARUYAMA, m, T, x, xp) == \
            pytest.approx(float(expected), rel=1e-12)

    def test_be_closed_form(self):
        m = LampertiMap(TWO_PLUS_COS)
        T, x, xp = 0.1, 0.7, 0.2
        f = 2.0 + math.cos(x)
        f1 = -math.sin(x)
        expected = float(gauss(np.array(x), xp + f * T, T)) * math.exp(-f1 * T)
        assert kernel_eval(KernelKind.BACKWARD_EULER, m, T, x, xp) == \
            pytest.approx(expected, rel=1e-12)

    def test_girsanov_vs_em_shrinks_with_horizon(self):
        # the two approximations agree in the short-time limit
        m = LampertiMap(TWO_PLUS_COS)
        xp = 0.3
        gaps = []
        for T in (0.4, 0.1, 0.025):
            x = xp + math.sqrt(T)
            g = kernel_eval(KernelKind.GIRSANOV, m, T, x, xp)
            e = kernel_eval(KernelKind.EULER_MARUYAMA, m, T, x, xp)
            gaps.append(abs(g - e))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_validation(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError):
            kernel_eval(KernelKind.GIRSANOV, m, 0.0, 0.1, 0.0)

    def test_unknown_kind(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError, match="unknown kernel kind"):
            kernel_eval("no_such_kind", m, 0.1, 0.1, 0.0)


class TestKernelMatrix:
    def test_matches_pointwise_eval(self):
        xs = np.linspace(-1.0, 2.0, 7)
        xps = np.linspace(-0.5, 0.5, 5)
        for m in (LampertiMap(TWO_PLUS_COS), LampertiMap(parse_drift("1"))):
            for kind in KernelKind:
                mat = kernel_matrix(m, kind, 0.2, xs, xps)
                assert mat.shape == (7, 5)
                for j, xp in enumerate(xps):
                    col = kernel_eval(kind, m, 0.2, xs, xp)
                    assert np.array_equal(mat[:, j], col)


class TestNormalization:
    def test_girsanov_defect_tiny(self):
        m = LampertiMap(TWO_PLUS_COS)
        grid = GridSpec(-4.0, 5.0, 1201)
        d = normalization_defect(KernelKind.GIRSANOV, m, 0.1, 0.0, grid)
        assert abs(d) <= 1e-8

    def test_be_defect_nonzero_and_shrinking(self):
        m = LampertiMap(TWO_PLUS_COS)
        grid = GridSpec(-4.0, 5.0, 1201)
        defects = [
            abs(normalization_defect(KernelKind.BACKWARD_EULER, m, T, 0.0,
                                     grid))
            for T in (0.1, 0.05, 0.025)
        ]
        assert all(d > 1e-12 for d in defects)
        assert defects[2] < defects[1] < defects[0]

    def test_narrow_grid_raises(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(TailMassError):
            normalization_defect(KernelKind.GIRSANOV, m, 0.1, 0.0,
                                 GridSpec(-0.5, 1.0, 301))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_blocks_keep_the_bits(self, kind, monkeypatch):
        # node values filled a few panels at a time: the same integral, to
        # the bit, as all nodes in one kernel_eval call
        def whole(kind, m, T, x_prime, lo, hi, n_panels):
            edges = np.linspace(lo, hi, n_panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            nodes = (mid[:, None] + half * kernels_mod._GL16_X[None, :])
            vals = kernel_eval(kind, m, T, nodes.ravel(), x_prime)
            return float(half * np.sum(vals.reshape(n_panels, -1)
                                       @ kernels_mod._GL16_W))

        grid = GridSpec(-4.0, 5.0, 1201)
        monkeypatch.setattr(kernels_mod, "_BLOCK_CELLS", 16 * 7)
        got = normalization_defect(kind, LampertiMap(TWO_PLUS_COS), 0.1, 0.3,
                                   grid)
        monkeypatch.setattr(kernels_mod, "_integrate_kernel", whole)
        assert got == normalization_defect(kind, LampertiMap(TWO_PLUS_COS),
                                           0.1, 0.3, grid)

    def test_defect_holds_seven_values_a_point(self):
        # the 4n fine node values and a few blocks; all nodes in one call
        # held 57 values a point
        m = LampertiMap(TWO_PLUS_COS)
        grid = GridSpec(-5.0, 6.0, 200_000)
        normalization_defect(KernelKind.GIRSANOV, m, 0.1, 0.0, grid)
        tracemalloc.start()
        try:
            normalization_defect(KernelKind.GIRSANOV, m, 0.1, 0.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 8 * grid.n_points


class TestInitialLawAndGrid:
    def test_law_validation(self):
        InitialLaw(atoms=((0.0, 0.5), (1.0, 0.5)))
        with pytest.raises(ValueError):
            InitialLaw(atoms=())
        with pytest.raises(ValueError):
            InitialLaw(atoms=((0.0, 0.7), (1.0, 0.4)))
        with pytest.raises(ValueError):
            InitialLaw(atoms=((0.0, -0.2), (1.0, 1.2)))
        for atoms in (((math.nan, 1.0),), ((0.0, 0.5), (1.0, math.nan)),
                      ((math.inf, 1.0),), ((0.0, math.inf),)):
            with pytest.raises(ValueError, match="finite"):
                InitialLaw(atoms=atoms)

    def test_grid_validation(self):
        g = GridSpec(-1.0, 1.0, 5)
        assert g.dx == pytest.approx(0.5)
        assert np.allclose(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 1)
        # linspace over an infinite end gives nan points
        for lo, hi in ((-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0),
                       (-1.0, math.nan), (-math.inf, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(lo, hi, 5)


class TestMarginalDensity:
    LAW = InitialLaw(atoms=((-0.3, 0.2), (0.4, 0.5), (1.1, 0.3)))

    @pytest.mark.parametrize("kind", list(KernelKind),
                             ids=[k.value for k in KernelKind])
    def test_is_the_weighted_kernel_matrix(self, kind):
        # the command's one map serves every atom: one kernel_matrix
        m = LampertiMap(TWO_PLUS_COS, alpha=0.5)
        xs = np.linspace(-2.0, 3.0, 101)
        atoms, weights = np.array(self.LAW.atoms).T
        got = marginal_density(kind, m, self.LAW, 0.15, xs)
        assert np.array_equal(
            got, kernel_matrix(m, kind, 0.15, xs, atoms) @ weights)

    def test_single_atom_reduces_to_kernel(self):
        law = InitialLaw(atoms=((0.4, 1.0),))
        xs = np.linspace(-1.0, 2.0, 21)
        T = 0.15
        # an atom at 0.4 on the unshifted map must agree with the map
        # shifted by alpha = 0.4, evaluated in the coordinate x - 0.4 at
        # x' = 0
        m = LampertiMap(TWO_PLUS_COS, alpha=0.4)
        expected = kernel_eval(KernelKind.GIRSANOV, m, T, xs - 0.4, 0.0)
        got = marginal_density(KernelKind.GIRSANOV, LampertiMap(TWO_PLUS_COS),
                               law, T, xs)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_two_atoms_constant_drift(self):
        law = InitialLaw(atoms=((-1.0, 0.25), (1.0, 0.75)))
        xs = np.linspace(-4.0, 4.0, 41)
        T = 0.2
        got = marginal_density(KernelKind.GIRSANOV,
                               LampertiMap(parse_drift("0")), law, T, xs)
        expected = 0.25 * gauss(xs, -1.0, T) + 0.75 * gauss(xs, 1.0, T)
        assert np.allclose(got, expected, atol=1e-13)

    def test_mass_is_one(self):
        law = InitialLaw(atoms=((0.0, 0.5), (0.8, 0.5)))
        xs = np.linspace(-4.0, 6.0, 4001)
        vals = marginal_density(KernelKind.GIRSANOV,
                                LampertiMap(TWO_PLUS_COS), law, 0.1, xs)
        assert trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-7)

    def test_scalar_x_gives_a_float(self):
        m = LampertiMap(TWO_PLUS_COS)
        got = marginal_density(KernelKind.HAKEN, m, self.LAW, 0.1, 0.5)
        assert isinstance(got, float)
        assert got == marginal_density(KernelKind.HAKEN, m, self.LAW, 0.1,
                                       [0.5])[0]


def reference_kernel(kind, m, T, x, x_prime):
    """kernel_eval as one whole-grid expression per kind: the reference the
    row-blocked fill must match bit for bit."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    if kind is KernelKind.GIRSANOV:
        y, ratio = m.transport(x, T)
        return norm * ratio * np.exp(-np.square(y - xp) / (2.0 * T))
    if kind is KernelKind.EULER_MARUYAMA:
        fp = m.drift_at(xp)
        return norm * np.exp(-np.square(x - (xp + fp * T)) / (2.0 * T))
    f, f1 = m.drift_jets(x)
    return norm * np.exp(-np.square((x - f * T) - xp) / (2.0 * T) - f1 * T)


class TestBlockedFill:
    M = LampertiMap(TWO_PLUS_COS)
    T = 0.05
    # kernel_eval on every broadcast shape; in kernel_matrix 2,001 columns
    # make 32-row blocks, so 40 rows end in a partial block
    SHAPES = {
        "scalar": ((), ()),
        "1d_x_scalar": ((70_001,), ()),
        "column_x_row": ((70, 1), (1, 2001)),
        "row_x_column": ((1, 2001), (70, 1)),
        "single_row": ((1, 1), (1, 2001)),
    }

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES)
    def test_equals_whole_grid_formula(self, kind, shapes):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 2.0, size=shapes[0])
        xp = rng.uniform(-0.5, 0.5, size=shapes[1])
        got = kernel_eval(kind, self.M, self.T, x, xp)
        want = reference_kernel(kind, self.M, self.T, x, xp)
        if np.ndim(want) == 0:
            assert type(got) is float
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_small_blocks(self, kind, monkeypatch):
        # 3-row blocks over 11 rows: every block edge lands mid-grid
        monkeypatch.setattr(kernels_mod, "_BLOCK_CELLS", 21)
        x = np.linspace(-1.0, 2.0, 11)
        xp = np.linspace(-0.5, 0.5, 7)
        got = kernel_matrix(self.M, kind, self.T, x, xp)
        want = reference_kernel(kind, self.M, self.T, x[:, None], xp[None, :])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matrix_holds_a_few_blocks(self, kind):
        # past the output, kernel_matrix holds the 1-D operands and a few
        # row blocks; a whole-grid temporary would be as large as the output
        x = np.linspace(-1.0, 2.0, 1201)
        xp = np.linspace(-0.5, 0.5, 2001)
        kernel_matrix(self.M, kind, self.T, x, xp)  # the table is grown
        tracemalloc.start()
        try:
            got = kernel_matrix(self.M, kind, self.T, x, xp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 6 * kernels_mod._BLOCK_CELLS * 8

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_nan_cells(self, kind):
        # the flow refuses a non-finite x, so NaN enters through x' for
        # girsanov and through both for the others
        x = np.linspace(-1.0, 2.0, 40)
        if kind is not KernelKind.GIRSANOV:
            x[[0, 17]] = np.nan
        xp = np.linspace(-0.5, 0.5, 2001)
        xp[[3, 2000]] = np.nan
        got = kernel_matrix(self.M, kind, self.T, x, xp)
        want = reference_kernel(kind, self.M, self.T, x[:, None], xp[None, :])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got[:, 3]).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_compose_holds_one_matrix(self):
        # the band's data and int32 indices, plus a few block-sized buffers
        grid = GridSpec(-6.5, 11.5, 2001)
        plan = CompositionPlan(1.0, 32, grid, KernelKind.GIRSANOV)
        m = LampertiMap(TWO_PLUS_COS)
        band = kernels_mod._kernel_band(m, plan.kind, plan.tau,
                                        grid.points(), np.ones(2001))
        band_bytes = band.data.nbytes + band.indices.nbytes
        tracemalloc.start()
        try:
            compose_chapman(m, plan, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < band_bytes + 8 * kernels_mod._BLOCK_CELLS * 8
        assert band_bytes < 0.5 * grid.n_points ** 2 * 8


class TestKernelBand:
    """_kernel_band keeps each cell of kernel_matrix times its weight bit
    for bit, and drops only cells below 1e-16 of their row's peak."""

    CASES = [(kind, name, tau) for kind in KernelKind for name in BENCH_DRIFTS
             for tau in (1 / 8, 1 / 32)]
    # 1 + F' tau < 0 on part of the grid: the euler_maruyama column centres
    # x' + F(x') tau fold back, and the windows widen to hold them
    FOLDED = parse_drift("2 + 4*cos(2*x)")

    def _check(self, m, kind, tau, xs):
        n = xs.size
        w = np.full(n, xs[1] - xs[0])
        w[[0, -1]] *= 0.5
        dense = kernel_matrix(m, kind, tau, xs, xs)
        band = kernels_mod._kernel_band(m, kind, tau, xs, w)
        assert band.indices.dtype == np.int32
        widths = np.diff(band.indptr)
        assert np.all(widths == widths[0]) and widths[0] < n
        rows = np.repeat(np.arange(n), widths)
        assert np.array_equal(band.data, (dense * w)[rows, band.indices])
        dropped = dense.copy()
        dropped[rows, band.indices] = 0.0
        peak = np.max(dense, axis=1, keepdims=True)
        assert np.all(dropped <= 1e-16 * peak)

    @pytest.mark.parametrize("kind,drift,tau", CASES,
                             ids=[f"{k.value}-{d}-{1 / t:g}"
                                  for k, d, t in CASES])
    def test_cells(self, kind, drift, tau):
        self._check(LampertiMap(BENCH_DRIFTS[drift]), kind, tau,
                    np.linspace(-6.2, 11.8, 1201))

    def test_folded_euler_maruyama(self):
        m = LampertiMap(self.FOLDED)
        xs = np.linspace(-8.0, 14.0, 1201)
        assert np.any(np.diff(xs + m.drift_at(xs) * 0.25) < 0.0)
        self._check(m, KernelKind.EULER_MARUYAMA, 0.25, xs)
