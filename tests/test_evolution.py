import math

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu
from scipy.special import ndtr

from shorttime import (
    CompositionPlan,
    GridDensity,
    GridSpec,
    KernelKind,
    LampertiMap,
    builtin_drift,
    compose_chapman,
    density_distance,
    kernel_eval,
    kernel_matrix,
    parse_drift,
    solve_fokker_planck,
)
from shorttime.evolution import (BoundaryError, GridMismatchError,
                                  _trapezoid_weights)
from reference import liouville_density

TWO_PLUS_COS = parse_drift("2 + cos(x)")
BENCH_DRIFTS = {"two_plus_cos": TWO_PLUS_COS,
                "logistic_floor": builtin_drift("logistic_floor")}


def gauss(x, mu, var):
    return np.exp(-np.square(x - mu) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var)


class TestLiouville:
    def test_t_zero_is_gaussian(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-3.0, 3.0, 31)
        vals = liouville_density(m, 0.0, 0.4, xs, 0.2)
        assert np.allclose(vals, gauss(xs, 0.2, 0.4), atol=1e-12)

    def test_t_horizon_is_girsanov_kernel(self):
        # both take the same transport step, so equality is exact
        m = LampertiMap(TWO_PLUS_COS)
        for x in (np.linspace(-3.0, 4.0, 31), 0.7):
            vals = liouville_density(m, 0.4, 0.4, x, 0.2)
            ker = kernel_eval(KernelKind.GIRSANOV, m, 0.4, x, 0.2)
            assert np.array_equal(vals, ker)

    def test_constant_drift_translation(self):
        m = LampertiMap(parse_drift("2"))
        xs = np.linspace(-3.0, 4.0, 31)
        vals = liouville_density(m, 0.3, 0.5, xs, 0.0)
        assert np.allclose(vals, gauss(xs, 0.6, 0.5), atol=1e-13)

    def test_mass_conserved_along_transport(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-5.0, 7.0, 4001)
        for t in (0.0, 0.2, 0.4):
            vals = liouville_density(m, t, 0.4, xs, 0.0)
            assert trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-7)

    def test_validation(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError):
            liouville_density(m, 0.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            liouville_density(m, 0.5, 0.4, 0.0, 0.0)


class TestComposeChapman:
    def test_one_slice_is_the_kernel(self):
        m = LampertiMap(TWO_PLUS_COS)
        plan = CompositionPlan(total_time=0.2, n_slices=1,
                               grid=GridSpec(-4.0, 5.0, 801),
                               kind=KernelKind.GIRSANOV)
        out = compose_chapman(m, plan, 0.0)
        ker = kernel_eval(KernelKind.GIRSANOV, m, 0.2, plan.grid.points(), 0.0)
        assert np.array_equal(out.values, ker)
        assert out.time == 0.2

    def test_constant_drift_composes_exactly(self):
        # N heat-plus-shift slices must reproduce the single Gaussian; the
        # trapezoid convolution of Gaussians is spectrally accurate
        m = LampertiMap(parse_drift("2"))
        plan = CompositionPlan(total_time=0.5, n_slices=8,
                               grid=GridSpec(-5.0, 6.5, 2001),
                               kind=KernelKind.GIRSANOV)
        out = compose_chapman(m, plan, 0.0)
        expected = gauss(plan.grid.points(), 1.0, 0.5)
        assert float(np.max(np.abs(out.values - expected))) <= 1e-6

    def test_refinements_are_cauchy(self):
        m = LampertiMap(TWO_PLUS_COS)
        grid = GridSpec(-4.0, 6.0, 1201)
        outs = {}
        for n in (4, 8, 16, 32):
            plan = CompositionPlan(total_time=0.5, n_slices=n, grid=grid,
                                   kind=KernelKind.GIRSANOV)
            outs[n] = compose_chapman(m, plan, 0.0)
        d48 = density_distance(outs[4], outs[8])
        d816 = density_distance(outs[8], outs[16])
        d1632 = density_distance(outs[16], outs[32])
        assert d1632 < d816 < d48

    def test_mass_roughly_conserved(self):
        m = LampertiMap(TWO_PLUS_COS)
        plan = CompositionPlan(total_time=0.4, n_slices=8,
                               grid=GridSpec(-4.0, 6.0, 1201),
                               kind=KernelKind.GIRSANOV)
        assert compose_chapman(m, plan, 0.0).mass() == pytest.approx(
            1.0, abs=1e-6)

    def test_narrow_grid_raises(self):
        m = LampertiMap(TWO_PLUS_COS)
        plan = CompositionPlan(total_time=0.5, n_slices=4,
                               grid=GridSpec(-0.5, 1.5, 101),
                               kind=KernelKind.GIRSANOV)
        with pytest.raises(BoundaryError):
            compose_chapman(m, plan, 0.0)

    def test_plan_validation(self):
        g = GridSpec(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            CompositionPlan(total_time=0.0, n_slices=2, grid=g,
                            kind=KernelKind.GIRSANOV)
        with pytest.raises(ValueError):
            CompositionPlan(total_time=0.1, n_slices=0, grid=g,
                            kind=KernelKind.GIRSANOV)
        # a grid step past sqrt(tau) = 0.0141 (dx = 0.03; sqrt(tau) is 0.082
        # at 30 slices, which run)
        with pytest.raises(ValueError, match="too coarse"):
            CompositionPlan(total_time=0.2, n_slices=1000,
                            grid=GridSpec(-3.0, 6.0, 301),
                            kind=KernelKind.GIRSANOV)


def dense_compose(m, plan, x_prime):
    """compose_chapman on the whole n x n weighted kernel matrix: the
    reference the band must match."""
    xs = plan.grid.points()
    p = kernel_matrix(m, plan.kind, plan.tau, xs, [x_prime])[:, 0]
    kw = kernel_matrix(m, plan.kind, plan.tau, xs, xs)
    kw *= _trapezoid_weights(plan.grid)
    for _ in range(plan.n_slices - 1):
        p = kw @ p
    return p


class TestBandComposition:
    @pytest.mark.parametrize("n_slices", [8, 32])
    @pytest.mark.parametrize("drift", BENCH_DRIFTS.values(),
                             ids=BENCH_DRIFTS)
    @pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
    def test_matches_dense_reference(self, kind, drift, n_slices):
        m = LampertiMap(drift)
        plan = CompositionPlan(1.0, n_slices, GridSpec(-6.2, 11.8, 1201),
                               kind)
        got = compose_chapman(m, plan, 0.3).values
        want = dense_compose(m, plan, 0.3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_folded_euler_maruyama(self):
        # 1 + F' tau < 0 on part of the grid, so the column centres
        # x' + F(x') tau are not monotone
        m = LampertiMap(parse_drift("2 + 4*cos(2*x)"))
        plan = CompositionPlan(1.0, 4, GridSpec(-8.0, 14.0, 1201),
                               KernelKind.EULER_MARUYAMA)
        xs = plan.grid.points()
        assert np.any(np.diff(xs + m.drift_at(xs) * plan.tau) < 0.0)
        got = compose_chapman(m, plan, 0.0).values
        want = dense_compose(m, plan, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def splu_fokker_planck(m, T, x_prime, grid, n_time_steps):
    """The Crank-Nicolson solve with a sparse LU of I - (dt/2) A and a
    matvec with I + (dt/2) A per step: the reference for the factor-once
    tridiagonal solve."""
    xs = grid.points()
    dx = grid.dx
    t0 = min(1e-3, T / 100.0)
    f0, f1 = m.drift_jets(x_prime)
    f0, f1 = float(f0), float(f1)
    mu0 = x_prime + f0 * t0 + 0.5 * f0 * f1 * t0 * t0
    var0 = max(t0 * (1.0 + f1 * t0), 0.5 * t0)
    p = gauss(xs, mu0, var0)
    fm = m.drift_at(0.5 * (xs[:-1] + xs[1:]))
    g_left = fm / 2.0 + 1.0 / (2.0 * dx)
    g_right = fm / 2.0 - 1.0 / (2.0 * dx)
    main = np.zeros(grid.n_points)
    main[:-1] -= g_left / dx
    main[1:] += g_right / dx
    a = diags([g_left / dx, main, -g_right / dx], offsets=[-1, 0, 1],
              format="csc")
    dt = (T - t0) / n_time_steps
    eye = identity(grid.n_points, format="csc")
    lu = splu((eye - 0.5 * dt * a).tocsc())
    rhs = (eye + 0.5 * dt * a).tocsr()
    for _ in range(n_time_steps):
        p = lu.solve(rhs @ p)
    return p


class TestFokkerPlanck:
    @pytest.mark.parametrize("drift,T,x_prime,grid", [
        (TWO_PLUS_COS, 1.0, 0.3, GridSpec(-6.2, 11.8, 2001)),
        (BENCH_DRIFTS["logistic_floor"], 1.0, -0.4,
         GridSpec(-6.9, 11.1, 2001)),
        (parse_drift("x"), 0.5, 1.0, GridSpec(-6.0, 9.0, 3001)),
    ], ids=["two_plus_cos", "logistic_floor", "x"])
    def test_matches_splu_reference(self, drift, T, x_prime, grid):
        m = LampertiMap(drift)
        got = solve_fokker_planck(m, T, x_prime, grid, 2000).values
        want = splu_fokker_planck(m, T, x_prime, grid, 2000)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_pure_diffusion_matches_heat_kernel(self):
        out = solve_fokker_planck(LampertiMap(parse_drift("0")), 0.5, 0.0,
                                  GridSpec(-6.0, 6.0, 2001), 1000)
        xs = out.grid.points()
        exact = gauss(xs, 0.0, 0.5)
        assert trapezoid(np.abs(out.values - exact), xs) <= 1e-5

    def test_constant_advection(self):
        out = solve_fokker_planck(LampertiMap(parse_drift("1")), 0.5, 0.0,
                                  GridSpec(-5.0, 6.5, 2001), 1000)
        xs = out.grid.points()
        exact = gauss(xs, 0.5, 0.5)
        assert float(np.max(np.abs(out.values - exact))) <= 1e-5

    def test_unstable_ou_closed_form(self):
        # dX = X dt + dB: exact density N(e^T x', (e^{2T}-1)/2)
        T, xp = 0.5, 1.0
        out = solve_fokker_planck(LampertiMap(parse_drift("x")), T, xp,
                                  GridSpec(-6.0, 9.0, 3001), 2000)
        xs = out.grid.points()
        exact = gauss(xs, math.exp(T) * xp, (math.exp(2 * T) - 1.0) / 2.0)
        assert trapezoid(np.abs(out.values - exact), xs) <= 1e-4

    def test_mass_exact(self):
        out = solve_fokker_planck(LampertiMap(TWO_PLUS_COS), 0.3, 0.0,
                                  GridSpec(-5.0, 6.0, 1501), 400)
        assert out.mass() == pytest.approx(1.0, abs=1e-8)

    def test_self_convergence_second_order(self):
        # halving dx and dt together shrinks the change by >= 3x
        m = LampertiMap(TWO_PLUS_COS)
        sols = {}
        for n, steps in ((1001, 250), (2001, 500), (4001, 1000)):
            sols[n] = solve_fokker_planck(m, 0.3, 0.0,
                                          GridSpec(-5.0, 6.0, n), steps)
        xs_coarse = sols[1001].grid.points()
        d1 = trapezoid(np.abs(sols[1001].values - sols[2001].values[::2]),
                      xs_coarse)
        xs_mid = sols[2001].grid.points()
        d2 = trapezoid(np.abs(sols[2001].values - sols[4001].values[::2]),
                      xs_mid)
        assert d1 / d2 >= 3.0

    def test_validation(self):
        m = LampertiMap(parse_drift("0"))
        with pytest.raises(ValueError):
            solve_fokker_planck(m, 0.0, 0.0, GridSpec(-6, 6, 2001), 100)
        with pytest.raises(ValueError):
            solve_fokker_planck(m, 0.5, 0.0, GridSpec(-6, 6, 2001), 0)
        with pytest.raises(ValueError, match="too coarse"):
            solve_fokker_planck(m, 0.5, 0.0, GridSpec(-6, 6, 101), 100)


class TestDensityDistance:
    def test_zero_for_identical(self):
        g = GridSpec(-2.0, 2.0, 101)
        vals = gauss(g.points(), 0.0, 1.0)
        a = GridDensity(grid=g, values=vals, time=1.0)
        b = GridDensity(grid=g, values=vals.copy(), time=1.0)
        assert density_distance(a, b) == 0.0

    def test_gaussian_l1_closed_form(self):
        # same-mean Gaussians cross at +-xc; L1 = 4 (Phi(xc/s1) - Phi(xc/s2))
        s1, s2 = 1.0, 1.4
        xc = math.sqrt(2 * s1 * s1 * s2 * s2 * math.log(s2 / s1)
                       / (s2 * s2 - s1 * s1))
        expected = 4.0 * (ndtr(xc / s1) - ndtr(xc / s2))
        g = GridSpec(-14.0, 14.0, 8001)
        xs = g.points()
        a = GridDensity(grid=g, values=gauss(xs, 0.0, s1 * s1), time=1.0)
        b = GridDensity(grid=g, values=gauss(xs, 0.0, s2 * s2), time=1.0)
        # trapezoid accuracy is limited by the kink of |a - b| at the
        # crossing points, not by the smooth tails
        assert density_distance(a, b) == pytest.approx(expected, abs=1e-6)

    def test_grid_mismatch(self):
        a = GridDensity(grid=GridSpec(-1, 1, 11), values=np.zeros(11),
                        time=0.0)
        b = GridDensity(grid=GridSpec(-1, 1, 21), values=np.zeros(21),
                        time=0.0)
        with pytest.raises(GridMismatchError):
            density_distance(a, b)
