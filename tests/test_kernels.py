import math

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest

from shorttime import (
    GridSpec,
    InitialLaw,
    KernelKind,
    LampertiMap,
    kernel_eval,
    kernel_matrix,
    marginal_density,
    normalization_defect,
    parse_drift,
)
from shorttime.kernels import TailMassError

TWO_PLUS_COS = parse_drift("2 + cos(x)")


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
        m = LampertiMap(parse_drift("x"), reference_point=1.0,
                        quad_tol=1e-13, root_tol=1e-13)
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


class TestMarginalDensity:
    def test_single_atom_reduces_to_kernel(self):
        law = InitialLaw(atoms=((0.4, 1.0),))
        xs = np.linspace(-1.0, 2.0, 21)
        T = 0.15
        # the shifted-map construction must agree with an unshifted kernel
        # evaluated at x' = 0.4
        m = LampertiMap(TWO_PLUS_COS, alpha=0.4)
        expected = kernel_eval(KernelKind.GIRSANOV, m, T, xs - 0.4, 0.0)
        got = marginal_density(KernelKind.GIRSANOV, TWO_PLUS_COS, law, T, xs)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_two_atoms_constant_drift(self):
        law = InitialLaw(atoms=((-1.0, 0.25), (1.0, 0.75)))
        xs = np.linspace(-4.0, 4.0, 41)
        T = 0.2
        got = marginal_density(KernelKind.GIRSANOV, parse_drift("0"), law, T,
                               xs)
        expected = 0.25 * gauss(xs, -1.0, T) + 0.75 * gauss(xs, 1.0, T)
        assert np.allclose(got, expected, atol=1e-13)

    def test_mass_is_one(self):
        law = InitialLaw(atoms=((0.0, 0.5), (0.8, 0.5)))
        xs = np.linspace(-4.0, 6.0, 4001)
        vals = marginal_density(KernelKind.GIRSANOV, TWO_PLUS_COS, law, 0.1,
                                xs)
        assert trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-7)
