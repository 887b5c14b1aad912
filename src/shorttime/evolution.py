"""Density propagation: Chapman-Kolmogorov composition of short-time
kernels, and a Crank-Nicolson Fokker-Planck reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelKind, _check_tails, _kernel_band, kernel_matrix
from .lamperti import _check_horizon

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class BoundaryError(Exception):
    """Density reached the grid boundary; results would be truncated."""


class GridMismatchError(Exception):
    pass


class InstabilityError(Exception):
    """Time stepping lost mass or positivity beyond tolerance."""


@dataclass(frozen=True)
class GridDensity:
    grid: object  # GridSpec
    values: np.ndarray
    time: float

    def mass(self):
        return float(_trapezoid(self.values, dx=self.grid.dx))


@dataclass(frozen=True)
class CompositionPlan:
    total_time: float
    n_slices: int
    grid: object
    kind: KernelKind

    def __post_init__(self):
        _check_horizon(self.total_time)
        if self.n_slices < 1:
            raise ValueError("need at least one slice")
        if self.grid.dx > math.sqrt(self.tau):
            raise ValueError("grid too coarse for the slice kernel")

    @property
    def tau(self):
        return self.total_time / self.n_slices


def _trapezoid_weights(grid):
    w = np.full(grid.n_points, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def compose_chapman(m, plan, x_prime):
    """N-fold trapezoid convolution of the tau-kernel starting from x'.
    Slices after the first apply the kernel's band (kernels._kernel_band),
    which drops only cells below 1e-16 of their row's peak.

    No renormalization is applied: the mass defect of non-normalized kernels
    compounds and stays visible in the result.
    """
    xs = plan.grid.points()
    tau = plan.tau
    p = kernel_matrix(m, plan.kind, tau, xs, np.array([x_prime]))[:, 0]
    _check_tails(p, 1e-10, BoundaryError,
                 "compose_chapman first slice: density")
    if plan.n_slices > 1:
        kw = _kernel_band(m, plan.kind, tau, xs, _trapezoid_weights(plan.grid))
        for _ in range(plan.n_slices - 1):
            p = kw @ p
    _check_tails(p, 1e-10, BoundaryError, "compose_chapman result: density")
    return GridDensity(grid=plan.grid, values=p, time=plan.total_time)


def solve_fokker_planck(m, T, x_prime, grid, n_time_steps):
    """Crank-Nicolson solve of d_t p = -d_x(F p) + (1/2) d_xx p, zero-flux.

    The point initial condition is replaced by a Gaussian warm start at
    t0 = min(1e-3, T/100): the heat kernel advected by the locally
    linearized drift (mean x' + F t0 + F F' t0^2/2, variance
    t0 (1 + F' t0), drift terms at x').  This start is exact for constant
    and linear drift and O(t0^3)-accurate otherwise; a plain heat kernel
    start would leave an O(t0) advection offset visible at the stated
    tolerances.  The spatial operator is in conservative flux form, so grid
    mass is constant up to solver roundoff.
    """
    # imported on first use: `import shorttime` loads no scipy module
    from scipy.linalg.lapack import dgttrf, dgttrs

    _check_horizon(T)
    if n_time_steps < 1:
        raise ValueError("need at least one time step")
    xs = grid.points()
    dx = grid.dx
    # a start (or warm-start mean) off the grid would leave a density that
    # vanishes on it, and the warm start's square may overflow
    _check_on_grid("start x_prime", x_prime, grid)
    t0 = min(1e-3, T / 100.0)
    f0, f1 = m.drift_jets(x_prime)
    f0, f1 = float(f0), float(f1)
    mu0 = x_prime + f0 * t0 + 0.5 * f0 * f1 * t0 * t0
    _check_on_grid("warm-start mean", mu0, grid)
    var0 = max(t0 * (1.0 + f1 * t0), 0.5 * t0)
    if dx * dx > 4.0 * var0:
        raise ValueError("grid too coarse for the warm-start kernel")
    p = np.exp(-np.square(xs - mu0) / (2.0 * var0)) / math.sqrt(
        2.0 * math.pi * var0
    )

    mids = 0.5 * (xs[:-1] + xs[1:])
    fm = m.drift_at(mids)

    # Interface flux between nodes i and i+1:
    #   G_i = fm_i (p_i + p_{i+1})/2 - (p_{i+1} - p_i)/(2 dx),
    # zero flux past both ends; dp_i/dt = -(G_i - G_{i-1})/dx = (A p)_i.  The
    # flux sum telescopes, so every column of A sums to 0.
    g_left = fm / 2.0 + 1.0 / (2.0 * dx)    # dG_i / dp_i
    g_right = fm / 2.0 - 1.0 / (2.0 * dx)   # dG_i / dp_{i+1}
    main = np.zeros(grid.n_points)
    main[:-1] -= g_left / dx
    main[1:] += g_right / dx
    upper = -g_right / dx
    lower = g_left / dx

    # Crank-Nicolson: L p_new = R p with L = I - (dt/2) A, R = I + (dt/2) A.
    # R = 2I - L, so p_new = 2 L^{-1} p - p: one tridiagonal solve per step
    # against L, factored once.  L's columns sum to 1, so sum(p) dx is
    # conserved up to roundoff.
    h = 0.5 * (T - t0) / n_time_steps  # dt / 2
    dl, d, du, du2, ipiv, info = dgttrf(-h * lower, 1.0 - h * main,
                                        -h * upper)
    if info != 0:
        raise InstabilityError("Crank-Nicolson matrix is singular")
    mass0 = float(_trapezoid(p, dx=dx))
    for _ in range(n_time_steps):
        q, _ = dgttrs(dl, d, du, du2, ipiv, p)
        q *= 2.0
        q -= p
        p = q
    mass = float(_trapezoid(p, dx=dx))
    if abs(mass - mass0) > 1e-8:
        raise InstabilityError(f"mass drifted by {mass - mass0:.3e}")
    peak = float(np.max(p))
    if float(np.min(p)) < -1e-8 * peak:
        raise InstabilityError("negative density beyond tolerance")
    return GridDensity(grid=grid, values=p, time=T)


def _check_on_grid(label, x, grid):
    if not grid.x_min <= x <= grid.x_max:
        raise BoundaryError(f"solve_fokker_planck: {label} {x!r} lies off "
                            f"the grid [{grid.x_min!r}, {grid.x_max!r}]")


def density_distance(a, b):
    """Trapezoid L1 distance between two grid densities."""
    if a.grid != b.grid:
        raise GridMismatchError("densities live on different grids")
    return float(_trapezoid(np.abs(a.values - b.values), dx=a.grid.dx))
