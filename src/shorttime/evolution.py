"""Density propagation: transport solution with Gaussian initial data,
Chapman-Kolmogorov composition of short-time kernels, and a Crank-Nicolson
Fokker-Planck reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu

from .kernels import KernelKind, _check_tails, kernel_matrix
from .lamperti import _check_horizon, _result

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

    @property
    def tau(self):
        return self.total_time / self.n_slices


def liouville_density(m, t, T, x, x_prime):
    """Transport of a Gaussian(x', T) initial density along the drift flow.

    At t = T this coincides with the girsanov short-time kernel.
    """
    _check_horizon(T, t)
    y, ratio = m.transport(x, t)
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    return _result(ratio * norm * np.exp(-np.square(y - x_prime) / (2.0 * T)))


def _trapezoid_weights(grid):
    w = np.full(grid.n_points, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def compose_chapman(m, plan, x_prime):
    """N-fold trapezoid convolution of the tau-kernel starting from x'.

    No renormalization is applied: the mass defect of non-normalized kernels
    compounds and stays visible in the result.
    """
    xs = plan.grid.points()
    tau = plan.tau
    p = kernel_matrix(m, plan.kind, tau, xs, np.array([x_prime]))[:, 0]
    _check_tails(p, 1e-10, BoundaryError,
                 "compose_chapman first slice: density")
    if plan.n_slices > 1:
        k = kernel_matrix(m, plan.kind, tau, xs, xs)
        w = _trapezoid_weights(plan.grid)
        kw = k * w[None, :]
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
    _check_horizon(T)
    if n_time_steps < 1:
        raise ValueError("need at least one time step")
    xs = grid.points()
    dx = grid.dx
    t0 = min(1e-3, T / 100.0)
    f0, f1, _ = m.drift_jets(x_prime)
    f0, f1 = float(f0), float(f1)
    mu0 = x_prime + f0 * t0 + 0.5 * f0 * f1 * t0 * t0
    var0 = max(t0 * (1.0 + f1 * t0), 0.5 * t0)
    p = np.exp(-np.square(xs - mu0) / (2.0 * var0)) / math.sqrt(
        2.0 * math.pi * var0
    )
    if dx * dx > 4.0 * var0:
        raise ValueError("grid too coarse for the warm-start kernel")

    mids = 0.5 * (xs[:-1] + xs[1:])
    fm = m.drift_at(mids)

    n = grid.n_points
    # Interface flux between nodes i and i+1:
    #   G_i = fm_i (p_i + p_{i+1})/2 - (p_{i+1} - p_i)/(2 dx),
    # zero flux past both ends; dp_i/dt = -(G_i - G_{i-1})/dx.  The flux
    # sum telescopes, so sum(p) dx is conserved exactly.
    g_left = fm / 2.0 + 1.0 / (2.0 * dx)    # dG_i / dp_i
    g_right = fm / 2.0 - 1.0 / (2.0 * dx)   # dG_i / dp_{i+1}
    main = np.zeros(n)
    main[:-1] -= g_left / dx
    main[1:] += g_right / dx
    upper = -g_right / dx
    lower = g_left / dx
    a = diags([lower, main, upper], offsets=[-1, 0, 1], format="csc")

    dt = (T - t0) / n_time_steps
    lhs = (identity(n, format="csc") - 0.5 * dt * a).tocsc()
    rhs = (identity(n, format="csc") + 0.5 * dt * a).tocsr()
    lu = splu(lhs)
    mass0 = float(_trapezoid(p, dx=dx))
    for _ in range(n_time_steps):
        p = lu.solve(rhs @ p)
    mass = float(_trapezoid(p, dx=dx))
    if abs(mass - mass0) > 1e-8:
        raise InstabilityError(f"mass drifted by {mass - mass0:.3e}")
    peak = float(np.max(p))
    if float(np.min(p)) < -1e-8 * peak:
        raise InstabilityError("negative density beyond tolerance")
    return GridDensity(grid=grid, values=p, time=T)


def density_distance(a, b, metric="L1"):
    """Trapezoid L1 or pointwise sup distance between two grid densities."""
    if a.grid != b.grid:
        raise GridMismatchError("densities live on different grids")
    diff = np.abs(a.values - b.values)
    if metric == "L1":
        return float(_trapezoid(diff, dx=a.grid.dx))
    if metric == "sup":
        return float(np.max(diff))
    raise ValueError(f"unknown metric {metric!r}")
