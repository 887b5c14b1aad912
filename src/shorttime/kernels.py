"""Short-time transition kernels for dX = F(X) dt + dB and their marginals
under a discrete initial law.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .lamperti import _GL16_W, _GL16_X, LampertiMap, _check_horizon, _result


class TailMassError(Exception):
    """Grid too narrow: kernel mass at the boundary is not negligible."""


class KernelKind(enum.Enum):
    GIRSANOV = "girsanov"
    EULER_MARUYAMA = "euler_maruyama"
    BACKWARD_EULER = "backward_euler"
    HAKEN = "haken"


@dataclass(frozen=True)
class InitialLaw:
    """Discrete mixture of start points: [(location, weight), ...]."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        if not all(math.isfinite(v) for atom in atoms for v in atom):
            raise ValueError("atom locations and weights must be finite")
        if any(w <= 0.0 for _, w in atoms):
            raise ValueError("weights must be positive")
        if abs(sum(w for _, w in atoms) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ValueError("need finite x_min below x_max")
        if self.n_points < 2:
            raise ValueError("need at least 2 grid points")

    def points(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)


def kernel_eval(kind, m, T, x, x_prime):
    """Density approximation p(T, x | 0, x_prime); broadcast over x/x_prime.

    girsanov:        (2 pi T)^{-1/2} (F(y)/F(x)) exp{-(y - x')^2 / 2T},
                     y the backward flow of x over T
    euler_maruyama:  (2 pi T)^{-1/2} exp{-(x - x' - F(x') T)^2 / 2T}
    backward_euler:  (2 pi T)^{-1/2} exp{-(x - x' - F(x) T)^2 / 2T - F'(x) T}
    haken:           identical closed form to backward_euler

    The flow and the jets depend on x only and the euler_maruyama drift on x'
    only, so on a product grid each runs once per point, not once per cell.
    """
    _check_horizon(T)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    if kind is KernelKind.GIRSANOV:
        y, ratio = m.transport(x, T)
        out = norm * ratio * np.exp(-np.square(y - xp) / (2.0 * T))
    elif kind is KernelKind.EULER_MARUYAMA:
        fp = m.drift_at(xp)
        out = norm * np.exp(-np.square(x - xp - fp * T) / (2.0 * T))
    elif kind in (KernelKind.BACKWARD_EULER, KernelKind.HAKEN):
        f, f1, _ = m.drift_jets(x)
        out = norm * np.exp(-np.square(x - xp - f * T) / (2.0 * T) - f1 * T)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return _result(out)


def kernel_matrix(m, kind, T, xs, x_primes):
    """Kernel values on the product grid, shape (len(xs), len(x_primes)):
    kernel_eval with xs as a column and x_primes as a row."""
    return kernel_eval(kind, m, T, np.reshape(xs, (-1, 1)),
                       np.reshape(x_primes, (1, -1)))


def _integrate_kernel(kind, m, T, x_prime, lo, hi, n_panels):
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL16_X[None, :]).ravel()
    vals = kernel_eval(kind, m, T, nodes, x_prime).reshape(n_panels, -1)
    return float(half * np.sum(vals @ _GL16_W))


def _check_tails(values, rel, error, label):
    """Raise error unless both end values are at most rel times the peak."""
    peak = float(np.max(values))
    if peak <= 0.0:
        raise error(f"{label} vanished on the whole grid")
    if values[0] > rel * peak or values[-1] > rel * peak:
        raise error(f"{label} boundary values exceed {rel:g} of the peak; "
                    "widen the grid")


def normalization_defect(kind, m, T, x_prime, grid, tol=1e-10):
    """integral of the kernel over the grid range, minus 1.

    Guarded: boundary kernel values must be below 1e-12 of the peak so the
    truncated tail cannot hide in the defect.
    """
    _check_tails(kernel_eval(kind, m, T, grid.points(), x_prime), 1e-12,
                 TailMassError, "kernel")
    n_panels = max(grid.n_points // 8, 64)
    coarse = _integrate_kernel(kind, m, T, x_prime, grid.x_min, grid.x_max,
                               n_panels)
    fine = _integrate_kernel(kind, m, T, x_prime, grid.x_min, grid.x_max,
                             2 * n_panels)
    if abs(fine - coarse) > tol:
        raise TailMassError(
            f"kernel quadrature did not settle: |{fine} - {coarse}| > {tol}"
        )
    return fine - 1.0


def marginal_density(kind, drift, law, T, x, **map_kwargs):
    """Density of the flowed state at time T when the start point is drawn
    from the discrete law: sum_j w_j * kernel(T, x | x' = a_j).

    Implemented through per-atom shifted maps (alpha = a_j, evaluated in the
    coordinate x - a_j), which matches evaluating an unshifted kernel at
    x' = a_j exactly.
    """
    _check_horizon(T)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=float)
    for a, w in law.atoms:
        m = LampertiMap(drift, alpha=a, **map_kwargs)
        out = out + w * kernel_eval(kind, m, T, x - a, 0.0)
    return _result(out)
