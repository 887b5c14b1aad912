"""Short-time transition kernels for dX = F(X) dt + dB and their marginals
under a discrete initial law.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .drift import DriftDomainError
from .lamperti import (_BLOCK_CELLS, _GL16_W, _GL16_X, _check_horizon,
                       _refuse, _result)

# Half-width of _kernel_band in standard deviations sqrt(T): a cell further
# out is below exp(-_BAND_SIGMAS^2 / 2) = 1e-16 of its row's peak.
_BAND_SIGMAS = math.sqrt(2.0 * math.log(1e16))
# normalization_defect's largest change between its two panel counts
_DEFECT_TOL = 1e-10


class TailMassError(ValueError):
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


def _gaussian(a, b, T, scale, damp):
    """scale * exp(-(a - b)^2 / 2T - damp), broadcast over all operands:
    the one Gaussian of every kernel, a the row centre and b the column
    centre.  A distance whose square overflows (a start at 1e300, say)
    gives exp(-inf) = 0, the kernel's value there, so that overflow is
    not reported; nor is a drift term past the float range, whose kernel
    values compose, density and the defect refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * np.exp(-np.square(a - b) / (2.0 * T) - damp)


def _operands(kind, m, T, x, x_prime):
    """The _gaussian operands (a, b, scale, damp) of the kind's kernel at x
    and x_prime: the one place the kernel formulas live.  b depends on x'
    alone and a, scale and damp on x alone, so on a product grid each
    runs once per point."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    # a term past the float range is left to _gaussian and its callers
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is KernelKind.GIRSANOV:
            y, ratio = m.transport(x, T)
            return y, x_prime, norm * ratio, 0.0
        if kind is KernelKind.EULER_MARUYAMA:
            return x, x_prime + m.drift_at(x_prime) * T, norm, 0.0
        if kind in (KernelKind.BACKWARD_EULER, KernelKind.HAKEN):
            f, f1 = m.drift_jets(x)
            return x - f * T, x_prime, norm, f1 * T
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_eval(kind, m, T, x, x_prime):
    """Density approximation p(T, x | 0, x_prime); broadcast over x/x_prime.

    girsanov:        (2 pi T)^{-1/2} (F(y)/F(x)) exp{-(y - x')^2 / 2T},
                     y the backward flow of x over T
    euler_maruyama:  (2 pi T)^{-1/2} exp{-(x - (x' + F(x') T))^2 / 2T}
    backward_euler:  (2 pi T)^{-1/2} exp{-((x - F(x) T) - x')^2 / 2T - F'(x) T}
    haken:           identical closed form to backward_euler
    """
    _check_horizon(T)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    a, b, scale, damp = _operands(kind, m, T, x, xp)
    return _result(_gaussian(a, b, T, scale, damp))


def _fill(ops, T, start, width, weights):
    """The rows of _gaussian(*ops) at the width columns from start_i on, each
    cell times its column's weight, filled in blocks of whole rows of about
    _BLOCK_CELLS cells, so no temporary is larger than a block.  ops are
    _operands on 1-D points; a row's columns are contiguous, so they are
    one row of b's sliding-window view: a row copy, not a cell gather."""
    a, b, scale, damp = ops
    a, scale, damp = (v[:, None] for v in np.broadcast_arrays(a, scale, damp))
    cols = sliding_window_view(b, width)
    w = sliding_window_view(np.broadcast_to(weights, b.shape), width)
    out = np.empty((start.size, width))
    rows = max(1, _BLOCK_CELLS // max(1, width))
    for r in range(0, start.size, rows):
        blk = slice(r, r + rows)
        first = start[blk]
        np.multiply(_gaussian(a[blk], cols[first], T, scale[blk], damp[blk]),
                    w[first], out=out[blk])
    return out


def kernel_matrix(m, kind, T, xs, x_primes):
    """Kernel values on the product grid, shape (len(xs), len(x_primes)):
    kernel_eval with xs as a column and x_primes as a row, each cell
    bitwise the same."""
    _check_horizon(T)
    xs = np.asarray(xs, dtype=float).ravel()
    xp = np.asarray(x_primes, dtype=float).ravel()
    return _fill(_operands(kind, m, T, xs, xp), T,
                 np.zeros(xs.size, dtype=np.intp), xp.size, 1.0)


def _kernel_band(m, kind, T, xs, weights):
    """kernel_matrix(m, kind, T, xs, xs) * weights, the weights scaling the
    columns, as a CSR matrix of its band: the cells within _BAND_SIGMAS
    standard deviations of their row's centre, W per row.

    Row i keeps the columns from the first j whose running max of the
    column centre b reaches a_i - cut to the last j whose running min from
    the right stays within a_i + cut, so a non-monotone b widens the window
    and drops no cell inside the cut.  W is the widest window; each row's
    start is clipped to [0, n - W].  Each cell is bitwise the kernel_matrix
    cell times its weight.
    """
    # imported on first use: `import shorttime` loads no scipy module
    from scipy.sparse import csr_matrix

    xs = np.asarray(xs, dtype=float)
    n = xs.size
    ops = _operands(kind, m, T, xs, xs)
    a, b = ops[:2]
    cut = _BAND_SIGMAS * math.sqrt(T)
    lo = np.searchsorted(np.maximum.accumulate(b), a - cut, side="left")
    hi = np.searchsorted(np.minimum.accumulate(b[::-1])[::-1], a + cut,
                         side="right")
    width = max(1, int(np.max(hi - lo)))
    start = np.clip(lo, 0, n - width)
    data = _fill(ops, T, start, width, weights)
    indices = np.add(start[:, None].astype(np.int32),
                     np.arange(width, dtype=np.int32))
    indptr = np.arange(0, n * width + 1, width)
    return csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n, n))


def _integrate_kernel(kind, m, T, x_prime, lo, hi, n_panels):
    """16-point Gauss-Legendre integral of the kernel over n_panels equal
    panels of [lo, hi]; the node values are filled in blocks of about
    _BLOCK_CELLS nodes, so no kernel temporary spans all the nodes."""
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    offsets = half * _GL16_X
    vals = np.empty((n_panels, offsets.size))
    rows = _BLOCK_CELLS // offsets.size
    for r in range(0, n_panels, rows):
        vals[r:r + rows] = kernel_eval(kind, m, T,
                                       mid[r:r + rows, None] + offsets,
                                       x_prime)
    return float(half * np.sum(vals @ _GL16_W))


def _check_tails(values, rel, error, label, grid):
    """Raise error unless both end values are at most rel times the peak.
    The values, on the grid's points, are not negative, so a nan or inf
    among them shows in the peak: DriftDomainError names its point."""
    peak = float(np.max(values))
    if not math.isfinite(peak):
        _refuse(~np.isfinite(values), grid.points(),
                label + " is not finite at x={x}", DriftDomainError)
    if peak <= 0.0:
        raise error(f"{label} vanished on the whole grid")
    if values[0] > rel * peak or values[-1] > rel * peak:
        raise error(f"{label} boundary values exceed {rel:g} of the peak; "
                    "widen the grid")


def normalization_defect(kind, m, T, x_prime, grid):
    """integral of the kernel over the grid range, minus 1.

    Guarded: boundary kernel values must be below 1e-12 of the peak so the
    truncated tail cannot hide in the defect.
    """
    _check_tails(kernel_eval(kind, m, T, grid.points(), x_prime), 1e-12,
                 TailMassError, "kernel", grid)
    n_panels = max(grid.n_points // 8, 64)
    coarse = _integrate_kernel(kind, m, T, x_prime, grid.x_min, grid.x_max,
                               n_panels)
    fine = _integrate_kernel(kind, m, T, x_prime, grid.x_min, grid.x_max,
                             2 * n_panels)
    if abs(fine - coarse) > _DEFECT_TOL:
        raise TailMassError(f"kernel quadrature did not settle: |{fine} - "
                            f"{coarse}| > {_DEFECT_TOL}")
    return fine - 1.0


def marginal_density(kind, m, law, T, x):
    """Density of the flowed state at time T when the start point is drawn
    from the discrete law: sum_j w_j * kernel(T, x | x' = a_j), every atom
    a_j a start point in m's frame, as x_prime is.  One kernel_matrix on
    m serves all the atoms; the result has x's shape, and DriftDomainError
    names an x where it is not finite."""
    atoms, weights = np.array(law.atoms).T
    out = (kernel_matrix(m, kind, T, x, atoms) @ weights).reshape(np.shape(x))
    _refuse(~np.isfinite(out), x, "the marginal density is not finite at "
            "x={x}", DriftDomainError)
    return _result(out)
