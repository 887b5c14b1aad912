"""Short-time transition kernels for dX = F(X) dt + dB and their marginals
under a discrete initial law.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_matrix

from .lamperti import _GL16_W, _GL16_X, _check_horizon, _result

# Cells per row block of _gaussian: 512 KiB of float64, well inside L2.
_BLOCK_CELLS = 1 << 16
# Half-width of _kernel_band in standard deviations sqrt(T): a cell further
# out is below exp(-_BAND_SIGMAS^2 / 2) = 1e-16 of its row's peak.
_BAND_SIGMAS = math.sqrt(2.0 * math.log(1e16))


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


def _gaussian(c, x_prime, T, scale, shift=None, damp=None):
    """scale * exp(-(c - x' - shift)^2 / 2T - damp), broadcast over all
    operands (shift and damp may be None), into one fresh buffer.

    The buffer is filled in blocks of whole rows of about _BLOCK_CELLS
    cells, one in-place ufunc chain per block, so no grid-sized temporary
    exists. The chain keeps the operation order of that one-line formula,
    so every cell is bitwise what the whole-grid expression gives; the
    division by -2T equals (-a) / 2T exactly, as IEEE rounding is symmetric
    in sign.
    """
    ops = [np.asarray(v, dtype=float) if v is not None else None
           for v in (c, x_prime, shift, damp, scale)]
    shape = np.broadcast_shapes(*(v.shape for v in ops if v is not None))
    out = np.empty(shape)
    ops = [np.broadcast_to(v, shape) if v is not None else None for v in ops]
    if out.ndim == 0:
        blocks = [...]  # a 0-d view: out[()] would be a scalar copy
    else:
        rows = max(1, _BLOCK_CELLS // max(1, math.prod(shape[1:])))
        blocks = [slice(i, i + rows) for i in range(0, shape[0], rows)]
    for key in blocks:
        o = out[key]
        c, xp, shift, damp, scale = (v[key] if v is not None else None
                                     for v in ops)
        np.subtract(c, xp, out=o)
        if shift is not None:
            np.subtract(o, shift, out=o)
        np.square(o, out=o)
        np.divide(o, -2.0 * T, out=o)
        if damp is not None:
            np.subtract(o, damp, out=o)
        np.exp(o, out=o)
        np.multiply(o, scale, out=o)
    return out


def _operands(kind, m, T, x, x_prime):
    """The _gaussian operands (c, x', scale, shift, damp) of the kind's
    kernel at x and x_prime: the one place the kernel formulas live.  Only
    the euler_maruyama shift depends on x'; c, scale, damp and the
    backward_euler/haken shift depend on x alone."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    if kind is KernelKind.GIRSANOV:
        y, ratio = m.transport(x, T)
        return y, x_prime, norm * ratio, None, None
    if kind is KernelKind.EULER_MARUYAMA:
        return x, x_prime, norm, m.drift_at(x_prime) * T, None
    if kind in (KernelKind.BACKWARD_EULER, KernelKind.HAKEN):
        f, f1, _ = m.drift_jets(x)
        return x, x_prime, norm, f * T, f1 * T
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_eval(kind, m, T, x, x_prime):
    """Density approximation p(T, x | 0, x_prime); broadcast over x/x_prime.

    girsanov:        (2 pi T)^{-1/2} (F(y)/F(x)) exp{-(y - x')^2 / 2T},
                     y the backward flow of x over T
    euler_maruyama:  (2 pi T)^{-1/2} exp{-(x - x' - F(x') T)^2 / 2T}
    backward_euler:  (2 pi T)^{-1/2} exp{-(x - x' - F(x) T)^2 / 2T - F'(x) T}
    haken:           identical closed form to backward_euler

    The flow and the jets depend on x only and the euler_maruyama drift on x'
    only, so on a product grid each runs once per point, not once per cell;
    the cells themselves fill one buffer of the broadcast shape.
    """
    _check_horizon(T)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    c, xp, scale, shift, damp = _operands(kind, m, T, x, xp)
    return _result(_gaussian(c, xp, T, scale, shift=shift, damp=damp))


def kernel_matrix(m, kind, T, xs, x_primes):
    """Kernel values on the product grid, shape (len(xs), len(x_primes)):
    kernel_eval with xs as a column and x_primes as a row."""
    return kernel_eval(kind, m, T, np.reshape(xs, (-1, 1)),
                       np.reshape(x_primes, (1, -1)))


def _kernel_band(m, kind, T, xs, weights):
    """kernel_matrix(m, kind, T, xs, xs) * weights, the weights scaling the
    columns, as a CSR matrix of its band: the cells within _BAND_SIGMAS
    standard deviations of their row's centre, W per row.

    Every cell is a Gaussian in a_i - b_j: a the row centre (the backward
    flow of x_i for girsanov, x_i - F(x_i) T for backward_euler/haken, x_i
    for euler_maruyama), b the column centre (x'_j, or x'_j + F(x'_j) T for
    euler_maruyama).  Row i keeps the columns from the first j whose
    running max of b reaches a_i - cut to the last j whose running min from
    the right stays within a_i + cut, so a non-monotone b widens the window
    and drops no cell inside the cut.  W is the widest window; each row's
    start is clipped to [0, n - W].  The cells are filled by _gaussian in
    row blocks of about _BLOCK_CELLS, each bitwise the kernel_matrix cell
    times its weight.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    ops = _operands(kind, m, T, xs[:, None], xs[None, :])
    # row operands are (n, 1) or 0-d, column operands (1, n)
    cols = [np.ndim(v) == 2 and v.shape[0] == 1 for v in ops]
    c, xp, _, shift, _ = ops
    if shift is None:
        a, b = c, xp
    elif cols[3]:  # euler_maruyama's shift F(x') T
        a, b = c, xp + shift
    else:
        a, b = c - shift, xp
    a, b = a.ravel(), b.ravel()  # (n, 1) and (1, n)
    cut = _BAND_SIGMAS * math.sqrt(T)
    lo = np.searchsorted(np.maximum.accumulate(b), a - cut, side="left")
    hi = np.searchsorted(np.minimum.accumulate(b[::-1])[::-1], a + cut,
                         side="right")
    width = max(1, int(np.max(hi - lo)))
    start = np.clip(lo, 0, n - width)
    indices = np.add(start[:, None].astype(np.int32),
                     np.arange(width, dtype=np.int32))
    # a row's columns are contiguous, so its column operands are one row of
    # the operand's sliding-window view: a row copy, not a cell gather
    ops = [sliding_window_view(v[0], width) if col else v
           for v, col in zip(ops, cols)]
    w = sliding_window_view(weights, width)
    data = np.empty((n, width))
    rows = max(1, _BLOCK_CELLS // width)
    for r in range(0, n, rows):
        blk = slice(r, r + rows)
        first = start[blk]
        c, xp, scale, shift, damp = (
            v[first] if col else v[blk] if np.ndim(v) == 2 else v
            for v, col in zip(ops, cols))
        np.multiply(_gaussian(c, xp, T, scale, shift=shift, damp=damp),
                    w[first], out=data[blk])
    indptr = np.arange(0, n * width + 1, width)
    return csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n, n))


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


def marginal_density(kind, m, law, T, x):
    """Density of the flowed state at time T when the start point is drawn
    from the discrete law: sum_j w_j * kernel(T, x | x' = a_j), every atom
    a_j a start point in m's frame, as x_prime is.  One kernel_matrix on
    m serves all the atoms; the result has x's shape."""
    atoms, weights = np.array(law.atoms).T
    out = kernel_matrix(m, kind, T, x, atoms) @ weights
    return _result(out.reshape(np.shape(x)))
