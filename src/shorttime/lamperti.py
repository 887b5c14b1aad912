"""Numerical realization of the increasing map Lambda(x) = int dx / f(alpha+x),
its inverse, and the drift flow phi_t(x) = Lambda^{-1}(Lambda(x) + t).

Lambda is pinned to 0 at a reference point; all downstream formulas only use
Lambda^{-1}(Lambda(.) +/- t), which is invariant under that normalization.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np


class LampertiError(Exception):
    """A map evaluation failed: a bad input, a drift outside the bounds, or
    a table for Lambda past its cell budget."""


_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL_X = np.concatenate([_GL16_X, _GL8_X])  # both rules' nodes, one pass

_EPS = np.finfo(float).eps
_MAX_NODES = 1 << 18  # cells of one table, which ends a runaway range
_CHUNK = 1 << 13  # cells per quadrature call, which bounds its memory
# Knot j of a map's lattice sits at reference + _SCALE sinh(j / _FIRST_CELLS):
# _H0 apart near the reference, spreading out past _SCALE from it.  Each
# lattice cell is split until it passes the midpoint check.
_H0 = 0.05
_FIRST_CELLS = 1 << 12
_SCALE = _H0 * _FIRST_CELLS
_MAX_SPLIT = 4  # halvings of a failed cell per round


def _floats(name, v):
    """v as a float array; LampertiError on a non-finite entry."""
    v = np.asarray(v, dtype=float)
    finite = np.isfinite(v)
    if not np.all(finite):
        raise LampertiError(f"non-finite {name}={float(v[~finite][0])!r}")
    return v


# Cells (or points) per block of the row-blocked loops: girsanov's paths,
# kernels' _fill and _integrate_kernel, sampler's Euler-Maruyama steps and
# drift.validate_assumption's scan.  512 KiB of float64, well inside L2.
_BLOCK_CELLS = 1 << 16


def _result(out):
    """The numeric core's return policy: a float if 0-d, else the array."""
    return float(out) if np.ndim(out) == 0 else out


def _check_horizon(T, t=None):
    """ValueError unless T is finite and positive and, given t, 0 <= t <= T."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if t is not None and not 0.0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t!r}")


def _hermite(x, p, d1, d2):
    """Quintic Hermite cells from values p and derivatives d1, d2 at the
    knots x, each given as a pair (left ends, right ends): rows x_i, 1/w_i,
    c_0..c_5, so p = sum c_k s^k at s = (v - x_i)/w_i."""
    w, dp = x[1] - x[0], p[1] - p[0]
    a, b = w * d1[0], w * d1[1]
    a2, b2 = w * w * d2[0], w * w * d2[1]
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0.0)
    return np.stack([
        x[0], inv_w, p[0], a, 0.5 * a2,
        10.0 * dp - 6.0 * a - 4.0 * b - 1.5 * a2 + 0.5 * b2,
        -15.0 * dp + 8.0 * a + 7.0 * b + 1.5 * a2 - b2,
        6.0 * dp - 3.0 * (a + b) - 0.5 * (a2 - b2),
    ])


def _over_budget(a, b):
    """The error for a table that covering [a, b] would take past budget."""
    return LampertiError(
        f"covering [{float(a)!r}, {float(b)!r}] needs more than the "
        f"table's budget of {_MAX_NODES} cells")


def _ends(v):
    """The knots v as a pair (left ends, right ends) of their cells."""
    return v[:-1], v[1:]


def _horner(c, j, v):
    """Hermite cells c[:, j] evaluated at v, in three buffers of v's shape:
    each row of c is gathered on its own (mode "clip": j is in range, and
    "raise" would buffer the gather)."""
    s, row, out = (np.empty_like(v) for _ in range(3))
    np.subtract(v, c[0].take(j, out=row, mode="clip"), out=s)
    s *= c[1].take(j, out=row, mode="clip")
    np.multiply(c[7].take(j, out=out, mode="clip"), s, out=out)
    for k in (6, 5, 4, 3):
        out += c[k].take(j, out=row, mode="clip")
        out *= s
    out += c[2].take(j, out=row, mode="clip")
    return out


class LampertiMap:
    """Holds the drift, the scalar shift alpha, and the one tolerance root_tol.

    The effective drift is F(x) = f(alpha + x).  Lambda and its inverse come
    from one quintic Hermite table, grown outward by whole cells of a lattice
    that the map alone fixes, so a value depends only on the map and the
    point.  Growth replaces the table without changing a value already in
    it, so instances may be shared freely.
    """

    def __init__(self, drift, alpha=0.0, root_tol=1e-10, reference_point=0.0):
        self.drift = drift
        self.alpha = float(alpha)
        self.root_tol = float(root_tol)
        self.reference_point = float(reference_point)
        self.is_constant = drift.is_constant
        self._const = float(drift(0.0)) if self.is_constant else None
        # F itself: the drift's programs, alpha added by their first call
        self._shifted = dataclasses.replace(drift, _shift=self.alpha)
        # lattice knots j0..j1 (the reference is knot 0), split into cells
        self._table = SimpleNamespace(j0=0, j1=0, x=np.array([
            self.reference_point]), y=np.zeros(1))

    # -- effective drift ----------------------------------------------------

    def drift_at(self, x):
        """F(x) as a float array of x's shape (0-d for a scalar x), in a
        buffer of the call's own."""
        return np.asarray(self._shifted(x))

    def drift_jets(self, x):
        """(F, F') at x, from one order-1 pass."""
        return self._shifted.jets(np.asarray(x, dtype=float), 1)

    def _inv_drift(self, x, f):
        """1/f, f = F(x); LampertiError where it is not positive and finite."""
        with np.errstate(divide="ignore", over="ignore"):
            g = 1.0 / f
        bad = ~((g > 0.0) & (g < math.inf))
        if np.any(bad):
            raise LampertiError(
                f"drift non-positive or non-finite, or 1/F overflows, at "
                f"x={float(x[bad][0])!r}; assumption violated on the "
                "traversed range"
            )
        return g

    # -- quadrature ---------------------------------------------------------

    def _segment_integrals(self, a, b):
        """16-point Gauss-Legendre integral of 1/F over each [a_i, b_i]
        (a_i <= b_i), and whether the 8-point sum agrees with it: to
        root_tol per lattice length _SCALE, or to 1e-15 relative, a few
        roundings of such sums.  Each piece is judged alone, and its sums
        run over its own row, so its result does not depend on the others."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _GL_X
        v = self._inv_drift(x, self.drift_at(x))
        i16 = half * np.sum(v[:, :16] * _GL16_W, axis=1)
        i8 = half * np.sum(v[:, 16:] * _GL8_W, axis=1)
        tol = self.root_tol * (b - a) / _SCALE
        ok = np.abs(i16 - i8) <= np.maximum(tol, 1e-15 * np.abs(i16))
        return i16, ok

    # -- the table ------------------------------------------------------------

    def _cells(self, lo, hi):
        """Lambda's increment over each cell [lo, hi] and the cell's midpoint
        error, less what the rounding of x alone explains: its Hermite
        Lambda against the quadrature of its halves, and the residual of its
        Hermite inverse under quadrature.  The error is inf, so the cell is
        split, where an 8-point sum disagrees with its 16-point one."""
        ends = np.stack([lo, hi])
        f, f1 = self.drift_jets(ends)
        g = self._inv_drift(ends, f)
        # F F', the inverse's second derivative, checked where a knot is
        # first made: it can overflow where 1/F does not
        with np.errstate(over="ignore", invalid="ignore"):
            ff1 = f1 / g
        bad = ~np.isfinite(ff1)
        if np.any(bad):
            raise LampertiError(
                f"F F' is not finite at x={float(ends[bad][0])!r}; "
                "assumption violated on the traversed range")
        mid = 0.5 * (lo + hi)
        half, ok = self._segment_integrals(np.concatenate([lo, mid]),
                                           np.concatenate([mid, hi]))
        first = half[:lo.size]
        seg = first + half[lo.size:]
        y = np.stack([np.zeros_like(seg), seg])
        fwd = _hermite(ends, y, g, -f1 * g * g)
        inv = _hermite(y, ends, 1.0 / g, ff1)
        cols = np.arange(lo.size)
        x_hat = np.clip(_horner(inv, cols, 0.5 * seg), lo, hi)
        res, res_ok = self._segment_integrals(lo, x_hat)
        err = np.maximum(np.abs(_horner(fwd, cols, mid) - first),
                         np.abs(res - 0.5 * seg))
        err -= 2.0 * _EPS * np.max(np.abs(ends) * g, axis=0)
        return seg, np.where(ok[:lo.size] & ok[lo.size:] & res_ok, err, np.inf)

    def _refine(self, lo, hi, budget):
        """The cells [lo, hi] split until each passes the midpoint check, as
        (lo, hi, Lambda's increment) in order of lo; a smooth stretch keeps
        wide cells, and a cell's splits depend on the cell alone."""
        tol = self.root_tol
        done, n_done = [], 0
        while lo.size:
            parts = [self._cells(lo[k:k + _CHUNK], hi[k:k + _CHUNK])
                     for k in range(0, lo.size, _CHUNK)]
            seg = np.concatenate([p[0] for p in parts])
            err = np.concatenate([p[1] for p in parts])
            ok = err <= tol
            done.append((lo[ok], hi[ok], seg[ok]))
            n_done += int(np.count_nonzero(ok))
            lo, hi, err = lo[~ok], hi[~ok], err[~ok]
            # the error goes as w^6: split as often as that predicts
            k = np.log2(np.fmin(err / tol, 2.0 ** (6 * _MAX_SPLIT))) / 6.0
            n = 2 ** np.clip(np.ceil(k), 1, _MAX_SPLIT).astype(np.intp)
            if n_done + n.sum() > budget:
                raise _over_budget(lo.min(), hi.max())
            cell = np.repeat(np.arange(n.size), n)
            j = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
            w = (hi - lo)[cell]
            lo, hi = (lo[cell] + w * (j / n[cell]),
                      np.where(j + 1 == n[cell], hi[cell],
                               lo[cell] + w * ((j + 1) / n[cell])))
        lo, hi, seg = (np.concatenate(v) for v in zip(*done))
        order = np.argsort(lo)
        return lo[order], hi[order], seg[order]

    def _cover(self, a, b):
        """The table, grown by whole lattice cells on each side until a and b
        lie inside it, short of its end knots (so a point's cell never
        changes).  Lambda is summed outward from
        the reference in one order, so growing never changes a value already
        in the table; a failed growth leaves the table as it was."""
        t = self._table
        if t.x[0] < a and b < t.x[-1]:
            return t
        with np.errstate(over="ignore"):  # past the float range: inf cells
            k = _FIRST_CELLS * np.arcsinh(
                (np.array([a, b]) - self.reference_point) / _SCALE)
        j0 = t.j0 if t.x[0] < a else min(np.floor(k[0]), t.j0 - 1)
        j0 -= self._lattice(j0) >= a  # a point on a knot needs a cell past it
        j1 = t.j1 if b < t.x[-1] else max(np.ceil(k[1]), t.j1 + 1)
        j1 += self._lattice(j1) <= b
        budget = _MAX_NODES - (t.x.size - 1)
        if (t.j0 - j0) + (j1 - t.j1) > budget:
            raise _over_budget(a, b)
        j0, j1 = int(j0), int(j1)
        xl = np.append(self._lattice(np.arange(j0, t.j0)), t.x[0])
        xr = np.insert(self._lattice(np.arange(t.j1 + 1, j1 + 1)), 0, t.x[-1])
        lo, hi, seg = self._refine(np.concatenate([xl[:-1], xr[:-1]]),
                                   np.concatenate([xl[1:], xr[1:]]), budget)
        left = hi <= t.x[0]
        y = np.concatenate([
            np.cumsum(np.append(t.y[0], -seg[left][::-1]))[:0:-1], t.y,
            np.cumsum(np.append(t.y[-1], seg[~left]))[1:]])
        x = np.concatenate([lo[left], t.x, hi[~left]])
        f, f1 = self.drift_jets(x)
        g = self._inv_drift(x, f)
        self._table = SimpleNamespace(
            j0=j0, j1=j1, x=x, y=y, g=g,
            fwd=_hermite(_ends(x), _ends(y), _ends(g), _ends(-f1 * g * g)),
            inv=_hermite(_ends(y), _ends(x), _ends(1.0 / g), _ends(f1 / g)))
        return self._table

    def _lattice(self, j):
        """The knots j of the map's lattice."""
        return self.reference_point + _SCALE * np.sinh(j / _FIRST_CELLS)

    # -- Lambda and its inverse --------------------------------------------

    def _rate(self):
        """The constant drift, which Lambda needs positive."""
        if self._const <= 0.0:
            raise LampertiError("constant drift must be positive for Lambda")
        return self._const

    def lambda_map(self, x):
        """Lambda(x) = int_{reference}^{x} du / F(u), vectorized."""
        x = _floats("x", x)
        ref = self.reference_point
        if self.is_constant:
            return _result((x - ref) / self._rate())
        t = self._cover(x.min(initial=ref), x.max(initial=ref))
        j = np.searchsorted(t.x, x, side="right")
        j -= 1
        return _result(_horner(t.fwd, j, x))

    def lambda_inverse(self, y):
        """Solve Lambda(x) = y on the table, grown until it covers y: each
        end short of y moves by its first-order guess (y - Lambda) F,
        doubled per try."""
        y = _floats("y", y)
        ref = self.reference_point
        if self.is_constant:
            return _result(ref + y * self._rate())
        t = self._cover(ref, ref)
        lo, hi = y.min(initial=0.0), y.max(initial=0.0)
        scale = 1.0
        while not t.y[0] < lo <= hi < t.y[-1]:
            a = ref if t.y[0] < lo else t.x[0] + scale * (lo - t.y[0]) / t.g[0]
            b = ref if hi < t.y[-1] else (
                t.x[-1] + scale * (hi - t.y[-1]) / t.g[-1])
            if not math.isfinite(b - a):
                raise LampertiError(
                    f"no finite table reaches y in [{float(lo)!r}, "
                    f"{float(hi)!r}]; drift bounds likely violated")
            t = self._cover(a, b)
            scale *= 2.0
        j = np.searchsorted(t.y, y, side="right")
        j -= 1
        return _result(_horner(t.inv, j, y))

    def flow(self, x, t):
        """phi_t(x) = Lambda^{-1}(Lambda(x) + t); negative t flows backward,
        and phi_0(x) = x exactly."""
        x, t = np.broadcast_arrays(_floats("x", x), _floats("t", t))
        if self.is_constant:
            return _result(x + self._const * t)
        lam = self.lambda_map(x)
        y = lam + t
        keep = y == lam  # t below Lambda's spacing there: x itself
        del lam  # held: x, y, keep, then the result, written in place
        out = np.asarray(self.lambda_inverse(y))
        np.copyto(out, x, where=keep)
        return _result(out)

    def transport(self, x, t):
        """(y, dy/dx) for the backward flow y = phi_{-t}(x): dy/dx = F(y)/F(x),
        exactly 1 for a constant drift (also f = 0, where it would be 0/0)."""
        y = self.flow(x, -t)
        if self.is_constant:
            return y, 1.0
        return y, self.drift_at(y) / self.drift_at(x)
