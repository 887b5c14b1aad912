"""Numerical realization of the increasing map Lambda(x) = int dx / f(alpha+x),
its inverse, and the drift flow phi_t(x) = Lambda^{-1}(Lambda(x) + t).

Lambda is pinned to 0 at a reference point; all downstream formulas only use
Lambda^{-1}(Lambda(.) +/- t), which is invariant under that normalization.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


class LampertiError(Exception):
    """Base class for map evaluation failures."""


class QuadratureError(LampertiError):
    """A table for Lambda passed its cell budget."""


_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL_X = np.concatenate([_GL16_X, _GL8_X])  # both rules' nodes, one pass

_EPS = np.finfo(float).eps
_MAX_NODES = 1 << 18  # cells of one table, which ends a runaway range
_CHUNK = 1 << 13  # cells per quadrature call, which bounds its memory
_H0 = 0.05  # narrowest first cell; a cell is split until its midpoint holds
_FIRST_CELLS = 1 << 12  # first cells of a hull, at least _H0 wide
_MAX_SPLIT = 4  # halvings of a failed cell per round


def _floats(name, v):
    """v as a float array; LampertiError on a non-finite entry."""
    v = np.asarray(v, dtype=float)
    finite = np.isfinite(v)
    if not np.all(finite):
        raise LampertiError(f"non-finite {name}={float(v[~finite][0])!r}")
    return v


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


def _ends(v):
    """The knots v as a pair (left ends, right ends) of their cells."""
    return v[:-1], v[1:]


def _horner(c, v):
    """Hermite cells c (one column per entry of v) evaluated at v."""
    s = (v - c[0]) * c[1]
    out = c[7] * s
    for k in (6, 5, 4, 3):
        out += c[k]
        out *= s
    out += c[2]
    return out


class LampertiMap:
    """Holds the drift, the scalar shift alpha, and the one tolerance root_tol.

    Evaluation is pure given the fields; instances may be shared freely.
    The effective drift is F(x) = f(alpha + x).  Lambda and its inverse come
    from a quintic Hermite table on the hull of each call's inputs, extended
    to cover its outputs; finished tables are cached by the arguments they
    were built from, so the cache never changes a result.
    """

    def __init__(self, drift, alpha=0.0, root_tol=1e-10, reference_point=0.0):
        self.drift = drift
        self.alpha = float(alpha)
        self.root_tol = float(root_tol)
        self.reference_point = float(reference_point)
        self.is_constant = drift.is_constant
        self._const = float(drift(0.0)) if self.is_constant else None
        self._cache = {}  # tables by the arguments of _table_on

    # -- effective drift ----------------------------------------------------

    def drift_at(self, x):
        """F(x) as a float array of x's shape (0-d for a scalar x)."""
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(
            np.asarray(self.drift(self.alpha + x), dtype=float), x.shape)

    def drift_jets(self, x):
        """(F, F', F'') of the shifted drift at x."""
        return self.drift.jets(self.alpha + np.asarray(x, dtype=float))

    def _inv_drift(self, x):
        f = self.drift_at(x)
        bad = ~((f > 0.0) & (f < math.inf))
        if np.any(bad):
            raise LampertiError(
                f"drift non-positive or non-finite at x={float(x[bad][0])!r}; "
                "assumption violated on the traversed range"
            )
        return 1.0 / f

    # -- quadrature ---------------------------------------------------------

    def _segment_integrals(self, a, b):
        """16-point Gauss-Legendre integral of 1/F over each [a_i, b_i]
        (a_i <= b_i), and whether the 8-point sum agrees with it: to the
        piece's share of root_tol, or to 1e-15 relative, a few roundings of
        such sums."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        v = self._inv_drift(mid[:, None] + half[:, None] * _GL_X)
        i16 = half * (v[:, :16] @ _GL16_W)
        i8 = half * (v[:, 16:] @ _GL8_W)
        span = max(float(np.sum(b - a)), 1e-300)
        local_tol = self.root_tol * np.maximum(b - a, 1e-300) / span
        ok = np.abs(i16 - i8) <= np.maximum(local_tol, 1e-15 * np.abs(i16))
        return i16, ok

    # -- the table ------------------------------------------------------------

    def _cells(self, lo, hi):
        """Lambda's increment over each cell [lo, hi] and the cell's midpoint
        error, less what the rounding of x alone explains: its Hermite
        Lambda against the quadrature of its halves, and the residual of its
        Hermite inverse under quadrature.  The error is inf, so the cell is
        split, where an 8-point sum disagrees with its 16-point one."""
        ends = np.stack([lo, hi])
        g = self._inv_drift(ends)
        _, f1, _ = self.drift_jets(ends)
        mid = 0.5 * (lo + hi)
        half, ok = self._segment_integrals(np.concatenate([lo, mid]),
                                           np.concatenate([mid, hi]))
        first = half[:lo.size]
        seg = first + half[lo.size:]
        y = np.stack([np.zeros_like(seg), seg])
        fwd = _hermite(ends, y, g, -f1 * g * g)
        inv = _hermite(y, ends, 1.0 / g, f1 / g)
        x_hat = np.clip(_horner(inv, 0.5 * seg), lo, hi)
        res, res_ok = self._segment_integrals(lo, x_hat)
        err = np.maximum(np.abs(_horner(fwd, mid) - first),
                         np.abs(res - 0.5 * seg))
        err -= 2.0 * _EPS * np.max(np.abs(ends) * g, axis=0)
        return seg, np.where(ok[:lo.size] & ok[lo.size:] & res_ok, err, np.inf)

    def _knots(self, a, b, anchor):
        """Knots on [a, b] and Lambda's increment over each cell: first at
        spacing h = max(_H0, (b - a)/_FIRST_CELLS) from the anchor (a knot,
        a <= anchor <= b), the end cells clipped to [a, b] (h/2 to 3h/2
        wide), then each cell split until it passes the midpoint check, so
        a smooth stretch keeps wide cells."""
        tol = self.root_tol
        h = max(_H0, (b - a) / _FIRST_CELLS)
        n_left = 0 if a == anchor else max(round((anchor - a) / h), 1)
        n_right = 0 if b == anchor else max(round((b - anchor) / h), 1)
        x = anchor + h * np.arange(-n_left, max(n_right, 1 - n_left) + 1)
        x[0], x[-1] = a, b
        lo, hi = _ends(x)
        done_lo, done_seg, n_done = [], [], 0
        while lo.size:
            parts = [self._cells(lo[k:k + _CHUNK], hi[k:k + _CHUNK])
                     for k in range(0, lo.size, _CHUNK)]
            seg = np.concatenate([p[0] for p in parts])
            err = np.concatenate([p[1] for p in parts])
            ok = err <= tol
            done_lo.append(lo[ok])
            done_seg.append(seg[ok])
            n_done += int(np.count_nonzero(ok))
            lo, hi, err = lo[~ok], hi[~ok], err[~ok]
            # the error goes as w^6: split as often as that predicts
            k = np.log2(np.fmin(err / tol, 2.0 ** (6 * _MAX_SPLIT))) / 6.0
            n = 2 ** np.clip(np.ceil(k), 1, _MAX_SPLIT).astype(np.intp)
            if n_done + n.sum() > _MAX_NODES:
                raise QuadratureError(
                    f"a table on [{float(a)!r}, {float(b)!r}] needs more "
                    f"than the budget of {_MAX_NODES} cells")
            cell = np.repeat(np.arange(n.size), n)
            j = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
            w = (hi - lo)[cell]
            lo, hi = (lo[cell] + w * (j / n[cell]),
                      np.where(j + 1 == n[cell], hi[cell],
                               lo[cell] + w * ((j + 1) / n[cell])))
        lo, seg = np.concatenate(done_lo), np.concatenate(done_seg)
        order = np.argsort(lo)
        return np.append(lo[order], b), seg[order]

    def _table(self, x, y):
        """Hermite cells on the knots x with Lambda values y: Lambda's fwd
        in x, and its inverse's inv in y."""
        g = self._inv_drift(x)
        _, f1, _ = self.drift_jets(x)
        return SimpleNamespace(
            x=x, y=y, g=g,
            fwd=_hermite(_ends(x), _ends(y), _ends(g), _ends(-f1 * g * g)),
            inv=_hermite(_ends(y), _ends(x), _ends(1.0 / g), _ends(f1 / g)))

    def _table_on(self, hull, a=None, b=None):
        """The table on the hull (lo <= reference <= hi), accumulated outward
        from the reference, or that table extended by cells from its ends
        to reach a <= lo and b >= hi.  Each table depends on these arguments
        alone, so equal inputs give equal results, and the last few are
        cached; the cache is replaced, never changed in place."""
        key = (*hull, a, b)
        t = self._cache.get(key)
        if t is None:
            if a is None:
                ref = self.reference_point
                x, seg = self._knots(*hull, ref)
                r = np.searchsorted(x, ref)  # the reference is a knot
                y = np.concatenate([-np.cumsum(seg[:r][::-1])[::-1], [0.0],
                                    np.cumsum(seg[r:])])
            else:
                base = self._table_on(hull)
                x, y = base.x, base.y
                if a < x[0]:
                    xa, seg = self._knots(a, x[0], x[0])
                    x = np.concatenate([xa[:-1], x])
                    y = np.concatenate([y[0] - np.cumsum(seg[::-1])[::-1], y])
                if b > x[-1]:
                    xb, seg = self._knots(x[-1], b, x[-1])
                    x = np.concatenate([x, xb[1:]])
                    y = np.concatenate([y, y[-1] + np.cumsum(seg)])
            t = self._table(x, y)
            cache = self._cache if len(self._cache) < 4 else {}
            self._cache = {**cache, key: t}
        return t

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
        t = self._table_on((x.min(initial=ref), x.max(initial=ref)))
        j = np.searchsorted(t.x, x, side="right") - 1
        return _result(_horner(np.take(t.fwd, np.clip(j, 0, len(t.x) - 2),
                                       axis=1), x))

    def lambda_inverse(self, y, x0=None, lam0=None):
        """Solve Lambda(x) = y on a table grown until it covers y: each end
        moves by its first-order guess (y - Lambda) F, doubled per try.

        x0/lam0 optionally give points of y's shape with Lambda(x0) = lam0;
        the table starts on their hull, and y = lam0 gives x0 exactly.
        """
        y = _floats("y", y)
        ref = self.reference_point
        if self.is_constant:
            return _result(ref + y * self._rate())
        start = ref if x0 is None else x0
        hull = (np.min(start, initial=ref), np.max(start, initial=ref))
        t = self._table_on(hull)
        lo, hi = y.min(initial=0.0), y.max(initial=0.0)
        scale = 1.0
        while lo < t.y[0] or hi > t.y[-1]:
            a = t.x[0] + scale * min(lo - t.y[0], 0.0) / t.g[0]
            b = t.x[-1] + scale * max(hi - t.y[-1], 0.0) / t.g[-1]
            if not math.isfinite(b - a):
                raise LampertiError(
                    f"no finite table reaches y in [{float(lo)!r}, "
                    f"{float(hi)!r}]; drift bounds likely violated")
            t = self._table_on(hull, a, b)
            scale *= 2.0
        j = np.searchsorted(t.y, y, side="right") - 1
        x = _horner(np.take(t.inv, np.clip(j, 0, len(t.x) - 2), axis=1), y)
        if x0 is not None:
            x = np.where(y == lam0, x0, x)
        return _result(x)

    def flow(self, x, t):
        """phi_t(x) = Lambda^{-1}(Lambda(x) + t); negative t flows backward."""
        x, t = np.broadcast_arrays(_floats("x", x), _floats("t", t))
        if self.is_constant:
            return _result(x + self._const * t)
        lam = self.lambda_map(x)
        return self.lambda_inverse(lam + t, x0=x, lam0=lam)

    def transport(self, x, t):
        """(y, dy/dx) for the backward flow y = phi_{-t}(x): dy/dx = F(y)/F(x),
        exactly 1 for a constant drift (also f = 0, where it would be 0/0)."""
        y = self.flow(x, -t)
        if self.is_constant:
            return y, 1.0
        return y, self.drift_at(y) / self.drift_at(x)
