"""Numerical realization of the increasing map Lambda(x) = int dx / f(alpha+x),
its inverse, and the drift flow phi_t(x) = Lambda^{-1}(Lambda(x) + t).

Lambda is pinned to 0 at a reference point; all downstream formulas only use
Lambda^{-1}(Lambda(.) +/- t), which is invariant under that normalization.
"""

from __future__ import annotations

import math

import numpy as np

from .drift import DriftDomainError


class LampertiError(Exception):
    """Base class for map evaluation failures."""


class QuadratureError(LampertiError):
    """Adaptive integration failed to reach the requested tolerance."""


class BracketError(LampertiError):
    """Could not bracket the inverse; usually an assumption violation."""


_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)

_MAX_REFINE = 60
_MAX_LIVE = 1 << 16  # live subintervals of one integral (QUADPACK's limit)
_MAX_BRACKET_DOUBLINGS = 80
_MAX_NEWTON = 100


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


class LampertiMap:
    """Holds the drift, the scalar shift alpha, and evaluation tolerances.

    Evaluation is pure given the fields; instances may be shared freely.
    The effective drift is F(x) = f(alpha + x).
    """

    def __init__(self, drift, alpha=0.0, quad_tol=1e-10, root_tol=1e-10,
                 reference_point=0.0):
        self.drift = drift
        self.alpha = float(alpha)
        self.quad_tol = float(quad_tol)
        self.root_tol = float(root_tol)
        self.reference_point = float(reference_point)
        self.is_constant = drift.is_constant
        self._const = float(drift(0.0)) if self.is_constant else None

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
        if np.any(f <= 0.0):
            raise LampertiError(
                f"drift non-positive at x={float(x[f <= 0.0][0])!r}; "
                "assumption violated on the traversed range"
            )
        return 1.0 / f

    # -- quadrature ---------------------------------------------------------

    def _segment_integrals(self, a, b):
        """Integral of 1/F over each [a_i, b_i] (a_i <= b_i), adaptively."""
        total = np.zeros_like(a)
        idx = np.arange(a.size)
        lo, hi = a.copy(), b.copy()
        tol = self.quad_tol
        span = max(float(np.sum(b - a)), 1e-300)
        for _ in range(_MAX_REFINE):
            if idx.size == 0:
                return total
            # no segment may split into more than _MAX_LIVE live pieces;
            # the total bounds every segment's count, so bincount runs rarely
            if idx.size > _MAX_LIVE and np.bincount(idx).max() > _MAX_LIVE:
                raise QuadratureError(
                    f"{idx.size} live subintervals exceed the budget of "
                    f"{_MAX_LIVE} per integral at quad_tol={tol}"
                )
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            nodes16 = mid[:, None] + half[:, None] * _GL16_X[None, :]
            vals16 = self._inv_drift(nodes16)
            i16 = half * (vals16 @ _GL16_W)
            nodes8 = mid[:, None] + half[:, None] * _GL8_X[None, :]
            vals8 = self._inv_drift(nodes8)
            i8 = half * (vals8 @ _GL8_W)
            local_tol = tol * np.maximum(hi - lo, 1e-300) / span
            ok = np.abs(i16 - i8) <= np.maximum(local_tol, 1e-16 * np.abs(i16))
            np.add.at(total, idx[ok], i16[ok])
            bad = ~ok
            idx = np.concatenate([idx[bad], idx[bad]])
            lo = np.concatenate([lo[bad], mid[bad]])
            hi = np.concatenate([mid[bad], hi[bad]])
        raise QuadratureError(
            f"{idx.size} subintervals failed to converge to quad_tol={tol}"
        )

    # -- Lambda and its inverse --------------------------------------------

    def _rate(self):
        """The constant drift, which Lambda needs positive."""
        if self._const <= 0.0:
            raise LampertiError("constant drift must be positive for Lambda")
        return self._const

    def lambda_map(self, x):
        """Lambda(x) = int_{reference}^{x} du / F(u), vectorized."""
        x = _floats("x", x)
        if self.is_constant:
            return _result((x - self.reference_point) / self._rate())
        xs = x.ravel()
        ref = self.reference_point
        pts = np.unique(np.concatenate([xs, [ref]]))
        seg = self._segment_integrals(pts[:-1], pts[1:])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        vals = cum - cum[np.searchsorted(pts, ref)]
        return _result(vals[np.searchsorted(pts, xs)].reshape(x.shape))

    def lambda_inverse(self, y, x0=None, lam0=None):
        """Solve Lambda(x) = y by bracketing plus safeguarded Newton.

        x0/lam0 optionally supply starting points and their Lambda values,
        of y's shape (used by flow so brackets start at the flowed point,
        not at the reference).
        """
        y = _floats("y", y)
        if self.is_constant:
            return _result(self.reference_point + y * self._rate())
        shape = y.shape
        y = y.ravel()
        if x0 is None:
            x0, lam0 = np.full_like(y, self.reference_point), np.zeros_like(y)
        x0, lam0 = np.ravel(x0), np.ravel(lam0)

        dy = y - lam0
        f0 = self.drift_at(x0)
        step = dy * f0  # first-order displacement guess

        lo = x0.copy()
        r_lo = lam0 - y  # residual at lo; sign(-dy)
        hi = x0 + step
        done0 = dy == 0.0
        hi[done0] = x0[done0]

        # Expand the far end until the residual changes sign.  Lambda is
        # strictly increasing, so under the drift lower bound this terminates.
        active = ~done0
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            if not np.any(active):
                break
            r_hi = self.lambda_map(hi[active]) - y[active]
            same = np.sign(r_hi) == np.sign(r_lo[active])
            same &= r_hi != 0.0
            idx = np.flatnonzero(active)
            settled = idx[~same]
            active[settled] = False
            grow = idx[same]
            lo[grow] = hi[grow]
            r_lo[grow] = r_hi[same]
            step[grow] *= 2.0
            hi[grow] = x0[grow] + step[grow]
        if np.any(active):
            raise BracketError(
                "could not bracket Lambda inverse; drift bounds likely violated"
            )

        a = np.minimum(lo, hi)
        b = np.maximum(lo, hi)
        x = np.clip(x0 + dy * f0, a, b)
        x[done0] = x0[done0]
        unresolved = ~done0
        for _ in range(_MAX_NEWTON):
            if not np.any(unresolved):
                break
            xa = x[unresolved]
            r = self.lambda_map(xa) - y[unresolved]
            conv = np.abs(r) <= self.root_tol
            idx = np.flatnonzero(unresolved)
            unresolved[idx[conv]] = False
            rest = idx[~conv]
            if rest.size == 0:
                continue
            r = r[~conv]
            xr = x[rest]
            # shrink brackets from the residual sign, then Newton with
            # Lambda'(x) = 1/F(x); bisect whenever Newton leaves the bracket
            pos = r > 0.0
            b[rest[pos]] = xr[pos]
            a[rest[~pos]] = xr[~pos]
            xn = xr - r * self.drift_at(xr)
            bad = (xn <= a[rest]) | (xn >= b[rest])
            xn[bad] = 0.5 * (a[rest][bad] + b[rest][bad])
            x[rest] = xn
        if np.any(unresolved):
            raise LampertiError(
                f"Newton failed to reach root_tol={self.root_tol} for "
                f"{int(np.sum(unresolved))} points"
            )
        return _result(x.reshape(shape))

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
