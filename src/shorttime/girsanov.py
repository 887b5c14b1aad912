"""Girsanov exponential: Ito-sum simulation, deterministic approximations,
and Monte Carlo measurement of the L^p gap against the horizon length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lamperti import _check_horizon, _result

_CHUNK = 2048  # paths per RNG chunk; fixes seeding independent of workers


def chunk_rng(base_seed, chunk_index):
    """Deterministic per-chunk generator; independent of scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(chunk_index,))
    )


def chunks(n, size, seed):
    """Yield (chunk_rng(seed, i), k) for the i-th chunk of k <= size draws,
    covering n draws; each chunk has its own seed, independent of workers."""
    for i, start in enumerate(range(0, n, size)):
        yield chunk_rng(seed, i), min(size, n - start)


@dataclass(frozen=True)
class BrownianPath:
    """A discretized Brownian trajectory on [0, horizon]."""

    horizon: float
    n_steps: int
    increments: np.ndarray
    seed: int

    @classmethod
    def generate(cls, horizon, n_steps, seed):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if n_steps < 1:
            raise ValueError("need at least one step")
        rng = np.random.default_rng(seed)
        dt = horizon / n_steps
        inc = rng.standard_normal(n_steps) * math.sqrt(dt)
        return cls(horizon=float(horizon), n_steps=int(n_steps),
                   increments=inc, seed=int(seed))

    @property
    def dt(self):
        return self.horizon / self.n_steps

    def cumulative(self):
        """B at the grid times, including B_0 = 0."""
        return np.concatenate([[0.0], np.cumsum(self.increments)])


@dataclass(frozen=True)
class MCConfig:
    n_paths: int
    n_steps: int
    base_seed: int
    p: float = 2.0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths")
        if self.n_steps < 1:
            raise ValueError("need at least 1 step")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be finite and >= 1, got {self.p!r}")


@dataclass(frozen=True)
class ErrorEstimate:
    mean: float        # L^p point estimate, (E|.|^p)^(1/p)
    std_error: float   # delta-method standard error of the point estimate
    n: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points: list = field(default_factory=list)  # (log T, log error)


def simulate_exponential(m, path):
    """Girsanov exponential from left-point (Ito) sums on the path grid."""
    b = path.cumulative()
    f = m.drift_at(b[:-1])
    ito = float(f @ path.increments)
    quad = float(np.sum(f * f)) * path.dt
    return math.exp(ito - 0.5 * quad)


def u_eval(m, t, x, T):
    """Solution of the drift-transport problem with source x/T, at (t, x).

    u(t, x) = (F(y)/F(x)) * exp(-(y^2 - x^2)/(2T)) with y the backward flow
    of x over time t; u(0, x) = 1.
    """
    _check_horizon(T, t)
    x = np.asarray(x, dtype=float)
    y, ratio = m.transport(x, t)
    out = ratio * np.exp(-((np.square(y) - np.square(x)) / (2.0 * T)))
    return _result(out)


def approx_exponential(m, b_T, T):
    """Deterministic stand-in for the Girsanov exponential: u(T, B_T)."""
    return u_eval(m, T, b_T, T)


def approx_exponential_euler(m, b_T, T):
    """Alternative closed form using the drift frozen at the start point.

    exp{-(1/2T)[(B_T - F(0) T)^2 - B_T^2]} = exp{F(0) B_T - F(0)^2 T / 2};
    coincides with approx_exponential for constant drift.
    """
    _check_horizon(T)
    b = np.asarray(b_T, dtype=float)
    c = float(m.drift_at(0.0))
    out = np.exp(-((np.square(b - c * T) - np.square(b)) / (2.0 * T)))
    return _result(out)


def lp_error(m, T, cfg):
    """(E|M_T - approx|^p)^(1/p) at p = cfg.p; see lp_errors."""
    return lp_errors(m, T, cfg, [cfg.p])[0]


def lp_errors(m, T, cfg, p_values):
    """(E|M_T - approx|^p)^(1/p) for every p in p_values, by common-random-path
    Monte Carlo; returns one ErrorEstimate per p, in the order of p_values.

    Each path feeds both sides: the full path for the Ito sums, its endpoint
    for the deterministic approximation.  Pairing is required, not cosmetic:
    the target is a pathwise L^p distance.  One chunked pass builds the gap
    d = |M_T - u(T, B_T)| and accumulates sum d^p and sum d^(2p) for every p,
    so each estimate equals a separate pass at that p bit for bit (cfg.p
    itself is not used).
    """
    _check_horizon(T)
    p_values = [float(p) for p in p_values]
    for p in p_values:
        if not (math.isfinite(p) and p >= 1.0):
            raise ValueError(f"p must be finite and >= 1, got {p!r}")
    if not p_values:
        return []
    n_steps = cfg.n_steps
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    total = [0.0] * len(p_values)
    total_sq = [0.0] * len(p_values)
    for rng, k in chunks(cfg.n_paths, _CHUNK, cfg.base_seed):
        inc = rng.standard_normal((k, n_steps))
        inc *= sqrt_dt
        # B at the grid times, column 0 being B_0 = 0; the drift is taken at
        # the left points buf[:, :-1] (Ito sums)
        buf = np.empty((k, n_steps + 1))
        buf[:, 0] = 0.0
        np.cumsum(inc, axis=1, out=buf[:, 1:])
        f = m.drift_at(buf[:, :-1])
        # inc is not needed after the two products, so it holds them in turn
        ito = np.sum(np.multiply(f, inc, out=inc), axis=1)
        quad = np.sum(np.multiply(f, f, out=inc), axis=1) * dt
        m_true = np.exp(ito - 0.5 * quad)
        m_approx = approx_exponential(m, buf[:, -1], T)
        d = np.abs(m_true - m_approx)
        for i, p in enumerate(p_values):
            dp = d ** p
            total[i] += float(np.sum(dp))
            total_sq[i] += float(np.sum(dp * dp))
    n = cfg.n_paths
    return [_lp_estimate(s, s2, n, p)
            for s, s2, p in zip(total, total_sq, p_values)]


def _lp_estimate(total, total_sq, n, p):
    """Point estimate and delta-method SE from sum d^p and sum d^(2p)."""
    moment = total / n
    var = max(total_sq / n - moment * moment, 0.0) * n / (n - 1)
    se_moment = math.sqrt(var / n)
    if moment > 0.0:
        point = moment ** (1.0 / p)
        se = se_moment * point / (p * moment)
    else:
        point, se = 0.0, 0.0
    return ErrorEstimate(mean=point, std_error=se, n=n)


def rate_fit(errors):
    """Least-squares line through (log T, log error); slope = observed order."""
    if len(errors) < 3:
        raise ValueError("need at least 3 (T, error) points")
    ts = np.array([t for t, _ in errors], dtype=float)
    means = np.array([e.mean for _, e in errors], dtype=float)
    if len(np.unique(ts)) < 3:
        raise ValueError("need at least 3 distinct T values")
    if np.any(means <= 0.0):
        raise ValueError("all error means must be positive to take logs")
    lx = np.log(ts)
    ly = np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        points=list(zip(lx.tolist(), ly.tolist())),
    )
