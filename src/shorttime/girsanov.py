"""Girsanov exponential: its deterministic stand-in u(T, B_T), and Monte
Carlo measurement of the L^p gap between the two against the horizon length.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .drift import DriftDomainError
from .lamperti import _BLOCK_CELLS, _check_horizon, _result

_CHUNK = 2048  # paths per RNG chunk; fixes seeding independent of workers
_AHEAD = 4  # row blocks of normals drawn ahead of the reduction
_SPIN_S = 0.005  # longest wait for a block spent spinning, not asleep


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
class MCConfig:
    n_paths: int
    n_steps: int
    base_seed: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths")
        if self.n_steps < 1:
            raise ValueError("need at least 1 step")


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


def u_eval(m, t, x, T):
    """Solution of the drift-transport problem with source x/T, at (t, x).

    u(t, x) = (F(y)/F(x)) * exp(-(y^2 - x^2)/(2T)) with y the backward flow
    of x over time t; u(0, x) = 1.
    """
    _check_horizon(T, t)
    x = np.asarray(x, dtype=float)
    y, ratio = m.transport(x, t)
    return _u(y, x, ratio, T)


def _u(y, x, ratio, T):
    """u's closed form ratio * exp(-(y^2 - x^2)/(2T)), given y and ratio."""
    return _result(ratio * np.exp(-((np.square(y) - np.square(x))
                                    / (2.0 * T))))


def approx_exponential(m, b_T, T):
    """Deterministic stand-in for the Girsanov exponential: u(T, B_T)."""
    return u_eval(m, T, b_T, T)


def lp_errors(m, horizons, cfg, p_values):
    """(E|M_T - approx|^p)^(1/p) at every T in horizons and every p in
    p_values, by common-random-path Monte Carlo from one draw of the paths;
    returns one list of ErrorEstimates per T, each in the order of
    p_values.  Every T and p is checked before any path is drawn.

    Each path feeds both sides: the full path for the Ito sums, its endpoint
    for the deterministic approximation.  Pairing is required, not cosmetic:
    the target is a pathwise L^p distance.  Each RNG chunk is drawn and
    reduced in row blocks of about _BLOCK_CELLS cells, so memory does not
    grow with n_paths * n_steps.  Chunk i of every horizon holds the same
    normals z, so each row block of z is drawn once, in row order (the
    stream of one (k, n_steps) draw), and scaled by sqrt(T / n_steps) for
    each T in turn.  A worker thread draws the blocks up to _AHEAD ahead of
    this reduction (see _normals); the draws are the same, so the bytes do
    not depend on its timing.  The chunk's gaps d = |M_T - u(T, B_T)|, from
    one approx_exponential call per chunk and T on all its endpoints, feed
    sum d^p and sum d^(2p) for every p, so each estimate equals a separate
    pass at that T and p bit for bit.
    """
    horizons = [float(T) for T in horizons]
    for T in horizons:
        _check_horizon(T)
    p_values = [float(p) for p in p_values]
    for p in p_values:
        if not (math.isfinite(p) and p >= 1.0):
            raise ValueError(f"p must be finite and >= 1, got {p!r}")
    if not p_values:
        return [[] for _ in horizons]
    n_steps = cfg.n_steps
    dts = [T / n_steps for T in horizons]
    scales = [math.sqrt(dt) for dt in dts]
    rows = max(1, min(_CHUNK, _BLOCK_CELLS // n_steps))
    inc = np.empty((rows, n_steps))
    # B at the grid times, column 0 being B_0 = 0; the drift is taken at the
    # left points b[:, :-1] (Ito sums)
    b = np.empty((rows, n_steps + 1))
    b[:, 0] = 0.0
    total = [[0.0] * len(p_values) for _ in horizons]
    total_sq = [[0.0] * len(p_values) for _ in horizons]
    with closing(_normals(chunks(cfg.n_paths, _CHUNK, cfg.base_seed), rows,
                          n_steps)) as blocks:
        for k, lo, z in blocks:
            if lo == 0:
                # per horizon and path: the Ito sum, the sum of F^2 and B_T
                ito, quad, end = np.empty((3, len(horizons), k))
            q = len(z)
            for j, scale in enumerate(scales):
                np.multiply(z, scale, out=inc[:q])
                np.cumsum(inc[:q], axis=1, out=b[:q, 1:])
                f = m.drift_at(b[:q, :-1])
                # inc is not needed after the two products: it holds them.
                # Where F or F^2 is not finite on a path, its sum of F^2 is
                # inf or nan, refused at the chunk's end, so the products
                # warn of nothing
                with np.errstate(over="ignore", invalid="ignore"):
                    np.sum(np.multiply(f, inc[:q], out=inc[:q]), axis=1,
                           out=ito[j, lo:lo + q])
                    np.sum(np.multiply(f, f, out=inc[:q]), axis=1,
                           out=quad[j, lo:lo + q])
                end[j, lo:lo + q] = b[:q, -1]
            if lo + q < k:
                continue
            finite = np.isfinite(quad)
            if not finite.all():
                j, i = np.argwhere(~finite)[0]
                raise DriftDomainError(
                    f"F^2 is not finite on the path to "
                    f"x={float(end[j, i])!r} at T={horizons[j]!r}")
            for j, T in enumerate(horizons):
                m_true = np.exp(ito[j] - 0.5 * (quad[j] * dts[j]))
                d = np.abs(m_true - approx_exponential(m, end[j], T))
                for i, p in enumerate(p_values):
                    dp = d ** p
                    total[j][i] += float(np.sum(dp))
                    total_sq[j][i] += float(np.sum(dp * dp))
    n = cfg.n_paths
    return [[_lp_estimate(s, s2, n, p) for s, s2, p in zip(t, t2, p_values)]
            for t, t2 in zip(total, total_sq)]


def _normals(chunk_list, rows, n_steps):
    """Yield (k, lo, z) for every row block of every (rng, k) chunk of
    chunk_list, in stream order: z holds rows lo to lo + len(z) of the
    chunk's (k, n_steps) draw of normals, in one of _AHEAD + 1 reused
    buffers, valid until the next block is asked for.

    One worker thread draws the blocks, up to _AHEAD ahead of the caller.
    It runs nothing but rng.standard_normal, which fills its buffer with the
    GIL released; the chunks (and so every chunk_rng call) are taken here,
    on the caller's thread.  A failed draw is raised here, at its block.
    The worker is joined before the generator ends: exhausted, closed or
    failed."""
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
    worker = threading.Thread(target=_draw, args=(jobs, done))
    bufs = itertools.cycle([np.empty((rows, n_steps))
                            for _ in range(_AHEAD + 1)])
    drawn = deque()  # (k, lo, z) handed to the worker, not yet yielded
    worker.start()
    try:
        for rng, k in chunk_list:
            for lo in range(0, k, rows):
                z = next(bufs)[:min(rows, k - lo)]
                jobs.put((rng, z))
                drawn.append((k, lo, z))
                if len(drawn) > _AHEAD:
                    yield _next_drawn(done, drawn)
        while drawn:
            yield _next_drawn(done, drawn)
    finally:
        jobs.put(None)
        worker.join()


def _next_drawn(done, drawn):
    """The oldest block handed to the worker, once it is drawn.

    The caller waits for it spinning, giving up the GIL and its CPU slice on
    every turn, for up to _SPIN_S, and only then asleep: a block takes about
    a millisecond to draw, and on a 2-vCPU VM a thread that sleeps through
    dozens of such waits an op ran its next ops up to half again slower
    (see CHANGES.md); a spinning wait keeps its CPU busy."""
    deadline = time.perf_counter() + _SPIN_S
    while done.empty() and time.perf_counter() < deadline:
        os.sched_yield()
    err = done.get()
    if err is not None:
        raise err
    return drawn.popleft()


def _draw(jobs, done):
    """Worker: fill each (rng, z) job's buffer with normals, in order, until
    None; after a failed draw, report it and stop."""
    for rng, z in iter(jobs.get, None):
        try:
            rng.standard_normal(out=z)
        except BaseException as err:  # re-raised on the caller's thread
            done.put(err)
            return
        done.put(None)


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
