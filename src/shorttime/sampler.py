"""Samplers: the drift-flow approximation of the diffusion endpoint, and
fine-grid Euler-Maruyama endpoints of the true SDE, plus a KS comparison.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .drift import DriftDomainError
from .girsanov import _normals, chunks
from .lamperti import _BLOCK_CELLS, _check_horizon, _refuse, _result

_CHUNK = 1 << 16  # samples per derived seed; output independent of workers


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray
    horizon: float
    seed: int
    scheme: str


def sample_crypto(m, x_prime, T, n, seed):
    """Endpoints of the deterministic drift flow started at x' + B_T.

    The flow is evaluated in closed form through the Lamperti map, so these
    samples follow the girsanov short-time kernel exactly.
    """
    _check_horizon(T)
    if n < 1:
        raise ValueError("need at least one sample")
    sqrt_t = math.sqrt(T)
    values = [m.flow(x_prime + rng.standard_normal(k) * sqrt_t, T)
              for rng, k in chunks(n, _CHUNK, seed)]
    return SampleSet(values=np.concatenate(values), horizon=float(T),
                     seed=int(seed), scheme="crypto")


def sample_em_path(m, x_prime, T, n_steps, n, seed):
    """Euler-Maruyama endpoints of dX = F(X) dt + dB from x'.

    Each RNG chunk of k samples takes its normals from girsanov's draw-ahead
    worker (_normals), in row blocks of about _BLOCK_CELLS cells: row i is
    step i's k normals, in the stream order of one draw of k a step, so the
    bytes do not depend on the worker's timing.  The drift and the update
    run here, on the caller's thread; the worker is joined before this
    returns or raises.  DriftDomainError refuses a path that leaves the
    float range, checked once a block."""
    _check_horizon(T)
    if n_steps < 1 or n < 1:
        raise ValueError("need at least one step and one sample")
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    values = []
    for rng, k in chunks(n, _CHUNK, seed):
        x = np.full(k, float(x_prime))
        rows = max(1, min(n_steps, _BLOCK_CELLS // k))
        with closing(_normals([(rng, n_steps)], rows, k)) as blocks:
            for _, lo, z in blocks:
                with np.errstate(over="ignore", invalid="ignore"):
                    for dz in z:  # in place; the same sums as x + F dt + dB
                        f = m.drift_at(x)  # a buffer of its own
                        x += np.multiply(f, dt, out=f)
                        x += np.multiply(dz, sqrt_dt, out=dz)
                # a path that left the float range stays out of it
                _refuse(~np.isfinite(x), x_prime, "an Euler-Maruyama path "
                        f"from x'={{x}} left the float range by step "
                        f"{lo + len(z)}", DriftDomainError)
        values.append(x)
    return SampleSet(values=np.concatenate(values), horizon=float(T),
                     seed=int(seed), scheme="euler_maruyama_path")


def ks_distance(s, cdf):
    """Sup distance between the empirical CDF of the samples and cdf."""
    n = s.values.size
    c = np.asarray(cdf(np.sort(s.values)), dtype=float)
    d = np.arange(1, n + 1) / n
    upper = np.max(np.subtract(d, c, out=d))
    np.divide(np.arange(0, n), n, out=d)
    lower = np.max(np.subtract(c, d, out=d))
    return float(max(upper, lower))


def girsanov_kernel_cdf(m, T, x_prime):
    """Exact CDF of the flow endpoint law: Phi((phi_{-T}(x) - x') / sqrt T).

    This is the distribution whose density is the girsanov kernel; the
    backward flow is monotone so the expression is a valid CDF.
    """
    from scipy.special import ndtr

    _check_horizon(T)
    sqrt_t = math.sqrt(T)

    def cdf(x):
        y = np.asarray(m.flow(x, -T))  # its own buffer: worked in place
        y -= x_prime
        y /= sqrt_t
        return _result(ndtr(y, out=y))

    return cdf
