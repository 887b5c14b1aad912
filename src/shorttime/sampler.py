"""Samplers: the drift-flow approximation of the diffusion endpoint, and
fine-grid Euler-Maruyama endpoints of the true SDE, plus a KS comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .girsanov import chunks
from .lamperti import _check_horizon

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
    """Euler-Maruyama endpoints of dX = F(X) dt + dB from x'."""
    _check_horizon(T)
    if n_steps < 1 or n < 1:
        raise ValueError("need at least one step and one sample")
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    values = []
    for rng, k in chunks(n, _CHUNK, seed):
        x, z = np.full(k, float(x_prime)), np.empty(k)
        for _ in range(n_steps):  # in place; the same sums as x + F dt + dB
            f = m.drift_at(x)  # its own buffer, but for a constant drift
            x += np.multiply(f, dt, out=f if f.flags.writeable else None)
            x += np.multiply(rng.standard_normal(out=z), sqrt_dt, out=z)
        values.append(x)
    return SampleSet(values=np.concatenate(values), horizon=float(T),
                     seed=int(seed), scheme="euler_maruyama_path")


def ks_distance(s, cdf):
    """Sup distance between the empirical CDF of the samples and cdf."""
    v = np.sort(s.values)
    n = v.size
    c = np.asarray(cdf(v), dtype=float)
    upper = np.arange(1, n + 1) / n - c
    lower = c - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def girsanov_kernel_cdf(m, T, x_prime):
    """Exact CDF of the flow endpoint law: Phi((phi_{-T}(x) - x') / sqrt T).

    This is the distribution whose density is the girsanov kernel; the
    backward flow is monotone so the expression is a valid CDF.
    """
    from scipy.special import ndtr

    _check_horizon(T)
    sqrt_t = math.sqrt(T)

    def cdf(x):
        y = m.flow(x, -T)
        return ndtr((y - x_prime) / sqrt_t)

    return cdf
