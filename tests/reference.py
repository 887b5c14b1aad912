"""Test references that the package itself never calls: the Girsanov
exponential from Ito sums on one discretized Brownian path, its closed form
with the drift frozen at the start point, and the transport of a Gaussian
along the drift's flow (the Liouville density).

Each is built from the package's private helpers, so it checks its horizon
and shapes its result as the package's entry points do.
"""

import math
from dataclasses import dataclass

import numpy as np

from shorttime.girsanov import _u
from shorttime.kernels import _gaussian
from shorttime.lamperti import _check_horizon, _result


@dataclass(frozen=True)
class BrownianPath:
    """A discretized Brownian trajectory on [0, horizon]."""

    horizon: float
    n_steps: int
    increments: np.ndarray
    seed: int

    @classmethod
    def generate(cls, horizon, n_steps, seed):
        _check_horizon(horizon)
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


def simulate_exponential(m, path):
    """Girsanov exponential from left-point (Ito) sums on the path grid."""
    b = path.cumulative()
    f = m.drift_at(b[:-1])
    ito = float(f @ path.increments)
    quad = float(np.sum(f * f)) * path.dt
    return math.exp(ito - 0.5 * quad)


def approx_exponential_euler(m, b_T, T):
    """Alternative closed form using the drift frozen at the start point:
    u's form with y = B_T - F(0) T and ratio 1,

    exp{-(1/2T)[(B_T - F(0) T)^2 - B_T^2]} = exp{F(0) B_T - F(0)^2 T / 2};
    coincides with approx_exponential for constant drift.
    """
    _check_horizon(T)
    b = np.asarray(b_T, dtype=float)
    return _u(b - float(m.drift_at(0.0)) * T, b, 1.0, T)


def liouville_density(m, t, T, x, x_prime):
    """Transport of a Gaussian(x', T) initial density along the drift flow.

    At t = T this coincides with the girsanov short-time kernel.
    """
    _check_horizon(T, t)
    y, ratio = m.transport(x, t)
    norm = 1.0 / math.sqrt(2.0 * math.pi * T)
    return _result(_gaussian(y, np.asarray(x_prime, dtype=float), T,
                             ratio * norm, 0.0))
