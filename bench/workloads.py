"""Seeded op streams for the three benchmark workloads.

An op is a ``(command, config)`` pair handed to ``shorttime.cli.run_command``.
A workload is an endless sequence of *cycles*. Every cycle holds the same
number of ops of each command, drift, size, kernel kind, oracle setting and
output mode; the seed decides their order inside the cycle, how kernel
kinds pair with slice counts, and every continuous input (T, x', law atoms,
RNG seeds). A run stops on a
cycle boundary, so its op mix is exact and throughput does not depend on
where the deadline fell.

Only valid inputs are generated: both drifts are bounded below by a
positive constant, every x' lies in [-1, 1] and every grid leaves the
boundary checks of ``normalization_defect`` and ``compose_chapman`` many
standard deviations of room. Non-finite or huge flow inputs (which make the
adaptive quadrature grow without bound and kill the process) never occur.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc_rate", "grid_density", "scatter_sample")

# 2 + cos(x) >= 1 and 0.1 + tanh(x)^2 >= 0.1 everywhere.
DRIFTS = ({"expr": "2 + cos(x)"}, {"builtin": "logistic_floor"})

# The pinned rate grid of configs/rate_study.json.
T_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)
KINDS = ("girsanov", "euler_maruyama", "backward_euler")

# Sizes of the pinned configs; SMOKE shrinks them for the benchmark's tests
# and for the untimed warm-up.
FULL = {
    "mc": {"n_paths": 2048, "n_steps": 4096},
    "density_grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 1201},
    "path_grid": {"x_min": -6.5, "x_max": 11.5, "n_points": 2001},  # + x'
    "n_time_steps": 2000,
    "crypto_n": 100000,
    "em": {"n": 20000, "n_steps": 256},
}
SMOKE = {
    "mc": {"n_paths": 64, "n_steps": 64},
    "density_grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 241},
    "path_grid": {"x_min": -6.5, "x_max": 11.5, "n_points": 1201},  # + x'
    "n_time_steps": 200,
    "crypto_n": 2000,
    "em": {"n": 500, "n_steps": 16},
}


def _seed(rng):
    return rng.randrange(1 << 31)


def _mc_rate(rng, size):
    ops = []
    for drift in DRIFTS:
        for _ in range(3):
            ops.append(("girsanov-error", {
                "drift": drift, "T": rng.choice(T_GRID), "p_values": [1, 2],
                "mc": dict(size["mc"], base_seed=_seed(rng)),
            }))
        ops.append(("rate", {
            "drift": drift,
            "T_grid": sorted(rng.sample(T_GRID, 3), reverse=True),
            "p_values": [1, 2],
            "mc": dict(size["mc"], base_seed=_seed(rng)),
        }))
    return ops


def _path_grid(size, x_prime):
    """The pinned compose/FP grid, moved with x' so both tails keep their room
    (the slow logistic_floor drift leaves x' = -1 too close to -6.5)."""
    g = size["path_grid"]
    return dict(g, x_min=g["x_min"] + x_prime, x_max=g["x_max"] + x_prime)


def _atoms(rng):
    w = [rng.uniform(0.2, 1.0) for _ in range(3)]
    total = sum(w)
    w = [v / total for v in w[:2]]
    return [[rng.uniform(-1.0, 1.0), v] for v in w + [1.0 - sum(w)]]


def _grid_density(rng, size):
    ops = []
    for drift in DRIFTS:
        for _ in range(2):
            ops.append(("density", {
                "drift": drift, "T": 0.1, "kind": "all",
                "x_prime": rng.uniform(-1.0, 1.0),
                "grid": dict(size["density_grid"]),
            }))
        ops.append(("density", {
            "drift": drift, "T": 0.1, "kind": "all",
            "law": {"atoms": _atoms(rng)},
            "grid": dict(size["density_grid"]),
        }))
        for oracle in (False, True):
            for n_slices, kind in zip((8, 16, 32), rng.sample(KINDS, 3)):
                xp = rng.uniform(-1.0, 1.0)
                ops.append(("compose", {
                    "drift": drift, "T": 1.0, "n_slices": n_slices,
                    "kind": kind, "x_prime": xp, "compare_to_oracle": oracle,
                    "n_time_steps": size["n_time_steps"],
                    "grid": _path_grid(size, xp),
                }))
        xp = rng.uniform(-1.0, 1.0)
        ops.append(("fp-solve", {
            "drift": drift, "T": 1.0, "x_prime": xp,
            "n_time_steps": size["n_time_steps"], "grid": _path_grid(size, xp),
        }))
    return ops


def _sample_T(rng, k):
    """T for the k-th (0 or 1) of two like ops: one from each half of
    [0.05, 0.2]. Flow cost grows with T, so stratifying keeps the cost of
    every cycle, and the median op, close to the same for every seed."""
    return 0.05 + 0.075 * (k + rng.random())


def _scatter_sample(rng, size):
    ops = []
    for drift in DRIFTS:
        for k in range(2):
            for output in ("summary", "csv"):
                ops.append(("sample", {
                    "drift": drift, "T": _sample_T(rng, k),
                    "x_prime": rng.uniform(-1.0, 1.0),
                    "sample": {"n": size["crypto_n"], "scheme": "crypto",
                               "seed": _seed(rng), "output": output},
                }))
            # two EM ops per drift put the median op inside the CSV
            # cluster, clear of the gap between CSV and summary latencies
            ops.append(("sample", {
                "drift": drift, "T": _sample_T(rng, k),
                "x_prime": rng.uniform(-1.0, 1.0),
                "sample": dict(size["em"], scheme="euler_maruyama_path",
                               seed=_seed(rng), output="summary"),
            }))
    return ops


_BUILDERS = {
    "mc_rate": _mc_rate,
    "grid_density": _grid_density,
    "scatter_sample": _scatter_sample,
}


def cycle(workload, seed, index, smoke=False):
    """The ops of cycle ``index`` of ``workload`` under ``seed``, in order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # str seeds hash with SHA-512, so streams are stable across platforms
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _BUILDERS[workload](rng, SMOKE if smoke else FULL)
    rng.shuffle(ops)
    return ops
