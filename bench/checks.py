"""Per-op output checks. An op fails when ``check`` raises ``CheckError``.

Tolerances come from tests/test_acceptance.py where one exists. The 2 + cos
drift has a closed-form Lamperti map, used here as an oracle that shares no
code with the package:

    Lambda(x) = (2/sqrt 3) * (atan(tan(x/2)/sqrt 3) + pi * round(x / 2pi))

(unwrapped across periods), so the flow and the girsanov kernel can be
checked without calling the code under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.special import ndtr

_SQRT3 = math.sqrt(3.0)
_SAMPLE_CHUNK = 1 << 16  # shorttime.sampler draws its normals in chunks of this
_ROUND_TRIP_POINTS = 4096
MASS_DEFECT_TOL = 1e-8    # acceptance 04 (girsanov); EM is exact to roundoff
ORACLE_L1_TOL = 0.02      # acceptance 08, girsanov kernel at 32 slices
FLOW_TOL = 1e-8           # quad_tol = root_tol = 1e-10 leave ~1e-10 here
KS_INVARIANCE_TOL = 1e-7


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def closed_lambda(x):
    """Lambda for 2 + cos(x), pinned to 0 at x = 0."""
    k = np.round(x / (2.0 * math.pi))
    return (2.0 / _SQRT3) * (np.arctan(np.tan(x / 2.0) / _SQRT3) + math.pi * k)


def closed_lambda_inverse(u):
    k = np.round(_SQRT3 * u / (2.0 * math.pi))
    return 2.0 * math.pi * k + 2.0 * np.arctan(_SQRT3 * np.tan(_SQRT3 * u / 2.0))


def closed_flow(x, t):
    return closed_lambda_inverse(closed_lambda(x) + t)


def sampler_normals(seed, n):
    """The standard normals sample_crypto draws for (seed, n)."""
    parts = []
    for idx in range(-(-n // _SAMPLE_CHUNK)):
        k = min(_SAMPLE_CHUNK, n - idx * _SAMPLE_CHUNK)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        parts.append(rng.standard_normal(k))
    return np.concatenate(parts)


def ks_vs_normal(g):
    """KS distance between the empirical law of g and N(0, 1)."""
    v = np.sort(g)
    n = v.size
    c = ndtr(v)
    return float(max(np.max(np.arange(1, n + 1) / n - c),
                     np.max(c - np.arange(0, n) / n)))


def _csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == len(header), f"{path}: ragged CSV")
    _require(np.all(np.isfinite(data)), f"{path}: non-finite value")
    return header, data


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def _outputs(manifest):
    return {os.path.basename(p): p for p in manifest["outputs"]}


def _grid_points(g):
    return np.linspace(float(g["x_min"]), float(g["x_max"]), int(g["n_points"]))


def _is_two_plus_cos(cfg):
    return cfg["drift"].get("expr") == "2 + cos(x)"


def _check_lp_rows(data):
    """Rows (T, p, error_mean, std_error): L1 <= L2 for the same paths."""
    _require(np.all(data[:, 2] > 0.0), "non-positive error mean")
    _require(np.all(data[:, 3] >= 0.0), "negative standard error")
    for T in np.unique(data[:, 0]):
        rows = data[data[:, 0] == T]
        l1 = rows[rows[:, 1] == 1.0, 2]
        l2 = rows[rows[:, 1] == 2.0, 2]
        _require(l1.size == 1 and l2.size == 1, f"T={T}: missing p row")
        # Jensen on the empirical law of the same paths
        _require(l1[0] <= l2[0] * (1.0 + 1e-12), f"T={T}: L1 {l1[0]} > L2 {l2[0]}")


def _check_girsanov_error(cfg, manifest, files, m):
    _, data = _csv(files["errors.csv"])
    _require(data.shape[0] == 2 and np.all(data[:, 0] == cfg["T"]),
             "errors.csv rows do not match the config")
    _check_lp_rows(data)


def _check_rate(cfg, manifest, files, m):
    _, data = _csv(files["rate_errors.csv"])
    _require(data.shape[0] == 2 * len(cfg["T_grid"]), "rate rows missing")
    _check_lp_rows(data)
    fits = _json(files["rate_fit.json"])
    _require(len(fits) == 2, "rate_fit.json needs a fit per p")
    for fit in fits.values():
        _require(_finite(fit["slope"], fit["intercept"]), "non-finite fit")
        _require(0.0 <= fit["r_squared"] <= 1.0, "r_squared outside [0, 1]")


def _trapezoid_mass(values, dx):
    return float(dx * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def _check_density(cfg, manifest, files, m):
    header, data = _csv(files["density.csv"])
    xs = _grid_points(cfg["grid"])
    _require(header[0] == "x" and np.array_equal(data[:, 0], xs),
             "density.csv grid differs from the config grid")
    cols = dict(zip(header[1:], data[:, 1:].T))
    _require(all(np.all(c >= 0.0) for c in cols.values()), "negative density")
    if "law" in cfg:
        dx = xs[1] - xs[0]
        for kind in ("girsanov", "euler_maruyama"):
            mass = _trapezoid_mass(cols[kind], dx)
            _require(abs(mass - 1.0) <= 1e-6, f"{kind} marginal mass {mass}")
        return
    for kind, d in manifest["mass_defect"].items():
        _require(_finite(d), f"{kind} mass defect not finite")
        if kind in ("girsanov", "euler_maruyama"):
            _require(abs(d) <= MASS_DEFECT_TOL, f"{kind} mass defect {d}")
    if _is_two_plus_cos(cfg):
        T, xp = float(cfg["T"]), float(cfg["x_prime"])
        y = closed_flow(xs, -T)
        exact = ((2.0 + np.cos(y)) / (2.0 + np.cos(xs))
                 * np.exp(-np.square(y - xp) / (2.0 * T))
                 / math.sqrt(2.0 * math.pi * T))
        err = float(np.max(np.abs(cols["girsanov"] - exact)))
        _require(err <= 1e-7 * float(np.max(exact)),
                 f"girsanov kernel off the closed form by {err}")


def _check_density_csv(path, grid):
    _, data = _csv(path)
    _require(np.array_equal(data[:, 0], _grid_points(grid)),
             f"{path}: grid differs from the config grid")
    values = data[:, 1]
    _require(float(np.min(values)) >= -1e-8 * float(np.max(values)),
             f"{path}: negative density")


def _check_compose(cfg, manifest, files, m):
    _check_density_csv(files["compose.csv"], cfg["grid"])
    meta = _json(files["compose_meta.json"])
    _require(_finite(meta["mass"]) and meta["mass"] > 0.0, "bad compose mass")
    if meta["kind"] in ("girsanov", "euler_maruyama"):
        _require(abs(meta["mass"] - 1.0) <= MASS_DEFECT_TOL,
                 f"{meta['kind']} compose mass {meta['mass']}")
    if cfg["compare_to_oracle"]:
        dist = meta["distance_to_oracle"]
        _require(_finite(dist), "distance to oracle not finite")
        if meta["kind"] == "girsanov" and cfg["n_slices"] == 32:
            _require(dist <= ORACLE_L1_TOL, f"L1 to oracle {dist} > {ORACLE_L1_TOL}")


def _check_fp_solve(cfg, manifest, files, m):
    _check_density_csv(files["fp.csv"], cfg["grid"])
    mass = _json(files["fp_meta.json"])["mass"]
    _require(abs(mass - 1.0) <= 1e-6, f"FP mass {mass}")


def _check_sample(cfg, manifest, files, m):
    scfg = cfg["sample"]
    T, xp, n, seed = float(cfg["T"]), float(cfg["x_prime"]), scfg["n"], scfg["seed"]
    if scfg["scheme"] == "euler_maruyama_path":
        s = _json(files["sample_summary.json"])
        _require(_finite(s["mean"], s["var"]) and s["var"] > 0.0, "bad EM moments")
        _require(0.0 <= s["ks_vs_kernel"] <= 1.0, "KS outside [0, 1]")
        return
    g = sampler_normals(seed, n)
    if scfg["output"] == "summary":
        s = _json(files["sample_summary.json"])
        _require(_finite(s["mean"], s["var"]) and s["var"] > 0.0, "bad moments")
        # KS is invariant under the monotone flow, so against the exact
        # kernel CDF it must equal the KS of the underlying normals.
        ks_g = ks_vs_normal(g)
        _require(abs(s["ks_vs_kernel"] - ks_g) <= KS_INVARIANCE_TOL,
                 f"KS {s['ks_vs_kernel']} differs from its normals' KS {ks_g}")
        return
    _, data = _csv(files["samples.csv"])
    y = data[:, 0]
    x0 = xp + g * math.sqrt(T)
    _require(y.size == n, "wrong sample count")
    if _is_two_plus_cos(cfg):
        err = float(np.max(np.abs(y - closed_flow(x0, T))))
        _require(err <= FLOW_TOL, f"samples off the closed-form flow by {err}")
    else:
        pick = np.random.default_rng(seed).choice(
            n, size=min(n, _ROUND_TRIP_POINTS), replace=False)
        err = float(np.max(np.abs(m(cfg).flow(y[pick], -T) - x0[pick])))
        _require(err <= FLOW_TOL, f"flow round trip off by {err}")


_CHECKS = {
    "girsanov-error": _check_girsanov_error,
    "rate": _check_rate,
    "density": _check_density,
    "compose": _check_compose,
    "fp-solve": _check_fp_solve,
    "sample": _check_sample,
}


def check(command, cfg, manifest, make_map):
    """Raise CheckError unless the op's artifacts are correct.

    ``make_map(cfg)`` builds the package's LampertiMap for the round-trip
    check of drifts without a closed form.
    """
    _CHECKS[command](cfg, manifest, _outputs(manifest), make_map)
