"""Command-line driver: JSON config in, CSV/JSON artifacts plus a manifest out.

Every command is deterministic given the config file: reruns produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import drift as drift_mod
from . import evolution, girsanov, kernels, sampler
from .drift import DriftError
from .evolution import BoundaryError, CompositionPlan, GridMismatchError, InstabilityError
from .kernels import GridSpec, InitialLaw, KernelKind, TailMassError
from .lamperti import LampertiError, LampertiMap

_DOMAIN_ERRORS = (
    DriftError, LampertiError, TailMassError, BoundaryError,
    GridMismatchError, InstabilityError,
)


class ConfigError(Exception):
    pass


_FLOAT = "%.17g"  # 17 significant digits: every float64 reads back exactly
_BLOCK = 8192  # rows per `%` call in _write_csv
# Cap on the n_points^2 cells of compose's kernel matrix, of which its band
# keeps n_points x W: 5e7 cells is 12x the 2,001^2 of the pinned config.  It
# caps density's grid.n_points x law.atoms kernel cells too.
_MAX_DENSE_CELLS = 50_000_000
# Cap on density's grid.n_points: 1e6 points, 800x the pinned 1,201, with
# 4 x grid.n_points nodes for a kernel's mass defect.
_MAX_GRID_POINTS = 1_000_000
# Cap on n_time_steps x grid.n_points of a Fokker-Planck solve: 1e8 cell
# updates take a few seconds, 16x the largest solve in the configs and tests
# (3,001 points x 2,000 steps).
_MAX_FP_WORK = 100_000_000
# Cap on sample.n: 1e7 draws of 80 MB, 100x the 1e5 of the configs and bench.
_MAX_SAMPLES = 10_000_000
# Cap on sample.n x sample.n_steps of an Euler-Maruyama sample: 1e8 path
# steps, 19x the 20,000 x 256 of the bench workload.
_MAX_EM_STEPS = 100_000_000
# Cap on validate's scan_points: 1e7 drift jets, 2,500x the configs' 4,001.
_MAX_SCAN_POINTS = 10_000_000
# Cap on mc.n_paths x mc.n_steps x horizons of a Monte Carlo pass: 2.5e10
# path steps, 12x the 100,000 x 4,096 x 5 of configs/rate_study.json.
_MAX_MC_STEPS = 25_000_000_000


def _require(cfg, key, default=None):
    """cfg[key]; without it, the default, or ConfigError if there is none.
    A cfg that is not a JSON object (a sub-object given as a string, say)
    is a ConfigError too."""
    if not isinstance(cfg, dict):
        raise ConfigError(
            f"expected a JSON object holding {key!r}, got {cfg!r}")
    if key not in cfg and default is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg.get(key, default)


def _number(v, key, count=False):
    """The one reader of config numbers: v as a float (an int for a count),
    refusing strings, booleans, non-finite values, integers past the float
    range and fractional counts."""
    try:
        ok = not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        ok = False
    if not ok or count and v != int(v):
        raise ConfigError(f"{key!r} must be a finite "
                          f"{'whole ' if count else ''}JSON number, got {v!r}")
    return int(v) if count else float(v)


def _flag(cfg, key):
    """cfg[key] as a JSON boolean, False when absent; any other value, the
    string "false" too, is a ConfigError."""
    v = _require(cfg, key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"{key!r} must be JSON true or false, got {v!r}")
    return v


def _num(cfg, key, default=None, count=False):
    return _number(_require(cfg, key, default), key, count)


def _numbers(v, key, n=None):
    """v as a list of numbers; n, if given, is its length."""
    if not isinstance(v, list) or len(v) != (n or len(v)):
        raise ConfigError(f"{key!r} must be a list of {n or 'finite'} numbers")
    return [_number(e, key) for e in v]


def _nums(cfg, key, default=None, n=None):
    return _numbers(_require(cfg, key, default), key, n)


def _finite_float(text):
    """json number hook: NaN, Infinity and overflowing literals such as 1e999
    would run and write nan rows, so they are refused."""
    v = float(text)
    if not math.isfinite(v):
        raise ConfigError(f"non-finite number {text!r} in config")
    return v


_JSON_HOOKS = {"parse_float": _finite_float, "parse_constant": _finite_float}


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh, **_JSON_HOOKS)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _build_drift(cfg):
    dcfg = _require(cfg, "drift")
    if not isinstance(dcfg, dict):
        raise ConfigError("'drift' must be an object with 'expr' or 'builtin'")
    return drift_mod.drift_from_config(dcfg)


def _capped(value, key, cap):
    """value, or ConfigError naming key when it is past cap."""
    if value > cap:
        raise ConfigError(f"{key!r} = {value} is past the cap of {cap}")
    return value


def _assumption(cfg, d):
    """The drift-positivity scan that validate and the epsilon gate share."""
    points = _num(cfg, "scan_points", 2001, count=True)
    return drift_mod.validate_assumption(
        d, _nums(cfg, "scan_range", n=2), _num(cfg, "epsilon"),
        _capped(points, "scan_points", _MAX_SCAN_POINTS))


def _build_map(cfg):
    """The command's one LampertiMap: every kernel, law atom, path and
    sample of the command is read through it."""
    d = _build_drift(cfg)
    m = LampertiMap(d, alpha=_num(cfg, "alpha", 0.0),
                    root_tol=_num(cfg, "root_tol", 1e-10),
                    reference_point=_num(cfg, "reference_point", 0.0))
    if not _flag(cfg, "assume_valid") and "epsilon" in cfg:
        report = _assumption(cfg, d)
        if not report.passed:
            raise DriftError(
                f"drift failed the bound check: min f = {report.f_min} <= "
                f"epsilon = {report.epsilon} on {report.scan_range} "
                "(set assume_valid to override)"
            )
    return m


def _grid(cfg):
    g = _require(cfg, "grid")
    return GridSpec(_num(g, "x_min"), _num(g, "x_max"),
                    _num(g, "n_points", count=True))


def _kinds(cfg):
    kind = cfg.get("kind", "girsanov")
    if kind == "all":
        return list(KernelKind)
    try:
        return [KernelKind(kind)]
    except ValueError:
        raise ConfigError(f"unknown kernel kind {kind!r}") from None


def _write_csv(path, header, *columns):
    """CSV of equal-length float columns, one `%` format per block of rows."""
    table = np.column_stack(columns)
    row = ",".join([_FLOAT] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in np.split(table, range(_BLOCK, len(table), _BLOCK)):
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------

def _cmd_validate(cfg, out):
    report = _assumption(cfg, _build_drift(cfg))
    path = os.path.join(out, "validate_report.json")
    _write_json(path, {
        "f_min": report.f_min, "f_max": report.f_max,
        "f1_max_abs": report.f1_max_abs, "f2_max_abs": report.f2_max_abs,
        "epsilon": report.epsilon, "scan_range": list(report.scan_range),
        "n_samples": report.n_samples, "passed": report.passed,
    })
    return [path], {"passed": report.passed}


def _cmd_flow(cfg, out):
    m = _build_map(cfg)
    t = _num(cfg, "t")
    xs = np.asarray(_nums(cfg, "x_values"))
    path = os.path.join(out, "flow.csv")
    _write_csv(path, ["x", "flow"], xs, m.flow(xs, t))
    return [path], {"t": t}


def _cmd_density(cfg, out):
    m = _build_map(cfg)
    T = _num(cfg, "T")
    grid = _grid(cfg)
    _capped(grid.n_points, "grid.n_points", _MAX_GRID_POINTS)
    kinds = _kinds(cfg)
    defects = {}
    if "law" in cfg:
        atoms = _require(_require(cfg, "law"), "atoms")
        if not isinstance(atoms, list):
            raise ConfigError("'law.atoms' must be a list of "
                              "[location, weight] pairs")
        try:
            law = InitialLaw(tuple(_numbers(e, "law.atoms", 2)
                                   for e in atoms))
        except ValueError as exc:
            raise ConfigError(f"'law.atoms': {exc}") from None
        _capped(grid.n_points * len(law.atoms), "grid.n_points x law.atoms",
                _MAX_DENSE_CELLS)
    else:  # one atom at x_prime, where the kernel's own mass defect is taken
        xp = _num(cfg, "x_prime")
        law = InitialLaw(((xp, 1.0),))
        defects = {k.value: kernels.normalization_defect(k, m, T, xp, grid)
                   for k in kinds}
    xs = grid.points()
    cols = [kernels.marginal_density(k, m, law, T, xs) for k in kinds]
    path = os.path.join(out, "density.csv")
    _write_csv(path, ["x"] + [k.value for k in kinds], xs, *cols)
    return [path], {"mass_defect": defects, "T": T}


def _fp_steps(cfg, grid):
    """n_time_steps for a Fokker-Planck solve on grid, refused past
    _MAX_FP_WORK cell updates before any work."""
    steps = _num(cfg, "n_time_steps", 2000, count=True)
    _capped(steps * grid.n_points, "n_time_steps x grid.n_points",
            _MAX_FP_WORK)
    return steps


def _mc_config(cfg, n_horizons):
    """The mc sub-object for a pass over n_horizons horizons, refused past
    _MAX_MC_STEPS path steps before any path is drawn."""
    mc = _require(cfg, "mc")
    n_paths = _num(mc, "n_paths", count=True)
    n_steps = _num(mc, "n_steps", count=True)
    _capped(n_paths * n_steps * n_horizons,
            "mc.n_paths x mc.n_steps x horizons", _MAX_MC_STEPS)
    return girsanov.MCConfig(n_paths=n_paths, n_steps=n_steps,
                             base_seed=_num(mc, "base_seed", count=True))


def _cmd_girsanov_error(cfg, out):
    m = _build_map(cfg)
    T = _num(cfg, "T")
    p_values = _nums(cfg, "p_values", [2.0])
    ests = girsanov.lp_errors(m, [T], _mc_config(cfg, 1), p_values)[0]
    path = os.path.join(out, "errors.csv")
    _write_csv(path, ["T", "p", "error_mean", "std_error"], [T] * len(ests),
               p_values, [e.mean for e in ests], [e.std_error for e in ests])
    return [path], {}


def _cmd_rate(cfg, out):
    m = _build_map(cfg)
    t_grid = _nums(cfg, "T_grid")
    p_values = _nums(cfg, "p_values", [1.0, 2.0])
    mc = _mc_config(cfg, len(t_grid))
    if len(set(t_grid)) < 3:  # rate_fit's own check, made before any path
        raise ConfigError("'T_grid' needs at least 3 distinct T values")
    # one common-path pass shares its draws across T_grid and serves every
    # p; rows stay p-major
    per_t = girsanov.lp_errors(m, t_grid, mc, p_values)
    fits = {}
    for i, p in enumerate(p_values):
        fit = girsanov.rate_fit([(T, e[i]) for T, e in zip(t_grid, per_t)])
        fits[_FLOAT % p] = {"slope": fit.slope, "intercept": fit.intercept,
                            "r_squared": fit.r_squared}
    ests = [e[i] for i in range(len(p_values)) for e in per_t]
    csv_path = os.path.join(out, "rate_errors.csv")
    _write_csv(csv_path, ["T", "p", "error_mean", "std_error"],
               t_grid * len(p_values), np.repeat(p_values, len(t_grid)),
               [e.mean for e in ests], [e.std_error for e in ests])
    fit_path = os.path.join(out, "rate_fit.json")
    _write_json(fit_path, fits)
    return [csv_path, fit_path], {"fits": fits}


def _cmd_compose(cfg, out):
    grid = _grid(cfg)
    _capped(grid.n_points ** 2, "grid.n_points ^ 2", _MAX_DENSE_CELLS)
    kinds = _kinds(cfg)
    if len(kinds) != 1:
        raise ConfigError("compose takes one kernel 'kind', not 'all'")
    m = _build_map(cfg)
    plan = CompositionPlan(
        total_time=_num(cfg, "T"),
        n_slices=_num(cfg, "n_slices", count=True),
        grid=grid,
        kind=kinds[0],
    )
    xp = _num(cfg, "x_prime")
    oracle_steps = (_fp_steps(cfg, grid) if _flag(cfg, "compare_to_oracle")
                    else None)
    dens = evolution.compose_chapman(m, plan, xp)
    meta = {"mass": dens.mass(), "n_slices": plan.n_slices,
            "kind": plan.kind.value}
    if oracle_steps is not None:
        oracle = evolution.solve_fokker_planck(
            m, plan.total_time, xp, grid, oracle_steps)
        meta["distance_to_oracle"] = evolution.density_distance(
            dens, oracle, "L1")
    csv_path = os.path.join(out, "compose.csv")
    _write_csv(csv_path, ["x", "density"], grid.points(), dens.values)
    meta_path = os.path.join(out, "compose_meta.json")
    _write_json(meta_path, meta)
    return [csv_path, meta_path], meta


def _cmd_fp_solve(cfg, out):
    m = _build_map(cfg)
    grid = _grid(cfg)
    steps = _fp_steps(cfg, grid)
    dens = evolution.solve_fokker_planck(
        m, _num(cfg, "T"), _num(cfg, "x_prime"), grid, steps)
    csv_path = os.path.join(out, "fp.csv")
    _write_csv(csv_path, ["x", "density"], grid.points(), dens.values)
    meta = {"mass": dens.mass(), "n_time_steps": steps}
    meta_path = os.path.join(out, "fp_meta.json")
    _write_json(meta_path, meta)
    return [csv_path, meta_path], meta


def _cmd_sample(cfg, out):
    m = _build_map(cfg)
    scfg = _require(cfg, "sample")
    T = _num(cfg, "T")
    xp = _num(cfg, "x_prime")
    n = _capped(_num(scfg, "n", count=True), "sample.n", _MAX_SAMPLES)
    seed = _num(scfg, "seed", cfg.get("seed", 0), count=True)
    scheme = scfg.get("scheme", "crypto")
    output = scfg.get("output", "summary")
    if output not in ("summary", "csv"):
        raise ConfigError(f"unknown sample output {output!r}")
    if scheme == "crypto":
        s = sampler.sample_crypto(m, xp, T, n, seed)
    elif scheme == "euler_maruyama_path":
        steps = _num(scfg, "n_steps", count=True)
        _capped(n * steps, "sample.n x sample.n_steps", _MAX_EM_STEPS)
        s = sampler.sample_em_path(m, xp, T, steps, n, seed)
    else:
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    meta = {"scheme": scheme, "n": n, "seed": seed}
    if output == "csv":
        path = os.path.join(out, "samples.csv")
        _write_csv(path, ["value"], s.values)
    else:
        ks = sampler.ks_distance(s, sampler.girsanov_kernel_cdf(m, T, xp))
        summary = {
            "mean": float(np.mean(s.values)),
            "var": float(np.var(s.values, ddof=1)),
            "ks_vs_kernel": ks,
        }
        meta.update(summary)
        path = os.path.join(out, "sample_summary.json")
        _write_json(path, summary)
    return [path], meta


_HANDLERS = {
    "validate": _cmd_validate,
    "flow": _cmd_flow,
    "density": _cmd_density,
    "girsanov-error": _cmd_girsanov_error,
    "rate": _cmd_rate,
    "compose": _cmd_compose,
    "fp-solve": _cmd_fp_solve,
    "sample": _cmd_sample,
}


def run_command(command, cfg, out_dir=None):
    """Dispatch one command; returns the manifest dict."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    mc = cfg.get("mc", {})
    if not isinstance(mc, dict):
        raise ConfigError(f"'mc' must be a JSON object, got {mc!r}")
    seed = cfg.get("seed", mc.get("base_seed"))
    out = (out_dir or cfg.get("out_dir") or os.environ.get("SHORTTIME_OUT_DIR")
           or ".")
    os.makedirs(out, exist_ok=True)
    outputs, extra = _HANDLERS[command](cfg, out)
    manifest = {
        "command": command,
        "config_sha256": _config_hash(cfg),
        "seed": seed,
        "outputs": outputs,
    }
    manifest.update(extra)
    return manifest


def _fail(code, kind, exc, **extra):
    print(json.dumps({"error": {"kind": kind, **extra,
                                "message": str(exc) or type(exc).__name__}}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shorttime",
        description="Short-time transition-density experiments for 1-D "
                    "Langevin SDEs.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: config out_dir, "
                             "then $SHORTTIME_OUT_DIR, then .)")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a top-level config key with a JSON "
                             "value, e.g. --set T=0.1")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"bad override {item!r}; expected K=V")
            key, _, raw = item.partition("=")
            try:
                cfg[key] = json.loads(raw, **_JSON_HOOKS)
            except ValueError:  # not JSON (or an integer past 4300 digits)
                cfg[key] = raw
        manifest = run_command(args.command, cfg, args.out_dir)
    except (ConfigError, KeyError, TypeError) as exc:
        return _fail(2, "config", exc)
    except _DOMAIN_ERRORS + (ValueError,) as exc:
        return _fail(1, "domain", exc,
                     module=type(exc).__module__.rsplit(".", 1)[-1])
    except MemoryError as exc:  # last resort: a size the host cannot hold
        return _fail(1, "resource", exc)
    print(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
