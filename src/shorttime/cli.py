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


def _fmt(v):
    return f"{float(v):.17g}"


def _require(cfg, key, default=None):
    """cfg[key]; without it, the default, or ConfigError if there is none."""
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


def _num(cfg, key, default=None, count=False):
    return _number(_require(cfg, key, default), key, count)


def _nums(cfg, key, default=None, n=None):
    """The list of numbers at cfg[key]; n, if given, is its length."""
    v = _require(cfg, key, default)
    if not isinstance(v, list) or len(v) != (n or len(v)):
        raise ConfigError(f"{key!r} must be a list of {n or 'finite'} numbers")
    return [_number(e, key) for e in v]


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


def _map_kwargs(cfg):
    return {
        "alpha": _num(cfg, "alpha", 0.0),
        "quad_tol": _num(cfg, "quad_tol", 1e-10),
        "root_tol": _num(cfg, "root_tol", 1e-10),
        "reference_point": _num(cfg, "reference_point", 0.0),
    }


def _assumption(cfg, d):
    """The drift-positivity scan that validate and the epsilon gate share."""
    return drift_mod.validate_assumption(
        d, _nums(cfg, "scan_range", n=2), _num(cfg, "epsilon"),
        _num(cfg, "scan_points", 2001, count=True))


def _build_map(cfg, d=None):
    d = d if d is not None else _build_drift(cfg)
    m = LampertiMap(d, **_map_kwargs(cfg))
    if not cfg.get("assume_valid", False) and "epsilon" in cfg:
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


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
    ys = m.flow(xs, t)
    path = os.path.join(out, "flow.csv")
    _write_csv(path, ["x", "flow"], zip(xs, ys))
    return [path], {"t": t}


def _cmd_density(cfg, out):
    d = _build_drift(cfg)
    m = _build_map(cfg, d)
    T = _num(cfg, "T")
    grid = _grid(cfg)
    kinds = _kinds(cfg)
    xs = grid.points()
    law = None
    if "law" in cfg:
        law = InitialLaw(tuple(
            (_number(a, "law.atoms"), _number(w, "law.atoms"))
            for a, w in cfg["law"]["atoms"]))
    cols = []
    defects = {}
    for kind in kinds:
        if law is not None:
            # the per-atom maps carry their own shift, so 'alpha' stays out
            kwargs = {k: v for k, v in _map_kwargs(cfg).items()
                      if k != "alpha"}
            vals = kernels.marginal_density(kind, d, law, T, xs, **kwargs)
        else:
            xp = _num(cfg, "x_prime")
            vals = kernels.kernel_eval(kind, m, T, xs, xp)
            defects[kind.value] = kernels.normalization_defect(
                kind, m, T, xp, grid)
        cols.append(vals)
    path = os.path.join(out, "density.csv")
    _write_csv(path, ["x"] + [k.value for k in kinds],
               zip(xs, *cols))
    return [path], {"mass_defect": defects, "T": T}


def _mc_config(cfg):
    mc = _require(cfg, "mc")
    return girsanov.MCConfig(
        n_paths=_num(mc, "n_paths", count=True),
        n_steps=_num(mc, "n_steps", count=True),
        base_seed=_num(mc, "base_seed", count=True),
    )


def _cmd_girsanov_error(cfg, out):
    m = _build_map(cfg)
    T = _num(cfg, "T")
    p_values = _nums(cfg, "p_values", [2.0])
    ests = girsanov.lp_errors(m, T, _mc_config(cfg), p_values)
    rows = [(T, p, e.mean, e.std_error) for p, e in zip(p_values, ests)]
    path = os.path.join(out, "errors.csv")
    _write_csv(path, ["T", "p", "error_mean", "std_error"], rows)
    return [path], {}


def _cmd_rate(cfg, out):
    m = _build_map(cfg)
    t_grid = _nums(cfg, "T_grid")
    p_values = _nums(cfg, "p_values", [1.0, 2.0])
    mc = _mc_config(cfg)
    # one common-path pass per T serves every p; rows stay p-major
    per_t = [girsanov.lp_errors(m, T, mc, p_values) for T in t_grid]
    rows = []
    fits = {}
    for i, p in enumerate(p_values):
        errors = [(T, ests[i]) for T, ests in zip(t_grid, per_t)]
        rows.extend((T, p, est.mean, est.std_error) for T, est in errors)
        fit = girsanov.rate_fit(errors)
        fits[_fmt(p)] = {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared}
    csv_path = os.path.join(out, "rate_errors.csv")
    _write_csv(csv_path, ["T", "p", "error_mean", "std_error"], rows)
    fit_path = os.path.join(out, "rate_fit.json")
    _write_json(fit_path, fits)
    return [csv_path, fit_path], {"fits": fits}


def _cmd_compose(cfg, out):
    m = _build_map(cfg)
    grid = _grid(cfg)
    plan = CompositionPlan(
        total_time=_num(cfg, "T"),
        n_slices=_num(cfg, "n_slices", count=True),
        grid=grid,
        kind=_kinds(cfg)[0],
    )
    xp = _num(cfg, "x_prime")
    dens = evolution.compose_chapman(m, plan, xp)
    meta = {"mass": dens.mass(), "n_slices": plan.n_slices,
            "kind": plan.kind.value}
    if cfg.get("compare_to_oracle", False):
        oracle = evolution.solve_fokker_planck(
            m, plan.total_time, xp, grid,
            _num(cfg, "n_time_steps", 2000, count=True))
        meta["distance_to_oracle"] = evolution.density_distance(
            dens, oracle, "L1")
    csv_path = os.path.join(out, "compose.csv")
    _write_csv(csv_path, ["x", "density"], zip(grid.points(), dens.values))
    meta_path = os.path.join(out, "compose_meta.json")
    _write_json(meta_path, meta)
    return [csv_path, meta_path], meta


def _cmd_fp_solve(cfg, out):
    m = _build_map(cfg)
    grid = _grid(cfg)
    steps = _num(cfg, "n_time_steps", 2000, count=True)
    dens = evolution.solve_fokker_planck(
        m, _num(cfg, "T"), _num(cfg, "x_prime"), grid, steps)
    csv_path = os.path.join(out, "fp.csv")
    _write_csv(csv_path, ["x", "density"], zip(grid.points(), dens.values))
    meta = {"mass": dens.mass(), "n_time_steps": steps}
    meta_path = os.path.join(out, "fp_meta.json")
    _write_json(meta_path, meta)
    return [csv_path, meta_path], meta


def _cmd_sample(cfg, out):
    m = _build_map(cfg)
    scfg = _require(cfg, "sample")
    T = _num(cfg, "T")
    xp = _num(cfg, "x_prime")
    n = _num(scfg, "n", count=True)
    seed = _num(scfg, "seed", cfg.get("seed", 0), count=True)
    scheme = scfg.get("scheme", "crypto")
    if scheme == "crypto":
        s = sampler.sample_crypto(m, xp, T, n, seed)
    elif scheme == "euler_maruyama_path":
        steps = _num(scfg, "n_steps", count=True)
        s = sampler.sample_em_path(m, xp, T, steps, n, seed)
    else:
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    outputs = []
    meta = {"scheme": scheme, "n": n, "seed": seed}
    if scfg.get("output", "summary") == "csv":
        path = os.path.join(out, "samples.csv")
        _write_csv(path, ["value"], ((v,) for v in s.values))
        outputs.append(path)
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
        outputs.append(path)
    return outputs, meta


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
    out = (out_dir or cfg.get("out_dir") or os.environ.get("SHORTTIME_OUT_DIR")
           or ".")
    os.makedirs(out, exist_ok=True)
    outputs, extra = _HANDLERS[command](cfg, out)
    manifest = {
        "command": command,
        "config_sha256": _config_hash(cfg),
        "seed": cfg.get("seed", cfg.get("mc", {}).get("base_seed")),
        "outputs": outputs,
    }
    manifest.update(extra)
    return manifest


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
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}))
        return 2
    except _DOMAIN_ERRORS + (ValueError,) as exc:
        print(json.dumps({"error": {
            "kind": "domain",
            "module": type(exc).__module__.rsplit(".", 1)[-1],
            "message": str(exc),
        }}))
        return 1
    print(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
