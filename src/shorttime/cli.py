"""Command-line driver: JSON config in, CSV/JSON artifacts plus a manifest out.

Every command is deterministic given the config file: reruns produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import drift as drift_mod
from . import evolution, girsanov, kernels, sampler
from .kernels import GridSpec, InitialLaw, KernelKind
from .lamperti import _BLOCK_CELLS, LampertiMap, _refuse


class ConfigError(Exception):
    pass


_FLOAT = "%.17g"  # 17 significant digits: every float64 reads back exactly
_BLOCK = 8192  # rows a block in _write_csv
# The one budget of every command (_budget): _MAX_CELLS float64 values held
# at once (400 MB) and _MAX_WORK units of work, a unit being one cell update
# of about 18 ns (16 ns a point in a 2,001-point Crank-Nicolson step), so
# minutes; a library call costs _CALL_WORK units (16 us: one path's EM step).
_MAX_CELLS = 50_000_000
_MAX_WORK = 25_000_000_000
_CALL_WORK = 900


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


def _budget(keys, cells=0, work=0):
    """ConfigError naming keys when a command would hold more than
    _MAX_CELLS float64 values at once or do more than _MAX_WORK units."""
    for amount, cap, what in ((cells, _MAX_CELLS, "cells held"),
                              (work, _MAX_WORK, "work units")):
        if amount > cap:  # %g of an int past the float range overflows
            shown = f"{amount:.3g}" if amount < 1e300 else "over 1e300"
            raise ConfigError(f"{keys}: {shown} {what}, past the cap of "
                              f"{cap:.3g}")


def _assumption(cfg, d):
    """The drift-positivity scan that validate and the epsilon gate share."""
    points = _num(cfg, "scan_points", 2001, count=True)
    # the linspace, and the jets of one block: 1.5-2 values a point at 1e6
    _budget("scan_points", cells=3 * points)
    return drift_mod.validate_assumption(
        d, _nums(cfg, "scan_range", n=2), _num(cfg, "epsilon"), points)


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
            raise drift_mod.DriftError(
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


# _write_csv prints _FLOAT itself where it writes no exponent: for a value
# that rounds into [1e-4, 1e17) (so |v| >= 9.5e-5).  Its 17 digits at
# exponent k are N = round-half-even(|v| 10^(16-k)), computed exactly by
# Dekker's error-free product with 10^(16-k) (exact in float64 for
# 0 <= 16-k <= 22).  log10 only guesses k, and the check
# 10^16 <= N < 10^17 moves a wrong guess one step at a time, so no byte
# depends on numpy's SIMD dispatch.  Every other value is printed by `%`.
_P10 = 10.0 ** np.arange(23)


def _split(a):
    """Veltkamp's split: a == hi + lo, each of at most 26 significant bits."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_P10_HI, _P10_LO = _split(_P10)
_CHUNKS = ((np.arange(10_000)[:, None] // [1000, 100, 10, 1]) % 10
           + ord("0")).astype(np.uint8)  # the 4 digits of each 4-digit chunk
_ZEROS = (_CHUNKS[:, ::-1] == ord("0")).cumprod(axis=1).sum(axis=1,
                                                            dtype=np.int8)
_CHUNKS = _CHUNKS.view(np.uint32).ravel()
_COLS = np.arange(28)  # a value's row: its text (at most 24 bytes), its sep
_BEFORE = (_COLS < _COLS[:, None]).view(np.uint8)  # row p: columns before p
_SPAN = ((_COLS >= _COLS[:6, None, None]) & (_COLS <= _COLS[:25, None])
         ).reshape(-1, 28)  # row 25 lo + hi: columns lo to hi


def _digits17(a, k):
    """round-half-even(a 10^(16-k)) as int64; exact where it is >= 2^53."""
    p = a * _P10[16 - k]
    ah, al = _split(a)
    bh, bl = _P10_HI[16 - k], _P10_LO[16 - k]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a 10^(16-k) - p
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _csv_block(v, buffers, sep):
    """The text of the float64 values v, each followed by its byte of sep,
    built in the first len(v) rows of _write_csv's buffers."""
    m = len(v)
    digits, text, mask, base, chunks = buffers
    digits, text, mask, base, c = (digits[:m], text[:m], mask[:m], base[:m],
                                   chunks[:, :m])
    a = np.abs(v)
    fast = (a >= 9.5e-5) & (a < 1e17)
    a[~fast] = 1.0
    k = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.intp)
    n = _digits17(a, k)
    while (bad := np.flatnonzero((n < 10**16) | (n >= 10**17))).size:
        k[bad] += np.where(n[bad] < 10**16, -1, 1)
        n[bad] = _digits17(a[bad], k[bad])
    fast &= k >= -4
    k[~fast] = 0
    # n's five chunks "000d", "dddd" x 4 go to digits[:, 4:24], whose
    # columns 2-23 are then 5 zeros and the 17 digits: g[0..21]
    np.floor_divide(n, 10 ** np.arange(16, -1, -4)[:, None], out=c)
    c[1:] -= c[:-1] * 10**4
    digits.view(np.uint32)[:, 1:6] = _CHUNKS[c].T
    z = _ZEROS[c]  # n's trailing zeros, from its chunks' (4 for a 0 chunk)
    z = z[4] + (z[4] == 4) * (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * z[1]))
    # the row is g[j] before the point, the point at column k + 6, g[j - 1]
    # after it; it starts at g[first] (the 0 before a point if k < 0, else
    # the first digit), or one column earlier with a sign, and ends before
    # the trailing zeros, or before the point if they are the whole fraction
    point, first = k + 6, 5 + np.minimum(k, 0)
    lo, hi = first - np.signbit(v), np.where(z <= 15 - k, 23 - z, point)
    row, g = text.ravel(), digits.ravel()
    np.take(_BEFORE, point, axis=0, out=mask.view(np.uint8), mode="clip")
    np.subtract(g[2:], g[1:-1], out=row[:-2])
    row[:-2] *= mask.view(np.uint8).ravel()[:-2]
    row[:-2] += g[1:-1]
    row[base + point] = ord(".")
    row[base + first - 1] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        printed = b"%-24.17g" * slow.size % tuple(v[slow].tolist())
        printed = np.frombuffer(printed, np.uint8).reshape(-1, 24)
        text[slow, :24] = printed
        lo[slow], hi[slow] = 0, (printed != ord(" ")).sum(axis=1)
    row[base + hi] = sep[:m]
    np.take(_SPAN, lo * 25 + hi, axis=0, out=mask, mode="clip")
    return text[mask]


def _write_csv(path, header, *columns):
    """CSV of equal-length float columns, one header line, then one row a
    point, a value's text being _FLOAT's.  Blocks of _BLOCK rows are stacked
    from the columns one at a time and formatted by _csv_block in buffers
    made once per file."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of {sorted({len(c) for c in columns})} "
                         "rows, not one length")
    m = min(n, _BLOCK) * len(columns)
    buffers = (np.full((m, 28), ord("0"), np.uint8), np.empty((m, 28), np.uint8),
               np.empty((m, 28), bool), 28 * np.arange(m),
               np.empty((5, m), np.int64))
    sep = np.full(m, ord(","), np.uint8)
    sep[len(columns) - 1::len(columns)] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r in range(0, n, _BLOCK):
            block = np.column_stack([c[r:r + _BLOCK] for c in columns])
            fh.write(_csv_block(block.ravel(), buffers, sep))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------

def _cmd_validate(cfg):
    report = _assumption(cfg, _build_drift(cfg))
    return ({"validate_report.json": dataclasses.asdict(report)},
            {"passed": report.passed})


def _cmd_flow(cfg):
    m = _build_map(cfg)
    t = _num(cfg, "t")
    xs = np.asarray(_nums(cfg, "x_values"))
    return {"flow.csv": (["x", "flow"], xs, m.flow(xs, t))}, {"t": t}


def _cmd_density(cfg):
    m = _build_map(cfg)
    T = _num(cfg, "T")
    grid = _grid(cfg)
    kinds = _kinds(cfg)
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
        # 8 values a point and 1 an atom for kind all (tracemalloc)
        keys, per_point = "grid.n_points x law.atoms", 9 + len(law.atoms)
    else:  # one atom at x_prime, and the kernel's mass defect: 9 a point
        law = InitialLaw(((_num(cfg, "x_prime"), 1.0),))
        keys, per_point = "grid.n_points", 10
    _budget(keys, cells=grid.n_points * per_point)
    defects = {} if "law" in cfg else {
        k.value: kernels.normalization_defect(k, m, T, law.atoms[0][0], grid)
        for k in kinds}
    xs = grid.points()
    cols = [kernels.marginal_density(k, m, law, T, xs) for k in kinds]
    return ({"density.csv": (["x"] + [k.value for k in kinds], xs, *cols)},
            {"mass_defect": defects, "T": T})


def _mc_config(cfg, n_horizons):
    """The mc sub-object for a pass over n_horizons horizons; its row
    blocks hold _BLOCK_CELLS cells, so only its work counts."""
    mc = _require(cfg, "mc")
    n_paths = _num(mc, "n_paths", count=True)
    n_steps = _num(mc, "n_steps", count=True)
    _budget("mc.n_paths x mc.n_steps x horizons",
            work=n_paths * n_steps * n_horizons)
    return girsanov.MCConfig(n_paths=n_paths, n_steps=n_steps,
                             base_seed=_num(mc, "base_seed", count=True))


def _error_rows(t_grid, p_values, per_t):
    """The CSV of lp_errors' estimates per_t: a row per (p, T), p-major."""
    ests = [e[i] for i in range(len(p_values)) for e in per_t]
    return (["T", "p", "error_mean", "std_error"], t_grid * len(p_values),
            np.repeat(p_values, len(t_grid)), [e.mean for e in ests],
            [e.std_error for e in ests])


def _cmd_girsanov_error(cfg):
    m = _build_map(cfg)
    T = [_num(cfg, "T")]
    p_values = _nums(cfg, "p_values", [2.0])
    per_t = girsanov._finite_lp_errors(m, T, _mc_config(cfg, 1), p_values)
    return {"errors.csv": _error_rows(T, p_values, per_t)}, {}


def _cmd_rate(cfg):
    m = _build_map(cfg)
    t_grid = _nums(cfg, "T_grid")
    p_values = _nums(cfg, "p_values", [1.0, 2.0])
    mc = _mc_config(cfg, len(t_grid))
    if len(set(t_grid)) < 3:  # rate_fit's own check, made before any path
        raise ConfigError("'T_grid' needs at least 3 distinct T values")
    if m.is_constant:  # the kernel is exact: every error would be rounding
        raise ConfigError("rate needs a drift that depends on x; for a "
                          "constant drift the kernel is exact")
    # one common-path pass shares its draws across T_grid and serves every p
    per_t = girsanov._finite_lp_errors(m, t_grid, mc, p_values)
    fits = {}
    for i, p in enumerate(p_values):
        fit = girsanov.rate_fit([(T, e[i]) for T, e in zip(t_grid, per_t)])
        fits[_FLOAT % p] = {"slope": fit.slope, "intercept": fit.intercept,
                            "r_squared": fit.r_squared}
    return ({"rate_errors.csv": _error_rows(t_grid, p_values, per_t),
             "rate_fit.json": fits}, {"fits": fits})


def _density_files(name, grid, dens, meta):
    """The files of a density on grid: its CSV and its meta JSON."""
    return ({f"{name}.csv": (["x", "density"], grid.points(), dens.values),
             f"{name}_meta.json": meta}, meta)


def _cmd_compose(cfg):
    grid = _grid(cfg)
    kinds = _kinds(cfg)
    if len(kinds) != 1:
        raise ConfigError("compose takes one kernel 'kind', not 'all'")
    m = _build_map(cfg)
    T, n, xp = _num(cfg, "T"), grid.n_points, _num(cfg, "x_prime")
    n_slices = _num(cfg, "n_slices", count=True)
    steps = (_num(cfg, "n_time_steps", 2000, count=True)
             if _flag(cfg, "compare_to_oracle") else 0)
    # a slice is a product with the band: W float64 and int32 cells a row
    w = min(n, 1 + 2 * kernels._BAND_SIGMAS
            * math.sqrt(abs(T) / max(n_slices, 1)) / grid.dx)
    _budget("n_slices x grid.n_points" + " + n_time_steps" * bool(steps),
            cells=1.5 * n * w, work=n_slices * (n * w + _CALL_WORK)
            + steps * (n + _CALL_WORK))
    plan = evolution.CompositionPlan(T, n_slices, grid, kinds[0])
    dens = evolution.compose_chapman(m, plan, xp)
    meta = {"mass": dens.mass(), "n_slices": plan.n_slices,
            "kind": plan.kind.value}
    if steps:
        oracle = evolution.solve_fokker_planck(m, T, xp, grid, steps)
        meta["distance_to_oracle"] = evolution.density_distance(dens, oracle)
    return _density_files("compose", grid, dens, meta)


def _cmd_fp_solve(cfg):
    m = _build_map(cfg)
    grid = _grid(cfg)
    steps = _num(cfg, "n_time_steps", 2000, count=True)
    # a step is one tridiagonal solve; 16 values a point by tracemalloc
    _budget("n_time_steps x grid.n_points", cells=16 * grid.n_points,
            work=steps * (grid.n_points + _CALL_WORK))
    dens = evolution.solve_fokker_planck(
        m, _num(cfg, "T"), _num(cfg, "x_prime"), grid, steps)
    return _density_files("fp", grid, dens,
                          {"mass": dens.mass(), "n_time_steps": steps})


def _cmd_sample(cfg):
    m = _build_map(cfg)
    scfg = _require(cfg, "sample")
    T = _num(cfg, "T")
    xp = _num(cfg, "x_prime")
    n = _num(scfg, "n", count=True)
    seed = _num(scfg, "seed", cfg.get("seed", 0), count=True)
    scheme = scfg.get("scheme", "crypto")
    output = scfg.get("output", "summary")
    if output not in ("summary", "csv"):
        raise ConfigError(f"unknown sample output {output!r}")
    if scheme not in ("crypto", "euler_maruyama_path"):
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    em = scheme != "crypto"
    steps = _num(scfg, "n_steps", count=True) if em else 0
    # a summary holds 7.1 values a sample by tracemalloc, a CSV 2; an
    # Euler-Maruyama step is one drift call per RNG chunk of samples, and
    # its normals fill the draw-ahead worker's _AHEAD + 1 blocks of up to
    # _BLOCK_CELLS values (at most 8 n + 4.91 blocks, at n = 1,000)
    blocks = (girsanov._AHEAD + 1) * _BLOCK_CELLS if em else 0
    _budget("sample.n x sample.n_steps" if em else "sample.n",
            cells=8 * n + blocks,
            work=steps * (n + -(-n // sampler._CHUNK) * _CALL_WORK))
    if output == "summary" and n < 2:  # the sample variance needs two
        raise ConfigError("a sample summary needs 'sample.n' of at least 2")
    s = (sampler.sample_em_path(m, xp, T, steps, n, seed) if em
         else sampler.sample_crypto(m, xp, T, n, seed))
    meta = {"scheme": scheme, "n": n, "seed": seed}
    if output == "csv":
        return {"samples.csv": (["value"], s.values)}, meta
    ks = sampler.ks_distance(s, sampler.girsanov_kernel_cdf(m, T, xp))
    summary = {
        "mean": float(np.mean(s.values)),
        "var": float(np.var(s.values, ddof=1)),
        "ks_vs_kernel": ks,
    }
    return {"sample_summary.json": summary}, dict(meta, **summary)


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
    # every result exists before the first file is written
    files, extra = _HANDLERS[command](cfg)
    outputs = []
    for name, content in files.items():
        outputs.append(os.path.join(out, name))
        if name.endswith(".csv"):
            _write_csv(outputs[-1], *content)
        else:
            _write_json(outputs[-1], content)
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


def _module(exc):
    """The module of exc's type if shorttime defines it, else where a
    ValueError was raised: the innermost shorttime frame but _refuse's."""
    from traceback import walk_tb
    names = [type(exc).__module__] + [
        f.f_globals.get("__name__", "") for f, _ in walk_tb(exc.__traceback__)
        if f.f_code is not _refuse.__code__][::-1]
    return next((n for n in names if n.startswith("shorttime.")),
                names[0]).rsplit(".", 1)[-1]


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
    except ValueError as exc:  # every library error is one
        return _fail(1, "domain", exc, module=_module(exc))
    except MemoryError as exc:  # last resort: a size the host cannot hold
        return _fail(1, "resource", exc)
    print(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
