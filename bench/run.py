#!/usr/bin/env python3
"""Closed-loop benchmark of the shorttime CLI.

    python3 bench/run.py --workload mc_rate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One client issues the seeded ops of one
workload to ``shorttime.cli.run_command`` back to back, in this process,
whole cycles at a time, until ``--seconds`` have passed. Every op's
artifacts are then checked. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` also runs every op under the span tracer and prints the
per-layer metrics. The last line of stdout is one JSON result object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One client thread, and BLAS pinned to one thread, so that the other vCPU
# of a small shared machine stays free for the system (see "Time base" in
# README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only, so setup probes stay honest)

SETUP_PROBES = 5


def _import_cli():
    """Import shorttime.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "shorttime", "cli.py")):
        sys.exit(f"bench: no src/shorttime under {ROOT}; run from a checkout")
    sys.path.insert(0, SRC)
    from shorttime import cli
    return cli


def _probe(args):
    """Setup probe: import the CLI, build the first cycle, report ready."""
    _import_cli()
    workloads.cycle(args.workload, args.seed, 0)
    print(f"ready {time.process_time()!r}", flush=True)


def setup_probe(args):
    """Wall time from starting a fresh interpreter until it is ready to issue
    its first op, and the CPU time it used until then. The probe has ended
    when this returns."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--seconds",
           "0", "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or len(line) != 2 or line[0] != b"ready":
        sys.exit(f"bench: setup probe failed with exit code {code}")
    return elapsed, float(line[1])


def environment(args):
    import numpy
    import scipy

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {}, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": "unknown", "blas_threads": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                env["caches"][f"L{level}{kind[0].lower()}"] = fh.read().strip()
    except OSError:
        pass
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            blas = ctypes.CDLL(lib)
            get_config = blas.scipy_openblas_get_config64_
            get_threads = blas.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        env["blas"] = get_config().decode()
        env["blas_threads"] = get_threads()
    return env


def _work_dir():
    path = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_op(cli, command, cfg, out):
    """One op; returns (wall seconds, CPU seconds, manifest or the exception
    it raised)."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        result = cli.run_command(command, cfg, out)
    except Exception as exc:  # a raising op is a failed op, not a crash
        result = exc
    return time.perf_counter() - start, time.process_time() - cpu, result


@dataclass
class Run:
    """What the timed loop did. ``traced_*`` stay empty without a tracer."""

    ops: list = field(default_factory=list)
    wall: list = field(default_factory=list)      # wall seconds per op
    cpu: list = field(default_factory=list)       # CPU seconds per op
    results: list = field(default_factory=list)   # manifest or exception
    traced_wall: list = field(default_factory=list)
    traced_results: list = field(default_factory=list)
    setup: list = field(default_factory=list)     # (wall, CPU) per probe
    cycles: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0


def run_cycles(cli, args, out_root, tr=None):
    """Whole cycles until --seconds of wall time have passed.

    With a tracer ``tr`` every op also runs traced, right before or after
    its untraced run (alternating), so that both runs see the same machine
    state and the tracer overhead is measured in pairs. Without one, the
    setup probes run between ops, spread evenly over the loop, so that they
    sample the same stretch of machine time as the ops do.
    """
    run = Run()
    probes = 0 if tr is not None else SETUP_PROBES
    start, cpu = time.perf_counter(), time.process_time()
    while time.perf_counter() - start < args.seconds or not run.cycles:
        for command, cfg in workloads.cycle(args.workload, args.seed,
                                            run.cycles, args.smoke):
            due = len(run.setup) * args.seconds / SETUP_PROBES
            if len(run.setup) < probes and time.perf_counter() - start >= due:
                run.setup.append(setup_probe(args))
            out = os.path.join(out_root, str(len(run.ops)))
            traced_first = len(run.ops) % 2
            if tr is not None and traced_first:
                with tr.patch():
                    traced = run_op(cli, command, cfg, out + "t")
            untraced = run_op(cli, command, cfg, out)
            if tr is not None and not traced_first:
                with tr.patch():
                    traced = run_op(cli, command, cfg, out + "t")
            run.ops.append((command, cfg))
            run.wall.append(untraced[0])
            run.cpu.append(untraced[1])
            run.results.append(untraced[2])
            if tr is not None:
                run.traced_wall.append(traced[0])
                run.traced_results.append(traced[2])
        run.cycles += 1
    while len(run.setup) < probes:
        run.setup.append(setup_probe(args))
    run.cpu_s = time.process_time() - cpu
    run.wall_s = time.perf_counter() - start
    return run


def _artifacts(manifest):
    for path in manifest["outputs"]:
        with open(path, "rb") as fh:
            yield os.path.basename(path), fh.read()


def verify(ops, results, cycle_len):
    """Check every op; returns (failures, digest of all artifacts, digest of
    the first cycle's artifacts, artifact bytes)."""
    import checks
    from shorttime import LampertiMap
    from shorttime.drift import drift_from_config

    def make_map(cfg):
        return LampertiMap(drift_from_config(cfg["drift"]))

    failures = []
    digest = hashlib.sha256()
    first = hashlib.sha256()
    n_bytes = 0
    for i, ((command, cfg), result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            failures.append((i, command, f"raised {result!r}"))
            continue
        try:
            checks.check(command, cfg, result, make_map)
        except checks.CheckError as exc:
            failures.append((i, command, str(exc)))
        for name, data in _artifacts(result):
            for h in (digest, first) if i < cycle_len else (digest,):
                h.update(name.encode() + b"\0" + data)
            n_bytes += len(data)
    return failures, digest.hexdigest(), first.hexdigest(), n_bytes


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least 10 samples above it."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op sizes, for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args)
    cli = _import_cli()
    import tracer

    if not args.trace:
        setup_probe(args)  # discarded: warms the bytecode and page caches
    env = environment(args)
    work = _work_dir()
    try:
        # untimed warm-up: lazy imports and first-call paths of every command
        for i, (command, cfg) in enumerate(
                workloads.cycle(args.workload, -1, 0, smoke=True)):
            run_op(cli, command, cfg, os.path.join(work, "warmup", str(i)))
        tr = tracer.Tracer() if args.trace else None
        run = run_cycles(cli, args, os.path.join(work, "run"), tr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, digest, digest_first, n_bytes = verify(
            run.ops, run.results, len(run.ops) // run.cycles)
        if args.trace:
            bad = {i for i, _, _ in failures}
            for i, (a, b) in enumerate(zip(run.results, run.traced_results)):
                same = (not isinstance(b, Exception) and not isinstance(a, Exception)
                        and list(_artifacts(a)) == list(_artifacts(b)))
                if not same and i not in bad:
                    failures.append((i, run.ops[i][0], "traced artifacts differ"))
            spans_path = os.path.join(os.path.dirname(work),
                                      f"spans-{args.workload}-{args.seed}.jsonl")
            tr.dump(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    n = len(run.ops)
    print("env " + json.dumps(env, sort_keys=True))
    ops_s = sum(run.wall)
    print(f"run workload={args.workload} seed={args.seed} cycles={run.cycles} "
          f"ops={n} loop_wall_s={run.wall_s:.3f} ops_wall_s={ops_s:.3f} "
          f"cpu_s={run.cpu_s:.3f} cpu_ops_per_s={n / sum(run.cpu):.4g} "
          f"cpu_op_ms_p50={1e3 * statistics.median(run.cpu):.4g} "
          f"closed_loop_clients=1")
    print(f"artifacts ops={n} sha256={digest} first_cycle_sha256={digest_first}")
    for i, command, why in failures:
        print(f"FAILED op {i} ({command}): {why}")

    if args.trace:
        # wall time of the same ops, traced and untraced, run in pairs
        overhead = 100.0 * (sum(run.traced_wall) / sum(run.wall) - 1.0)
        values, shares = tracer.layer_metrics(tr, n_bytes, overhead)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in tracer.METRICS}
        print("layer self-time shares: " + " ".join(
            f"{layer}={share:.1f}%" for layer, share in shares.items()))
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        tail_s, tail_pct, beyond = tail(run.wall)
        metrics = {
            "setup_s": _metric(statistics.median(w for w, _ in run.setup), "s"),
            "ops_per_s": _metric(n / ops_s, "1/s"),
            "op_ms_p50": _metric(1e3 * statistics.median(run.wall), "ms"),
            "op_ms_tail": _metric(1e3 * tail_s, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        print(f"op_ms_tail is p{tail_pct:.1f}: {beyond} of {n} ops beyond it")
        print(f"setup CPU time (median) "
              f"{statistics.median(c for _, c in run.setup):.4f} s")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"metric fail_ratio = {len(failures) / n:.6g} ratio "
          f"({len(failures)} of {n} ops)")
    print(json.dumps({"correct": not failures, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
