"""The benchmark's own tests: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _cost_keys(op):
    """The cost-relevant choices of an op, one (command, drift, field, value)
    per choice."""
    command, cfg = op
    sample = cfg.get("sample", {})
    fields = {"n_slices": cfg.get("n_slices"), "kind": cfg.get("kind"),
              "oracle": cfg.get("compare_to_oracle"), "law": "law" in cfg,
              "scheme": sample.get("scheme"), "output": sample.get("output")}
    drift = json.dumps(cfg["drift"], sort_keys=True)
    return [(command, drift, k, v) for k, v in fields.items()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_stream(workload):
    first = [workloads.cycle(workload, 7, i) for i in range(3)]
    assert first == [workloads.cycle(workload, 7, i) for i in range(3)]
    assert first[0] != workloads.cycle(workload, 8, 0)
    assert first[0] != first[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_cost_mix(workload):
    mixes = {frozenset(Counter(k for op in workloads.cycle(workload, s, i)
                               for k in _cost_keys(op)).items())
             for s in range(5) for i in range(4)}
    assert len(mixes) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_valid(workload):
    for seed in range(20):
        for command, cfg in workloads.cycle(workload, seed, 0):
            assert cfg["drift"] in workloads.DRIFTS
            xps = [cfg["x_prime"]] if "x_prime" in cfg else \
                [a for a, _ in cfg.get("law", {}).get("atoms", [])]
            assert all(-1.0 <= x <= 1.0 for x in xps)
            if "law" in cfg:
                assert abs(sum(w for _, w in cfg["law"]["atoms"]) - 1.0) <= 1e-12
            if command in ("compose", "fp-solve"):
                g = cfg["grid"]
                assert g["x_min"] == -6.5 + cfg["x_prime"]
                assert g["x_max"] == 11.5 + cfg["x_prime"]
            times = cfg.get("T_grid", [cfg.get("T", 1.0)])
            assert all(0.0 < t <= 1.0 for t in times)


def test_self_time_of_nested_calls():
    clock = iter([0.0, 1.0, 2.0, 5.0, 6.5, 10.0]).__next__
    tr = tracer.Tracer(clock=clock)
    inner = tr.wrap("t.inner", lambda: None)
    outer = tr.wrap("t.outer", lambda: (inner(), inner()))
    outer()
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("t.outer", -1), ("t.inner", 0), ("t.inner", 0)]
    assert tr.self_times() == [7.5, 1.0, 1.5]


def test_layer_ratios_from_nesting():
    tr = tracer.Tracer()
    tr.spans = [
        ("cli.run_command", 0.0, 10.0, -1, 0),
        ("lamperti.flow", 1.0, 9.0, 0, 4),
        ("lamperti.lambda_map", 1.0, 2.0, 1, 4),
        ("drift.eval", 1.0, 1.5, 2, 64),
        ("lamperti.lambda_inverse", 2.0, 8.0, 1, 4),
        ("lamperti.lambda_map", 3.0, 4.0, 4, 4),
        ("drift.eval", 3.0, 3.5, 5, 64),
        ("lamperti.lambda_map", 5.0, 6.0, 4, 4),
        ("drift.eval", 6.5, 7.0, 4, 4),
        ("drift.eval", 9.0, 9.5, 0, 1000),  # outside flow: not counted
    ]
    values, shares = tracer.layer_metrics(tr, 123, 4.5)
    assert values["lamperti.lambda_map_calls_per_inverse"] == 2.0
    assert values["lamperti.drift_points_per_flow_point"] == 132 / 4
    assert values["drift.eval.calls"] == 4
    assert values["drift.eval.points"] == 1132
    assert values["drift.self_ms"] == pytest.approx(2000.0)
    # flow 8 - 1 - 6, maps 0.5 + 0.5 + 1, inverse 6 - 1 - 1 - 0.5
    assert values["lamperti.self_ms"] == pytest.approx(1000.0 * (1 + 2 + 3.5))
    assert values["cli.run_command.self_ms"] == pytest.approx(1500.0)
    assert values["cli.artifact_bytes"] == 123
    assert sum(shares.values()) == pytest.approx(100.0)


def test_tracer_follows_names_bound_by_import(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from shorttime import cli, evolution, kernels

    kernel_matrix = kernels.kernel_matrix
    op = next((c, cfg) for c, cfg in workloads.cycle("grid_density", 3, 0, True)
              if c == "compose" and cfg["n_slices"] == 8)
    tr = tracer.Tracer()
    with tr.patch():
        assert evolution.kernel_matrix is not kernel_matrix
        cli.run_command(*op, str(tmp_path))
    assert evolution.kernel_matrix is kernel_matrix  # undone on exit
    names = [s[0] for s in tr.spans]
    # evolution binds kernel_matrix by import; those calls are traced
    assert any(name == "kernels.kernel_matrix"
               and names[parent] == "evolution.compose_chapman"
               for name, _, _, parent, _ in tr.spans)
    assert names[0] == "cli.run_command"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") for line in lines)
    assert any(line.startswith("metric fail_ratio = 0 ") for line in lines)
    if trace:
        path = os.path.join(ROOT, ".bench_work", f"spans-{workload}-3.jsonl")
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and all(r[0].split(".")[0] in tracer.LAYERS for r in rows)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "mc_rate", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
