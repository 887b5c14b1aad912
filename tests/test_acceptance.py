"""Acceptance suite: end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line so the whole gate can be read off
the output.  The criteria are ordered; the heavy Monte Carlo rate study is
criterion 01.
"""

import json
import math

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest
from scipy.special import ndtr

from shorttime import (
    CompositionPlan,
    GridSpec,
    KernelKind,
    LampertiMap,
    MCConfig,
    approx_exponential,
    cli,
    compose_chapman,
    density_distance,
    girsanov_kernel_cdf,
    kernel_eval,
    ks_distance,
    lp_errors,
    normalization_defect,
    parse_drift,
    rate_fit,
    sample_crypto,
    sample_em_path,
    solve_fokker_planck,
)
from shorttime.girsanov import chunk_rng
from reference import (BrownianPath, approx_exponential_euler,
                       simulate_exponential)

TWO_PLUS_COS = parse_drift("2 + cos(x)")


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def gauss(x, mu, var):
    return np.exp(-np.square(x - mu) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var)


_RATE_TS = [0.2, 0.1, 0.05, 0.025, 0.0125]


@pytest.fixture(scope="module")
def rate_errors():
    """{p: [(T, estimate), ...]} for acceptance 01 from one common-path pass
    at every T and p; each estimate equals a pass at that (p, T) alone bit for
    bit (test_girsanov's TestBlockedPass)."""
    m = LampertiMap(TWO_PLUS_COS, alpha=0.0)
    cfg = MCConfig(n_paths=100000, n_steps=4096, base_seed=2024)
    per_t = lp_errors(m, _RATE_TS, cfg, [1.0, 2.0])
    return {p: [(T, e[i]) for T, e in zip(_RATE_TS, per_t)]
            for i, p in enumerate((1.0, 2.0))}


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_01_order_one_rate(p, rate_errors):
    fit = rate_fit(rate_errors[p])
    ok = 0.8 <= fit.slope <= 1.2 and fit.r_squared >= 0.98
    print(f"  [p={p}] slope={fit.slope:.4f} r2={fit.r_squared:.5f}")
    report(1, f"order-1 rate (p={p})", ok)


def test_02_radon_nikodym_normalization():
    m = LampertiMap(TWO_PLUS_COS)
    ok = True
    for i, T in enumerate((0.05, 0.1, 0.5)):
        g = chunk_rng(314, i).standard_normal(100000)
        vals = np.asarray(approx_exponential(m, g * math.sqrt(T), T))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        print(f"  [T={T}] mean={mean:.5f} se={se:.5f}")
        ok &= abs(mean - 1.0) <= 3.0 * se
        ok &= bool(np.all(vals > 0.0))
    report(2, "Radon-Nikodym normalization", ok)


def test_03_pde_solution_check():
    m = LampertiMap(TWO_PLUS_COS)
    T, h = 0.1, 1e-4
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(2 * h, T - 2 * h))
        x = float(rng.uniform(-1.5, 1.5))
        from shorttime import u_eval

        u_t = (u_eval(m, t + h, x, T) - u_eval(m, t - h, x, T)) / (2 * h)
        fu_x = (m.drift_at(x + h) * u_eval(m, t, x + h, T)
                - m.drift_at(x - h) * u_eval(m, t, x - h, T)) / (2 * h)
        src = m.drift_at(x) * x * u_eval(m, t, x, T) / T
        worst = max(worst, abs(u_t + fu_x - src))
    print(f"  worst residual = {worst:.3e}")
    report(3, "PDE solution check", worst <= 1e-3)


def test_04_kernel_normalization():
    m = LampertiMap(TWO_PLUS_COS)
    ok = True
    for T in (0.01, 0.1, 0.5):
        for xp in (-1.0, 0.0, 2.0):
            half = 3.0 * 3.0 * T + 8.0 * math.sqrt(T) + 0.5
            grid = GridSpec(xp - half, xp + half, 1601)
            d = normalization_defect(KernelKind.GIRSANOV, m, T, xp, grid)
            ok &= abs(d) <= 1e-8
            d_be = normalization_defect(KernelKind.BACKWARD_EULER, m, T, xp,
                                        grid)
            print(f"  [T={T}, x'={xp}] girsanov defect={d:.2e} "
                  f"backward_euler defect={d_be:.2e}")
            ok &= d_be != 0.0
    report(4, "kernel normalization", ok)


def test_05_constant_drift_collapse():
    c = 2.0
    m = LampertiMap(parse_drift("2"))
    T, xp = 0.25, 0.5
    xs = np.linspace(-2.0, 4.0, 201)
    heat = gauss(xs, xp + c * T, T)
    ok = True
    for kind in KernelKind:
        ok &= float(np.max(np.abs(
            np.asarray(kernel_eval(kind, m, T, xs, xp)) - heat))) <= 1e-12
    bs = np.linspace(-2.0, 2.0, 41)
    closed = np.exp(c * bs - 0.5 * c * c * T)
    ok &= float(np.max(np.abs(approx_exponential(m, bs, T) - closed))) <= 1e-12
    ok &= float(np.max(np.abs(
        approx_exponential_euler(m, bs, T) - closed))) <= 1e-12
    path = BrownianPath.generate(T, 256, seed=8)
    b_T = float(path.cumulative()[-1])
    ok &= abs(simulate_exponential(m, path)
              - math.exp(c * b_T - 0.5 * c * c * T)) <= 1e-12
    # samplers: crypto endpoints are exactly x' + cT + sqrt(T) g; EM moments
    # match the Gaussian within Monte Carlo error
    n = 50000
    s = sample_crypto(m, xp, T, n, seed=12)
    g = np.concatenate([chunk_rng(12, i).standard_normal(
        min(1 << 16, n - i * (1 << 16))) for i in range((n - 1) // (1 << 16) + 1)])
    ok &= float(np.max(np.abs(s.values - (xp + c * T + math.sqrt(T) * g)))) \
        <= 1e-12
    e = sample_em_path(m, xp, T, 32, n, seed=13)
    se_mean = math.sqrt(T / n)
    ok &= abs(float(np.mean(e.values)) - (xp + c * T)) <= 4.0 * se_mean
    ok &= abs(float(np.var(e.values, ddof=1)) - T) <= 5.0 * T / math.sqrt(n)
    report(5, "constant-drift collapse", ok)


def test_06_linear_drift_oracle():
    m = LampertiMap(parse_drift("x"), reference_point=1.0, root_tol=1e-13)
    xp = 1.0
    T0 = 0.25
    xs = np.linspace(0.4, 3.0, 27)
    vals = kernel_eval(KernelKind.GIRSANOV, m, T0, xs, xp)
    exact = gauss(xs, math.exp(T0) * xp, math.exp(2 * T0) * T0)
    pointwise = float(np.max(np.abs(vals - exact)))
    ok = pointwise <= 1e-10
    # weak accuracy: L1 gap between the kernel and the true OU-type density
    # shrinks at first order in T
    from shorttime import ErrorEstimate

    xp = 3.0
    grid = np.linspace(0.3, 7.5, 4001)
    errs = []
    for T in (0.2, 0.1, 0.05, 0.025):
        k = kernel_eval(KernelKind.GIRSANOV, m, T, grid, xp)
        ou = gauss(grid, math.exp(T) * xp, (math.exp(2 * T) - 1.0) / 2.0)
        l1 = float(trapezoid(np.abs(np.asarray(k) - ou), grid))
        errs.append((T, ErrorEstimate(mean=l1, std_error=0.0, n=1)))
    fit = rate_fit(errs)
    print(f"  pointwise={pointwise:.2e} L1 slope={fit.slope:.4f}")
    ok &= fit.slope >= 0.9
    report(6, "linear-drift oracle", ok)


def test_07_sampler_kernel_law_identity():
    m = LampertiMap(TWO_PLUS_COS)
    T = 0.1
    s = sample_crypto(m, 0.0, T, 100000, seed=77)
    ks = ks_distance(s, girsanov_kernel_cdf(m, T, 0.0))
    print(f"  KS = {ks:.5f}")
    report(7, "sampler/kernel law identity", ks <= 0.005)


def test_08_path_integral_convergence():
    m = LampertiMap(TWO_PLUS_COS)
    grid = GridSpec(-6.5, 11.5, 2001)
    oracle = solve_fokker_planck(m, 1.0, 0.0, grid, 2000)
    dists = []
    for n in (4, 8, 16, 32):
        plan = CompositionPlan(total_time=1.0, n_slices=n, grid=grid,
                               kind=KernelKind.GIRSANOV)
        dens = compose_chapman(m, plan, 0.0)
        dists.append(density_distance(dens, oracle))
    print("  L1 to oracle:",
          " ".join(f"N={n}:{d:.4f}" for n, d in zip((4, 8, 16, 32), dists)))
    ok = all(b < a for a, b in zip(dists, dists[1:])) and dists[-1] <= 0.02
    report(8, "path-integral convergence", ok)


def test_09_start_frozen_equivalence():
    rng = np.random.default_rng(99)
    ok = True
    worst = 0.0
    for _ in range(100):
        T = float(rng.uniform(0.01, 0.5))
        xp = float(rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(xp - 2.0, xp + 2.0))
        mm = LampertiMap(TWO_PLUS_COS, alpha=xp)
        b = x - xp
        induced = math.exp(-b * b / (2.0 * T)) / math.sqrt(
            2.0 * math.pi * T) * approx_exponential_euler(mm, b, T)
        direct = kernel_eval(KernelKind.EULER_MARUYAMA,
                             LampertiMap(TWO_PLUS_COS), T, x, xp)
        worst = max(worst, abs(induced - direct))
    print(f"  worst |induced - kernel| = {worst:.2e}")
    ok &= worst <= 1e-12
    report(9, "start-frozen exponential equivalence", ok)


def test_10_reproducibility(tmp_path, capsys):
    import pathlib

    configs = sorted(pathlib.Path(__file__).parent.parent.joinpath(
        "configs").glob("*.json"))
    assert configs, "checked-in configs missing"
    # heavy studies get shrunk through overrides; determinism is unaffected
    shrink = {
        "rate": ["--set", 'mc={"n_paths": 400, "n_steps": 64, "base_seed": 2024}'],
        "girsanov-error": ["--set",
                           'mc={"n_paths": 400, "n_steps": 64, "base_seed": 2024}'],
        "sample": ["--set", 'sample={"n": 2000, "scheme": "crypto"}'],
        "compose": ["--set", "n_slices=4", "--set", "n_time_steps=200"],
        "fp-solve": ["--set", "n_time_steps=200"],
    }
    ok = True
    lines = []
    for cfg_path in configs:
        command = json.loads(cfg_path.read_text())["command"]
        extra = shrink.get(command, [])
        artifacts = []
        for run in ("a", "b"):
            out = tmp_path / f"{cfg_path.stem}_{run}"
            code = cli.main([command, "--config", str(cfg_path),
                             "--out-dir", str(out)] + extra)
            capsys.readouterr()  # swallow the manifest JSON
            assert code == 0, f"{cfg_path.name} exited {code}"
            artifacts.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())})
        same = artifacts[0] == artifacts[1]
        ok &= same
        lines.append(f"  {cfg_path.name}: {'identical' if same else 'DIFFERS'}")
    print("\n".join(lines))
    report(10, "byte-identical reruns", ok)
