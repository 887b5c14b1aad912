import math

import numpy as np
import pytest

from shorttime import (
    BrownianPath,
    LampertiMap,
    MCConfig,
    approx_exponential,
    approx_exponential_euler,
    builtin_drift,
    lp_error,
    lp_errors,
    parse_drift,
    rate_fit,
    simulate_exponential,
    u_eval,
)
from shorttime import girsanov
from shorttime.girsanov import chunk_rng

TWO_PLUS_COS = parse_drift("2 + cos(x)")


class TestBrownianPath:
    def test_shapes_and_dt(self):
        p = BrownianPath.generate(0.5, 8, seed=1)
        assert p.dt == pytest.approx(0.0625)
        b = p.cumulative()
        assert b.shape == (9,)
        assert b[0] == 0.0
        assert b[-1] == pytest.approx(float(np.sum(p.increments)))

    def test_seed_reproducible(self):
        a = BrownianPath.generate(0.5, 8, seed=3)
        b = BrownianPath.generate(0.5, 8, seed=3)
        assert np.array_equal(a.increments, b.increments)

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownianPath.generate(0.0, 8, seed=1)
        with pytest.raises(ValueError):
            BrownianPath.generate(0.5, 0, seed=1)


class TestChunkRng:
    def test_deterministic_and_distinct(self):
        a = chunk_rng(11, 0).standard_normal(4)
        b = chunk_rng(11, 0).standard_normal(4)
        c = chunk_rng(11, 1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulateExponential:
    def test_constant_drift_closed_form(self):
        # for F = c the Ito sum telescopes: M = exp(c B_T - c^2 T / 2) exactly
        m = LampertiMap(parse_drift("2"))
        p = BrownianPath.generate(0.3, 64, seed=5)
        b_T = float(p.cumulative()[-1])
        expected = math.exp(2.0 * b_T - 0.5 * 4.0 * 0.3)
        assert simulate_exponential(m, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_drift(self):
        m = LampertiMap(parse_drift("0"))
        p = BrownianPath.generate(0.3, 64, seed=5)
        assert simulate_exponential(m, p) == 1.0

    def test_ito_sum_self_convergence(self):
        # refine the Ito sums along fixed trajectories; the pathwise error
        # averaged over paths shrinks with the step size at a rate between
        # the strong order 1/2 and 1
        m = LampertiMap(TWO_PLUS_COS)
        T = 0.5
        n_fine = 1 << 14
        paths = [BrownianPath.generate(T, n_fine, seed=900 + i)
                 for i in range(200)]
        refs = [simulate_exponential(m, p) for p in paths]
        ns = [1 << 5, 1 << 7, 1 << 9, 1 << 11]
        errs = []
        for n in ns:
            factor = n_fine // n
            gaps = []
            for p, ref in zip(paths, refs):
                inc = p.increments.reshape(n, factor).sum(axis=1)
                coarse = BrownianPath(horizon=T, n_steps=n, increments=inc,
                                      seed=p.seed)
                gaps.append(abs(simulate_exponential(m, coarse) - ref))
            errs.append(float(np.mean(gaps)))
        slope, _ = np.polyfit(np.log([T / n for n in ns]), np.log(errs), 1)
        assert 0.35 <= slope <= 0.95
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestUEval:
    def test_initial_condition(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert u_eval(m, 0.0, 0.7, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_constant_drift_closed_form(self):
        m = LampertiMap(parse_drift("2"))
        t, x, T = 0.3, 0.4, 0.5
        y = x - 2.0 * t
        expected = math.exp(-(y * y - x * x) / (2.0 * T))
        assert u_eval(m, t, x, T) == pytest.approx(expected, rel=1e-12)

    def test_linear_drift_closed_form(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        t, x, T = 0.2, 1.3, 0.4
        y = x * math.exp(-t)
        expected = math.exp(-t) * math.exp(-(y * y - x * x) / (2.0 * T))
        assert u_eval(m, t, x, T) == pytest.approx(expected, rel=1e-8)

    def test_validation(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError):
            u_eval(m, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            u_eval(m, 0.6, 0.0, 0.5)

    def test_pde_residual_small(self):
        # u solves  u_t = -(F u)_x + F x u / T  ; check by central differences
        m = LampertiMap(TWO_PLUS_COS)
        T = 0.5
        h = 1e-4
        rng = np.random.default_rng(12)
        ts = rng.uniform(2 * h, T - 2 * h, 40)
        xs = rng.uniform(-1.5, 1.5, 40)
        worst = 0.0
        for t, x in zip(ts, xs):
            u_t = (u_eval(m, t + h, x, T) - u_eval(m, t - h, x, T)) / (2 * h)
            up = u_eval(m, t, x + h, T)
            um = u_eval(m, t, x - h, T)
            fu_x = (m.drift_at(x + h) * up - m.drift_at(x - h) * um) / (2 * h)
            src = m.drift_at(x) * x * u_eval(m, t, x, T) / T
            worst = max(worst, abs(u_t + fu_x - src))
        assert worst <= 1e-3


class TestApproxExponential:
    def test_matches_u_at_horizon(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert approx_exponential(m, 0.8, 0.3) == u_eval(m, 0.3, 0.8, 0.3)

    def test_euler_variant_closed_form(self):
        # exp{ F(0) b - F(0)^2 T / 2 } with F(0) = 3 for 2 + cos
        m = LampertiMap(TWO_PLUS_COS)
        b, T = 0.4, 0.2
        assert approx_exponential_euler(m, b, T) == pytest.approx(
            math.exp(3.0 * b - 4.5 * T), rel=1e-12)

    def test_variants_agree_for_constant_drift(self):
        m = LampertiMap(parse_drift("2"))
        bs = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(approx_exponential(m, bs, 0.3),
                           approx_exponential_euler(m, bs, 0.3), rtol=1e-13)

    def test_unit_mean(self):
        # E[u(T, B_T)] = 1: the approximation is an exact density in B_T
        m = LampertiMap(TWO_PLUS_COS)
        T = 0.1
        g = np.random.default_rng(21).standard_normal(40000)
        vals = approx_exponential(m, g * math.sqrt(T), T)
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - 1.0) <= 4.0 * se


class TestLpError:
    def test_constant_drift_is_exact(self):
        # the Ito sums telescope for constant drift, so the gap is zero
        m = LampertiMap(parse_drift("2"))
        est = lp_error(m, 0.25, MCConfig(n_paths=500, n_steps=32,
                                         base_seed=7, p=2.0))
        # zero up to roundoff in the telescoped sums
        assert est.mean <= 1e-13
        assert est.n == 500

    def test_bit_identical_reruns(self):
        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=3000, n_steps=64, base_seed=42, p=1.0)
        a = lp_error(m, 0.1, cfg)
        b = lp_error(m, 0.1, cfg)
        assert (a.mean, a.std_error, a.n) == (b.mean, b.std_error, b.n)

    def test_seed_changes_estimate(self):
        m = LampertiMap(TWO_PLUS_COS)
        a = lp_error(m, 0.1, MCConfig(n_paths=3000, n_steps=64,
                                      base_seed=42, p=1.0))
        b = lp_error(m, 0.1, MCConfig(n_paths=3000, n_steps=64,
                                      base_seed=43, p=1.0))
        assert a.mean != b.mean

    def test_chunking_statistically_invisible(self):
        # each chunk re-seeds, so regrouping changes the draws; the
        # estimates must still agree within Monte Carlo error
        from shorttime import girsanov as g

        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=4000, n_steps=32, base_seed=5, p=1.0)
        full = lp_error(m, 0.1, cfg)
        old = g._CHUNK
        try:
            g._CHUNK = 512
            split = lp_error(m, 0.1, cfg)
        finally:
            g._CHUNK = old
        assert abs(full.mean - split.mean) <= \
            6.0 * (full.std_error + split.std_error)

    def test_generic_start_shows_first_order_rate(self):
        # with the drift shifted so F'(0) != 0 the leading gap term is O(T)
        m = LampertiMap(TWO_PLUS_COS, alpha=1.0)
        ts = [0.2, 0.1, 0.05, 0.025]
        pts = [(t, lp_error(m, t, MCConfig(n_paths=20000, n_steps=1024,
                                           base_seed=100, p=1.0)))
               for t in ts]
        fit = rate_fit(pts)
        assert 0.7 <= fit.slope <= 1.4
        assert fit.r_squared >= 0.95


def _per_p_pass(m, T, cfg, p):
    """A separate common-path pass per p, written out plainly: the oracle
    that the one-pass lp_errors must match bit for bit."""
    dt = T / cfg.n_steps
    total = total_sq = 0.0
    for c, start in enumerate(range(0, cfg.n_paths, girsanov._CHUNK)):
        k = min(girsanov._CHUNK, cfg.n_paths - start)
        inc = chunk_rng(cfg.base_seed, c).standard_normal(
            (k, cfg.n_steps)) * math.sqrt(dt)
        b = np.cumsum(inc, axis=1)
        left = np.concatenate([np.zeros((k, 1)), b[:, :-1]], axis=1)
        f = np.broadcast_to(np.asarray(m.drift_at(left), dtype=float),
                            left.shape)
        m_true = np.exp(np.sum(f * inc, axis=1)
                        - 0.5 * np.sum(f * f, axis=1) * dt)
        d = np.abs(m_true - approx_exponential(m, b[:, -1], T)) ** p
        total += float(np.sum(d))
        total_sq += float(np.sum(d * d))
    return girsanov._lp_estimate(total, total_sq, cfg.n_paths, p)


class TestLpErrors:
    P_VALUES = [1.0, 1.5, 2.0, 3.0]

    @pytest.mark.parametrize("m", [
        LampertiMap(TWO_PLUS_COS),
        LampertiMap(builtin_drift("logistic_floor"), alpha=0.5),
        LampertiMap(parse_drift("2")),
    ], ids=["two_plus_cos", "logistic_floor", "constant"])
    def test_one_pass_equals_per_p_passes(self, m):
        # n_paths spans two RNG chunks; equality is exact, not approximate
        cfg = MCConfig(n_paths=girsanov._CHUNK + 300, n_steps=16,
                       base_seed=19)
        ests = lp_errors(m, 0.1, cfg, self.P_VALUES)
        assert [e.n for e in ests] == [cfg.n_paths] * len(self.P_VALUES)
        for p, est in zip(self.P_VALUES, ests):
            ref = _per_p_pass(m, 0.1, cfg, p)
            assert (est.mean, est.std_error, est.n) == \
                (ref.mean, ref.std_error, ref.n)
            single = lp_error(m, 0.1, MCConfig(n_paths=cfg.n_paths,
                                               n_steps=16, base_seed=19, p=p))
            assert (single.mean, single.std_error, single.n) == \
                (est.mean, est.std_error, est.n)

    def test_order_follows_p_values(self):
        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        fwd = lp_errors(m, 0.1, cfg, [1.0, 2.0, 3.0])
        rev = lp_errors(m, 0.1, cfg, [3.0, 2.0, 1.0])
        assert rev == fwd[::-1]
        assert fwd[0].mean < fwd[1].mean < fwd[2].mean  # Lyapunov

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_invalid_p_fails_before_any_path(self, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a) or chunk_rng(*a))
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        with pytest.raises(ValueError, match="p must be"):
            lp_errors(LampertiMap(TWO_PLUS_COS), 0.1, cfg, [1.0, bad])
        assert calls == []

    def test_no_p_values_no_pass(self, monkeypatch):
        monkeypatch.setattr(girsanov, "chunk_rng", None)  # any pass would fail
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        assert lp_errors(LampertiMap(TWO_PLUS_COS), 0.1, cfg, []) == []


class TestRateFit:
    def test_exact_power_law(self):
        ts = [0.4, 0.2, 0.1, 0.05]
        from shorttime import ErrorEstimate

        errs = [(t, ErrorEstimate(mean=2.0 * t, std_error=0.0, n=1))
                for t in ts]
        fit = rate_fit(errs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert len(fit.points) == 4

    def test_half_order(self):
        from shorttime import ErrorEstimate

        errs = [(t, ErrorEstimate(mean=0.5 * math.sqrt(t), std_error=0.0, n=1))
                for t in (0.4, 0.1, 0.025)]
        assert rate_fit(errs).slope == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        from shorttime import ErrorEstimate

        e = ErrorEstimate(mean=1.0, std_error=0.0, n=1)
        with pytest.raises(ValueError):
            rate_fit([(0.1, e), (0.2, e)])
        with pytest.raises(ValueError):
            rate_fit([(0.1, e), (0.1, e), (0.1, e)])
        bad = ErrorEstimate(mean=0.0, std_error=0.0, n=1)
        with pytest.raises(ValueError):
            rate_fit([(0.1, e), (0.2, e), (0.4, bad)])


class TestMCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(n_paths=1, n_steps=8, base_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n_paths=10, n_steps=0, base_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n_paths=10, n_steps=8, base_seed=0, p=0.5)
