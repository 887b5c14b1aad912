import math
import queue
import sys
import threading
from collections import deque

import numpy as np
import pytest

from shorttime import (
    LampertiMap,
    MCConfig,
    approx_exponential,
    builtin_drift,
    lp_errors,
    parse_drift,
    rate_fit,
    u_eval,
)
from shorttime import girsanov
from shorttime.girsanov import chunk_rng
from reference import (BrownianPath, approx_exponential_euler,
                       simulate_exponential)

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
        est = lp_errors(m, [0.25], MCConfig(n_paths=500, n_steps=32,
                                            base_seed=7), [2.0])[0][0]
        # zero up to roundoff in the telescoped sums
        assert est.mean <= 1e-13
        assert est.n == 500

    def test_bit_identical_reruns(self):
        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=3000, n_steps=64, base_seed=42)
        a = lp_errors(m, [0.1], cfg, [1.0])[0][0]
        b = lp_errors(m, [0.1], cfg, [1.0])[0][0]
        assert (a.mean, a.std_error, a.n) == (b.mean, b.std_error, b.n)

    def test_seed_changes_estimate(self):
        m = LampertiMap(TWO_PLUS_COS)
        a = lp_errors(m, [0.1], MCConfig(n_paths=3000, n_steps=64,
                                         base_seed=42), [1.0])[0][0]
        b = lp_errors(m, [0.1], MCConfig(n_paths=3000, n_steps=64,
                                         base_seed=43), [1.0])[0][0]
        assert a.mean != b.mean

    def test_chunking_statistically_invisible(self):
        # each chunk re-seeds, so regrouping changes the draws; the
        # estimates must still agree within Monte Carlo error
        from shorttime import girsanov as g

        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=4000, n_steps=32, base_seed=5)
        full = lp_errors(m, [0.1], cfg, [1.0])[0][0]
        old = g._CHUNK
        try:
            g._CHUNK = 512
            split = lp_errors(m, [0.1], cfg, [1.0])[0][0]
        finally:
            g._CHUNK = old
        assert abs(full.mean - split.mean) <= \
            6.0 * (full.std_error + split.std_error)

    def test_generic_start_shows_first_order_rate(self):
        # with the drift shifted so F'(0) != 0 the leading gap term is O(T)
        m = LampertiMap(TWO_PLUS_COS, alpha=1.0)
        ts = [0.2, 0.1, 0.05, 0.025]
        cfg = MCConfig(n_paths=20000, n_steps=1024, base_seed=100)
        pts = [(t, lp_errors(m, [t], cfg, [1.0])[0][0]) for t in ts]
        fit = rate_fit(pts)
        assert 0.7 <= fit.slope <= 1.4
        assert fit.r_squared >= 0.95


class TestLeadingTerm:
    """log M_T - log u(T, B_T) = lead + O(T^2), with x = B_T and F0, F1, F2
    the drift and its two derivatives at the start:

    lead = -F1 (x^2 - T) / 2 + F2 (T x - A / 2 - x^3 / 3)
           + F0 F1 (3 T x / 2 - A),   A = integral of B_s over [0, T].

    So the gap left after the lead falls faster in T than the gap itself,
    both where F1 = 0 (alpha = 0, the gap of order T^(3/2)) and where it
    is not (alpha = 1, of order T)."""

    T_PAIR = (0.0125, 0.003125)

    @staticmethod
    def _mean_gaps(m, T, n_paths=1000, n_steps=4096):
        """E|D| and E|D - lead| over n_paths seeded paths on [0, T]."""
        f0, f1, f2 = (float(v) for v in m.drift.jets(m.alpha))
        paths = [BrownianPath.generate(T, n_steps, seed=i)
                 for i in range(n_paths)]
        b = np.array([p.cumulative() for p in paths])
        x = b[:, -1]
        area = np.sum(b[:, :-1] + b[:, 1:], axis=1) * (0.5 * T / n_steps)
        d = (np.log([simulate_exponential(m, p) for p in paths])
             - np.log(approx_exponential(m, x, T)))
        lead = (-0.5 * f1 * (x * x - T)
                + f2 * (T * x - 0.5 * area - x ** 3 / 3.0)
                + f0 * f1 * (1.5 * T * x - area))
        return float(np.mean(np.abs(d))), float(np.mean(np.abs(d - lead)))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_residual_falls_faster_than_the_gap(self, alpha):
        m = LampertiMap(TWO_PLUS_COS, alpha=alpha)
        (gap1, res1), (gap2, res2) = (self._mean_gaps(m, T)
                                      for T in self.T_PAIR)
        ratio = math.log(self.T_PAIR[0] / self.T_PAIR[1])
        gap_slope = math.log(gap1 / gap2) / ratio
        res_slope = math.log(res1 / res2) / ratio
        # 1.55 -> 2.00 at alpha = 0 and 1.03 -> 1.90 at alpha = 1
        assert res_slope >= gap_slope + 0.3, (gap_slope, res_slope)
        assert res2 < gap2


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
        ests = lp_errors(m, [0.1], cfg, self.P_VALUES)[0]
        assert [e.n for e in ests] == [cfg.n_paths] * len(self.P_VALUES)
        for p, est in zip(self.P_VALUES, ests):
            ref = _per_p_pass(m, 0.1, cfg, p)
            assert (est.mean, est.std_error, est.n) == \
                (ref.mean, ref.std_error, ref.n)
            single = lp_errors(m, [0.1], cfg, [p])[0][0]
            assert (single.mean, single.std_error, single.n) == \
                (est.mean, est.std_error, est.n)

    def test_order_follows_p_values(self):
        m = LampertiMap(TWO_PLUS_COS)
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        fwd = lp_errors(m, [0.1], cfg, [1.0, 2.0, 3.0])[0]
        rev = lp_errors(m, [0.1], cfg, [3.0, 2.0, 1.0])[0]
        assert rev == fwd[::-1]
        assert fwd[0].mean < fwd[1].mean < fwd[2].mean  # Lyapunov

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_invalid_p_fails_before_any_path(self, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a) or chunk_rng(*a))
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        with pytest.raises(ValueError, match="p must be"):
            lp_errors(LampertiMap(TWO_PLUS_COS), [0.1], cfg, [1.0, bad])
        assert calls == []

    def test_no_p_values_no_pass(self, monkeypatch):
        monkeypatch.setattr(girsanov, "chunk_rng", None)  # any pass would fail
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        assert lp_errors(LampertiMap(TWO_PLUS_COS), [0.1], cfg, []) == [[]]


def _same(ests, refs):
    return [(e.mean, e.std_error, e.n) for e in ests] == \
        [(r.mean, r.std_error, r.n) for r in refs]


class TestBlockedPass:
    """Each RNG chunk is drawn and reduced in row blocks of about
    _BLOCK_CELLS path cells; the estimates must not see the blocks."""

    P_VALUES = [1.0, 2.0]
    MAPS = [LampertiMap(TWO_PLUS_COS),
            LampertiMap(builtin_drift("logistic_floor"), alpha=0.5)]

    @pytest.mark.parametrize("m", MAPS, ids=["two_plus_cos",
                                             "logistic_floor"])
    @pytest.mark.parametrize("n_paths,n_steps", [
        # 65 rows a block: partial last blocks in both chunks (2048 and 300)
        (girsanov._CHUNK + 300, 1000),
        (2, 1),
        # one row a block
        (3, girsanov._BLOCK_CELLS),
    ], ids=["partial_blocks", "two_paths_one_step", "one_row_blocks"])
    def test_equals_unblocked_oracle(self, m, n_paths, n_steps):
        cfg = MCConfig(n_paths=n_paths, n_steps=n_steps, base_seed=23)
        ests = lp_errors(m, [0.05], cfg, self.P_VALUES)[0]
        assert _same(ests, [_per_p_pass(m, 0.05, cfg, p)
                            for p in self.P_VALUES])

    @pytest.mark.parametrize("t_grid", [
        [0.025, 0.05, 0.1], [0.2, 0.1, 0.05], [0.1, 0.05, 0.1, 0.1],
    ], ids=["increasing", "decreasing", "repeated"])
    def test_one_draw_for_all_horizons(self, t_grid):
        # the rate command's one pass over T_grid equals a pass per T
        m = self.MAPS[0]
        cfg = MCConfig(n_paths=girsanov._CHUNK + 300, n_steps=64,
                       base_seed=31)
        per_t = lp_errors(m, t_grid, cfg, self.P_VALUES)
        assert len(per_t) == len(t_grid)
        for T, ests in zip(t_grid, per_t):
            assert _same(ests, lp_errors(m, [T], cfg, self.P_VALUES)[0])

    @pytest.mark.parametrize("t_grid", [
        [0.1, 0.05, -1.0], [0.1, math.nan], [math.inf, 0.1], [0.0],
    ])
    def test_invalid_horizon_fails_before_any_path(self, t_grid,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a) or chunk_rng(*a))
        m = self.MAPS[0]
        cfg = MCConfig(n_paths=300, n_steps=16, base_seed=3)
        with pytest.raises(ValueError, match="T must be"):
            lp_errors(m, t_grid, cfg, self.P_VALUES)
        bad = next(T for T in t_grid if not 0.0 < T < math.inf)
        with pytest.raises(ValueError, match="T must be"):
            lp_errors(m, [bad], cfg, self.P_VALUES)
        assert calls == []

    def test_memory_does_not_grow_with_the_chunk(self):
        # one full chunk of 2,048 x 4,096 cells would be 67 MB per array;
        # the row blocks keep the whole pass far below one such array
        import tracemalloc

        cfg = MCConfig(n_paths=girsanov._CHUNK, n_steps=4096, base_seed=2)
        tracemalloc.start()
        try:
            lp_errors(self.MAPS[0], [0.1], cfg, self.P_VALUES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class _CountingRng:
    """A chunk generator that records the thread of each draw, and raises
    err at draw number fail_at (1-based, counted over the whole pass)."""

    def __init__(self, rng, draws, fail_at=None, err=None):
        self.rng, self.draws, self.fail_at, self.err = rng, draws, fail_at, err

    def standard_normal(self, *, out):
        self.draws.append(threading.current_thread())
        if len(self.draws) == self.fail_at:
            raise self.err
        self.rng.standard_normal(out=out)


class TestDrawAhead:
    """One worker thread draws the row blocks of normals, at most
    girsanov._AHEAD ahead of the reduction; every package call stays on the
    caller's thread, and the worker is gone when lp_errors returns or
    raises."""

    M = LampertiMap(TWO_PLUS_COS)
    # 65 rows a block: partial last blocks in both chunks (2048 and 300)
    CFG = MCConfig(n_paths=girsanov._CHUNK + 300, n_steps=1000, base_seed=23)

    def _patch(self, monkeypatch, fail_draw=None, fail_drift=None, err=None):
        """Record the thread of every chunk_rng, drift_at and
        approx_exponential call and of every draw; drift_at raises err at
        its block call number fail_drift, the draws at number fail_draw.
        Returns (package calls, draws, draws begun at each block's
        drift_at call)."""
        calls, draws, seen = [], [], []
        rng, drift_at, approx = (girsanov.chunk_rng, LampertiMap.drift_at,
                                 girsanov.approx_exponential)

        def chunk_rng_(*a):
            calls.append(threading.current_thread())
            return _CountingRng(rng(*a), draws, fail_draw, err)

        def drift_at_(self, x):
            calls.append(threading.current_thread())
            if np.ndim(x) == 2:  # a block's left points, not the endpoints
                seen.append(len(draws))
                if len(seen) == fail_drift:
                    raise err
            return drift_at(self, x)

        def approx_(*a):
            calls.append(threading.current_thread())
            return approx(*a)

        monkeypatch.setattr(girsanov, "chunk_rng", chunk_rng_)
        monkeypatch.setattr(LampertiMap, "drift_at", drift_at_)
        monkeypatch.setattr(girsanov, "approx_exponential", approx_)
        return calls, draws, seen

    def test_package_code_runs_on_the_caller_thread(self, monkeypatch):
        want = lp_errors(self.M, [0.05], self.CFG, [1.0])
        threads = threading.active_count()
        calls, draws, seen = self._patch(monkeypatch)
        assert lp_errors(self.M, [0.05], self.CFG, [1.0]) == want
        assert threading.active_count() == threads
        main = threading.main_thread()
        assert calls and all(t is main for t in calls)
        # 2048 / 65 -> 32 blocks and 300 / 65 -> 5, each drawn once, all on
        # one worker thread
        assert len(draws) == 37 and len(set(draws)) == 1
        assert draws[0] is not main and not draws[0].is_alive()
        # drift_at is called once per block (one horizon); by the time
        # block i is reduced at most _AHEAD more blocks have been begun
        assert len(seen) == 37
        assert all(i + 1 <= n <= i + 1 + girsanov._AHEAD
                   for i, n in enumerate(seen))

    def test_failed_reduction_joins_the_worker(self, monkeypatch):
        threads = set(threading.enumerate())
        err = RuntimeError("drift fault at the 5th block")
        _, draws, seen = self._patch(monkeypatch, fail_drift=5, err=err)
        with pytest.raises(RuntimeError) as info:
            lp_errors(self.M, [0.05], self.CFG, [1.0])
        assert info.value is err
        assert set(threading.enumerate()) == threads
        assert not draws[0].is_alive()
        assert len(seen) == 5
        assert 5 <= len(draws) <= 5 + girsanov._AHEAD

    @pytest.mark.parametrize("fail_draw", [1, 3, 33, 37])
    def test_failed_draw_surfaces_in_the_caller(self, monkeypatch,
                                                fail_draw):
        threads = set(threading.enumerate())
        err = FloatingPointError("draw fault")
        _, draws, seen = self._patch(monkeypatch, fail_draw=fail_draw,
                                     err=err)
        with pytest.raises(FloatingPointError) as info:
            lp_errors(self.M, [0.05], self.CFG, [1.0])
        assert info.value is err
        assert set(threading.enumerate()) == threads
        assert len(draws) == fail_draw
        # the blocks before the failed one were reduced, and no later one
        assert len(seen) == fail_draw - 1

    def test_concurrent_callers_under_fast_switching(self):
        # three callers, each with its own worker: six threads switching
        # every microsecond; a buffer handed back to the worker while still
        # being reduced would change the estimates
        cfg = MCConfig(n_paths=girsanov._CHUNK + 300, n_steps=200,
                       base_seed=29)
        want = [_per_p_pass(self.M, 0.05, cfg, p) for p in (1.0, 2.0)]
        got = [None] * 3

        def call(i):
            got[i] = lp_errors(LampertiMap(TWO_PLUS_COS), [0.05], cfg,
                               [1.0, 2.0])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert all(_same(ests, want) for ests in got)

    @pytest.mark.parametrize("err", [None, FloatingPointError("draw fault")])
    def test_wait_past_the_spin_sleeps_until_drawn(self, err):
        # the block is drawn well after the spinning part of the wait
        done, drawn = queue.SimpleQueue(), deque([(7, 0, "block")])
        timer = threading.Timer(4 * girsanov._SPIN_S, done.put, (err,))
        timer.start()
        try:
            if err is None:
                assert girsanov._next_drawn(done, drawn) == (7, 0, "block")
                assert not drawn
            else:
                with pytest.raises(FloatingPointError) as info:
                    girsanov._next_drawn(done, drawn)
                assert info.value is err
        finally:
            timer.join()


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
