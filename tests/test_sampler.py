import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from shorttime import (
    DriftDomainError,
    LampertiMap,
    girsanov_kernel_cdf,
    ks_distance,
    parse_drift,
    sample_crypto,
    sample_em_path,
)
from shorttime import girsanov, sampler
from shorttime.girsanov import chunk_rng
from shorttime.sampler import SampleSet

TWO_PLUS_COS = parse_drift("2 + cos(x)")


class TestSampleCrypto:
    def test_constant_drift_closed_form(self):
        # flow endpoint is x' + cT + sqrt(T) g with the chunked normals g
        m = LampertiMap(parse_drift("2"))
        s = sample_crypto(m, 0.5, 0.25, 100, seed=9)
        g = chunk_rng(9, 0).standard_normal(100)
        assert np.allclose(s.values, 0.5 + 0.5 + 0.5 * g, atol=1e-14)
        assert s.scheme == "crypto"
        assert s.horizon == 0.25

    def test_linear_drift_closed_form(self):
        # flow of x under dX = X dt is x e^T; start far enough right that
        # every Gaussian perturbation stays in the positive half-line
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        T = 0.1
        s = sample_crypto(m, 5.0, T, 200, seed=4)
        g = chunk_rng(4, 0).standard_normal(200)
        expected = (5.0 + g * math.sqrt(T)) * math.exp(T)
        assert np.allclose(s.values, expected, atol=1e-8)

    def test_short_horizon_concentrates(self):
        m = LampertiMap(TWO_PLUS_COS)
        s = sample_crypto(m, 0.2, 1e-6, 500, seed=1)
        assert float(np.mean(s.values)) == pytest.approx(0.2, abs=1e-2)

    def test_deterministic_given_seed(self):
        m = LampertiMap(TWO_PLUS_COS)
        a = sample_crypto(m, 0.0, 0.1, 300, seed=5)
        b = sample_crypto(m, 0.0, 0.1, 300, seed=5)
        c = sample_crypto(m, 0.0, 0.1, 300, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_chunking_invisible(self):
        from shorttime import sampler as smod

        m = LampertiMap(TWO_PLUS_COS)
        full = sample_crypto(m, 0.0, 0.1, 400, seed=2)
        old = smod._CHUNK
        try:
            smod._CHUNK = 128
            split = sample_crypto(m, 0.0, 0.1, 400, seed=2)
        finally:
            smod._CHUNK = old
        # chunk boundaries re-seed, so only the first chunk worth of draws
        # coincides; those agree up to the root tolerance, since each batch
        # reads the flow from a table on its own hull
        assert full.values.shape == split.values.shape
        assert np.allclose(full.values[:128], split.values[:128], atol=1e-9)

    def test_validation(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError):
            sample_crypto(m, 0.0, 0.0, 10, seed=1)
        with pytest.raises(ValueError):
            sample_crypto(m, 0.0, 0.1, 0, seed=1)


class _ThreadRecordingRng:
    """A chunk generator that records the thread of each draw."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, *, out):
        self.draws.append(threading.current_thread())
        self.rng.standard_normal(out=out)


class TestSampleEmPath:
    def test_constant_drift_moments(self):
        m = LampertiMap(parse_drift("2"))
        T, n = 0.25, 20000
        s = sample_em_path(m, 0.0, T, 16, n, seed=11)
        se = math.sqrt(T / n)
        assert abs(float(np.mean(s.values)) - 2.0 * T) <= 4.0 * se
        assert float(np.var(s.values)) == pytest.approx(T, rel=0.05)

    def test_deterministic_given_seed(self):
        m = LampertiMap(TWO_PLUS_COS)
        a = sample_em_path(m, 0.0, 0.1, 8, 100, seed=3)
        b = sample_em_path(m, 0.0, 0.1, 8, 100, seed=3)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("text, n, steps", [
        # two RNG chunks, one step a block (65,536 normals)
        pytest.param("2 + cos(x)", 70000, 8, id="2 + cos(x)"),
        pytest.param("2", 70000, 8, id="2"),
        # 14 steps a block: all 5 steps in one block, and 37 steps in
        # blocks of 14, 14 and 9
        pytest.param("2 + cos(x)", 4464, 5, id="one-block"),
        pytest.param("2 + cos(x)", 4464, 37, id="partial-last-block")])
    def test_matches_step_loop_reference(self, text, n, steps):
        # the allocating loop that draws each step's normals in turn
        m = LampertiMap(parse_drift(text))
        T, seed = 0.1, 5
        dt = T / steps
        sqrt_dt = math.sqrt(dt)
        ref = []
        for i, lo in enumerate(range(0, n, sampler._CHUNK)):
            k = min(sampler._CHUNK, n - lo)
            rng = chunk_rng(seed, i)
            x = np.full(k, 0.3)
            for _ in range(steps):
                x = x + m.drift_at(x) * dt + sqrt_dt * rng.standard_normal(k)
            ref.append(x)
        s = sample_em_path(m, 0.3, T, steps, n, seed)
        assert np.array_equal(s.values, np.concatenate(ref))

    def test_drift_runs_on_the_caller_thread(self, monkeypatch):
        # the normals are drawn on one worker thread per RNG chunk; the
        # drift and the update stay on the caller's, and every worker is
        # gone on return
        m = LampertiMap(TWO_PLUS_COS)
        want = sample_em_path(m, 0.3, 0.1, 37, 4464, 5).values
        calls, draws = [], []
        drift_at, rng = LampertiMap.drift_at, girsanov.chunk_rng

        def drift_at_(self, x):
            calls.append(threading.current_thread())
            return drift_at(self, x)

        def chunk_rng_(*a):
            return _ThreadRecordingRng(rng(*a), draws)

        monkeypatch.setattr(LampertiMap, "drift_at", drift_at_)
        monkeypatch.setattr(girsanov, "chunk_rng", chunk_rng_)
        threads = set(threading.enumerate())
        assert np.array_equal(
            sample_em_path(m, 0.3, 0.1, 37, 4464, 5).values, want)
        assert set(threading.enumerate()) == threads
        main = threading.main_thread()
        assert len(calls) == 37 and all(t is main for t in calls)
        # 37 steps in blocks of 14: three draws, on one worker
        assert len(draws) == 3 and len(set(draws)) == 1
        assert draws[0] is not main and not draws[0].is_alive()

    def test_no_worker_outlives_a_failed_path(self):
        # x^0.5 from x' = 0.01 leaves its domain after the first step,
        # while the worker still draws blocks of 65 steps ahead
        m = LampertiMap(parse_drift("x^0.5"), reference_point=1.0)
        threads = set(threading.enumerate())
        with pytest.raises(DriftDomainError):
            sample_em_path(m, 0.01, 0.1, 2000, 1000, 3)
        assert set(threading.enumerate()) == threads

    def test_validation(self):
        m = LampertiMap(TWO_PLUS_COS)
        with pytest.raises(ValueError):
            sample_em_path(m, 0.0, 0.0, 8, 10, seed=1)
        with pytest.raises(ValueError):
            sample_em_path(m, 0.0, 0.1, 0, 10, seed=1)
        with pytest.raises(ValueError):
            sample_em_path(m, 0.0, 0.1, 8, 0, seed=1)


class TestKsDistance:
    def test_null_distribution_small(self):
        n = 10000
        vals = np.random.default_rng(17).standard_normal(n)
        s = SampleSet(values=vals, horizon=1.0, seed=17, scheme="test")
        assert ks_distance(s, ndtr) <= 1.95 / math.sqrt(n)

    def test_degenerate_samples_large(self):
        s = SampleSet(values=np.zeros(100), horizon=1.0, seed=0,
                      scheme="test")
        assert ks_distance(s, ndtr) >= 0.5

    def test_exact_for_known_case(self):
        # single sample at the median: D = 1/2 exactly
        s = SampleSet(values=np.array([0.0]), horizon=1.0, seed=0,
                      scheme="test")
        assert ks_distance(s, ndtr) == pytest.approx(0.5)


class TestKernelCdf:
    def test_constant_drift(self):
        m = LampertiMap(parse_drift("2"))
        cdf = girsanov_kernel_cdf(m, 0.25, 0.5)
        xs = np.linspace(-2.0, 3.0, 11)
        expected = ndtr((xs - 0.5 - 0.5) / 0.5)
        assert np.allclose(cdf(xs), expected, atol=1e-14)

    def test_monotone_and_normalized(self):
        m = LampertiMap(TWO_PLUS_COS)
        cdf = girsanov_kernel_cdf(m, 0.2, 0.0)
        vals = cdf(np.linspace(-4.0, 6.0, 101))
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 1e-6
        assert vals[-1] > 1 - 1e-6

    def test_cdf_keeps_the_return_policy(self):
        cdf = girsanov_kernel_cdf(LampertiMap(TWO_PLUS_COS), 0.2, 0.0)
        xs = np.linspace(-1.0, 1.0, 5)
        assert isinstance(cdf(0.5), float)
        assert cdf(0.5) == cdf(xs.reshape(1, 5))[0, 3]
        assert np.array_equal(cdf(xs), [cdf(x) for x in xs])

    @pytest.mark.parametrize("text", ["2 + cos(x)", "0.1 + tanh(x)^2"])
    def test_summary_holds_six_and_a_half_values_a_sample(self, text):
        # the sorted copy, then the backward flow's values in place; the
        # eight-row lookup and whole-length differences held 14
        m = LampertiMap(parse_drift(text))
        s = sample_crypto(m, 0.0, 0.1, 100_000, seed=5)
        ks_distance(s, girsanov_kernel_cdf(m, 0.1, 0.0))  # the table is grown
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ks = ks_distance(s, girsanov_kernel_cdf(m, 0.1, 0.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * s.values.nbytes
        # the same bits as the whole-length formula
        n = s.values.size
        c = ndtr((m.flow(np.sort(s.values), -0.1) - 0.0) / math.sqrt(0.1))
        assert ks == float(max(np.max(np.arange(1, n + 1) / n - c),
                               np.max(c - np.arange(0, n) / n)))

    def test_crypto_samples_follow_kernel(self):
        m = LampertiMap(TWO_PLUS_COS)
        n = 20000
        s = sample_crypto(m, 0.0, 0.1, n, seed=77)
        ks = ks_distance(s, girsanov_kernel_cdf(m, 0.1, 0.0))
        assert ks <= 0.012

    def test_em_samples_approach_kernel_as_t_shrinks(self):
        # the kernel is only short-time exact, so the EM law drifts away
        # from it at larger horizons
        m = LampertiMap(TWO_PLUS_COS)
        n = 20000
        ks_vals = []
        for T in (0.8, 0.2, 0.05):
            s = sample_em_path(m, 0.0, T, 64, n, seed=31)
            ks_vals.append(ks_distance(s, girsanov_kernel_cdf(m, T, 0.0)))
        assert ks_vals[2] < ks_vals[0]
        assert ks_vals[1] < ks_vals[0]
