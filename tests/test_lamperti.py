import math
import os
import subprocess
import sys

import numpy as np
import pytest

import shorttime
from shorttime import LampertiError, LampertiMap, QuadratureError, parse_drift

TWO_PLUS_COS = parse_drift("2 + cos(x)")


def lambda_cos_exact(x):
    """Antiderivative of 1/(2+cos u) pinned to 0 at 0.

    (2/sqrt 3) atan(tan(u/2)/sqrt 3) plus branch continuation across the
    tangent's poles (period 2 pi adds 2 pi / sqrt 3 to the integral).
    """
    x = np.asarray(x, dtype=float)
    k = np.round(x / (2.0 * math.pi))
    base = (2.0 / math.sqrt(3.0)) * np.arctan(np.tan(x / 2.0) / math.sqrt(3.0))
    return base + k * 2.0 * math.pi / math.sqrt(3.0)


class TestLambdaMap:
    def test_cos_drift_at_pi(self):
        # oracle: closed antiderivative gives Lambda(pi) = pi / sqrt 3
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(math.pi) == pytest.approx(
            math.pi / math.sqrt(3.0), abs=1e-10)

    def test_cos_drift_against_antiderivative(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-9.0, 9.0, 61)
        assert np.allclose(m.lambda_map(xs), lambda_cos_exact(xs), atol=1e-9)

    def test_cos_drift_against_riemann(self):
        # independent cross-check with a plain midpoint Riemann sum
        u = np.linspace(0.0, math.pi, 200001)
        mid = 0.5 * (u[:-1] + u[1:])
        riemann = float(np.sum(1.0 / (2.0 + np.cos(mid))) * (u[1] - u[0]))
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(math.pi) == pytest.approx(riemann, abs=1e-8)

    def test_constant_drift(self):
        m = LampertiMap(parse_drift("3"))
        assert m.lambda_map(6.0) == pytest.approx(2.0)
        assert np.allclose(m.lambda_map(np.array([0.0, 3.0])), [0.0, 1.0])

    def test_linear_drift_is_log(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        xs = np.linspace(0.2, 5.0, 17)
        assert np.allclose(m.lambda_map(xs), np.log(xs), atol=1e-10)

    def test_alpha_shift(self):
        # f(alpha + x) with alpha = pi turns 2+cos into 2-cos
        m = LampertiMap(TWO_PLUS_COS, alpha=math.pi)
        u = np.linspace(0.0, 1.0, 100001)
        mid = 0.5 * (u[:-1] + u[1:])
        riemann = float(np.sum(1.0 / (2.0 - np.cos(mid))) * (u[1] - u[0]))
        assert m.lambda_map(1.0) == pytest.approx(riemann, abs=1e-8)

    def test_monotone(self):
        m = LampertiMap(TWO_PLUS_COS)
        vals = m.lambda_map(np.linspace(-5.0, 5.0, 101))
        assert np.all(np.diff(vals) > 0.0)

    def test_nonpositive_drift_raises(self):
        m = LampertiMap(parse_drift("x"))
        with pytest.raises(LampertiError):
            m.lambda_map(-1.0)


class TestInverse:
    def test_cos_drift_roundtrip(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-6.0, 6.0, 41)
        back = m.lambda_inverse(m.lambda_map(xs))
        assert np.allclose(back, xs, atol=1e-9)

    def test_cos_drift_known_value(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_inverse(math.pi / math.sqrt(3.0)) == pytest.approx(
            math.pi, abs=1e-9)

    def test_scalar_in_scalar_out(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert isinstance(m.lambda_inverse(0.5), float)

    def test_bracket_failure_surfaces(self):
        # drift decays to zero on the right: Lambda is bounded above, so
        # inverting past its supremum fails (either the drift positivity
        # guard trips once exp underflows, or the bracket search gives up)
        m = LampertiMap(parse_drift("exp(-x)"))
        with pytest.raises(LampertiError):
            m.lambda_inverse(1000.0)


class TestFlow:
    def test_constant_drift(self):
        m = LampertiMap(parse_drift("2"))
        assert m.flow(1.0, 0.25) == pytest.approx(1.5)

    def test_zero_drift_constant_case(self):
        m = LampertiMap(parse_drift("0"))
        assert m.flow(1.0, 5.0) == 1.0

    def test_linear_drift_exponential(self):
        m = LampertiMap(parse_drift("x"), reference_point=1.0)
        xs = np.linspace(0.5, 3.0, 11)
        assert np.allclose(m.flow(xs, 0.7), xs * math.exp(0.7), atol=1e-8)
        assert np.allclose(m.flow(xs, -0.7), xs * math.exp(-0.7), atol=1e-8)

    def test_group_law(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-2.0, 2.0, 9)
        lhs = m.flow(m.flow(xs, 0.3), 0.5)
        rhs = m.flow(xs, 0.8)
        assert np.allclose(lhs, rhs, atol=10.0 * m.root_tol)

    def test_backward_inverts_forward(self):
        m = LampertiMap(TWO_PLUS_COS)
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(m.flow(m.flow(xs, 1.2), -1.2), xs,
                           atol=10.0 * m.root_tol)

    def test_reference_point_invariance(self):
        m0 = LampertiMap(TWO_PLUS_COS, reference_point=0.0)
        m1 = LampertiMap(TWO_PLUS_COS, reference_point=2.5)
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(m0.flow(xs, 0.4), m1.flow(xs, 0.4), atol=1e-9)

    def test_ode_residual_first_order(self):
        # (phi_h(x) - x)/h -> F(x) at first order in h
        m = LampertiMap(TWO_PLUS_COS)
        x = 0.7
        f = m.drift_at(x)
        res = []
        for h in (1e-2, 1e-3, 1e-4):
            res.append(abs((m.flow(x, h) - x) / h - f))
        assert res[0] < 0.1
        # each decade in h buys roughly a decade in the residual
        assert res[1] < 0.2 * res[0]
        assert res[2] < 0.2 * res[1]

    def test_flow_monotone_in_x(self):
        m = LampertiMap(TWO_PLUS_COS)
        vals = m.flow(np.linspace(-3.0, 3.0, 61), 0.5)
        assert np.all(np.diff(vals) > 0.0)

    def test_scalar_and_shape_preservation(self):
        m = LampertiMap(TWO_PLUS_COS)
        assert isinstance(m.flow(0.3, 0.1), float)
        xs = np.linspace(-1, 1, 6).reshape(2, 3)
        assert m.flow(xs, 0.1).shape == (2, 3)


class TestTransport:
    @pytest.mark.parametrize("c", [2.5, 1.0, 0.0])
    def test_constant_drift_shifts_with_unit_ratio(self, c):
        m = LampertiMap(parse_drift(repr(c)))
        xs = np.linspace(-3.0, 3.0, 13)
        y, ratio = m.transport(xs, 0.4)
        assert ratio == 1.0
        assert np.array_equal(y, xs - c * 0.4)

    def test_ratio_is_drift_quotient(self):
        m = LampertiMap(TWO_PLUS_COS, alpha=0.3)
        xs = np.linspace(-3.0, 3.0, 13).reshape(13, 1)
        y, ratio = m.transport(xs, 0.4)
        assert y.shape == ratio.shape == (13, 1)
        assert np.array_equal(y, m.flow(xs, -0.4))
        assert np.array_equal(ratio, (2.0 + np.cos(0.3 + y))
                              / (2.0 + np.cos(0.3 + xs)))

    def test_drift_at_keeps_the_shape(self):
        for text in ("2 + cos(x)", "1"):
            m = LampertiMap(parse_drift(text))
            assert m.drift_at(np.zeros((2, 3))).shape == (2, 3)
            assert m.drift_at(0.0).shape == ()
            assert m.drift_at(0.0).dtype == float


# Runs one flow call in a fresh interpreter whose own address space is capped
# at what the imports took plus 256 MB; prints the error type and seconds.
_GUARD_PROBE = """
import resource, sys, time
from shorttime import LampertiError, LampertiMap, parse_drift
pages = int(open("/proc/self/statm").read().split()[0])
cap = pages * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS,
                   (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
m = LampertiMap(parse_drift("2 + cos(x)"))
start = time.perf_counter()
try:
    m.flow(float(sys.argv[1]), float(sys.argv[2]))
except LampertiError as exc:
    print(type(exc).__name__, time.perf_counter() - start)
"""


class TestFlowGuards:
    @pytest.mark.parametrize("x,t", [
        (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (0.0, math.nan),
        (0.0, math.inf),
    ])
    def test_non_finite_rejected(self, x, t):
        for m in (LampertiMap(TWO_PLUS_COS), LampertiMap(parse_drift("2"))):
            with pytest.raises(LampertiError, match="non-finite"):
                m.flow(x, t)
            with pytest.raises(LampertiError, match="non-finite"):
                m.flow(np.array([0.0, x, 1.0]), t)

    def test_lambda_map_rejects_non_finite(self):
        with pytest.raises(LampertiError, match="non-finite x=nan"):
            LampertiMap(TWO_PLUS_COS).lambda_map(np.array([0.5, math.nan]))
        with pytest.raises(LampertiError, match="non-finite x=inf"):
            LampertiMap(parse_drift("3")).lambda_map(math.inf)

    def test_budget_raises_quadrature_error(self):
        with pytest.raises(QuadratureError, match="budget"):
            LampertiMap(TWO_PLUS_COS).flow(1e8, 0.1)

    def test_budget_leaves_long_integrals_alone(self):
        # [0, 1e4] spans ~1600 periods and needs ~1e4 live subintervals
        m = LampertiMap(TWO_PLUS_COS)
        assert m.lambda_map(1e4) == pytest.approx(
            float(lambda_cos_exact(1e4)), abs=1e-6)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="caps the child's RLIMIT_AS via /proc")
    @pytest.mark.parametrize("x,t", [
        (math.nan, 0.1), (math.inf, 0.1), (1e8, 0.1), (0.0, 1e6),
    ])
    def test_bounded_time_and_memory(self, x, t):
        src = os.path.dirname(os.path.dirname(shorttime.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_PROBE, repr(x), repr(t)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        name, seconds = proc.stdout.split()
        assert issubclass(getattr(shorttime, name), LampertiError)
        assert float(seconds) < 1.0
