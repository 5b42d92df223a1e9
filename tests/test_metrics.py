"""Metric tests: NWD and MSE definitions, invariants, and the identity
linking the two."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lmslab.metrics import MetricSpace, mse, nwd
from lmslab.signal_model import THETA_APHI

# ||theta_aphi|| for the benchmark truth, frozen from a 50-digit
# evaluation of sqrt(1.8^2 + 2.9^2 + 4^2 + 2.5^2 + 0.95^2 + 0.8^2 + 0.76^2 + 1.1^2).
BENCH_APHI_NORM = 6.1016473185525895
# 0.01 / ||theta_aphi||, same oracle.
NWD_ONE_COORD_BUMP = 0.001638901673257012


class TestNwd:
    def test_perfect_estimate(self):
        theta = np.array([1.0, -2.0, 3.0])
        assert nwd(theta, theta) == 0.0

    def test_zero_estimate(self):
        theta = np.array([1.0, -2.0, 3.0])
        assert nwd(np.zeros(3), theta) == pytest.approx(1.0, rel=1e-15)

    def test_doubled_estimate(self):
        theta = np.array([1.0, -2.0, 3.0])
        assert nwd(2 * theta, theta) == pytest.approx(1.0, rel=1e-15)

    def test_benchmark_single_coordinate_bump(self):
        bumped = THETA_APHI.copy()
        bumped[0] += 0.01
        assert np.sqrt((THETA_APHI ** 2).sum()) == pytest.approx(BENCH_APHI_NORM, rel=1e-15)
        assert nwd(bumped, THETA_APHI) == pytest.approx(NWD_ONE_COORD_BUMP, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.booleans())
    def test_scale_covariance(self, s, negate):
        if negate:
            s = -s
        rng = np.random.default_rng(1)
        theta = rng.normal(0, 1, 6)
        hat = theta + rng.normal(0, 0.1, 6)
        assert nwd(s * hat, s * theta) == pytest.approx(nwd(hat, theta), rel=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError):
            nwd(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nwd(np.ones(3), np.ones(4))

    def test_batched_rows(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(0, 1, 8)
        hats = rng.normal(0, 1, (5, 8))
        out = nwd(hats, theta)
        np.testing.assert_array_equal(out, [nwd(h, theta) for h in hats])


class TestMse:
    def test_identical(self):
        assert mse(np.ones(4), np.ones(4)) == 0.0

    def test_unit_offsets(self):
        assert mse(np.array([1.0, 1.0]), np.zeros(2)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(0, 2, 9), rng.normal(0, 2, 9)
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(2), np.ones(3))


class TestLinkingIdentity:
    def test_nwd_squared_times_norm_equals_m_times_mse(self):
        # nwd^2 * ||theta||^2 == M * mse, checked on random vectors.
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            theta = rng.normal(0, 2, m)
            if not (theta ** 2).sum() > 0:
                continue
            hat = theta + rng.normal(0, 0.5, m)
            lhs = nwd(hat, theta) ** 2 * (theta ** 2).sum()
            rhs = m * mse(hat, theta)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_metric_space_values():
    assert MetricSpace("bc") is MetricSpace.BC
    assert MetricSpace("aphi") is MetricSpace.APHI
    assert len(MetricSpace) == 2
