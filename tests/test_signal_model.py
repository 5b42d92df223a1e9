"""Signal model tests: regressor layout, form equivalence, transforms."""

import math

import numpy as np
import pytest

from lmslab.signal_model import (
    BENCHMARK_AMPLITUDES,
    BENCHMARK_FREQUENCIES,
    BENCHMARK_PHASES,
    FREQUENCIES,
    THETA_APHI,
    THETA_BC,
    aphi_from_bc,
    bc_from_aphi,
    regressor,
)

BENCH_APHI = [1.8, 2.9, 4.0, 2.5, 0.95, 0.8, 0.76, 1.1]
# sum_k a_k sin(phi_k), frozen from a 50-digit evaluation; cross-checks
# the two algebraic signal forms at the (hypothetical) sample n = 0.
SUM_A_SIN_PHI = 8.528184752825283


def direct_form(amplitudes, frequencies, phases, n: int) -> float:
    # Independent evaluation of sum_k a_k sin(n w_k + phi_k) via the
    # standard library, no shared code with the package.
    return sum(float(a) * math.sin(n * float(w) + float(p)) for a, w, p in zip(amplitudes, frequencies, phases))


def inner_form(amplitudes, frequencies, phases, n: int) -> float:
    # The form the engine uses: psi(n) . theta_bc.
    return float((regressor(frequencies, n) * bc_from_aphi(amplitudes, phases)).sum())


class TestRegressor:
    def test_exact_trig_values(self):
        psi = regressor([math.pi / 2], 1)
        np.testing.assert_allclose(psi, [1.0, 0.0], atol=1e-12)

    def test_benchmark_layout_at_first_sample(self):
        freqs = [0.07, 0.5, 2.0, 1.6]
        psi = regressor(freqs, 1)
        expected = []
        for w in freqs:
            expected += [math.sin(w), math.cos(w)]
        np.testing.assert_allclose(psi, expected, rtol=1e-15)

    def test_norm_squared_equals_harmonic_count(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_harm = rng.integers(1, 6)
            freqs = rng.uniform(0.01, 3.0, n_harm)
            n = int(rng.integers(1, 5000))
            psi = regressor(freqs, n)
            assert (psi * psi).sum() == pytest.approx(n_harm, abs=1e-12)

    def test_vectorized_matches_scalar_bitwise(self):
        freqs = [0.07, 0.5, 2.0, 1.6]
        table = regressor(freqs, np.arange(1, 50))
        for n in (1, 7, 49):
            np.testing.assert_array_equal(table[n - 1], regressor(freqs, n))

    def test_sample_index_starts_at_one(self):
        with pytest.raises(ValueError):
            regressor([0.5], 0)
        with pytest.raises(ValueError):
            regressor([0.5], [1, 0])


class TestSynthesize:
    def test_single_harmonic(self):
        assert inner_form([1.0], [math.pi / 2], [0.0], 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_forms_agree_on_random_draws(self):
        # The two forms differ only by rounding of the angle n*w (at most
        # half an ulp per harmonic), so the bound is 1e-12 per unit of
        # total amplitude.
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n_harm = rng.integers(1, 5)
            signal = (rng.uniform(0.5, 4.0, n_harm), rng.uniform(0.01, 3.0, n_harm), rng.uniform(-1.5, 1.5, n_harm))
            n = int(rng.integers(1, 2000))
            scale = max(1.0, float(signal[0].sum()))
            assert inner_form(*signal, n) == pytest.approx(direct_form(*signal, n), abs=1e-12 * scale)

    def test_form_crosscheck_at_origin(self):
        # At n = 0 the inner-product form collapses to the sum of the c
        # components; both algebraic forms equal sum_k a_k sin(phi_k).
        psi0 = np.zeros(8)
        psi0[1::2] = 1.0  # sin(0) = 0, cos(0) = 1
        assert (psi0 * THETA_BC).sum() == pytest.approx(SUM_A_SIN_PHI, abs=1e-12)
        signal = (BENCHMARK_AMPLITUDES, BENCHMARK_FREQUENCIES, BENCHMARK_PHASES)
        assert direct_form(*signal, 0) == pytest.approx(SUM_A_SIN_PHI, abs=1e-12)


class TestTransforms:
    def test_bc_from_aphi_basics(self):
        np.testing.assert_allclose(bc_from_aphi([1.0], [0.0]), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(bc_from_aphi([2.0], [math.pi / 2]), [0.0, 2.0], atol=1e-12)

    def test_bc_from_aphi_benchmark(self):
        a = [1.8, 2.9, 4.0, 2.5]
        phi = [0.95, 0.8, 0.76, 1.1]
        bc = bc_from_aphi(a, phi)
        expected = []
        for ak, pk in zip(a, phi):
            expected += [ak * math.cos(pk), ak * math.sin(pk)]
        np.testing.assert_allclose(bc, expected, rtol=1e-15)

    def test_aphi_from_bc_345_triangle(self):
        out = aphi_from_bc([3.0, 4.0])
        assert out[0] == pytest.approx(5.0, abs=1e-12)
        assert out[1] == pytest.approx(0.9272952180016122, abs=1e-12)

    def test_aphi_from_bc_degenerate(self):
        np.testing.assert_array_equal(aphi_from_bc([0.0, 0.0]), [0.0, 0.0])

    def test_quadrant_aware_phase(self):
        # b < 0 lands outside the principal branch of atan(c/b).
        out = aphi_from_bc([-1.0, 1.0])
        assert out[0] == pytest.approx(math.sqrt(2), rel=1e-12)
        assert out[1] == pytest.approx(3 * math.pi / 4, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_harm = rng.integers(1, 6)
            a = rng.uniform(0.1, 5.0, n_harm)
            phi = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, n_harm)
            out = aphi_from_bc(bc_from_aphi(a, phi))
            np.testing.assert_allclose(out[:n_harm], a, atol=1e-12)
            np.testing.assert_allclose(out[n_harm:], phi, atol=1e-12)

    def test_batched_transform(self):
        rng = np.random.default_rng(9)
        batch = rng.normal(0, 2, size=(10, 8))
        rows = np.stack([aphi_from_bc(r) for r in batch])
        np.testing.assert_array_equal(aphi_from_bc(batch), rows)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            bc_from_aphi([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            aphi_from_bc([1.0, 2.0, 3.0])


class TestBenchmarkSpec:
    def test_truth_vector(self):
        np.testing.assert_array_equal(THETA_APHI, BENCH_APHI)

    def test_dimensions(self):
        assert FREQUENCIES.shape == (4,)
        assert THETA_BC.shape == THETA_APHI.shape == (8,)
        np.testing.assert_array_equal(FREQUENCIES, [0.07, 0.5, 2.0, 1.6])

    def test_consistency_invariants(self):
        n = 4
        a, phi = THETA_APHI[:n], THETA_APHI[n:]
        np.testing.assert_allclose(THETA_BC[0::2], a * np.cos(phi), atol=1e-12)
        np.testing.assert_allclose(THETA_BC[1::2], a * np.sin(phi), atol=1e-12)
        np.testing.assert_allclose(np.sqrt(THETA_BC[0::2] ** 2 + THETA_BC[1::2] ** 2), a, atol=1e-12)

    def test_constants_are_read_only(self):
        for constant in (FREQUENCIES, THETA_BC, THETA_APHI):
            assert constant.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 0.0
