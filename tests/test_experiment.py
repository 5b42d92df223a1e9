"""Monte-Carlo engine tests: determinism, seeding, divergence handling,
calibration, and grid structure.

Reduced run counts keep these fast; the statistical reproduction checks
at full scale live in the acceptance suite.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from lmslab.experiment import (
    AllRunsDivergedError,
    CalibrationError,
    GridConfig,
    ScenarioConfig,
    _simulate,
    calibrate_mu1,
    full_grid,
    lms_params,
    mflms_params,
    run_monte_carlo,
    run_single,
)
from lmslab.filters import WEIGHT_LIMIT, FilterParams, Variant, lms_step, make_filter
from lmslab.metrics import MetricSpace, mse, nwd
from lmslab.signal_model import benchmark_spec, regressor, synthesize


def scenario(**kwargs):
    defaults = dict(
        noise_std=math.sqrt(0.30), alpha=0.2, f=0.25, lms_eta=0.027,
        n_runs=50, n_iters=300, checkpoint_interval=100, base_seed=42,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestScenarioValidation:
    def test_checkpoint_must_divide_iterations(self):
        with pytest.raises(ValueError):
            scenario(n_iters=250, checkpoint_interval=100)

    def test_positive_steps(self):
        with pytest.raises(ValueError):
            scenario(lms_eta=0.0)
        with pytest.raises(ValueError):
            scenario(mflms_mu1=-0.1)

    @pytest.mark.parametrize(
        "field", ["noise_std", "lms_eta", "mflms_mu1", "mflms_muf"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            scenario(**{field: value})

    def test_checkpoints_property(self):
        sc = scenario(n_iters=400, checkpoint_interval=100)
        np.testing.assert_array_equal(sc.checkpoints, [100, 200, 300, 400])


class TestDeterminism:
    def test_run_single_repeatable(self):
        sc = scenario()
        a = run_single(lms_params(0.1), sc, 3)
        b = run_single(lms_params(0.1), sc, 3)
        np.testing.assert_array_equal(a.nwd_at_checkpoints, b.nwd_at_checkpoints)
        np.testing.assert_array_equal(a.final_theta_bc, b.final_theta_bc)
        np.testing.assert_array_equal(a.final_theta_aphi, b.final_theta_aphi)

    def test_monte_carlo_repeatable(self):
        sc = scenario()
        a = run_monte_carlo(lms_params(0.1), sc)
        b = run_monte_carlo(lms_params(0.1), sc)
        np.testing.assert_array_equal(a.mean_nwd_at_checkpoints, b.mean_nwd_at_checkpoints)
        assert a.mse_of_mean == b.mse_of_mean

    def test_single_matches_ensemble_row(self):
        # The batched ensemble and an isolated run share every bit.
        sc = scenario(n_runs=20)
        nwd_ck, final_bc, frozen = _simulate(lms_params(0.1), sc, range(20))
        for idx in (0, 7, 19):
            traj = run_single(lms_params(0.1), sc, idx)
            np.testing.assert_array_equal(traj.nwd_at_checkpoints, nwd_ck[idx])
            np.testing.assert_array_equal(traj.final_theta_bc, final_bc[idx])

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_batching_does_not_change_rows(self, variant):
        # Contiguous index blocks simulated apart and concatenated give
        # the rows of a single batch bit for bit.
        sc = scenario(n_runs=13, n_iters=200)
        muf = 0.0 if variant in (Variant.LMS, Variant.MOMENTUM_LMS) else 0.02
        alpha = 0.0 if variant in (Variant.LMS, Variant.FLMS) else 0.5
        params = FilterParams(mu1=0.02, muf=muf, f=0.25, alpha=alpha, variant=variant)
        whole = _simulate(params, sc, range(13))
        parts = [_simulate(params, sc, block) for block in (range(0, 1), range(1, 6), range(6, 13))]
        for i, expected in enumerate(whole):
            np.testing.assert_array_equal(np.concatenate([p[i] for p in parts]), expected)

    def test_different_seed_changes_results(self):
        a = run_monte_carlo(lms_params(0.1), scenario())
        b = run_monte_carlo(lms_params(0.1), scenario(base_seed=43))
        assert not np.array_equal(a.mean_nwd_at_checkpoints, b.mean_nwd_at_checkpoints)


class TestSeeding:
    def test_runs_use_distinct_streams(self):
        sc = scenario()
        t0 = run_single(lms_params(0.1), sc, 0)
        t1 = run_single(lms_params(0.1), sc, 1)
        assert not np.array_equal(t0.final_theta_bc, t1.final_theta_bc)

    def test_run_index_range_checked(self):
        with pytest.raises(ValueError):
            run_single(lms_params(0.1), scenario(n_runs=5), 5)

    def test_noise_and_init_streams_independent(self):
        # Same run at two noise levels keeps the same initial segment of
        # weight-space randomness: different noise draws do not shift
        # the weight-init stream.
        from lmslab.experiment import _run_rngs

        rw0, re0 = _run_rngs(42, 0, 7)
        rw1, re1 = _run_rngs(42, 0, 7)
        w_a = rw0.standard_normal(8)
        _ = re0.normal(0, 1.0, 100)
        w_b = rw1.standard_normal(8)
        np.testing.assert_array_equal(w_a, w_b)
        assert not np.array_equal(re1.normal(0, 1.0, 8), w_a)


class TestTrajectoryContract:
    def test_checkpoint_count(self):
        sc = scenario(n_iters=600, checkpoint_interval=100)
        traj = run_single(lms_params(0.1), sc, 0)
        assert len(traj.nwd_at_checkpoints) == 6
        assert np.all(traj.nwd_at_checkpoints >= 0)
        assert np.all(np.isfinite(traj.nwd_at_checkpoints))

    def test_noiseless_truth_start_is_fixed_point(self):
        # Driving the filter by hand from the true weights with zero
        # noise: the error is identically zero and NWD stays at zero.
        spec, truth = benchmark_spec(noise_std=0.0)
        state, params = make_filter(Variant.LMS, 0.1, 0.0, 0.5, 0.0, 8, truth.theta_bc)
        for n in range(1, 301):
            u = regressor(spec.frequencies, n)
            d = synthesize(spec, n, 0.0)
            state, rec = lms_step(state, u, d, params)
            assert rec.error == 0.0
        assert nwd(state.w, truth.theta_bc) == 0.0

    def test_final_parameters_consistent(self):
        sc = scenario()
        traj = run_single(lms_params(0.1), sc, 2)
        from lmslab.signal_model import aphi_from_bc

        np.testing.assert_array_equal(traj.final_theta_aphi, aphi_from_bc(traj.final_theta_bc))


class TestAggregation:
    def test_single_run_aggregate_equals_trajectory(self):
        sc = scenario(n_runs=1)
        traj = run_single(lms_params(0.1), sc, 0)
        agg = run_monte_carlo(lms_params(0.1), sc)
        np.testing.assert_array_equal(agg.mean_nwd_at_checkpoints, traj.nwd_at_checkpoints)
        np.testing.assert_array_equal(agg.mean_final_theta_aphi, traj.final_theta_aphi)
        _, truth = benchmark_spec()
        assert agg.mse_of_mean == pytest.approx(
            mse(traj.final_theta_aphi, truth.theta_aphi), rel=1e-15
        )
        assert agg.divergence_count == 0

    def test_divergent_runs_recorded_and_excluded(self):
        # An unstable step size makes every run blow past the guard.
        sc = scenario(n_runs=6, n_iters=200)
        unstable = lms_params(3.0)
        traj = run_single(unstable, sc, 0)
        assert traj.diverged
        with pytest.raises(AllRunsDivergedError):
            run_monte_carlo(unstable, sc)

    def test_frozen_run_keeps_in_bound_weights(self):
        traj = run_single(lms_params(3.0), scenario(n_runs=6, n_iters=200), 0)
        assert traj.diverged
        assert np.all(np.isfinite(traj.final_theta_bc))
        assert np.all(np.abs(traj.final_theta_bc) <= WEIGHT_LIMIT)

    def test_partial_divergence_keeps_means_finite(self):
        # A step size at the edge of stability splits the ensemble
        # (deterministic at this seed: 29 of 30 runs diverge).
        sc = scenario(n_runs=30, n_iters=200)
        edgy = lms_params(0.535)
        agg = run_monte_carlo(edgy, sc)
        assert 0 < agg.divergence_count < 30
        assert np.all(np.isfinite(agg.mean_nwd_at_checkpoints))

    def test_step_size_tradeoff_at_first_checkpoint(self):
        # Larger LMS steps converge faster (lower fitness at iteration
        # 100) but settle higher; full-scale ordering is re-checked in
        # the acceptance suite.
        sc = scenario(n_runs=100, n_iters=1000)
        at_100 = []
        at_end = []
        for eta in (0.027, 0.042, 0.1):
            agg = run_monte_carlo(lms_params(eta), sc)
            at_100.append(agg.mean_nwd_at_checkpoints[0])
            at_end.append(agg.mean_nwd_at_checkpoints[-1])
        assert at_100[0] > at_100[1] > at_100[2]
        assert at_end[0] < at_end[1] < at_end[2]

    def test_metric_space_toggle(self):
        sc_aphi = scenario(metric_space=MetricSpace.APHI)
        sc_bc = scenario(metric_space=MetricSpace.BC)
        a = run_monte_carlo(lms_params(0.1), sc_aphi)
        b = run_monte_carlo(lms_params(0.1), sc_bc)
        assert not np.array_equal(a.mean_nwd_at_checkpoints, b.mean_nwd_at_checkpoints)
        # Same runs underneath: the final parameter means agree exactly.
        np.testing.assert_array_equal(a.mean_final_theta_aphi, b.mean_final_theta_aphi)


class TestCalibration:
    def test_self_calibration_recovers_eta(self):
        # With muf = 0 and alpha = 0 the candidate is the paired LMS
        # itself, so the bisection must come back with eta.
        sc = scenario(alpha=0.0, mflms_muf=0.0, n_iters=300, n_runs=50)
        mu1 = calibrate_mu1(sc, calibration_runs=50)
        assert mu1 == pytest.approx(sc.lms_eta, rel=0.02)

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError):
            calibrate_mu1(scenario(), tolerance=0.0)

    def test_checkpoint_index_validated(self):
        with pytest.raises(ValueError):
            calibrate_mu1(scenario(), target_checkpoint=99)

    def test_benchmark_scenario_calibrates_in_band(self):
        # Transient-regime match: recorded value sits near 0.012 (see
        # the reproduction notes); assert a generous band around it.
        sc = scenario(n_iters=1000, n_runs=200)
        mu1 = calibrate_mu1(sc, calibration_runs=100)
        assert 0.006 <= mu1 <= 0.022

    def test_unreachable_tolerance_raises(self):
        # Bisection resolution cannot honour an essentially-zero
        # tolerance band, so the match is reported as unreachable.
        sc = scenario(alpha=0.0, mflms_muf=0.0, n_iters=300, n_runs=30)
        with pytest.raises(CalibrationError):
            calibrate_mu1(sc, calibration_runs=30, tolerance=1e-12)

    def test_closest_mode_returns_value(self):
        sc = scenario(alpha=0.0, mflms_muf=0.0, n_iters=300, n_runs=30)
        mu1 = calibrate_mu1(sc, calibration_runs=30, tolerance=1e-12, on_no_match="closest")
        assert 1e-4 <= mu1 <= 0.5
        assert mu1 == pytest.approx(sc.lms_eta, rel=0.05)


class TestFullGrid:
    def test_structure_and_order(self):
        config = GridConfig(
            noise_levels=(0.30,),
            alphas=(0.2, 0.5),
            lms_etas=(0.027, 0.042),
            fractional_orders=(0.25, 0.75),
            mflms_mu1=0.01,
            n_runs=5,
            n_iters=200,
            checkpoint_interval=100,
        )
        entries = full_grid(config)
        labels = [e.label for e in entries]
        assert labels == [
            "mFLMS(f=0.25) a=0.2",
            "mFLMS(f=0.75) a=0.2",
            "LMS(eta=0.027)",
            "mFLMS(f=0.25) a=0.5",
            "mFLMS(f=0.75) a=0.5",
            "LMS(eta=0.042)",
        ]
        assert all(e.sigma_label == "0.30" for e in entries)

    def test_default_grid_has_36_unique_scenarios(self):
        config = GridConfig(mflms_mu1=0.01, n_runs=2, n_iters=100, checkpoint_interval=100)
        entries = full_grid(config)
        assert len(entries) == 36
        keys = {(e.sigma_label, e.variant, e.alpha, e.f, e.step_size) for e in entries}
        assert len(keys) == 36
        lms_rows = [e for e in entries if e.variant is Variant.LMS]
        assert len(lms_rows) == 9

    def test_noise_scale_mapping(self):
        config = GridConfig(noise_scale="variance")
        assert config.noise_std(0.30) == pytest.approx(math.sqrt(0.30), rel=1e-15)
        config = GridConfig(noise_scale="std")
        assert config.noise_std(0.30) == 0.30

    def test_eta_alpha_pairing_validated(self):
        with pytest.raises(ValueError):
            GridConfig(alphas=(0.2, 0.5), lms_etas=(0.027,))
