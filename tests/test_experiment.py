"""Monte-Carlo engine tests: determinism, seeding, divergence handling,
calibration, and grid structure.

Reduced run counts keep these fast; the statistical reproduction checks
at full scale live in the acceptance suite.
"""

import logging
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from lmslab import experiment
from lmslab.experiment import (
    CALIBRATION_TOLERANCE,
    AllRunsDivergedError,
    CalibrationError,
    GridConfig,
    ScenarioConfig,
    _run_rngs,
    _simulate,
    calibrate_mu1,
    full_grid,
    lms_params,
    mflms_params,
    prefetch_calibration,
    run_monte_carlo,
)
from lmslab.filters import (
    WEIGHT_LIMIT,
    FilterParams,
    FilterState,
    Variant,
    diverged_rows,
    step,
)
from lmslab.metrics import MetricSpace, mse, nwd
from lmslab.signal_model import FREQUENCIES, THETA_APHI, THETA_BC, aphi_from_bc, regressor


def variant_params(variant: Variant) -> FilterParams:
    muf = 0.02 if variant in (Variant.FLMS, Variant.MFLMS_ASSEMBLED) else 0.0
    alpha = 0.0 if variant in (Variant.LMS, Variant.FLMS) else 0.5
    return FilterParams(mu1=0.02, muf=muf, f=0.25, alpha=alpha, variant=variant)


@pytest.fixture
def cold_streams(monkeypatch):
    """An empty stream cache for one test; the process-wide one is restored after."""
    monkeypatch.setattr(experiment, "_stream_windows", {})


def scenario(**kwargs):
    defaults = dict(
        noise_std=math.sqrt(0.30), alpha=0.2, f=0.25, lms_eta=0.027,
        n_runs=50, n_iters=300, checkpoint_interval=100, base_seed=42,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def simulate_one(algorithm, scenario, runs, **kwargs):
    """The rows of ``runs``, one ``_simulate`` batch of a single block: ``algorithm`` at ``scenario``."""
    runs = list(runs)
    return _simulate((algorithm,), (replace(scenario, n_runs=len(runs)),), runs, **kwargs)


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

    @pytest.mark.parametrize("field, value", [
        ("n_runs", 2.5),
        ("n_iters", 300.0),
        ("checkpoint_interval", 100.0),
        ("base_seed", True),
        ("base_seed", 4.5),
    ])
    def test_counts_and_seeds_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=f"^{field}: must be an integer, got "):
            scenario(**{field: value})

    def test_integer_counts_are_held_as_int(self):
        sc = scenario(n_runs=np.int64(5), base_seed=np.uint64(7))
        assert type(sc.n_runs) is int and type(sc.base_seed) is int
        assert (sc.n_runs, sc.base_seed) == (5, 7)

    def test_metric_space_given_as_text(self):
        # The text is the enum's value; it measures in that space, as the enum does.
        assert scenario(metric_space="aphi").metric_space is MetricSpace.APHI
        assert scenario(metric_space="bc").metric_space is MetricSpace.BC
        as_text = run_monte_carlo(lms_params(0.027), scenario(n_runs=3, metric_space="aphi"))
        as_enum = run_monte_carlo(lms_params(0.027), scenario(n_runs=3, metric_space=MetricSpace.APHI))
        np.testing.assert_array_equal(as_text.mean_nwd_at_checkpoints, as_enum.mean_nwd_at_checkpoints)
        with pytest.raises(ValueError, match="not a valid MetricSpace"):
            scenario(metric_space="nonsense")

    def test_filter_variant_given_as_text(self):
        # The text is the enum's value: the LMS rules apply to it, and it
        # runs as the enum does.
        with pytest.raises(ValueError, match="LMS requires muf = 0 and alpha = 0"):
            FilterParams(mu1=0.027, muf=0.0, f=0.5, alpha=0.3, variant="lms")
        as_text = FilterParams(mu1=0.027, muf=0.0, f=0.5, alpha=0.0, variant="lms")
        assert as_text.variant is Variant.LMS
        got = run_monte_carlo(as_text, scenario(n_runs=3))
        want = run_monte_carlo(lms_params(0.027), scenario(n_runs=3))
        np.testing.assert_array_equal(got.mean_nwd_at_checkpoints, want.mean_nwd_at_checkpoints)
        np.testing.assert_array_equal(got.mean_final_theta_aphi, want.mean_final_theta_aphi)
        assert (got.mse_of_mean, got.mean_per_run_mse) == (want.mse_of_mean, want.mean_per_run_mse)


class TestDeterminism:
    def test_run_single_repeatable(self):
        sc = scenario()
        a = simulate_one(lms_params(0.1), sc, [3])
        b = simulate_one(lms_params(0.1), sc, [3])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_monte_carlo_repeatable(self):
        sc = scenario()
        a = run_monte_carlo(lms_params(0.1), sc)
        b = run_monte_carlo(lms_params(0.1), sc)
        np.testing.assert_array_equal(a.mean_nwd_at_checkpoints, b.mean_nwd_at_checkpoints)
        assert a.mse_of_mean == b.mse_of_mean

    def test_single_matches_ensemble_row(self):
        # The batched ensemble and an isolated run share every bit.
        sc = scenario(n_runs=20)
        nwd_ck, final_bc, frozen = simulate_one(lms_params(0.1), sc, range(20))
        for idx in (0, 7, 19):
            nwd1, final1, frozen1 = simulate_one(lms_params(0.1), sc, [idx])
            np.testing.assert_array_equal(nwd1[0], nwd_ck[idx])
            np.testing.assert_array_equal(final1[0], final_bc[idx])
            assert frozen1[0] == frozen[idx]

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_batching_does_not_change_rows(self, variant):
        # Contiguous index blocks simulated apart and concatenated give
        # the rows of a single batch bit for bit.
        sc = scenario(n_runs=13, n_iters=200)
        params = variant_params(variant)
        whole = simulate_one(params, sc, range(13))
        parts = [simulate_one(params, sc, block) for block in (range(0, 1), range(1, 6), range(6, 13))]
        for i, expected in enumerate(whole):
            np.testing.assert_array_equal(np.concatenate([p[i] for p in parts]), expected)

    def test_different_seed_changes_results(self):
        a = run_monte_carlo(lms_params(0.1), scenario())
        b = run_monte_carlo(lms_params(0.1), scenario(base_seed=43))
        assert not np.array_equal(a.mean_nwd_at_checkpoints, b.mean_nwd_at_checkpoints)


class TestSeeding:
    def test_runs_use_distinct_streams(self):
        sc = scenario()
        _, final0, _ = simulate_one(lms_params(0.1), sc, [0])
        _, final1, _ = simulate_one(lms_params(0.1), sc, [1])
        assert not np.array_equal(final0, final1)

    def test_noise_and_init_streams_independent(self):
        # Same run at two noise levels keeps the same initial segment of
        # weight-space randomness: different noise draws do not shift
        # the weight-init stream.
        rw0, re0 = _run_rngs(42, 0, 7)
        rw1, re1 = _run_rngs(42, 0, 7)
        w_a = rw0.standard_normal(8)
        _ = re0.normal(0, 1.0, 100)
        w_b = rw1.standard_normal(8)
        np.testing.assert_array_equal(w_a, w_b)
        assert not np.array_equal(re1.normal(0, 1.0, 8), w_a)


def naive_simulate(algorithm, scenario, run_indices, domain=0):
    """Reference engine: seeds every run afresh and draws its noise at full scale.

    Steps every run, frozen or not, as one row-major batch and masks the
    diverged rows back to their last in-bound weights after each step.
    """
    n_iters, interval = scenario.n_iters, scenario.checkpoint_interval
    aphi = scenario.metric_space is MetricSpace.APHI
    m = len(THETA_BC)
    psi = regressor(FREQUENCIES, np.arange(1, n_iters + 1))
    d_clean = (psi * THETA_BC).sum(axis=-1)
    w = np.empty((len(run_indices), m))
    d = np.empty((n_iters, len(run_indices)))
    for row, run_index in enumerate(run_indices):
        rng_w, rng_e = _run_rngs(scenario.base_seed, domain, run_index)
        w[row] = rng_w.standard_normal(m)
        d[:, row] = rng_e.normal(0.0, scenario.noise_std, n_iters) + d_clean
    state = FilterState(w=w, w_prev=w.copy(), v=np.zeros_like(w))
    frozen = np.zeros(len(run_indices), dtype=bool)
    nwd_ck = np.empty((len(run_indices), n_iters // interval))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_iters):
            state, _ = step(state, psi[k], d[k], algorithm)
            bad = diverged_rows(state.w) | frozen
            state.w[bad] = state.w_prev[bad]
            frozen = bad
            if (k + 1) % interval == 0:
                estimate = aphi_from_bc(state.w) if aphi else state.w
                nwd_ck[:, (k + 1) // interval - 1] = nwd(estimate, THETA_APHI if aphi else THETA_BC)
    return nwd_ck, state.w, frozen


class TestSharedStreams:
    @pytest.mark.parametrize("noise_std", [0.0, math.sqrt(0.3), 1.0])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_per_run_draws(self, cold_streams, variant, noise_std):
        # The shared block, read in any order and after it grows, gives
        # the rows of per-run seeding and full-scale noise bit for bit.
        sc = scenario(noise_std=noise_std, n_iters=200)
        params = variant_params(variant)
        for indices in (range(0, 13), range(5, 12), [7, 3, 11], [999]):
            got = simulate_one(params, sc, indices)
            expected = naive_simulate(params, sc, list(indices))
            for a, b in zip(got, expected):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    @pytest.fixture
    def draws(self, cold_streams, monkeypatch):
        calls = []

        def counting_run_rngs(base_seed, domain, run_index):
            calls.append((base_seed, domain, run_index))
            return _run_rngs(base_seed, domain, run_index)

        monkeypatch.setattr(experiment, "_run_rngs", counting_run_rngs)
        return calls

    def test_grid_draws_each_stream_once(self, draws):
        config = GridConfig(
            noise_levels=(0.30,), alphas=(0.2,), lms_etas=(0.027,),
            fractional_orders=(0.25,), n_runs=30, n_iters=100,
            checkpoint_interval=100, calibration_runs=20,
        )
        full_grid(config)
        assert len(draws) == config.n_runs + config.calibration_runs
        assert len(set(draws)) == len(draws)
        # Calibrated before the ensembles, the grid holds no calibration
        # streams while they run.
        assert list(experiment._stream_windows) == [experiment._DOMAIN_MAIN]

    def test_grid_streams_hold_one_slice_at_a_time(self, draws, monkeypatch):
        # With each kernel branch in three slices of ten runs, every main-
        # domain batch finds a window of its own ten runs, and each run
        # of either domain is still drawn once.
        monkeypatch.setattr(experiment, "_BATCH_ROWS", 10)
        windows = []
        real_simulate = experiment._simulate

        def recording_simulate(*args, **kwargs):
            out = real_simulate(*args, **kwargs)
            if kwargs.get("domain") == experiment._DOMAIN_MAIN:
                window = experiment._stream_windows[experiment._DOMAIN_MAIN]
                windows.append((window.start, len(window.w0), window.z.shape))
            return out

        monkeypatch.setattr(experiment, "_simulate", recording_simulate)
        config = GridConfig(
            noise_levels=(0.30,), alphas=(0.2,), lms_etas=(0.027,),
            fractional_orders=(0.25,), n_runs=30, n_iters=100,
            checkpoint_interval=100, calibration_runs=20,
        )
        full_grid(config)
        assert windows == [(start, 10, (10, 100)) for start in (0, 10, 20) for _ in range(2)]
        assert len(draws) == config.n_runs + config.calibration_runs
        assert len(set(draws)) == len(draws)

    def test_next_slice_releases_the_window_first(self, cold_streams):
        # A request sharing no run with the window frees it before
        # allocating the next one, so memory holds one window at a time:
        # measured 13 KB above the first window with numpy 2.4.6, against
        # a whole window (806 KB) when both are held.
        window_bytes = 100 * (1000 + 8) * 8
        experiment._streams(42, 0, 8, np.arange(300, 301), 1000)  # numpy.random's lazy set-up
        tracemalloc.start()
        try:
            experiment._streams(42, 0, 8, np.arange(0, 100), 1000)
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            experiment._streams(42, 0, 8, np.arange(100, 200), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert experiment._stream_windows[0].start == 100
        assert before > window_bytes and peak - before < window_bytes / 4

    def test_other_seed_redraws(self, draws):
        simulate_one(lms_params(0.1), scenario(), range(10))
        simulate_one(lms_params(0.1), scenario(base_seed=43), range(10))
        assert len(draws) == 20
        assert {seed for seed, _, _ in draws[10:]} == {43}

    def test_smaller_request_reuses_block(self, draws):
        simulate_one(lms_params(0.1), scenario(n_iters=300), range(20))
        simulate_one(lms_params(0.1), scenario(n_iters=100), [3, 19, 0])
        simulate_one(lms_params(0.1), scenario(n_iters=200), range(5, 15))
        assert len(draws) == 20

    def test_run_single_draws_only_the_runs_it_names(self, draws):
        sc = scenario(n_runs=1000, n_iters=100)
        for run_index in range(40):
            simulate_one(lms_params(0.1), sc, [run_index])
        assert draws == [(42, 0, r) for r in range(40)]
        window = experiment._stream_windows[0]
        assert (window.start, len(window.w0), window.z.shape) == (39, 1, (1, 100))  # the last run only
        simulate_one(lms_params(0.1), sc, [999])
        assert draws[40:] == [(42, 0, 999)]

    def test_block_grows_to_the_request_not_the_cross_product(self, draws):
        # A wide, short request after a long, narrow one draws a window of
        # its own runs and iterations, not 100 runs x 2000 iterations.
        simulate_one(lms_params(0.1), scenario(n_iters=2000), range(10))
        got = simulate_one(lms_params(0.1), scenario(n_iters=100), range(100))
        window = experiment._stream_windows[0]
        assert window.start == 0 and window.w0.shape == (100, 8) and window.z.shape == (100, 100)
        assert len(draws) == 110
        expected = naive_simulate(lms_params(0.1), scenario(n_iters=100), range(100))
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_sparse_request_draws_the_runs_between_its_ends(self, draws):
        # Runs 3 .. 11 are drawn once, whole, in order; the rows are those
        # of per-run seeding, read in the request's order.
        sc = scenario(n_iters=200)
        got = simulate_one(lms_params(0.1), sc, [7, 3, 11])
        window = experiment._stream_windows[0]
        assert (window.start, len(window.w0), window.z.shape) == (3, 9, (9, 200))
        assert draws == [(42, 0, r) for r in range(3, 12)]
        for a, b in zip(got, naive_simulate(lms_params(0.1), sc, [7, 3, 11])):
            np.testing.assert_array_equal(a, b)

    def test_calibration_releases_its_streams(self, cold_streams):
        prefetch_calibration([scenario(n_iters=100)], CALIBRATION_TOLERANCE, 10)[0].settle("closest")
        assert experiment._DOMAIN_CALIBRATION not in experiment._stream_windows

    def test_probe_above_the_cap_is_sliced_from_streams_drawn_once(self, monkeypatch, draws):
        # A 150-run probe at 100 rows a batch runs in slices of runs; the
        # calibration driver draws its 150 runs once, and the record equals
        # the one at the default cap bit for bit.
        sc = scenario(n_iters=200)
        (whole,) = prefetch_calibration([sc], CALIBRATION_TOLERANCE, 150)
        draws.clear()
        batches = []
        real_simulate = experiment._simulate

        def recording_simulate(algorithm, scenario, run_indices, **kwargs):
            batches.append(len(run_indices))
            return real_simulate(algorithm, scenario, run_indices, **kwargs)

        monkeypatch.setattr(experiment, "_simulate", recording_simulate)
        monkeypatch.setattr(experiment, "_BATCH_ROWS", 100)
        (sliced,) = prefetch_calibration([sc], CALIBRATION_TOLERANCE, 150)
        assert len(draws) == 150 and len(set(draws)) == 150
        assert batches and max(batches) <= 100
        assert (sliced.mu1, sliced.fitness, sliced.miss) == (whole.mu1, whole.fitness, whole.miss)
        assert [a for a, _ in sliced.reads] == [a for a, _ in whole.reads]
        for (_, got), (_, want) in zip(sliced.reads, whole.reads, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_ensemble_independent_of_cache_state(self, cold_streams):
        sc = scenario(n_runs=20)
        cold = simulate_one(lms_params(0.1), sc, range(20))
        simulate_one(lms_params(0.1), replace(sc, n_iters=600), range(40))
        larger = simulate_one(lms_params(0.1), sc, range(20))
        simulate_one(lms_params(0.1), replace(sc, base_seed=7), range(20))
        other_seed = simulate_one(lms_params(0.1), sc, range(20))
        for warm in (larger, other_seed):
            for a, b in zip(cold, warm):
                np.testing.assert_array_equal(a, b)

    def test_negative_run_index_rejected(self, cold_streams):
        # A negative index must not alias the last run of a cached block.
        simulate_one(lms_params(0.1), scenario(), range(6))
        with pytest.raises(ValueError):
            simulate_one(lms_params(0.1), scenario(), [5, -1])

    def test_cached_arrays_are_read_only(self, cold_streams):
        simulate_one(lms_params(0.1), scenario(), range(5))
        for window in experiment._stream_windows.values():
            with pytest.raises(ValueError):
                window.w0[0, 0] = 0.0
            with pytest.raises(ValueError):
                window.z[0, 0] = 0.0

    def test_warm_ensemble_holds_no_runs_by_iters_array(self, cold_streams):
        # A 1000 x 1000 ensemble's desired samples alone would take 8 MB.
        sc = scenario(n_runs=1000, n_iters=1000)
        run_monte_carlo(lms_params(0.027), sc)
        tracemalloc.start()
        try:
            run_monte_carlo(lms_params(0.027), sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# Per variant: a step size and an iteration count at which some of 300
# runs have hit the divergence guard and some have not.
FREEZING = {
    Variant.LMS: (0.55, 140),
    Variant.MOMENTUM_LMS: (0.5, 64),
    Variant.FLMS: (0.2, 20),
    Variant.MFLMS_ASSEMBLED: (0.1, 60),
    Variant.MFLMS_PUBLISHED16: (0.2, 40),
    Variant.MFLMS_CORRECTED: (0.1, 100),
}


def freezing_params(variant: Variant, mu1: float) -> FilterParams:
    muf = mu1 if variant in (Variant.FLMS, Variant.MFLMS_ASSEMBLED) else 0.0
    alpha = 0.0 if variant in (Variant.LMS, Variant.FLMS) else 0.5
    return FilterParams(mu1=mu1, muf=muf, f=0.25, alpha=alpha, variant=variant)


class TestFrozenRowCompaction:
    """Diverged runs leave the active batch; the outputs keep every bit."""

    @pytest.fixture
    def freeze_iterations(self, monkeypatch):
        # (iteration, rows flagged) for every step at which the engine
        # built a row mask.
        seen = {"k": -1, "events": []}

        def counting_step(*args, **kwargs):
            seen["k"] += 1
            return step(*args, **kwargs)

        def recording_diverged_rows(w):
            mask = diverged_rows(w)
            seen["events"].append((seen["k"], int(mask.sum())))
            return mask

        monkeypatch.setattr(experiment, "step", counting_step)
        monkeypatch.setattr(experiment, "diverged_rows", recording_diverged_rows)
        return seen["events"]

    @pytest.mark.parametrize("space", list(MetricSpace), ids=lambda s: s.value)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_partial_freezing_matches_row_mask_oracle(self, freeze_iterations, variant, space):
        mu1, n_iters = FREEZING[variant]
        sc = scenario(noise_std=1.0, n_runs=300, n_iters=n_iters, checkpoint_interval=2, metric_space=space)
        params = freezing_params(variant, mu1)
        got = simulate_one(params, sc, range(300))
        assert 0 < got[2].sum() < 300
        frozen_at = [k for k, n in freeze_iterations if n]
        chunk = experiment._CHUNK_ELEMENTS // 300
        assert any((k + 1) % 2 == 0 for k in frozen_at)  # at a checkpoint
        assert any((k + 1) % 2 and k % chunk for k in frozen_at)  # mid-chunk, between checkpoints
        for a, b in zip(got, naive_simulate(params, sc, range(300))):
            np.testing.assert_array_equal(a, b)

    def test_batch_steps_with_one_workspace(self, monkeypatch):
        # Every step of a batch gets the workspace allocated with it, and
        # its leading rows once runs have frozen and left the batch.
        seen = []

        def recording_step(state, *args, work, **kwargs):
            seen.append((len(state.w), [a.__array_interface__["data"][0] for a in work], [len(a) for a in work]))
            return step(state, *args, work=work, **kwargs)

        monkeypatch.setattr(experiment, "step", recording_step)
        mu1, n_iters = FREEZING[Variant.MFLMS_ASSEMBLED]
        sc = scenario(noise_std=1.0, n_runs=300, n_iters=n_iters, checkpoint_interval=2)
        frozen = simulate_one(freezing_params(Variant.MFLMS_ASSEMBLED, mu1), sc, range(300))[2]
        assert 0 < frozen.sum() < 300 and len(seen) == n_iters
        assert len({rows for rows, _, _ in seen}) > 1
        assert all(pointers == seen[0][1] and set(lengths) == {rows} for rows, pointers, lengths in seen)

    @pytest.mark.parametrize("space", list(MetricSpace), ids=lambda s: s.value)
    def test_every_row_frozen_matches_row_mask_oracle(self, space):
        sc = scenario(noise_std=1.0, n_runs=60, n_iters=300, checkpoint_interval=10, metric_space=space)
        params = freezing_params(Variant.LMS, 0.55)
        got = simulate_one(params, sc, range(60))
        assert got[2].all()
        for a, b in zip(got, naive_simulate(params, sc, range(60))):
            np.testing.assert_array_equal(a, b)

    def test_blocks_freezing_at_both_ends_match_naive_oracle(self, monkeypatch):
        # A frozen row's place is taken by a kept row from the batch's top,
        # here one of another block: its noise level, coefficients and
        # desired samples must move with it.  The batch's first and last
        # rows (runs 39 and 143; run 103 would freeze first) freeze first,
        # together, at iteration 39, so the top row is itself a hole; later
        # runs freeze mid-chunk, before the chunk at iteration 54 reads the
        # noise levels again.
        masks = []

        def recording_diverged_rows(w):
            masks.append(diverged_rows(w))
            return masks[-1]

        monkeypatch.setattr(experiment, "diverged_rows", recording_diverged_rows)
        variant = Variant.MFLMS_ASSEMBLED
        mu1, n_iters = FREEZING[variant]
        blocks = [
            (freezing_params(variant, mu1), 1.0, range(39, 139)),
            (block_params(variant, mu1 / 4, 0.3), math.sqrt(0.3), range(100)),
            (FilterParams(mu1=0.9 * mu1, muf=0.9 * mu1, f=0.25, alpha=0.6, variant=variant), 0.5,
             [r for r in range(100, 200) if r not in (103, 143)] + [143]),
        ]
        algorithms = tuple(params for params, _, _ in blocks)
        scenarios = tuple(
            scenario(noise_std=noise_std, n_runs=len(runs), n_iters=n_iters, checkpoint_interval=2)
            for _, noise_std, runs in blocks
        )
        got = _simulate(algorithms, scenarios, [i for _, _, runs in blocks for i in runs], n_iters=n_iters)
        assert masks[0][0] and masks[0][-1] and len(masks) > 10
        assert experiment._CHUNK_ELEMENTS // len(masks[0]) == 27
        parts = [naive_simulate(a, sc, list(runs)) for a, sc, (_, _, runs) in zip(algorithms, scenarios, blocks)]
        for i, batched in enumerate(got):
            np.testing.assert_array_equal(batched, np.concatenate([p[i] for p in parts]))

    def test_checkpoint_metrics_span_several_buffers(self):
        # A checkpoint at every iteration: the metrics are measured many
        # checkpoints at a time, and the last buffer is partly filled.
        slots = experiment._CHUNK_ELEMENTS // (20 * 8)
        assert 1 < slots < 130 // 2 and 130 % slots
        params = variant_params(Variant.MFLMS_ASSEMBLED)
        for space in MetricSpace:
            sc = scenario(n_runs=20, n_iters=130, checkpoint_interval=1, metric_space=space)
            for a, b in zip(simulate_one(params, sc, range(20)), naive_simulate(params, sc, range(20))):
                np.testing.assert_array_equal(a, b)


def block_params(variant: Variant, mu1: float, alpha: float) -> FilterParams:
    takes_muf = variant in (Variant.FLMS, Variant.MFLMS_ASSEMBLED)
    momentum = variant not in (Variant.LMS, Variant.FLMS)
    return FilterParams(mu1=mu1, muf=mu1 if takes_muf else 0.0, f=0.25,
                        alpha=alpha if momentum else 0.0, variant=variant)


class TestBatchedBlocks:
    """A batch of blocks with their own coefficients and noise levels."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_blocks_match_separate_simulations(self, variant):
        # Each block's rows equal its own simulation bit for bit, while
        # the first block's runs freeze and leave the batch mid-run.
        mu1, n_iters = FREEZING[variant]
        blocks = [
            (block_params(variant, mu1, 0.5), 1.0, range(40)),
            (block_params(variant, mu1 / 4, 0.3), math.sqrt(0.3), range(3, 10)),
            (block_params(variant, mu1 / 3, 0.8), 0.0, range(25)),
        ]
        algorithms = tuple(params for params, _, _ in blocks)
        scenarios = tuple(
            scenario(noise_std=noise_std, n_runs=len(runs), n_iters=n_iters, checkpoint_interval=2)
            for _, noise_std, runs in blocks
        )
        indices = [i for _, _, runs in blocks for i in runs]
        got = _simulate(algorithms, scenarios, indices, n_iters=n_iters)
        assert 0 < got[2][:40].sum() < 40 and not got[2][40:].any()
        parts = [simulate_one(a, sc, runs) for a, sc, (_, _, runs) in zip(algorithms, scenarios, blocks)]
        for i, batched in enumerate(got):
            np.testing.assert_array_equal(batched, np.concatenate([p[i] for p in parts]))

    def test_uniform_coefficients_stay_scalar(self):
        params = block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5)
        rule = experiment._batch_rule((params, params), [3, 4])
        assert rule == experiment.update_rule(params)
        mixed = experiment._batch_rule((params, replace(params, alpha=0.2)), [3, 4])
        assert mixed.a == params.mu1 and mixed.alpha.shape == (7, 1)

    @pytest.mark.parametrize("other, protocol", [
        (lms_params(0.01), {}),
        (block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.0), {}),
        (replace(block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), f=0.5), {}),
        (replace(block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), muf=0.0), {}),
        (block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), {"checkpoint_interval": 50}),
        (block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), {"base_seed": 7}),
        (block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), {"metric_space": MetricSpace.BC}),
        (block_params(Variant.MFLMS_ASSEMBLED, 0.01, 0.5), {"n_iters": 200}),
    ], ids=["variant", "alpha-zero", "exponent", "b-zero",
            "checkpoint-interval", "base-seed", "metric-space", "n-iters"])
    def test_blocks_must_share_the_kernel_branches(self, other, protocol):
        # The blocks of a batch share their kernel branch and protocol (_batch_key).
        first = block_params(Variant.MFLMS_ASSEMBLED, 0.02, 0.5)
        with pytest.raises(ValueError):
            _simulate((first, other), (scenario(n_runs=2), scenario(n_runs=2, **protocol)), range(4))

    def test_block_rows_must_cover_the_indices(self):
        params = block_params(Variant.LMS, 0.01, 0.0)
        with pytest.raises(ValueError):
            _simulate((params, params), (scenario(n_runs=2),) * 2, range(5))


def grid_blocks(config: GridConfig) -> list:
    """The ensemble blocks that :func:`full_grid` hands its runner, at the grid's fixed ``mflms_mu1``."""
    return [(lms_params(sc.lms_eta) if f is None else mflms_params(config.mflms_mu1, sc.alpha, f), sc)
            for _, f, sc in config.cells()]


def doubling_scan() -> list:
    """The scan's 14 values of ``mu1``: from 1e-4, doubled up to 0.5."""
    lo, hi = experiment._MU_BRACKET
    return [min(lo * 2**k, hi) for k in range(14)]


def scan_blocks(config: GridConfig) -> list:
    """Probe blocks of every calibrated cell's whole doubling scan of ``mu1``, as one round would hold them."""
    return [(mflms_params(mu1, sc.alpha, f),
             replace(sc, n_runs=config.calibration_runs, n_iters=sc.checkpoint_interval))
            for _, f, sc in config.cells() if f is not None for mu1 in doubling_scan()]


def first_scan_round(config: GridConfig) -> list:
    """The probe blocks of a grid's first scan round: the first request of every calibrated cell's scan."""
    blocks = []
    for _, f, sc in config.cells():
        if f is not None:
            search = experiment._mu1_search(sc, config.calibration_tolerance)
            next(search)  # the paired-LMS reference, answered with a curve still converging
            algorithm, n_iters = search.send(np.array([1.0, 0.1]))
            blocks.append((algorithm, replace(sc, n_runs=config.calibration_runs, n_iters=n_iters)))
    return blocks


class TestPlan:
    """The batch plan, checked without simulating."""

    @staticmethod
    def assert_valid(blocks, plan):
        n_runs = [sc.n_runs for _, sc in blocks]
        keys = [experiment._batch_key(*block) for block in blocks]
        runs = [[] for _ in blocks]
        for batch in plan:
            assert batch and len({keys[i] for i, _, _ in batch}) == 1
            for i, lo, hi in batch:
                assert lo < hi
                runs[i] += range(lo, hi)
        assert runs == [list(range(n)) for n in n_runs]  # every run once, in run order
        # Runs advance slice by slice, so the streams hold one slice at a time.
        firsts = [min(lo for _, lo, _ in batch) for batch in plan]
        assert firsts == sorted(firsts)
        for batch in plan:
            if keys.count(keys[batch[0][0]]) <= experiment._BATCH_ROWS:
                assert sum(hi - lo for _, lo, hi in batch) <= experiment._BATCH_ROWS

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the plan simulated or drew streams")

        monkeypatch.setattr(experiment, "_simulate", fail)
        monkeypatch.setattr(experiment, "_streams", fail)

    def test_default_grid_ensembles(self, no_simulation):
        # Four kernel branches of nine 1000-run cells, each in three slices
        # of 333 or 334 runs.
        blocks = grid_blocks(GridConfig(mflms_mu1=0.01))
        plan = experiment._plan(blocks)
        self.assert_valid(blocks, plan)
        rows = [sum(hi - lo for _, lo, hi in batch) for batch in plan]
        assert len(plan) == 12 and min(rows) == 2997 and max(rows) == 3006 and sum(rows) == 36000

    def test_default_grid_first_scan_round(self, no_simulation):
        # One probe per cell, each search's first scan point (mu1 = 1e-4):
        # three kernel branches of nine 200-run blocks, one batch each.
        blocks = first_scan_round(GridConfig())
        plan = experiment._plan(blocks)
        self.assert_valid(blocks, plan)
        assert [algorithm.mu1 for algorithm, _ in blocks] == [experiment._MU_BRACKET[0]] * 27
        assert [sum(hi - lo for _, lo, hi in batch) for batch in plan] == [1800] * 3
        # Every cell's whole scan in one round, 27 cells x 14 probes, in
        # three kernel branches of 126 blocks: seven even slices of 28 or
        # 29 runs of each block.
        blocks = scan_blocks(GridConfig())
        plan = experiment._plan(blocks)
        self.assert_valid(blocks, plan)
        assert len(blocks) == 27 * 14
        rows = [sum(hi - lo for _, lo, hi in batch) for batch in plan]
        assert len(rows) == 21 and set(rows) == {3528, 3654} and sum(rows) == 75600

    @pytest.mark.parametrize("batch_rows", [1, 2, 5, 10, 24, 4000])
    @pytest.mark.parametrize("n_iters", [300, 100], ids=["main", "calibration"])
    def test_uneven_blocks(self, no_simulation, monkeypatch, batch_rows, n_iters):
        # Blocks of unequal run counts in two kernel branches, as ensembles
        # or as probes (up to the first checkpoint) run them; at one or two
        # rows a batch, a branch holds more blocks than a batch has rows.
        monkeypatch.setattr(experiment, "_BATCH_ROWS", batch_rows)
        blocks = [(lms_params(0.01 * (k + 1)), scenario(n_runs=n, n_iters=n_iters))
                  for k, n in enumerate((5, 13, 1, 7))]
        blocks.insert(2, (mflms_params(0.01, 0.5, 0.25), scenario(n_runs=12, n_iters=n_iters)))
        blocks.append((mflms_params(0.02, 0.2, 0.25), scenario(n_runs=3, n_iters=n_iters)))
        plan = experiment._plan(blocks)
        self.assert_valid(blocks, plan)


class TestTrajectoryContract:
    def test_checkpoint_count(self):
        sc = scenario(n_iters=600, checkpoint_interval=100)
        nwd_ck, _, _ = simulate_one(lms_params(0.1), sc, [0])
        assert nwd_ck.shape == (1, 6)
        assert np.all(nwd_ck >= 0)
        assert np.all(np.isfinite(nwd_ck))

    def test_noiseless_truth_start_is_fixed_point(self):
        # Driving the filter by hand from the true weights with zero
        # noise: the error is identically zero and NWD stays at zero.
        state = FilterState(THETA_BC.copy(), THETA_BC.copy(), np.zeros(8))
        params = lms_params(0.1)
        for n in range(1, 301):
            u = regressor(FREQUENCIES, n)
            d = (u * THETA_BC).sum()
            state, err = step(state, u, d, params)
            assert err == 0.0
        assert nwd(state.w, THETA_BC) == 0.0

    def test_final_parameters_consistent(self):
        # The ensemble's final parameters are the mean of each run's final
        # weights in amplitude-phase form.
        sc = scenario()
        _, final_bc, frozen = simulate_one(lms_params(0.1), sc, range(sc.n_runs))
        assert not frozen.any()
        agg = run_monte_carlo(lms_params(0.1), sc)
        np.testing.assert_array_equal(agg.mean_final_theta_aphi, aphi_from_bc(final_bc).mean(axis=0))


class TestUfuncBuffer:
    """Batches step with the engine's ufunc buffer; the caller's numpy state is restored after."""

    CALLER_BUFSIZE = 4096

    @pytest.fixture
    def buffer_sizes(self, monkeypatch):
        # The buffer size each step of the engine saw, under a caller's own
        # buffer size and error state (restored after the test).
        seen = []

        def recording_step(*args, **kwargs):
            seen.append(np.getbufsize())
            return step(*args, **kwargs)

        monkeypatch.setattr(experiment, "step", recording_step)
        caller = np.setbufsize(self.CALLER_BUFSIZE)
        try:
            yield seen
        finally:
            np.setbufsize(caller)

    @pytest.mark.parametrize("call", [
        lambda: run_monte_carlo(lms_params(0.027), scenario(n_runs=5, n_iters=100)),
        lambda: calibrate_mu1(scenario(n_runs=5, n_iters=100), calibration_runs=5),
        lambda: full_grid(GridConfig(
            noise_levels=(0.30,), alphas=(0.2,), lms_etas=(0.027,), fractional_orders=(0.25,),
            n_runs=5, n_iters=100, checkpoint_interval=100, calibration_runs=5,
        )),
    ], ids=["run_monte_carlo", "calibrate_mu1", "full_grid"])
    def test_steps_see_the_engine_buffer_and_the_caller_gets_its_own_back(self, buffer_sizes, call):
        errors = np.geterr()
        call()
        assert buffer_sizes and set(buffer_sizes) == {experiment._UFUNC_BUFFER}
        assert np.getbufsize() == self.CALLER_BUFSIZE
        assert np.geterr() == errors

    def test_restored_when_a_step_raises(self, buffer_sizes, monkeypatch):
        recording_step = experiment.step

        def failing_step(*args, **kwargs):
            if len(buffer_sizes) == 3:
                raise RuntimeError("third step")
            return recording_step(*args, **kwargs)

        monkeypatch.setattr(experiment, "step", failing_step)
        errors = np.geterr()
        with pytest.raises(RuntimeError, match="third step"):
            simulate_one(lms_params(0.027), scenario(n_runs=5, n_iters=100), range(5))
        assert buffer_sizes == [experiment._UFUNC_BUFFER] * 3
        assert np.getbufsize() == self.CALLER_BUFSIZE
        assert np.geterr() == errors


class TestAggregation:
    def test_single_run_aggregate_equals_trajectory(self):
        sc = scenario(n_runs=1)
        nwd_ck, final_bc, frozen = simulate_one(lms_params(0.1), sc, [0])
        final_aphi = aphi_from_bc(final_bc[0])
        agg = run_monte_carlo(lms_params(0.1), sc)
        np.testing.assert_array_equal(agg.mean_nwd_at_checkpoints, nwd_ck[0])
        np.testing.assert_array_equal(agg.mean_final_theta_aphi, final_aphi)
        assert agg.mse_of_mean == pytest.approx(mse(final_aphi, THETA_APHI), rel=1e-15)
        assert agg.divergence_count == 0 and not frozen[0]

    def test_divergent_runs_recorded_and_excluded(self):
        # An unstable step size makes every run blow past the guard.
        sc = scenario(n_runs=6, n_iters=200)
        unstable = lms_params(3.0)
        _, _, frozen = simulate_one(unstable, sc, [0])
        assert frozen[0]
        with pytest.raises(AllRunsDivergedError):
            run_monte_carlo(unstable, sc)

    def test_frozen_run_keeps_in_bound_weights(self):
        _, final_bc, frozen = simulate_one(lms_params(3.0), scenario(n_runs=6, n_iters=200), [0])
        assert frozen[0]
        assert np.all(np.isfinite(final_bc[0]))
        assert np.all(np.abs(final_bc[0]) <= WEIGHT_LIMIT)

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

    @pytest.mark.parametrize("k", [1, 2, 8, 10])
    def test_means_over_slices_equal_whole_block_means(self, k):
        # k = 1 and 1-D quantities are summed pairwise, wider ones row by
        # row; either way slices of the rows give the whole block's bits.
        # Magnitudes spread over twelve decades make any other summation
        # order round differently.
        rng = np.random.default_rng(k)
        x = rng.standard_normal((500, k)) * 10.0 ** rng.integers(-6, 7, (500, k))
        per_run = rng.standard_normal(500) * 10.0 ** rng.integers(-6, 7, 500)
        frozen = rng.random(500) < 0.3
        alive = ~frozen
        whole = [x[alive].mean(axis=0), per_run[alive].mean(axis=0)]
        for cuts in ([], [1, 2, 250], [0, 499], [100, 100, 300]):
            means = experiment._Means()
            for part in np.split(np.arange(500), cuts):
                ok = alive[part]
                means.add(frozen[part], x[part][ok], per_run[part][ok])
            assert (means.runs, means.diverged) == (alive.sum(), frozen.sum())
            for got, want in zip(means.means(), whole, strict=True):
                np.testing.assert_array_equal(got, want)

    def test_means_fold_each_slice_in_place(self):
        # Adding a 1000 x 1000 slice allocates no copy of it: the running
        # sum goes into the slice's first row, with the whole block's bits.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2000, 1000))
        x *= 10.0 ** rng.integers(-6, 7, (2000, 1))
        x *= 10.0 ** rng.integers(-6, 7, 1000)
        whole = x.mean(axis=0)
        none_frozen = np.zeros(1000, dtype=bool)
        means = experiment._Means()
        means.add(none_frozen, x[:1000])
        tracemalloc.start()
        try:
            means.add(none_frozen, x[1000:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        np.testing.assert_array_equal(means.means()[0], whole)

    def test_slice_without_frozen_runs_is_not_copied(self):
        # An ensemble slice in which no run froze hands its fitness rows
        # to the means as they are.
        nwd_ck = np.random.default_rng(6).uniform(0.01, 0.4, (1000, 1000))
        final_bc = np.ones((1000, 8))
        whole = nwd_ck.mean(axis=0)
        means = experiment._Means()
        tracemalloc.start()
        try:
            experiment._add_finals(means, nwd_ck, final_bc, np.zeros(1000, dtype=bool))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        np.testing.assert_array_equal(means.means()[0], whole)

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

    def test_each_cell_searches_once(self, monkeypatch):
        # The lockstep prefetch runs each cell's search; the rows only
        # settle its record, so no search runs a second time.
        started = []
        real_search = experiment._mu1_search

        def counting_search(*args, **kwargs):
            started.append(args)
            return real_search(*args, **kwargs)

        monkeypatch.setattr(experiment, "_mu1_search", counting_search)
        calibrate_mu1(scenario(n_runs=10), calibration_runs=20)
        assert len(started) == 1
        config = GridConfig(
            noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
            fractional_orders=(0.25, 0.75), n_runs=10, n_iters=300, checkpoint_interval=100,
            calibration_runs=20,
        )
        started.clear()
        full_grid(config)
        assert len(started) == 4

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -0.05])
    def test_tolerance_out_of_range_rejected_before_simulating(self, monkeypatch, tolerance):
        # An infinite band would match any fitness at all.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting the tolerance")

        monkeypatch.setattr(experiment, "_simulate", no_simulation)
        with pytest.raises(ValueError, match=r"^tolerance: must lie in \(0, inf\), got "):
            calibrate_mu1(scenario(n_runs=10), tolerance=tolerance)
        # The driver checks its own inputs, for every caller.
        with pytest.raises(ValueError, match=r"^tolerance: must lie in \(0, inf\), got "):
            prefetch_calibration([scenario(n_runs=10)], tolerance, 20)
        with pytest.raises(ValueError, match=r"^calibration_tolerance: must lie in \(0, inf\), got "):
            GridConfig(calibration_tolerance=tolerance)

    def test_calibration_runs_must_be_an_integer(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting the run count")

        monkeypatch.setattr(experiment, "_simulate", no_simulation)
        for runs in (2.5, True):
            with pytest.raises(TypeError, match="^calibration_runs: must be an integer, got "):
                calibrate_mu1(scenario(n_runs=10), calibration_runs=runs)
            with pytest.raises(TypeError, match="^calibration_runs: must be an integer, got "):
                prefetch_calibration([scenario(n_runs=10)], CALIBRATION_TOLERANCE, runs)
        with pytest.raises(ValueError, match=r"^calibration_runs: must lie in \[1, inf\), got 0$"):
            prefetch_calibration([scenario(n_runs=10)], CALIBRATION_TOLERANCE, 0)

    def test_grid_block_simulates_its_reference_once(self, monkeypatch):
        # The three cells of a momentum block share one LMS reference:
        # it is simulated once (one block of a batch), yet every
        # calibration still asks for it.
        simulated, requested = [], []
        real_simulate, real_curve = experiment._simulate, experiment._calibration_curve

        def counting_simulate(algorithm, *args, **kwargs):
            simulated.extend((block.variant, kwargs.get("domain")) for block in algorithm)
            return real_simulate(algorithm, *args, **kwargs)

        def recording_curve(algorithm, *args, **kwargs):
            curve = real_curve(algorithm, *args, **kwargs)
            requested.append((algorithm.variant, curve))
            return curve

        monkeypatch.setattr(experiment, "_simulate", counting_simulate)
        monkeypatch.setattr(experiment, "_calibration_curve", recording_curve)
        config = GridConfig(
            noise_levels=(0.30,), alphas=(0.2,), lms_etas=(0.027,),
            n_runs=10, n_iters=200, checkpoint_interval=100, calibration_runs=20,
        )
        full_grid(config)
        assert simulated.count((Variant.LMS, experiment._DOMAIN_CALIBRATION)) == 1
        references = [curve for variant, curve in requested if variant is Variant.LMS]
        assert len(references) == 3
        assert all(curve is references[0] for curve in references)
        assert not references[0].flags.writeable

    def test_closest_mode_returns_value(self):
        sc = scenario(alpha=0.0, mflms_muf=0.0, n_iters=300, n_runs=30)
        mu1 = prefetch_calibration([sc], 1e-12, 30)[0].settle("closest")
        assert 1e-4 <= mu1 <= 0.5
        assert mu1 == pytest.approx(sc.lms_eta, rel=0.05)

    def test_closest_after_bisection_warns(self, caplog):
        # The bisection misses the tolerance: its last midpoint is used,
        # and the fallback is logged as the bracket fallback is.
        sc = scenario(alpha=0.0, mflms_muf=0.0, n_iters=300, n_runs=30)
        with caplog.at_level(logging.WARNING, logger="lmslab.experiment"):
            mu1 = prefetch_calibration([sc], 1e-12, 30)[0].settle("closest")
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        miss, fallback = record.getMessage().split("; ")
        assert miss.startswith(f"bisection converged to mu1={mu1:.4g} but its fitness ")
        assert fallback.startswith(f"using closest (mu1={mu1:.4g}, fitness ")
        with pytest.raises(CalibrationError) as raised:
            calibrate_mu1(sc, calibration_runs=30, tolerance=1e-12)
        assert str(raised.value) == miss

    # Cells on the transient branch (alpha 0.2) and on the steady-state
    # branch (alpha 0.8); at this tolerance the bisection of the cell
    # alpha 0.8, f 0.25 misses and falls back to "closest".
    LOCKSTEP_GRID = GridConfig(
        noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
        fractional_orders=(0.25, 0.75), n_runs=10, n_iters=300, checkpoint_interval=100,
        calibration_runs=20, calibration_tolerance=1e-4,
    )

    @pytest.mark.parametrize("blocks_per_batch", [None, 3])
    def test_lockstep_grid_equals_sequential_calibration(self, monkeypatch, caplog, blocks_per_batch):
        # The grid simulates every cell's probes in shared batches, then
        # settles each cell's record: the calibrated mu1, every probed mu1
        # in order and every curve equal per-cell calibrations without a
        # shared prefetch, and every curve equals its probe's own
        # simulation, at the cell and protocol its record names.
        config = self.LOCKSTEP_GRID
        if blocks_per_batch is not None:
            monkeypatch.setattr(experiment, "_BATCH_ROWS", blocks_per_batch * config.calibration_runs)
        calls = []
        real_curve = experiment._calibration_curve

        def recording_curve(algorithm, curve):
            curve = real_curve(algorithm, curve)
            calls.append((algorithm, curve))
            return curve

        monkeypatch.setattr(experiment, "_calibration_curve", recording_curve)
        with caplog.at_level(logging.WARNING, logger="lmslab.experiment"):
            entries = full_grid(config)
        assert [r.getMessage().startswith("bisection converged") for r in caplog.records] == [True]
        grid_calls, calls[:] = calls[:], []
        cells = [sc for _, f, sc in config.cells() if f is not None]
        expected = [
            prefetch_calibration([sc], config.calibration_tolerance, config.calibration_runs)[0].settle("closest")
            for sc in cells
        ]
        assert [e.step_size for e in entries if e.f is not None] == expected
        assert [a.mu1 for a, _ in grid_calls] == [a.mu1 for a, _ in calls]
        for (_, got), (_, want) in zip(grid_calls, calls, strict=True):
            np.testing.assert_array_equal(got, want)
        # The reference runs the cell's n_iters, a probe up to its first
        # checkpoint, both calibration_runs runs at the cell's protocol.
        grid_reads = iter(grid_calls)
        records = prefetch_calibration(cells, config.calibration_tolerance, config.calibration_runs)
        for sc, record in zip(cells, records, strict=True):
            cal = replace(sc, n_runs=config.calibration_runs)
            for j, (algorithm, _) in enumerate(record.reads):
                read, got = next(grid_reads)
                assert read == algorithm and (algorithm.variant is Variant.LMS) == (j == 0)
                n_iters = cal.n_iters if j == 0 else int(cal.checkpoints[0])
                nwd_ck, _, frozen = simulate_one(
                    algorithm, cal, range(cal.n_runs), domain=experiment._DOMAIN_CALIBRATION, n_iters=n_iters
                )
                alive = ~frozen
                want = nwd_ck[alive].mean(axis=0) if alive.any() else np.full(nwd_ck.shape[1], math.inf)
                np.testing.assert_array_equal(got, want)
        assert next(grid_reads, None) is None
        references = [curve for a, curve in calls if a.variant is Variant.LMS]
        assert {bool(c[0] > experiment._CONVERGED_RATIO * c[-1]) for c in references} == {True, False}


def eager_search(h, reference, tolerance):
    """The search's rules with every scan point read first: ``((mu1, fitness, miss), probes, bracket)``.

    It reads all 14 scan points, takes the first crossing of the target
    from above (descending) or the last crossing of the band's upper
    level from below (ascending), then bisects; ``bracket`` indexes the
    scan point that closes the crossing (None without one).
    """
    target = float(reference[0])
    if not math.isfinite(target):
        return (None, math.inf, "the reference LMS ensemble diverged"), [], None
    grid = doubling_scan()
    values = [h(mu1) for mu1 in grid]
    probes = list(grid)
    descending = target > experiment._CONVERGED_RATIO * float(reference[-1])
    if descending:
        level = target
        bracket = next((i for i in range(1, len(grid)) if values[i - 1] > target >= values[i]), None)
    else:
        level = target * (1 + 0.8 * tolerance)
        crossings = [i for i in range(1, len(grid)) if values[i - 1] <= level < values[i]]
        bracket = crossings[-1] if crossings else None
    if bracket is None:
        finite = [(mu1, v) for mu1, v in zip(grid, values) if math.isfinite(v)]
        mu1, v = min(finite, key=lambda t: abs(t[1] - target), default=(None, math.inf))
        miss = None if mu1 is not None and abs(v - target) <= tolerance * target else (
            f"no mu1 in [0.0001, 0.5] matches the reference fitness {target:.4g} within {100 * tolerance:g}%")
        return (mu1, v, miss), probes, None
    a, b = grid[bracket - 1], grid[bracket]
    for _ in range(60):
        mid = 0.5 * (a + b)
        probes.append(mid)
        v = h(mid)
        if (v > level) == descending:
            a = mid
        else:
            b = mid
        if (b - a) <= 1e-4 * b:
            break
    miss = None if abs(v - target) <= tolerance * target else (
        f"bisection converged to mu1={mid:.4g} but its fitness {v:.4g} "
        f"misses the reference {target:.4g} by more than {100 * tolerance:g}%")
    return (mid, v, miss), probes, bracket


def scan_fitness(values):
    """A fitness of ``mu1`` that reads ``values`` at the scan points and interpolates between them.

    Between two scan points it is linear in ``mu1``, or the nearer
    point's value when either is infinite.
    """
    grid = doubling_scan()

    def h(mu1):
        i = int(np.searchsorted(grid, mu1))
        if grid[i] == mu1:
            return values[i]
        t = (mu1 - grid[i - 1]) / (grid[i] - grid[i - 1])
        if math.isinf(values[i - 1]) or math.isinf(values[i]):
            return values[i - 1] if t < 0.5 else values[i]
        return values[i - 1] + t * (values[i] - values[i - 1])

    return h


def lazy_search(h, reference, tolerance):
    """``_mu1_search`` sent ``reference``, then ``h`` of each probe: its result and the probed ``mu1``."""
    sc = scenario()
    search = experiment._mu1_search(sc, tolerance)
    probes = []
    algorithm, n_iters = next(search)
    assert (algorithm, n_iters) == (lms_params(sc.lms_eta), sc.n_iters)
    curve = reference
    try:
        while True:
            algorithm, n_iters = search.send(curve)
            assert algorithm == mflms_params(algorithm.mu1, sc.alpha, sc.f) and n_iters == sc.checkpoint_interval
            probes.append(algorithm.mu1)
            curve = np.array([h(algorithm.mu1)])
    except StopIteration as done:
        return done.value, probes


@st.composite
def search_cases(draw):
    """``(reference, tolerance, values)``: a reference curve, a tolerance and the 14 scan points' fitness.

    The scan points read the branch's level times a factor: exactly 1,
    infinite (every probe run diverged), or drawn on either side of it;
    some scans lie wholly on one side, so the search falls back.
    """
    tolerance = draw(st.sampled_from([0.05, 0.2, 1e-3]))
    target = math.inf if draw(st.integers(0, 15)) == 0 else draw(st.floats(0.05, 5.0))
    # The final reference value sets the branch: a ratio above 1.2 is descending.
    final = target / draw(st.sampled_from([2.0, 1.2, 1.1, 1.0]))
    descending = target > experiment._CONVERGED_RATIO * final
    level = target if descending else target * (1 + 0.8 * tolerance)
    side = draw(st.sampled_from(["both", "above", "below"]))
    factors = {
        "both": st.sampled_from([1.0, math.inf]) | st.floats(0.3, 3.0),
        "above": st.just(math.inf) | st.floats(1.0, 1.3, exclude_min=True),
        "below": st.floats(0.7, 1.0),
    }[side]
    values = [level * factor for factor in draw(st.lists(factors, min_size=14, max_size=14))]
    return np.array([target, final]), tolerance, values


def search_case(target, final, tolerance, factors, level=None):
    """An explicit :func:`search_cases` example: ``level`` defaults to the branch's own."""
    descending = target > experiment._CONVERGED_RATIO * final
    level = level or (target if descending else target * (1 + 0.8 * tolerance))
    return np.array([target, final]), tolerance, [level * x for x in factors]


INF = math.inf


class TestSearchAgainstEagerScan:
    """``_mu1_search`` against the same rules with the whole scan read first: synthetic fitness, no simulation."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(search_cases())
    # Descending: a scan point equal to the target closes the crossing.
    @example(search_case(1.0, 0.5, 0.05, [3, 2, 1.0, 0.5, 2, 0.7, 3, 1, 0.4, 2, INF, 0.5, INF, 3]))
    # Descending: a first point below the target, then a crossing from above.
    @example(search_case(1.0, 0.5, 0.05, [0.5, 2, 0.5, 2, INF, INF, 0.2, 2, 3, 1, 0.4, 2, 0.5, 3]))
    # Ascending: several crossings, infinite points among them.
    @example(search_case(1.0, 1.0, 0.05, [0.5, 2, 0.5, 1.0, INF, 0.9, 1.5, 0.2, INF, 3, 1, 1.1, 0.5, 4]))
    # The reference diverged.
    @example(search_case(INF, INF, 0.05, [1.0] * 14, level=1.0))
    # No crossing: a fallback on each branch, within the band and not.
    @example(search_case(1.0, 0.5, 0.05, [INF, 1.3, 1.02, 1.2] + [INF] * 10))
    @example(search_case(1.0, 0.5, 0.05, [INF, 1.3, 1.2] + [INF] * 11))
    @example(search_case(1.0, 1.0, 0.05, [0.9, 0.97, 0.8, 1.0, 0.6] + [0.5] * 9))
    @example(search_case(1.0, 1.0, 0.05, [0.5] * 14))
    # Every scan probe diverged.
    @example(search_case(1.0, 0.5, 0.05, [INF] * 14))
    def test_same_result_and_probes_up_to_the_bracket(self, drawn):
        reference, tolerance, values = drawn
        h = scan_fitness(values)
        want, eager_probes, bracket = eager_search(h, reference, tolerance)
        got, probes = lazy_search(h, reference, tolerance)
        assert got == want
        descending = reference[0] > experiment._CONVERGED_RATIO * reference[-1]
        if descending and bracket is not None:
            # The scan stops at the bracket; no point past it is probed.
            grid = doubling_scan()
            assert eager_probes[:14] == grid
            assert probes == grid[:bracket + 1] + eager_probes[14:]
            assert not set(probes) & set(grid[bracket + 1:])
        else:
            assert probes == eager_probes


def documented_mu1() -> dict:
    """The calibrated ``mu1`` table of ``docs/reproduction_notes.md``: ``(level, alpha, f) -> text``."""
    notes = (Path(__file__).resolve().parents[1] / "docs" / "reproduction_notes.md").read_text()
    section = notes.split("## Calibrated step sizes", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in section.splitlines() if line.startswith("|")]
    header, body = rows[0], rows[2:]
    blocks = [re.fullmatch(r"a=([\d.]+), f=([\d./]+)", cell).groups() for cell in header[1:]]
    table = {}
    for level, *cells in body:
        for (alpha, orders), cell in zip(blocks, cells, strict=True):
            for f, value in zip(orders.split("/"), cell.split(" / "), strict=True):
                table[float(level), float(alpha), float(f)] = value
    return table


class TestCalibrationOracle:
    """The default grid's calibration, checked against the documented table and the naive engine."""

    def test_default_grid_matches_the_notes_and_a_naive_resimulation(self):
        config = GridConfig()
        cells = [(level, sc) for level, f, sc in config.cells() if f is not None]
        records = prefetch_calibration([sc for _, sc in cells], config.calibration_tolerance, config.calibration_runs)
        documented = documented_mu1()
        assert len(records) == len(documented) == 27
        # A descending cell (a <= 0.5) reads the reference, the scan up to its
        # bracket (8 points, to 0.0128) and 13 midpoints; an ascending cell
        # (a = 0.8) reads all 14 scan points.
        reads = [len(record.reads) for record in records]
        assert reads == [28 if sc.alpha == 0.8 else 22 for _, sc in cells]
        assert sum(reads) == 648

        def fitness(algorithm, sc):
            # Mean NWD at the target (first) checkpoint over the in-bound
            # calibration runs, re-simulated by the naive oracle.
            sc = replace(sc, n_runs=config.calibration_runs, n_iters=sc.checkpoint_interval)
            nwd_ck, _, frozen = naive_simulate(algorithm, sc, range(sc.n_runs), experiment._DOMAIN_CALIBRATION)
            return float(nwd_ck[~frozen, 0].mean())

        tolerance = config.calibration_tolerance
        ascending = []
        for (level, sc), record in zip(cells, records):
            assert record.miss is None
            assert f"{record.mu1:.5f}" == documented[level, sc.alpha, sc.f], (level, sc.alpha, sc.f)
            target = fitness(lms_params(sc.lms_eta), sc)
            excess = fitness(mflms_params(record.mu1, sc.alpha, sc.f), sc) / target - 1
            assert abs(excess) <= tolerance, (level, sc.alpha, sc.f, excess)
            # A step 5% larger leaves the band (at the default grid every
            # cell then reads 1.46 to 2.57 tolerances off; 3% larger leaves
            # one cell inside), so the match is not one of a wide plateau.
            over = fitness(mflms_params(record.mu1 * 1.05, sc.alpha, sc.f), sc) / target - 1
            assert abs(over) > tolerance, (level, sc.alpha, sc.f, over)
            if sc.alpha == 0.8:
                ascending.append(excess / tolerance)
        # At a=0.8 the reference is already at steady state, so the search
        # takes the upper part of the band: the fastest-converging match.
        assert len(ascending) == 9
        assert all(0.5 <= x <= 1.0 for x in ascending), ascending

    def test_ascending_steps_sit_below_the_first_frozen_scan_probe(self):
        # Past the stability edge a probe's fitness is the mean over the
        # runs that stayed in bounds, so it is not monotone in mu1, and the
        # ascending branch (a=0.8) takes the last crossing of the band's
        # upper level: it relies on no scan probe past the edge reading
        # below that level.  At seed 42 the steps read 0.0086-0.0102, and
        # the first scan probes with a frozen run 0.0512 (164-197 of 200
        # runs frozen) or 0.1024 (all 200).
        config = GridConfig()
        cells = [sc for _, f, sc in config.cells() if f is not None and sc.alpha == 0.8]
        records = prefetch_calibration(cells, config.calibration_tolerance, config.calibration_runs)
        assert len(records) == 9
        for sc, record in zip(cells, records):
            scan = [algorithm for algorithm, _ in record.reads[1:15]]
            assert [a.mu1 for a in scan] == doubling_scan()
            frozen = [
                simulate_one(algorithm, sc, range(config.calibration_runs),
                             domain=experiment._DOMAIN_CALIBRATION, n_iters=sc.checkpoint_interval)[2].any()
                for algorithm in scan
            ]
            assert any(frozen), sc
            first = scan[frozen.index(True)].mu1
            assert record.miss is None and record.mu1 < first, (sc, record.mu1, first)


class TestPairedVerdict:
    """The paper's verdict, no advantage of mFLMS over LMS, as a paired statistic in every cell."""

    # Seed 42 is the grid's own; at 200 runs the smallest z read 6.1 and
    # 8.4 at these seeds, 7.2 at 42 and 5.7 at 2024.
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_mflms_late_error_exceeds_the_paired_lms(self, seed):
        # A cell's mFLMS ensemble, at its documented mu1, and the paired LMS
        # ensemble read the same runs' streams, so their per-run late NWD
        # (checkpoints 300-1000) pair up; runs frozen in either are left out.
        documented = documented_mu1()
        lms = {}
        zs = []
        for level, f, sc in GridConfig(n_runs=200, base_seed=seed).cells():
            if f is None:
                continue
            if (level, sc.alpha) not in lms:
                lms[level, sc.alpha] = simulate_one(lms_params(sc.lms_eta), sc, range(sc.n_runs))
            reference = lms[level, sc.alpha]
            mu1 = float(documented[level, sc.alpha, f])
            mflms = simulate_one(mflms_params(mu1, sc.alpha, f), sc, range(sc.n_runs))
            late = sc.checkpoints >= 300
            kept = ~(reference[2] | mflms[2])
            excess = (mflms[0][kept][:, late] - reference[0][kept][:, late]).mean(axis=1)
            zs.append(excess.mean() / (excess.std(ddof=1) / math.sqrt(len(excess))))
        assert len(zs) == 27
        assert min(zs) >= 3, zs


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

    @pytest.mark.parametrize("field, value", [
        ("calibration_tolerance", 0.0),
        ("calibration_tolerance", math.nan),
        ("calibration_runs", 0),
        ("noise_levels", (0.30, -0.30)),
        ("noise_levels", (math.nan,)),
        ("noise_levels", (0.301, 0.304)),  # both labelled 0.30
        ("noise_levels", (0.30, 0.30)),
        ("fractional_orders", (0.251, 0.254)),  # both labelled 0.25
        ("alphas", (0.2, 0.2000001, 0.8)),  # two labelled a=0.2
        ("lms_etas", (0.027, 0.02700001, 0.1)),  # two labelled eta=0.027
    ])
    def test_bad_grid_value_rejected_before_simulating(self, monkeypatch, field, value):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting the grid")

        monkeypatch.setattr(experiment, "_simulate", no_simulation)
        with pytest.raises(ValueError, match=field):
            full_grid(GridConfig(n_runs=2, n_iters=100, checkpoint_interval=100, **{field: value}))

    @pytest.mark.parametrize("values, message", [
        ({"alphas": (1.5,), "lms_etas": (0.1,)}, "alphas: must lie in [0, 1), got 1.5"),
        ({"n_runs": 0}, "n_runs: must lie in [1, inf), got 0"),
        ({"n_iters": 0}, "n_iters: must lie in [1, inf), got 0"),
        ({"fractional_orders": (1.0,)}, "fractional_orders: must lie in (0, 1), got 1.0"),
        ({"lms_etas": (0.027, 0.0, 0.1)}, "lms_etas: must lie in (0, inf), got 0.0"),
        ({"mflms_mu1": -0.01}, "mflms_mu1: must lie in (0, inf), got -0.01"),
        ({"base_seed": 2**64}, f"base_seed: must lie in [0, {2**64}), got {2**64}"),
        ({"metric_space": "nonsense"}, "not a valid MetricSpace"),
        ({"noise_levels": ()}, "grid axes must be non-empty"),
        ({"alphas": (), "lms_etas": ()}, "grid axes must be non-empty"),
        ({"fractional_orders": ()}, "grid axes must be non-empty"),
    ])
    def test_grid_checks_its_cells_when_built(self, values, message):
        # The grid checks its fields against the ranges its cells' fields
        # have (a grid axis value by value), naming the grid's field, as it
        # is constructed, not when its cells are first listed.
        with pytest.raises(ValueError, match=re.escape(message)):
            GridConfig(**values)

    @pytest.mark.parametrize("field, value", [
        ("n_runs", 2.5),
        ("n_iters", 1000.0),
        ("base_seed", True),
        ("calibration_runs", 2.5),
        ("calibration_runs", False),
        # A grid axis is a sequence: not a scalar, and not text, whose
        # characters would otherwise be read as its values.
        ("noise_levels", 0.3),
        ("alphas", "0.2"),
        ("fractional_orders", b"0.25"),
    ])
    def test_grid_counts_and_seeds_must_be_integers(self, field, value):
        kind = "a sequence of numbers" if isinstance(getattr(GridConfig, field), tuple) else "an integer"
        with pytest.raises(TypeError, match=f"^{field}: must be {kind}, got {re.escape(repr(value))}$"):
            GridConfig(**{field: value})

    def test_grid_holds_axes_as_tuples_and_metric_space_as_enum(self):
        config = GridConfig(noise_levels=[0.3], alphas=[0.2], lms_etas=[0.027], fractional_orders=[0.25],
                            metric_space="bc")
        assert (config.noise_levels, config.alphas, config.lms_etas, config.fractional_orders) == (
            (0.3,), (0.2,), (0.027,), (0.25,))
        assert config.metric_space is MetricSpace.BC
        hash(config)

    # At mu1 0.16 some runs of the alpha 0.2, f 0.25 cells freeze (5, 6
    # and 9 of 12 at the three noise levels) and no other run does.
    FREEZING_GRID = GridConfig(
        noise_levels=(0.30, 0.60, 0.90), alphas=(0.1, 0.2), lms_etas=(0.027, 0.1),
        fractional_orders=(0.25, 0.75), mflms_mu1=0.16, n_runs=12, n_iters=200, checkpoint_interval=100,
    )

    @staticmethod
    def assert_whole_block_aggregates(entries, n_runs):
        """Every field of every row equals its cell's whole-block ensemble, reduced at once, bit for bit."""
        counts = [e.aggregate.divergence_count for e in entries]
        assert min(counts) == 0 and 0 < max(counts) < n_runs
        for entry in entries:
            algorithm = (lms_params(entry.step_size) if entry.f is None
                         else mflms_params(entry.step_size, entry.alpha, entry.f))
            nwd_ck, final_bc, frozen = simulate_one(algorithm, entry.scenario, range(n_runs))
            alive = ~frozen
            final_aphi = aphi_from_bc(final_bc[alive])
            got = entry.aggregate
            np.testing.assert_array_equal(got.mean_nwd_at_checkpoints, nwd_ck[alive].mean(axis=0))
            np.testing.assert_array_equal(got.mean_final_theta_aphi, final_aphi.mean(axis=0))
            assert got.mse_of_mean == mse(final_aphi.mean(axis=0), THETA_APHI)
            assert got.mean_per_run_mse == np.mean(mse(final_aphi, THETA_APHI))
            assert got.divergence_count == frozen.sum()

    @pytest.mark.parametrize("blocks_per_batch", [1, 2, 6])
    def test_lockstep_ensembles_equal_per_cell_ensembles(self, monkeypatch, blocks_per_batch):
        # Each kernel branch has six cells, which share every batch;
        # whether a cell's ensemble runs in six, three or one slice of
        # runs, its row is bit-equal to the cell's own single-block
        # simulation.
        config = self.FREEZING_GRID
        monkeypatch.setattr(experiment, "_BATCH_ROWS", blocks_per_batch * config.n_runs)
        self.assert_whole_block_aggregates(full_grid(config), config.n_runs)

    @pytest.mark.parametrize("checkpoint_interval", [100, 200])  # 200: one checkpoint, averaged pairwise
    @pytest.mark.parametrize("batch_rows, slices", [
        (6 * 13, [13]), (6 * 7, [6, 7]), (6 * 5, [4, 4, 5]), (6 * 4, [3, 3, 3, 4]),
    ])
    def test_sliced_ensembles_equal_whole_blocks(self, monkeypatch, batch_rows, slices, checkpoint_interval):
        # Each kernel branch's six 13-run ensembles run in one, two, three
        # or four slices of runs, even or not; the branches advance slice
        # by slice, and every row equals its cell's whole block.
        config = replace(self.FREEZING_GRID, n_runs=13, checkpoint_interval=checkpoint_interval)
        monkeypatch.setattr(experiment, "_BATCH_ROWS", batch_rows)
        calls = self.main_domain_blocks(monkeypatch)
        entries = full_grid(config)
        assert [[sc.n_runs for _, sc in blocks] for blocks in calls] == [[n] * 6 for n in slices for _ in range(3)]
        self.assert_whole_block_aggregates(entries, config.n_runs)

    @staticmethod
    def main_domain_blocks(monkeypatch):
        """Record the blocks of every main-domain ``_simulate`` call, one list per call."""
        calls = []
        real_simulate = experiment._simulate

        def recording_simulate(algorithm, scenario, *args, **kwargs):
            if kwargs.get("domain", experiment._DOMAIN_MAIN) == experiment._DOMAIN_MAIN:
                calls.append(list(zip(algorithm, scenario)))
            return real_simulate(algorithm, scenario, *args, **kwargs)

        monkeypatch.setattr(experiment, "_simulate", recording_simulate)
        return calls

    def test_default_shape_grid_runs_one_call_per_batch(self, monkeypatch):
        # 36 ensembles of 20 runs in four kernel branches (LMS and one
        # per fractional order): four batches of nine 20-run blocks.
        calls = self.main_domain_blocks(monkeypatch)
        config = GridConfig(mflms_mu1=0.011, n_runs=20, n_iters=100, checkpoint_interval=100)
        entries = full_grid(config)
        assert len(entries) == 36
        assert [len(blocks) for blocks in calls] == [9] * 4

    def test_all_diverged_ensemble_raises_at_its_row(self, caplog):
        # At mu1 0.05 every run of the alpha 0.8 cells diverges: the first
        # of them (row 3) raises after the lines of rows 0-2 and before any
        # later line, as running the cells one by one does.
        cells = list(self.DIVERGING_GRID.cells())
        with pytest.raises(AllRunsDivergedError):
            run_monte_carlo(mflms_params(0.05, 0.8, 0.25), cells[3][2])
        self.assert_row_3_raises(caplog)

    def test_all_diverged_sliced_ensemble_raises_at_its_row(self, monkeypatch, caplog):
        # The same grid with each kernel branch in three slices of four
        # runs: the row still raises when its last slice has diverged too.
        monkeypatch.setattr(experiment, "_BATCH_ROWS", 8)
        calls = self.main_domain_blocks(monkeypatch)
        self.assert_row_3_raises(caplog)
        assert [[sc.n_runs for _, sc in blocks] for blocks in calls] == [[4, 4]] * 9

    DIVERGING_GRID = GridConfig(
        noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
        fractional_orders=(0.25, 0.75), mflms_mu1=0.05, n_runs=12, n_iters=200, checkpoint_interval=100,
    )

    def assert_row_3_raises(self, caplog):
        with caplog.at_level(logging.INFO, logger="lmslab.experiment"):
            with pytest.raises(AllRunsDivergedError):
                full_grid(self.DIVERGING_GRID)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(" step=")[0] for line in lines] == [
            "scenario sigma=0.30 alpha=0.2 f=0.25",
            "scenario sigma=0.30 alpha=0.2 f=0.75",
            "scenario sigma=0.30 alpha=0.2 lms",
        ]

    def test_uncalibrated_cell_raises_at_its_row(self, monkeypatch, caplog):
        # With the bracket narrowed to [0.05, 0.5], every scan probe of
        # the alpha 0.8, f 0.25 cell diverges: that cell raises
        # CalibrationError at its row (3), after the lines of rows 0-2,
        # and its ensemble is never simulated.
        monkeypatch.setattr(experiment, "_MU_BRACKET", (0.05, 0.5))
        calls = self.main_domain_blocks(monkeypatch)
        config = GridConfig(
            noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
            fractional_orders=(0.25, 0.75), n_runs=12, n_iters=200, checkpoint_interval=100,
            calibration_runs=20,
        )
        with caplog.at_level(logging.INFO, logger="lmslab.experiment"):
            with pytest.raises(CalibrationError, match="no mu1 in"):
                full_grid(config)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert [line.split(" step=")[0] for line in lines] == [
            "scenario sigma=0.30 alpha=0.2 f=0.25",
            "scenario sigma=0.30 alpha=0.2 f=0.75",
            "scenario sigma=0.30 alpha=0.2 lms",
        ]
        failing = list(config.cells())[3][2]
        mflms_blocks = [sc for blocks in calls for a, sc in blocks if a.variant is not Variant.LMS]
        assert len(mflms_blocks) >= 2 and failing not in mflms_blocks


def _axis(values):
    """Draws of 1 or 2 values from ``values``, as a tuple."""
    return st.lists(values, min_size=1, max_size=2).map(tuple)


@st.composite
def tiny_grids(draw):
    """A tiny grid's keyword arguments, its axes over their whole ranges."""
    alphas = draw(_axis(st.floats(0, 1, exclude_max=True)))
    interval = draw(st.integers(1, 3))
    return dict(
        noise_levels=draw(_axis(st.floats(0, 1.7e308))),
        noise_scale=draw(st.sampled_from(experiment.NOISE_SCALES)),
        alphas=alphas,
        lms_etas=draw(st.lists(st.floats(0, 1.7e308, exclude_min=True), min_size=len(alphas),
                               max_size=len(alphas)).map(tuple)),
        fractional_orders=draw(_axis(st.floats(0, 1, exclude_min=True, exclude_max=True))),
        mflms_mu1=draw(st.none() | st.floats(0, 1e300, exclude_min=True)),
        n_runs=draw(st.integers(1, 3)),
        n_iters=interval * draw(st.integers(1, 3)),
        checkpoint_interval=interval,
        base_seed=draw(st.integers(0, 2**64 - 1)),
        metric_space=draw(st.sampled_from(MetricSpace)),
        calibration_runs=draw(st.integers(1, 3)),
        calibration_tolerance=draw(st.floats(1e-3, 1e3)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(tiny_grids())
def test_accepted_grid_gives_finite_tables_or_a_library_error(values):
    # Any value the grid accepts, up to the largest floats, yields finite
    # rows, or a named error: no calibration matches, or every run of a
    # cell diverged.  Never a NaN table or an unnamed numpy failure.
    try:
        config = GridConfig(**values)
    except ValueError:  # two values sharing an output label
        reject()
    try:
        entries = full_grid(config)
    except (CalibrationError, AllRunsDivergedError):
        return
    for entry in entries:
        got = entry.aggregate
        assert math.isfinite(entry.step_size)
        assert np.isfinite(got.mean_nwd_at_checkpoints).all() and np.isfinite(got.mean_final_theta_aphi).all()
        assert math.isfinite(got.mse_of_mean) and math.isfinite(got.mean_per_run_mse)
