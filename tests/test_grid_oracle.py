"""The whole grid against a naive pipeline, file for file and bit for bit.

``naive_full_grid`` runs each cell on its own, in table row order: runs
come from ``naive_simulate`` (fresh per-run seeding, noise drawn at full
scale, no stream windows, no batches, no compaction), each cell's step
size from its own ``_mu1_search`` driven one request at a time on naive
curves, and every mean is ``x.mean(axis=0)``.  ``lmslab grid`` batches,
slices, calibrates in lockstep and compacts, and must still write the
same files, or fail at the same row with the same error.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from lmslab import experiment
from lmslab.cli import main
from lmslab.experiment import (
    AggregateResult,
    AllRunsDivergedError,
    CalibrationError,
    GridConfig,
    GridEntry,
    lms_params,
    mflms_params,
)
from lmslab.metrics import MetricSpace, mse
from lmslab.reporting import write_grid_outputs
from lmslab.signal_model import THETA_APHI, aphi_from_bc
from test_experiment import naive_simulate


def naive_curve(algorithm, scenario, n_iters: int, calibration_runs: int) -> np.ndarray:
    """A calibration curve: the mean fitness of the in-bound probe runs, inf at every checkpoint if none."""
    sc = replace(scenario, n_runs=calibration_runs, n_iters=n_iters)
    nwd_ck, _, frozen = naive_simulate(algorithm, sc, range(sc.n_runs), experiment._DOMAIN_CALIBRATION)
    return nwd_ck[~frozen].mean(axis=0) if not frozen.all() else np.full(nwd_ck.shape[1], math.inf)


def naive_mu1(scenario, config: GridConfig) -> float:
    """The cell's step size: its search alone, sent naive curves, settled as a grid settles (closest on a miss)."""
    search = experiment._mu1_search(scenario, config.calibration_tolerance)
    algorithm, n_iters = next(search)
    try:
        while True:
            algorithm, n_iters = search.send(naive_curve(algorithm, scenario, n_iters, config.calibration_runs))
    except StopIteration as done:
        mu1, _, miss = done.value
    if mu1 is None:
        raise CalibrationError(miss)
    return mu1


def naive_aggregate(algorithm, scenario) -> AggregateResult:
    """The cell's ensemble in one naive batch, averaged over its in-bound runs."""
    nwd_ck, final_bc, frozen = naive_simulate(algorithm, scenario, range(scenario.n_runs))
    if frozen.all():
        raise AllRunsDivergedError("every run in the ensemble diverged")
    final_aphi = aphi_from_bc(final_bc[~frozen])
    mean_aphi = final_aphi.mean(axis=0)
    return AggregateResult(
        mean_nwd_at_checkpoints=nwd_ck[~frozen].mean(axis=0),
        mean_final_theta_aphi=mean_aphi,
        mse_of_mean=float(mse(mean_aphi, THETA_APHI)),
        mean_per_run_mse=float(mse(final_aphi, THETA_APHI).mean(axis=0)),
        divergence_count=int(frozen.sum()),
    )


def naive_full_grid(config: GridConfig, out_dir) -> None:
    """Run every cell of ``config`` on its own, in row order, and write the grid's files to ``out_dir``."""
    entries = []
    for level, f, sc in config.cells():
        if f is None:
            algorithm = lms_params(sc.lms_eta)
        else:
            mu1 = naive_mu1(sc, config) if config.mflms_mu1 is None else config.mflms_mu1
            algorithm = mflms_params(mu1, sc.alpha, f, sc.mflms_muf)
        entries.append(GridEntry.of(level, algorithm, sc, naive_aggregate(algorithm, sc)))
    write_grid_outputs(entries, out_dir)


def _values(draw, choices, size):
    return tuple(draw(st.lists(st.sampled_from(choices), min_size=size, max_size=size, unique=True)))


@st.composite
def oracle_grids(draw):
    """A tiny grid's keyword arguments and a batch cap, most of them small enough to slice its ensembles."""
    n_alphas = draw(st.integers(1, 2))
    interval = draw(st.sampled_from([10, 20]))
    values = dict(
        noise_levels=_values(draw, [0.3, 0.6, 0.9], draw(st.integers(1, 2))),
        noise_scale=draw(st.sampled_from(experiment.NOISE_SCALES)),
        alphas=_values(draw, [0.0, 0.2, 0.5, 0.8], n_alphas),
        lms_etas=_values(draw, [0.027, 0.042, 0.1], n_alphas),
        fractional_orders=_values(draw, [0.25, 0.5, 0.6, 0.75], draw(st.integers(1, 2))),
        # 0.16 freezes some runs of the alpha 0.2, f 0.25 cells.
        mflms_mu1=draw(st.sampled_from([None, None, 0.011, 0.16])),
        n_runs=draw(st.integers(4, 12)),
        n_iters=interval * draw(st.integers(1, 3)),
        checkpoint_interval=interval,
        base_seed=draw(st.integers(0, 2**64 - 1)),
        metric_space=draw(st.sampled_from(MetricSpace)),
        calibration_runs=draw(st.integers(4, 12)),
        calibration_tolerance=draw(st.sampled_from([0.05, 1e-3])),
    )
    return values, draw(st.sampled_from([1, 5, 12, 30, experiment._BATCH_ROWS]))


def _cli_value(value) -> str:
    """``value`` as a ``--set`` reads it back exactly."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, (int, float)) else getattr(value, "value", value)


def _outcome(run) -> tuple:
    """``run(out_dir)``'s error text, or the name and bytes of every file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        error = run(Path(tmp))
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    return error, files


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(oracle_grids())
def test_grid_writes_the_naive_pipelines_files(drawn):
    values, batch_rows = drawn
    config = GridConfig(**values)
    args = [arg for key, value in values.items() if value is not None
            for arg in ("--set", f"{key}={_cli_value(value)}")]

    def cli(out_dir):
        stderr = io.StringIO()
        with mock.patch.object(experiment, "_BATCH_ROWS", batch_rows), contextlib.redirect_stderr(stderr):
            code = main(["grid", "--out", str(out_dir), *args])
        return None if code == 0 else (code, stderr.getvalue().splitlines()[-1])

    def naive(out_dir):
        try:
            naive_full_grid(config, out_dir)
        except (CalibrationError, AllRunsDivergedError) as exc:
            return 2, f"error: {exc}"
        return None

    got, want = _outcome(cli), _outcome(naive)
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, data in want[1].items():
        assert got[1][name] == data, name
