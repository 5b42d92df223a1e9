"""Deterministic, seeded Monte-Carlo engine for the estimation benchmark.

The benchmark sweeps a grid of noise levels, momentum coefficients and
fractional orders.  Each momentum value is paired with a plain-LMS
learning rate; each momentum-fractional scenario is run at a base step
size ``mu1`` calibrated so that the two algorithms are set up at equal
convergence before their steady states are compared (an explicit
``mu1`` override skips calibration).

Noise levels are grid labels: with the default ``variance`` scale a
level ``L`` means the disturbance has variance ``L`` (standard
deviation ``sqrt(L)``); the ``std`` scale reads the level directly as
the standard deviation.  The variance reading is the one under which
the published reference values for this benchmark are reproduced, so it
is the default.

Reproducibility contract: every random draw is a pure function of
``(base_seed, stream domain, run index)``.  Weight initialisation and
noise use separate sub-streams, runs never share a stream, and ensemble
means are reduced in ascending run-index order, so results are
bit-identical across repeated invocations and however runs are grouped
into batches.

Those streams are drawn once per process and stream domain (the main
ensemble, the calibration probes) into a read-only window
(:func:`_streams`), which every ensemble and calibration probe at that
seed reads and scales by its own noise level (common random numbers).
A grid's ensembles advance a slice of runs at a time, so the main
window holds one slice (2.7 MB of noise at the default protocol).  The
calibration window holds every probe's runs (1.6 MB); the paired-LMS
references draw it first, at full length, and the calibration driver
releases it when its searches end.

The engine (:func:`_simulate`) holds a batch component-major: ``w``,
``w_prev`` and ``v`` live in ``(M, runs)`` buffers, and each iteration
calls ``step`` once on their ``(runs, M)`` views, so the kernel's
operations run over contiguous runs, with one scratch workspace
(:func:`~lmslab.filters.workspace`) and a small ufunc buffer
(``_UFUNC_BUFFER``).  Each step is guarded by the batch's largest and
smallest weight; only when either is NaN or beyond ``WEIGHT_LIMIT`` are
the diverged rows found (:func:`diverged_rows`).  Those runs are reset
to their last in-bound weights and dropped from the batch, so frozen
runs cost nothing further; their later checkpoints repeat their frozen
fitness.  Rows step independently and map back to their runs through
the active list, so the reordering changes no bit.  Checkpoint metrics
read a row-major copy of the weights, which keeps them bit-identical
to a row-major engine.

Ensembles and calibration probes share one batch plan (:func:`_plan`:
blocks with one kernel branch and protocol, in batches of at most
``_BATCH_ROWS`` rows) and its runner (:func:`_simulate_blocks`).  Every
step-size search enters through one driver,
:func:`prefetch_calibration`: :func:`calibrate_mu1` is its one-cell
call, and :func:`full_grid` and ``lmslab calibrate`` pass it their
cells.  It advances the searches in lockstep and leaves one
:class:`Calibration` record per cell; a grid then runs every cell's
ensemble in a few batches too.  Each row then settles its record and
logs its line, in row order, so the log, every step size and every
error are those of running the cells one by one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .filters import (
    KINDS,
    RANGES,
    WEIGHT_LIMIT,
    FilterParams,
    FilterState,
    Rule,
    Variant,
    _check_fields,
    diverged_rows,
    step,
    update_rule,
    workspace,
)
from .metrics import MetricSpace, mse, nwd
from .signal_model import FREQUENCIES, THETA_APHI, THETA_BC, aphi_from_bc, regressor

__all__ = [
    "ScenarioConfig",
    "GridConfig",
    "GridEntry",
    "AggregateResult",
    "CalibrationError",
    "AllRunsDivergedError",
    "run_monte_carlo",
    "Calibration",
    "calibrate_mu1",
    "prefetch_calibration",
    "full_grid",
    "lms_params",
    "mflms_params",
    "DEFAULT_BASE_SEED",
    "N_RUNS",
    "N_ITERS",
    "CHECKPOINT_INTERVAL",
    "CALIBRATION_RUNS",
    "CALIBRATION_TOLERANCE",
    "NOISE_SCALES",
    "NOISE_LEVELS",
    "ALPHAS",
    "FRACTIONAL_ORDERS",
    "PAIRED_LMS_ETAS",
]

log = logging.getLogger(__name__)

DEFAULT_BASE_SEED = 42

# Default protocol: runs per ensemble, iterations per run, the iterations
# between checkpoints, and the calibration's runs per probe and relative
# tolerance.
N_RUNS = 1000
N_ITERS = 1000
CHECKPOINT_INTERVAL = 100
CALIBRATION_RUNS = 200
CALIBRATION_TOLERANCE = 0.05

# How a grid noise level reads: the disturbance's variance (the default) or
# its standard deviation.
NOISE_SCALES = ("variance", "std")

# Default benchmark grid: noise levels x momentum values x fractional
# orders, with the conventional LMS learning-rate pairing per momentum.
NOISE_LEVELS = (0.30, 0.60, 0.90)
ALPHAS = (0.2, 0.5, 0.8)
FRACTIONAL_ORDERS = (0.25, 0.50, 0.75)
PAIRED_LMS_ETAS = (0.027, 0.042, 0.1)

# Calibration search bracket for mu1 and the flatness ratio separating a
# mid-transient reference from one already at its steady state.
_MU_BRACKET = (1e-4, 0.5)
_CONVERGED_RATIO = 1.2

# Sub-stream domains: the main ensemble and calibration probes never
# share random streams.
_DOMAIN_MAIN = 0
_DOMAIN_CALIBRATION = 1

# Desired samples are formed from the unit noise this many elements at a
# time, so a simulation holds no (n_iters, n_runs) array of its own.
_CHUNK_ELEMENTS = 2**13

# numpy's ufunc buffer, in elements, while a batch steps (default 8192).
# numpy copies every operand of a broadcasting operation (u or a per-row
# column over the weights, noise levels over a sample chunk) through the
# buffer when it holds about two or more rows of the operation: at 3000
# component-major rows, u * w took 22 us and allocated 49,104 bytes at the
# default, 7.3 us and 1,104 bytes at 256.  From 64 to 2048, 256 stepped as
# fast as the best size at 180 to 3600 rows; bits do not depend on it.
_UFUNC_BUFFER = 256


class _Window(NamedTuple):
    """A domain's cached streams: runs ``start .. start + len(w0) - 1`` (see :func:`_streams`)."""

    base_seed: int
    start: int
    w0: np.ndarray  # (R, M)
    z: np.ndarray  # (R, N)


# Stream domain -> its window of runs.
_stream_windows: dict[int, _Window] = {}

# Rows of a batch of blocks (see _plan), a memory bound: a batch holds
# about 0.65 KB per row.  TestPlan in tests/test_experiment.py pins the
# default grid's batches.
_BATCH_ROWS = 4000


class CalibrationError(RuntimeError):
    """No step size in the search bracket achieves the requested match."""


class AllRunsDivergedError(RuntimeError):
    """Every run of an ensemble hit the divergence guard."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One cell of the benchmark grid plus the Monte-Carlo protocol.

    ``noise_std`` is the actual standard deviation of the disturbance.
    ``lms_eta`` is the paired plain-LMS learning rate; ``mflms_mu1`` is
    the momentum-fractional base step (``None`` means "calibrate"), and
    ``mflms_muf`` overrides the fractional step size (``None`` selects
    ``mu1 * Gamma(2 - f)``).
    """

    noise_std: float
    alpha: float
    f: float
    lms_eta: float
    mflms_mu1: float | None = None
    mflms_muf: float | None = None
    n_runs: int = N_RUNS
    n_iters: int = N_ITERS
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    base_seed: int = DEFAULT_BASE_SEED
    metric_space: MetricSpace = MetricSpace.APHI

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "metric_space", MetricSpace(self.metric_space))
        if self.n_iters % self.checkpoint_interval:
            raise ValueError("checkpoint_interval must divide n_iters")

    @property
    def checkpoints(self) -> np.ndarray:
        """Iteration indices at which ensemble fitness is recorded."""
        k = self.checkpoint_interval
        return np.arange(k, self.n_iters + 1, k)


@dataclass
class AggregateResult:
    """Ensemble means over the non-diverged runs of a scenario."""

    mean_nwd_at_checkpoints: np.ndarray
    mean_final_theta_aphi: np.ndarray
    mse_of_mean: float
    mean_per_run_mse: float
    divergence_count: int


def lms_params(eta: float) -> FilterParams:
    """Plain-LMS parameter set at learning rate ``eta``."""
    return FilterParams(mu1=eta, muf=0.0, f=0.5, alpha=0.0, variant=Variant.LMS)


def mflms_params(mu1: float, alpha: float, f: float, muf: float | None = None) -> FilterParams:
    """Momentum-fractional parameter set; ``muf=None`` selects the default."""
    return FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=Variant.MFLMS_ASSEMBLED)


def _run_rngs(base_seed: int, domain: int, run_index: int):
    """Independent generators for weight init and noise of one run."""
    rng_w = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(domain, run_index, 0)))
    rng_e = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(domain, run_index, 1)))
    return rng_w, rng_e


def _streams(base_seed: int, domain: int, m: int, run_indices: np.ndarray, n_iters: int):
    """Read-only ``(w0, z, rows)``: row ``rows[j]`` holds run ``run_indices[j]``.

    That row of ``w0`` holds the run's initial weights and that row of
    ``z`` its unit-variance noise over at least ``n_iters`` iterations.
    A domain keeps one window: the runs ``min .. max`` of the request
    that built it, drawn whole, over its iterations.  A request with the
    same seed, no more iterations and its runs inside the window reads
    it.  Any other releases it before a window of its own runs is drawn.
    """
    lo, hi = int(run_indices.min()), int(run_indices.max()) + 1
    window = _stream_windows.pop(domain, None)
    if (window is None or window.base_seed != base_seed or window.z.shape[1] < n_iters
            or not window.start <= lo <= hi <= window.start + len(window.w0)):
        window = None  # freed before the next window is allocated
        w0, z = np.empty((hi - lo, m)), np.empty((hi - lo, n_iters))
        for row in range(hi - lo):
            rng_w, rng_e = _run_rngs(base_seed, domain, lo + row)
            w0[row] = rng_w.standard_normal(m)
            z[row] = rng_e.standard_normal(n_iters)
        w0.flags.writeable = z.flags.writeable = False
        window = _Window(base_seed, lo, w0, z)
    _stream_windows[domain] = window
    return window.w0, window.z, run_indices - window.start


def _simulate(
    algorithm: tuple[FilterParams, ...],
    scenario: tuple[ScenarioConfig, ...],
    run_indices,
    domain: int = _DOMAIN_MAIN,
    n_iters: int | None = None,
):
    """Advance a batch of runs; returns (nwd_ck, final_bc, frozen).

    Block ``i`` of the batch is the next ``scenario[i].n_runs`` of
    ``run_indices``, stepped with ``algorithm[i]`` at ``scenario[i]``'s
    noise level; the blocks share one :func:`_batch_key`.  Every run owns
    its seed-derived streams, so the returned rows do not depend on how
    runs are grouped into batches.  Runs that hit the guard keep their
    last in-bound weights and leave the active batch.
    """
    run_indices = np.asarray(list(run_indices), dtype=np.intp)
    n_runs = len(run_indices)
    rows = [sc.n_runs for sc in scenario]
    if (len(algorithm) != len(scenario) or sum(rows) != n_runs
            or len(set(map(_batch_key, algorithm, scenario))) != 1):
        raise ValueError("a batch needs a block or more, a scenario per block, n_runs rows each and one batch key")
    if run_indices.min() < 0:
        raise ValueError("run indices must be non-negative")
    rule = _batch_rule(algorithm, rows)
    noise_std = np.repeat([sc.noise_std for sc in scenario], rows)
    algorithm, scenario = algorithm[0], scenario[0]
    # The rule's per-row coefficient columns, compacted with the rows.
    columns = [name for name, c in zip(Rule._fields, rule) if isinstance(c, np.ndarray)]
    n_iters = scenario.n_iters if n_iters is None else n_iters
    interval = scenario.checkpoint_interval
    n_ck = n_iters // interval
    m = len(THETA_BC)

    psi = regressor(FREQUENCIES, np.arange(1, n_iters + 1))
    d_clean = (psi * THETA_BC).sum(axis=-1)

    w0, z, rows = _streams(scenario.base_seed, domain, m, run_indices, n_iters)
    # Component-major buffers; the kernel steps their (runs, M) views.
    buffers = np.zeros((3, m, n_runs))
    buffers[0] = buffers[1] = w0[rows].T
    state = FilterState(*(b.T for b in buffers))
    # The kernel's scratch, laid out like the state; kept for the batch.
    work = workspace(state.w)
    # The active rows, their rows of the streams and noise levels; all
    # three change only when rows freeze.
    active, active_runs, active_std = np.arange(n_runs), rows, noise_std
    frozen = np.zeros(n_runs, dtype=bool)
    # Row-major weights the metrics read: a strided view changes their bits.
    w_out = np.empty((n_runs, m))
    chunk = max(1, _CHUNK_ELEMENTS // n_runs)
    samples = np.empty((chunk, n_runs))
    # Checkpoint weights are gathered and measured this many at a time;
    # one at a time, the metrics read w_out itself.
    n_slots = min(n_ck, max(1, _CHUNK_ELEMENTS // (n_runs * m)))
    ck = w_out[None] if n_slots == 1 else np.empty((n_slots, n_runs, m))
    nwd_ck = np.empty((n_runs, n_ck))

    aphi = scenario.metric_space is MetricSpace.APHI
    truth_vec = THETA_APHI if aphi else THETA_BC

    with np.errstate(over="ignore", invalid="ignore"):
        # Restored by hand: numpy 1.x's errstate leaves the buffer size set.
        bufsize = np.setbufsize(_UFUNC_BUFFER)
        try:
            for k in range(n_iters):
                if k % chunk == 0:
                    # Desired samples of the next chunk of iterations, one row
                    # per iteration: the clean signal plus each active run's noise.
                    # np.take gathers the rows faster than fancy indexing.
                    zc = np.take(z[:, k:min(k + chunk, n_iters)], active_runs, axis=0).T
                    d = np.multiply(zc, active_std, out=samples[:len(zc), :len(active)])
                    d += d_clean[k:k + chunk, None]
                if len(active):
                    step(state, psi[k], d[k % chunk], algorithm, in_place=True, rule=rule, work=work)
                    if not (state.w.max() <= WEIGHT_LIMIT and state.w.min() >= -WEIGHT_LIMIT):
                        # Diverged runs freeze at their last in-bound weights and
                        # leave the batch; their later checkpoints repeat them.
                        bad = diverged_rows(state.w)
                        w_out[active[bad]] = state.w_prev[bad]
                        frozen[active[bad]] = True
                        # Each frozen row below the kept count takes a kept row
                        # from above it; rows step independently, and w_out
                        # reads them back through active, so order is free.
                        n_keep = len(active) - np.count_nonzero(bad)
                        dst, src = np.flatnonzero(bad[:n_keep]), np.flatnonzero(~bad[n_keep:]) + n_keep

                        def fill(a):  # a's first axis is the batch's rows
                            a[dst] = a[src]
                            return a[:n_keep]

                        active, active_runs, active_std = fill(active), fill(active_runs), fill(active_std)
                        d = fill(d.T).T
                        for name in ("w", "w_prev", "v"):
                            setattr(state, name, fill(getattr(state, name)))
                        rule = rule._replace(**{name: fill(getattr(rule, name)) for name in columns})
                        work = tuple(a[:n_keep] for a in work)
                if (k + 1) % interval == 0:
                    j = (k + 1) // interval - 1
                    slot = j % n_slots
                    if len(active) == n_runs:
                        np.copyto(w_out, state.w)
                    else:
                        w_out[active] = state.w
                    if n_slots > 1:
                        ck[slot] = w_out
                    if slot == n_slots - 1 or j == n_ck - 1:
                        estimate = aphi_from_bc(ck[:slot + 1]) if aphi else ck[:slot + 1]
                        nwd_ck[:, j - slot:j + 1] = nwd(estimate, truth_vec).T
        finally:
            np.setbufsize(bufsize)

    return nwd_ck, w_out, frozen


def _batch_key(algorithm: FilterParams, scenario: ScenarioConfig) -> tuple:
    """The kernel branch (variant, exponent, zero ``b`` or ``alpha``) and protocol that a batch's blocks share."""
    rule = update_rule(algorithm)
    return (algorithm.variant, rule.p, rule.b == 0.0, rule.alpha == 0.0,
            scenario.n_iters, scenario.checkpoint_interval, scenario.base_seed, scenario.metric_space)


def _batch_rule(algorithms, rows) -> Rule:
    """The update rule of a batch whose block ``i`` has ``rows[i]`` runs stepping with ``algorithms[i]``.

    Each block's coefficients are its own :func:`update_rule`'s floats;
    those that differ between blocks become per-row ``(runs, 1)``
    columns, which ``step`` applies row by row with the same bits.  The
    blocks share their :func:`_batch_key` (``_simulate`` checks it).
    """
    rules = [update_rule(a) for a in algorithms]
    columns = {}
    for name in ("a", "b", "alpha"):
        values = [getattr(rule, name) for rule in rules]
        if len(set(values)) > 1:
            columns[name] = np.repeat(values, rows)[:, None]
    return rules[0]._replace(**columns)


def _plan(blocks, domain: int) -> list:
    """The batches of ``blocks``, in run order, each a tuple of ``(index, lo, hi)``: runs ``lo .. hi - 1`` of a block.

    Block ``(algorithm, scenario)`` has runs ``0 .. scenario.n_runs - 1``.
    Blocks with one :func:`_batch_key` share batches of at most
    ``_BATCH_ROWS`` rows.  In the main domain a group needing several
    batches is split by runs: batch ``b`` holds runs ``lo_b .. hi_b - 1``
    of every block (one run of each at least), and the groups advance
    slice by slice, so the streams hold one slice of runs at a time.
    Calibration probes run whole blocks a batch, even a block above
    ``_BATCH_ROWS``: sliced by runs, the default grid's probes ran slower.
    """
    groups = {}
    for i, block in enumerate(blocks):
        groups.setdefault(_batch_key(*block), []).append(i)
    n_runs = [sc.n_runs for _, sc in blocks]
    batches = []
    for group in groups.values():
        runs = max(n_runs[i] for i in group)
        if domain == _DOMAIN_MAIN:
            n = math.ceil(runs / max(1, _BATCH_ROWS // len(group)))
            cuts = [b * runs // n for b in range(n + 1)]  # even slices
            batches += [tuple((i, lo, min(hi, n_runs[i])) for i in group if lo < n_runs[i])
                        for lo, hi in zip(cuts, cuts[1:])]
        else:
            per_batch = max(1, _BATCH_ROWS // runs)
            size = math.ceil(len(group) / math.ceil(len(group) / per_batch))  # even batches
            batches += [tuple((i, 0, n_runs[i]) for i in group[start:start + size])
                        for start in range(0, len(group), size)]
    return sorted(batches, key=lambda batch: batch[0][1])


def _simulate_blocks(blocks, add, domain: int = _DOMAIN_MAIN) -> list:
    """One :class:`_Means` per block, in order, fed by ``add(means, nwd_ck, final_bc, frozen)``.

    Each batch of :func:`_plan` is one ``_simulate`` call, whose rows go
    to ``add`` block by block before the next batch runs.
    """
    means = [_Means() for _ in blocks]
    for batch in _plan(blocks, domain):
        algorithms = tuple(blocks[i][0] for i, _, _ in batch)
        scenarios = tuple(replace(blocks[i][1], n_runs=hi - lo) for i, lo, hi in batch)
        runs = np.concatenate([np.arange(lo, hi) for _, lo, hi in batch])
        # n_iters states the call's length where the traced benchmark reads it.
        rows = _simulate(algorithms, scenarios, runs, domain=domain, n_iters=scenarios[0].n_iters)
        bounds = np.cumsum([0, *(sc.n_runs for sc in scenarios)])
        for (i, _, _), start, stop in zip(batch, bounds, bounds[1:]):
            add(means[i], *(a[start:stop] for a in rows))
        del rows  # before the next batch allocates its own
    return means


class _Means:
    """Means over the in-bound runs of one block, fed a slice of its runs at a time, in run order.

    ``add(frozen, *rows)`` takes a slice's frozen mask and, per averaged
    quantity, the C-ordered rows of its in-bound runs.  ``means()`` then
    has the bits of ``x.mean(axis=0)`` over each quantity's rows of the
    whole block: numpy sums axis 0 of a C-ordered ``(runs, k)`` array row
    by row when ``k > 1``, as the running sum here does, but sums a
    single column or a 1-D array pairwise, so those rows are kept (8
    bytes a run) and averaged at the end.  ``add`` folds the running sum
    into the first row of each ``(runs, k > 1)`` quantity, so it may
    overwrite the rows it is given.
    """

    def __init__(self):
        self.runs = self.diverged = 0
        self._parts = None  # per quantity: a (1, k) running sum, or the kept rows

    def add(self, frozen, *rows):
        diverged = int(frozen.sum())
        self.diverged += diverged
        self.runs += len(frozen) - diverged
        if self._parts is None:
            self._parts = [[] for _ in rows]
        for parts, x in zip(self._parts, rows):
            if len(x) and _row_by_row(x):
                if parts:  # ((r + x0) + x1) + ...: the bits of reducing [r, x0, x1, ...], without a copy
                    x[0] += parts[0][0]
                parts[:] = [np.add.reduce(x, axis=0, keepdims=True)]
            elif len(x):
                parts.append(x)

    def means(self) -> list:
        """Each quantity's mean over the block's in-bound runs (at least one)."""
        out = []
        for parts in self._parts:
            x = np.concatenate(parts)
            out.append(x[0] / self.runs if _row_by_row(x) else x.mean(axis=0))
        return out


def _row_by_row(x: np.ndarray) -> bool:
    """Whether numpy's ``x.mean(axis=0)`` sums ``x`` row by row, not pairwise."""
    return x.ndim > 1 and x.shape[1] > 1


def _add_finals(means: _Means, nwd_ck, final_bc, frozen) -> None:
    """Feed a slice of an ensemble's rows to ``means``: fitness curves, final estimates and their errors."""
    final_aphi = aphi_from_bc(final_bc[~frozen])
    means.add(frozen, _in_bound(nwd_ck, frozen), final_aphi, mse(final_aphi, THETA_APHI))


def _in_bound(rows: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """The rows of the runs that stayed in bounds: ``rows`` itself, not a copy, when every run did."""
    return rows[~frozen] if frozen.any() else rows


def _aggregate(means: _Means) -> AggregateResult:
    """The ensemble means of a block fed by :func:`_add_finals`."""
    if not means.runs:
        raise AllRunsDivergedError("every run in the ensemble diverged")
    mean_nwd, mean_aphi, mean_mse = means.means()
    return AggregateResult(
        mean_nwd_at_checkpoints=mean_nwd,
        mean_final_theta_aphi=mean_aphi,
        mse_of_mean=float(mse(mean_aphi, THETA_APHI)),
        mean_per_run_mse=float(mean_mse),
        divergence_count=means.diverged,
    )


def run_monte_carlo(algorithm: FilterParams, scenario: ScenarioConfig) -> AggregateResult:
    """Ensemble of ``scenario.n_runs`` independent runs, averaged.

    Diverged runs are excluded from the means and counted.
    """
    (means,) = _simulate_blocks([(algorithm, scenario)], _add_finals)
    return _aggregate(means)


def _add_curve(means: _Means, nwd_ck, final_bc, frozen) -> None:
    """Feed a slice of a probe's rows to ``means``: its fitness curves."""
    means.add(frozen, _in_bound(nwd_ck, frozen))


def _mean_curve(scenario: ScenarioConfig, means: _Means) -> np.ndarray:
    """Mean fitness of the runs that stayed in bounds (inf if none did), from :func:`_add_curve`."""
    return means.means()[0] if means.runs else np.full(len(scenario.checkpoints), math.inf)


def _calibration_curve(algorithm, curve):
    """``curve``, ``algorithm``'s calibration curve: :meth:`Calibration.settle` passes each one read here, in order."""
    return curve


def _mu1_search(scenario: ScenarioConfig, tolerance: float):
    """The search of :func:`calibrate_mu1` for one cell, as a generator of curve requests.

    It yields lists of ``(algorithm, n_iters)`` whose calibration curves
    it reads (the paired-LMS reference, the doubling scan, then one
    bisection midpoint at a time) and is sent those curves, in the same
    order.  It returns ``(mu1, fitness, miss)``: ``miss`` is None on a
    match, otherwise why there is none, with ``mu1`` the fallback (None
    if the reference or every scan probe diverged).
    """
    (reference,) = yield [(lms_params(scenario.lms_eta), scenario.n_iters)]
    target = float(reference[0])
    if not math.isfinite(target):
        return None, math.inf, "the reference LMS ensemble diverged"

    def fitness(mu1s):
        """Each probe's fitness at the first checkpoint, the only one it runs to."""
        curves = yield [
            (mflms_params(mu1, scenario.alpha, scenario.f, scenario.mflms_muf), scenario.checkpoint_interval)
            for mu1 in mu1s
        ]
        return [float(curve[0]) for curve in curves]

    lo, hi = _MU_BRACKET
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(grid[-1] * 2, hi))
    values = yield from fitness(grid)

    transient = target > _CONVERGED_RATIO * float(reference[-1])
    if transient:
        # Descending branch: first crossing of the target from above.
        bracket = next(
            (i for i in range(1, len(grid)) if values[i - 1] > target >= values[i]),
            None,
        )
        level = target
        descending = True
    else:
        # Ascending branch: last crossing of the upper part of the band
        # (strictly inside it so bisection jitter cannot leave the band).
        level = target * (1 + 0.8 * tolerance)
        crossings = [
            i for i in range(1, len(grid)) if values[i - 1] <= level < values[i]
        ]
        bracket = crossings[-1] if crossings else None
        descending = False

    if bracket is None:
        finite = [(mu, v) for mu, v in zip(grid, values) if math.isfinite(v)]
        best_mu, best_v = min(finite, key=lambda t: abs(t[1] - target), default=(None, math.inf))
        if best_mu is not None and abs(best_v - target) <= tolerance * target:
            return best_mu, best_v, None
        return best_mu, best_v, (
            f"no mu1 in [{lo:g}, {hi:g}] matches the reference fitness {target:.4g} "
            f"within {100 * tolerance:g}%"
        )

    a, b = grid[bracket - 1], grid[bracket]
    for _ in range(60):
        mid = 0.5 * (a + b)
        (h_mid,) = yield from fitness([mid])
        # Descending branch: a value above the level means the root lies
        # to the right of mid; ascending branch is the mirror image.
        if (h_mid > level) == descending:
            a = mid
        else:
            b = mid
        if (b - a) <= 1e-4 * b:
            break
    if abs(h_mid - target) > tolerance * target:
        return mid, h_mid, (
            f"bisection converged to mu1={mid:.4g} but its fitness {h_mid:.4g} "
            f"misses the reference {target:.4g} by more than {100 * tolerance:g}%"
        )
    return mid, h_mid, None


@dataclass(frozen=True)
class Calibration:
    """One cell's calibration search, as :func:`prefetch_calibration` ran it.

    ``reads`` lists the ``(algorithm, curve)`` pairs the search was
    sent, in read order, the paired-LMS reference first; ``(mu1,
    fitness, miss)`` is where it ended (see :func:`_mu1_search`).  A
    reference that diverged is a miss with no ``mu1``.
    """

    reads: list
    mu1: float | None
    fitness: float
    miss: str | None

    def settle(self, on_no_match: str = "raise") -> float:
        """Pass each curve the search read to :func:`_calibration_curve`, in order, then return ``mu1``.

        On a miss, raise :class:`CalibrationError`; ``"closest"`` instead warns and returns the fallback, if any.
        """
        for algorithm, curve in self.reads:
            _calibration_curve(algorithm, curve)
        if self.miss is None:
            return self.mu1
        if on_no_match == "closest" and self.mu1 is not None:
            log.warning("%s; using closest (mu1=%.4g, fitness %.4g)", self.miss, self.mu1, self.fitness)
            return self.mu1
        raise CalibrationError(self.miss)


def calibrate_mu1(
    scenario: ScenarioConfig,
    tolerance: float = CALIBRATION_TOLERANCE,
    calibration_runs: int = CALIBRATION_RUNS,
) -> float:
    """Step size at which the momentum-fractional filter matches the paired LMS.

    The paired LMS is run on a reduced ensemble and its mean fitness at
    the first checkpoint becomes the target; bisection over ``mu1`` in
    ``[1e-4, 0.5]`` then matches the candidate's mean fitness at that
    checkpoint to within ``tolerance`` (relative).

    Two regimes of the reference trajectory need different roots of the
    match equation:

    * still converging at the checkpoint (its value sits well above its
      final floor): equal convergence means matching the transient, so
      the bisection solves the descending branch of the fitness-vs-mu1
      curve;
    * already at steady state: the match equation degenerates (a whole
      interval of step sizes matches), so the search resolves the
      ascending branch near the upper edge of the tolerance band: the
      fastest-converging configuration consistent with the match.

    No match raises :class:`CalibrationError`.  This is the one-cell
    :func:`prefetch_calibration`, whose record is then settled
    (:meth:`Calibration.settle`).
    """
    return prefetch_calibration([scenario], tolerance, calibration_runs)[0].settle()


def _simulate_curves(probes, calibration_runs: int) -> list:
    """Calibration curves of ``probes``, ``(algorithm, scenario, n_iters)`` each, in order.

    Probes alike in what their simulation reads share one read-only
    curve, simulated once, ``calibration_runs`` runs over ``n_iters``
    iterations, in a few wide batches (:func:`_simulate_blocks`).
    """
    keys, blocks = [], {}
    for algorithm, sc, n_iters in probes:
        keys.append((algorithm, sc.noise_std, n_iters, sc.checkpoint_interval, sc.base_seed, sc.metric_space))
        blocks.setdefault(keys[-1], (algorithm, replace(sc, n_runs=calibration_runs, n_iters=n_iters)))

    curves = {}
    means = _simulate_blocks(list(blocks.values()), _add_curve, _DOMAIN_CALIBRATION)
    for (key, (_, scenario)), block_means in zip(blocks.items(), means):
        curves[key] = _mean_curve(scenario, block_means)
        curves[key].flags.writeable = False
    return [curves[key] for key in keys]


def prefetch_calibration(scenarios, tolerance: float, calibration_runs: int) -> list[Calibration]:
    """The calibration search of every cell in ``scenarios``, run in lockstep: one :class:`Calibration` each.

    The one calibration driver: every step-size search enters here, and
    ``tolerance`` and ``calibration_runs`` are range-checked here, before
    anything is simulated.
    The searches (:func:`_mu1_search`) advance together: the paired-LMS
    references first (so the calibration streams are drawn once, at full
    length), then every cell's doubling scan, then one bisection
    midpoint per unfinished cell per round.  Each round's probes run in
    a few wide batches (:func:`_simulate_curves`); a record's ``reads``
    are the curves its search was sent.  The calibration streams are
    released when the searches end.  Nothing is logged or raised here;
    each record's :meth:`~Calibration.settle` does that.
    """
    tolerance = RANGES["calibration_tolerance"].check("tolerance", tolerance)
    calibration_runs = RANGES["calibration_runs"].check("calibration_runs", calibration_runs)
    records = [None] * len(scenarios)
    pending = []
    for i, sc in enumerate(scenarios):
        search = _mu1_search(sc, tolerance)
        pending.append((i, search, [], next(search)))
    while pending:
        probes = [(algorithm, scenarios[i], n_iters) for i, *_, request in pending for algorithm, n_iters in request]
        found = iter(_simulate_curves(probes, calibration_runs))
        advanced = []
        for i, search, reads, request in pending:
            sent = [next(found) for _ in request]
            reads += [(algorithm, curve) for (algorithm, _), curve in zip(request, sent)]
            try:
                advanced.append((i, search, reads, search.send(sent)))
            except StopIteration as done:
                records[i] = Calibration(reads, *done.value)
        pending = advanced
    _stream_windows.pop(_DOMAIN_CALIBRATION, None)  # every curve is read: release the probes' streams
    return records


@dataclass(frozen=True)
class GridConfig:
    """Full benchmark grid: the scenario axes plus the run protocol."""

    noise_levels: tuple = NOISE_LEVELS
    noise_scale: str = NOISE_SCALES[0]
    alphas: tuple = ALPHAS
    fractional_orders: tuple = FRACTIONAL_ORDERS
    lms_etas: tuple = PAIRED_LMS_ETAS
    mflms_mu1: float | None = None
    n_runs: int = N_RUNS
    n_iters: int = N_ITERS
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    base_seed: int = DEFAULT_BASE_SEED
    metric_space: MetricSpace = MetricSpace.APHI
    calibration_runs: int = CALIBRATION_RUNS
    calibration_tolerance: float = CALIBRATION_TOLERANCE

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "metric_space", MetricSpace(self.metric_space))
        if self.noise_scale not in NOISE_SCALES:
            raise ValueError(f"noise_scale must be one of {NOISE_SCALES}")
        if len(self.alphas) != len(self.lms_etas):
            raise ValueError("alphas and lms_etas must pair up one-to-one")
        if not self.noise_levels or not self.alphas or not self.fractional_orders:
            raise ValueError("grid axes must be non-empty")
        # Output files and table rows are named by these labels: two values
        # sharing one would write into each other's files.
        for name, label in (("noise_levels", sigma_label), ("fractional_orders", order_label),
                            ("alphas", lambda a: f"{a:g}"), ("lms_etas", lambda eta: f"{eta:g}")):
            values = getattr(self, name)
            labels = [label(x) for x in values]
            for j, text in enumerate(labels):
                if text in labels[:j]:
                    raise ValueError(f"{name} {values[labels.index(text)]!r} and {values[j]!r} share the label {text}")
        list(self.cells())  # each cell's ScenarioConfig checks the rule that couples its values

    def noise_std(self, level: float) -> float:
        """Disturbance standard deviation for a grid noise level."""
        return math.sqrt(level) if self.noise_scale == "variance" else float(level)

    def scenario(self, level: float, alpha: float, f: float, eta: float) -> ScenarioConfig:
        protocol = ("mflms_mu1", "n_runs", "n_iters", "checkpoint_interval", "base_seed", "metric_space")
        return ScenarioConfig(noise_std=self.noise_std(level), alpha=alpha, f=f, lms_eta=eta,
                              **{name: getattr(self, name) for name in protocol})

    def cells(self):
        """Yield ``(level, f, scenario)`` for every table row, in row order.

        For each noise level and momentum block: one row per fractional
        order, then the block's paired-LMS row, which has ``f=None`` and
        a scenario at the first fractional order.
        """
        for level in self.noise_levels:
            for alpha, eta in zip(self.alphas, self.lms_etas):
                for f in self.fractional_orders:
                    yield level, f, self.scenario(level, alpha, f, eta)
                yield level, None, self.scenario(level, alpha, self.fractional_orders[0], eta)


@dataclass(frozen=True)
class GridEntry:
    """One table row: scenario (whose ``alpha`` and ``f`` it shows), the algorithm actually run, its aggregate."""

    sigma_label: str
    variant: Variant
    step_size: float
    scenario: ScenarioConfig
    aggregate: AggregateResult

    @classmethod
    def of(cls, level: float, algorithm: FilterParams, scenario: ScenarioConfig,
           aggregate: AggregateResult) -> GridEntry:
        """The row of ``algorithm`` run at ``scenario`` on noise level ``level``."""
        return cls(sigma_label(level), algorithm.variant, algorithm.mu1, scenario, aggregate)

    @property
    def alpha(self) -> float:
        return self.scenario.alpha

    @property
    def f(self) -> float | None:
        return None if self.variant is Variant.LMS else self.scenario.f

    @property
    def label(self) -> str:
        """The rule's name with its step size if it has no fractional term, else its order, then its alpha."""
        kind = KINDS[self.variant]
        order = f"eta={self.step_size:g}" if kind.b is None else f"f={order_label(self.f)}"
        return f"{kind.name}({order})" + (f" a={self.alpha:g}" if kind.takes_alpha else "")


def sigma_label(level: float) -> str:
    return f"{level:.2f}"


def order_label(f: float) -> str:
    return f"{f:.2f}"


def full_grid(config: GridConfig) -> list[GridEntry]:
    """Run the complete benchmark grid in table row order.

    For each noise level and each momentum block: the fractional-order
    scenarios first, then the paired LMS row.  Momentum-fractional step
    sizes come from ``config.mflms_mu1`` when set, otherwise from
    :func:`prefetch_calibration` over the momentum-fractional cells
    (falling back to the closest achievable match rather than aborting
    the grid).  Every cell's calibration is simulated first, then every
    cell's ensemble, in a few wide batches (:func:`_plan`).  Then each
    row settles its calibration record and logs its line in row order,
    so a row's error is raised after the lines of the rows before it, as
    when the cells run one by one.
    """
    cells = list(config.cells())
    rows = [i for i, (_, f, _) in enumerate(cells) if f is not None]
    records = {} if config.mflms_mu1 is not None else dict(zip(rows, prefetch_calibration(
        [cells[i][2] for i in rows], config.calibration_tolerance, config.calibration_runs)))
    blocks = {}
    for i, (_, f, scenario) in enumerate(cells):
        if f is None:
            blocks[i] = lms_params(scenario.lms_eta), scenario
        else:
            mu1 = records[i].mu1 if records else scenario.mflms_mu1
            if mu1 is not None:  # a cell without one raises CalibrationError at its row
                blocks[i] = mflms_params(mu1, scenario.alpha, f, scenario.mflms_muf), scenario

    means = dict(zip(blocks, _simulate_blocks(list(blocks.values()), _add_finals)))

    entries = []
    for i, (level, f, scenario) in enumerate(cells):
        if i in records:
            records[i].settle("closest")
        algorithm, _ = blocks[i]
        aggregate = _aggregate(means.pop(i))  # an ensemble whose runs all diverged raises here
        log.info(
            "scenario sigma=%s alpha=%g %s step=%.5g: final mean NWD %.4f",
            sigma_label(level), scenario.alpha,
            "lms" if f is None else f"f={f:g}", algorithm.mu1,
            aggregate.mean_nwd_at_checkpoints[-1],
        )
        entries.append(GridEntry.of(level, algorithm, scenario, aggregate))
    return entries
