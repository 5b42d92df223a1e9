"""Deterministic, seeded Monte-Carlo engine for the estimation benchmark.

The benchmark sweeps a grid of noise levels, momentum coefficients and
fractional orders.  Each momentum value is paired with a plain-LMS
learning rate; each momentum-fractional scenario is run at a base step
size ``mu1`` obtained by :func:`calibrate_mu1` so that the two
algorithms are set up at equal convergence before their steady states
are compared (an explicit ``mu1`` override skips calibration).

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
ensemble, the calibration probes): a read-only block of initial weights
and unit-variance noise, which every ensemble and calibration probe at
that seed reads and scales by its own noise level (common random
numbers).  A run is drawn the first time a request names it.  A block
holds about ``rows x n_iters x 8`` bytes: the block grows by doubling,
so ``rows`` is under twice the highest run index requested plus one, and
``n_iters`` is the iteration count of the request that built or last
grew it (8 MB for the main ensembles and 1.6 MB for the calibration
probes at the default protocol).  It is kept until a request with
another seed or more iterations replaces it with a block of that
request's size, or until a grid has calibrated every cell and releases
the calibration block.

The engine (:func:`_simulate`) holds a batch component-major: ``w``,
``w_prev`` and ``v`` live in ``(M, runs)`` buffers, and each iteration
calls ``step`` once on their ``(runs, M)`` views, so the kernel's
operations run over contiguous runs.  Each step is guarded by the
batch's largest and smallest weight; only when either is NaN or beyond
``WEIGHT_LIMIT`` are the diverged rows found (:func:`diverged_rows`).
Those runs are reset to their last in-bound weights, copied to the
row-major output and dropped from the batch, so frozen runs cost
nothing further; their later checkpoints repeat their frozen fitness.
Checkpoint metrics read that row-major output, several checkpoints at a
time, which keeps them bit-identical to a row-major engine.  A batch may
also hold blocks with their own coefficients and noise levels.

Ensembles and calibration probes share one batching helper
(:func:`_simulate_blocks`): blocks with one kernel branch and protocol
run together, one contiguous block of runs each, in even batches of at
most ``_BATCH_ROWS`` rows, a cap on the memory a batch holds.
Calibration runs in lockstep (:func:`prefetch_calibration`): the
searches of all cells to calibrate (one cell, or every cell of a grid)
advance in rounds, each round's probes in a few batches.  A grid then
runs every cell's ensemble in a few batches too.  Each row then replays
its search from the curves and logs its line, in row order, so the log,
every step size and every error are those of running the cells one by
one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .filters import (
    WEIGHT_LIMIT,
    FilterParams,
    FilterState,
    Rule,
    Variant,
    default_muf,
    diverged_rows,
    step,
    update_rule,
)
from .metrics import MetricSpace, mse, nwd
from .signal_model import aphi_from_bc, benchmark_spec, regressor

__all__ = [
    "ScenarioConfig",
    "GridConfig",
    "GridEntry",
    "RunTrajectory",
    "AggregateResult",
    "CalibrationError",
    "AllRunsDivergedError",
    "run_single",
    "run_monte_carlo",
    "calibrate_mu1",
    "prefetch_calibration",
    "calibrate_grid",
    "full_grid",
    "lms_params",
    "mflms_params",
    "DEFAULT_BASE_SEED",
    "NOISE_LEVELS",
    "ALPHAS",
    "FRACTIONAL_ORDERS",
    "PAIRED_LMS_ETAS",
]

log = logging.getLogger(__name__)

DEFAULT_BASE_SEED = 42

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

# Stream domain -> (base_seed, drawn (R,), w0 (R, M), z (R, N)); see _streams.
_stream_blocks: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}

# Rows of a batch of blocks (see _simulate_blocks), a memory bound: a
# batch holds about 0.65 KB per row.  The default grid's ensembles run
# 3 x 1000 rows a batch; 5 x 1000 raised its peak RSS by about 5%.
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
    n_runs: int = 1000
    n_iters: int = 1000
    checkpoint_interval: int = 100
    base_seed: int = DEFAULT_BASE_SEED
    metric_space: MetricSpace = MetricSpace.APHI

    def __post_init__(self):
        for name in ("noise_std", "lms_eta", "mflms_mu1", "mflms_muf"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0.0 < self.f < 1.0:
            raise ValueError("f must lie strictly in (0, 1)")
        if not self.lms_eta > 0:
            raise ValueError("lms_eta must be positive")
        if self.mflms_mu1 is not None and not self.mflms_mu1 > 0:
            raise ValueError("mflms_mu1 must be positive")
        if self.mflms_muf is not None and self.mflms_muf < 0:
            raise ValueError("mflms_muf must be non-negative")
        if self.n_runs < 1 or self.n_iters < 1:
            raise ValueError("n_runs and n_iters must be positive")
        if self.checkpoint_interval < 1 or self.n_iters % self.checkpoint_interval:
            raise ValueError("checkpoint_interval must divide n_iters")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must fit in 64 bits")

    @property
    def checkpoints(self) -> np.ndarray:
        """Iteration indices at which ensemble fitness is recorded."""
        k = self.checkpoint_interval
        return np.arange(k, self.n_iters + 1, k)


@dataclass
class RunTrajectory:
    """Checkpointed fitness and final parameters of one run."""

    nwd_at_checkpoints: np.ndarray
    final_theta_aphi: np.ndarray
    final_theta_bc: np.ndarray
    diverged: bool


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
    if muf is None:
        muf = default_muf(mu1, f)
    return FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=Variant.MFLMS_ASSEMBLED)


def _run_rngs(base_seed: int, domain: int, run_index: int):
    """Independent generators for weight init and noise of one run."""
    rng_w = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(domain, run_index, 0)))
    rng_e = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(domain, run_index, 1)))
    return rng_w, rng_e


def _streams(base_seed: int, domain: int, m: int, run_indices: np.ndarray, n_iters: int):
    """Read-only ``(w0, z)`` holding runs ``run_indices`` over at least ``n_iters`` iterations.

    Row ``r`` of ``w0`` holds run ``r``'s initial weights and row ``r`` of
    ``z`` its unit-variance noise; rows of runs never requested are unset.
    A domain's block draws each run once, when a request first names it.
    A request past its last row at least doubles its rows, keeping the
    drawn runs cut to the request's ``n_iters``; another seed or more
    iterations start a block of the request's size.
    """
    n_rows = int(run_indices.max(initial=-1)) + 1
    block = _stream_blocks.get(domain)
    if block is None or block[0] != base_seed or block[3].shape[1] < n_iters:
        block = (base_seed, np.zeros(n_rows, bool), np.empty((n_rows, m)), np.empty((n_rows, n_iters)))
    elif len(block[1]) < n_rows:
        _, drawn, w0, z = block
        rows = max(n_rows, 2 * len(drawn))
        block = (base_seed, np.zeros(rows, bool), np.empty((rows, m)), np.empty((rows, n_iters)))
        block[1][:len(drawn)] = drawn
        block[2][:len(drawn)] = w0
        block[3][:len(drawn)] = z[:, :n_iters]
    _, drawn, w0, z = block
    missing = sorted(set(run_indices[~drawn[run_indices]].tolist()))
    w0.flags.writeable = z.flags.writeable = True
    for run_index in missing:
        rng_w, rng_e = _run_rngs(base_seed, domain, run_index)
        w0[run_index] = rng_w.standard_normal(m)
        z[run_index] = rng_e.standard_normal(z.shape[1])
    drawn[missing] = True
    w0.flags.writeable = z.flags.writeable = False
    _stream_blocks[domain] = block
    return w0, z


def _simulate(
    algorithm: FilterParams | tuple[FilterParams, ...],
    scenario: ScenarioConfig | tuple[ScenarioConfig, ...],
    run_indices,
    domain: int = _DOMAIN_MAIN,
    n_iters: int | None = None,
):
    """Advance a batch of runs; returns (nwd_ck, final_bc, diverged).

    Every run owns its seed-derived streams, so the returned rows do not
    depend on how runs are grouped into batches.  Runs that hit the
    guard keep their last in-bound weights and leave the active batch.

    ``algorithm`` and ``scenario`` may instead be tuples, one entry per
    block: block ``i`` is the next ``scenario[i].n_runs`` runs, stepped
    with ``algorithm[i]`` at ``scenario[i]``'s noise level.
    """
    run_indices = np.asarray(list(run_indices), dtype=np.intp)
    if run_indices.min(initial=0) < 0:
        raise ValueError("run indices must be non-negative")
    n_runs = len(run_indices)
    if isinstance(algorithm, tuple):
        rows = [sc.n_runs for sc in scenario]
        if (len(algorithm) != len(scenario) or sum(rows) != n_runs
                or len({(sc.checkpoint_interval, sc.base_seed, sc.metric_space) for sc in scenario}) > 1):
            raise ValueError("a batch needs a scenario per block, n_runs rows each and one protocol")
        rule = _batch_rule(algorithm, rows)
        noise_std = np.repeat([sc.noise_std for sc in scenario], rows)
        algorithm, scenario = algorithm[0], scenario[0]
    else:
        rule, noise_std = update_rule(algorithm), np.full(n_runs, scenario.noise_std)
    # Per-row coefficient columns, at full batch size; compacted with the rows.
    columns = {name: c for name, c in zip(Rule._fields, rule) if isinstance(c, np.ndarray)}
    n_iters = scenario.n_iters if n_iters is None else n_iters
    interval = scenario.checkpoint_interval
    n_ck = n_iters // interval
    spec, truth = benchmark_spec(scenario.noise_std)
    m = len(truth.theta_bc)

    psi = regressor(spec.frequencies, np.arange(1, n_iters + 1))
    d_clean = (psi * truth.theta_bc).sum(axis=-1)

    w0, z = _streams(scenario.base_seed, domain, m, run_indices, n_iters)
    # Component-major buffers; the kernel steps their (runs, M) views.
    buffers = np.zeros((3, m, n_runs))
    buffers[0] = buffers[1] = w0[run_indices].T
    state = FilterState(*(b.T for b in buffers))
    # The active rows, their run indices and noise levels; all three
    # change only when rows freeze.
    active, active_runs, active_std = np.arange(n_runs), run_indices, noise_std
    frozen = np.zeros(n_runs, dtype=bool)
    # Row-major weights the metrics read: a strided view changes their bits.
    w_out = np.empty((n_runs, m))
    chunk = max(1, _CHUNK_ELEMENTS // max(n_runs, 1))
    # Checkpoint weights are gathered and measured this many at a time;
    # one at a time, the metrics read w_out itself.
    n_slots = min(n_ck, max(1, _CHUNK_ELEMENTS // max(n_runs * m, 1)))
    ck = w_out[None] if n_slots == 1 else np.empty((n_slots, n_runs, m))
    nwd_ck = np.empty((n_runs, n_ck))

    aphi = scenario.metric_space is MetricSpace.APHI
    truth_vec = truth.theta_aphi if aphi else truth.theta_bc

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_iters):
            if k % chunk == 0:
                # Desired samples of the next chunk of iterations, one row
                # per iteration: the clean signal plus each active run's noise.
                zc = z[active_runs, k:min(k + chunk, n_iters)]
                d = np.multiply(zc.T, active_std, out=np.empty(zc.shape[::-1]))
                d += d_clean[k:k + chunk, None]
            if len(active):
                step(state, psi[k], d[k % chunk], algorithm, in_place=True, rule=rule)
                if not (state.w.max() <= WEIGHT_LIMIT and state.w.min() >= -WEIGHT_LIMIT):
                    # Diverged runs freeze at their last in-bound weights and
                    # leave the batch; their later checkpoints repeat them.
                    bad = diverged_rows(state.w)
                    w_out[active[bad]] = state.w_prev[bad]
                    frozen[active[bad]] = True
                    keep = ~bad
                    active, active_runs, active_std = active[keep], active_runs[keep], active_std[keep]
                    d = np.compress(keep, d, axis=1)
                    state.w, state.w_prev, state.v = (
                        np.compress(keep, a.T, axis=1).T for a in (state.w, state.w_prev, state.v)
                    )
                    rule = rule._replace(**{name: c[active] for name, c in columns.items()})
            if (k + 1) % interval == 0:
                j = (k + 1) // interval - 1
                slot = j % n_slots
                w_out[active] = state.w
                if n_slots > 1:
                    ck[slot] = w_out
                if slot == n_slots - 1 or j == n_ck - 1:
                    estimate = aphi_from_bc(ck[:slot + 1]) if aphi else ck[:slot + 1]
                    nwd_ck[:, j - slot:j + 1] = nwd(estimate, truth_vec).T

    return nwd_ck, w_out, frozen


def _batch_key(algorithm: FilterParams) -> tuple:
    """What the blocks of a batch share: the variant, the exponent and which of ``b`` and ``alpha`` are zero."""
    rule = update_rule(algorithm)
    return algorithm.variant, rule.p, rule.b == 0.0, rule.alpha == 0.0


def _batch_rule(algorithms, rows) -> Rule:
    """The update rule of a batch whose block ``i`` has ``rows[i]`` runs stepping with ``algorithms[i]``.

    Each block's coefficients are its own :func:`update_rule`'s floats;
    those that differ between blocks become per-row ``(runs, 1)``
    columns, which ``step`` applies row by row with the same bits.  The
    blocks must share their :func:`_batch_key`, so that the kernel takes
    one branch for every row.
    """
    if len({_batch_key(a) for a in algorithms}) > 1:
        raise ValueError("the blocks of a batch must share the variant, the exponent and the zero coefficients")
    rules = [update_rule(a) for a in algorithms]
    columns = {}
    for name in ("a", "b", "alpha"):
        values = [getattr(rule, name) for rule in rules]
        if len(set(values)) > 1:
            columns[name] = np.repeat(values, rows)[:, None]
    return rules[0]._replace(**columns)


def _simulate_blocks(blocks, reduce, domain: int = _DOMAIN_MAIN) -> list:
    """``reduce(scenario, nwd_ck, final_bc, frozen)`` of every block, in order.

    Block ``(algorithm, scenario)`` is runs ``0 .. scenario.n_runs - 1``
    of one ``_simulate`` batch.  Blocks with one :func:`_batch_key` and
    protocol share batches of at most ``_BATCH_ROWS`` rows (one block at
    least), and each block is reduced from its own rows when its batch
    returns, so one batch's rows are held at a time.
    """
    groups = {}
    for i, (algorithm, sc) in enumerate(blocks):
        protocol = (sc.n_iters, sc.checkpoint_interval, sc.base_seed, sc.metric_space)
        groups.setdefault((_batch_key(algorithm), protocol), []).append(i)
    results = [None] * len(blocks)
    for group in groups.values():
        per_batch = max(1, _BATCH_ROWS // max(blocks[i][1].n_runs for i in group))
        size = math.ceil(len(group) / math.ceil(len(group) / per_batch))  # even batches
        for start in range(0, len(group), size):
            batch = group[start:start + size]
            algorithms, scenarios = zip(*(blocks[i] for i in batch))
            # n_iters is passed so that the call's arguments state its length:
            # the traced benchmark reads it there, and a tuple has none.
            rows = _simulate(
                algorithms, scenarios, np.concatenate([np.arange(sc.n_runs) for sc in scenarios]),
                domain=domain, n_iters=scenarios[0].n_iters,
            )
            bounds = np.cumsum([0, *(sc.n_runs for sc in scenarios)])
            for i, sc, lo, hi in zip(batch, scenarios, bounds, bounds[1:]):
                results[i] = reduce(sc, *(a[lo:hi] for a in rows))
            del rows  # before the next batch allocates its own
    return results


def run_single(algorithm: FilterParams, scenario: ScenarioConfig, run_index: int) -> RunTrajectory:
    """One seeded run: Gaussian weight init, noisy samples, checkpointed fitness.

    Identical ``(algorithm, scenario, run_index)`` always reproduce the
    same trajectory bit for bit.  Divergence is recorded, not raised.
    """
    if not 0 <= run_index < scenario.n_runs:
        raise ValueError("run_index out of range")
    nwd_ck, final_bc, frozen = _simulate(algorithm, scenario, [run_index])
    final_bc = final_bc[0]
    return RunTrajectory(
        nwd_at_checkpoints=nwd_ck[0],
        final_theta_aphi=aphi_from_bc(final_bc),
        final_theta_bc=final_bc,
        diverged=bool(frozen[0]),
    )


def _aggregate(scenario: ScenarioConfig, nwd_ck: np.ndarray, final_bc: np.ndarray, frozen: np.ndarray) -> AggregateResult:
    alive = ~frozen
    if not alive.any():
        raise AllRunsDivergedError("every run in the ensemble diverged")
    _, truth = benchmark_spec(scenario.noise_std)
    final_aphi = aphi_from_bc(final_bc[alive])
    mean_aphi = final_aphi.mean(axis=0)
    per_run = mse(final_aphi, truth.theta_aphi)
    return AggregateResult(
        mean_nwd_at_checkpoints=nwd_ck[alive].mean(axis=0),
        mean_final_theta_aphi=mean_aphi,
        mse_of_mean=float(mse(mean_aphi, truth.theta_aphi)),
        mean_per_run_mse=float(np.mean(per_run)),
        divergence_count=int(frozen.sum()),
    )


def run_monte_carlo(algorithm: FilterParams, scenario: ScenarioConfig) -> AggregateResult:
    """Ensemble of ``scenario.n_runs`` independent runs, averaged.

    Diverged runs are excluded from the means and counted.
    """
    (aggregate,) = _simulate_blocks([(algorithm, scenario)], _aggregate)
    return aggregate


def _curve_key(algorithm, scenario, calibration_runs, n_iters):
    """What a calibration curve's simulation reads."""
    return (algorithm, scenario.noise_std, n_iters, scenario.checkpoint_interval,
            scenario.base_seed, scenario.metric_space, calibration_runs)


def _mean_curve(nwd_ck, frozen):
    """Mean fitness of the runs that stayed in bounds (inf if none did)."""
    alive = ~frozen
    return nwd_ck[alive].mean(axis=0) if alive.any() else np.full(nwd_ck.shape[1], math.inf)


def _calibration_curve(algorithm, scenario, calibration_runs, n_iters, curves):
    """The curve of this probe in ``curves`` (see :func:`prefetch_calibration`)."""
    return curves[_curve_key(algorithm, scenario, calibration_runs, n_iters)]


def _mu1_search(target: float, ref_floor: float, tolerance: float):
    """The search of :func:`calibrate_mu1`, as a generator of probe requests.

    It yields lists of ``mu1`` to probe (the doubling scan, then one
    bisection midpoint at a time) and is sent their fitness at the
    target checkpoint, in the same order.  It returns ``(mu1, fitness,
    miss)``: ``miss`` is None on a match, otherwise why there is none,
    with ``mu1`` the fallback (None if every scan probe diverged).
    """
    lo, hi = _MU_BRACKET
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(grid[-1] * 2, hi))
    values = yield grid

    transient = target > _CONVERGED_RATIO * ref_floor
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
        (h_mid,) = yield [mid]
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


def calibrate_mu1(
    scenario: ScenarioConfig,
    target_checkpoint: int = 0,
    tolerance: float = 0.05,
    calibration_runs: int = 200,
    on_no_match: str = "raise",
    curves: dict | None = None,
) -> float:
    """Step size at which the momentum-fractional filter matches the paired LMS.

    The paired LMS is run on a reduced ensemble and its mean fitness at
    ``checkpoints[target_checkpoint]`` becomes the target; bisection
    over ``mu1`` in ``[1e-4, 0.5]`` then matches the candidate's mean
    fitness at the same checkpoint to within ``tolerance`` (relative).

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

    ``on_no_match`` selects the failure behaviour: ``"raise"`` (default)
    raises :class:`CalibrationError`; ``"closest"`` logs a warning and
    returns the scan point whose fitness comes closest to the target
    or, when the bisection misses, its last midpoint.

    The search is simulated by :func:`prefetch_calibration`, then
    replayed from its curves; ``curves`` passes curves that it prefetched
    for several cells at once, with the same ``tolerance``,
    ``calibration_runs`` and ``target_checkpoint``.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive (a zero-width match is unreachable)")
    if calibration_runs < 1:
        raise ValueError("calibration_runs must be positive")
    if on_no_match not in ("raise", "closest"):
        raise ValueError("on_no_match must be 'raise' or 'closest'")
    checkpoints = scenario.checkpoints
    if not 0 <= target_checkpoint < len(checkpoints):
        raise ValueError("target_checkpoint out of range")
    probe_iters = int(checkpoints[target_checkpoint])
    if curves is None:
        curves, _ = prefetch_calibration([scenario], tolerance, calibration_runs, target_checkpoint)

    reference = lms_params(scenario.lms_eta)
    ref_curve = _calibration_curve(reference, scenario, calibration_runs, scenario.n_iters, curves)
    target = float(ref_curve[target_checkpoint])
    if not math.isfinite(target):
        raise CalibrationError("the reference LMS ensemble diverged")

    def h(mu1: float) -> float:
        algorithm = mflms_params(mu1, scenario.alpha, scenario.f, scenario.mflms_muf)
        curve = _calibration_curve(algorithm, scenario, calibration_runs, probe_iters, curves)
        return float(curve[target_checkpoint])

    search = _mu1_search(target, float(ref_curve[-1]), tolerance)
    try:
        request = next(search)
        while True:
            request = search.send([h(mu1) for mu1 in request])
    except StopIteration as done:
        mu1, fitness, miss = done.value
    if miss is None:
        return mu1
    if on_no_match == "closest" and mu1 is not None:
        log.warning("%s; using closest (mu1=%.4g, fitness %.4g)", miss, mu1, fitness)
        return mu1
    raise CalibrationError(miss)


def _simulate_curves(probes, calibration_runs: int, curves: dict) -> list:
    """Calibration curves of ``probes``, ``(algorithm, scenario, n_iters)`` each, in order.

    Probes not yet in ``curves`` are simulated, ``calibration_runs`` runs
    over ``n_iters`` iterations each, in a few wide batches
    (:func:`_simulate_blocks`), and added to it.
    """
    keys = [_curve_key(algorithm, scenario, calibration_runs, n_iters) for algorithm, scenario, n_iters in probes]
    missing = {}
    for key, (algorithm, scenario, n_iters) in zip(keys, probes):
        if key not in curves and key not in missing:
            missing[key] = (algorithm, replace(scenario, n_runs=calibration_runs, n_iters=n_iters))

    def read_only_curve(scenario, nwd_ck, final_bc, frozen):
        curve = _mean_curve(nwd_ck, frozen)
        curve.flags.writeable = False
        return curve

    curves.update(zip(missing, _simulate_blocks(list(missing.values()), read_only_curve, _DOMAIN_CALIBRATION)))
    return [curves[key] for key in keys]


def prefetch_calibration(
    scenarios, tolerance: float = 0.05, calibration_runs: int = 200, target_checkpoint: int = 0
) -> tuple[dict, list]:
    """Every curve that :func:`calibrate_mu1` asks for in ``scenarios``, simulated in lockstep.

    The searches of all cells advance together: the paired-LMS
    references first (so the calibration streams are drawn once, at full
    length), then every cell's doubling scan, then one bisection
    midpoint per unfinished cell per round.  Each round's probes run in
    a few wide batches (:func:`_simulate_curves`).  Nothing is logged or
    raised here: passing the curves to ``calibrate_mu1(scenario,
    target_checkpoint, tolerance, calibration_runs, curves=...)``
    replays each cell's search in microseconds.

    Returns ``(curves, mu1s)``: ``mu1s[i]`` is the step size the search
    of ``scenarios[i]`` ends at, which its replay returns unless it
    raises, or None when its reference or every scan probe diverged.
    """
    references = [(lms_params(sc.lms_eta), sc, sc.n_iters) for sc in scenarios]
    curves: dict = {}
    mu1s = [None] * len(scenarios)
    pending = []
    for i, (sc, ref_curve) in enumerate(zip(scenarios, _simulate_curves(references, calibration_runs, curves))):
        target = float(ref_curve[target_checkpoint])
        if math.isfinite(target):
            search = _mu1_search(target, float(ref_curve[-1]), tolerance)
            pending.append((i, sc, int(sc.checkpoints[target_checkpoint]), search, next(search)))
    while pending:
        probes = [
            (mflms_params(mu1, sc.alpha, sc.f, sc.mflms_muf), sc, n_iters)
            for _, sc, n_iters, _, request in pending for mu1 in request
        ]
        found = iter(_simulate_curves(probes, calibration_runs, curves))
        advanced = []
        for i, sc, n_iters, search, request in pending:
            try:
                fitness = [float(next(found)[target_checkpoint]) for _ in request]
                advanced.append((i, sc, n_iters, search, search.send(fitness)))
            except StopIteration as done:
                mu1s[i] = done.value[0]
        pending = advanced
    return curves, mu1s


@dataclass(frozen=True)
class GridConfig:
    """Full benchmark grid: the scenario axes plus the run protocol."""

    noise_levels: tuple = NOISE_LEVELS
    noise_scale: str = "variance"
    alphas: tuple = ALPHAS
    fractional_orders: tuple = FRACTIONAL_ORDERS
    lms_etas: tuple = PAIRED_LMS_ETAS
    mflms_mu1: float | None = None
    n_runs: int = 1000
    n_iters: int = 1000
    checkpoint_interval: int = 100
    base_seed: int = DEFAULT_BASE_SEED
    metric_space: MetricSpace = MetricSpace.APHI
    calibration_runs: int = 200
    calibration_tolerance: float = 0.05

    def __post_init__(self):
        if self.noise_scale not in ("variance", "std"):
            raise ValueError("noise_scale must be 'variance' or 'std'")
        if len(self.alphas) != len(self.lms_etas):
            raise ValueError("alphas and lms_etas must pair up one-to-one")
        if not self.noise_levels or not self.alphas or not self.fractional_orders:
            raise ValueError("grid axes must be non-empty")
        if self.checkpoint_interval < 1 or self.n_iters % self.checkpoint_interval:
            raise ValueError("checkpoint_interval must divide n_iters")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must fit in an unsigned 64-bit integer")

    def noise_std(self, level: float) -> float:
        """Disturbance standard deviation for a grid noise level."""
        return math.sqrt(level) if self.noise_scale == "variance" else float(level)

    def scenario(self, level: float, alpha: float, f: float, eta: float) -> ScenarioConfig:
        return ScenarioConfig(
            noise_std=self.noise_std(level),
            alpha=alpha,
            f=f,
            lms_eta=eta,
            mflms_mu1=self.mflms_mu1,
            n_runs=self.n_runs,
            n_iters=self.n_iters,
            checkpoint_interval=self.checkpoint_interval,
            base_seed=self.base_seed,
            metric_space=self.metric_space,
        )

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
    """One table row: scenario, the algorithm actually run, and its aggregate."""

    sigma_label: str
    variant: Variant
    alpha: float
    f: float | None
    step_size: float
    scenario: ScenarioConfig
    aggregate: AggregateResult

    @property
    def label(self) -> str:
        if self.variant is Variant.LMS:
            return f"LMS(eta={self.step_size:g})"
        if self.variant is Variant.MOMENTUM_LMS:
            return f"mLMS(eta={self.step_size:g}) a={self.alpha:g}"
        if self.variant is Variant.FLMS:
            return f"FLMS(f={self.f:.2f})"
        name = {
            Variant.MFLMS_ASSEMBLED: "mFLMS",
            Variant.MFLMS_PUBLISHED16: "mFLMS-published",
            Variant.MFLMS_CORRECTED: "mFLMS-corrected",
        }[self.variant]
        return f"{name}(f={self.f:.2f}) a={self.alpha:g}"


def sigma_label(level: float) -> str:
    return f"{level:.2f}"


def calibrate_grid(config: GridConfig, on_no_match: str = "closest"):
    """Calibrate every momentum-fractional cell of the grid: ``(mu1s, replays)``.

    Every cell's search is simulated first, in lockstep
    (:func:`prefetch_calibration`); ``mu1s`` lists the step size each
    search ends at, in row order (None where there is none).
    ``replays`` yields ``(level, scenario, mu1)`` for every cell in row
    order: each cell's :func:`calibrate_mu1` replays its search when the
    generator reaches that cell, so its log lines and its error fall
    where calibrating the cells one by one would put them.
    ``on_no_match`` is passed to :func:`calibrate_mu1`.
    """
    cells = [(level, scenario) for level, f, scenario in config.cells() if f is not None]
    curves, mu1s = prefetch_calibration(
        [scenario for _, scenario in cells], config.calibration_tolerance, config.calibration_runs
    )
    # Nothing after the prefetch reads the calibration streams: release
    # them before a grid's ensembles draw theirs.
    _stream_blocks.pop(_DOMAIN_CALIBRATION, None)
    replays = (
        (level, scenario, calibrate_mu1(
            scenario,
            tolerance=config.calibration_tolerance,
            calibration_runs=config.calibration_runs,
            on_no_match=on_no_match,
            curves=curves,
        ))
        for level, scenario in cells
    )
    return mu1s, replays


def full_grid(config: GridConfig) -> list[GridEntry]:
    """Run the complete benchmark grid in table row order.

    For each noise level and each momentum block: the fractional-order
    scenarios first, then the paired LMS row.  Momentum-fractional step
    sizes come from ``config.mflms_mu1`` when set, otherwise from
    :func:`calibrate_grid` (falling back to the closest achievable match
    rather than aborting the grid).  Every cell's calibration is
    simulated first, then every cell's ensemble, in a few wide batches
    (:func:`_simulate_blocks`).  Then each row replays its calibration
    and logs its line in row order, so a row's error is raised after the
    lines of the rows before it, as when the cells run one by one.
    """
    cells = list(config.cells())
    replays = None
    if config.mflms_mu1 is None:
        mu1s, replays = calibrate_grid(config)
        mu1s = iter(mu1s)
    blocks = {}
    for i, (_, f, scenario) in enumerate(cells):
        if f is None:
            blocks[i] = lms_params(scenario.lms_eta), scenario
        else:
            mu1 = scenario.mflms_mu1 if replays is None else next(mu1s)
            if mu1 is not None:  # a cell without one raises CalibrationError at its row
                blocks[i] = mflms_params(mu1, scenario.alpha, f, scenario.mflms_muf), scenario

    def aggregate_or_error(*block):
        try:
            return _aggregate(*block)
        except AllRunsDivergedError as error:
            return error  # raised at its row

    aggregates = dict(zip(blocks, _simulate_blocks(list(blocks.values()), aggregate_or_error)))

    entries = []
    for i, (level, f, scenario) in enumerate(cells):
        if f is not None and replays is not None:
            next(replays)
        (algorithm, _), aggregate = blocks[i], aggregates[i]
        if isinstance(aggregate, AllRunsDivergedError):
            raise aggregate
        log.info(
            "scenario sigma=%s alpha=%g %s step=%.5g: final mean NWD %.4f",
            sigma_label(level), scenario.alpha,
            "lms" if f is None else f"f={f:g}", algorithm.mu1,
            aggregate.mean_nwd_at_checkpoints[-1],
        )
        entries.append(GridEntry(
            sigma_label=sigma_label(level),
            variant=algorithm.variant,
            alpha=scenario.alpha,
            f=f,
            step_size=algorithm.mu1,
            scenario=scenario,
            aggregate=aggregate,
        ))
    return entries
