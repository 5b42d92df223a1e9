"""Span recording for the traced benchmark run.

The traced run replaces the functions each ``lmslab`` module calls, by
the name the calling module looks them up under (``lmslab.experiment.step``
rather than ``lmslab.filters.step``), with wrappers that record one span
per call: layer, start, end, parent span, scenario ("run") id and two
layer-specific integers.  Spans live in flat arrays while the workload
runs and are written out when it ends.  Nothing inside ``lmslab``
changes.

Stream setup has no public entry point: it is traced through the
private ``lmslab.experiment._run_rngs``, whose two generators are handed
back behind a proxy so that the ``w0`` and noise draws made from them
count as stream setup too.  A name the program no longer has is listed
in ``Recorder.absent``; layers built on it are reported absent, never as
zero.
"""

from __future__ import annotations

import functools
import time
from array import array

from workloads import VARIANTS

_clock = time.perf_counter

# (name as the calling module looks it up, layer)
EXPERIMENT_TARGETS = (
    ("full_grid", "experiment.grid"),
    ("calibrate_mu1", "experiment.calibrate"),
    ("run_monte_carlo", "experiment.ensemble"),
    ("_simulate", "experiment.simulate"),
    ("_run_rngs", "experiment.streams"),
    ("step", "filters.step"),
    ("diverged_rows", "filters.guard"),
    ("aphi_from_bc", "signal_model.aphi_from_bc"),
    ("nwd", "metrics.nwd"),
)
CLI_TARGETS = (
    ("main", "cli"),
    ("calibrate_mu1", "experiment.calibrate"),
    ("run_monte_carlo", "experiment.ensemble"),
    ("write_grid_outputs", "reporting.write"),
    ("write_aggregates_csv", "reporting.write"),
    ("parse_config", "config.parse"),
    ("apply_override", "config.parse"),
    ("validate_settings", "config.parse"),
)


class Recorder:
    """Flat in-memory span store; one per traced workload repetition."""

    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.n = array("q")
        self.k = array("l")
        self.run_id = 0
        self.diverged_runs = 0
        self.absent: list[str] = []
        self._stack: list[int] = []

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def open(self, lid: int, n: int = 0, k: int = 0) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.n.append(n)
        self.k.append(k)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()


class _TimedGenerator:
    """Forwards to a numpy Generator, recording its draws as stream setup."""

    __slots__ = ("_gen", "_rec", "_lid")

    def __init__(self, gen, rec: Recorder, lid: int):
        self._gen = gen
        self._rec = rec
        self._lid = lid

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def _timed(self, method, args, kwargs):
        idx = self._rec.open(self._lid)
        try:
            return method(*args, **kwargs)
        finally:
            self._rec.close(idx)

    def standard_normal(self, *args, **kwargs):
        return self._timed(self._gen.standard_normal, args, kwargs)

    def normal(self, *args, **kwargs):
        return self._timed(self._gen.normal, args, kwargs)


def _simulate_shape(algorithm, scenario, run_indices, domain=None, n_iters=None):
    return len(run_indices), scenario.n_iters if n_iters is None else n_iters


def _describe(layer):
    """``(args, kwargs) -> (n, k)`` annotations recorded on a layer's spans."""
    if layer == "experiment.simulate":
        def describe(args, kwargs):
            try:
                return _simulate_shape(*args, **kwargs)
            except (TypeError, AttributeError):
                return 0, 0
        return describe
    if layer == "filters.step":
        def describe(args, kwargs):
            try:
                w, variant = args[0].w, args[3].variant.value
            except (IndexError, AttributeError):
                return 0, -1
            rows = w.shape[0] if w.ndim > 1 else 1
            return rows, VARIANTS.index(variant) if variant in VARIANTS else -1
        return describe
    if layer == "experiment.streams":
        return lambda args, kwargs: (1, 0)
    return None


def _wrap(rec: Recorder, module, attr: str, layer: str):
    fn = getattr(module, attr, None)
    if not callable(fn):
        rec.absent.append(f"{module.__name__}.{attr}")
        return None
    lid = rec.layer_id(layer)
    describe = _describe(layer)
    is_ensemble = layer == "experiment.ensemble"
    is_streams = layer == "experiment.streams"
    is_simulate = layer == "experiment.simulate"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        n, k = describe(args, kwargs) if describe else (0, 0)
        idx = rec.open(lid, n, k)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if is_ensemble:
                rec.run_id += 1
        if is_streams and isinstance(result, tuple):
            result = tuple(_TimedGenerator(g, rec, lid) for g in result)
        elif is_simulate:
            try:
                rec.diverged_runs += int(result[2].sum())
            except (IndexError, TypeError, AttributeError):
                pass
        return result

    setattr(module, attr, wrapper)
    return fn


def install(rec: Recorder, cli_module, experiment_module):
    """Wrap every traced name; returns a function that restores the originals."""
    originals = []
    for module, targets in ((experiment_module, EXPERIMENT_TARGETS), (cli_module, CLI_TARGETS)):
        for attr, layer in targets:
            fn = _wrap(rec, module, attr, layer)
            if fn is not None:
                originals.append((module, attr, fn))

    def restore():
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return restore


def save(rec: Recorder, path) -> None:
    """Write every span to ``path`` (numpy ``.npz``)."""
    import numpy as np

    np.savez(
        path,
        layers=np.array(rec.layers),
        layer=np.frombuffer(rec.layer, dtype=np.uint16),
        start=np.frombuffer(rec.start),
        end=np.frombuffer(rec.end),
        parent=np.frombuffer(rec.parent, dtype=np.int64),
        run=np.frombuffer(rec.run, dtype=np.int64),
        n=np.frombuffer(rec.n, dtype=np.int64),
        k=np.frombuffer(rec.k, dtype=np.int64),
    )


# Layer each per-layer metric is built on; used to report it absent.
_METRIC_LAYER = {
    "experiment.calibrate": "experiment.calibrate",
    "experiment.streams": "experiment.streams",
    "experiment.ensemble": "experiment.ensemble",
    "experiment.simulate": "experiment.simulate",
    "experiment.diverged_runs": "experiment.simulate",
    "filters.step": "filters.step",
    "filters.guard": "filters.guard",
    "signal_model.aphi_from_bc": "signal_model.aphi_from_bc",
    "metrics.nwd": "metrics.nwd",
    "reporting.write": "reporting.write",
    "config.parse": "config.parse",
    "cli.self_s": "cli",
}


def metric_layer(metric: str) -> str | None:
    for prefix, layer in _METRIC_LAYER.items():
        if metric.startswith(prefix):
            return layer
    return None


def summarize(rec: Recorder, delivered_row_steps: int) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of one traced repetition, plus two lists of metric names.

    The first list holds metrics whose layer is absent: no wrapped name
    for it exists in the program.  The second holds per-variant step
    costs for update rules the workload never ran.

    A layer's time sums its spans except those directly inside a span of
    the same layer, so a wrapped name calling another wrapped name of
    its own layer is not counted twice.
    """
    import numpy as np

    layer = np.frombuffer(rec.layer, dtype=np.uint16).astype(np.int64)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    n = np.frombuffer(rec.n, dtype=np.int64)
    k = np.frombuffer(rec.k, dtype=np.int64)
    n_spans = len(dur)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_spans)
    parent_layer = np.full(n_spans, -1)
    parent_layer[has_parent] = layer[parent[has_parent]]

    def lid(name):
        return rec._ids.get(name, -2)

    def mask(name):
        return layer == lid(name)

    def outer(name):
        return mask(name) & (parent_layer != lid(name))

    def seconds(name):
        return float(dur[outer(name)].sum())

    present = set(rec.layers)
    out = {}
    cal = mask("experiment.calibrate")
    sim = mask("experiment.simulate")
    sim_rows_steps = n * k
    cal_sims = sim & (parent_layer == lid("experiment.calibrate"))
    cal_calls = int(cal.sum())
    out["experiment.calibrate.s"] = seconds("experiment.calibrate")
    out["experiment.calibrate.calls"] = cal_calls
    out["experiment.calibrate.sims_per_call"] = int(cal_sims.sum()) / cal_calls if cal_calls else 0.0
    cal_row_steps = int(sim_rows_steps[cal_sims].sum())
    out["experiment.calibrate.row_steps"] = cal_row_steps
    out["experiment.calibrate.probe_to_delivered_row_steps"] = cal_row_steps / delivered_row_steps

    streams = mask("experiment.streams")
    stream_runs = int(n[streams].sum())
    out["experiment.streams.s"] = seconds("experiment.streams")
    out["experiment.streams.runs"] = stream_runs
    out["experiment.streams.us_per_run"] = (
        out["experiment.streams.s"] * 1e6 / stream_runs if stream_runs else 0.0
    )

    ens = outer("experiment.ensemble")
    out["experiment.ensemble.s"] = float(dur[ens].sum())
    out["experiment.ensemble.self_s"] = float((dur[ens] - child_time[ens]).sum())
    sim_calls = int(sim.sum())
    out["experiment.simulate.calls"] = sim_calls
    out["experiment.simulate.row_steps"] = int(sim_rows_steps[sim].sum())
    out["experiment.simulate.mean_batch_rows"] = float(n[sim].mean()) if sim_calls else 0.0
    out["experiment.diverged_runs"] = rec.diverged_runs

    step = mask("filters.step")
    out["filters.step.s"] = seconds("filters.step")
    out["filters.step.calls"] = int(step.sum())
    unexercised = []
    for i, v in enumerate(VARIANTS):
        rows = step & (k == i)
        row_steps = int(n[rows].sum())
        name = f"filters.step.ns_per_row_step.{v}"
        out[name] = float(dur[rows].sum()) * 1e9 / row_steps if row_steps else 0.0
        if not row_steps:
            unexercised.append(name)
    out["filters.guard.s"] = seconds("filters.guard")
    for name in ("signal_model.aphi_from_bc", "metrics.nwd"):
        out[f"{name}.s"] = seconds(name)
        out[f"{name}.calls"] = int(mask(name).sum())
    out["reporting.write.s"] = seconds("reporting.write")
    out["config.parse.s"] = seconds("config.parse")
    cli_spans = mask("cli")
    out["cli.self_s"] = float((dur[cli_spans] - child_time[cli_spans]).sum())

    absent = [m for m in out if metric_layer(m) not in present]
    return out, absent, [m for m in unexercised if m not in absent]
