"""Guard the program names and the log protocol the benchmark harness under ``perfbench/`` uses.

The harness wraps module-level functions of ``lmslab.experiment`` and
``lmslab.cli`` by name to time each layer, and its worker calls a few
more.  A refactor that renames or removes one of them leaves that layer
unmeasured instead of failing, so this test reads the harness's name
lists (without importing or changing the harness) and checks that each
name still resolves to a callable, and that its list of variants names
every update rule in order.  The harness's correctness checks
also parse the order of calibration curves and log lines; a small grid
must pass them.  Every module's ``__all__`` and the package's re-exports
must resolve too, the re-exports are pinned name by name, and README's
configuration block must state the defaults that ``GridConfig`` declares.
"""

import ast
import importlib
import importlib.util
import logging
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import lmslab
import lmslab.cli
import lmslab.experiment
from lmslab.config import parse_config
from lmslab.filters import KINDS, Variant
from lmslab.reporting import write_aggregates_csv

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = Path(lmslab.__file__).resolve().parents[1]


def _literal(module, name):
    """The literal that the harness module ``module`` assigns to ``name``, read without importing it."""
    tree = ast.parse((PERFBENCH / module).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module} no longer defines {name}")


def _targets(name):
    """Attribute names listed in the ``spans.py`` tuple ``name``."""
    return [attr for attr, _layer in _literal("spans.py", name)]


@pytest.mark.parametrize("module, name", [
    (lmslab.experiment, "EXPERIMENT_TARGETS"),
    (lmslab.cli, "CLI_TARGETS"),
])
def test_span_targets_are_callable(module, name):
    attrs = _targets(name)
    assert attrs
    missing = [a for a in attrs if not callable(getattr(module, a, None))]
    assert not missing, f"{module.__name__} lacks {missing}"


def test_harness_times_every_update_rule():
    # The harness files a step's time under its variant's place in
    # VARIANTS and an unknown variant under -1, so a rule missing there
    # would run with its step cost unrecorded.
    assert list(_literal("workloads.py", "VARIANTS")) == [v.value for v in Variant]
    assert KINDS.keys() == set(Variant)


MODULES = [m.name for m in pkgutil.iter_modules(lmslab.__path__)]


def test_python_m_lmslab_help_exits_0():
    # `python -m lmslab` runs the command line; importing lmslab.__main__ does not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "lmslab", "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: lmslab")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"lmslab.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"lmslab.{name}.__all__ lists missing {missing}"


def test_package_reexports_public_names():
    # Each name lmslab/__init__.py imports from a module is that module's
    # own object and listed in its __all__.
    tree = ast.parse(Path(lmslab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"lmslab.{node.module}")
        for alias in node.names:
            assert getattr(lmslab, alias.asname or alias.name) is getattr(module, alias.name)
            assert alias.name in module.__all__, f"{alias.name} is not in lmslab.{node.module}.__all__"


# Every name lmslab/__init__.py re-exports, by module: adding or removing
# one is a deliberate change to the package's surface, made here too.
PUBLIC_SURFACE = {
    "filters": {"DivergenceError", "FilterParams", "FilterState", "Variant", "WEIGHT_LIMIT", "default_muf",
                "gamma", "step"},
    "metrics": {"MetricSpace", "mse", "nwd"},
    "experiment": {"AggregateResult", "AllRunsDivergedError", "CalibrationError", "GridConfig", "GridEntry",
                   "ScenarioConfig", "calibrate_mu1", "full_grid", "lms_params", "mflms_params",
                   "run_monte_carlo"},
    "signal_model": {"aphi_from_bc", "bc_from_aphi", "regressor"},
}


def test_package_surface_is_pinned():
    tree = ast.parse(Path(lmslab.__file__).read_text())
    exported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exported.setdefault(node.module, set()).update(alias.asname or alias.name for alias in node.names)
    assert exported == PUBLIC_SURFACE


def test_readme_config_block_is_the_default_grid():
    # README shows the default protocol as a config file; it parses to
    # GridConfig's own defaults and names every one of its fields.
    (block,) = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert parse_config(block).grid_config() == lmslab.experiment.GridConfig()
    missing = [f.name for f in fields(lmslab.experiment.GridConfig)
               if not re.search(rf"^(# )?{f.name} = ", block, re.M)]
    assert not missing, f"README's config block lacks {missing}"


def test_worker_names_are_callable():
    worker = (PERFBENCH / "worker.py").read_text()
    for attr in ("_calibration_curve", "grid_config", "single_scenario"):
        assert attr in worker
    assert callable(getattr(lmslab.experiment, "_calibration_curve", None))
    settings = parse_config("noise_level = 0.30\nalpha = 0.2\nf = 0.25")
    assert isinstance(settings.grid_config(), lmslab.experiment.GridConfig)
    assert isinstance(settings.single_scenario(), lmslab.experiment.ScenarioConfig)


def test_engine_steps_each_iteration_with_rows_first(monkeypatch):
    # The harness's per-variant ns per row-step divides a step's time by
    # state.w.shape[0], so a non-diverging ensemble must call step once
    # per iteration with the runs along the first axis.
    shapes = []
    real_step = lmslab.experiment.step

    def counting_step(state, *args, **kwargs):
        shapes.append(state.w.shape)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(lmslab.experiment, "step", counting_step)
    scenario = lmslab.experiment.ScenarioConfig(
        noise_std=math.sqrt(0.30), alpha=0.2, f=0.25, lms_eta=0.027,
        n_runs=37, n_iters=300, checkpoint_interval=100,
    )
    aggregate = lmslab.experiment.run_monte_carlo(lmslab.experiment.lms_params(0.027), scenario)
    assert aggregate.divergence_count == 0
    assert shapes == [(37, 8)] * 300


def _function(module, name):
    """The function ``name`` of the harness module ``module``, compiled from its source without importing it."""
    tree = ast.parse((PERFBENCH / module).read_text())
    nodes = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    assert nodes, f"perfbench/{module} no longer defines {name}"
    namespace = {}
    exec(compile(ast.Module(body=nodes, type_ignores=[]), str(PERFBENCH / module), "exec"), namespace)
    return namespace[name]


def test_harness_reads_each_batch_shape(monkeypatch):
    # The harness files experiment.simulate.* under the (rows, n_iters)
    # that _simulate_shape reads from a _simulate call's arguments; a call
    # it cannot read counts (0, 0), which would zero those metrics.
    shape = _function("spans.py", "_simulate_shape")
    calls = []
    real_simulate = lmslab.experiment._simulate

    def recording_simulate(*args, **kwargs):
        out = real_simulate(*args, **kwargs)
        nwd_ck, _, frozen = out
        calls.append((shape(*args, **kwargs), (len(frozen), nwd_ck.shape[1] * scenario.checkpoint_interval)))
        return out

    monkeypatch.setattr(lmslab.experiment, "_simulate", recording_simulate)
    scenario = lmslab.experiment.ScenarioConfig(
        noise_std=math.sqrt(0.30), alpha=0.2, f=0.25, lms_eta=0.027,
        n_runs=7, n_iters=300, checkpoint_interval=100,
    )
    lmslab.experiment.run_monte_carlo(lmslab.experiment.lms_params(0.027), scenario)
    lmslab.experiment.prefetch_calibration([scenario], 0.05, 5)
    # The ensemble, the calibration's reference, then its probe batches.
    assert calls[:2] == [((7, 300), (7, 300)), ((5, 300), (5, 300))] and len(calls) > 2
    for read, batch in calls:
        assert read == batch and 0 not in read


class _Capture(logging.Handler):
    def __init__(self, records):
        super().__init__(logging.INFO)
        self.records = records

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.getMessage()))


def test_calibrating_grid_passes_the_harness_checks(monkeypatch, caplog):
    # Recorded as the harness's worker records them: the grid's log lines
    # and every _calibration_curve result, in one stream.  Per cell the
    # reference curve, then each probe curve, then the cell's INFO line.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)

    records = []
    real_curve = lmslab.experiment._calibration_curve

    def recording_curve(algorithm, *args, **kwargs):
        curve = real_curve(algorithm, *args, **kwargs)
        records.append((checks.CURVE_LOG, 0, {
            "mu1": float(algorithm.mu1), "curve": [float(c) for c in curve],
        }))
        return curve

    monkeypatch.setattr(lmslab.experiment, "_calibration_curve", recording_curve)
    config = lmslab.experiment.GridConfig(
        noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
        fractional_orders=(0.25, 0.75), n_runs=10, n_iters=300, checkpoint_interval=100,
        calibration_runs=20, calibration_tolerance=checks.CALIBRATION_TOLERANCE,
    )
    logger = logging.getLogger("lmslab.experiment")
    handler = _Capture(records)
    logger.addHandler(handler)
    try:
        with caplog.at_level(logging.INFO, logger="lmslab.experiment"):
            entries = lmslab.experiment.full_grid(config)
    finally:
        logger.removeHandler(handler)

    rows = checks.parse_aggregates(write_aggregates_csv(entries))
    keys = [checks.scenario_key(r) for r in rows]
    assert len(rows) == 6 and sum(name == checks.CURVE_LOG for name, _, _ in records) > 4 * 13
    assert checks.check_fallback(records, keys) == {}
    assert checks.check_calibration(records, rows) == {}
    # Curves sit between the scenario lines: a calibrated cell's own
    # reference, then its 13 scan probes and at least one midpoint; none
    # before a paired-LMS row.
    segments, segment = [], []
    for name, _, message in records:
        if name == checks.CURVE_LOG:
            segment.append(message["mu1"])
        elif message.startswith("scenario "):
            segments.append(segment)
            segment = []
    assert segment == [] and len(segments) == len(entries)
    for entry, mu1s in zip(entries, segments):
        if entry.f is None:
            assert mu1s == []
        else:
            assert mu1s[0] == entry.scenario.lms_eta and len(mu1s) >= 1 + 13 + 1
