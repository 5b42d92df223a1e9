"""Guard the program names the benchmark harness under ``perfbench/`` uses.

The harness wraps module-level functions of ``lmslab.experiment`` and
``lmslab.cli`` by name to time each layer, and its worker calls a few
more.  A refactor that renames or removes one of them leaves that layer
unmeasured instead of failing, so this test reads the harness's name
lists (without importing or changing the harness) and checks that each
name still resolves to a callable.
"""

import ast
import math
from pathlib import Path

import pytest

import lmslab.cli
import lmslab.experiment
from lmslab.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _targets(name):
    """Attribute names listed in the ``spans.py`` tuple ``name``."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [attr for attr, _layer in ast.literal_eval(node.value)]
    raise AssertionError(f"perfbench/spans.py no longer defines {name}")


@pytest.mark.parametrize("module, name", [
    (lmslab.experiment, "EXPERIMENT_TARGETS"),
    (lmslab.cli, "CLI_TARGETS"),
])
def test_span_targets_are_callable(module, name):
    attrs = _targets(name)
    assert attrs
    missing = [a for a in attrs if not callable(getattr(module, a, None))]
    assert not missing, f"{module.__name__} lacks {missing}"


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
