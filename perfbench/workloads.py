"""Workload and metric definitions shared by the harness, the worker and the tests.

A workload is a configuration file generated from the seed plus the
``lmslab`` command lines that consume it.  The program sees only that
file and the command lines; the seed reaches it as ``base_seed``.
"""

from __future__ import annotations

# Configuration-file names of the six update rules (``--set algorithm=...``).
VARIANTS = (
    "lms",
    "momentum_lms",
    "flms",
    "mflms",
    "mflms_published16",
    "mflms_corrected",
)

# Grid protocol defaults (lmslab's own): 3 noise levels x 3 momentum
# blocks x (3 fractional orders + 1 paired LMS row).
GRID_SCENARIOS = 36
DEFAULT_RUNS = 1000
DEFAULT_ITERS = 1000
# lmslab's default calibration tolerance, pinned in grid-default's config
# so that the calibration check knows the tolerance the program used.
CALIBRATION_TOLERANCE = 0.05

# grid-dense: explicit mu1 (no calibration), tens of runs, a checkpoint
# at every iteration.
DENSE_RUNS = 20
DENSE_MU1 = 0.011

# variants: one scenario, every update rule at a fixed mu1.
VARIANT_SCENARIO = {"noise_level": 0.30, "alpha": 0.2, "f": 0.25}
VARIANT_MU1 = 0.012


class Workload:
    """One benchmark workload: generated config, CLI calls, delivered work."""

    def __init__(self, name, why, config_lines, calls, delivered_row_steps, scenarios):
        self.name = name
        self.why = why
        self._config_lines = config_lines
        self._calls = calls
        self.delivered_row_steps = delivered_row_steps
        self.scenarios = scenarios

    def config_text(self, seed: int) -> str:
        """The configuration file the program receives for ``seed``."""
        lines = [f"base_seed = {seed}"] + [f"{k} = {v}" for k, v in self._config_lines]
        return "\n".join(lines) + "\n"

    @property
    def output_dirs(self) -> list[str]:
        """Output subdirectory of each ``lmslab`` invocation, in order."""
        return [rel for _, rel, _ in self._calls]

    def calls(self, config_path, out_dir) -> list[list[str]]:
        """``lmslab`` argv of each invocation, in order."""
        return [
            [sub, "--config", str(config_path), "--out", str(out_dir / rel), "--workers", "1", *extra]
            for sub, rel, extra in self._calls
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-default",
            "lmslab grid at the default protocol (36 ensembles of 1000x1000 plus 27 calibrations): "
            "the run users make; calibration ~61% and stream setup ~30% of it",
            [("calibration_tolerance", CALIBRATION_TOLERANCE)],
            [("grid", ".", [])],
            GRID_SCENARIOS * DEFAULT_RUNS * DEFAULT_ITERS,
            GRID_SCENARIOS,
        ),
        Workload(
            "grid-dense",
            "lmslab grid with fixed mu1, 20-run ensembles and a checkpoint every iteration: "
            "per-call overhead, checkpoint metrics and report writing dominate",
            [("mflms_mu1", DENSE_MU1), ("n_runs", DENSE_RUNS), ("checkpoint_interval", 1)],
            [("grid", ".", [])],
            GRID_SCENARIOS * DENSE_RUNS * DEFAULT_ITERS,
            GRID_SCENARIOS,
        ),
        Workload(
            "variants",
            "one 1000x1000 ensemble per update rule via lmslab run at level 0.30, a=0.2, f=0.25, "
            "fixed mu1: the only workload running all six rules; the step kernel dominates",
            [*VARIANT_SCENARIO.items(), ("mflms_mu1", VARIANT_MU1)],
            [("run", v, ["--set", f"algorithm={v}"]) for v in VARIANTS],
            len(VARIANTS) * DEFAULT_RUNS * DEFAULT_ITERS,
            len(VARIANTS),
        ),
    )
}


# End-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "run_steps_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "passed_frac": ("frac", "higher", 0.01),
}

# Per-layer metrics: name -> (unit, better).  README.md says which
# end-to-end metric each should move, and on which workload.
PER_LAYER = {
    "experiment.calibrate.s": ("s", "lower"),
    "experiment.calibrate.calls": ("count", "lower"),
    "experiment.calibrate.sims_per_call": ("count", "lower"),
    "experiment.calibrate.row_steps": ("count", "lower"),
    "experiment.calibrate.probe_to_delivered_row_steps": ("ratio", "lower"),
    "experiment.streams.s": ("s", "lower"),
    "experiment.streams.runs": ("count", "lower"),
    "experiment.streams.us_per_run": ("us", "lower"),
    "experiment.ensemble.s": ("s", "lower"),
    "experiment.ensemble.self_s": ("s", "lower"),
    "experiment.simulate.calls": ("count", "lower"),
    "experiment.simulate.row_steps": ("count", "lower"),
    "experiment.simulate.mean_batch_rows": ("count", "higher"),
    "experiment.diverged_runs": ("count", "lower"),
    "filters.step.s": ("s", "lower"),
    "filters.step.calls": ("count", "lower"),
    **{f"filters.step.ns_per_row_step.{v}": ("ns", "lower") for v in VARIANTS},
    "filters.guard.s": ("s", "lower"),
    "signal_model.aphi_from_bc.s": ("s", "lower"),
    "signal_model.aphi_from_bc.calls": ("count", "lower"),
    "metrics.nwd.s": ("s", "lower"),
    "metrics.nwd.calls": ("count", "lower"),
    "reporting.write.s": ("s", "lower"),
    "reporting.write.bytes": ("bytes", "lower"),
    "reporting.write.files": ("count", "lower"),
    "config.parse.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
