"""Command-line entry point for the estimation benchmark.

Subcommands:

* ``grid`` -- run the full scenario grid and write every table, curve
  and the machine-readable ``aggregates.csv`` to the output directory;
* ``run`` -- run one scenario (selected via config/``--set`` keys) and
  append-free write its aggregate row;
* ``calibrate`` -- print the calibrated momentum-fractional step size
  per scenario without running the full ensembles;
* ``report`` -- regenerate tables and curves from a previously written
  ``aggregates.csv`` without recomputation.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  All
randomness funnels through one seed (``--seed`` overrides the config).
Every command runs in one thread.  ``--workers`` and the
``LMSLAB_MAX_WORKERS`` environment variable are still accepted and
validated (a positive integer, else exit code 1) for existing command
lines, but have no effect.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, Settings, apply_override, parse_config, validate_settings
from .experiment import (
    GridEntry,
    calibrate_grid,
    calibrate_mu1,
    full_grid,
    lms_params,
    mflms_params,
    run_monte_carlo,
    sigma_label,
)
from .filters import FilterParams, Variant, default_muf
from .reporting import read_aggregates_csv, write_aggregates_csv, write_grid_outputs

__all__ = ["main"]

log = logging.getLogger("lmslab")

ENV_MAX_WORKERS = "LMSLAB_MAX_WORKERS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmslab",
        description="LMS-family Monte-Carlo benchmark for sinusoid parameter estimation",
    )
    parser.add_argument("subcommand", choices=["run", "grid", "calibrate", "report"])
    parser.add_argument("--config", type=Path, default=None, help="configuration file path")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--workers", type=int, default=None, help="accepted for compatibility; no effect")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="configuration override, repeatable",
    )
    return parser


def _load_settings(args) -> Settings:
    if args.config is not None:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        settings = parse_config(text)
    else:
        settings = Settings()
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        settings = apply_override(settings, key, value)
    if args.seed is not None:
        settings = apply_override(settings, "base_seed", str(args.seed))
    return validate_settings(settings)


def _check_workers(args) -> None:
    """Validate ``--workers`` / ``LMSLAB_MAX_WORKERS``; neither changes what runs."""
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
        return
    env = os.environ.get(ENV_MAX_WORKERS)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{ENV_MAX_WORKERS} must be an integer, got {env!r}") from None
        if value < 1:
            raise ConfigError(f"{ENV_MAX_WORKERS} must be positive")


def _single_algorithm(settings: Settings, scenario) -> FilterParams:
    """Build the FilterParams for the run/calibrate subcommands."""
    variant = settings.algorithm
    if variant is Variant.LMS:
        return lms_params(scenario.lms_eta)
    if variant is Variant.MFLMS_ASSEMBLED:
        mu1 = scenario.mflms_mu1
        if mu1 is None:
            log.info("no mflms_mu1 configured; calibrating against LMS(eta=%g)", scenario.lms_eta)
            grid = settings.grid_config()
            mu1 = calibrate_mu1(scenario, tolerance=grid.calibration_tolerance,
                                calibration_runs=grid.calibration_runs)
        return mflms_params(mu1, scenario.alpha, scenario.f, scenario.mflms_muf)
    # remaining variants share the scenario's step sizes directly
    mu1 = scenario.mflms_mu1 if scenario.mflms_mu1 is not None else scenario.lms_eta
    if variant is Variant.MOMENTUM_LMS:
        return FilterParams(mu1=mu1, muf=0.0, f=scenario.f, alpha=scenario.alpha, variant=variant)
    if variant is Variant.FLMS:
        muf = scenario.mflms_muf if scenario.mflms_muf is not None else default_muf(mu1, scenario.f)
        return FilterParams(mu1=mu1, muf=muf, f=scenario.f, alpha=0.0, variant=variant)
    return FilterParams(mu1=mu1, muf=0.0, f=scenario.f, alpha=scenario.alpha, variant=variant)


def _cmd_grid(settings: Settings, out_dir: Path) -> int:
    entries = full_grid(settings.grid_config())
    write_grid_outputs(entries, out_dir)
    log.info("wrote %d scenarios to %s", len(entries), out_dir)
    return 0


def _cmd_run(settings: Settings, out_dir: Path) -> int:
    scenario = settings.single_scenario()
    algorithm = _single_algorithm(settings, scenario)
    aggregate = run_monte_carlo(algorithm, scenario)
    entry = GridEntry(
        sigma_label=sigma_label(settings.noise_level),
        variant=algorithm.variant,
        alpha=scenario.alpha,
        f=None if algorithm.variant is Variant.LMS else scenario.f,
        step_size=algorithm.mu1,
        scenario=scenario,
        aggregate=aggregate,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "aggregates.csv").write_text(write_aggregates_csv([entry]))
    print(f"{entry.label} @ sigma={entry.sigma_label}: "
          f"final mean NWD {aggregate.mean_nwd_at_checkpoints[-1]:.4f}, "
          f"MSE of mean {aggregate.mse_of_mean:.2E}, "
          f"{aggregate.divergence_count} diverged")
    return 0


def _cmd_calibrate(settings: Settings, out_dir: Path) -> int:
    grid = settings.grid_config()
    if settings.noise_level is not None or settings.alpha is not None or settings.f is not None:
        scenario = settings.single_scenario()
        cells = [(settings.noise_level, scenario,
                  calibrate_mu1(scenario, tolerance=grid.calibration_tolerance,
                                calibration_runs=grid.calibration_runs))]
    else:
        _, cells = calibrate_grid(grid, on_no_match="raise")
    for level, scenario, mu1 in cells:
        print(f"sigma={sigma_label(level)} alpha={scenario.alpha:g} f={scenario.f:g}: mu1={mu1!r}")
    return 0


def _cmd_report(settings: Settings, out_dir: Path) -> int:
    path = out_dir / "aggregates.csv"
    if not path.is_file():
        raise FileNotFoundError(f"no aggregates dump at {path}")
    entries = read_aggregates_csv(path.read_text())
    write_grid_outputs(entries, out_dir, include_aggregates=False)
    log.info("regenerated tables for %d scenarios in %s", len(entries), out_dir)
    return 0


_COMMANDS = {
    "grid": _cmd_grid,
    "run": _cmd_run,
    "calibrate": _cmd_calibrate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _load_settings(args)
        _check_workers(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.subcommand](settings, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
