"""Command-line entry point for the estimation benchmark.

Subcommands:

* ``grid`` -- run the full scenario grid and write every table, curve
  and the machine-readable ``aggregates.csv`` to the output directory;
* ``run`` -- run one scenario (selected via config/``--set`` keys) and
  append-free write its aggregate row;
* ``calibrate`` -- print the calibrated mFLMS step size (any other
  ``algorithm`` is an error) of one cell (any cell key set) or of every
  grid cell, without running the ensembles;
* ``report`` -- regenerate tables and curves from a previously written
  ``aggregates.csv`` without recomputation.

Every step-size search runs through one driver,
:func:`~lmslab.experiment.prefetch_calibration`.  Exit codes: 0
success, 1 configuration error, 2 runtime error.  ``--seed`` overrides
the config's seed.  Every command runs in one thread; ``--workers`` is
still accepted and validated (a positive integer, else exit code 1) for
existing command lines, but has no effect.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ConfigError, Settings, apply_override, parse_config, validate_settings
from .experiment import (
    GridEntry,
    calibrate_mu1,
    full_grid,
    lms_params,
    prefetch_calibration,
    run_monte_carlo,
    sigma_label,
)
from .filters import KINDS, FilterParams, Variant
from .reporting import read_aggregates_csv, write_aggregates_csv, write_grid_outputs

__all__ = ["main"]

log = logging.getLogger("lmslab")


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
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        settings = parse_config(text, validate=False)  # cross-field rules: after --set and --seed
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


def _single_algorithm(settings: Settings, scenario) -> FilterParams:
    """The FilterParams that ``run`` runs: LMS at ``lms_eta``, the others at ``mflms_mu1``.

    Unset, mFLMS calibrates it and the others take ``lms_eta``.  A rule
    takes ``mflms_muf`` and ``alpha`` where its ``KINDS`` row reads them.
    """
    variant, mu1 = settings.algorithm or Variant.MFLMS_ASSEMBLED, scenario.mflms_mu1
    if variant is Variant.LMS:
        return lms_params(scenario.lms_eta)
    if variant is Variant.MFLMS_ASSEMBLED and mu1 is None:
        log.info("no mflms_mu1 configured; calibrating against LMS(eta=%g)", scenario.lms_eta)
        grid = settings.grid_config()
        mu1 = calibrate_mu1(scenario, tolerance=grid.calibration_tolerance,
                            calibration_runs=grid.calibration_runs)
    kind = KINDS[variant]
    return FilterParams(mu1=scenario.lms_eta if mu1 is None else mu1,
                        muf=scenario.mflms_muf if kind.b == "muf" else 0.0, f=scenario.f,
                        alpha=scenario.alpha if kind.takes_alpha else 0.0, variant=variant)


def _cmd_grid(settings: Settings, out_dir: Path) -> int:
    entries = full_grid(settings.grid_config())
    write_grid_outputs(entries, out_dir)
    log.info("wrote %d scenarios to %s", len(entries), out_dir)
    return 0


def _cmd_run(settings: Settings, out_dir: Path) -> int:
    scenario = settings.single_scenario()
    algorithm = _single_algorithm(settings, scenario)
    aggregate = run_monte_carlo(algorithm, scenario)
    entry = GridEntry.of(settings.noise_level, algorithm, scenario, aggregate)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "aggregates.csv").write_text(write_aggregates_csv([entry]))
    print(f"{entry.label} @ sigma={entry.sigma_label}: "
          f"final mean NWD {aggregate.mean_nwd_at_checkpoints[-1]:.4f}, "
          f"MSE of mean {aggregate.mse_of_mean:.2E}, "
          f"{aggregate.divergence_count} diverged")
    return 0


def _cmd_calibrate(settings: Settings, out_dir: Path) -> int:
    if settings.algorithm not in (None, Variant.MFLMS_ASSEMBLED):
        raise ConfigError(f"algorithm: calibrate calibrates mflms only, got {settings.algorithm.value!r}")
    grid = settings.grid_config()
    if any(getattr(settings, key) is not None for key in ("noise_level", "alpha", "f", "lms_eta")):
        cells = [(settings.noise_level, settings.single_scenario())]
    else:
        cells = [(level, scenario) for level, f, scenario in grid.cells() if f is not None]
    records = prefetch_calibration([sc for _, sc in cells], grid.calibration_tolerance, grid.calibration_runs)
    # Settled one by one, so a failing cell exits after the lines before it.
    for (level, scenario), record in zip(cells, records):
        print(f"sigma={sigma_label(level)} alpha={scenario.alpha:g} f={scenario.f:g}: mu1={record.settle()!r}")
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
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
        return _COMMANDS[args.subcommand](settings, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
