"""Flat ``key = value`` configuration for the benchmark pipeline.

The format is line-based: one ``key = value`` assignment per line,
``#`` starts a comment, blank lines are ignored, list values are
comma-separated numbers.  Unknown keys are rejected (not ignored), and
range violations name the offending key.

Grid keys are the fields of :class:`~lmslab.experiment.GridConfig`,
which declares their defaults and cross-field rules; the
single-scenario keys (``algorithm``, ``noise_level``, ``alpha``, ``f``,
``lms_eta``) select one cell for the ``run`` and ``calibrate``
subcommands.  Apart from ``algorithm`` (default ``mflms``) they have no
defaults: ``run`` refuses to guess a scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .experiment import GridConfig, ScenarioConfig
from .filters import Variant
from .metrics import MetricSpace

__all__ = ["ConfigError", "Settings", "parse_config", "apply_override", "validate_settings"]

_GRID_KEYS = frozenset(f.name for f in fields(GridConfig))


class ConfigError(ValueError):
    """A configuration line failed to parse or a value is out of range."""


@dataclass
class Settings:
    """Parsed configuration: grid overrides plus optional single-scenario keys."""

    grid: dict = field(default_factory=dict)
    algorithm: Variant = Variant.MFLMS_ASSEMBLED
    noise_level: float | None = None
    alpha: float | None = None
    f: float | None = None
    lms_eta: float | None = None

    def grid_config(self) -> GridConfig:
        return GridConfig(**self.grid)

    def single_scenario(self) -> ScenarioConfig:
        """Scenario for ``run``/``calibrate``; raises on missing keys."""
        missing = [k for k in ("noise_level", "alpha", "f") if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"missing required scenario key(s): {', '.join(missing)}")
        grid = self.grid_config()
        eta = self.lms_eta
        if eta is None:
            eta = dict(zip(grid.alphas, grid.lms_etas)).get(self.alpha)
            if eta is None:
                raise ConfigError(
                    "lms_eta is required when alpha is not one of the paired grid values"
                )
        return grid.scenario(self.noise_level, self.alpha, self.f, eta)


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite")
    return value


def _parse_int(key, text):
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {text!r}") from None


def _parse_float_list(key, text):
    items = [t.strip() for t in text.split(",")]
    if not all(items):
        raise ConfigError(f"{key}: empty list item in {text!r}")
    return tuple(_parse_float(key, t) for t in items)


def _parse_enum(key, text, allowed):
    value = text.strip().lower()
    if value not in allowed:
        raise ConfigError(f"{key}: expected one of {sorted(allowed)}, got {value!r}")
    return value


def _check_probability_open(key, value, lo_open=False):
    if lo_open and not 0.0 < value < 1.0:
        raise ConfigError(f"{key}: must lie strictly in (0, 1), got {value:g}")
    if not lo_open and not 0.0 <= value < 1.0:
        raise ConfigError(f"{key}: must lie in [0, 1), got {value:g}")
    return value


def _check_positive(key, value):
    if not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value!r}")
    return value


def _check_non_negative(key, value):
    if not value >= 0:
        raise ConfigError(f"{key}: must be non-negative, got {value!r}")
    return value


_KEY_PARSERS = {
    "noise_levels": lambda v: tuple(_check_non_negative("noise_levels", x)
                                    for x in _parse_float_list("noise_levels", v)),
    "noise_scale": lambda v: _parse_enum("noise_scale", v, {"variance", "std"}),
    "alphas": lambda v: tuple(_check_probability_open("alphas", x)
                              for x in _parse_float_list("alphas", v)),
    "fractional_orders": lambda v: tuple(_check_probability_open("fractional_orders", x, lo_open=True)
                                         for x in _parse_float_list("fractional_orders", v)),
    "lms_etas": lambda v: tuple(_check_positive("lms_etas", x)
                                for x in _parse_float_list("lms_etas", v)),
    "mflms_mu1": lambda v: _check_positive("mflms_mu1", _parse_float("mflms_mu1", v)),
    "n_runs": lambda v: _check_positive("n_runs", _parse_int("n_runs", v)),
    "n_iters": lambda v: _check_positive("n_iters", _parse_int("n_iters", v)),
    "checkpoint_interval": lambda v: _check_positive("checkpoint_interval",
                                                     _parse_int("checkpoint_interval", v)),
    "base_seed": lambda v: _parse_int("base_seed", v),
    "metric_space": lambda v: _parse_enum("metric_space", v, {m.value for m in MetricSpace}),
    "calibration_runs": lambda v: _check_positive("calibration_runs",
                                                  _parse_int("calibration_runs", v)),
    "calibration_tolerance": lambda v: _check_positive("calibration_tolerance",
                                                       _parse_float("calibration_tolerance", v)),
    "algorithm": lambda v: Variant(_parse_enum("algorithm", v, {m.value for m in Variant})),
    "noise_level": lambda v: _check_non_negative("noise_level", _parse_float("noise_level", v)),
    "alpha": lambda v: _check_probability_open("alpha", _parse_float("alpha", v)),
    "f": lambda v: _check_probability_open("f", _parse_float("f", v), lo_open=True),
    "lms_eta": lambda v: _check_positive("lms_eta", _parse_float("lms_eta", v)),
}


def apply_override(settings: Settings, key: str, value: str) -> Settings:
    """Apply one ``key=value`` assignment, validating key and range.

    Cross-field constraints are deferred to :func:`validate_settings`
    so that related keys may be assigned in any order.
    """
    key = key.strip()
    if key not in _KEY_PARSERS:
        raise ConfigError(f"unknown configuration key: {key!r}")
    parsed = _KEY_PARSERS[key](value.strip())
    if key in _GRID_KEYS:
        return replace(settings, grid={**settings.grid, key: parsed})
    return replace(settings, **{key: parsed})


def validate_settings(settings: Settings) -> Settings:
    """Check the constraints that couple several keys; returns the settings."""
    try:
        settings.grid_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return settings


def parse_config(text: str) -> Settings:
    """Parse a configuration file body into validated settings.

    An empty body yields the full default benchmark grid.  Errors carry
    the 1-based line number of the offending assignment.
    """
    settings = Settings()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        try:
            settings = apply_override(settings, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return validate_settings(settings)
