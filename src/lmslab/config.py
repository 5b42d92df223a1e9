"""Flat ``key = value`` configuration for the benchmark pipeline.

The format is line-based: one ``key = value`` assignment per line,
``#`` starts a comment, blank lines are ignored, list values are
comma-separated numbers.  Unknown keys are rejected (not ignored).  A
value's range is the one the library gives it
(:data:`~lmslab.filters.RANGES`), checked on the line that sets it,
so an error names the line and the key.

Grid keys are the fields of :class:`~lmslab.experiment.GridConfig`,
which declares their defaults and cross-field rules; the
single-scenario keys (``algorithm``, ``noise_level``, ``alpha``, ``f``,
``lms_eta``) select one cell for the ``run`` and ``calibrate``
subcommands.  Apart from ``algorithm`` (default ``mflms``) they have no
defaults: ``run`` refuses to guess a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .experiment import NOISE_SCALES, GridConfig, ScenarioConfig
from .filters import RANGES, Variant
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


# The configuration keys: GridConfig's fields and the single-scenario keys.
_KEYS = _GRID_KEYS | (frozenset(f.name for f in fields(Settings)) - {"grid"})


# The values of each text key, by name.  Every other key is a number, or for
# a grid axis a comma-separated list of numbers, of the type and in the range
# that the library gives the field it sets (filters.RANGES; noise_level
# takes that of noise_levels), checked on the line that sets it.
_CHOICES = {key: {getattr(c, "value", c): c for c in choices}
            for key, choices in (("noise_scale", NOISE_SCALES), ("metric_space", MetricSpace), ("algorithm", Variant))}
_AXES = frozenset(f.name for f in fields(GridConfig) if isinstance(f.default, tuple))


def _parse(key: str, text: str):
    """``key``'s value written as ``text``: one of its choices, or its number(s) in their range."""
    if key in _CHOICES:
        if text not in _CHOICES[key]:
            raise ConfigError(f"{key}: expected one of {sorted(_CHOICES[key])}, got {text!r}")
        return _CHOICES[key][text]
    rule, axis = RANGES["noise_levels" if key == "noise_level" else key], key in _AXES
    items = [t.strip() for t in text.split(",")] if axis else [text]
    if axis and not all(items):
        raise ConfigError(f"{key}: empty list item in {text!r}")
    values = []
    for item in items:
        try:
            number = int(item, 0) if rule.kind is int else float(item)
        except ValueError:
            raise ConfigError(f"{key}: not {'an integer' if rule.kind is int else 'a number'}: {item!r}") from None
        try:
            values.append(rule.check(key, number))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return tuple(values) if axis else values[0]


def apply_override(settings: Settings, key: str, value: str) -> Settings:
    """Apply one ``key=value`` assignment, validating key and range.

    Cross-field constraints are deferred to :func:`validate_settings`
    so that related keys may be assigned in any order.
    """
    key = key.strip()
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key: {key!r}")
    parsed = _parse(key, value.strip())
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


def parse_config(text: str, *, validate: bool = True) -> Settings:
    """Parse a configuration file body into validated settings.

    An empty body yields the full default benchmark grid.  Errors carry
    the 1-based line number of the offending assignment.  With
    ``validate=False`` the cross-field rules are left to a caller that
    assigns more keys first and then calls :func:`validate_settings`.
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
    return validate_settings(settings) if validate else settings
