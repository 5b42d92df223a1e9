"""Configuration parsing tests: defaults, overrides, rejection rules."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmslab import config
from lmslab.config import ConfigError, Settings, apply_override, parse_config
from lmslab.experiment import GridConfig, ScenarioConfig, order_label
from lmslab.filters import RANGES, FilterParams, Variant
from lmslab.metrics import MetricSpace


class TestDefaults:
    def test_empty_config_gives_benchmark_grid(self):
        settings = parse_config("")
        grid = settings.grid_config()
        assert grid.noise_levels == (0.30, 0.60, 0.90)
        assert grid.alphas == (0.2, 0.5, 0.8)
        assert grid.fractional_orders == (0.25, 0.50, 0.75)
        assert grid.lms_etas == (0.027, 0.042, 0.1)
        assert grid.n_runs == 1000
        assert grid.n_iters == 1000
        assert grid.checkpoint_interval == 100
        assert grid.metric_space is MetricSpace.APHI
        assert grid.mflms_mu1 is None

    def test_defaults_are_grid_config_defaults(self):
        assert parse_config("").grid_config() == GridConfig()

    def test_keys_are_grid_fields_plus_scenario_keys(self):
        # The parser takes exactly these keys, and reads each one: a value
        # it cannot take is an error naming the key, not an unknown key.
        scenario_keys = {"algorithm", "noise_level", "alpha", "f", "lms_eta"}
        assert config._KEYS == {f.name for f in fields(GridConfig)} | scenario_keys
        for key in config._KEYS:
            with pytest.raises(ConfigError, match=f"^{key}: "):
                apply_override(Settings(), key, "?")

    def test_every_range_is_a_field_of_the_library(self):
        # A rule left behind by a renamed or removed field would check nothing.
        names = {f.name for cls in (FilterParams, ScenarioConfig, GridConfig) for f in fields(cls)}
        assert set(RANGES) <= names
        # And every field but the three that take a choice has a rule.
        assert names - set(RANGES) == {"noise_scale", "metric_space", "variant"}

    def test_variance_scale_default(self):
        grid = parse_config("").grid_config()
        assert grid.noise_std(0.30) == pytest.approx(math.sqrt(0.30), rel=1e-15)

    def test_comments_and_blanks(self):
        settings = parse_config("\n# full comment\n  \nn_runs = 50  # trailing\n")
        assert settings.grid_config().n_runs == 50


class TestOverrides:
    def test_n_runs(self):
        assert parse_config("n_runs = 50").grid_config().n_runs == 50

    def test_lists(self):
        # Cross-field checks wait for the end of parsing, so the paired
        # lists may be assigned in either order.
        for text in (
            "noise_levels = 0.1, 0.2\nalphas = 0.3,0.4\nlms_etas = 0.01,0.02",
            "noise_levels = 0.1, 0.2\nlms_etas = 0.01,0.02\nalphas = 0.3,0.4",
        ):
            grid = parse_config(text).grid_config()
            assert grid.noise_levels == (0.1, 0.2)
            assert grid.alphas == (0.3, 0.4)
            assert grid.lms_etas == (0.01, 0.02)

    def test_metric_space_and_scale(self):
        settings = parse_config("metric_space = bc\nnoise_scale = std")
        grid = settings.grid_config()
        assert grid.metric_space is MetricSpace.BC
        assert grid.noise_std(0.30) == 0.30

    def test_mu1_override(self):
        assert parse_config("mflms_mu1 = 0.01").grid_config().mflms_mu1 == 0.01

    def test_set_style_override(self):
        settings = apply_override(Settings(), "base_seed", "7")
        assert settings.grid_config().base_seed == 7


class TestRejections:
    def test_alpha_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 1.5")

    def test_f_range(self):
        with pytest.raises(ConfigError, match="f"):
            parse_config("f = 0")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("n_runz = 50")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("n_runs = 5\n# ok\nnot an assignment\n")

    def test_value_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n_runs = 5\nn_iters = many\n")

    def test_checkpoint_divisibility(self):
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            parse_config("n_iters = 250")

    def test_pairing_mismatch(self):
        with pytest.raises(ConfigError, match="lms_etas"):
            parse_config("alphas = 0.2, 0.5\nlms_etas = 0.027")

    def test_negative_step(self):
        with pytest.raises(ConfigError, match="lms_etas"):
            parse_config("lms_etas = -0.1, 0.2, 0.3\n")

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm.*mflms_corrected"):
            parse_config("algorithm = adam")

    @pytest.mark.parametrize("value", ["0.1,,0.2", "0.1, 0.2,", ",0.1", ""])
    def test_empty_list_item(self, value):
        with pytest.raises(ConfigError, match="noise_levels: empty list item"):
            parse_config(f"noise_levels = {value}")

    @pytest.mark.parametrize("line, label", [
        ("noise_levels = 0.301, 0.304", "0.30"),
        ("fractional_orders = 0.251, 0.254", "0.25"),
        ("fractional_orders = 0.75, 0.7451", order_label(0.7451)),
        ("alphas = 0.2, 0.2000001\nlms_etas = 0.027, 0.042", "0.2"),
        ("lms_etas = 0.027, 0.02700001\nalphas = 0.2, 0.5", "0.027"),
    ])
    def test_values_sharing_an_output_label(self, line, label):
        # Two values that format to one label would share their output files.
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"{key} .* share the label {label}"):
            parse_config(line)

    def test_zero_noise_level_parses(self):
        # A noise-free cell is valid for the library, so the parser takes it too.
        assert parse_config("noise_levels = 0, 0.3").grid_config().noise_levels == (0.0, 0.3)
        assert parse_config("noise_level = 0\nalpha = 0.2\nf = 0.25").single_scenario().noise_std == 0.0

    @pytest.mark.parametrize("line, key", [
        ("noise_levels = 0.3, -0.3", "noise_levels"),
        ("noise_level = -0.1", "noise_level"),
    ])
    def test_negative_noise_level_rejected(self, line, key):
        with pytest.raises(ConfigError, match=rf"^line 2: {key}: must lie in \[0, inf\), got -0\.[13]$"):
            parse_config(f"n_runs = 5\n{line}")

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="base_seed"):
            parse_config(f"base_seed = {2**64}")


class TestSingleScenario:
    def test_missing_keys_reported(self):
        with pytest.raises(ConfigError, match="noise_level"):
            Settings().single_scenario()

    def test_paired_eta_defaulting(self):
        settings = parse_config("noise_level = 0.30\nalpha = 0.5\nf = 0.25")
        scenario = settings.single_scenario()
        assert scenario.lms_eta == 0.042
        assert scenario.alpha == 0.5
        assert scenario.noise_std == pytest.approx(math.sqrt(0.30), rel=1e-15)

    def test_unpaired_alpha_needs_eta(self):
        settings = parse_config("noise_level = 0.30\nalpha = 0.3\nf = 0.25")
        with pytest.raises(ConfigError, match="lms_eta"):
            settings.single_scenario()
        settings = parse_config("noise_level = 0.30\nalpha = 0.3\nf = 0.25\nlms_eta = 0.05")
        assert settings.single_scenario().lms_eta == 0.05


# Values at and beyond every edge of the ranges: NaN, both infinities, zero,
# negatives, huge and 64-bit values, non-integral floats and bools.
EDGES = [0, 0.0, -0.0, 1, -1, 1.0, 0.5, 2.5, 1e-300, 1e300, 1e308, 2**63, 2**64 - 1, 2**64, -(2**64),
         10**400, -(10**400), math.nan, math.inf, -math.inf, True, False]
NUMBERS = st.one_of(st.sampled_from(EDGES), st.integers(), st.floats())
SCENARIO = {"noise_std": 0.5, "alpha": 0.2, "f": 0.25, "lms_eta": 0.027, "n_runs": 10, "n_iters": 200}
DEFAULT_GRID = GridConfig()


def _text(value) -> str:
    """A drawn value as a configuration file writes it."""
    return repr(value) if isinstance(value, float) else str(value)


def _library_takes(key: str, value) -> bool:
    """Whether the library builds the config that ``key = value`` describes, the axes' other values kept."""
    if key in config._AXES or key == "noise_level":
        axis = "noise_levels" if key == "noise_level" else key
        key, value = axis, (value, *getattr(DEFAULT_GRID, axis)[1:])
    try:
        if key in ("alpha", "f", "lms_eta"):
            ScenarioConfig(**{**SCENARIO, key: value})
        elif key == "algorithm":
            Variant(value)
        else:
            GridConfig(**{key: value})
    except (ValueError, TypeError):
        return False
    return True


def _parser_takes(key: str, text: str) -> bool:
    if key in config._AXES:
        text = ", ".join([text, *map(_text, getattr(DEFAULT_GRID, key)[1:])])
    try:
        parse_config(f"{key} = {text}")
    except ConfigError:
        return False
    return True


NUMBER_KEYS = sorted(config._KEYS - set(config._CHOICES))


class TestParserIsTheLibrary:
    """``parse_config`` rejects a value exactly when the library does."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.sampled_from(NUMBER_KEYS), NUMBERS)
    def test_numbers(self, key, value):
        assert _parser_takes(key, _text(value)) == _library_takes(key, value)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.sampled_from(sorted(config._CHOICES)),
           st.sampled_from(["variance", "std", "aphi", "bc", *(v.value for v in Variant),
                            "STD", "Variance", "BC", "Aphi", "LMS", "mFLMS"])
           | st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8))
    def test_choices(self, key, value):
        assert _parser_takes(key, value) == _library_takes(key, value)

    @pytest.mark.parametrize("key", ["calibration_tolerance", "lms_etas", "noise_level", "mflms_mu1"])
    def test_non_finite_rejected_on_its_line(self, key):
        with pytest.raises(ConfigError, match=rf"^line 2: {key}: must lie in .*, got inf$"):
            parse_config(f"n_runs = 5\n{key} = inf")


WIDE = st.one_of(
    NUMBERS, st.none(), st.text(max_size=4), st.complex_numbers(), st.fractions(),
    st.decimals(), st.lists(NUMBERS, max_size=3), st.tuples(NUMBERS),
    st.sampled_from([np.float64(0.3), np.int64(7), np.uint64(2**64 - 1), "aphi", "bc", "std", MetricSpace.BC]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([ScenarioConfig, GridConfig]), st.data())
def test_configs_raise_only_value_and_type_errors(cls, data):
    names = sorted(f.name for f in fields(cls))
    drawn = data.draw(st.dictionaries(st.sampled_from(names), WIDE, min_size=1, max_size=3))
    base = SCENARIO if cls is ScenarioConfig else {}
    try:
        built = cls(**{**base, **drawn})
    except (ValueError, TypeError):
        return
    # What is built holds each ranged field as its range's type.
    for name in {f.name for f in fields(cls)} & set(RANGES):
        value = getattr(built, name)
        for x in value if isinstance(value, tuple) else [value]:
            assert x is None or type(x) is RANGES[name].kind
