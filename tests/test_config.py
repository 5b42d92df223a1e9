"""Configuration parsing tests: defaults, overrides, rejection rules."""

import math
from dataclasses import fields

import pytest

from lmslab import config
from lmslab.config import ConfigError, Settings, apply_override, parse_config
from lmslab.experiment import GridConfig
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
        scenario_keys = {"algorithm", "noise_level", "alpha", "f", "lms_eta"}
        assert set(config._KEY_PARSERS) == {f.name for f in fields(GridConfig)} | scenario_keys

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
        with pytest.raises(ConfigError, match=f"line 2: {key}: must be non-negative"):
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
