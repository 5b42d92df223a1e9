"""Tests of the benchmark harness itself (not of lmslab).

    python3 -m pytest -q perfbench/tests
"""

import json
import logging
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import END_TO_END, PER_LAYER, VARIANTS, WORKLOADS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

FIXED = ("sigma_label,variant,alpha,f,step_size,lms_eta,noise_std,n_runs,n_iters,"
         "checkpoint_interval,base_seed,metric_space,divergence_count,mse_of_mean,mean_per_run_mse")


def _row(variant, f, step, nwd, divergence=0, theta=4.0, mse=1e-6):
    return (f"0.30,{variant},0.2,{f},{step!r},0.027,0.5477225575051661,20,100,100,42,aphi,"
            f"{divergence},{mse!r},{mse!r},{theta!r},{nwd!r}")


def _aggregates(*rows):
    return "\n".join([FIXED + ",theta_1,nwd_100", *rows]) + "\n"


GOOD = _aggregates(
    _row("mflms", "0.25", 0.0119, 0.0231),
    _row("lms", "", 0.027, 0.0226),
)


# --- names and BENCHMARK.json ------------------------------------------------

def test_names_use_only_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_benchmark_json_matches_the_harness_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_summary_reports_a_percentile_only_with_ten_samples_beyond_it():
    assert set(run.summary(list(range(10)))) == {"n", "median"}
    s = run.summary([float(i) for i in range(1, 31)])
    assert s["n"] == 30 and s["median"] == 15.5 and s["p66"] == 20.0


# --- correctness checks --------------------------------------------------------

def test_good_output_passes_every_check():
    rows = checks.parse_aggregates(GOOD)
    failed, failures = checks.check_rep(rows, [], 2, {}, checks.row_digests(rows))
    assert (failed, failures) == (0, {})


def test_flipped_digest_fails():
    rows = checks.parse_aggregates(GOOD)
    reference = checks.row_digests(rows)
    key = next(iter(reference))
    reference[key] = reference[key][::-1]
    failed, failures = checks.check_rep(rows, [], 2, {}, reference)
    assert failed == 1 and list(failures) == [key]


def test_changed_byte_fails_against_an_earlier_repetition():
    reference = checks.row_digests(checks.parse_aggregates(GOOD))
    rows = checks.parse_aggregates(GOOD.replace("0.0226", "0.0227"))
    failed, _ = checks.check_rep(rows, [], 2, {}, reference)
    assert failed == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "garbage"])
def test_injected_non_finite_value_fails(bad):
    rows = checks.parse_aggregates(GOOD.replace("0.0226", bad))
    failed, failures = checks.check_rep(rows, [], 2, {}, None)
    assert failed == 1
    assert any("nwd_100" in r for r in failures["lms sigma=0.30 alpha=0.2 f=-"])


def test_divergence_fails():
    rows = checks.parse_aggregates(_aggregates(_row("lms", "", 0.027, 0.0226, divergence=3)))
    assert checks.check_rep(rows, [], 1, {}, None)[0] == 1


def test_closest_fallback_warning_fails_the_scenario_it_precedes():
    rows = checks.parse_aggregates(GOOD)
    logs = [
        ("lmslab.experiment", logging.WARNING, "no mu1 in [0.0001, 0.5] matches ...; using closest"),
        ("lmslab.experiment", logging.INFO, "scenario sigma=0.30 alpha=0.2 f=0.25 step=0.0119: final"),
        ("lmslab.experiment", logging.INFO, "scenario sigma=0.30 alpha=0.2 lms step=0.027: final"),
    ]
    failed, failures = checks.check_rep(rows, logs, 2, {}, None)
    assert failed == 1 and list(failures) == ["mflms sigma=0.30 alpha=0.2 f=0.25"]


def test_unattributed_warning_fails_every_scenario():
    rows = checks.parse_aggregates(GOOD)
    logs = [("lmslab.experiment", logging.WARNING, "using closest")]
    assert checks.check_rep(rows, logs, 2, {}, None)[0] == 2


def test_band_violation_fails():
    rows = checks.parse_aggregates(GOOD)
    bands = {"mu1": {"mflms sigma=0.30 alpha=0.2 f=0.25": [0.0118, 0.0120]},
             "final_nwd": {"lms sigma=0.30 alpha=0.2 f=-": [0.0220, 0.0225]}}
    failed, failures = checks.check_rep(rows, [], 2, bands, None)
    assert failed == 1 and list(failures) == ["lms sigma=0.30 alpha=0.2 f=-"]


def test_corrupted_intermediate_checkpoint_fails_the_mean_nwd_band():
    header = FIXED + ",theta_1,nwd_50,nwd_100"
    row = _row("lms", "", 0.027, 0.0226).rsplit(",", 1)[0] + ",{},0.0226"
    good = checks.parse_aggregates(header + "\n" + row.format("0.0400") + "\n")
    bands = {"mean_nwd": {"lms sigma=0.30 alpha=0.2 f=-": [0.030, 0.033]}}
    assert checks.check_rep(good, [], 1, bands, None)[0] == 0
    bad = checks.parse_aggregates(header + "\n" + row.format("0.0600") + "\n")
    failed, failures = checks.check_rep(bad, [], 1, bands, None)
    assert failed == 1 and "mean_nwd" in failures["lms sigma=0.30 alpha=0.2 f=-"][0]


def _calibration_logs(final_probe_fitness, probed_mu1=0.0119):
    """Curves of one calibration (LMS target 0.5), then its scenario lines."""
    curve = checks.CURVE_LOG
    return [
        (curve, 0, {"mu1": 0.027, "curve": [0.5, 0.1, 0.05]}),
        (curve, 0, {"mu1": 0.0001, "curve": [0.9]}),
        (curve, 0, {"mu1": 0.5, "curve": [math.inf]}),
        (curve, 0, {"mu1": probed_mu1, "curve": [final_probe_fitness]}),
        ("lmslab.experiment", logging.INFO, "scenario sigma=0.30 alpha=0.2 f=0.25 step=0.0119: final"),
        ("lmslab.experiment", logging.INFO, "scenario sigma=0.30 alpha=0.2 lms step=0.027: final"),
    ]


def test_calibration_that_reached_its_target_passes():
    rows = checks.parse_aggregates(GOOD)
    assert checks.check_rep(rows, _calibration_logs(0.51), 2, {}, None)[0] == 0


def test_silent_bisection_fallback_fails():
    """A returned mu1 whose probe missed the target, with no warning logged."""
    rows = checks.parse_aggregates(GOOD)
    failed, failures = checks.check_rep(rows, _calibration_logs(0.6), 2, {}, None)
    assert failed == 1
    assert "misses the LMS target" in failures["mflms sigma=0.30 alpha=0.2 f=0.25"][0]


def test_calibrated_mu1_that_was_never_probed_fails():
    rows = checks.parse_aggregates(GOOD)
    failed, failures = checks.check_rep(rows, _calibration_logs(0.5, probed_mu1=0.0118), 2, {}, None)
    assert failed == 1
    assert "never probed" in failures["mflms sigma=0.30 alpha=0.2 f=0.25"][0]


def test_corrected_must_equal_assembled():
    same = 0.026925993081881348
    one_ulp = 0.02692599308188135
    ok = checks.parse_aggregates(_aggregates(
        _row("mflms", "0.25", 0.012, same), _row("mflms_corrected", "0.25", 0.012, one_ulp)))
    assert checks.check_rep(ok, [], 2, {}, None)[0] == 0
    bad = checks.parse_aggregates(_aggregates(
        _row("mflms", "0.25", 0.012, same), _row("mflms_corrected", "0.25", 0.012, same * (1 + 1e-9))))
    failed, failures = checks.check_rep(bad, [], 2, {}, None)
    assert failed == 1 and list(failures) == ["mflms_corrected sigma=0.30 alpha=0.2 f=0.25"]


def test_missing_rows_count_as_failed():
    rows = checks.parse_aggregates(_aggregates(_row("lms", "", 0.027, 0.0226)))
    assert checks.check_rep(rows, [], 36, {}, None)[0] == 35


def test_bands_cover_the_documented_calibrated_steps():
    """The seed-42 mu1 table in docs/reproduction_notes.md lies inside the bands."""
    notes = ROOT / "docs" / "reproduction_notes.md"
    if not notes.is_file():
        pytest.skip("reproduction notes not present")
    bands = json.loads((BENCH / "bands.json").read_text())["grid-default"]["mu1"]
    table = re.findall(r"^\| (0\.\d0) \| (.+) \| (.+) \| (.+) \|$", notes.read_text(), re.M)
    assert len(table) == 3
    for level, *blocks in table:
        for alpha, block in zip((0.2, 0.5, 0.8), blocks):
            for f, value in zip((0.25, 0.5, 0.75), block.split(" / ")):
                lo, hi = bands[checks._key("mflms", level, alpha, f)]
                assert lo <= float(value) <= hi, (level, alpha, f, value)


# --- tracing -------------------------------------------------------------------

def _fake_modules(drop=()):
    def simulate(algorithm, scenario, run_indices, domain=0, n_iters=None):
        step = getattr(experiment, "step", None)
        for _ in range(n_iters or scenario.n_iters):
            if step is not None:
                step(state, None, None, algorithm)
        return None, None, FakeArray(0)

    class FakeArray(int):
        def sum(self):
            return int(self)

    state = types.SimpleNamespace(w=types.SimpleNamespace(shape=(4, 8), ndim=2))
    experiment = types.ModuleType("fake.experiment")
    experiment.step = lambda s, u, d, p: s
    experiment._simulate = simulate
    experiment.run_monte_carlo = lambda algorithm, scenario: experiment._simulate(algorithm, scenario, range(4))
    for name in drop:
        delattr(experiment, name)
    cli = types.ModuleType("fake.cli")
    cli.main = lambda argv: experiment.run_monte_carlo(
        types.SimpleNamespace(variant=types.SimpleNamespace(value="lms")),
        types.SimpleNamespace(n_iters=5),
    )
    return cli, experiment


def test_missing_wrapped_name_reports_its_layer_absent():
    cli, experiment = _fake_modules(drop=("step",))
    rec = spans.Recorder()
    restore = spans.install(rec, cli, experiment)
    cli.main([])
    restore()
    values, absent, _ = spans.summarize(rec, delivered_row_steps=20)
    assert "fake.experiment.step" in rec.absent
    assert {"filters.step.s", "filters.step.calls"} <= set(absent)
    assert all(f"filters.step.ns_per_row_step.{v}" in absent for v in VARIANTS)
    assert "filters.guard.s" in absent and "experiment.calibrate.s" in absent
    assert "experiment.simulate.calls" not in absent
    assert values["experiment.simulate.row_steps"] == 20


def test_present_layers_are_counted_and_unrun_variants_flagged():
    cli, experiment = _fake_modules()
    rec = spans.Recorder()
    restore = spans.install(rec, cli, experiment)
    cli.main([])
    restore()
    values, absent, unexercised = spans.summarize(rec, delivered_row_steps=20)
    assert "filters.step.s" not in absent
    assert values["filters.step.calls"] == 5
    assert values["filters.step.ns_per_row_step.lms"] > 0
    assert "filters.step.ns_per_row_step.flms" in unexercised
    assert values["experiment.simulate.mean_batch_rows"] == 4
    assert rec.run_id == 1


def test_tracing_leaves_lmslab_outputs_byte_identical(tmp_path):
    import lmslab.cli
    import lmslab.experiment

    config = tmp_path / "config.txt"
    config.write_text("n_runs = 4\nn_iters = 20\ncheckpoint_interval = 10\ncalibration_runs = 3\n"
                      "noise_levels = 0.3\nalphas = 0.2\nlms_etas = 0.027\nfractional_orders = 0.25\n")
    argv = ["grid", "--config", str(config), "--workers", "1", "--out"]
    assert lmslab.cli.main(argv + [str(tmp_path / "plain")]) == 0
    rec = spans.Recorder()
    restore = spans.install(rec, lmslab.cli, lmslab.experiment)
    try:
        assert lmslab.cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        restore()
    assert rec.absent == []
    plain = (tmp_path / "plain" / "aggregates.csv").read_bytes()
    assert (tmp_path / "traced" / "aggregates.csv").read_bytes() == plain
    values, absent, _ = spans.summarize(rec, delivered_row_steps=2 * 4 * 20)
    assert absent == []
    assert values["experiment.calibrate.calls"] == 1
    # three runs per calibration probe, four per ensemble (one LMS, one mFLMS)
    assert values["experiment.streams.runs"] == 3 * values["experiment.calibrate.sims_per_call"] + 2 * 4
    assert values["cli.self_s"] > 0 and values["config.parse.s"] > 0
    spans.save(rec, tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


# --- the harness run from a bare directory -----------------------------------

def test_harness_refuses_a_directory_without_lmslab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".perfbench").exists()


def test_workload_configs_depend_on_the_seed_only_through_base_seed():
    for w in WORKLOADS.values():
        a, b = w.config_text(1), w.config_text(2)
        assert a.replace("base_seed = 1", "") == b.replace("base_seed = 2", "")
