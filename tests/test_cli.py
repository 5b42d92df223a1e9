"""CLI tests: subcommands, exit codes, output trees, determinism.

All invocations run in-process through ``lmslab.cli.main`` with a small
grid (one noise level, two fractional orders, fixed mu1 so calibration
is skipped where speed matters).
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from lmslab.cli import _single_algorithm, main
from lmslab.config import parse_config
from lmslab.experiment import GridConfig, calibrate_mu1
from lmslab.filters import FilterParams, Variant, default_muf

SMALL_GRID = [
    "--set", "noise_levels=0.30",
    "--set", "alphas=0.2",
    "--set", "lms_etas=0.027",
    "--set", "fractional_orders=0.25,0.50",
    "--set", "mflms_mu1=0.01",
    "--set", "n_runs=8",
    "--set", "n_iters=200",
    "--set", "checkpoint_interval=100",
]


def numpy_platform() -> str:
    """numpy's version and SIMD dispatch, for the golden digests' failure messages.

    numpy picks its loops for the CPU at import; without its AVX-512 loops
    np.power and np.arctan2 differ in the last bit, and so do the digests.
    """
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    missing = [name for name in umath.__cpu_dispatch__ if name not in enabled]
    return (f"numpy {np.__version__}, SIMD dispatch enabled: {' '.join(enabled) or 'none'}; "
            f"not enabled: {' '.join(missing) or 'none'}. The digests were measured with numpy 2.4.6 "
            "and X86_V3, X86_V4, AVX512_ICL and AVX512_SPR enabled")


def tree(path):
    return {
        p.name: p.read_bytes()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


class TestGrid:
    def test_small_grid_outputs(self, tmp_path):
        out = tmp_path / "results"
        assert main(["grid", "--out", str(out), "--seed", "42", *SMALL_GRID]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "aggregates.csv",
            "curves_sigma0.30_f0.25.csv",
            "curves_sigma0.30_f0.50.csv",
            "estimation_sigma0.30.csv",
            "estimation_sigma0.30.txt",
            "fitness_sigma0.30.csv",
            "fitness_sigma0.30.txt",
        ]

    def test_noise_free_grid(self, tmp_path):
        out = tmp_path / "results"
        assert main(["grid", "--out", str(out), "--seed", "42", *SMALL_GRID, "--set", "noise_levels=0"]) == 0
        assert (out / "fitness_sigma0.00.csv").is_file()

    def test_grid_deterministic_across_invocations(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--out", str(out1), "--seed", "42", *SMALL_GRID]) == 0
        assert main(["grid", "--out", str(out2), "--seed", "42", *SMALL_GRID]) == 0
        assert tree(out1) == tree(out2)

    def test_grid_deterministic_across_workers(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--out", str(out1), "--seed", "9", "--workers", "1", *SMALL_GRID]) == 0
        assert main(["grid", "--out", str(out2), "--seed", "9", "--workers", "4", *SMALL_GRID]) == 0
        assert tree(out1) == tree(out2)

    def test_golden_aggregates_digest(self, tmp_path):
        # Every update rule, the engine and the report writer feed these
        # bytes; a refactor of any of them must leave the file unchanged.
        out = tmp_path / "golden"
        assert main([
            "grid", "--out", str(out), "--seed", "42",
            "--set", "mflms_mu1=0.011",
            "--set", "n_runs=20",
            "--set", "n_iters=200",
            "--set", "checkpoint_interval=20",
        ]) == 0
        digest = hashlib.sha256((out / "aggregates.csv").read_bytes()).hexdigest()
        # Measured with numpy 2.4.6.
        assert digest == "0066028c7da473f1576ee563f69ad83be087c62760f2bc7b90bf7928a6607e4d", numpy_platform()

    def test_seed_changes_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--out", str(out1), "--seed", "1", *SMALL_GRID]) == 0
        assert main(["grid", "--out", str(out2), "--seed", "2", *SMALL_GRID]) == 0
        assert tree(out1) != tree(out2)


def sha256s(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


# SHA-256 of every file the golden grid writes, at the aggregates test's
# checkpoint interval and at a checkpoint every iteration, where each
# paired-LMS series repeats across three curves files.  Measured with
# numpy 2.4.6.
GOLDEN_FILES = {
    20: {
        "aggregates.csv": "0066028c7da473f1576ee563f69ad83be087c62760f2bc7b90bf7928a6607e4d",
        "curves_sigma0.30_f0.25.csv": "372003c43f207edc16dfa9e839bcf2c385510e8db9823a0af43ade01093b9013",
        "curves_sigma0.30_f0.50.csv": "1fa6e04052fa3317d116b0014b04631f7041febac2598826d22f60e102de1554",
        "curves_sigma0.30_f0.75.csv": "134acd1c538723d68ba2580c17815e9c699f01a2f00ee9b56f8fae0147821908",
        "curves_sigma0.60_f0.25.csv": "3503a123d86f621c10f78faf1610c82a35e17bbc7f40992e870e1530a83c1c5b",
        "curves_sigma0.60_f0.50.csv": "11594bb18f8803f06c35973bcaa143fa0a4de986d6e87a1377a6dfb7e39858bd",
        "curves_sigma0.60_f0.75.csv": "7bc736c28437c6a1fc785ce8f21ba91635a006ced612e279e453576983486c6c",
        "curves_sigma0.90_f0.25.csv": "0d746d245d43d60f1f1dce6742cc2d877b22af0412d489493218539da0a1c787",
        "curves_sigma0.90_f0.50.csv": "850f5b93b0154ef50b2a76c1a3a5331ff5977c1aab104c813bfd908f0838806e",
        "curves_sigma0.90_f0.75.csv": "b4f1e00592e19f2825eb9e23f9240c46042c8cce5d577a685336422445daa0d8",
        "estimation_sigma0.30.csv": "528bed05813abd308e3d2948c67bc9da0ef0fc0dc5de9c174a285f9dc9c3e5ba",
        "estimation_sigma0.30.txt": "d7cea240090b70c4a0cac94408f103e04f96d3066da9f0858135f7e19a7828c0",
        "estimation_sigma0.60.csv": "4c533585e786d5413c9f1a58bff296bbdb31f3b595e2b62e07a65d08aeaf7d80",
        "estimation_sigma0.60.txt": "f7948f2e38458d0d6165b660511351b6625f7dd6a8f62e4bcda6e5cdf827fd1d",
        "estimation_sigma0.90.csv": "5b897784a4ba43fccb3b2fcff67cb81fd7c1b73524f699fe01164aa8304b290c",
        "estimation_sigma0.90.txt": "997bf17124916487af6e730cd625120f2012a79f15b80dd5e98eb211e431c7de",
        "fitness_sigma0.30.csv": "551a2760c0f9a17bb696183a0e3a8e424c98ace650f6cc53bde4925eb26c8f91",
        "fitness_sigma0.30.txt": "ce07ea85009bb8bd2095e868852e43fd2c4f245ddeccf3e5fc9906032ed0140f",
        "fitness_sigma0.60.csv": "8552024bd982990b1c71245992d91641ad3056e4e1208412c427d13b14509ffc",
        "fitness_sigma0.60.txt": "6ad998df0970ed311ed4cc97a86862cc8c2708874fbe2cb9491861b5942939ce",
        "fitness_sigma0.90.csv": "4c5bafb08b25fa7701370903fbfee49e697eaf9db6f839884fe06c1fa640d5cb",
        "fitness_sigma0.90.txt": "e75c3a8a9fce755fe318f089c840ed5225740ed2854ecc0d5e6acd5e68cc96f8",
    },
    1: {
        "aggregates.csv": "239a74ad0e71d178733d1494c956791af10e4b14cc6953137dd9d3960f27e489",
        "curves_sigma0.30_f0.25.csv": "c98393ca3aca282b889f17c209bbb7c95f7d5abaf33428a4818aa80c8c06c082",
        "curves_sigma0.30_f0.50.csv": "35256e5e9e3aa69ad4f4e6e9644bc441483bcef91a4f1a218e1ad379e4da38c1",
        "curves_sigma0.30_f0.75.csv": "93d9077793a4beaa7815850dc7dda58f7e223aa1a37e63b18e9221f02b7cf3a8",
        "curves_sigma0.60_f0.25.csv": "fe6e03716cd4399b26d154848e73949a549ce4da1923669fa39285bbd4bc9d64",
        "curves_sigma0.60_f0.50.csv": "1eed27743c02f3dd48ac3b681e9d181bce3ab22c4a621cb7d81ba8e5f2d354f1",
        "curves_sigma0.60_f0.75.csv": "ec16d819dbac06db9cdd23dd14ece1086c99e411b0493d4ecd70f03cd6a617c2",
        "curves_sigma0.90_f0.25.csv": "bca7e3bcf91f98b337cbea20e8390ad61e142125eb5d77f5a218d92d3ce442c4",
        "curves_sigma0.90_f0.50.csv": "db7219be138b06150255ff5f2d5a94001398ff3b3d3d1fa8a8d18925163da68a",
        "curves_sigma0.90_f0.75.csv": "e39d16b4d8b18f706d5a479851ab4ebf7266872afcb8b779319e9a75dacdf450",
        "estimation_sigma0.30.csv": "528bed05813abd308e3d2948c67bc9da0ef0fc0dc5de9c174a285f9dc9c3e5ba",
        "estimation_sigma0.30.txt": "d7cea240090b70c4a0cac94408f103e04f96d3066da9f0858135f7e19a7828c0",
        "estimation_sigma0.60.csv": "4c533585e786d5413c9f1a58bff296bbdb31f3b595e2b62e07a65d08aeaf7d80",
        "estimation_sigma0.60.txt": "f7948f2e38458d0d6165b660511351b6625f7dd6a8f62e4bcda6e5cdf827fd1d",
        "estimation_sigma0.90.csv": "5b897784a4ba43fccb3b2fcff67cb81fd7c1b73524f699fe01164aa8304b290c",
        "estimation_sigma0.90.txt": "997bf17124916487af6e730cd625120f2012a79f15b80dd5e98eb211e431c7de",
        "fitness_sigma0.30.csv": "a2003398f63fd73d279d09ac9c8eb415eb2719e377ce97a49bac136418e236e0",
        "fitness_sigma0.30.txt": "3bac299bb7c9b0aad8a7bf94ffc68bb3b38883327c87375f2d4000b4766c40da",
        "fitness_sigma0.60.csv": "d4d8ffb6834b8ea86beab4a573e1326ddd20312ec8fda5e57843a78b6f1c7b2c",
        "fitness_sigma0.60.txt": "4a82689dcf53ba994fe9afa2bfe974392c43ffa4903c27dc7bdf48556c430d30",
        "fitness_sigma0.90.csv": "66f58554339ee75130bc5bc2b0fd044a078193b191817c5dada07f35458aff9b",
        "fitness_sigma0.90.txt": "12cfea564c343eae0dd04533836a29f179f32c8235d9478115dbf6719ddcfd82",
    },
}


def golden_grid(out, checkpoint_interval):
    assert main([
        "grid", "--out", str(out), "--seed", "42",
        "--set", "mflms_mu1=0.011",
        "--set", "n_runs=20",
        "--set", "n_iters=200",
        "--set", f"checkpoint_interval={checkpoint_interval}",
    ]) == 0


class TestGoldenFiles:
    @pytest.mark.parametrize("checkpoint_interval", [20, 1])
    def test_every_grid_file_digest(self, tmp_path, checkpoint_interval):
        golden_grid(tmp_path, checkpoint_interval)
        assert sha256s(tmp_path) == GOLDEN_FILES[checkpoint_interval], numpy_platform()

    def test_report_regenerates_every_digest(self, tmp_path):
        golden_grid(tmp_path, 1)
        for path in tmp_path.iterdir():
            if path.name != "aggregates.csv":
                path.unlink()
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert len(GOLDEN_FILES[1]) == 22
        assert sha256s(tmp_path) == GOLDEN_FILES[1], numpy_platform()


class TestReport:
    def test_report_reproduces_tables_byte_for_byte(self, tmp_path):
        out = tmp_path / "results"
        assert main(["grid", "--out", str(out), "--seed", "42", *SMALL_GRID]) == 0
        originals = tree(out)
        for name in list(originals):
            if name != "aggregates.csv":
                (out / name).unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert tree(out) == originals

    def test_report_without_aggregates_fails(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("edit, error", [
        # A NaN fitness on line 3 and an infinite MSE on line 4: the first is named.
        ({3: ("nwd_200", "nan"), 4: ("mse_of_mean", "inf")}, "line 3, column nwd_200: not a finite number: 'nan'"),
        ({4: ("mse_of_mean", "inf")}, "line 4, column mse_of_mean: not a finite number: 'inf'"),
        ({2: 10}, "line 2: 10 cells, but the header has 25"),
        ({3: ("n_iters", "100")}, "line 3, column nwd_200: the header does not match this row"),
    ], ids=["nan-and-inf", "inf", "short-row", "header"])
    def test_report_rejects_a_bad_row_and_writes_nothing(self, tmp_path, capsys, edit, error):
        out = tmp_path / "results"
        assert main(["grid", "--out", str(out), "--seed", "42", *SMALL_GRID]) == 0
        for path in out.iterdir():
            if path.name != "aggregates.csv":
                path.unlink()
        lines = (out / "aggregates.csv").read_text().split("\n")
        header = lines[0].split(",")
        for line, change in edit.items():
            cells = lines[line - 1].split(",")
            if isinstance(change, int):
                cells = cells[:change]
            else:
                cells[header.index(change[0])] = change[1]
            lines[line - 1] = ",".join(cells)
        (out / "aggregates.csv").write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert [p.name for p in out.iterdir()] == ["aggregates.csv"]


# The scenario every algorithm runs at in TestRun, and the label each prints.
RUN_SCENARIO = ["--set", "noise_level = 0.30", "--set", "alpha = 0.5",
                "--set", "f = 0.25", "--set", "mflms_mu1 = 0.01"]
RUN_LABELS = {
    "lms": "LMS(eta=0.042)",
    "momentum_lms": "mLMS(eta=0.01) a=0.5",
    "flms": "FLMS(f=0.25)",
    "mflms": "mFLMS(f=0.25) a=0.5",
    "mflms_published16": "mFLMS-published(f=0.25) a=0.5",
    "mflms_corrected": "mFLMS-corrected(f=0.25) a=0.5",
}


class TestRun:
    def test_missing_scenario_keys_exit_1(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path)]) == 1
        assert "missing required scenario key" in capsys.readouterr().err

    def test_run_writes_single_aggregate(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "run", "--out", str(out), "--seed", "42",
            "--set", "noise_level=0.30",
            "--set", "alpha=0.2",
            "--set", "f=0.25",
            "--set", "algorithm=lms",
            "--set", "n_runs=5",
            "--set", "n_iters=200",
        ])
        assert code == 0
        text = (out / "aggregates.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0.30,lms,")

    def test_run_mflms_with_explicit_mu1(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "run", "--out", str(out), "--seed", "42",
            "--set", "noise_level=0.30",
            "--set", "alpha=0.2",
            "--set", "f=0.25",
            "--set", "mflms_mu1=0.01",
            "--set", "n_runs=5",
            "--set", "n_iters=200",
        ])
        assert code == 0
        assert (out / "aggregates.csv").read_text().strip().split("\n")[1].startswith("0.30,mflms,")

    @pytest.mark.parametrize("algorithm", list(RUN_LABELS))
    def test_run_other_variants(self, tmp_path, capsys, algorithm):
        out = tmp_path / algorithm
        code = main([
            "run", "--out", str(out), "--seed", "42", *RUN_SCENARIO,
            "--set", f"algorithm={algorithm}",
            "--set", "n_runs=5",
            "--set", "n_iters=200",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"{RUN_LABELS[algorithm]} @ sigma=0.30: ")
        row = (out / "aggregates.csv").read_text().strip().split("\n")[1]
        assert row.startswith(f"0.30,{algorithm},")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_each_algorithm_takes_only_its_keys(self, variant):
        # LMS runs at the lms_eta paired with alpha 0.5, the others at
        # mflms_mu1; FLMS takes no alpha, and only FLMS and mFLMS take a
        # fractional step size, by default mu1*Gamma(2-f).
        keys = [item for item in RUN_SCENARIO if item != "--set"]
        settings = parse_config("\n".join([*keys, f"algorithm = {variant.value}"]))
        scenario = settings.single_scenario()
        default = default_muf(0.01, 0.25)
        mu1, muf, f, alpha = {
            Variant.LMS: (0.042, 0.0, 0.5, 0.0),
            Variant.MOMENTUM_LMS: (0.01, 0.0, 0.25, 0.5),
            Variant.FLMS: (0.01, default, 0.25, 0.0),
            Variant.MFLMS_ASSEMBLED: (0.01, default, 0.25, 0.5),
            Variant.MFLMS_PUBLISHED16: (0.01, 0.0, 0.25, 0.5),
            Variant.MFLMS_CORRECTED: (0.01, 0.0, 0.25, 0.5),
        }[variant]
        expected = FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=variant)
        assert _single_algorithm(settings, scenario) == expected
        # mflms_muf is no configuration key, but a library scenario may set it.
        fractional = variant in (Variant.FLMS, Variant.MFLMS_ASSEMBLED)
        got = _single_algorithm(settings, replace(scenario, mflms_muf=0.003))
        assert got == (replace(expected, muf=0.003) if fractional else expected)


class TestCalibrate:
    def test_single_scenario_prints_mu1(self, tmp_path, capsys):
        code = main([
            "calibrate", "--out", str(tmp_path), "--seed", "42",
            "--set", "noise_level=0.30",
            "--set", "alpha=0.2",
            "--set", "f=0.25",
            "--set", "n_iters=300",
            "--set", "calibration_runs=20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("sigma=0.30 alpha=0.2 f=0.25: mu1=")

    def test_grid_prints_cells_until_one_fails(self, tmp_path, capsys):
        # The grid path calibrates every cell in lockstep, then prints in
        # row order; at this tolerance the third cell's bisection misses,
        # so the first two lines print before exit code 2.
        grid = GridConfig(noise_levels=(0.30,), alphas=(0.2, 0.8), lms_etas=(0.027, 0.1),
                          fractional_orders=(0.25, 0.75), n_iters=300)
        cells = [sc for _, f, sc in grid.cells() if f is not None]
        expected = "".join(
            f"sigma=0.30 alpha={sc.alpha:g} f={sc.f:g}: "
            f"mu1={calibrate_mu1(sc, tolerance=1e-4, calibration_runs=20)!r}\n"
            for sc in cells[:2]
        )
        code = main([
            "calibrate", "--out", str(tmp_path), "--seed", "42",
            "--set", "noise_levels=0.30",
            "--set", "alphas=0.2,0.8",
            "--set", "lms_etas=0.027,0.1",
            "--set", "fractional_orders=0.25,0.75",
            "--set", "n_iters=300",
            "--set", "calibration_runs=20",
            "--set", "calibration_tolerance=1e-4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == expected
        assert captured.err.startswith("error: bisection converged to mu1=")


class TestErrors:
    def test_bad_set_syntax(self, capsys):
        assert main(["grid", "--set", "n_runs"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_key(self, capsys):
        assert main(["grid", "--set", "bogus=1"]) == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_range_violation(self, capsys):
        assert main(["grid", "--set", "alpha=1.5"]) == 1

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_runs = 6\nn_iters = 200\n"
                       "noise_levels = 0.30\nalphas = 0.2\nlms_etas = 0.027\n"
                       "fractional_orders = 0.25\nmflms_mu1 = 0.01\n")
        out = tmp_path / "results"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "aggregates.csv").exists()

    # A file line whose cross-field rule only holds once a --set line is read.
    COMPLETED_BY_SET = [("checkpoint_interval = 300", "n_iters=900"), ("alphas = 0.2", "lms_etas=0.027")]
    TINY_GRID = ["--set", "noise_levels=0.30", "--set", "fractional_orders=0.25",
                 "--set", "mflms_mu1=0.01", "--set", "n_runs=4"]

    @pytest.mark.parametrize("line, override", COMPLETED_BY_SET)
    def test_set_completes_a_config_file(self, tmp_path, line, override):
        # The rules that couple keys are checked once the file, --set and
        # --seed are all read, so a pair valid together is accepted.
        cfg = tmp_path / "c.ini"
        cfg.write_text(line + "\n")
        out = tmp_path / "results"
        assert main(["grid", "--config", str(cfg), "--out", str(out), "--seed", "42",
                     "--set", override, *self.TINY_GRID]) == 0
        assert (out / "aggregates.csv").exists()

    @pytest.mark.parametrize("line, override", COMPLETED_BY_SET)
    def test_config_file_invalid_alone_exits_1(self, tmp_path, capsys, line, override):
        cfg = tmp_path / "c.ini"
        cfg.write_text(line + "\n")
        out = tmp_path / "results"
        assert main(["grid", "--config", str(cfg), "--out", str(out), *self.TINY_GRID]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_seed_out_of_range(self, capsys):
        assert main(["grid", "--seed", str(2**64), *SMALL_GRID]) == 1
        assert "base_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "noise_levels=0.301,0.304",
        "fractional_orders=0.251,0.254",
        "alphas=0.2,0.2000001 lms_etas=0.027,0.042",
        "alphas=0.2,0.5 lms_etas=0.027,0.02700001",
    ])
    def test_values_sharing_an_output_label_exit_1(self, tmp_path, capsys, setting):
        out = tmp_path / "results"
        overrides = [arg for item in setting.split() for arg in ("--set", item)]
        assert main(["grid", "--out", str(out), *SMALL_GRID, *overrides]) == 1
        assert "share the label" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["grid", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_env_worker_cap(self, tmp_path, monkeypatch):
        # LMSLAB_MAX_WORKERS is no longer read: a malformed value changes nothing.
        monkeypatch.setenv("LMSLAB_MAX_WORKERS", "not-a-number")
        assert main(["grid", "--out", str(tmp_path / "a"), "--seed", "42", *SMALL_GRID]) == 0

    def test_workers_must_be_positive(self, capsys):
        assert main(["grid", "--workers", "0", *SMALL_GRID]) == 1
        assert "--workers must be a positive integer" in capsys.readouterr().err
