"""CLI tests: subcommands, exit codes, output trees, determinism.

All invocations run in-process through ``lmslab.cli.main`` with a small
grid (one noise level, two fractional orders, fixed mu1 so calibration
is skipped where speed matters).
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lmslab
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

    numpy picks its loops for the CPU at import.  The SIMD-dependent
    operations are np.arctan2, which forms every amplitude/phase value,
    and np.power at exponents other than 0.25, 0.5 and 0.75, which the
    kernel forms from square roots; without numpy's AVX-512 loops the
    former differs in the last bit, and so do the digests.
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
        assert digest == "d3ba2d780aa8c85953c7a4030f749ee259a856d3a0a657b56ec8f84b2a482aac", numpy_platform()

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
        "aggregates.csv": "d3ba2d780aa8c85953c7a4030f749ee259a856d3a0a657b56ec8f84b2a482aac",
        "curves_sigma0.30_f0.25.csv": "949dff2bc4a87f4034b9f8afd5244ffca88e70e9f78ff965ea39d185cf6428ee",
        "curves_sigma0.30_f0.50.csv": "1fa6e04052fa3317d116b0014b04631f7041febac2598826d22f60e102de1554",
        "curves_sigma0.30_f0.75.csv": "f789ef33c48ae111fdfa9d4b59218bcb5b57e7a9a349aea780df7d3e33de0f74",
        "curves_sigma0.60_f0.25.csv": "13232bd8304208f75d961ceea714001ed4becf921b6ca98d209d2de98e326b59",
        "curves_sigma0.60_f0.50.csv": "11594bb18f8803f06c35973bcaa143fa0a4de986d6e87a1377a6dfb7e39858bd",
        "curves_sigma0.60_f0.75.csv": "f4908a91fd960786c2cfc0f60a048d6175a9400981c463a9121dd462381b1907",
        "curves_sigma0.90_f0.25.csv": "a7b0df4a73fc7cc920091ff54a6a93fe70095c36ca167cb50f33df5291df4f5f",
        "curves_sigma0.90_f0.50.csv": "850f5b93b0154ef50b2a76c1a3a5331ff5977c1aab104c813bfd908f0838806e",
        "curves_sigma0.90_f0.75.csv": "cbe25dd48347085fc8c28e2ca9d024cbb02043f5b9e99f94b35ee31b2aec98d5",
        "estimation_sigma0.30.csv": "7cb90ddc5a17b40330a967efe790b1c9dcb0156cca0549fd92791236682bf1f0",
        "estimation_sigma0.30.txt": "d7cea240090b70c4a0cac94408f103e04f96d3066da9f0858135f7e19a7828c0",
        "estimation_sigma0.60.csv": "5c2f2e0cdd1723caa505c5620aec4db8c849fdcac96e55178aa64af8f669560f",
        "estimation_sigma0.60.txt": "f7948f2e38458d0d6165b660511351b6625f7dd6a8f62e4bcda6e5cdf827fd1d",
        "estimation_sigma0.90.csv": "7916d01bd1cd17bade665f80126439f5ffd015435e690a3109c070bf59823b4f",
        "estimation_sigma0.90.txt": "997bf17124916487af6e730cd625120f2012a79f15b80dd5e98eb211e431c7de",
        "fitness_sigma0.30.csv": "e3551c1db48a869084ded2bce5bc3e4809df7aaaa42ed83f4289829e879e39b8",
        "fitness_sigma0.30.txt": "ce07ea85009bb8bd2095e868852e43fd2c4f245ddeccf3e5fc9906032ed0140f",
        "fitness_sigma0.60.csv": "9b60e35423a7af89fdf0c40da234cc66f288cf36254b78031da8842baf3808fa",
        "fitness_sigma0.60.txt": "6ad998df0970ed311ed4cc97a86862cc8c2708874fbe2cb9491861b5942939ce",
        "fitness_sigma0.90.csv": "e72839f37f111f64ba4e71478019c9ea15a75688168ef335d40510eb2eb11a88",
        "fitness_sigma0.90.txt": "e75c3a8a9fce755fe318f089c840ed5225740ed2854ecc0d5e6acd5e68cc96f8",
    },
    1: {
        "aggregates.csv": "17daa892e29c87db77dad2a338bf61104b8377a47f30b7afa9d543ed003538a2",
        "curves_sigma0.30_f0.25.csv": "fb0a8b361086c6d9d59f7b768ebd96ecf46fadbc5366f7cb87fce41e39b75975",
        "curves_sigma0.30_f0.50.csv": "35256e5e9e3aa69ad4f4e6e9644bc441483bcef91a4f1a218e1ad379e4da38c1",
        "curves_sigma0.30_f0.75.csv": "820a561a66c88a1522afa0ac7ca90e7d7aec75c79b8e5db3959dac245303aeef",
        "curves_sigma0.60_f0.25.csv": "a04b9fdb94b2ec631683b3644fda1d368a5ce4945ec5cad640d363d9b3de00e9",
        "curves_sigma0.60_f0.50.csv": "1eed27743c02f3dd48ac3b681e9d181bce3ab22c4a621cb7d81ba8e5f2d354f1",
        "curves_sigma0.60_f0.75.csv": "fb689ce0301aea3c0ea7f140b86eb1d8baae62288279526e4d19355c2f0362d2",
        "curves_sigma0.90_f0.25.csv": "fcce70562847b4c21e900a51997f567e171437c8dfaddbe1cc02694c4a8cd8be",
        "curves_sigma0.90_f0.50.csv": "db7219be138b06150255ff5f2d5a94001398ff3b3d3d1fa8a8d18925163da68a",
        "curves_sigma0.90_f0.75.csv": "b5bed1e9a811375c2d37a6c41765e7427681c4fe3920fb9ce4518f745f199224",
        "estimation_sigma0.30.csv": "7cb90ddc5a17b40330a967efe790b1c9dcb0156cca0549fd92791236682bf1f0",
        "estimation_sigma0.30.txt": "d7cea240090b70c4a0cac94408f103e04f96d3066da9f0858135f7e19a7828c0",
        "estimation_sigma0.60.csv": "5c2f2e0cdd1723caa505c5620aec4db8c849fdcac96e55178aa64af8f669560f",
        "estimation_sigma0.60.txt": "f7948f2e38458d0d6165b660511351b6625f7dd6a8f62e4bcda6e5cdf827fd1d",
        "estimation_sigma0.90.csv": "7916d01bd1cd17bade665f80126439f5ffd015435e690a3109c070bf59823b4f",
        "estimation_sigma0.90.txt": "997bf17124916487af6e730cd625120f2012a79f15b80dd5e98eb211e431c7de",
        "fitness_sigma0.30.csv": "ee6c6ba71603ca91d7393acc7b4a1c4c831357cf346e2dd5c82d53dbcbef5fbc",
        "fitness_sigma0.30.txt": "3bac299bb7c9b0aad8a7bf94ffc68bb3b38883327c87375f2d4000b4766c40da",
        "fitness_sigma0.60.csv": "c8afd9430088604cbf5ca2193abd81d53993ec978570b106303a0d189074937e",
        "fitness_sigma0.60.txt": "4a82689dcf53ba994fe9afa2bfe974392c43ffa4903c27dc7bdf48556c430d30",
        "fitness_sigma0.90.csv": "40ea54563a734d0c6a2776bbc5403b080b27d7bcf6385a674b3761340418234f",
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


# numpy's SIMD dispatch targets switched off for a child process: its
# AVX-512 loops, then its AVX2 (x86-64-v3) loops as well.
DISPATCH = set((getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_dispatch__)
SIMD_OFF = {
    "avx512": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "avx512-avx2": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}


def bc_grid_files(out, disabled=()):
    """The bc-space curves and fitness files of a small grid, written by a child whose numpy skips ``disabled``.

    numpy reads NPY_DISABLE_CPU_FEATURES at import, so the switch acts
    on the child only.  The estimation tables and ``aggregates.csv`` are
    left out: they hold amplitude/phase estimates and their MSE, and
    np.arctan2 still rounds those last bits differently on each SIMD path.
    """
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(lmslab.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([
        sys.executable, "-m", "lmslab", "grid", "--out", str(out), "--seed", "42",
        "--set", "mflms_mu1=0.011", "--set", "n_runs=20", "--set", "n_iters=200", "--set", "metric_space=bc",
    ], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name: data for name, data in tree(out).items() if name.startswith(("curves_", "fitness_"))}


class TestPortableBytes:
    @pytest.fixture(scope="class")
    def native(self, tmp_path_factory):
        return bc_grid_files(tmp_path_factory.mktemp("native"))

    @pytest.mark.parametrize("disabled", [
        pytest.param(targets, id=name, marks=pytest.mark.skipif(
            not set(targets) <= DISPATCH, reason=f"numpy does not dispatch to {' '.join(targets)}"))
        for name, targets in SIMD_OFF.items()
    ])
    def test_bc_outputs_do_not_depend_on_simd_loops(self, tmp_path, native, disabled):
        # Every mFLMS step at f = 0.25 and 0.75 forms |w|**(1 - f) here, so
        # a power taken through numpy's SIMD loops shows in these files.
        assert len(native) == 15
        assert bc_grid_files(tmp_path, disabled) == native, numpy_platform()


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
    # Two momentum blocks of two fractional orders, calibrated at 300 iterations.
    CALIBRATED_GRID = [
        "--set", "noise_levels=0.30",
        "--set", "alphas=0.2,0.8",
        "--set", "lms_etas=0.027,0.1",
        "--set", "fractional_orders=0.25,0.75",
        "--set", "n_iters=300",
        "--set", "calibration_runs=20",
    ]

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

    def test_one_cell_prints_its_line_of_the_grid(self, tmp_path, capsys):
        # One cell and the whole grid take one path: the cell's line is the
        # grid's line for that cell, byte for byte.
        assert main(["calibrate", "--out", str(tmp_path), "--seed", "42", *self.CALIBRATED_GRID]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        cells = [(0.2, 0.25), (0.2, 0.75), (0.8, 0.25), (0.8, 0.75)]
        assert len(lines) == len(cells)
        for line, (alpha, f) in zip(lines, cells):
            assert main(["calibrate", "--out", str(tmp_path), "--seed", "42", *self.CALIBRATED_GRID,
                         "--set", "noise_level=0.30", "--set", f"alpha={alpha}", "--set", f"f={f}"]) == 0
            assert capsys.readouterr().out == line

    def test_lms_eta_alone_selects_one_cell(self, tmp_path, capsys):
        # A set lms_eta names one cell's reference, so the cell's other
        # keys are required rather than the rate ignored.
        code = main(["calibrate", "--out", str(tmp_path), "--seed", "42", *self.CALIBRATED_GRID,
                     "--set", "lms_eta=0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "configuration error: missing required scenario key(s): noise_level, alpha, f\n"

    @pytest.mark.parametrize("algorithm", [v.value for v in Variant if v is not Variant.MFLMS_ASSEMBLED])
    def test_other_algorithm_rejected(self, tmp_path, capsys, algorithm):
        # calibrate finds mFLMS's step only: another rule is refused, not
        # answered with the mFLMS value.
        code = main(["calibrate", "--out", str(tmp_path), "--seed", "42", *self.CALIBRATED_GRID,
                     "--set", "noise_level=0.30", "--set", "alpha=0.2", "--set", "f=0.25",
                     "--set", f"algorithm={algorithm}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"configuration error: algorithm: calibrate calibrates mflms only, got {algorithm!r}\n"

    def test_mflms_algorithm_is_the_default(self, tmp_path, capsys):
        args = ["calibrate", "--out", str(tmp_path), "--seed", "42", *self.CALIBRATED_GRID,
                "--set", "noise_level=0.30", "--set", "alpha=0.2", "--set", "f=0.25"]
        assert main(args) == 0
        unset = capsys.readouterr().out
        assert main([*args, "--set", "algorithm=mflms"]) == 0
        assert capsys.readouterr().out == unset


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

    @pytest.mark.parametrize("argv, code, prefix", [
        (["grid", "--config", "{tmp}/latin.cfg"], 1, "configuration error: cannot read config file: "),
        (["grid", "--config", "{tmp}"], 1, "configuration error: cannot read config file: "),
        (["report", "--out", "{tmp}"], 2, "error: no aggregates dump at "),
    ], ids=["not-utf8", "directory", "report-without-dump"])
    def test_unreadable_input_is_one_stderr_line(self, tmp_path, capsys, argv, code, prefix):
        (tmp_path / "latin.cfg").write_bytes(b"n_runs = 10\n\xff\xfe\n")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_env_worker_cap(self, tmp_path, monkeypatch):
        # LMSLAB_MAX_WORKERS is no longer read: a malformed value changes nothing.
        monkeypatch.setenv("LMSLAB_MAX_WORKERS", "not-a-number")
        assert main(["grid", "--out", str(tmp_path / "a"), "--seed", "42", *SMALL_GRID]) == 0

    def test_workers_must_be_positive(self, capsys):
        assert main(["grid", "--workers", "0", *SMALL_GRID]) == 1
        assert "--workers must be a positive integer" in capsys.readouterr().err
