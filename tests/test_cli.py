"""CLI tests: subcommands, exit codes, output trees, determinism.

All invocations run in-process through ``lmslab.cli.main`` with a small
grid (one noise level, two fractional orders, fixed mu1 so calibration
is skipped where speed matters).
"""

import hashlib
import os

import numpy as np
import pytest

from lmslab.cli import main
from lmslab.experiment import GridConfig, calibrate_mu1

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
        assert digest == "0066028c7da473f1576ee563f69ad83be087c62760f2bc7b90bf7928a6607e4d"

    def test_seed_changes_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--out", str(out1), "--seed", "1", *SMALL_GRID]) == 0
        assert main(["grid", "--out", str(out2), "--seed", "2", *SMALL_GRID]) == 0
        assert tree(out1) != tree(out2)


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

    @pytest.mark.parametrize("algorithm", ["momentum_lms", "flms", "mflms_corrected"])
    def test_run_other_variants(self, tmp_path, algorithm):
        out = tmp_path / algorithm
        code = main([
            "run", "--out", str(out), "--seed", "42",
            "--set", "noise_level=0.30",
            "--set", "alpha=0.2",
            "--set", "f=0.25",
            "--set", f"algorithm={algorithm}",
            "--set", "mflms_mu1=0.01",
            "--set", "n_runs=5",
            "--set", "n_iters=200",
        ])
        assert code == 0
        row = (out / "aggregates.csv").read_text().strip().split("\n")[1]
        assert row.startswith(f"0.30,{algorithm},")


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

    def test_seed_out_of_range(self, capsys):
        assert main(["grid", "--seed", str(2**64), *SMALL_GRID]) == 1
        assert "base_seed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["grid", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_env_worker_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LMSLAB_MAX_WORKERS", "2")
        out = tmp_path / "a"
        assert main(["grid", "--out", str(out), "--seed", "42", *SMALL_GRID]) == 0
        monkeypatch.setenv("LMSLAB_MAX_WORKERS", "not-a-number")
        assert main(["grid", "--out", str(tmp_path / "b"), *SMALL_GRID]) == 1
