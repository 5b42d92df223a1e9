"""Reporting tests on fabricated aggregates: layouts, round-trips,
deterministic rendering."""

import builtins
import collections
import csv
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmslab.experiment import AggregateResult, GridEntry, ScenarioConfig
from lmslab import reporting
from lmslab.filters import Variant
from lmslab.reporting import (
    ReportTable,
    estimation_table,
    fitness_table,
    read_aggregates_csv,
    render_table_text,
    write_aggregates_csv,
    write_grid_outputs,
)


def fake_entry(sigma, variant, alpha, f, size, rng, n_ck=10):
    scenario = ScenarioConfig(
        noise_std=math.sqrt(float(sigma)), alpha=alpha, f=f if f else 0.5,
        lms_eta=0.027, n_runs=10, n_iters=100 * n_ck, checkpoint_interval=100,
    )
    agg = AggregateResult(
        mean_nwd_at_checkpoints=rng.uniform(0.01, 0.4, n_ck),
        mean_final_theta_aphi=rng.uniform(0.5, 4.0, 8),
        mse_of_mean=float(rng.uniform(1e-7, 1e-4)),
        mean_per_run_mse=float(rng.uniform(1e-4, 1e-2)),
        divergence_count=0,
    )
    return GridEntry(
        sigma_label=f"{float(sigma):.2f}", variant=variant, step_size=size, scenario=scenario, aggregate=agg,
    )


def fake_block(sigma, rng, n_ck=10):
    entries = []
    for alpha, eta in zip((0.2, 0.5, 0.8), (0.027, 0.042, 0.1)):
        for f in (0.25, 0.5, 0.75):
            entries.append(fake_entry(sigma, Variant.MFLMS_ASSEMBLED, alpha, f, 0.01, rng, n_ck))
        entries.append(fake_entry(sigma, Variant.LMS, alpha, None, eta, rng, n_ck))
    return entries


@pytest.fixture
def block():
    return fake_block(0.30, np.random.default_rng(8))


def grid_names(sigmas) -> list[str]:
    """The files of fake blocks at noise levels ``sigmas``, in write order, ``aggregates.csv`` aside."""
    names = []
    for sig in sigmas:
        names += [f"fitness_sigma{sig}.csv", f"fitness_sigma{sig}.txt",
                  f"estimation_sigma{sig}.csv", f"estimation_sigma{sig}.txt"]
        names += [f"curves_sigma{sig}_f{f}.csv" for f in ("0.25", "0.50", "0.75")]
    return names


def read_csv(path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


class TestFitnessTable:
    def test_shape_and_labels(self, block):
        table = fitness_table("0.30", block)
        assert len(table.rows) == 12
        assert len(table.column_headers) == 10
        assert table.column_headers[0] == "100"
        assert table.column_headers[-1] == "1000"
        assert table.rows[0][0] == "mFLMS(f=0.25) a=0.2"
        assert table.rows[3][0] == "LMS(eta=0.027)"
        assert table.highlight_rows == [3, 7, 11]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fitness_table("0.30", [])

    def test_mixed_sigma_rejected(self, block):
        other = fake_block(0.60, np.random.default_rng(9))
        with pytest.raises(ValueError):
            fitness_table("0.30", block + other[:1])


class TestEstimationTable:
    def test_truth_row_and_columns(self, block):
        table = estimation_table("0.30", block)
        assert len(table.rows) == 13
        label, values = table.rows[-1]
        assert label == "True values"
        np.testing.assert_array_equal(
            values, [1.8, 2.9, 4.0, 2.5, 0.95, 0.8, 0.76, 1.1, 0.0]
        )
        assert table.column_headers[-1] == "MSE"
        assert all(v >= 0 for _, row in table.rows for v in row[-1:])

    def test_text_rendering_formats(self, block):
        table = estimation_table("0.30", block)
        text = render_table_text(table)
        assert "True values" in text
        # MSE column rendered in scientific notation
        assert "E-0" in text

    def test_display_rounding_is_half_even(self):
        # Exactly representable ties round to even; non-ties round to
        # nearest.  The renderer uses format(), which implements this.
        assert format(0.5, ".0f") == "0"
        assert format(1.5, ".0f") == "2"
        assert format(2.5, ".0f") == "2"
        assert format(0.00234999, ".4f") == "0.0023"
        assert format(0.00235001, ".4f") == "0.0024"


class TestRoundTrip:
    def test_csv_round_trip_exact(self, block, tmp_path):
        write_grid_outputs(block, tmp_path)
        for name, make_table in (("fitness", fitness_table), ("estimation", estimation_table)):
            table = make_table("0.30", block)
            header, *rows = read_csv(tmp_path / f"{name}_sigma0.30.csv")
            assert header == ["label", *table.column_headers]
            assert len(rows) == len(table.rows)
            for (la, *va), (lb, vb) in zip(rows, table.rows):
                assert la == lb
                assert [float(x) for x in va] == vb  # float(repr(x)) == x, exactly

    def test_aggregates_round_trip_exact(self, block):
        # A momentum-LMS row, as `lmslab run` writes one, keeps its order.
        block = block + [fake_entry(0.30, Variant.MOMENTUM_LMS, 0.5, 0.25, 0.02, np.random.default_rng(3))]
        text = write_aggregates_csv(block)
        parsed = read_aggregates_csv(text)
        assert len(parsed) == len(block)
        for a, b in zip(parsed, block):
            assert a.sigma_label == b.sigma_label
            assert a.variant is b.variant
            assert (a.alpha, a.f) == (b.alpha, b.f)
            assert a.label == b.label
            assert a.step_size == b.step_size
            np.testing.assert_array_equal(
                a.aggregate.mean_nwd_at_checkpoints, b.aggregate.mean_nwd_at_checkpoints
            )
            np.testing.assert_array_equal(
                a.aggregate.mean_final_theta_aphi, b.aggregate.mean_final_theta_aphi
            )
            assert a.aggregate.mse_of_mean == b.aggregate.mse_of_mean
        assert [e.alpha for e in parsed] == [0.2] * 4 + [0.5] * 4 + [0.8] * 4 + [0.5]
        assert [e.f for e in parsed] == [0.25, 0.5, 0.75, None] * 3 + [0.25]
        # and re-serialisation is byte-identical
        assert write_aggregates_csv(parsed) == text

    def test_blank_lines_are_skipped(self, block):
        text = write_aggregates_csv(block)
        spaced = "\n" + text.replace("\n", "\n\n")
        assert write_aggregates_csv(read_aggregates_csv(spaced)) == text

    def test_rendering_deterministic(self, block):
        t1 = render_table_text(fitness_table("0.30", block))
        t2 = render_table_text(fitness_table("0.30", block))
        assert t1 == t2


def with_cell(text, line, column, value):
    """``text`` with the ``column`` cell of (1-based) ``line`` set to ``value``."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


class TestAggregatesRejected:
    """Each row ``read_aggregates_csv`` rejects is named by its line and column."""

    @pytest.mark.parametrize("line, column, value, message", [
        (3, "nwd_300", "nan", "not a finite number: 'nan'"),
        (13, "mse_of_mean", "inf", "not a finite number: 'inf'"),
        (2, "theta_2", "-inf", "not a finite number"),
        (4, "alpha", "nan", "not a finite number"),
        (5, "n_runs", "2.5", "invalid literal for int"),
        (6, "step_size", "0.01x", "could not convert"),
        (7, "metric_space", "nonsense", "'nonsense' is not a valid MetricSpace"),
        (10, "f", "", "only an LMS row leaves it empty"),  # an mFLMS row
        (13, "f", "0.25", "only an LMS row leaves it empty"),  # an LMS row
    ])
    def test_bad_cell(self, block, line, column, value, message):
        text = with_cell(write_aggregates_csv(block), line, column, value)
        with pytest.raises(ValueError, match=f"^line {line}, column {column}: {message}"):
            read_aggregates_csv(text)

    @pytest.mark.parametrize("column, value, message", [
        ("alpha", "1.5", "alpha: must lie in [0, 1), got 1.5"),
        ("n_runs", "0", "n_runs: must lie in [1, inf), got 0"),
        ("base_seed", "-1", f"base_seed: must lie in [0, {2**64}), got -1"),
    ])
    def test_row_out_of_range(self, block, column, value, message):
        text = with_cell(write_aggregates_csv(block), 9, column, value)
        with pytest.raises(ValueError, match=f"^line 9: {re.escape(message)}$"):
            read_aggregates_csv(text)

    @pytest.mark.parametrize("keep", [10, 32, 34])
    def test_row_with_another_cell_count(self, block, keep):
        lines = write_aggregates_csv(block).split("\n")
        lines[4] = ",".join((lines[4].split(",") * 2)[:keep])
        with pytest.raises(ValueError, match=f"^line 5: {keep} cells, but the header has 33$"):
            read_aggregates_csv("\n".join(lines))

    @pytest.mark.parametrize("column, value, named", [
        ("n_iters", "500", "nwd_600"),  # five checkpoints under a header of ten
        ("n_iters", "2000", "nwd_1100"),  # twenty
        ("checkpoint_interval", "200", "nwd_100"),
    ])
    def test_row_the_header_does_not_fit(self, block, column, value, named):
        text = with_cell(write_aggregates_csv(block), 8, column, value)
        with pytest.raises(ValueError, match=f"^line 8, column {named}: the header does not match this row$"):
            read_aggregates_csv(text)

    def test_misnamed_header_column(self, block):
        text = write_aggregates_csv(block).replace(",nwd_300,", ",nwd_250,", 1)
        with pytest.raises(ValueError, match="^line 2, column nwd_250: the header does not match this row$"):
            read_aggregates_csv(text)

    def test_line_numbers_count_blank_lines(self, block):
        text = with_cell(write_aggregates_csv(block), 3, "nwd_300", "nan")
        spaced = "\n" + text.replace("\n", "\n\n")  # line n moves to line 2n
        with pytest.raises(ValueError, match="^line 6, column nwd_300: not a finite number"):
            read_aggregates_csv(spaced)


# A small dump (three rows, two checkpoints) and every cell text in it:
# the property below mutates its cells.
DUMP = write_aggregates_csv(fake_block(0.30, np.random.default_rng(8), n_ck=2)[2:5])
DUMP_CELLS = sorted(set(DUMP.replace("\n", ",").split(",")))
CELL_TEXT = st.sampled_from(DUMP_CELLS) | st.text("0123456789.-+einfaLMS_", max_size=6)


@st.composite
def mutated_dumps(draw):
    """``DUMP`` with a few cells of its header or rows replaced, deleted or inserted."""
    lines = [line.split(",") for line in DUMP.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        cells = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(cells)))
        how = draw(st.sampled_from(["replace", "delete", "insert"]))
        if how == "insert":
            cells.insert(at, draw(CELL_TEXT))
        elif at < len(cells):
            if how == "delete":
                del cells[at]
            else:
                cells[at] = draw(CELL_TEXT)
    return "\n".join(",".join(cells) for cells in lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(mutated_dumps())
def test_aggregates_reader_raises_only_line_errors(text):
    # A damaged dump is read back or rejected with a ValueError that
    # names its line; no other exception escapes the reader.
    try:
        read_aggregates_csv(text)
    except ValueError as exc:
        assert str(exc).startswith("line ") or str(exc) == "aggregates file has no data rows", exc


class TestLearningCurves:
    """A curves file: the three momentum series of one order, then the paired LMS series."""

    @staticmethod
    def series(block, f):
        return [e for e in block if e.f == f] + [e for e in block if e.variant is Variant.LMS]

    def test_columns_and_iterations(self, block, tmp_path):
        write_grid_outputs(block, tmp_path)
        header, *rows = read_csv(tmp_path / "curves_sigma0.30_f0.25.csv")
        assert header == ["iteration"] + [e.label for e in self.series(block, 0.25)]
        assert len(header) == 7  # iteration + 6 series
        assert [row[0] for row in rows] == [str(i) for i in range(100, 1001, 100)]

    def test_values_round_trip(self, block, tmp_path):
        write_grid_outputs(block, tmp_path)
        for f in (0.25, 0.5, 0.75):
            _, *rows = read_csv(tmp_path / f"curves_sigma0.30_f{f:.2f}.csv")
            columns = np.array(rows, dtype=float).T[1:]
            for col, entry in zip(columns, self.series(block, f), strict=True):
                np.testing.assert_array_equal(col, entry.aggregate.mean_nwd_at_checkpoints)


class TestGridFiles:
    def test_full_grid_file_set(self, tmp_path):
        rng = np.random.default_rng(10)
        entries = []
        for sigma in (0.30, 0.60, 0.90):
            entries += fake_block(sigma, rng)
        files = {p.name: p.read_text() for p in write_grid_outputs(entries, tmp_path)}
        assert list(files) == [*grid_names(["0.30", "0.60", "0.90"]), "aggregates.csv"]
        csv_tables = [n for n in files if n.endswith(".csv") and not n.startswith(("curves", "aggregates"))]
        txt_tables = [n for n in files if n.endswith(".txt")]
        curves = [n for n in files if n.startswith("curves")]
        assert len(csv_tables) == 6
        assert len(txt_tables) == 6
        assert len(curves) == 9
        assert "fitness_sigma0.30.csv" in files
        assert "estimation_sigma0.90.txt" in files
        assert "curves_sigma0.60_f0.50.csv" in files
        # curve files carry 6 series: 3 momentum values + 3 LMS rows
        header = files["curves_sigma0.30_f0.25.csv"].split("\n")[0]
        assert len(header.split(",")) == 7

    def test_each_checkpoint_value_is_formatted_once(self, tmp_path, monkeypatch):
        # A paired-LMS value shows in the fitness CSV, three curves files
        # and aggregates.csv, but is formatted once per write.
        rng = np.random.default_rng(11)
        entries = fake_block(0.30, rng) + fake_block(0.60, rng)
        calls = collections.Counter()

        def counting_repr(value):
            calls[value] += 1
            return builtins.repr(value)

        monkeypatch.setattr(reporting, "repr", counting_repr, raising=False)
        paths = write_grid_outputs(entries, tmp_path)
        values = [v for e in entries for v in e.aggregate.mean_nwd_at_checkpoints.tolist()]
        assert len(set(values)) == len(values) == 240
        assert [calls[v] for v in values] == [1] * len(values)
        assert [p.name for p in paths] == [*grid_names(["0.30", "0.60"]), "aggregates.csv"]

    @pytest.mark.parametrize("n_ck, n_params", [(5, 8), (10, 7)])
    def test_dump_rows_share_the_first_entrys_columns(self, tmp_path, n_ck, n_params):
        # Every row of aggregates.csv is written under the first entry's
        # header; a row with another checkpoint grid or parameter count is
        # rejected before the dump's first line, not written unreadable.
        rng = np.random.default_rng(14)
        other = fake_entry(0.60, Variant.LMS, 0.2, None, 0.027, rng, n_ck=n_ck)
        other = replace(other, aggregate=replace(
            other.aggregate, mean_final_theta_aphi=other.aggregate.mean_final_theta_aphi[:n_params]))
        entries = [fake_entry(0.30, Variant.LMS, 0.2, None, 0.027, rng), other]
        match = r"^LMS\(eta=0\.027\) at noise level 0\.60: checkpoint grid or parameter count differs"
        with pytest.raises(ValueError, match=match):
            write_aggregates_csv(entries)
        with pytest.raises(ValueError):  # the estimation table rejects a parameter count first
            write_grid_outputs(entries, tmp_path)
        assert not (tmp_path / "aggregates.csv").exists()

    def test_files_are_written_as_they_are_rendered(self, tmp_path):
        # A noise level that fails to render leaves the levels before it
        # written.
        rng = np.random.default_rng(12)
        entries = fake_block(0.30, rng) + fake_block(0.60, rng)
        bad = entries[-1]
        entries[-1] = replace(bad, aggregate=replace(
            bad.aggregate, mean_nwd_at_checkpoints=bad.aggregate.mean_nwd_at_checkpoints[:-1]))
        with pytest.raises(ValueError, match="checkpoint grids differ"):
            write_grid_outputs(entries, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(grid_names(["0.30"]))

    def test_files_are_streamed(self, tmp_path):
        # Three 1000-checkpoint noise levels: besides each series' formatted
        # text, the writer holds one file's pieces at a time, never a whole
        # file, the joined aggregates dump or a table of Python floats.
        # Measured with numpy 2.4.6: a 1.62 MiB peak, against 3.31 MiB
        # when each file was built whole before it was written.
        rng = np.random.default_rng(13)
        entries = [e for sigma in (0.30, 0.60, 0.90) for e in fake_block(sigma, rng, n_ck=1000)]
        tracemalloc.start()
        try:
            paths = write_grid_outputs(entries, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(p.stat().st_size for p in paths) > 2.5e6
        assert peak < 2.5e6


class TestReportTableValidation:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ReportTable(title="t", column_headers=["a", "b"], rows=[("r", [1.0])])
