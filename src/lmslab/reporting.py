"""Render benchmark aggregates into tables and learning-curve data files.

Two table kinds per noise level mirror the benchmark's presentation:

* fitness tables -- mean NWD at each checkpoint, one row per algorithm
  configuration (three fractional orders then the paired LMS, per
  momentum block);
* estimation tables -- the run-averaged final parameters, their MSE
  against the truth, and a trailing "True values" row.

Each table is written twice: a machine-readable CSV with full-precision
values (``repr`` round-trip exact) and an aligned plain-text rendering
with display rounding (half-even, four decimals; MSE in scientific
notation).  Learning-curve files are plain CSV columns suitable for any
external plotting tool.  All writers are deterministic byte for byte
given identical aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .experiment import AggregateResult, GridEntry, ScenarioConfig
from .filters import Variant
from .metrics import MetricSpace
from .signal_model import benchmark_spec

__all__ = [
    "ReportTable",
    "fitness_table",
    "estimation_table",
    "learning_curves",
    "render_table_csv",
    "render_table_text",
    "parse_table_csv",
    "write_grid_outputs",
    "write_aggregates_csv",
    "read_aggregates_csv",
    "grid_file_names",
]


@dataclass
class ReportTable:
    """A column-ordered numeric table with row labels."""

    title: str
    column_headers: list[str]
    rows: list[tuple[str, list[float]]]
    highlight_rows: list[int] = field(default_factory=list)
    column_formats: list[str] | None = None

    def __post_init__(self):
        for label, values in self.rows:
            if len(values) != len(self.column_headers):
                raise ValueError(f"row {label!r} has {len(values)} values, "
                                 f"expected {len(self.column_headers)}")


def _block_order(entries: list[GridEntry]) -> list[GridEntry]:
    if not entries:
        raise ValueError("no scenarios supplied")
    sigmas = {e.sigma_label for e in entries}
    if len(sigmas) != 1:
        raise ValueError(f"entries span several noise levels: {sorted(sigmas)}")
    return list(entries)


def fitness_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """Mean NWD per checkpoint for one noise level (12 rows x checkpoints)."""
    table = _fitness_table(sigma_label, entries)
    table.rows = [(label, _floats(values)) for label, values in table.rows]
    return table


def _fitness_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """:func:`fitness_table` with each row's values the entry's own array."""
    entries = _block_order(entries)
    checkpoints = entries[0].scenario.checkpoints
    rows = []
    highlight = []
    for i, entry in enumerate(entries):
        mean_nwd = entry.aggregate.mean_nwd_at_checkpoints
        if len(mean_nwd) != len(checkpoints):
            raise ValueError("checkpoint grids differ between scenarios")
        if entry.variant is Variant.LMS:
            highlight.append(i)
        rows.append((entry.label, mean_nwd))
    return ReportTable(
        title=f"Mean NWD at checkpoints, noise level {sigma_label}",
        column_headers=[str(int(c)) for c in checkpoints],
        rows=rows,
        highlight_rows=highlight,
    )


def estimation_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """Run-averaged final parameters plus MSE for one noise level."""
    entries = _block_order(entries)
    _, truth = benchmark_spec()
    n_params = len(truth.theta_aphi)
    rows = []
    highlight = []
    for i, entry in enumerate(entries):
        agg = entry.aggregate
        values = _floats(agg.mean_final_theta_aphi) + [agg.mse_of_mean]
        if entry.variant is Variant.LMS:
            highlight.append(i)
        rows.append((entry.label, values))
    rows.append(("True values", [float(v) for v in truth.theta_aphi] + [0.0]))
    return ReportTable(
        title=f"Final parameter means and MSE, noise level {sigma_label}",
        column_headers=[f"theta_{i + 1}" for i in range(n_params)] + ["MSE"],
        rows=rows,
        highlight_rows=highlight,
        column_formats=[".4f"] * n_params + [".2E"],
    )


def learning_curves(entries: list[GridEntry]) -> str:
    """Columnar checkpoint curves: one iteration column, one column per series."""
    return "".join(_curves(entries, [_reprs(e.aggregate.mean_nwd_at_checkpoints) for e in entries]))


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=np.float64).tolist()


def _reprs(values) -> list[str]:
    """Full-precision text of each value (``repr`` round-trip exact)."""
    return list(map(repr, _floats(values)))


def _curves(entries: list[GridEntry], columns: list[list[str]]):
    """Lines of the curves file of ``entries``, whose checkpoint values ``columns`` holds as text.

    The grids are checked here, before the first line is made.
    """
    if not entries:
        raise ValueError("no series supplied")
    checkpoints = entries[0].scenario.checkpoints.tolist()
    if any(len(c) != len(checkpoints) for c in columns):
        raise ValueError("checkpoint grids differ between series")
    return _curves_lines([e.label for e in entries], checkpoints, columns)


def _curves_lines(labels: list[str], checkpoints: list[int], columns: list[list[str]]):
    """Lines of a curves file; see :func:`_curves`."""
    yield "iteration," + ",".join(labels) + "\n"
    rows = zip(checkpoints, zip(*columns))
    # A block of lines a piece: a write per line would cost more than its line.
    while block := list(itertools.islice(rows, 128)):
        yield "".join([f"{it}," + ",".join(row) + "\n" for it, row in block])


def _csv_lines(headers: list[str], rows):
    """Lines of a table CSV of ``(label, values as comma-joined text)`` rows."""
    yield "label," + ",".join(headers) + "\n"
    for label, cells in rows:
        yield label + "," + cells + "\n"


def _table_csv(table: ReportTable):
    return _csv_lines(table.column_headers, ((label, ",".join(_reprs(values))) for label, values in table.rows))


def render_table_csv(table: ReportTable) -> str:
    """Machine-readable table: full-precision values, one header line."""
    return "".join(_table_csv(table))


def parse_table_csv(text: str) -> ReportTable:
    """Inverse of :func:`render_table_csv` (labels must be comma-free)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty table")
    headers = lines[0].split(",")[1:]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((cells[0], [float(c) for c in cells[1:]]))
    return ReportTable(title="", column_headers=headers, rows=rows)


def render_table_text(table: ReportTable) -> str:
    """Aligned human-readable table with display rounding.

    Rounding is decimal half-even via :func:`format` and never feeds
    back into any computation.
    """
    return "".join(_table_text(table))


def _table_text(table: ReportTable):
    """Lines of :func:`render_table_text`; a row's values may be an array."""
    formats = table.column_formats or [".4f"] * len(table.column_headers)
    header_cells = ["method"] + list(table.column_headers)
    body = [
        [("* " if i in table.highlight_rows else "  ") + label, *map(format, _floats(values), formats)]
        for i, (label, values) in enumerate(table.rows)
    ]
    widths = [max(map(len, column)) for column in zip(header_cells, *body)]
    yield table.title + "\n"
    yield "  ".join(h.ljust(w) for h, w in zip(header_cells, widths)).rstrip() + "\n"
    for cells in body:
        yield "  ".join([cells[0].ljust(widths[0]), *map(str.rjust, cells[1:], widths[1:])]).rstrip() + "\n"
    if table.highlight_rows:
        yield "(* reference LMS rows)\n"


# --- grid output files -------------------------------------------------

_AGG_FIXED_COLUMNS = [
    "sigma_label", "variant", "alpha", "f", "step_size", "lms_eta",
    "noise_std", "n_runs", "n_iters", "checkpoint_interval", "base_seed",
    "metric_space", "divergence_count", "mse_of_mean", "mean_per_run_mse",
]


def write_aggregates_csv(entries: list[GridEntry]) -> str:
    """Serialize grid entries to the machine-readable aggregates dump."""
    return "".join(_aggregates(entries, (",".join(_reprs(e.aggregate.mean_nwd_at_checkpoints)) for e in entries)))


def _aggregates(entries: list[GridEntry], nwd):
    """Lines of the aggregates dump of ``entries``, whose checkpoint values ``nwd`` holds as comma-joined text."""
    return itertools.chain([_aggregates_header(entries)], map(_aggregates_row, entries, nwd))


def _aggregates_header(entries: list[GridEntry]) -> str:
    if not entries:
        raise ValueError("no entries to serialize")
    checkpoints = entries[0].scenario.checkpoints
    n_params = len(entries[0].aggregate.mean_final_theta_aphi)
    header = (
        _AGG_FIXED_COLUMNS
        + [f"theta_{i + 1}" for i in range(n_params)]
        + [f"nwd_{int(c)}" for c in checkpoints]
    )
    return ",".join(header) + "\n"


def _aggregates_row(e: GridEntry, nwd: str) -> str:
    """One entry's aggregates line; ``nwd`` is its checkpoint values as comma-joined text."""
    s = e.scenario
    cells = [
        e.sigma_label,
        e.variant.value,
        repr(float(e.alpha)),
        "" if e.f is None else repr(float(e.f)),
        repr(float(e.step_size)),
        repr(float(s.lms_eta)),
        repr(float(s.noise_std)),
        str(s.n_runs),
        str(s.n_iters),
        str(s.checkpoint_interval),
        str(s.base_seed),
        s.metric_space.value,
        str(e.aggregate.divergence_count),
        repr(float(e.aggregate.mse_of_mean)),
        repr(float(e.aggregate.mean_per_run_mse)),
    ]
    return ",".join(cells + _reprs(e.aggregate.mean_final_theta_aphi) + [nwd]) + "\n"


def read_aggregates_csv(text: str) -> list[GridEntry]:
    """Parse an aggregates dump back into grid entries (exact values)."""
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) < 2:
        raise ValueError("aggregates file has no data rows")
    header = lines[0].split(",")
    n_fixed = len(_AGG_FIXED_COLUMNS)
    if header[:n_fixed] != _AGG_FIXED_COLUMNS:
        raise ValueError("unrecognized aggregates header")
    theta_cols = [h for h in header[n_fixed:] if h.startswith("theta_")]
    nwd_cols = [h for h in header[n_fixed:] if h.startswith("nwd_")]
    entries = []
    for line in lines[1:]:
        cells = line.split(",")
        fixed = dict(zip(_AGG_FIXED_COLUMNS, cells[:n_fixed]))
        blob = cells[n_fixed:]
        theta = np.array([float(v) for v in blob[: len(theta_cols)]])
        nwd_vals = np.array([float(v) for v in blob[len(theta_cols):]])
        scenario = ScenarioConfig(
            noise_std=float(fixed["noise_std"]),
            alpha=float(fixed["alpha"]),
            f=float(fixed["f"]) if fixed["f"] else 0.5,
            lms_eta=float(fixed["lms_eta"]),
            n_runs=int(fixed["n_runs"]),
            n_iters=int(fixed["n_iters"]),
            checkpoint_interval=int(fixed["checkpoint_interval"]),
            base_seed=int(fixed["base_seed"]),
            metric_space=MetricSpace(fixed["metric_space"]),
        )
        aggregate = AggregateResult(
            mean_nwd_at_checkpoints=nwd_vals,
            mean_final_theta_aphi=theta,
            mse_of_mean=float(fixed["mse_of_mean"]),
            mean_per_run_mse=float(fixed["mean_per_run_mse"]),
            divergence_count=int(fixed["divergence_count"]),
        )
        entries.append(GridEntry(
            sigma_label=fixed["sigma_label"],
            variant=Variant(fixed["variant"]),
            alpha=float(fixed["alpha"]),
            f=float(fixed["f"]) if fixed["f"] else None,
            step_size=float(fixed["step_size"]),
            scenario=scenario,
            aggregate=aggregate,
        ))
    return entries


def _grid_files(entries: list[GridEntry], include_aggregates: bool = False):
    """Yield ``(name, pieces)`` of every grid output file, in write order.

    Per noise level: ``fitness_sigma<s>.csv``/``.txt`` and
    ``estimation_sigma<s>.csv``/``.txt``; per (noise level, fractional
    order): ``curves_sigma<s>_f<f>.csv`` with the three momentum series
    of that order plus every paired LMS series.  Last, with
    ``include_aggregates``, ``aggregates.csv``.  ``pieces`` is an
    iterable of the file's text, made as it is read; everything a file
    needs is checked before it is yielded, so reading its pieces cannot
    fail.  Each checkpoint value is formatted once, when its noise level
    is rendered, into one comma-joined string per series, which the
    fitness CSV, the curves files and the aggregates line reuse; only
    these strings outlive their noise level.
    """
    nwd = [""] * len(entries)
    for sig in dict.fromkeys(e.sigma_label for e in entries):
        indices = [i for i, e in enumerate(entries) if e.sigma_label == sig]
        block = [entries[i] for i in indices]
        ftab = _fitness_table(sig, block)
        etab = estimation_table(sig, block)
        texts = [",".join(_reprs(values)) for _, values in ftab.rows]
        for i, text in zip(indices, texts):
            nwd[i] = text
        yield f"fitness_sigma{sig}.csv", _csv_lines(ftab.column_headers, zip((e.label for e in block), texts))
        yield f"fitness_sigma{sig}.txt", _table_text(ftab)
        yield f"estimation_sigma{sig}.csv", _table_csv(etab)
        yield f"estimation_sigma{sig}.txt", _table_text(etab)
        lms_rows = [j for j, e in enumerate(block) if e.variant is Variant.LMS]
        for f in dict.fromkeys(e.f for e in block if e.f is not None):
            series = [j for j, e in enumerate(block) if e.f == f and e.variant is not Variant.LMS] + lms_rows
            yield (f"curves_sigma{sig}_f{f:.2f}.csv",
                   _curves([block[j] for j in series], [texts[j].split(",") for j in series]))
    if include_aggregates:
        yield "aggregates.csv", _aggregates(entries, nwd)


def grid_file_names(entries: list[GridEntry]) -> dict[str, str]:
    """Map of output file name to content for a set of grid entries, ``aggregates.csv`` aside.

    Per noise level the fitness and estimation tables (``.csv`` and
    ``.txt``) and one curves file per fractional order; see
    :func:`_grid_files`.
    """
    return {name: "".join(pieces) for name, pieces in _grid_files(entries)}


def write_grid_outputs(entries: list[GridEntry], out_dir, include_aggregates: bool = True) -> list[Path]:
    """Write tables and curves (plus the aggregates dump); returns written paths.

    Each file is streamed to disk as it is rendered, and opened only
    once everything it needs is checked, so an entry that fails to
    render leaves the files before it written and no partial file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, pieces in _grid_files(entries, include_aggregates):
        path = out / name
        with path.open("w") as fh:
            fh.writelines(pieces)
        written.append(path)
    return written
