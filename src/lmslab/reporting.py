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

One column table declares ``aggregates.csv`` for its header, writer and
reader.  The reader rejects a non-finite or malformed number and a row
whose cell count, header or ``f`` (empty on LMS rows only) does not fit
it, naming the line (blank lines counted) and the column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .experiment import AggregateResult, GridEntry, ScenarioConfig, order_label
from .filters import Variant
from .metrics import MetricSpace
from .signal_model import THETA_APHI

__all__ = [
    "ReportTable",
    "fitness_table",
    "estimation_table",
    "render_table_text",
    "write_grid_outputs",
    "write_aggregates_csv",
    "read_aggregates_csv",
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


def _block_order(entries: list[GridEntry]) -> tuple[list[GridEntry], list[int]]:
    """One noise level's entries, in order, and the indices of their LMS rows, which the tables highlight."""
    if not entries:
        raise ValueError("no scenarios supplied")
    sigmas = {e.sigma_label for e in entries}
    if len(sigmas) != 1:
        raise ValueError(f"entries span several noise levels: {sorted(sigmas)}")
    return list(entries), [i for i, e in enumerate(entries) if e.variant is Variant.LMS]


def fitness_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """Mean NWD per checkpoint for one noise level (12 rows x checkpoints)."""
    table = _fitness_table(sigma_label, entries)
    table.rows = [(label, _floats(values)) for label, values in table.rows]
    return table


def _fitness_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """:func:`fitness_table` with each row's values the entry's own array."""
    entries, highlight = _block_order(entries)
    checkpoints = entries[0].scenario.checkpoints
    rows = []
    for entry in entries:
        mean_nwd = entry.aggregate.mean_nwd_at_checkpoints
        if len(mean_nwd) != len(checkpoints):
            raise ValueError("checkpoint grids differ between scenarios")
        rows.append((entry.label, mean_nwd))
    return ReportTable(
        title=f"Mean NWD at checkpoints, noise level {sigma_label}",
        column_headers=[str(int(c)) for c in checkpoints],
        rows=rows,
        highlight_rows=highlight,
    )


def estimation_table(sigma_label: str, entries: list[GridEntry]) -> ReportTable:
    """Run-averaged final parameters plus MSE for one noise level."""
    entries, highlight = _block_order(entries)
    n_params = len(THETA_APHI)
    rows = []
    for entry in entries:
        agg = entry.aggregate
        rows.append((entry.label, _floats(agg.mean_final_theta_aphi) + [agg.mse_of_mean]))
    rows.append(("True values", [float(v) for v in THETA_APHI] + [0.0]))
    return ReportTable(
        title=f"Final parameter means and MSE, noise level {sigma_label}",
        column_headers=[f"theta_{i + 1}" for i in range(n_params)] + ["MSE"],
        rows=rows,
        highlight_rows=highlight,
        column_formats=[".4f"] * n_params + [".2E"],
    )


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=np.float64).tolist()


def _reprs(values) -> list[str]:
    """Full-precision text of each value (``repr`` round-trip exact)."""
    return list(map(repr, _floats(values)))


def _curves_lines(labels: list[str], checkpoints: list[str], columns: list[list[str]]):
    """Lines of a curves file: the iteration column ``checkpoints``, then one column of text per series."""
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

def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# Text form and parser of a real aggregates cell.
_REAL = (lambda x: repr(float(x)), _real)

# The fixed columns of aggregates.csv, in order: name, the part of the entry it is
# read from, text form and parser.  The final parameter means (theta_1, ...) and
# the checkpoint means (nwd_<iteration>, ...) follow them.
_AGG_COLUMNS = [
    ("sigma_label", "entry", str, str),
    ("variant", "entry", lambda v: v.value, Variant),
    ("alpha", "scenario", *_REAL),
    ("f", "entry", lambda f: "" if f is None else repr(float(f)), lambda text: _real(text) if text else None),
    ("step_size", "entry", *_REAL),
    ("lms_eta", "scenario", *_REAL),
    ("noise_std", "scenario", *_REAL),
    ("n_runs", "scenario", str, int),
    ("n_iters", "scenario", str, int),
    ("checkpoint_interval", "scenario", str, int),
    ("base_seed", "scenario", str, int),
    ("metric_space", "scenario", lambda m: m.value, MetricSpace),
    ("divergence_count", "aggregate", str, int),
    ("mse_of_mean", "aggregate", *_REAL),
    ("mean_per_run_mse", "aggregate", *_REAL),
]


def write_aggregates_csv(entries: list[GridEntry]) -> str:
    """Serialize grid entries to the machine-readable aggregates dump."""
    return "".join(_aggregates(entries, (",".join(_reprs(e.aggregate.mean_nwd_at_checkpoints)) for e in entries)))


def _aggregates(entries: list[GridEntry], nwd):
    """Lines of the aggregates dump of ``entries``, whose checkpoint values ``nwd`` holds as comma-joined text."""
    if not entries:
        raise ValueError("no entries to serialize")
    # Every row is written under the first entry's header.  A checkpoint grid
    # is fixed by n_iters and checkpoint_interval, so those are compared: an
    # entry's checkpoints array, built for the comparison, raised the peak RSS.
    first = entries[0]
    for e in entries[1:]:
        if (len(e.aggregate.mean_final_theta_aphi) != len(first.aggregate.mean_final_theta_aphi)
                or (e.scenario.n_iters, e.scenario.checkpoint_interval)
                != (first.scenario.n_iters, first.scenario.checkpoint_interval)):
            raise ValueError(f"{e.label} at noise level {e.sigma_label}: checkpoint grid or parameter count "
                             "differs from the first entry's")
    return itertools.chain([",".join(_aggregates_header(first)) + "\n"], map(_aggregates_row, entries, nwd))


def _aggregates_header(e: GridEntry) -> list[str]:
    """The column names of an aggregates dump whose first row is ``e``'s."""
    n_params = len(e.aggregate.mean_final_theta_aphi)
    return ([name for name, *_ in _AGG_COLUMNS] + [f"theta_{i + 1}" for i in range(n_params)]
            + [f"nwd_{c}" for c in e.scenario.checkpoints.tolist()])


def _aggregates_row(e: GridEntry, nwd: str) -> str:
    """One entry's aggregates line; ``nwd`` is its checkpoint values as comma-joined text."""
    parts = {"entry": e, "scenario": e.scenario, "aggregate": e.aggregate}
    cells = [text(getattr(parts[part], name)) for name, part, text, _ in _AGG_COLUMNS]
    return ",".join(cells + _reprs(e.aggregate.mean_final_theta_aphi) + [nwd]) + "\n"


def read_aggregates_csv(text: str) -> list[GridEntry]:
    """Parse an aggregates dump back into grid entries (exact values).

    A ``ValueError`` names the line and column of what it rejects (see the module docstring).
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line]
    if len(lines) < 2:
        raise ValueError("aggregates file has no data rows")
    header = lines[0][1].split(",")
    if header[:len(_AGG_COLUMNS)] != [name for name, *_ in _AGG_COLUMNS]:
        raise ValueError(f"line {lines[0][0]}: unrecognized aggregates header")
    parsers = [parse for *_, parse in _AGG_COLUMNS] + [_real] * (len(header) - len(_AGG_COLUMNS))
    n_theta = sum(h.startswith("theta_") for h in header)
    entries = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: {len(cells)} cells, but the header has {len(header)}")
        values = []
        for name, parse, cell in zip(header, parsers, cells):
            try:
                values.append(parse(cell))
            except ValueError as exc:
                raise ValueError(f"line {lineno}, column {name}: {exc}") from None
        parts = {part: {name: v for (name, p, *_), v in zip(_AGG_COLUMNS, values) if p == part}
                 for part in ("entry", "scenario", "aggregate")}
        row, (theta, nwd) = parts["entry"], np.split(np.array(values[len(_AGG_COLUMNS):]), [n_theta])
        f = row.pop("f")
        if (f is None) != (row["variant"] is Variant.LMS):
            raise ValueError(f"line {lineno}, column f: only an LMS row leaves it empty")
        try:  # an LMS row's scenario takes a placeholder order
            scenario = ScenarioConfig(f=0.5 if f is None else f, **parts["scenario"])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        aggregate = AggregateResult(mean_nwd_at_checkpoints=nwd, mean_final_theta_aphi=theta, **parts["aggregate"])
        entry = GridEntry(**row, scenario=scenario, aggregate=aggregate)
        want = _aggregates_header(entry)
        if header != want:
            got, need = next(pair for pair in itertools.zip_longest(header, want) if pair[0] != pair[1])
            raise ValueError(f"line {lineno}, column {got or need}: the header does not match this row")
        entries.append(entry)
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
        yield f"estimation_sigma{sig}.csv", _csv_lines(etab.column_headers,
                                                      ((label, ",".join(_reprs(v))) for label, v in etab.rows))
        yield f"estimation_sigma{sig}.txt", _table_text(etab)
        lms_rows = ftab.highlight_rows
        for f in dict.fromkeys(e.f for e in block if e.f is not None):
            series = [j for j, e in enumerate(block) if e.f == f and e.variant is not Variant.LMS] + lms_rows
            yield (f"curves_sigma{sig}_f{order_label(f)}.csv",
                   _curves_lines([block[j].label for j in series], ftab.column_headers,
                                 [texts[j].split(",") for j in series]))
    if include_aggregates:
        yield "aggregates.csv", _aggregates(entries, nwd)


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
