"""Correctness checks on the outputs of one workload repetition.

Every check is per scenario (one ``aggregates.csv`` row); a scenario
that fails any of them counts toward ``failed``.  The checks read only
what the program wrote (the aggregates files), what it logged and the
calibration fitness curves the worker recorded, so they need neither
numpy nor ``lmslab``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re

from workloads import CALIBRATION_TOLERANCE

# The mFLMS_CORRECTED and mFLMS_ASSEMBLED recursions coincide when
# muf = mu1 * Gamma(2 - f); their ensemble means agree to rounding.
# MSE columns are differences of near-equal numbers, so they get more room.
SAME_RECURSION_RTOL = 1e-12
SAME_RECURSION_MSE_RTOL = 1e-9

# Logger name under which the worker records each calibration fitness
# curve; the message is ``{"mu1": ..., "curve": [...]}``.
CURVE_LOG = "perfbench.calibration_curve"

_SCENARIO_LOG = re.compile(r"^scenario sigma=(\S+) alpha=(\S+) (lms|f=\S+) step=")


def parse_aggregates(text: str) -> list[dict]:
    """Rows of an ``aggregates.csv`` dump as ``{column: cell}`` dicts.

    ``_line`` keeps the header and the row's raw text, so a row digest
    changes with any byte of either.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        row["_line"] = lines[0] + "\n" + line
        rows.append(row)
    return rows


def _key(variant: str, sigma: str, alpha: float, f: float | None) -> str:
    return f"{variant} sigma={sigma} alpha={alpha:g} f={'-' if f is None else format(f, 'g')}"


def scenario_key(row: dict) -> str:
    f = float(row["f"]) if row.get("f") else None
    return _key(row["variant"], row["sigma_label"], float(row["alpha"]), f)


def _log_key(message: str) -> str | None:
    """Scenario key of a grid's per-scenario INFO line, or None."""
    m = _SCENARIO_LOG.match(message)
    if not m:
        return None
    sigma, alpha, kind = m.groups()
    if kind == "lms":
        return _key("lms", sigma, float(alpha), None)
    return _key("mflms", sigma, float(alpha), float(kind[2:]))


def final_nwd(row: dict) -> float:
    last = max((c for c in row if c.startswith("nwd_")), key=lambda c: int(c[4:]))
    return float(row[last])


def mean_nwd(row: dict) -> float:
    """Mean NWD over every checkpoint, so that each checkpoint counts."""
    values = [float(cell) for col, cell in row.items() if col.startswith("nwd_")]
    return sum(values) / len(values)


# Banded quantities: name -> how to read it from an aggregates row.
QUANTITIES = {
    "mu1": lambda r: float(r["step_size"]),
    "final_nwd": final_nwd,
    "mean_nwd": mean_nwd,
}


def _numeric_cells(row: dict):
    for col, cell in row.items():
        if col in ("sigma_label", "variant", "metric_space", "_line") or cell == "":
            continue
        yield col, cell


def row_digests(rows: list[dict]) -> dict[str, str]:
    return {scenario_key(r): hashlib.sha256(r["_line"].encode()).hexdigest() for r in rows}


def check_values(rows: list[dict]) -> dict[str, list[str]]:
    """Divergence and non-finite values."""
    failures: dict[str, list[str]] = {}
    for row in rows:
        key = scenario_key(row)
        if int(row["divergence_count"]) > 0:
            failures.setdefault(key, []).append(f"divergence_count={row['divergence_count']}")
        for col, cell in _numeric_cells(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                failures.setdefault(key, []).append(f"{col}={cell}")
    return failures


def check_fallback(logs: list, keys: list[str]) -> dict[str, list[str]]:
    """Calibrations that fell back to the closest bracket point.

    ``logs`` holds ``(logger, level, message)`` in emission order.  The
    engine warns during a scenario's calibration and then logs that
    scenario's INFO line, so a warning belongs to the next scenario
    line.  A warning no scenario line follows fails every scenario.
    """
    failures: dict[str, list[str]] = {}
    pending: list[str] = []
    for name, level, message in logs:
        if name == "lmslab.experiment" and level >= logging.WARNING:
            pending.append(message)
            continue
        key = _log_key(message) if name == "lmslab.experiment" else None
        if key is not None and pending:
            failures.setdefault(key, []).extend(f"warning: {m}" for m in pending)
            pending = []
    if pending:
        for key in keys:
            failures.setdefault(key, []).extend(f"warning: {m}" for m in pending)
    return failures


def check_calibration(logs: list, rows: list[dict]) -> dict[str, list[str]]:
    """Calibrated ``mu1`` whose own probe missed the LMS target.

    ``calibrate_mu1`` first evaluates the paired LMS reference (its
    whole curve), then one probe per candidate ``mu1``, each curve
    ending at the target checkpoint.  The ``mu1`` it returns, written as
    ``step_size``, must be one it probed, and that probe's fitness must
    lie within the calibration tolerance of the target; a bisection
    that misses falls back to its last midpoint without logging a
    warning, so only this check sees it.  Curves are attributed to the
    next scenario line, as in :func:`check_fallback`.
    """
    by_key = {scenario_key(r): r for r in rows}
    failures: dict[str, list[str]] = {}
    pending: list[dict] = []
    for name, _, message in logs:
        if name == CURVE_LOG:
            pending.append(message)
            continue
        key = _log_key(message) if name == "lmslab.experiment" else None
        if key is None or not pending:
            continue
        reference, *probes = pending
        pending = []
        row = by_key.get(key)
        if row is None:
            continue  # a missing row is counted by check_rep
        step = float(row["step_size"])
        matched = [p for p in probes if p["mu1"] == step]
        if not matched:
            failures.setdefault(key, []).append(f"calibrated mu1={step!r} was never probed")
            continue
        curve = matched[-1]["curve"]
        target, reached = reference["curve"][len(curve) - 1], curve[-1]
        if not abs(reached - target) <= CALIBRATION_TOLERANCE * target:
            failures.setdefault(key, []).append(
                f"calibration fitness {reached!r} at mu1={step!r} misses the LMS target "
                f"{target!r} by more than {CALIBRATION_TOLERANCE:g} relative"
            )
    if pending:
        for key in by_key:
            failures.setdefault(key, []).append("calibration curves that no scenario line follows")
    return failures


def check_bands(rows: list[dict], bands: dict) -> dict[str, list[str]]:
    """Calibrated ``mu1`` and NWD summaries inside their seed-derived bands."""
    by_key = {scenario_key(r): r for r in rows}
    failures: dict[str, list[str]] = {}
    for quantity, read in QUANTITIES.items():
        for key, (lo, hi) in bands.get(quantity, {}).items():
            row = by_key.get(key)
            if row is None:
                continue  # a missing row is counted by check_rep
            value = read(row)
            if not lo <= value <= hi:
                failures.setdefault(key, []).append(f"{quantity}={value!r} outside [{lo!r}, {hi!r}]")
    return failures


def check_same_recursion(rows: list[dict]) -> dict[str, list[str]]:
    """mFLMS_CORRECTED equals mFLMS_ASSEMBLED at the same scenario."""
    failures: dict[str, list[str]] = {}
    by_key = {scenario_key(r): r for r in rows}
    for key, corrected in by_key.items():
        if not key.startswith("mflms_corrected "):
            continue
        assembled = by_key.get("mflms " + key.split(" ", 1)[1])
        if assembled is None:
            continue
        for col, cell in _numeric_cells(corrected):
            if not (col.startswith(("theta_", "nwd_")) or col.startswith("mse")):
                continue
            rtol = SAME_RECURSION_MSE_RTOL if col.startswith("mse") else SAME_RECURSION_RTOL
            a, b = float(cell), float(assembled[col])
            if not math.isclose(a, b, rel_tol=rtol, abs_tol=0.0):
                failures.setdefault(key, []).append(f"{col}: corrected {a!r} vs assembled {b!r}")
    return failures


def check_determinism(digests: dict[str, str], reference: dict[str, str] | None) -> dict[str, list[str]]:
    """Rows whose bytes differ from an earlier repetition at the same seed."""
    if reference is None:
        return {}
    return {
        key: ["aggregates row differs from an earlier repetition at this seed"]
        for key, digest in digests.items()
        if reference.get(key, digest) != digest
    }


def check_rep(rows, logs, expected: int, bands: dict, reference) -> tuple[int, dict[str, list[str]]]:
    """Failed scenario count and reasons for one repetition.

    Missing rows (fewer than ``expected``, e.g. because a call failed)
    count as failed scenarios.
    """
    keys = [scenario_key(r) for r in rows]
    failures: dict[str, list[str]] = {}
    for part in (
        check_values(rows),
        check_fallback(logs, keys),
        check_calibration(logs, rows),
        check_bands(rows, bands),
        check_same_recursion(rows),
        check_determinism(row_digests(rows), reference),
    ):
        for key, reasons in part.items():
            failures.setdefault(key, []).extend(reasons)
    missing = max(0, expected - len(set(keys)))
    if missing:
        failures["missing"] = [f"{missing} of {expected} scenarios wrote no aggregates row"]
    failed = len([k for k in failures if k != "missing"]) + missing
    return min(failed, expected), failures
