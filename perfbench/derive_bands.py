"""Derive the correctness bands in ``bands.json`` from runs at several seeds.

    python3 perfbench/derive_bands.py

Runs every workload once per seed in ``SEEDS``, two at a time, reads
the quantities listed in :func:`quantities` from every aggregates row,
and writes for each a band ``median +- max(K * stdev, FLOOR * median)``
over the seeds.  Bands hold for any seed: a value outside one is a
change in what the program computes, not seed noise.
"""

from __future__ import annotations

import json
import shutil
import statistics
from concurrent.futures import ThreadPoolExecutor

import checks
from run import HERE, STATE, collect_outputs, run_worker
from workloads import WORKLOADS

K = 6
FLOOR = 0.01
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 42, 1000)
JOBS = 2


def quantities(workload_name: str, row: dict) -> list[str]:
    """Names (keys of ``checks.QUANTITIES``) banded for one aggregates row.

    Every row bands its mean NWD over all checkpoints; grid-default
    also bands the calibrated ``mu1`` of momentum-fractional rows and
    the final NWD of LMS rows.
    """
    if workload_name != "grid-default":
        return ["mean_nwd"]
    return ["final_nwd" if row["variant"] == "lms" else "mu1", "mean_nwd"]


def rows_at(workload, seed: int) -> list[dict]:
    work = STATE / "derive" / f"{workload.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "config.txt"
        config.write_text(workload.config_text(seed))
        rep = run_worker(workload, config, work, "rep", [])
        if any(rep["return_codes"]):
            raise RuntimeError(f"{workload.name} seed {seed}: lmslab exited {rep['return_codes']}")
        rows, _, _ = collect_outputs(workload, work / "rep")
        return rows
    finally:
        shutil.rmtree(work, ignore_errors=True)


def band(values: list[float]) -> list[float]:
    center = statistics.median(values)
    half = max(K * statistics.stdev(values), FLOOR * abs(center))
    return [center - half, center + half]


def main() -> int:
    out = {"rule": f"median +- max({K} * stdev, {FLOOR} * median) over seeds", "seeds": list(SEEDS)}
    raw = {}
    for workload in WORKLOADS.values():
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            per_seed = list(pool.map(lambda s: rows_at(workload, s), SEEDS))
        samples: dict[str, dict[str, list[float]]] = {}
        for rows in per_seed:
            for row in rows:
                for quantity in quantities(workload.name, row):
                    value = checks.QUANTITIES[quantity](row)
                    samples.setdefault(quantity, {}).setdefault(checks.scenario_key(row), []).append(value)
        out[workload.name] = {
            q: {key: band(vals) for key, vals in by_key.items()} for q, by_key in samples.items()
        }
        raw[workload.name] = samples
    (HERE / "bands.json").write_text(json.dumps(out, indent=1) + "\n")
    (STATE / "bands_samples.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
