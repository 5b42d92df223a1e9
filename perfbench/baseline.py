"""Reproduce the ROADMAP baseline table with the harness.

    python3 perfbench/baseline.py

Runs grid-default untraced and traced and variants traced (about 3
minutes), then prints a Markdown table of the harness's figures next to
the ROADMAP's hand-measured ones.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, STATE
from workloads import VARIANTS

SEED = 42

# The ROADMAP baseline figures, by measure.
ROADMAP = {
    "grid": "24.3 s",
    "ensemble": "LMS 0.30 s, mFLMS 0.36 s",
    "ns": "about 310 ns per run-step",  # whole ensemble / run-steps
    "streams": "about 70 us per run, about 20% of an ensemble",
    "calibrate": "28 simulations, 0.66 s, 42% of it in stream setup",
}


def harness(workload: str, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "30", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((STATE / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())


def _spans(workload: str):
    import numpy as np

    data = np.load(STATE / "spans" / f"{workload}-seed{SEED}.npz")
    layers = list(data["layers"])
    dur = data["end"] - data["start"]
    return layers, data["layer"].astype(int), data["parent"], dur


def ensemble_seconds() -> dict[str, float]:
    """Wall time of each variant's ensemble, in the order variants runs them."""
    layers, layer, _, dur = _spans("variants")
    ens = dur[layer == layers.index("experiment.ensemble")]
    return dict(zip(VARIANTS, ens))


def stream_share_of_calibration() -> float:
    """Share of calibrate_mu1 time spent in stream setup (spans two levels below it)."""
    layers, layer, parent, dur = _spans("grid-default")
    cal, sim, streams = (layers.index(n) for n in
                         ("experiment.calibrate", "experiment.simulate", "experiment.streams"))
    in_stream = layer == streams
    sim_parent = parent[in_stream]
    under_cal = (layer[sim_parent] == sim) & (layer[parent[sim_parent]] == cal)
    return float(dur[in_stream][under_cal].sum() / dur[layer == cal].sum())


def main() -> int:
    plain = harness("grid-default", 0)
    grid = harness("grid-default", 1)["metrics"]
    variants = harness("variants", 1)["metrics"]
    ens = ensemble_seconds()
    mean_ens = sum(ens.values()) / len(ens)
    ns = {v: variants[f"filters.step.ns_per_row_step.{v}"] for v in VARIANTS}
    streams_per_ensemble = variants["experiment.streams.s"] / variants["experiment.ensemble.s"]
    m = plain["manifest"]
    print(f"Python {m['python']}, numpy {m['numpy']}, {m['cpu_count']} CPUs, "
          f"load {m['loadavg_1m']:.2f} at start, seed {SEED}, src {m['src_sha256'][:12]}\n")
    print("| measure | ROADMAP | harness |")
    print("| --- | --- | --- |")
    print(f"| `lmslab grid`, default protocol, `--workers 1` | {ROADMAP['grid']} | "
          f"{plain['metrics']['wall_s']:.1f} s (`wall_s`, untraced) |")
    print(f"| one ensemble, 1000 runs x 1000 iters | {ROADMAP['ensemble']} ({ROADMAP['ns']}) | "
          f"LMS {ens['lms']:.2f} s, mFLMS {ens['mflms']:.2f} s (traced; "
          f"{ens['lms'] * 1e3:.0f} and {ens['mflms'] * 1e3:.0f} ns per run-step) |")
    print("| step kernel alone, ns per run-step | not measured | "
          + ", ".join(f"{v} {ns[v]:.0f}" for v in VARIANTS) + " |")
    print(f"| stream setup | {ROADMAP['streams']} | {variants['experiment.streams.us_per_run']:.0f} us "
          f"per run on variants, {grid['experiment.streams.us_per_run']:.0f} us on grid-default; "
          f"{100 * streams_per_ensemble:.0f}% of an ensemble |")
    print(f"| `calibrate_mu1`, one scenario | {ROADMAP['calibrate']} | "
          f"{grid['experiment.calibrate.sims_per_call']:.0f} simulations, "
          f"{grid['experiment.calibrate.s'] / grid['experiment.calibrate.calls']:.2f} s, "
          f"{100 * stream_share_of_calibration():.0f}% of it in stream setup |")
    print(f"\nMean ensemble over the six variants: {mean_ens:.2f} s. "
          f"Tracing overhead: {100 * grid['trace.overhead_frac']:.1f}% on grid-default, "
          f"{100 * variants['trace.overhead_frac']:.1f}% on variants.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
