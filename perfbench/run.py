"""lmslab benchmark harness.

    python3 perfbench/run.py --workload grid-default --seed 42 --seconds 30 --trace 0

Runs from the root of a checkout.  Each repetition of the workload runs
in a fresh process (``worker.py``) that drives the ``lmslab`` CLI
in-process on one core (``--workers 1``); repetitions continue while the
next one is expected to end within ``--seconds``, and at least one runs
(two with ``--trace 1``: one untraced, one traced).  Every repetition's
outputs are checked (``checks.py``).  The last line printed is one JSON
object: ``correct``, ``attempted`` and ``failed`` count scenarios, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.  A fuller
record (manifest, samples, failures) goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n > 10:
        rank = n - 10
        out[f"p{100 * rank // n}"] = ordered[rank - 1]
    return out


def run_worker(workload, config: Path, work: Path, tag: str, extra: list[str]) -> dict:
    out = work / tag
    result = work / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
        "--config", str(config), "--out", str(out), "--result", str(result), *extra, "--t0",
    ]
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{tag}: worker exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"{tag}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def collect_outputs(workload, out: Path) -> tuple[list[dict], int, int]:
    """Aggregates rows of every call, plus the files and bytes the repetition wrote."""
    rows = []
    for rel in workload.output_dirs:
        path = out / rel / "aggregates.csv"
        if path.is_file():
            rows += checks.parse_aggregates(path.read_text())
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    return rows, len(files), sum(p.stat().st_size for p in files)


def measure(args, workload, work: Path, bands: dict, reference: dict | None):
    config = work / "config.txt"
    config.write_text(workload.config_text(args.seed))
    setup = [
        run_worker(workload, config, work, f"setup{i}", ["--setup-only"])["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    spans_dir = STATE / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    reps = []
    start = time.monotonic()
    last = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tag = f"rep{len(reps)}"
        extra = ["--trace", "--spans", str(spans_dir / f"{workload.name}-seed{args.seed}.npz")] if traced else []
        t = time.monotonic()
        rep = run_worker(workload, config, work, tag, extra)
        last = max(last, time.monotonic() - t)
        rows, rep["files"], rep["bytes"] = collect_outputs(workload, work / tag)
        shutil.rmtree(work / tag, ignore_errors=True)
        digests = checks.row_digests(rows)
        if reference is None and rows:
            reference = digests
        rep["traced"] = traced
        rep["failed"], rep["failures"] = checks.check_rep(
            rows, rep.pop("logs"), workload.scenarios, bands, reference
        )
        rep["failures"].update(
            {f"call {i}": [f"lmslab exited {c}"] for i, c in enumerate(rep["return_codes"]) if c}
        )
        setup.append(rep["setup_s"])
        reps.append(rep)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() - start + last > args.seconds:
            break
    return setup, reps, reference


def end_to_end(workload, setup, reps) -> tuple[dict, dict]:
    plain = [r for r in reps if not r["traced"]]
    wall = summary([r["wall_s"] for r in plain])
    rss = summary([r["peak_rss_kb"] / 1024 for r in plain])
    setup_summary = summary(setup)
    attempted = workload.scenarios * len(reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "wall_s": wall["median"],
        "run_steps_per_s": workload.delivered_row_steps / wall["median"],
        "setup_s": setup_summary["median"],
        "peak_rss_mb": rss["median"],
        "passed_frac": 1 - failed / attempted,
    }
    detail = {
        "wall_s": wall,
        "run_steps_per_s": {"n": wall["n"], "row_steps_per_rep": workload.delivered_row_steps},
        "setup_s": setup_summary,
        "peak_rss_mb": rss,
        "passed_frac": {"failed_frac": failed / attempted, "failed": failed, "attempted": attempted},
    }
    return values, detail


def per_layer(reps) -> tuple[dict, dict]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            values[name] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1
            )
        elif name in ("reporting.write.bytes", "reporting.write.files"):
            values[name] = statistics.median(r[name.rsplit(".", 1)[1]] for r in traced)
        else:
            values[name] = statistics.median(r["per_layer"][name] for r in traced)
    absent = sorted({m for r in traced for m in r["absent"]})
    detail = {
        "n_traced": len(traced),
        "n_untraced": len(plain),
        "absent": absent,
        "absent_names": sorted({m for r in traced for m in r["absent_names"]}),
        "unexercised": sorted({m for r in traced for m in r["unexercised"]}),
        "n_spans": [r["n_spans"] for r in traced],
    }
    return values, detail


def report(args, workload, values, detail, reps, elapsed) -> None:
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetition(s) measured in {elapsed:.1f} s")
    for name, value in values.items():
        unit = (END_TO_END.get(name) or PER_LAYER[name])[0]
        line = f"  {name:<52} {value:>16.6g} {unit}"
        if name in detail.get("absent", ()):
            line += "   ABSENT: the wrapped name is missing from lmslab"
        elif name in detail.get("unexercised", ()):
            line += "   (variant not run by this workload)"
        elif isinstance(detail.get(name), dict):
            line += "   " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in detail[name].items())
        print(line)
    if not all(rep["curves_recorded"] for rep in reps):
        print("  NOTE: lmslab.experiment._calibration_curve is missing; "
              "the calibration fitness check did not run")
    for i, rep in enumerate(reps):
        for key, reasons in rep["failures"].items():
            print(f"  FAILED rep{i} {key}: {'; '.join(reasons)[:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lmslab benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lmslab" / "__init__.py").is_file():
        print(f"perfbench: no lmslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = manifest(args)
    bands_path = HERE / "bands.json"
    bands = json.loads(bands_path.read_text()).get(workload.name, {}) if bands_path.is_file() else {}
    memo_path = STATE / "digests.json"
    memo = json.loads(memo_path.read_text()) if memo_path.is_file() else {}
    config_sha = hashlib.sha256(workload.config_text(args.seed).encode()).hexdigest()
    memo_key = f"{info['src_sha256']}/{config_sha}/numpy-{info['numpy']}/{workload.name}/{args.seed}"

    work = STATE / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        setup, reps, reference = measure(args, workload, work, bands, memo.get(memo_key))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - start
    if reference is not None:
        memo[memo_key] = reference
        memo_path.write_text(json.dumps(memo))

    if args.trace:
        values, detail = per_layer(reps)
    else:
        values, detail = end_to_end(workload, setup, reps)
    attempted = workload.scenarios * len(reps)
    failed = sum(r["failed"] for r in reps)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "manifest": info, "metrics": values, "detail": detail, "setup_s": setup,
        "reps": reps,
    }, indent=1))

    print("manifest: " + json.dumps(info))
    report(args, workload, values, detail, reps, elapsed)
    units = {**{k: v[0] for k, v in END_TO_END.items()}, **{k: v[0] for k, v in PER_LAYER.items()}}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
