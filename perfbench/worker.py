"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  It imports
``lmslab`` from the checkout's ``src/``, builds the workload's
configuration, records the setup time, then drives the ``lmslab`` CLI
in-process for every call of the workload and writes a JSON result:
wall time, peak resident memory, return codes, every log record
``lmslab`` emitted, every calibration fitness curve and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.getMessage()))


def _import_lmslab():
    """Import the checkout's lmslab and nothing else of that name."""
    if not (SRC / "lmslab" / "__init__.py").is_file():
        raise SystemExit(f"no lmslab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lmslab.cli
    import lmslab.config
    import lmslab.experiment

    if Path(lmslab.__file__).resolve().parent != (SRC / "lmslab").resolve():
        raise SystemExit(f"imported lmslab from {lmslab.__file__}, not from {SRC}")
    return lmslab


def _parse_config(lmslab, workload, config_path: Path):
    """Parse the generated config and build its grid or scenario, as the CLI will."""
    settings = lmslab.config.parse_config(config_path.read_text())
    return settings.single_scenario() if workload.name == "variants" else settings.grid_config()


def _record_calibration_curves(experiment, records: list) -> bool:
    """Log every calibration fitness curve into ``records``, in call order.

    Wraps the private ``_calibration_curve`` that ``calibrate_mu1``
    evaluates once for the LMS reference and once per probe; returns
    False when the program no longer has that name.
    """
    fn = getattr(experiment, "_calibration_curve", None)
    if not callable(fn):
        return False

    def wrapper(algorithm, *args, **kwargs):
        curve = fn(algorithm, *args, **kwargs)
        records.append((checks.CURVE_LOG, 0, {
            "mu1": float(algorithm.mu1), "curve": [float(c) for c in curve],
        }))
        return curve

    experiment._calibration_curve = wrapper
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    lmslab = _import_lmslab()
    _parse_config(lmslab, workload, args.config)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    capture = _Capture()
    root_logger = logging.getLogger()
    root_logger.addHandler(capture)  # also turns the CLI's basicConfig into a no-op
    root_logger.setLevel(logging.INFO)
    result["curves_recorded"] = _record_calibration_curves(lmslab.experiment, capture.records)

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec, lmslab.cli, lmslab.experiment)

    codes = []
    t_start = time.perf_counter()
    for call in workload.calls(args.config, args.out):
        codes.append(lmslab.cli.main(call))
    result["wall_s"] = time.perf_counter() - t_start
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["return_codes"] = codes
    result["logs"] = capture.records

    if rec is not None:
        per_layer, absent, unexercised = spans.summarize(rec, workload.delivered_row_steps)
        result.update(per_layer=per_layer, absent=absent, unexercised=unexercised,
                      absent_names=rec.absent, n_spans=len(rec.start))
        if args.spans is not None:
            spans.save(rec, args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
