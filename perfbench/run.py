"""Scenario benchmark: host time per simulated frame, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload nat-burst --seed 1 --seconds 10 --trace 0

For ``--seconds`` it runs the workload's ``ScenarioSpec`` back to back
(closed loop, after one untimed warm-up run) and reports the end-to-end
metrics over those runs.  With ``--trace 1`` it then makes one more run
with every layer traced (see ``layers.py``) and reports the per-layer
metrics instead.

Every run's semantic digest, the traced run's too, is compared with the
``reference`` engine's digest for the same workload and seed; a run that
raises or differs counts as failed and makes the benchmark exit 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the environment and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Numeric libraries would otherwise size thread pools to the machine;
#: the benchmark measures one thread.
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "threads": {name: os.environ[name] for name in _THREAD_VARIABLES},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in _THREAD_VARIABLES:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; known: {list(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    print(json.dumps({"workload": workload.name, "seed": seed, **_environment()}))

    samples: list[workloads.RunSample] = []
    attempted = failed = 0

    def attempt(run):
        nonlocal attempted, failed
        attempted += 1
        try:
            return run()
        except Exception:  # a run that raises counts as failed
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    warmup = attempt(lambda: workloads.measure_once(workload, seed))
    # Each timed run is scaled by the calibrations on either side of it.
    calibrated = workloads.calibrate()
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        sample = attempt(lambda: workloads.measure_once(workload, seed))
        previous, calibrated = calibrated, workloads.calibrate()
        if sample is not None:
            sample.scale = workloads.speed_scale(previous, calibrated)
            samples.append(sample)
    # Read before the reference and traced runs, whose peaks are not the
    # workload's.
    peak_rss = workloads.peak_rss_mib()

    reference = attempt(lambda: workloads.reference_digest(workload, seed))
    digests = [s.digest for s in samples + ([warmup] if warmup else [])]
    mismatched = sum(digest != reference for digest in digests)
    if reference is not None:
        failed += mismatched

    metrics: dict[str, tuple[float, str]] = {}
    if samples:
        # Host times are in calibrated seconds (see workloads.calibrate).
        wall = [s.wall_s * s.scale for s in samples]
        setup = [s.setup_s * s.scale for s in samples]
        rates = [s.sim_pkts_per_s for s in samples]
        metrics = {
            "wall_s": (statistics.median(wall), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "sim_pkts_per_s": (statistics.median(rates), "pkts/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "sim_delivered_frac": (samples[0].delivered_frac, "frac"),
            "sim_latency_p99_ns": (samples[0].latency_p99_ns, "sim_ns"),
        }
        print(f"{len(samples)} timed runs; min / quartiles / max:")
        for name, values in (
            ("wall_s", wall),
            ("setup_s", setup),
            ("sim_pkts_per_s", rates),
            ("raw wall_s", [s.wall_s for s in samples]),
            ("host speed", [1 / s.scale for s in samples]),
        ):
            q1, q2, q3 = _quartiles(values)
            print(
                f"  {name:16s} {min(values):.6g} / {q1:.6g} {q2:.6g} {q3:.6g}"
                f" / {max(values):.6g}"
            )
        if args.trace:
            traced = attempt(
                lambda: workloads.measure_traced(workload, seed, metrics["wall_s"][0])
            )
            if traced is not None and traced.digest != reference:
                failed += 1
            metrics = traced.per_layer if traced is not None else {}

    print(f"failed_frac: {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
