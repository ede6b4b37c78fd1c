"""The pinassign benchmark: one workload, measured and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads: demo-table, synthetic-best,
verdicts, cli (see perfbench/NOTES.md for why each exists).

Each workload runs in a fresh single-threaded interpreter (perfbench/worker.py)
as a closed loop: one caller, the next operation starting only after the
previous one returned. With --trace 0 the run reports the end-to-end
metrics; set-up time is the median of SETUP_SAMPLES interpreters, each timed
from spawn until its inputs are ready. With --trace 1 it reports the
per-layer metrics of a traced run and writes its spans under .perfbench/.

End-to-end times are divided by a machine factor: the time of a fixed
pure-Python reference task, measured between operations, over its time on the
idle host (see perfbench/NOTES.md). Every metric is printed as
"name value unit"; the last line is one JSON object {"correct", "attempted",
"failed", "metrics"}. "failed" counts operations that raised or returned a
wrong or unrecorded output, except the known defects, which are counted and
named on their own lines. The exit code is 0 when a result was printed, and
nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("demo-table", "synthetic-best", "verdicts", "cli")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
# Every worker hashes strings the same way, so dict and set layouts do not
# differ between runs: hash randomization alone moved the median verdict
# latency by a fifth from one run to the next.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run the worker; return (spawn time on CLOCK_MONOTONIC, its last JSON line)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    for needed in ("src/pinassign/__init__.py", "boards/stm32f4_demo.pins"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a pinassign checkout", file=sys.stderr)
            return 2

    began = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups, inputs = [], set()
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                start, ready = spawn([*common, "--setup-only"], TIME_LIMIT_S / 4)
                setups.append((ready["ready"] - start) / ready["factor"])
                inputs.add(ready["inputs"])
        remaining = TIME_LIMIT_S - (time.monotonic() - began)
        start, report = spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], remaining
        )
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append((report["ready"] - start) / report["factor"])
    inputs.add(report["inputs"])

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"# setup_s is the median of {len(setups)} interpreters")
    for note in report["notes"]:
        print(f"# {note}")
    if not args.trace:  # the traced run reports it among the per-layer metrics
        print(f"fail_ratio {report['fail_ratio']:.6g} ratio")
    print(f"# {report['attempted']} operations: {report['failed']} failed,"
          f" {report['known']} hit a known defect")
    for defect in report["known_defects"]:
        print(f"# known defect, counted in fail_ratio: {defect}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    deterministic = len(inputs) == 1
    if not deterministic:
        print("# FAILED the same seed generated different inputs in different interpreters")
    result = {
        "correct": report["failed"] == 0 and deterministic,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
