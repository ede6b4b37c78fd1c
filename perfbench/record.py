"""Record the expected outputs of the inputs that no seed changes.

    python3 perfbench/record.py

Runs the workloads once and writes what each operation with fixed inputs
returned to perfbench/expected.json, then runs them again against the new
file and exits nonzero if any output fails its checks (validity, oracle,
Hall recount, the independent references, the paper's length-10 row). Run
it only for a change that is
meant to alter these outputs, and review the diff of expected.json.
"""

from __future__ import annotations

import json
import sys

import worker  # sets up the import path  # noqa: F401
import workloads
from probe import Probe

# synthetic-best records only its fixed boards, which no seed changes.
RECORDED = ("demo-table", "synthetic-best", "cli")


def main() -> int:
    expected = {}
    for name in RECORDED:
        probe = Probe(tracing=False)
        workload = workloads.build(name, 0, probe)
        recorded = {}
        for index, op in enumerate(workload.ops):
            probe.begin_op(index)
            try:
                output = op.run(probe)
            except RecursionError:
                if op.known:
                    continue
                raise
            if op.record is not None:
                recorded[op.name] = op.record(output)
        expected[name] = recorded
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    failures = []
    for name in RECORDED:
        probe = Probe(tracing=False)
        workload = workloads.build(name, 0, probe)
        workload.prepare()
        failures += worker.run_pass(workload, probe, traced=False).failures
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
