"""Run one workload in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

The set-up builds the workload's inputs. The worker then times the reference
task (probe.reference_task) a few times. With --setup-only it prints
{"ready": <CLOCK_MONOTONIC seconds>, "inputs": <sha256>, "factor": <machine
factor>} and exits, so the parent can time interpreter start, import and
set-up together.

Otherwise it computes the independent expected answers (untimed), then runs
passes over the fixed operation list as a closed loop, one operation at a
time, until another pass would overrun --seconds (at least one pass; with
tracing, passes alternate untraced and traced and there is at least one of
each). Every output is checked as soon as its operation returns, outside
the timed region, and every REFERENCE_EVERY_S of operation time the
reference task is timed between operations. End-to-end times are divided
by the pass's machine factor; per-layer times are as measured.
The last line printed is one JSON document with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from probe import Probe, layer_times, machine_factor, time_reference  # noqa: E402

TRACE_DIR = ROOT / ".perfbench"
# Between operations, time the reference task after this much operation time.
REFERENCE_EVERY_S = 0.1
SETUP_REFERENCES = 15
SUBCOMMANDS = (
    "validate", "solve", "solve-all", "solve-best", "count",
    "emit", "graph", "merge", "diff", "bench",
)


@dataclass
class PassResult:
    traced: bool
    wall: float
    factor: float  # machine speed during the pass, from reference timings
    statuses: list[str]  # "ok", "failed" or "known", one per operation
    failures: list[str]
    verdicts: list[tuple[float, bool]]  # (seconds, decided)
    delivered: int
    deliver_s: float
    busy: dict
    calls: dict
    values: dict
    spans: list


def gate(op, ok: bool, output) -> tuple[str, str | None]:
    if not ok:
        if op.known and isinstance(output, RecursionError):
            return "known", op.known
        return "failed", f"{type(output).__name__}: {output}"
    try:
        problem = op.check(output)
    except Exception as exc:  # a check that cannot read the output fails it
        problem = f"check raised {type(exc).__name__}: {exc}"
    return ("failed", problem) if problem else ("ok", None)


def run_pass(workload, probe: Probe, traced: bool) -> PassResult:
    """One closed-loop pass. Each output is checked as soon as its operation
    returns, outside the operation's timed span; wall is the sum of those."""
    probe.tracing = traced
    probe.reset()
    wall = since_reference = 0.0
    references = [time_reference()]
    statuses, failures = [], []
    for index, op in enumerate(workload.ops):
        probe.begin_op(index)
        try:
            ok, output = True, op.run(probe)
        except Exception as exc:  # counted by the gate, never fatal to the pass
            ok, output = False, exc
        spent = probe.end_op(op.name)
        wall += spent
        status, message = gate(op, ok, output)
        statuses.append(status)
        if status == "failed":
            failures.append(f"{op.name}: {message}")
        since_reference += spent
        if since_reference >= REFERENCE_EVERY_S:
            references.append(time_reference())
            since_reference = 0.0
    factor = machine_factor(references)
    verdicts = [
        (seconds, statuses[index] == "ok" and seconds / factor <= workloads.VERDICT_LIMIT_S)
        for index, seconds in probe.verdicts
    ]
    return PassResult(
        traced, wall, factor, statuses, failures, verdicts, probe.delivered, probe.deliver_s,
        dict(probe.busy), dict(probe.calls), dict(probe.values), probe.pass_spans(),
    )


def run_passes(workload, probe: Probe, seconds: float, trace: bool) -> list[PassResult]:
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, probe, traced=trace and len(passes) % 2 == 1))
        elapsed = time.perf_counter() - start
        if len(passes) < (2 if trace else 1):
            continue
        if elapsed + passes[-1].wall > seconds:
            return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list[PassResult]) -> tuple[dict, list[str]]:
    """Each timing is taken per pass, divided by the pass's machine factor,
    and reported as the median over passes, so that a burst of load on the
    host during one pass does not move it. Per pass, every workload has the
    same number of verdicts, so the tail is always the same percentile."""
    per_pass = []
    for p in passes:
        latencies = [s / p.factor for s, _ in p.verdicts]
        tail_s, percentile = tail(latencies)
        rate = p.delivered / p.deliver_s * p.factor
        per_pass.append((p.wall / p.factor, rate, statistics.median(latencies), tail_s))
    wall, rate, p50, tail_s = (statistics.median(column) for column in zip(*per_pass))
    verdicts = [d for p in passes for _, d in p.verdicts]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "solutions_per_s": (rate, "1/s"),
        "verdict_p50_ms": (p50 * 1000, "ms"),
        "verdict_tail_ms": (tail_s * 1000, "ms"),
        "decided_ratio": (sum(verdicts) / len(verdicts), "ratio"),
    }
    factors = ", ".join(f"{p.factor:.3f}" for p in passes)
    notes = [
        f"timings are medians over {len(passes)} pass(es), each divided by its machine factor",
        f"machine factors {factors}; measured wall_s {statistics.median(p.wall for p in passes):.6g} s",
        f"verdict_tail_ms is p{percentile:.1f} of the {len(latencies)} find_feasible calls of a pass",
        f"decided_ratio: {sum(verdicts)} of {len(verdicts)} verdicts correct within "
        f"{workloads.VERDICT_LIMIT_S:g} s",
    ]
    return metrics, notes


def per_layer(traced: list[PassResult], untraced: list[PassResult], setup: tuple) -> dict:
    """Per-pass means over the traced passes; board parsing adds the set-up's."""
    n = len(traced)

    def mean(get) -> float:
        return sum(get(p) for p in traced) / n

    def busy(name):
        return mean(lambda p: p.busy.get(name, 0.0))

    def calls(name):
        return mean(lambda p: p.calls.get(name, 0))

    def value(name):
        return mean(lambda p: p.values.get(name, 0.0))

    def layer_busy(prefix):
        return mean(lambda p: sum(t for k, t in p.busy.items() if k.startswith(prefix)))

    rejected, infeasible = value("request.quick_reject.rejected"), value("request.quick_reject.infeasible")
    m = {
        "board.parse_board.s": (setup[0]["board.parse_board"] + busy("board.parse_board"), "s"),
        "board.parse_board.calls": (setup[1]["board.parse_board"] + calls("board.parse_board"), "count"),
        "request.parse_request.s": (busy("request.parse_request"), "s"),
        "request.quick_reject.s": (busy("request.quick_reject"), "s"),
        "request.quick_reject.rejected_share": (rejected / infeasible if infeasible else 0.0, "ratio"),
        "solver.find_feasible.s": (busy("solver.find_feasible"), "s"),
        "solver.find_feasible.calls": (calls("solver.find_feasible"), "count"),
        "solver.find_feasible.infeasible": (value("solver.find_feasible.infeasible"), "count"),
        "solver.find_feasible.max_s": (mean(lambda p: max((s for s, _ in p.verdicts), default=0.0)), "s"),
        "solver.find_best.s": (busy("solver.find_best"), "s"),
        "solver.find_best.calls": (calls("solver.find_best"), "count"),
    }
    for size in workloads.SYNTHETIC_PER_SIZE:
        m[f"solver.find_best.s.{size}"] = (value(f"solver.find_best.s.{size}"), "s")
    for semantics in ("pinsets", "labeled"):
        name = f"solver.iter_assignments.{semantics}"
        m[f"{name}.s"] = (busy(name), "s")
        m[f"{name}.solutions"] = (value(f"{name}.solutions"), "count")
        m[f"{name}.first_s"] = (value(f"{name}.first_s"), "s")
    m.update({
        "solver.enumerate_all.s": (busy("solver.enumerate_all"), "s"),
        "codegen.emit_prolog.s": (busy("codegen.emit_prolog"), "s"),
        "codegen.emit_prolog.facts": (value("codegen.emit_prolog.facts"), "count"),
        "codegen.emit_prolog.bytes": (value("codegen.emit_prolog.bytes"), "bytes"),
        "codegen.emit_alloy.s": (busy("codegen.emit_alloy"), "s"),
        "codegen.emit_graph_dot.s": (busy("codegen.emit_graph_dot"), "s"),
        "counting.s": (layer_busy("counting."), "s"),
        "configops.s": (layer_busy("configops."), "s"),
    })
    for command in SUBCOMMANDS:
        m[f"cli.run.s.{command}"] = (value(f"cli.run.s.{command}"), "s")
    m["cli.stdout_bytes"] = (value("cli.stdout_bytes"), "bytes")
    m["cli.render_s"] = (value("cli.paired_s") - value("cli.library_s"), "s")
    m["trace.overhead_ratio"] = (
        statistics.median(p.wall / p.factor for p in traced)
        / statistics.median(p.wall / p.factor for p in untraced),
        "ratio",
    )
    layers = [layer_times(p.spans) for p in traced]
    for layer in layers[0]:
        for stat, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count")):
            m[f"layer.{layer}.{stat}"] = (sum(t[layer][stat] for t in layers) / n, unit)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probe = Probe(tracing=bool(args.trace))
    workload = workloads.build(args.workload, args.seed, probe)
    ready = time.monotonic()
    factor = machine_factor([time_reference() for _ in range(SETUP_REFERENCES)])
    if args.setup_only:
        print(json.dumps({"ready": ready, "inputs": workload.inputs, "factor": factor}))
        return 0

    setup = (dict(probe.busy), dict(probe.calls))
    workload.prepare()
    passes = run_passes(workload, probe, args.seconds, bool(args.trace))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    statuses = [s for p in passes for s in p.statuses]
    known = statuses.count("known")
    failed = statuses.count("failed")
    report = {
        "ready": ready,
        "inputs": workload.inputs,
        "factor": factor,
        "attempted": len(statuses),
        "failed": failed,
        "known": known,
        "known_defects": sorted({op.known for op in workload.ops if op.known}),
        "failures": sorted({f for p in passes for f in p.failures})[:20],
        "fail_ratio": (failed + known) / len(statuses),
    }
    if args.trace:
        report["metrics"] = per_layer(traced, untraced, setup)
        report["metrics"]["fail_ratio"] = (report["fail_ratio"], "ratio")
        report["metrics"]["known_failures"] = (known / len(passes), "count")
        report["notes"] = [f"{len(traced)} traced and {len(untraced)} untraced pass(es)"]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        probe.write_spans(path)
        report["notes"].append(f"spans written to {path.relative_to(ROOT)}")
    else:
        report["metrics"], report["notes"] = end_to_end(untraced)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
