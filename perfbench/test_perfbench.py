"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import worker  # sets up the import path; keep first
import instances
import workloads
from probe import Probe

from pinassign import Assignment, find_feasible, iter_assignments

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _build(name, seed=3):
    probe = Probe(tracing=False)
    return workloads.build(name, seed, probe), probe


def test_run_and_benchmark_json_name_the_same_workloads():
    import run

    assert run.WORKLOADS == workloads.WORKLOADS
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first, _ = _build(name, seed=5)
    second, _ = _build(name, seed=5)
    assert first.inputs == second.inputs
    assert [op.name for op in first.ops] == [op.name for op in second.ops]


def test_generators_are_byte_identical_per_seed_and_vary_across_seeds():
    per_size = {"32x16": 2, "64x24": 1, "96x32": 1, "128x40": 1}
    assert instances.synthetic_family(9, per_size, ()) == instances.synthetic_family(9, per_size, ())
    assert instances.synthetic_family(9, per_size, ()) != instances.synthetic_family(10, per_size, ())
    fixed = tuple(per_size)  # every size pinned: no seed changes them
    assert instances.synthetic_family(9, per_size, fixed) == instances.synthetic_family(10, per_size, fixed)
    assert instances.verdict_family(9, 30, 6) == instances.verdict_family(9, 30, 6)
    assert instances.verdict_family(9, 30, 6) != instances.verdict_family(10, 30, 6)
    assert _build("synthetic-best", 1)[0].inputs != _build("synthetic-best", 2)[0].inputs


def _small_verdicts():
    workload, probe = _build("verdicts")
    small = [op for op in workload.ops if op.name.startswith("verdict small")]
    workload.ops = small[:40]  # checked against the brute-force oracle
    workload.prepare()
    return workload, probe


def test_gate_passes_the_real_answers():
    workload, probe = _small_verdicts()
    result = worker.run_pass(workload, probe, traced=False)
    assert result.failures == []
    assert result.statuses == ["ok"] * 40


def _last_solution(board, request, options=None):
    solutions = list(iter_assignments(board, request))
    return solutions[-1] if solutions else find_feasible(board, request)


def _overcharged(board, request, options=None):
    outcome = find_feasible(board, request)
    if isinstance(outcome, Assignment):
        return replace(outcome, total_cost=outcome.total_cost + 1)
    return outcome


@pytest.mark.parametrize("corrupt", [_last_solution, _overcharged])
def test_gate_counts_a_corrupted_answer(monkeypatch, corrupt):
    workload, probe = _small_verdicts()
    monkeypatch.setattr(workloads, "find_feasible", corrupt)
    result = worker.run_pass(workload, probe, traced=False)
    assert result.statuses.count("failed") >= 5
    assert len(result.failures) == result.statuses.count("failed")


def test_gate_counts_a_miscounted_stream(monkeypatch):
    workload, probe = _build("demo-table")
    workload.prepare()
    workload.ops = [op for op in workload.ops if op.name.startswith("pinsets mixed/")][:5]

    def one_short(board, request, options=None):
        return list(iter_assignments(board, request, options))[1:]

    monkeypatch.setattr(workloads, "iter_assignments", one_short)
    result = worker.run_pass(workload, probe, traced=False)
    assert result.statuses == ["failed"] * 5


def test_gate_tells_known_defects_from_new_failures():
    op = workloads.Op("x", lambda probe: None, lambda output: None, known="deep recursion")
    assert worker.gate(op, False, RecursionError())[0] == "known"
    assert worker.gate(op, False, ValueError())[0] == "failed"
    assert worker.gate(replace(op, known=None), False, RecursionError())[0] == "failed"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert worker.tail(samples) == (89.0, 90.0)
    assert worker.tail(samples[:5]) == (4.0, 100.0)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_by_every_workload(name):
    workload, probe = _build(name)
    setup = (dict(probe.busy), dict(probe.calls))
    workload.prepare()
    workload.ops = workload.ops[:6]
    passes = [worker.run_pass(workload, probe, traced=t) for t in (False, True)]
    e2e, _ = worker.end_to_end(passes[:1])
    layers = worker.per_layer(passes[1:], passes[:1], setup)
    assert set(e2e) | {"setup_s"} == _names("end_to_end")
    assert set(layers) | {"fail_ratio", "known_failures"} == _names("per_layer")


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
