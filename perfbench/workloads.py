"""The four workloads: their inputs, operation lists and output checks.

``build(name, seed, probe)`` is the set-up a user pays on every call: it
parses the boards and generates the seeded inputs, routing the parse calls
through the probe. It returns a ``Workload`` whose ``prepare`` computes the
independent expected answers (untimed, once per run) and whose ``ops`` are
the fixed operation list one pass runs, in order, one at a time.

Each ``Op.run(probe)`` makes public calls through the probe and returns its
output; ``Op.check(output)`` returns None or what is wrong with it. A check
runs right after its operation, outside the timed region. ``Op.record``
turns an output into the value stored in ``expected.json``, and ``Op.known``
names a known defect the operation hits today.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from pinassign import (
    AllPinsUsedWarning,
    Assignment,
    Infeasible,
    Semantics,
    SolveOptions,
    apply_diff,
    board_stats,
    cli,
    config_space,
    config_space_board,
    diff_assignments,
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
    enumerate_all,
    find_best,
    find_feasible,
    iter_assignments,
    merge_requests,
    parse_board,
    parse_request,
    quick_reject,
)

import instances
import reference

ROOT = Path(__file__).resolve().parent.parent
DEMO_BOARD = "boards/stm32f4_demo.pins"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

MIXED = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
# Every prefix from length 4 on asks for more CAN_TX pins than the board has.
CAN_TX = ",".join(["can-tx"] * 10)
DEMO_REQUESTS = (("mixed", MIXED), ("can-tx", CAN_TX))
# The paper's length-10 row, which the recorded expectations must reproduce.
PAPER_ROW = {"pinsets": 588, "labeled": 136_800, "first_cost": 30, "best_cost": 25}
# Each demo prefix's verdict is asked this many times in a row (also by the
# cli workload's library calls): one sub-millisecond call per prefix gives
# too few latency samples per pass for a steady median and tail.
DEMO_ASKS = 5

# Instances per synthetic size. A find_best from 64x24 up takes 0.2-4 s and
# its time varies by a quarter from board to board, so the few that fit in a
# pass would let the seed set the pass time and the latency tail: those
# sizes are the same boards on every run (instances.BASELINE_SEED). The
# 32x16 instances follow the workload seed and hold the median; the fifteen
# larger ones hold the tail (the 11th-largest latency of a pass).
SYNTHETIC_PER_SIZE = {"32x16": 60, "64x24": 12, "96x32": 2, "128x40": 1}
SYNTHETIC_FIXED = ("64x24", "96x32", "128x40")
N_SMALL = 200
N_MID = 60
VERDICT_ROUNDS = 16
# Asked once per pass, the rest once per round: the deepest chain (0.5 s)
# and the over-demanding instance (10 s, then RecursionError). With 80x60
# asked every round, the latency tail lands mid-way through its samples.
ASKED_ONCE = ("deep-120x100", "over-1100x1101")
# A verdict counts as decided when it is correct and returned within this.
VERDICT_LIMIT_S = 1.0

PINSETS = SolveOptions(Semantics.UNIQUE_PIN_SETS)
LABELED = SolveOptions(Semantics.LABELED)

WORKLOADS = ("demo-table", "synthetic-best", "verdicts", "cli")


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    record: Callable[[Any], Any] | None = None
    known: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    inputs: str  # sha256 of every generated input, for the determinism check
    prepare: Callable[[], None]


def build(name: str, seed: int, probe) -> Workload:
    warnings.simplefilter("ignore", AllPinsUsedWarning)
    by_name = {
        "demo-table": _demo_table,
        "synthetic-best": _synthetic_best,
        "verdicts": _verdicts,
        "cli": _cli,
    }
    return by_name[name](seed, probe)


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload, {})


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _answer(outcome) -> dict:
    """The recorded form of a solve outcome."""
    if isinstance(outcome, Assignment):
        return {"pins": [b.pin for b in outcome.bindings], "cost": outcome.total_cost}
    return {"infeasible": outcome.reason}


def _check_outcome(board, request, outcome, first: tuple | None) -> str | None:
    """An outcome against the expected pin tuple (None: infeasible)."""
    if (first is None) != isinstance(outcome, Infeasible):
        return f"expected {'infeasible' if first is None else 'an assignment'}, got {_answer(outcome)}"
    problem = _sound(board, request, outcome)
    if problem or first is None:
        return problem
    got = reference.pin_tuple(board, outcome)
    if got != tuple(first):
        return f"pins {got}, expected {tuple(first)}"
    return None


def _against_recording(expected: dict, op_name: str, value) -> str | None:
    if op_name not in expected:
        return "no recorded output"
    if expected[op_name] != value:
        return f"output {value!r} differs from the recorded {expected[op_name]!r}"
    return None


def _read_board(probe, path: str = DEMO_BOARD):
    text = (ROOT / path).read_text(encoding="utf-8")
    return probe.call("board.parse_board", parse_board, text), text


# --- demo-table -------------------------------------------------------------


def _demo_table(seed: int, probe) -> Workload:
    """The paper's prefix table; the inputs are fixed, the seed unused."""
    board, board_text = _read_board(probe)
    expected: dict = {}
    oracle: dict[str, dict | None] = {}
    ops: list[Op] = []

    def prepare():
        expected.update(load_expected("demo-table"))
        row = {
            "pinsets": expected.get("pinsets mixed/10"),
            "labeled": expected.get("labeled mixed/10"),
            "first_cost": (expected.get("feasible mixed/10") or {}).get("cost"),
            "best_cost": (expected.get("best mixed/10") or {}).get("cost"),
        }
        if row != PAPER_ROW:
            raise RuntimeError(f"recorded demo row {row} is not the paper's {PAPER_ROW}")
        for _, text in DEMO_REQUESTS:
            for length in range(1, 11):
                prefix = ",".join(text.split(",")[:length])
                oracle[prefix] = reference.oracle_answers(board, parse_request(prefix))

    for label, text in DEMO_REQUESTS:
        for length in range(1, 11):
            prefix = ",".join(text.split(",")[:length])
            tag = f"{label}/{length}"
            ops += _demo_ops(board, prefix, tag, expected, oracle)
    return Workload(ops, _digest(board_text, MIXED, CAN_TX), prepare)


def _demo_ops(board, prefix, tag, expected, oracle) -> list[Op]:
    def feasible(probe):
        request = probe.call("request.parse_request", parse_request, prefix)
        return request, [probe.verdict(find_feasible, board, request) for _ in range(DEMO_ASKS)]

    def best(probe):
        request = probe.call("request.parse_request", parse_request, prefix)
        return request, [probe.call("solver.find_best", find_best, board, request)]

    def stream(semantics, options):
        def run(probe):
            request = probe.call("request.parse_request", parse_request, prefix)
            metric = f"solver.iter_assignments.{semantics}"
            count, first_s, _ = probe.stream(metric, iter_assignments, board, request, options)
            probe.add(f"{metric}.solutions", count)
            probe.add(f"{metric}.first_s", first_s)
            probe.deliver(count, probe.last_s)
            return count

        return run

    def check_answer(op_name, key):
        def check(output):
            request, (outcome, *again) = output
            if any(other != outcome for other in again):
                return "the same question got different answers"
            problem = _against_recording(expected, op_name, _answer(outcome))
            if problem:
                return problem
            truth = oracle.get(prefix)
            if truth is not None:
                want = truth[key]
                got = reference.bindings(outcome) if isinstance(outcome, Assignment) else None
                if got != want:
                    return f"oracle {key} {want}, solver {got}"
            return _sound(board, request, outcome)

        return check

    def check_count(op_name, key):
        def check(count):
            truth = oracle.get(prefix)
            if truth is not None and truth[key] != count:
                return f"oracle counts {truth[key]}, solver streamed {count}"
            return _against_recording(expected, op_name, count)

        return check

    names = {k: f"{k} {tag}" for k in ("feasible", "pinsets", "labeled", "best")}
    return [
        Op(names["feasible"], feasible,
           check_answer(names["feasible"], "first"), lambda o: _answer(o[1][0])),
        Op(names["pinsets"], stream("pinsets", PINSETS),
           check_count(names["pinsets"], "pinsets"), lambda n: n),
        Op(names["labeled"], stream("labeled", LABELED),
           check_count(names["labeled"], "labeled"), lambda n: n),
        Op(names["best"], best,
           check_answer(names["best"], "best"), lambda o: _answer(o[1][0])),
    ]


# --- synthetic-best ---------------------------------------------------------


def _synthetic_best(seed: int, probe) -> Workload:
    family = instances.synthetic_family(seed, SYNTHETIC_PER_SIZE, SYNTHETIC_FIXED)
    boards = [probe.call("board.parse_board", parse_board, inst.board_text) for inst in family]
    expected: dict = {}
    refs: dict[int, tuple] = {}

    def prepare():
        expected.update(load_expected("synthetic-best"))
        for k, (inst, board) in enumerate(zip(family, boards)):
            request = parse_request(inst.request_text)
            adj = reference.eligibility(board, request.canonical)
            refs[k] = (
                reference.lex_min_cost(adj, [pin.cost for pin in board.pins]),
                reference.lex_first(adj),
            )

    # Sizes run in a seeded interleaving, so that each size's latency samples
    # spread over the whole pass and machine drift averages out.
    order = list(range(len(family)))
    random.Random(seed).shuffle(order)
    ops: list[Op] = []
    for k in order:
        # The fixed boards' answers are also recorded in expected.json.
        recorded = expected if family[k].name in SYNTHETIC_FIXED else None
        ops += _synthetic_ops(k, family[k], boards[k], refs, recorded)
    inputs = _digest(*(t for inst in family for t in (inst.board_text, inst.request_text)))
    return Workload(ops, inputs, prepare)


def _synthetic_ops(k, inst, board, refs, recorded) -> list[Op]:
    def best(probe):
        request = probe.call("request.parse_request", parse_request, inst.request_text)
        outcome = probe.call("solver.find_best", find_best, board, request)
        probe.add(f"solver.find_best.s.{inst.name}", probe.last_s)
        probe.deliver(1, probe.last_s)
        return request, outcome

    def feasible(probe):
        request = probe.call("request.parse_request", parse_request, inst.request_text)
        outcome = probe.verdict(find_feasible, board, request)
        probe.deliver(1, probe.last_s)
        return request, outcome

    tag = f"{inst.name} {board.name}"

    def check(which, op_name):
        def check(output):
            problem = _check_outcome(board, output[0], output[1], refs[k][which])
            if problem is None and recorded is not None:
                problem = _against_recording(recorded, op_name, _answer(output[1]))
            return problem

        return check

    record = None if recorded is None else (lambda output: _answer(output[1]))
    return [
        Op(f"best {tag}", best, check(0, f"best {tag}"), record),
        Op(f"feasible {tag}", feasible, check(1, f"feasible {tag}"), record),
    ]


# --- verdicts ---------------------------------------------------------------


def _verdicts(seed: int, probe) -> Workload:
    family = instances.verdict_family(seed, N_SMALL, N_MID)
    boards = [probe.call("board.parse_board", parse_board, inst.board_text) for inst in family]
    truth: dict[int, tuple | None] = {}

    def prepare():
        for k, (inst, board) in enumerate(zip(family, boards)):
            request = parse_request(inst.request_text)
            if inst.first is not None or inst.expect == "infeasible":
                first = inst.first  # known by construction
            elif inst.name == "small":
                answers = reference.oracle_answers(board, request)
                first = answers["first"] and tuple(board.index_of(b[2]) for b in answers["first"])
            else:
                first = reference.lex_first(reference.eligibility(board, request.canonical))
            if inst.expect is not None and (first is not None) != (inst.expect == "feasible"):
                raise RuntimeError(f"generator and reference disagree on {inst.name}#{k}")
            truth[k] = first

    # A shared host's speed drifts by a fifth within seconds, so the latency
    # samples must spread over the pass: each round asks the questions again
    # in a seeded order, and the two slow questions sit between the halves.
    order = random.Random(seed)
    once = [k for k, inst in enumerate(family) if inst.name in ASKED_ONCE]
    batch = [k for k in range(len(family)) if k not in once]
    ops: list[Op] = []
    for round_ in range(VERDICT_ROUNDS):
        if round_ == VERDICT_ROUNDS // 2:
            ops += [_verdict_op(k, family[k], boards[k], truth, round_) for k in once]
        order.shuffle(batch)
        ops += [_verdict_op(k, family[k], boards[k], truth, round_) for k in batch]
    inputs = _digest(*(t for inst in family for t in (inst.board_text, inst.request_text)))
    return Workload(ops, inputs, prepare)


def _verdict_op(k, inst, board, truth, round_) -> Op:
    def run(probe):
        request = probe.call("request.parse_request", parse_request, inst.request_text)
        rejection = probe.call("request.quick_reject", quick_reject, board, request)
        if truth[k] is None:  # what share of the infeasible ones the filter catches
            probe.add("request.quick_reject.infeasible", 1)
            probe.add("request.quick_reject.rejected", rejection is not None)
        delivered = 0
        try:
            outcome = probe.verdict(find_feasible, board, request)
            delivered = 1
        finally:
            probe.deliver(delivered, probe.last_s)
        return request, rejection, outcome

    def check(output):
        request, rejection, outcome = output
        if rejection is not None and truth[k] is not None:
            return f"quick_reject refused a feasible request: {rejection.reason}"
        return _check_outcome(board, request, outcome, truth[k])

    known = None
    if inst.name.startswith("over-"):
        known = "find_feasible recurses once per chained slot and raises RecursionError"
    return Op(f"verdict {inst.name}#{k} round {round_}", run, check, known=known)


# --- cli --------------------------------------------------------------------


class Sink:
    """Stand-in for stdout: counts and hashes what is written to it."""

    def __init__(self, keep: bool = False):
        self.nbytes = 0
        self.sha = hashlib.sha256()
        self.parts: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.nbytes += len(data)
        self.sha.update(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts or ())


def _without_timings(text: str) -> str:
    """bench's JSON minus its timing fields, which vary between runs."""
    doc = json.loads(text)
    rows = [{k: v for k, v in row.items() if not k.startswith("t_")} for row in doc["rows"]]
    return json.dumps(rows, sort_keys=True)


def _cli(seed: int, probe) -> Workload:
    """Every subcommand on the demo board; the inputs are fixed, the seed unused."""
    _, board_text = _read_board(probe)
    expected: dict = {}
    board_args = ["--board", DEMO_BOARD]
    mixed6 = ",".join(MIXED.split(",")[:6])
    cases: list[tuple[list[str], Callable | None]] = [
        (["validate", *board_args, "--request", MIXED, "--format", "json"], _lib_validate(MIXED)),
    ]
    for _, text in DEMO_REQUESTS:
        for length in range(1, 11):
            prefix = ",".join(text.split(",")[:length])
            cases.append(
                (["solve", *board_args, "--request", prefix, "--format", "json"], _lib_solve(prefix))
            )
    cases += [
        (["solve-all", *board_args, "--request", mixed6, "--semantics", "labeled", "--format", "json"],
         _lib_enumerate(mixed6, LABELED)),
        (["solve-all", *board_args, "--request", MIXED, "--format", "json"],
         _lib_enumerate(MIXED, PINSETS)),
        (["solve-best", *board_args, "--request", MIXED, "--format", "json"], _lib_best(MIXED)),
        (["count", "--pins", "16", "--functions", "4", "--max-len", "10", "--format", "json"],
         _lib_count(16, 4, 10)),
        (["count", *board_args, "--format", "json"], _lib_count_board()),
        (["count", "--pins", "50", "--functions", "3000", "--format", "json"], None),
        (["emit", "--target", "prolog", *board_args, "--max-len", "4"], _lib_prolog(4)),
        (["emit", "--target", "prolog", *board_args, "--max-len", "3"], _lib_prolog(3)),
        (["emit", "--target", "alloy-spec", *board_args], _lib_alloy_spec()),
        (["emit", "--target", "alloy-assert", "--request", MIXED], _lib_alloy_assert(MIXED)),
        (["emit", "--target", "alloy-best", *board_args, "--request", "analog,icu,pwm"],
         _lib_alloy_best("analog,icu,pwm")),
        (["graph", *board_args], _lib_graph()),
        (["merge", "--request", "analog,icu", "--request", "pwm,analog", "--format", "json"],
         _lib_merge("analog,icu", "pwm,analog")),
        (["diff", *board_args, "--request", MIXED, "--request", "analog,icu,pwm,serial-tx",
          "--format", "json"], _lib_diff(MIXED, "analog,icu,pwm,serial-tx")),
        (["bench", *board_args, "--request", MIXED, "--max-len", "6", "--format", "json"],
         _lib_bench(MIXED, 6)),
    ]
    ops: list[Op] = []
    for n, (argv, library) in enumerate(cases):
        name = f"cli#{n} {' '.join('demo' if a == DEMO_BOARD else a for a in argv)}"
        if library is None:
            ops.append(_huge_count_op(name, argv))
        else:
            ops.append(_cli_op(name, argv, expected))
            ops.append(_library_op(f"lib#{n} {argv[0]}", library, expected))

    def prepare():
        expected.update(load_expected("cli"))

    inputs = _digest(board_text, *(" ".join(argv) for argv, _ in cases))
    return Workload(ops, inputs, prepare)


def _run_cli(probe, argv, keep: bool):
    command = argv[0]
    out, err = Sink(keep), Sink(keep=True)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = probe.call("cli.run", cli.run, argv)
    finally:
        probe.add(f"cli.run.s.{command}", probe.last_s)
        probe.add("cli.stdout_bytes", out.nbytes)
    return code, out, err


def _cli_op(name, argv, expected) -> Op:
    command = argv[0]

    def run(probe):
        try:
            return _run_cli(probe, argv, keep=command == "bench")
        finally:
            probe.add("cli.paired_s", probe.last_s)

    def record(output):
        code, out, err = output
        if command == "bench" and code == 0:  # timings vary, and so does the length
            digest = hashlib.sha256(_without_timings(out.text()).encode()).hexdigest()
            return {"exit": code, "sha256": digest, "stderr": err.text()}
        return {"exit": code, "bytes": out.nbytes, "sha256": out.sha.hexdigest(), "stderr": err.text()}

    return Op(name, run, lambda output: _against_recording(expected, name, record(output)), record)


def _huge_count_op(name, argv) -> Op:
    """``count`` with thousands of functions: checked against the closed
    form, since no library call computes it today."""
    pins, functions = int(argv[2]), int(argv[4])

    def check(output):
        code, out, err = output
        if code != 0:
            return f"exit {code}: {err.text().strip()}"
        want = sum(
            math.comb(pins, k) * math.comb(k + functions - 1, functions - 1)
            for k in range(1, pins + 1)
        )
        got = json.loads(out.text())["count"]
        return None if got == want else f"count {got}, closed form {want}"

    known = "k_factor recurses once per function and raises RecursionError"
    return Op(name, lambda probe: _run_cli(probe, argv, keep=True), check, known=known)


def _library_op(name, library, expected) -> Op:
    """The library calls behind one subcommand, run on their own.

    Its time, subtracted from the subcommand's, is what argument parsing and
    rendering cost (cli.render_s). ``library(probe)`` makes the calls and
    returns a closure that, at check time, gives (recorded summary, problem).
    """

    def run(probe):
        start = perf_counter()
        try:
            return library(probe)
        finally:
            probe.add("cli.library_s", perf_counter() - start)

    def check(settle):
        summary, problem = settle()
        return problem or _against_recording(expected, name, summary)

    return Op(name, run, check, lambda settle: settle()[0])


def _sound(board, request, outcome) -> str | None:
    """An answer's own consistency: a valid assignment or a valid witness."""
    if isinstance(outcome, Infeasible):
        return reference.hall_recount(board, request, outcome.witness)
    return reference.check_valid(board, request, outcome)


def _emitted(output) -> list:
    return [output.items, output.nbytes, hashlib.sha256(output.text.encode()).hexdigest()]


def _lib_validate(text):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        rejection = probe.call("request.quick_reject", quick_reject, board, request)
        pins, max_cost, kinds = board_stats(board)
        return lambda: ([pins, max_cost, sorted(kinds), rejection and rejection.reason], None)

    return run


def _lib_solve(text):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        outcome, *again = [probe.verdict(find_feasible, board, request) for _ in range(DEMO_ASKS)]
        probe.deliver(DEMO_ASKS, sum(s for _, s in probe.verdicts[-DEMO_ASKS:]))

        def settle():
            if any(other != outcome for other in again):
                return _answer(outcome), "the same question got different answers"
            return _answer(outcome), _sound(board, request, outcome)

        return settle

    return run


def _lib_enumerate(text, options):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        count, _, digest = probe.stream(
            "solver.enumerate_all", enumerate_all, board, request, options, read=True
        )
        probe.deliver(count, probe.last_s)
        return lambda: ([count, digest], None)

    return run


def _lib_best(text):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        outcome = probe.call("solver.find_best", find_best, board, request)
        return lambda: (_answer(outcome), _sound(board, request, outcome))

    return run


def _lib_count(pins, functions, max_len):
    def run(probe):
        count = probe.call("counting.config_space", config_space, pins, functions, max_len)
        return lambda: (count, None)

    return run


def _lib_count_board():
    def run(probe):
        board, _ = _read_board(probe)
        count = probe.call("counting.config_space_board", config_space_board, board)
        return lambda: (count, None)

    return run


def _lib_prolog(max_len):
    def run(probe):
        board, _ = _read_board(probe)
        sink = Sink()
        output = probe.call("codegen.emit_prolog", emit_prolog, board, max_len, sink=sink)
        probe.add("codegen.emit_prolog.facts", output.items)
        probe.add("codegen.emit_prolog.bytes", output.nbytes)

        def settle():
            problem = None if output.nbytes == sink.nbytes else "reported bytes differ from written"
            return [output.items, sink.nbytes, sink.sha.hexdigest()], problem

        return settle

    return run


def _lib_alloy_spec():
    def run(probe):
        board, _ = _read_board(probe)
        output = probe.call("codegen.emit_alloy", emit_alloy_spec, board)
        return lambda: (_emitted(output), None)

    return run


def _lib_alloy_assert(text):
    def run(probe):
        request = probe.call("request.parse_request", parse_request, text)
        output = probe.call("codegen.emit_alloy", emit_alloy_feasibility_assertion, request)
        return lambda: (_emitted(output), None)

    return run


def _lib_alloy_best(text):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        costs = [pin.cost for pin in board.pins]
        output = probe.call(
            "codegen.emit_alloy", emit_alloy_best_assertions, request, min(costs), max(costs)
        )
        return lambda: (_emitted(output), None)

    return run


def _lib_graph():
    def run(probe):
        board, _ = _read_board(probe)
        output = probe.call("codegen.emit_graph_dot", emit_graph_dot, board)
        return lambda: (_emitted(output), None)

    return run


def _lib_merge(a, b):
    def run(probe):
        first = probe.call("request.parse_request", parse_request, a)
        second = probe.call("request.parse_request", parse_request, b)
        merged = probe.call("configops.merge_requests", merge_requests, first, second)

        def settle():
            problem = None
            if sorted(merged.slots) != sorted(first.slots + second.slots):
                problem = "merge is not the multiset sum"
            return list(merged.canonical), problem

        return settle

    return run


def _lib_diff(a, b):
    def run(probe):
        board, _ = _read_board(probe)
        old, new = [
            probe.call(
                "solver.find_best",
                find_best,
                board,
                probe.call("request.parse_request", parse_request, text),
            )
            for text in (a, b)
        ]
        diff = probe.call("configops.diff_assignments", diff_assignments, old, new)
        rebuilt = probe.call("configops.apply_diff", apply_diff, diff, old)

        def settle():
            problem = None
            if rebuilt.pin_entry_map() != new.pin_entry_map():
                problem = "applying the diff does not give the second assignment"
            summary = [[c.pin, c.old, c.new] for c in diff.pin_changes] + [diff.cost_delta]
            return json.loads(json.dumps(summary)), problem

        return settle

    return run


def _lib_bench(text, max_len):
    def run(probe):
        board, _ = _read_board(probe)
        request = probe.call("request.parse_request", parse_request, text)
        rows = probe.call("cli.bench", cli.bench, board, request, max_len)
        return lambda: (_without_timings(json.dumps({"rows": rows})), None)

    return run
