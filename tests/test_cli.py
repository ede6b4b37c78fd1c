"""CLI contract: exit codes, JSON shapes, determinism."""

import argparse
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import (
    Board,
    BoardParseError,
    FunctionEntry,
    Infeasible,
    Pin,
    Semantics,
    SolveOptions,
    enumerate_all,
    find_feasible,
    parse_board,
    parse_request,
    serialize_board,
)
from pinassign import cli
from pinassign.cli import run

from best_references import best_by_enumeration, best_by_threshold
from conftest import DEMO_BOARD_PATH, KIND_POOL, TWO_PIN_TEXT, instance_family

DEMO = str(DEMO_BOARD_PATH)


@pytest.fixture
def two_pin_file(tmp_path):
    path = tmp_path / "two.pins"
    path.write_text(TWO_PIN_TEXT, encoding="utf-8")
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_solve_feasible_exit_and_text(two_pin_file, capsys):
    code = run(["solve", "--board", two_pin_file, "--request", "analog,analog"])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible, cost 7" in out
    assert "PA1" in out and "PA2" in out


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_solve_json_round_trips(two_pin_file, capsys):
    code = run(
        ["solve", "--board", two_pin_file, "--request", "analog,analog", "--format", "json"]
    )
    doc = _json_out(capsys)
    assert code == 0
    assert doc["status"] == "feasible"
    assert doc["cost"] == 7
    assert doc["assignment"] == [
        {"slot": 0, "kind": "ANALOG", "pin": "PA1", "detail": "ADC1_IN1"},
        {"slot": 1, "kind": "ANALOG", "pin": "PA2", "detail": "ADC1_IN2"},
    ]


def test_solve_infeasible_exit_and_reason(two_pin_file, capsys):
    code = run(
        ["solve", "--board", two_pin_file, "--request", "can-tx", "--format", "json"]
    )
    doc = _json_out(capsys)
    assert code == 1
    assert doc["status"] == "infeasible"
    assert doc["reason"] == "kind-unsupported"
    assert doc["witness"]["kinds"] == ["CAN_TX"]


def test_count_formula_mode(capsys):
    assert run(["count", "--pins", "6", "--functions", "4", "--max-len", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1519"
    assert run(["count", "--pins", "16", "--functions", "20"]) == 0
    assert capsys.readouterr().out.strip() == "1099126862792"


def test_count_formula_mode_thousands_of_functions(capsys):
    argv = ["count", "--pins", "50", "--functions", "3000", "--format", "json"]
    assert run(argv) == 0
    closed_form = sum(math.comb(50, k) * math.comb(k + 2999, 2999) for k in range(1, 51))
    assert _json_out(capsys)["count"] == closed_form


def test_count_board_mode(two_pin_file, capsys):
    assert run(["count", "--board", two_pin_file]) == 0
    assert capsys.readouterr().out.strip() == "19"


def test_count_needs_arguments(capsys):
    assert run(["count"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_solve_all_labeled_counts(two_pin_file, capsys):
    code = run(
        [
            "solve-all",
            "--board",
            two_pin_file,
            "--request",
            "analog,analog",
            "--semantics",
            "labeled",
            "--format",
            "json",
        ]
    )
    doc = _json_out(capsys)
    assert code == 0
    assert doc["count"] == 2
    assert doc["costs"] == [7, 7]


def test_solve_best_strategies_match(two_pin_file, capsys):
    code = run(["solve-best", "--board", two_pin_file, "--request", "icu", "--format", "json"])
    assert code == 0
    doc = _json_out(capsys)
    assert doc["cost"] == 3
    board, request = parse_board(TWO_PIN_TEXT), parse_request("icu")
    for reference in (best_by_threshold, best_by_enumeration):
        expected = reference(board, request)
        assert [row["pin"] for row in doc["assignment"]] == [b.pin for b in expected.bindings]
        assert doc["cost"] == expected.total_cost


def test_every_subcommand_binds_a_handler():
    # run() calls the handler its subparser binds; one without would escape
    # the exit contract as an AttributeError.
    parser = cli._build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subcommands.choices) == 10
    for name, subparser in subcommands.choices.items():
        assert callable(subparser.get_default("run")), name


def test_solve_and_solve_best_pick_their_solvers(capsys):
    # the demo board's first CAN_TX pin costs 4, its cheapest one 2
    costs = []
    for command in ("solve", "solve-best"):
        assert run([command, "--board", DEMO, "--request", "can-tx", "--format", "json"]) == 0
        costs.append(_json_out(capsys)["cost"])
    assert costs == [4, 2]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_solve_best_with_rule(two_pin_file, capsys):
    code = run(
        [
            "solve-best",
            "--board",
            two_pin_file,
            "--request",
            "icu,icu",
            "--rule",
            "icu-ch12",
            "--format",
            "json",
        ]
    )
    doc = _json_out(capsys)
    # PA2's ICU details are channel 3, so two ICUs are impossible under the rule
    assert code == 1
    assert doc["status"] == "infeasible"


def test_validate_board_and_request(two_pin_file, capsys):
    code = run(["validate", "--board", two_pin_file, "--request", "analog,analog"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pins: 2" in out
    assert "no obstruction" in out


def test_validate_quick_rejects(two_pin_file, capsys):
    code = run(["validate", "--board", two_pin_file, "--request", "can-tx"])
    assert code == 1
    assert "rejected" in capsys.readouterr().out


def test_validate_bad_board_file(tmp_path, capsys):
    path = tmp_path / "bad.pins"
    path.write_text("pin PA1 = \n", encoding="utf-8")
    assert run(["validate", "--board", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_board_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.pins"
    path.write_text("board demo\npin PA1 = ANALOG\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(["validate", "--board", str(path)]) == 0
    assert capsys.readouterr().out.startswith("board: demo\npins: 1,")


def test_validate_reads_a_crlf_board(tmp_path, capsys):
    path = tmp_path / "crlf.pins"
    path.write_bytes(b"board demo\r\npin PA1 = ANALOG\r\npin PA2 = ICU\r\n")
    assert run(["validate", "--board", str(path)]) == 0
    assert capsys.readouterr().out.startswith("board: demo\npins: 2,")


def test_lone_carriage_return_is_no_line_break_for_the_cli(tmp_path, capsys):
    """The CLI splits a board file's lines as parse_board does, so a lone
    \\r stays in the header line and the name refuses it."""
    text = "board a\rpin PA1 = ANALOG\n"
    path = tmp_path / "cr.pins"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(BoardParseError) as exc:
        parse_board(text)
    assert run(["validate", "--board", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"
    assert captured.err == "error: line 1, column 8: carriage return in board name\n"


@pytest.mark.parametrize(
    "command, text, error",
    [
        (["graph"], "pin Node = ANALOG\n", "pin id 'Node' is a DOT keyword"),
        (["graph"], "pin n_B = ANALOG\n", "pin id 'n_B' is a DOT keyword"),
        (["emit", "--target", "alloy-spec"], "pin PA1 = ANALOG\npin ANALOG = PWM\n", "'ANALOG'"),
        (["emit", "--target", "alloy-spec"], "pin PA1 = PWM/0\n", "detail '0' must start"),
    ],
    ids=["dot-keyword", "dot-virtual-node", "alloy-twice", "alloy-digit"],
)
def test_refused_board_is_an_error(tmp_path, capsys, command, text, error):
    path = tmp_path / "board.pins"
    path.write_bytes(text.encode("utf-8"))
    assert run([*command, "--board", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and error in captured.err


def test_missing_board_file_is_io_error(capsys):
    assert run(["solve", "--board", "/nonexistent.pins", "--request", "analog"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_request_is_usage_error(two_pin_file, capsys):
    assert run(["solve", "--board", two_pin_file, "--request", "analog,,icu"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_emit_prolog_to_stdout(two_pin_file, capsys):
    code = run(["emit", "--target", "prolog", "--board", two_pin_file, "--max-len", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "config([analog,analog],[[pa1,pa2],7])." in out


def test_emit_prolog_to_file(two_pin_file, tmp_path, capsys):
    target = tmp_path / "model.pl"
    code = run(
        [
            "emit",
            "--target",
            "prolog",
            "--board",
            two_pin_file,
            "--max-len",
            "2",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    assert "wrote 10 facts" in capsys.readouterr().out
    assert "getConfig" in target.read_text(encoding="utf-8")


def test_failed_prolog_emit_leaves_out_file_intact(tmp_path, capsys):
    target = tmp_path / "f.pl"
    target.write_bytes(b"% kept\n")
    for argv, error in [
        (["--target", "prolog", "--max-len", "0"], "max_len must be positive"),
        (["--target", "alloy-spec", "--max-len", "2"], "--target alloy-spec does not take --max-len"),
    ]:
        assert run(["emit", *argv, "--board", DEMO, "--out", str(target)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert target.read_bytes() == b"% kept\n"


def test_emit_alloy_spec(two_pin_file, capsys):
    assert run(["emit", "--target", "alloy-spec", "--board", two_pin_file]) == 0
    assert "one sig PA1 extends Pin {} {" in capsys.readouterr().out


def test_emit_alloy_assert(capsys):
    assert run(["emit", "--target", "alloy-assert", "--request", "analog,analog"]) == 0
    assert "assert ANALOG_ANALOG" in capsys.readouterr().out


def test_emit_alloy_best(two_pin_file, capsys):
    code = run(
        ["emit", "--target", "alloy-best", "--board", two_pin_file, "--request", "analog,analog"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p1.cost.add[p2.cost]<=7" in out


def test_emit_missing_flags(capsys):
    assert run(["emit", "--target", "prolog"]) == 2
    capsys.readouterr()
    assert run(["emit", "--target", "alloy-assert", "--board", "x"]) == 2


def test_graph_dot(two_pin_file, capsys):
    assert run(["graph", "--board", two_pin_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "PA1 -> PA2;" in out


def test_merge_requests_cli(capsys):
    code = run(["merge", "--request", "icu,analog", "--request", "analog"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ANALOG,ANALOG,ICU"


def test_diff_cli(two_pin_file, capsys):
    code = run(
        [
            "diff",
            "--board",
            two_pin_file,
            "--request",
            "analog",
            "--request",
            "icu",
            "--format",
            "json",
        ]
    )
    doc = _json_out(capsys)
    assert code == 0
    assert doc["cost_delta"] == 0  # both solutions use PA1 (cost 3)
    assert doc["added_kinds"] == ["ICU"]
    assert doc["removed_kinds"] == ["ANALOG"]


def test_diff_needs_two_requests(two_pin_file, capsys):
    assert run(["diff", "--board", two_pin_file, "--request", "analog"]) == 2


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_bench_rows_and_columns(two_pin_file, capsys):
    code = run(
        [
            "bench",
            "--board",
            two_pin_file,
            "--request",
            "analog,analog",
            "--format",
            "json",
        ]
    )
    doc = _json_out(capsys)
    assert code == 0
    rows = doc["rows"]
    assert [r["length"] for r in rows] == [1, 2]
    for row in rows:
        for key in (
            "count_pinsets",
            "count_labeled",
            "first_cost",
            "best_cost",
            "t_feasible",
            "t_all",
            "t_best",
        ):
            assert key in row
    assert rows[1]["count_labeled"] == 2


def test_bench_infeasible_row_shows_dashes(two_pin_file, capsys):
    code = run(["bench", "--board", two_pin_file, "--request", "can-tx"])
    out = capsys.readouterr().out
    assert code == 0
    line = out.splitlines()[1]
    assert " - " in f"{line} "
    assert line.split()[1:3] == ["0", "0"]


@pytest.mark.parametrize("max_len", ["3", "0", "-1"])
def test_bench_max_len_bound(two_pin_file, capsys, max_len):
    assert run(["bench", "--board", two_pin_file, "--request", "icu", "--max-len", max_len]) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bench_error_row_is_printed_then_exits_2(monkeypatch, capsys, fmt):
    """A length that raises keeps its row and the rest of the table, and the
    run then exits 2 like any other error."""

    def find_best(board, request, options):
        if request.length >= 2:
            raise RecursionError("maximum recursion depth exceeded")
        return solve_best(board, request, options)

    solve_best = cli.find_best
    monkeypatch.setattr(cli, "find_best", find_best)
    argv = ["bench", "--board", DEMO, "--request", "analog,icu,pwm", "--format", fmt]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    error = "maximum recursion depth exceeded"
    if fmt == "json":
        rows = json.loads(captured.out)["rows"]
        assert [row.get("error") for row in rows] == [None, error, error]
        assert rows[0]["best_cost"] is not None
    else:
        lines = captured.out.splitlines()
        assert len(lines) == 4
        assert lines[2:] == [f"     2 error: {error}", f"     3 error: {error}"]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_bench_ten_rows_on_demo_board(capsys):
    request = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    code = run(["bench", "--board", DEMO, "--request", request, "--format", "json"])
    doc = _json_out(capsys)
    assert code == 0
    rows = doc["rows"]
    assert [r["length"] for r in rows] == list(range(1, 11))
    assert all(r["first_cost"] is not None for r in rows)
    assert all(r["best_cost"] <= r["first_cost"] for r in rows)


def test_solve_empty_request_is_feasible(two_pin_file, capsys):
    code = run(["solve", "--board", two_pin_file, "--request", "", "--format", "json"])
    doc = _json_out(capsys)
    assert code == 0
    assert doc == {"status": "feasible", "assignment": [], "cost": 0}


def test_repeat_invocations_byte_identical(two_pin_file, capsys):
    argv = ["solve", "--board", two_pin_file, "--request", "icu", "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def _solve_all_argv(board_file, request, semantics, fmt, rule=False) -> list[str]:
    argv = ["solve-all", "--board", board_file, "--request", request]
    argv += ["--semantics", semantics, "--format", fmt]
    return argv + ["--rule", "icu-ch12"] if rule else argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_all_cap_is_checked_before_any_byte(fmt, capsys):
    """A cap equal to the count gives the whole report; one less gives the
    cap error and no stdout at all, since the count pass comes first."""
    argv = _solve_all_argv(DEMO, "analog,icu,pwm", "labeled", fmt)
    assert run(argv) == 0
    full = capsys.readouterr().out
    count = int(full.split()[0]) if fmt == "text" else json.loads(full)["count"]
    assert count == 404
    assert run([*argv, "--cap", str(count)]) == 0
    assert capsys.readouterr().out == full
    assert run([*argv, "--cap", str(count - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: more than {count - 1} solutions; raise --cap to list them all\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_all_streams_twice(monkeypatch, capsys, fmt):
    """One stream counts the solutions (and, for JSON, keeps their costs),
    one writes them; the JSON costs are not streamed a third time."""
    streams = []

    def counted(board, request, options):
        streams.append(request)
        return solve_all(board, request, options)

    solve_all = cli.iter_assignments
    monkeypatch.setattr(cli, "iter_assignments", counted)
    assert run(_solve_all_argv(DEMO, "analog,icu,pwm", "labeled", fmt)) == 0
    assert len(streams) == 2
    if fmt == "json":
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["costs"]) == len(doc["assignments"]) == doc["count"] == 404


@pytest.mark.parametrize(
    "fmt, report",
    [
        ("text", "0 solutions (pinsets)\n"),
        (
            "json",
            '{\n  "status": "infeasible",\n  "semantics": "pinsets",\n  "count": 0,\n'
            '  "assignments": [],\n  "costs": []\n}\n',
        ),
    ],
)
def test_solve_all_cap_zero_on_an_infeasible_request(two_pin_file, capsys, fmt, report):
    assert run(_solve_all_argv(two_pin_file, "can-tx", "pinsets", fmt) + ["--cap", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (report, "")


def _reference_solve_all(board, request, semantics, rules, fmt) -> str:
    """solve-all's report as the CLI wrote it before it streamed: the whole
    list of solutions, then the whole document or the whole text."""
    options = SolveOptions(Semantics(semantics), rules)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assignments = enumerate_all(board, request, options)
    if fmt == "json":
        doc = {
            "status": "feasible" if assignments else "infeasible",
            "semantics": semantics,
            "count": len(assignments),
            "assignments": [
                [
                    {"slot": b.slot, "kind": b.kind, "pin": b.pin, "detail": b.detail}
                    for b in a.bindings
                ]
                for a in assignments
            ],
            "costs": [a.total_cost for a in assignments],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{len(assignments)} solutions ({semantics})"]
    for n, a in enumerate(assignments, start=1):
        pins = ", ".join(f"{b.pin}:{b.kind}/{b.detail}" for b in a.bindings)
        lines.append(f"  [{n}] cost {a.total_cost}: {pins}")
    return "\n".join(lines) + "\n"


def test_solve_all_writes_the_bytes_of_the_whole_document(tmp_path):
    """The streamed report equals the one built whole, on the seeded family,
    under both semantics, in both formats, with and without a rule."""
    seen = {"empty": 0, "infeasible": 0, "rule changes the report": 0}
    for n, (board, request) in enumerate(instance_family(seed=2024, count=220)):
        path = tmp_path / f"{n}.pins"
        path.write_text(serialize_board(board), encoding="utf-8")
        text = ",".join(request.slots)
        reports = {}
        for rules in ((), ("icu-ch12",)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outcome = find_feasible(board, request, SolveOptions(rules=rules))
            seen["infeasible"] += isinstance(outcome, Infeasible)
            for semantics in ("pinsets", "labeled"):
                for fmt in ("text", "json"):
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = run(_solve_all_argv(str(path), text, semantics, fmt, bool(rules)))
                    want = _reference_solve_all(board, request, semantics, rules, fmt)
                    assert out.getvalue() == want, (n, semantics, fmt, rules)
                    assert code == (1 if isinstance(outcome, Infeasible) else 0)
                    reports[rules, semantics, fmt] = want
        seen["empty"] += request.length == 0
        seen["rule changes the report"] += reports[(), "labeled", "json"] != reports[
            ("icu-ch12",), "labeled", "json"
        ]
    assert all(seen.values()), seen


class _ByteCount:
    """A stdout that keeps only the number of characters written and the
    first piece."""

    def __init__(self):
        self.size = 0
        self.first = None

    def write(self, text: str) -> int:
        self.first = text if self.first is None else self.first
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_solve_all_streams_in_bounded_memory():
    """Seven times as many solutions take only their costs' memory, 8 bytes
    a solution: the traced peaks of the demo's labeled 7- and 9-slot
    reports (10,680 and 75,120 solutions, 8.7 and 78 MB of JSON) differ by
    8 bytes for each of the 64,440 more solutions, within 128 KiB."""
    mixed = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx".split(",")
    peaks = []
    for length, count, size in ((7, 10_680, 8_669_871), (9, 75_120, 78_137_511)):
        sink = _ByteCount()
        argv = _solve_all_argv(DEMO, ",".join(mixed[:length]), "labeled", "json")
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                assert run(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert f'"count": {count},' in sink.first
        assert sink.size == size
    assert abs(peaks[1] - peaks[0] - 8 * (75_120 - 10_680)) < 1 << 17, peaks


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_importing_the_package_builds_no_parser():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import pinassign; from pinassign import cli; print(cli._build_parser.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "0\n"


def test_golden_rows_forward_then_reverse_share_one_parser(tmp_path, monkeypatch):
    """Each golden row gives its recorded exit, digest and error lines
    whatever ran before it in the process, every row in its own directory."""
    from test_cli_golden import BOARDS, GOLDEN, _observe

    for n, (argv, code, digest, error) in enumerate(GOLDEN + GOLDEN[::-1]):
        directory = tmp_path / str(n)
        directory.mkdir()
        for name, text in BOARDS.items():
            (directory / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(directory)
        assert _observe(argv, directory) == (code, digest, error), argv


def test_rule_does_not_stick_to_the_shared_parser(capsys):
    argv = ["solve", "--board", DEMO, "--request", "icu,icu,analog", "--format", "json"]
    assert run([*argv, "--rule", "icu-ch12"]) == 0
    assert _json_out(capsys)["cost"] == 8
    assert run(argv) == 0
    assert _json_out(capsys)["cost"] == 10
    assert cli._build_parser().parse_args(argv).rule == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_repeated_rule_prints_what_the_rule_prints_once(capsys, fmt):
    """--rule names a set of rules: icu-ch12 given twice prints solve-best's
    and labeled solve-all's reports byte for byte as given once, and the
    rule changes both reports."""
    request = "icu,icu,icu"
    for argv in (
        ["solve-best", "--board", DEMO, "--request", request, "--format", fmt],
        _solve_all_argv(DEMO, request, "labeled", fmt),
    ):
        outs = []
        for rules in ([], ["--rule", "icu-ch12"], ["--rule", "icu-ch12"] * 2):
            assert run([*argv, *rules]) == 0
            outs.append(capsys.readouterr().out)
        unruled, once, twice = outs
        assert twice == once != unruled, argv


def test_usage_errors_and_help_leave_the_shared_parser_working(capsys):
    cli._build_parser()
    assert run(["solve"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["merge", "--request", "icu", "--request", "analog"]) == 0
    assert capsys.readouterr().out == "ANALOG,ICU\n"


def _whole_int(text: str) -> int:
    """int(text) past the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_prints_every_digit(capsys, fmt):
    # (n + 2) * 2**(n - 1) - 1 configurations, 4,520 digits at n = 15,000
    limit = sys.get_int_max_str_digits()
    assert run(["count", "--pins", "15000", "--functions", "2", "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    printed = out if fmt == "text" else re.search(r'"count": (\d+)', out).group(1)
    assert len(printed.strip()) == 4520
    assert _whole_int(printed) == 15002 * 2**14999 - 1


def test_count_board_prints_every_digit(tmp_path, capsys):
    # 4,400 pins of 9 entries each: 10**4400 - 1 configurations
    entries = ", ".join(f"K{k}" for k in range(9))
    path = tmp_path / "huge.pins"
    path.write_text("".join(f"pin P{n} = {entries}\n" for n in range(4400)), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert run(["count", "--board", str(path)]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().out == "9" * 4400 + "\n"


ALL_PINS_USED = (
    "warning: request length equals the board's pin count; "
    "an assignment would leave no pin free"
)


@pytest.mark.parametrize("action", ["default", "ignore", "error"])
@pytest.mark.parametrize(
    "command, shown",
    [
        (["solve"], "feasible, cost 7"),
        (["bench"], "     2        1        2      7      7"),
        (["solve-all"], "  [1] cost 7: PA1:ANALOG/ADC1_IN1, PA2:ANALOG/ADC1_IN2"),
        (["solve-all", "--format", "json"], '"costs": [\n    7\n  ]'),
    ],
    ids=["solve", "bench", "solve-all-text", "solve-all-json"],
)
def test_all_pins_used_is_one_warning_line(two_pin_file, capsys, action, command, shown):
    """Whatever the warning filters say, a full-board request gets one
    warning line and no traceback. bench solves that request four times,
    and solve-all twice (count and costs, then assignments)."""
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code = run([*command, "--board", two_pin_file, "--request", "analog,analog"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines() == [ALL_PINS_USED]
    assert shown in captured.out


def test_all_pins_used_under_python_w_error(two_pin_file):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["solve", "--board", two_pin_file, "--request", "analog,analog"]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pinassign", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (result.returncode, result.stderr.splitlines()) == (0, [ALL_PINS_USED])
    assert "feasible, cost 7" in result.stdout


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_recursion_limit_is_an_error_not_a_verdict(tmp_path, capsys):
    # pin P<j> offers K<j> and K<j+1>: augmenting paths grow as long as the
    # request, deeper than the recursive matching can follow
    n = 1200
    path = tmp_path / "chain.pins"
    path.write_text("".join(f"pin P{j} = K{j}, K{j + 1}\n" for j in range(n)), encoding="utf-8")
    request = ",".join(f"K{j}" for j in range(n))
    assert run(["solve", "--board", str(path), "--request", request]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


_KINDS = st.sampled_from(KIND_POOL)


@st.composite
def _boards(draw):
    pins = []
    for i in range(draw(st.integers(0, 5))):
        entries = draw(
            st.lists(
                st.tuples(_KINDS, st.sampled_from(["-", "D1", "TIM2_CH1", "TIM3_CH3"])),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        pins.append(Pin(f"P{i}", tuple(FunctionEntry(k, d) for k, d in entries)))
    name = draw(st.sampled_from([None, "demo", "Prüfstand µC"]))
    return Board(tuple(pins), name)


_NUMBERS = st.integers(-2, 3)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
@settings(max_examples=250, deadline=None)
@given(
    board=_boards(),
    command=st.sampled_from(
        ["solve", "solve-best", "solve-all", "validate", "bench", "diff"]
        + ["emit", "graph", "count", "merge"]
    ),
    requests=st.lists(st.lists(_KINDS, max_size=5).map(",".join), min_size=2, max_size=2),
    rule=st.booleans(),
    number=_NUMBERS,
    fmt=st.sampled_from(["text", "json"]),
    data=st.data(),
)
def test_exit_contract_property(board, command, requests, rule, number, fmt, data):
    """Every run exits 0, 1 or 2 without a traceback; solve and solve-best
    exit 1 exactly when the instance is infeasible."""
    with_board = True
    if command == "emit":
        targets = st.sampled_from(["prolog", "alloy-spec", "alloy-assert", "alloy-best"])
        argv = [command, "--target", data.draw(targets), "--max-len", str(number)]
        if data.draw(st.booleans(), label="with --request"):
            argv += ["--request", requests[0]]
        with_board = data.draw(st.booleans(), label="with --board")
    elif command == "graph":
        argv = [command]
    elif command == "count":
        # board mode, formula mode, both, or neither (an error)
        argv = [command, "--format", fmt]
        for flag in ("--pins", "--functions", "--max-len"):
            if data.draw(st.booleans(), label=f"with {flag}"):
                argv += [flag, str(data.draw(_NUMBERS, label=flag))]
        with_board = data.draw(st.booleans(), label="with --board")
    elif command == "merge":
        with_board = False
        argv = [command, "--format", fmt, "--request", requests[0], "--request", requests[1]]
    else:
        argv = [command, "--request", requests[0], "--format", fmt]
        if command == "diff":
            argv += ["--request", requests[1]]
        elif command == "solve-all":
            argv += ["--cap", str(number)]
        elif command == "bench":
            argv += ["--max-len", str(number)]
        if rule and command != "validate":
            argv += ["--rule", "icu-ch12"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "board.pins"
        path.write_text(serialize_board(board), encoding="utf-8")
        if with_board:
            argv += ["--board", str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if command in ("solve", "solve-best"):
        options = SolveOptions(rules=("icu-ch12",) if rule else ())
        verdict = find_feasible(board, parse_request(requests[0]), options)
        assert (code == 1) == isinstance(verdict, Infeasible)


@settings(max_examples=60, deadline=None)
@given(board=_boards())
def test_serialized_board_round_trips_through_validate(board):
    """serialize_board's text parses back to the same board, and validate
    reports that board's name, size and kinds."""
    text = serialize_board(board)
    assert parse_board(text) == board
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "board.pins"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(out):
            assert run(["validate", "--board", str(path), "--format", "json"]) == 0
    assert json.loads(out.getvalue()) == {
        "board": board.name,
        "pins": len(board.pins),
        "max_entries_per_pin": max((pin.cost for pin in board.pins), default=0),
        "kinds": sorted({kind for pin in board.pins for kind in pin.kinds()}),
    }


README_PATH = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """Every `pinassign ...` line of README's sh blocks, continuations joined."""
    text = README_PATH.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("pinassign "):
                commands.append(line.strip())
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """The README's commands run as written, from a checkout-like directory
    (boards/ beside an existing out/), and a `# -> value` comment is what the
    command prints. A README that shows a removed flag fails here."""
    (tmp_path / "boards").mkdir()
    shutil.copy(DEMO_BOARD_PATH, tmp_path / "boards")
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 21
    documented = {}
    for line in commands:
        code = run(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        shown = re.search(r"#\s*->\s*(\S+)", line)
        if shown:
            assert out.strip() == shown.group(1), line
            documented[line.partition("#")[0].strip()] = out.strip()
    assert documented["pinassign count --pins 16 --functions 20"] == "1099126862792"
