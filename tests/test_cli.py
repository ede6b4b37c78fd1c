"""CLI contract: exit codes, JSON shapes, determinism."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import (
    Board,
    FunctionEntry,
    Infeasible,
    Pin,
    SolveOptions,
    find_feasible,
    icu_channel_rule,
    parse_board,
    parse_request,
    serialize_board,
)
from pinassign.cli import run

from best_references import best_by_enumeration, best_by_threshold
from conftest import DEMO_BOARD_PATH, KIND_POOL, TWO_PIN_TEXT

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


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_solve_all_oracle_flag(two_pin_file, capsys):
    code = run(
        ["solve-all", "--board", two_pin_file, "--request", "analog,analog", "--oracle"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle check: ok" in out


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


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


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
        options = SolveOptions(rules=(icu_channel_rule(),) if rule else ())
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
