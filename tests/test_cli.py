"""CLI contract: exit codes, JSON shapes, determinism."""

import json
import math

import pytest

from pinassign import parse_board, parse_request
from pinassign.cli import run

from best_references import best_by_enumeration, best_by_threshold
from conftest import DEMO_BOARD_PATH, TWO_PIN_TEXT

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


def test_bench_max_len_bound(two_pin_file, capsys):
    assert run(["bench", "--board", two_pin_file, "--request", "icu", "--max-len", "3"]) == 2


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
