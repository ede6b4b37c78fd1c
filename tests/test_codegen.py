"""Emitters: golden lines, structural invariants, semantic fidelity."""

import hashlib
import io
import random
import re

import pytest

from pinassign import (
    Board,
    EmitterCapError,
    Request,
    Semantics,
    SolveOptions,
    Assignment,
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
    estimate_prolog_facts,
    find_best,
    parse_board,
    parse_request,
)
from pinassign.codegen import _check_balanced
from pinassign.oracle import realization_count

from conftest import random_board

PA1_SIGNATURE = """\
one sig PA1 extends Pin {} {
  conntype = ANALOG + ICU + ICU
  conn_detail = ADC1_IN1 + TIM2_CH2 + TIM5_CH2
  cost = 3}
"""

PA2_SIGNATURE = """\
one sig PA2 extends Pin {} {
  conntype = ANALOG + SERIAL_TX + ICU + ICU
  conn_detail = ADC1_IN2 + UART2_TX +
  TIM2_CH3 + TIM5_CH3
  cost = 4}
"""

FACT_RE = re.compile(
    r"config\(\[(?P<kinds>[^]]*)\],\[\[(?P<pins>[^]]*)\],(?P<cost>\d+)\]\)\.\Z"
)


def _read_facts(text):
    """Test-only fact reader: (kind tuple, pin tuple, cost) per config line."""
    facts = []
    for line in text.splitlines():
        match = FACT_RE.match(line.strip())
        if match:
            kinds = tuple(
                token.strip("'").replace("-", "_").upper()
                for token in match.group("kinds").split(",")
            )
            pins = tuple(t.strip("'") for t in match.group("pins").split(","))
            facts.append((kinds, pins, int(match.group("cost"))))
    return facts


# --- Prolog


def test_prolog_contains_reference_fact(two_pin_board):
    output = emit_prolog(two_pin_board, 2)
    assert "config([analog,analog],[[pa1,pa2],7])." in output.text.splitlines()


def test_prolog_single_pin_facts(two_pin_board):
    output = emit_prolog(two_pin_board, 1)
    lines = output.text.splitlines()
    assert "config([icu],[[pa1],3])." in lines
    assert "config([analog],[[pa2],4])." in lines
    # length-2 facts excluded at max_len 1
    assert not any(",pa2]" in line and "pa1," in line for line in lines)


def test_prolog_hyphenated_kinds_are_quoted(two_pin_board):
    output = emit_prolog(two_pin_board, 1)
    assert "config(['serial-tx'],[[pa2],4])." in output.text.splitlines()


def test_prolog_inference_rules_present(two_pin_board):
    text = emit_prolog(two_pin_board, 2).text
    assert "getConfig(RequiredConfiguration, Pair) :-" in text
    assert "msort(RequiredConfiguration, S)," in text
    assert "allConfigs(RequiredConfiguration, Set) :-" in text
    assert "cheapestConfig(R, Pins, Costs) :-" in text


def test_prolog_empty_board_emits_rules_only():
    output = emit_prolog(Board(()), 1)
    assert output.items == 0
    assert not any(line.startswith("config(") for line in output.text.splitlines())
    assert "getConfig" in output.text


def test_prolog_fact_count_matches_oracle():
    rng = random.Random(31)
    for _ in range(12):
        board = random_board(rng, max_pins=5, max_entries=3)
        max_len = rng.randint(1, 3)
        output = emit_prolog(board, max_len)
        assert output.items == realization_count(board, max_len)
        assert output.items == len(_read_facts(output.text))


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_prolog_fact_minimum_agrees_with_find_best():
    rng = random.Random(32)
    for _ in range(10):
        board = random_board(rng, max_pins=5, max_entries=3)
        max_len = rng.randint(1, 3)
        facts = _read_facts(emit_prolog(board, max_len).text)
        by_kinds = {}
        for kinds, pins, cost in facts:
            by_kinds.setdefault(kinds, []).append(cost)
        for kinds, costs in by_kinds.items():
            outcome = find_best(board, Request(kinds))
            assert isinstance(outcome, Assignment)
            assert outcome.total_cost == min(costs), (board, kinds)


def test_prolog_streaming_matches_materialized(two_pin_board):
    # a board name is free text and reaches the header: nbytes counts UTF-8
    # bytes, not characters ("ü" and "µ" take two bytes each)
    named = Board(two_pin_board.pins, "Prüfstand µC")
    for board in (two_pin_board, named):
        materialized = emit_prolog(board, 2)
        sink = io.StringIO()
        streamed = emit_prolog(board, 2, sink=sink)
        assert sink.getvalue() == materialized.text
        assert streamed.text == ""
        assert streamed.items == materialized.items
        assert streamed.nbytes == materialized.nbytes
        assert streamed.nbytes == len(sink.getvalue().encode("utf-8"))
        assert materialized.nbytes == len(materialized.text.encode("utf-8"))
    assert (streamed.nbytes, len(materialized.text)) == (993, 991)


@pytest.mark.parametrize(
    "max_len, facts, nbytes, sha256",
    [
        (3, 11_149, 572_126, "d2876d47c1709371f6c275325c62940ceac5d64470feeed9d7f541ed8f951454"),
        (4, 91_184, 5_751_884, "fbaf319e73aef7eb17141b5fe28fab3913b340b8a3b5430a87f83b7716ee34fd"),
    ],
    ids=["3", "4"],
)
def test_prolog_demo_fact_base_golden(demo_board, max_len, facts, nbytes, sha256):
    """The demo board's fact bases, byte for byte."""
    sink = io.StringIO()
    output = emit_prolog(demo_board, max_len, sink=sink)
    data = sink.getvalue().encode("utf-8")
    assert (output.items, output.nbytes, len(data)) == (facts, nbytes, nbytes)
    assert hashlib.sha256(data).hexdigest() == sha256
    if max_len == 3:
        assert emit_prolog(demo_board, max_len).text == sink.getvalue()


def test_prolog_facts_list_kinds_in_atom_order():
    """getConfig msorts the query, and the standard order compares atoms by
    character codes: 'can-tx' @< canx, since "-" (45) < "x" (120), although
    CAN_TX sorts after CANX by name ("_" is 95)."""
    board = parse_board("pin P1 = CAN_TX\npin P2 = CANX\n")
    output = emit_prolog(board, 2)
    assert "config(['can-tx',canx],[[p1,p2],2])." in output.text.splitlines()
    facts = _read_facts(output.text)
    assert (("CAN_TX", "CANX"), ("p1", "p2"), 2) in facts
    for kinds, _, _ in facts:
        atoms = [kind.lower().replace("_", "-") for kind in kinds]
        assert atoms == sorted(atoms)


def test_prolog_cap_refusal_reports_estimate(two_pin_board):
    with pytest.raises(EmitterCapError) as exc:
        emit_prolog(two_pin_board, 2, cap=3)
    assert exc.value.estimate >= 10
    # streaming ignores the cap
    sink = io.StringIO()
    assert emit_prolog(two_pin_board, 2, sink=sink, cap=3).items == 10


def test_prolog_estimate_upper_bounds_reality():
    rng = random.Random(33)
    for _ in range(10):
        board = random_board(rng, max_pins=5, max_entries=3)
        assert estimate_prolog_facts(board, 3) >= emit_prolog(board, 3).items


# --- Alloy instance model


def _tokens(text):
    return text.split()


def test_alloy_spec_reproduces_reference_signatures(two_pin_board):
    text = emit_alloy_spec(two_pin_board).text
    blocks = text.split("\n\n")
    pa1 = next(b for b in blocks if "sig PA1" in b)
    pa2 = next(b for b in blocks if "sig PA2" in b)
    assert _tokens(pa1) == _tokens(PA1_SIGNATURE)
    assert _tokens(pa2) == _tokens(PA2_SIGNATURE)


def test_alloy_spec_declares_metamodel(two_pin_board):
    text = emit_alloy_spec(two_pin_board).text
    assert "abstract sig Pin {" in text
    assert "abstract sig ConnType {}" in text
    assert "abstract sig ConnDetail {}" in text
    for kind in ("ANALOG", "ICU", "SERIAL_TX"):
        assert f"one sig {kind} extends ConnType {{}}" in text
    assert "one sig ADC1_IN1 extends ConnDetail {}" in text


def test_alloy_spec_single_entry_cost_one():
    board = parse_board("pin PB0 = ANALOG/ADC2_IN0")
    text = emit_alloy_spec(board).text
    assert "cost = 1}" in text


def test_alloy_spec_detail_free_pin_gets_empty_set():
    board = parse_board("pin PB0 = ANALOG")
    assert "conn_detail = none" in emit_alloy_spec(board).text


# --- Alloy assertions


def test_feasibility_assertion_two_analogs():
    output = emit_alloy_feasibility_assertion(parse_request("analog,analog"))
    expected = (
        "assert ANALOG_ANALOG {\n"
        "  all disj p1, p2:Pin |\n"
        "  not (\n"
        "    ANALOG in p1.conntype &&\n"
        "    ANALOG in p2.conntype\n"
        "  )}\n"
        "\n"
        "check ANALOG_ANALOG\n"
    )
    assert output.text == expected


def test_feasibility_assertion_single_slot_drops_disj():
    text = emit_alloy_feasibility_assertion(parse_request("icu")).text
    assert "all p1:Pin |" in text
    assert "disj" not in text


def test_feasibility_assertion_mixed_kinds():
    text = emit_alloy_feasibility_assertion(parse_request("analog,serial-tx")).text
    assert "ANALOG in p1.conntype" in text
    assert "SERIAL_TX in p2.conntype" in text


def test_feasibility_assertion_rejects_empty_request():
    with pytest.raises(ValueError):
        emit_alloy_feasibility_assertion(parse_request(""))


def test_best_assertions_cover_inclusive_cost_range():
    output = emit_alloy_best_assertions(parse_request("analog,analog"), 3, 4)
    bounds = re.findall(r"_COST_(\d+) \{", output.text)
    assert bounds == ["6", "7", "8"]
    assert output.items == 2 * (4 - 3) + 1


def test_best_assertions_single_slot_range():
    output = emit_alloy_best_assertions(parse_request("icu"), 2, 5)
    bounds = re.findall(r"_COST_(\d+) \{", output.text)
    assert bounds == ["2", "3", "4", "5"]


def test_best_assertions_cost_expression_shape():
    text = emit_alloy_best_assertions(parse_request("analog,analog"), 3, 4).text
    assert "p1.cost.add[p2.cost]<=7" in text


def test_best_assertions_bitwidth_covers_max_total():
    output = emit_alloy_best_assertions(parse_request("analog,analog,analog"), 2, 4)
    widths = {int(w) for w in re.findall(r"for (\d+) int", output.text)}
    assert len(widths) == 1
    width = widths.pop()
    assert 2 ** (width - 1) - 1 >= 3 * 4


DEMO_REQUEST = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"


@pytest.mark.parametrize(
    "request_text, items, nbytes, sha256",
    [
        (DEMO_REQUEST, 1, 526, "49cfd917a804f7233821214ae113ebe00f01a7de597fb818f341ffad941a0041"),
        ("analog,analog", 1, 136, "8d7971d11c39c1935d3053d6c56ff092cb6dac15f3b93a57cf83cf1a3accf7a5"),
        ("icu", 1, 75, "72cba1e8e3e6e09d8d3623dc10b03a074fdcbe641a341433c2b92f544bfaaf94"),
    ],
    ids=["demo-10", "two-analogs", "single-slot"],
)
def test_feasibility_assertion_golden(request_text, items, nbytes, sha256):
    output = emit_alloy_feasibility_assertion(parse_request(request_text))
    data = output.text.encode("utf-8")
    assert (output.kind, output.items, output.nbytes, len(data)) == (
        "alloy-assert", items, nbytes, nbytes
    )
    assert hashlib.sha256(data).hexdigest() == sha256


def test_best_assertions_golden(demo_board):
    costs = [pin.cost for pin in demo_board.pins]
    output = emit_alloy_best_assertions(parse_request("analog,icu,pwm"), min(costs), max(costs))
    data = output.text.encode("utf-8")
    assert (min(costs), max(costs)) == (2, 4)
    assert (output.kind, output.items, output.nbytes, len(data)) == ("alloy-assert", 7, 1646, 1646)
    assert hashlib.sha256(data).hexdigest() == (
        "977cb5b8734b2cae4e1aa7673a52bb6340b22197315ccf6c7a26c08d82483a95"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((parse_request(""), 0, 0), "best-cost assertions need a nonempty request"),
        ((parse_request(""), 1, 2), "best-cost assertions need a nonempty request"),
        ((parse_request("icu"), 0, 1), "need 0 < pc_min <= pc_max"),
        ((parse_request("icu"), 3, 2), "need 0 < pc_min <= pc_max"),
    ],
    ids=["empty-and-bad-bounds", "empty", "zero-min", "min-over-max"],
)
def test_best_assertions_error_messages(args, message):
    """The request is checked before the cost bounds."""
    with pytest.raises(ValueError) as exc:
        emit_alloy_best_assertions(*args)
    assert str(exc.value) == message


def test_feasibility_assertion_error_message():
    with pytest.raises(ValueError) as exc:
        emit_alloy_feasibility_assertion(parse_request(""))
    assert str(exc.value) == "feasibility assertion needs a nonempty request"


# --- DOT graph


def _dot_counts(text):
    nodes = len(re.findall(r"^\s+\w+ \[", text, flags=re.M))
    edges = len(re.findall(r"->", text))
    return nodes, edges


def test_dot_structure_two_pins(two_pin_board):
    output = emit_graph_dot(two_pin_board)
    nodes, edges = _dot_counts(output.text)
    assert nodes == 4
    assert edges == 2 * 1 + 2 * 2  # n*(n-1) + 2n for n=2
    assert "PA1 -> PA1" not in output.text
    assert "n_B -> n_E" not in output.text
    assert output.items == nodes + edges


def test_dot_empty_board():
    output = emit_graph_dot(Board(()))
    nodes, edges = _dot_counts(output.text)
    assert nodes == 2
    assert edges == 1
    assert "n_B -> n_E;" in output.text
    assert output.items == nodes + edges


def test_dot_counts_formula_on_random_boards():
    rng = random.Random(34)
    for _ in range(8):
        board = random_board(rng, max_pins=6)
        n = len(board)
        output = emit_graph_dot(board)
        nodes, edges = _dot_counts(output.text)
        assert nodes == n + 2
        assert edges == n * (n - 1) + 2 * n
        assert output.items == nodes + edges


def test_dot_labels_list_entries(two_pin_board):
    text = emit_graph_dot(two_pin_board).text
    assert 'label="PA1\\nANALOG/ADC1_IN1\\nICU/TIM2_CH2\\nICU/TIM5_CH2"' in text


# --- self-check


@pytest.mark.parametrize(
    "text, comment",
    [
        ("a) b\n", None),  # stray closer
        ("f(a]\n", None),  # mismatched pair
        ("{ (x)\n", None),  # unclosed opener
        ("g('a(b)\n", None),  # unterminated quote
        ('x "a\n" y\n', None),  # a quote never spans lines
        ("% fine (\n[x\n", "%"),  # a comment hides nothing after it
        ("  // (\n)\n", "//"),
        ("% (\n", None),  # without a marker no line is a comment
    ],
    ids=[
        "stray",
        "mismatched",
        "unclosed",
        "quote",
        "quote-newline",
        "open-after",
        "close-after",
        "no-marker",
    ],
)
def test_check_balanced_rejects(text, comment):
    with pytest.raises(AssertionError):
        _check_balanced(text, comment)


@pytest.mark.parametrize(
    "text, comment",
    [
        ("f(a, [b, {c}]).\n", None),
        ("atom('(]', \"}\").\n", None),  # delimiters inside quotes are text
        ("x(\"it's\")\n", None),  # the other quote character is text too
        ("% board 'µC ( [\n  %' ]\nok(1).\n", "%"),  # comment lines are skipped
        ("// sig ( \"\n  //'\nsig {}\n", "//"),
        ("a % not a comment ()\n", "%"),  # only a leading marker starts one
        ("", None),
    ],
    ids=["nested", "quoted", "other-quote", "prolog-comment", "alloy-comment", "inline", "empty"],
)
def test_check_balanced_accepts(text, comment):
    _check_balanced(text, comment)
