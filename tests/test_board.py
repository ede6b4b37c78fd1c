"""Board model: parsing, serialization round-trip, costs, stats."""

import pytest
from hypothesis import given, strategies as st

from pinassign import (
    Board,
    BoardParseError,
    FunctionEntry,
    Pin,
    board_stats,
    canonical_kind,
    cost_of,
    parse_board,
    serialize_board,
)

from conftest import TWO_PIN_TEXT


def test_reference_pins_have_expected_costs(two_pin_board):
    assert cost_of(two_pin_board, "PA1") == 3
    assert cost_of(two_pin_board, "PA2") == 4


def test_single_entry_pin_costs_one():
    board = parse_board("pin PB0 = PWM/TIM3_CH3")
    assert cost_of(board, "PB0") == 1


def test_cost_lookup_is_case_insensitive(two_pin_board):
    assert cost_of(two_pin_board, "pa1") == 3


def test_unknown_pin_raises(two_pin_board):
    with pytest.raises(KeyError):
        cost_of(two_pin_board, "PZ9")


def test_parse_preserves_declaration_order(two_pin_board):
    assert [p.id for p in two_pin_board.pins] == ["PA1", "PA2"]
    assert two_pin_board.pins[0].entries[0] == FunctionEntry("ANALOG", "ADC1_IN1")


def test_duplicate_pin_id_rejected_case_insensitively():
    with pytest.raises(BoardParseError, match="duplicate pin id"):
        parse_board("pin PA1 = ANALOG\npin pa1 = ICU")


def test_duplicate_entry_within_pin_rejected():
    with pytest.raises(BoardParseError, match="duplicate entry"):
        parse_board("pin PA1 = ANALOG/ADC1_IN1, ANALOG/ADC1_IN1")


def test_same_kind_distinct_details_allowed_and_counted():
    board = parse_board("pin PA1 = ICU/TIM2_CH2, ICU/TIM5_CH2")
    assert cost_of(board, "PA1") == 2


def test_empty_entry_list_rejected():
    with pytest.raises(BoardParseError, match="empty function entry"):
        parse_board("pin PA1 =")


def test_empty_entry_between_commas_rejected():
    with pytest.raises(BoardParseError, match="empty function entry"):
        parse_board("pin PA1 = ANALOG,,ICU")


def test_missing_equals_rejected():
    with pytest.raises(BoardParseError, match="expected '='"):
        parse_board("pin PA1 ANALOG")


def test_error_reports_line_and_column():
    with pytest.raises(BoardParseError) as exc:
        parse_board("pin PA1 = ANALOG\npin PA2 = 9bad")
    assert exc.value.line == 2
    assert exc.value.column == 11


def test_unrecognized_line_rejected():
    with pytest.raises(BoardParseError, match="expected 'pin' or 'board'"):
        parse_board("bogus line")


def test_header_must_come_first():
    with pytest.raises(BoardParseError, match="first significant line"):
        parse_board("pin PA1 = ANALOG\nboard late")


def test_comments_blanks_and_crlf():
    text = "# top comment\r\nboard demo\r\n\r\npin PA1 = ANALOG # trailing\r\n"
    board = parse_board(text)
    assert board.name == "demo"
    assert [p.id for p in board.pins] == ["PA1"]
    assert board.pins[0].entries == (FunctionEntry("ANALOG", "-"),)


def test_kind_canonicalization_in_parser():
    board = parse_board("pin PA1 = serial-tx/UART1_TX, icu")
    assert board.pins[0].kinds() == ("SERIAL_TX", "ICU")


def test_empty_board_is_parseable():
    board = parse_board("# nothing here\n")
    assert len(board) == 0


def test_board_stats_reference(two_pin_board):
    assert board_stats(two_pin_board) == (2, 4, {"ANALOG", "SERIAL_TX", "ICU"})


def test_board_stats_empty():
    assert board_stats(Board(())) == (0, 0, set())


def test_duplicate_pin_in_constructor_rejected():
    pin = Pin("PA1", (FunctionEntry("ANALOG"),))
    with pytest.raises(ValueError, match="duplicate pin id"):
        Board((pin, Pin("pa1", (FunctionEntry("ICU"),))))


@given(st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,10}", fullmatch=True))
def test_canonical_kind_is_idempotent(token):
    once = canonical_kind(token)
    assert canonical_kind(once) == once
    assert once == once.upper()
    assert "-" not in once


@pytest.mark.parametrize("bad", ["", "9abc", "a b", "a/b", "-x", "ß", "ﬁ", "ı"])
def test_invalid_kind_tokens_rejected(bad):
    with pytest.raises(ValueError):
        canonical_kind(bad)


_ids = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)
_kinds = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,6}", fullmatch=True)
_details = st.one_of(st.just("-"), st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True))


@st.composite
def boards(draw):
    ids = draw(
        st.lists(_ids, min_size=0, max_size=5, unique_by=lambda s: s.lower())
    )
    pins = []
    for pin_id in ids:
        raw = draw(st.lists(st.tuples(_kinds, _details), min_size=1, max_size=4))
        entries = []
        seen = set()
        for kind_token, detail in raw:
            entry = FunctionEntry(canonical_kind(kind_token), detail)
            if (entry.kind, entry.detail) in seen:
                continue
            seen.add((entry.kind, entry.detail))
            entries.append(entry)
        pins.append(Pin(pin_id, tuple(entries)))
    name = draw(
        st.one_of(
            st.none(),
            st.from_regex(r"[a-z]([a-z0-9 -]{0,10}[a-z0-9])?", fullmatch=True),
        )
    )
    return Board(tuple(pins), name)


@given(boards())
def test_serialize_parse_round_trip(board):
    reparsed = parse_board(serialize_board(board))
    assert reparsed == board


@given(boards())
def test_cost_equals_entry_count_everywhere(board):
    for pin in board.pins:
        assert cost_of(board, pin.id) == len(pin.entries) >= 1
