"""Board model: parsing, serialization round-trip, costs, stats."""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import board as board_module
from pinassign import (
    Board,
    BoardParseError,
    FunctionEntry,
    Pin,
    board_stats,
    canonical_kind,
    parse_board,
    serialize_board,
)

from conftest import (
    BLANK, DEMO_BOARD_PATH, JUNK, REFUSE_ALL, assert_built_alike, held_bytes,
    parse_outcome, spoiled,
)


def test_reference_pins_have_expected_costs(two_pin_board):
    assert two_pin_board.pin("PA1").cost == 3
    assert two_pin_board.pin("PA2").cost == 4


def test_single_entry_pin_costs_one():
    board = parse_board("pin PB0 = PWM/TIM3_CH3")
    assert board.pin("PB0").cost == 1


def test_cost_lookup_is_case_insensitive(two_pin_board):
    assert two_pin_board.pin("pa1").cost == 3


def test_unknown_pin_raises(two_pin_board):
    with pytest.raises(KeyError, match="unknown pin id 'PZ9'"):
        two_pin_board.pin("PZ9")
    with pytest.raises(KeyError, match="unknown pin id 'PZ9'"):
        two_pin_board.index_of("PZ9")


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
    assert board.pin("PA1").cost == 2


def test_empty_entry_list_rejected():
    with pytest.raises(BoardParseError, match="empty function entry"):
        parse_board("pin PA1 =")


def test_empty_entry_between_commas_rejected():
    with pytest.raises(BoardParseError, match="empty function entry"):
        parse_board("pin PA1 = ANALOG,,ICU")


def test_missing_equals_rejected():
    with pytest.raises(BoardParseError, match="expected '='"):
        parse_board("pin PA1 ANALOG")


def test_written_out_dash_detail_rejected():
    """A file may only omit a detail, although "-" is how a FunctionEntry
    holds an omitted one, so the parser refuses what the constructor takes."""
    assert FunctionEntry("ANALOG", "-") == FunctionEntry("ANALOG")
    with pytest.raises(BoardParseError) as exc:
        parse_board("pin P = ANALOG/-")
    assert str(exc.value) == "line 1, column 9: invalid detail '-'"


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


def test_byte_order_mark_is_dropped_once():
    text = "board demo\npin PA1 = ANALOG\n"
    assert parse_board("\ufeff" + text) == parse_board(text)
    with pytest.raises(BoardParseError, match="line 1, column 1"):
        parse_board("\ufeff\ufeff" + text)


def test_carriage_return_inside_board_name_reported_with_line():
    with pytest.raises(BoardParseError, match="line 2, column 11: carriage return"):
        parse_board("# header\nboard demo\rx\r\npin PA1 = ANALOG\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("pin 9bad = ANALOG, ANALOG", "line 1, column 20: duplicate entry ANALOG on pin 9bad"),
        ("board a\rb\npin P = X\npin p = Y", "line 3, column 1: duplicate pin id 'p'"),
    ],
    ids=["id-and-entry", "name-and-id"],
)
def test_two_faults_report_one_at_its_own_place(text, error):
    """The value that refuses checks its repeats first, and parse_board
    places the fault by looking for a repeat, so message and place agree."""
    with pytest.raises(BoardParseError) as exc:
        parse_board(text)
    assert str(exc.value) == error


_ANALOG = (FunctionEntry("ANALOG"),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Pin("P 1", _ANALOG), "invalid pin id 'P 1'"),
        (lambda: Pin("Q'2", _ANALOG), "invalid pin id"),
        (lambda: FunctionEntry("analog"), "kind 'analog' is not canonical"),
        (lambda: FunctionEntry("PWM", "TIM 1"), "invalid detail 'TIM 1'"),
        (lambda: Pin("PA1", ()), "pin PA1 has no entries"),
        (lambda: Pin("PA1", _ANALOG + _ANALOG), "duplicate entry ANALOG on pin PA1"),
        (lambda: Board((Pin("PA1", _ANALOG),), "demo\n]))."), "line feed in board name"),
        (lambda: Board((), "demo\rboard"), "carriage return in board name"),
        (lambda: Board((), "lab # 2"), "'#' in board name"),
        (lambda: Board((), " padded"), "outer blanks in board name ' padded'"),
    ],
    ids=[
        "space-id", "quote-id", "lowercase-kind", "bad-detail", "no-entries", "repeat", "lf",
        "cr", "hash", "blank",
    ],
)
def test_constructor_enforces_the_file_grammar(build, message):
    """A value built in code is held to the grammar parse_board reads."""
    with pytest.raises(ValueError, match=message):
        build()


def test_duplicate_pin_in_constructor_rejected():
    pin = Pin("PA1", (FunctionEntry("ANALOG"),))
    with pytest.raises(ValueError, match="duplicate pin id"):
        Board((pin, Pin("pa1", (FunctionEntry("ICU"),))))


@pytest.mark.parametrize(
    "text, build",
    [
        ("pin 9bad = ANALOG", lambda: Pin("9bad", _ANALOG)),
        ("pin PA1 = PWM/TIM-1", lambda: FunctionEntry("PWM", "TIM-1")),
        ("pin PA1 = ANALOG, analog", lambda: Pin("PA1", _ANALOG + _ANALOG)),
        (
            "pin PA1 = ANALOG\npin pa1 = ICU",
            lambda: Board((Pin("PA1", _ANALOG), Pin("pa1", (FunctionEntry("ICU"),)))),
        ),
        ("board a\rb\n", lambda: Board((), "a\rb")),
    ],
    ids=["pin-id", "detail", "repeated-entry", "repeated-id", "name"],
)
def test_parser_and_constructor_word_a_fault_alike(text, build):
    """Each grammar fault a board file can hold has one message, whether
    parse_board meets it in text or a constructor in code. (Text cannot
    hold a non-canonical kind or an empty entry list: parse_board
    canonicalizes kind tokens and refuses an empty entry first.)"""
    with pytest.raises(BoardParseError) as parsed:
        parse_board(text)
    with pytest.raises(ValueError) as built:
        build()
    assert str(parsed.value).split(": ", 1)[1] == str(built.value)


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


_tricky = st.text(alphabet="aZ9_-/#=, \t\r\n\x85é", max_size=5)


@given(boards(), st.one_of(st.none(), _tricky))
def test_named_board_is_refused_or_round_trips(board, name):
    """A name is refused exactly when a header line cannot carry it back."""
    try:
        named = Board(board.pins, name)
    except ValueError:
        assert any(c in name for c in "\r\n#") or name != name.strip()
        return
    assert parse_board(serialize_board(named)) == named


@given(
    boards(),
    st.one_of(_ids, _tricky),
    st.one_of(_kinds.map(canonical_kind), _tricky),
    st.one_of(_details, _tricky),
)
def test_built_pin_is_refused_or_round_trips(board, pin_id, kind, detail):
    """Every Board that can be built survives serialize_board and parse_board."""
    try:
        pin = Pin(pin_id, (FunctionEntry(kind, detail),))
        built = Board(board.pins + (pin,), board.name)
    except ValueError:
        return
    assert parse_board(serialize_board(built)) == built


@given(boards())
def test_cost_equals_entry_count_everywhere(board):
    for pin in board.pins:
        assert board.pin(pin.id).cost == len(pin.entries) >= 1


_blanks = st.text(alphabet=BLANK, max_size=2)


@st.composite
def pin_lines(draw):
    """Pin lines, about half of them valid. The kinds and details come from
    small pools, so entries often repeat, some after canonicalization."""
    kinds = st.sampled_from(["a", "A", "serial-tx", "SERIAL_TX", "i2c", "x9_-"])
    details = st.sampled_from(["d1", "D1", "9", "tim_2", "-", ""])
    slash = st.tuples(_blanks, st.just("/"), _blanks, details).map("".join)
    entry = st.tuples(kinds, st.one_of(st.just(""), slash)).map("".join)
    pieces = [_blanks, st.just("pin"), st.text(alphabet=BLANK, min_size=1, max_size=2),
              st.sampled_from(["P1", "pa1", "Q_2", "9bad"]), _blanks, st.just("="), _blanks, entry]
    for _ in range(draw(st.integers(0, 3))):
        pieces += [_blanks, st.just(","), _blanks, entry]
    pieces += [_blanks, st.one_of(st.just(""), JUNK.map("#".__add__))]
    return spoiled(draw, pieces)


@st.composite
def board_texts(draw):
    header = st.sampled_from(["board demo", "board", " board  x y ", "boardx", "# c"])
    lines = draw(st.lists(st.one_of(pin_lines(), header, _blanks, JUNK), max_size=5))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def assert_per_token_alike(text):
    """parse_board gives text the same value or the same error, whether its
    line pattern matches the pin lines or the per-token path reads them."""
    matched = parse_outcome(parse_board, text)
    with mock.patch.object(board_module, "_PIN_LINE_RE", REFUSE_ALL):
        assert parse_outcome(parse_board, text) == matched


@settings(max_examples=400)
@given(pin_lines())
def test_a_matched_pin_line_parses_as_its_tokens_do(line):
    assert_per_token_alike(line)


@settings(max_examples=200)
@given(board_texts())
def test_a_matched_board_parses_as_its_tokens_do(text):
    assert_per_token_alike(text)


def test_parsed_values_are_indistinguishable_from_constructed_ones():
    """parse_board builds a matched line's FunctionEntry and Pin values
    without their constructors. Every pin and entry of the demo board, and
    a line with an omitted detail and a kind to canonicalize."""
    text = DEMO_BOARD_PATH.read_text(encoding="utf-8") + "pin PZ9 = serial-tx, icu / TIM_1\n"
    board = parse_board(text)
    assert board.pins[-1].entries == (FunctionEntry("SERIAL_TX"), FunctionEntry("ICU", "TIM_1"))
    for pin in board.pins:
        entries = tuple(FunctionEntry(entry.kind, entry.detail) for entry in pin.entries)
        for parsed, built in zip(pin.entries, entries):
            assert_built_alike(parsed, built)
            moved = dataclasses.replace(parsed, detail="X1")
            assert moved == FunctionEntry(parsed.kind, "X1") and type(moved) is FunctionEntry
            with pytest.raises(ValueError, match="is not canonical"):
                dataclasses.replace(parsed, kind="icu")
        assert_built_alike(pin, Pin(pin.id, entries))
        assert dataclasses.replace(pin, id="Q") == Pin("Q", entries)
        with pytest.raises(ValueError, match="duplicate entry"):
            dataclasses.replace(pin, entries=entries + entries[:1])
    assert board == Board(board.pins, board.name)


def thousand_pin_text() -> str:
    rng = random.Random(37)
    kinds = ["analog", "ICU", "pwm", "serial-tx", "SERIAL_RX", "can-tx", "i2c_sda", "I2C-SCL"]
    lines = ["board generated"]
    for i in range(1000):
        entries = (f"{kind}/D{i}_{j}" if rng.random() < 0.8 else kind
                   for j, kind in enumerate(rng.sample(kinds, rng.randint(1, 6))))
        lines.append(f"pin P{i} = " + ", ".join(entries))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [DEMO_BOARD_PATH.read_text(encoding="utf-8"), thousand_pin_text()],
                         ids=["demo", "1000-pins"])
def test_a_parsed_board_holds_no_more_memory_than_a_constructed_one(text):
    """The per-token path builds every value through its constructor; the
    board parse_board builds from matched lines may hold at most 1 KiB
    more. A value whose fields were written through its __dict__ would hold
    a dict of its own, 64 bytes or more each."""
    with mock.patch.object(board_module, "_PIN_LINE_RE", REFUSE_ALL):
        parse_board(text)  # once untraced, so neither side pays a first-call cost
        built, built_bytes = held_bytes(lambda: parse_board(text))
    parse_board(text)
    parsed, parsed_bytes = held_bytes(lambda: parse_board(text))
    assert parsed == built
    assert parsed_bytes <= built_bytes + 1024, (parsed_bytes, built_bytes)
