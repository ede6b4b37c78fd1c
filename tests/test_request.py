"""Request parsing, canonicalization, and the quick-reject filter."""

import copy as copy_module
import dataclasses
import pickle
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import (
    Request,
    RequestParseError,
    parse_request,
    quick_reject,
)
from pinassign import request as request_module
from pinassign.oracle import brute_force_solve

from conftest import (
    BLANK, KIND_POOL, REFUSE_ALL, assert_built_alike, held_bytes, instance_family,
    parse_outcome, random_board, spoiled,
)


def test_parse_two_analogs():
    request = parse_request("analog,analog")
    assert request.length == 2
    assert request.canonical == ("ANALOG", "ANALOG")


def test_parse_empty_string_is_empty_request():
    assert parse_request("").length == 0
    assert parse_request("   ").length == 0


def test_parse_canonicalizes_tokens_and_sorts():
    request = parse_request("serial-tx, analog")
    assert request.slots == ("SERIAL_TX", "ANALOG")
    assert request.canonical == ("ANALOG", "SERIAL_TX")


def test_parse_rejects_empty_token():
    with pytest.raises(RequestParseError, match="empty kind token"):
        parse_request("analog,,icu")
    with pytest.raises(RequestParseError):
        parse_request("analog,")


def test_parse_rejects_bad_token():
    with pytest.raises(RequestParseError):
        parse_request("anal og")


@pytest.mark.parametrize("kind", ["analog", "SERIAL-TX", "1CU", ""])
def test_constructor_requires_canonical_kinds(kind):
    """A Request built in code cannot carry a kind no board entry can have,
    which would read as unsupported on a board that offers it."""
    with pytest.raises(ValueError, match="is not canonical"):
        Request(("ICU", kind))


def test_canonicalize_sorts_preserving_duplicates():
    request = Request(("ICU", "ANALOG", "ANALOG"))
    assert Request(request.canonical).slots == ("ANALOG", "ANALOG", "ICU")


def test_canonicalize_singleton_fixed_point():
    request = Request(("ANALOG",))
    assert Request(request.canonical) == request


_kind_lists = st.lists(
    st.from_regex(r"[A-Z][A-Z0-9_]{0,6}", fullmatch=True), max_size=8
)


@given(_kind_lists)
def test_canonicalize_idempotent_and_multiset_preserving(kinds):
    request = Request(tuple(kinds))
    once = Request(request.canonical)
    assert Request(once.canonical) == once
    assert sorted(once.slots) == sorted(request.slots)


def test_canonical_is_kept_outside_the_fields():
    """canonical is sorted once, when the Request is built, and read back
    as that tuple. It is no field: two orderings of one multiset stay
    unequal, hash, repr, asdict and fields read the slots alone, and a
    pickle, a copy and dataclasses.replace each give a Request whose
    canonical is that of its own slots."""
    request = Request(("ICU", "ANALOG", "ICU"))
    other = Request(("ANALOG", "ICU", "ICU"))
    assert request.canonical == other.canonical == ("ANALOG", "ICU", "ICU")
    assert request.canonical is request.canonical
    assert request != other and request == Request(("ICU", "ANALOG", "ICU"))
    assert hash(request) == hash((("ICU", "ANALOG", "ICU"),))  # its fields, as a tuple
    assert repr(request) == "Request(slots=('ICU', 'ANALOG', 'ICU'))"
    assert dataclasses.asdict(request) == {"slots": ("ICU", "ANALOG", "ICU")}
    assert [f.name for f in dataclasses.fields(Request)] == ["slots"]
    for copy in (pickle.loads(pickle.dumps(request)), copy_module.copy(request)):
        assert type(copy) is Request and copy == request and hash(copy) == hash(request)
        assert copy.canonical == request.canonical
    shorter = dataclasses.replace(request, slots=("PWM", "ANALOG"))
    assert shorter == Request(("PWM", "ANALOG"))
    assert shorter.canonical == ("ANALOG", "PWM")
    with pytest.raises(ValueError, match="is not canonical"):
        dataclasses.replace(request, slots=("pwm",))
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.canonical = ()


@st.composite
def request_texts(draw):
    """Request texts, about half of them valid, some blank or behind a
    byte-order mark, which is no blank."""
    blanks = st.text(alphabet=BLANK, max_size=2)
    token = st.sampled_from(["analog", "ICU", "serial-tx", "can_RX", "i2c-sda", "x9_-"])
    pieces = [blanks, token]
    for _ in range(draw(st.integers(0, 4))):
        pieces += [blanks, st.just(","), blanks, token]
    pieces.append(blanks)
    text = draw(blanks) if draw(st.integers(0, 4)) == 0 else spoiled(draw, pieces)
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=400)
@given(request_texts())
def test_a_matched_request_parses_as_its_tokens_do(text):
    """parse_request gives text the same Request, canonical included, or
    the same error, whether its pattern matches or its tokens are read."""
    matched = parse_outcome(parse_request, text)
    with mock.patch.object(request_module, "_REQUEST_RE", REFUSE_ALL):
        assert parse_outcome(parse_request, text) == matched


def test_a_parsed_request_is_indistinguishable_from_a_constructed_one():
    """parse_request builds a matched text's Request without its
    constructor. A replaced Request sorts its own canonical, and 1,000
    parsed Requests hold at most 1 KiB more traced memory than the ones the
    per-token path builds through the constructor, as no Request written
    through its __dict__ would."""
    parsed = parse_request(" icu,analog , serial-tx,\u3000analog")
    built = Request(("ICU", "ANALOG", "SERIAL_TX", "ANALOG"))
    assert_built_alike(parsed, built)
    assert parsed.canonical == built.canonical == ("ANALOG", "ANALOG", "ICU", "SERIAL_TX")
    assert list(vars(parsed)) == ["slots", "canonical"]
    shorter = dataclasses.replace(parsed, slots=("PWM", "ANALOG"))
    assert type(shorter) is Request and shorter.canonical == ("ANALOG", "PWM")
    with pytest.raises(ValueError, match="is not canonical"):
        dataclasses.replace(parsed, slots=("pwm",))
    rng = random.Random(37)
    texts = [", ".join(rng.choices(["analog", "serial-tx", "icu", "can-rx"], k=rng.randint(1, 40)))
             for _ in range(1000)]
    with mock.patch.object(request_module, "_REQUEST_RE", REFUSE_ALL):
        [parse_request(text) for text in texts]  # once untraced: no first-call cost
        built, built_bytes = held_bytes(lambda: [parse_request(text) for text in texts])
    [parse_request(text) for text in texts]
    parsed, parsed_bytes = held_bytes(lambda: [parse_request(text) for text in texts])
    assert parsed == built
    assert [request.canonical for request in parsed] == [request.canonical for request in built]
    assert parsed_bytes <= built_bytes + 1024, (parsed_bytes, built_bytes)


def test_quick_reject_absent_kind(two_pin_board):
    rejection = quick_reject(two_pin_board, parse_request("can-tx"))
    assert rejection is not None
    assert "CAN_TX" in rejection.reason


def test_quick_reject_pigeonhole(two_pin_board):
    rejection = quick_reject(two_pin_board, parse_request("analog,analog,analog"))
    assert rejection is not None


def test_quick_reject_passes_feasible(two_pin_board):
    assert quick_reject(two_pin_board, parse_request("analog,analog")) is None


def test_quick_reject_length_over_pins(two_pin_board):
    rejection = quick_reject(two_pin_board, parse_request("analog,icu,icu"))
    assert rejection is not None
    assert "3 slots" in rejection.reason


def test_quick_reject_never_rejects_solvable():
    # Soundness against the exhaustive oracle on a seeded family.
    for board, request in instance_family(seed=20240, count=120):
        if quick_reject(board, request) is not None:
            result = brute_force_solve(board, request)
            assert result.labeled_count == 0, (board, request)


def _quick_reject_reference(board, request):
    """quick_reject's former per-pin count, kept as the reference: the reason
    it gives, or None."""
    if request.length > len(board):
        return f"{request.length} slots requested but board has {len(board)} pins"
    offers: Counter = Counter()
    for pin in board.pins:
        for kind in set(pin.kinds()):
            offers[kind] += 1
    for kind, needed in Counter(request.canonical).items():
        if offers[kind] < needed:
            if offers[kind] == 0:
                return f"no pin offers {kind}"
            return f"{needed} x {kind} requested but only {offers[kind]} pins offer it"
    return None


def test_quick_reject_equals_per_pin_count():
    """Random boards, each asked for a few kinds as often as pins offer them
    or once more, in random slot order and cut to half the board's length up
    to one more than it. Several kinds often fall short, and the first one in
    canonical order must be the one reported, so a shuffle of the request
    gets the same reason."""
    rng = random.Random(4242)
    shuffler = random.Random(7)  # apart from rng, so the instances stay the same
    several_short = 0
    for _ in range(600):
        board = random_board(rng, max_pins=9, max_entries=2)
        offers = Counter(kind for pin in board.pins for kind in set(pin.kinds()))
        kinds = rng.sample(KIND_POOL, rng.randint(1, 4))
        slots = [k for k in kinds for _ in range(max(1, offers[k] + rng.randint(0, 1)))]
        rng.shuffle(slots)
        request = Request(tuple(slots[: rng.randint(len(board) // 2, len(board) + 1)]))
        short = [k for k, n in Counter(request.slots).items() if offers[k] < n]
        several_short += len(short) > 1 and request.length <= len(board)
        rejection = quick_reject(board, request)
        reference = _quick_reject_reference(board, request)
        assert (rejection and rejection.reason) == reference, (board, request)
        shuffled = Request(tuple(shuffler.sample(request.slots, request.length)))
        assert quick_reject(board, shuffled) == rejection, (board, request, shuffled)
    assert several_short > 100, several_short
