"""Shared fixtures: reference boards and the seeded random instance family."""

from __future__ import annotations

import copy as copy_module
import dataclasses
import gc
import io
import pickle
import random
import re
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pinassign import Board, FunctionEntry, Pin, Request, emit_prolog, parse_board

TWO_PIN_TEXT = """\
pin PA1 = ANALOG/ADC1_IN1, ICU/TIM2_CH2, ICU/TIM5_CH2
pin PA2 = ANALOG/ADC1_IN2, SERIAL_TX/UART2_TX, ICU/TIM2_CH3, ICU/TIM5_CH3
"""

KIND_POOL = [
    "ANALOG",
    "ICU",
    "PWM",
    "SERIAL_TX",
    "SERIAL_RX",
    "CAN_TX",
    "I2C_SDA",
    "I2C_SCL",
]

DEMO_BOARD_PATH = Path(__file__).resolve().parent.parent / "boards" / "stm32f4_demo.pins"


@pytest.fixture
def two_pin_board() -> Board:
    return parse_board(TWO_PIN_TEXT)


@pytest.fixture(scope="session")
def demo_board() -> Board:
    return parse_board(DEMO_BOARD_PATH.read_text(encoding="utf-8"))


def random_board(rng: random.Random, max_pins: int = 7, max_entries: int = 4) -> Board:
    """A small random board; ICU entries usually carry timer-channel details
    so the eligibility rule has something to bite on."""
    n_pins = rng.randint(1, max_pins)
    pins = []
    for i in range(n_pins):
        n_entries = rng.randint(1, max_entries)
        entries: list[FunctionEntry] = []
        seen: set[tuple[str, str]] = set()
        for _ in range(20):
            if len(entries) == n_entries:
                break
            kind = rng.choice(KIND_POOL)
            if kind == "ICU" and rng.random() < 0.8:
                detail = f"TIM{rng.randint(1, 14)}_CH{rng.randint(1, 4)}"
            elif rng.random() < 0.15:
                detail = "-"
            else:
                detail = f"D{rng.randint(0, 99)}"
            if (kind, detail) in seen:
                continue
            seen.add((kind, detail))
            entries.append(FunctionEntry(kind, detail))
        pins.append(Pin(f"P{i}", tuple(entries)))
    return Board(tuple(pins))


def random_request(rng: random.Random, board: Board, max_len: int = 5) -> Request:
    """A random request, biased toward kinds the board offers so a healthy
    share of instances is feasible."""
    offered = sorted({e.kind for pin in board.pins for e in pin.entries})
    length = rng.randint(0, max_len)
    slots = []
    for _ in range(length):
        if offered and rng.random() < 0.8:
            slots.append(rng.choice(offered))
        else:
            slots.append(rng.choice(KIND_POOL))
    return Request(tuple(slots))


def instance_family(seed: int, count: int, max_pins: int = 7, max_len: int = 5):
    """Deterministic stream of (board, request) pairs for oracle comparison."""
    rng = random.Random(seed)
    for _ in range(count):
        board = random_board(rng, max_pins=max_pins)
        yield board, random_request(rng, board, max_len=max_len)


def prolog_text(board: Board, max_len: int):
    """The fact base emit_prolog writes for board, with its EmitterOutput."""
    sink = io.StringIO()
    output = emit_prolog(board, max_len, sink=sink)
    return sink.getvalue(), output


def plain_bindings(assignment) -> tuple[tuple[int, str, str, str], ...]:
    """Solver assignment as oracle-comparable (slot, kind, pin, detail) rows."""
    return tuple((b.slot, b.kind, b.pin, b.detail) for b in assignment.bindings)


def _k_factor_row(n, m):
    """[k_factor(p, m) for p in 0..n] by the paper's recurrence, bottom-up over
    the kind count: row m is 1 plus the running sums of row m - 1 (entry 0 is
    the empty sum's 1). The reference the closed form is checked against."""
    row = [1] * (n + 1)
    for _ in range(m - 1):
        row = list(accumulate(row[1:], initial=1))
    return row


# parse_board and parse_request run their per-token path on a text their
# grammar pattern refuses, so patching in a pattern that matches nothing runs
# it on every text: the reference a matched text's value is checked against.
REFUSE_ALL = re.compile(r"(?!)")

# Some of the 29 characters str.strip removes; "\x1c", "\x85" and "\u2028"
# end a line for str.splitlines but not for parse_board.
BLANK = " \t\r\x1c\x85\xa0\u2028\u3000"
JUNK = st.text(alphabet="aZpin9_-/,=#" + BLANK, min_size=1, max_size=4)


def spoiled(draw, pieces) -> str:
    """Join a text drawn from pieces, one of which may be drawn as JUNK."""
    spoil = draw(st.integers(-len(pieces), len(pieces) - 1))  # below 0: none
    return "".join(draw(JUNK if i == spoil else piece) for i, piece in enumerate(pieces))


def parse_outcome(parse, text):
    """What parse gives for text: the value with its repr and instance dict,
    or the type and message of the error it raises."""
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return value, repr(value), vars(value)


def assert_built_alike(parsed, built):
    """Nothing a caller can observe tells a parsed value from a constructed
    one: type, equality, hash, repr, the instance dict's items in order,
    asdict, a pickle and a copy of each depth, and frozenness."""
    assert type(parsed) is type(built) and parsed == built
    assert hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert list(vars(parsed).items()) == list(vars(built).items())
    assert dataclasses.asdict(parsed) == dataclasses.asdict(built)
    for copy in (pickle.loads(pickle.dumps(parsed)), copy_module.copy(parsed),
                 copy_module.deepcopy(parsed)):
        assert type(copy) is type(built) and copy == built and hash(copy) == hash(built)
        assert list(vars(copy).items()) == list(vars(built).items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(parsed, dataclasses.fields(parsed)[0].name, None)


def held_bytes(build):
    """Build a value under tracemalloc; return it and the traced bytes it holds.

    The collector is run first and kept off while tracing, so that freeing
    some earlier test's garbage cannot offset the count."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
