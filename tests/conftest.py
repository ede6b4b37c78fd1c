"""Shared fixtures: reference boards and the seeded random instance family."""

from __future__ import annotations

import io
import random
from itertools import accumulate
from pathlib import Path

import pytest

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
