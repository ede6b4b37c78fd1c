"""Seeded instance generators for the benchmark.

Every generator takes a ``random.Random`` (or a seed) and returns board
*text* plus request strings, so the caller parses them through
``parse_board`` / ``parse_request`` exactly as a user's files would be. The
same seed gives byte-identical text.

The 8-kind pool is copied from the test suite's fixtures on purpose: the
benchmark must not import test code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pinassign import Board, FunctionEntry, Pin, serialize_board

KIND_POOL = (
    "ANALOG",
    "ICU",
    "PWM",
    "SERIAL_TX",
    "SERIAL_RX",
    "CAN_TX",
    "I2C_SDA",
    "I2C_SCL",
)

# (pins, slots) of the synthetic min-cost family.
SYNTHETIC_SIZES = ((32, 16), (64, 24), (96, 32), (128, 40))
# The seed of the ROADMAP Baseline's synthetic boards.
BASELINE_SEED = 7
# (pins, slots) of the two-kind uniform boards: every pin offers both kinds,
# so the augmenting chains of the matching are as long as the request.
DEEP_SIZES = ((40, 30), (60, 45), (80, 60), (120, 100))
# Single-kind board asked for one slot more than it has pins.
OVER_DEMAND_PINS = 1100
# Bounds of the small family, which the brute-force oracle can check.
SMALL_PINS, SMALL_ENTRIES, SMALL_SLOTS = 7, 4, 5


@dataclass(frozen=True)
class Instance:
    """One generated solve instance: board text, request text, and a tag.

    ``expect`` is what the generator knows by construction: "feasible",
    "infeasible", or None when only a reference can tell. ``first`` is the
    lexicographically first pin tuple when the construction fixes it.
    """

    name: str
    board_text: str
    request_text: str
    expect: str | None = None
    first: tuple[int, ...] | None = None


def _request_text(slots) -> str:
    return ",".join(slot.lower().replace("_", "-") for slot in slots)


def synthetic_board(rng: random.Random, n_pins: int, name: str) -> Board:
    """Pins with 1-6 distinct kinds from the pool, each with a detail."""
    pins = []
    for i in range(n_pins):
        kinds = rng.sample(KIND_POOL, rng.randint(1, 6))
        entries = tuple(FunctionEntry(kind, f"D{rng.randint(0, 99)}") for kind in kinds)
        pins.append(Pin(f"P{i}", entries))
    return Board(tuple(pins), name)


def planted_request(rng: random.Random, board: Board, length: int) -> list[str]:
    """A request with a known matching: distinct pins, one offered kind each."""
    chosen = rng.sample(range(len(board.pins)), length)
    slots = [rng.choice(board.pins[p].kinds()) for p in chosen]
    rng.shuffle(slots)
    return slots


def synthetic_family(seed: int, per_size: dict[str, int], fixed: tuple[str, ...]) -> list[Instance]:
    """Feasible instances, ``per_size["<pins>x<slots>"]`` of each size.

    Sizes named in ``fixed`` are drawn from ``random.Random(BASELINE_SEED)``
    instead of the seed: the same instances on every run.
    """
    seeded, pinned = random.Random(seed), random.Random(BASELINE_SEED)
    out = []
    for n_pins, length in SYNTHETIC_SIZES:
        name = f"{n_pins}x{length}"
        rng = pinned if name in fixed else seeded
        for k in range(per_size[name]):
            board = synthetic_board(rng, n_pins, f"synthetic-{name}-{k}")
            slots = planted_request(rng, board, length)
            out.append(Instance(name, serialize_board(board), _request_text(slots), "feasible"))
    return out


def small_board(rng: random.Random) -> Board:
    """A small random board; ICU entries usually carry timer-channel details."""
    pins = []
    for i in range(rng.randint(1, SMALL_PINS)):
        n_entries = rng.randint(1, SMALL_ENTRIES)
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


def small_family(rng: random.Random, count: int) -> list[Instance]:
    """Small instances (<= 7 pins, <= 5 slots), biased toward offered kinds."""
    out = []
    for _ in range(count):
        board = small_board(rng)
        offered = sorted({e.kind for pin in board.pins for e in pin.entries})
        slots = [
            rng.choice(offered) if rng.random() < 0.8 else rng.choice(KIND_POOL)
            for _ in range(rng.randint(0, SMALL_SLOTS))
        ]
        out.append(Instance("small", serialize_board(board), _request_text(slots)))
    return out


def _offers(board: Board) -> dict[str, set[int]]:
    offers: dict[str, set[int]] = {kind: set() for kind in KIND_POOL}
    for index, pin in enumerate(board.pins):
        for kind in pin.kinds():
            offers[kind].add(index)
    return offers


def mid_family(rng: random.Random, count: int) -> list[Instance]:
    """Mid-size boards (24-48 pins), cycling through three request shapes.

    - feasible: a planted request of a third of the pins;
    - pigeonhole-kind: one kind asked once more than its pins, which the
      per-kind filter ``quick_reject`` catches;
    - pigeonhole-union: two kinds whose union of pins is one short, while
      each kind alone fits, so only the full matching finds the deficiency.
    """
    out: list[Instance] = []
    while len(out) < count:
        shape = ("feasible", "pigeonhole-kind", "pigeonhole-union")[len(out) % 3]
        n_pins = rng.randint(24, 48)
        board = synthetic_board(rng, n_pins, f"mid-{len(out)}")
        offers = _offers(board)
        if shape == "feasible":
            slots = planted_request(rng, board, n_pins // 3)
        elif shape == "pigeonhole-kind":
            kind = rng.choice([k for k in KIND_POOL if offers[k]])
            slots = [kind] * (len(offers[kind]) + 1) + planted_request(rng, board, 3)
        else:
            pairs = [
                (a, b)
                for a in KIND_POOL
                for b in KIND_POOL
                if a < b and offers[a] & offers[b] and len(offers[a] | offers[b]) < n_pins
            ]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            union = len(offers[a] | offers[b])
            n_a = min(len(offers[a]), union)
            slots = [a] * n_a + [b] * (union + 1 - n_a)
            rng.shuffle(slots)
        expect = "feasible" if shape == "feasible" else "infeasible"
        out.append(Instance(shape, serialize_board(board), _request_text(slots), expect))
    return out


def deep_uniform(n_pins: int, length: int) -> Instance:
    """Two-kind uniform board: every pin offers ANALOG and ICU."""
    pins = tuple(
        Pin(f"P{i}", (FunctionEntry("ANALOG", f"ADC{i}"), FunctionEntry("ICU", f"TIM{i}")))
        for i in range(n_pins)
    )
    slots = [("ANALOG", "ICU")[i % 2] for i in range(length)]
    board = Board(pins, f"uniform-{n_pins}")
    return Instance(
        f"deep-{n_pins}x{length}",
        serialize_board(board),
        _request_text(slots),
        "feasible",
        tuple(range(length)),
    )


def over_demand() -> Instance:
    """OVER_DEMAND_PINS single-kind pins asked for one slot more."""
    pins = tuple(Pin(f"P{i}", (FunctionEntry("ANALOG"),)) for i in range(OVER_DEMAND_PINS))
    board = Board(pins, f"single-kind-{OVER_DEMAND_PINS}")
    slots = ["ANALOG"] * (OVER_DEMAND_PINS + 1)
    return Instance(
        f"over-{OVER_DEMAND_PINS}x{OVER_DEMAND_PINS + 1}",
        serialize_board(board),
        _request_text(slots),
        "infeasible",
    )


def verdict_family(seed: int, n_small: int, n_mid: int) -> list[Instance]:
    """The verdicts workload's inputs: small, mid-size, deep, over-demanding."""
    rng = random.Random(seed)
    return (
        small_family(rng, n_small)
        + mid_family(rng, n_mid)
        + [deep_uniform(n, length) for n, length in DEEP_SIZES]
        + [over_demand()]
    )
