"""Brute-force reference implementations for validating the fast paths.

Everything here enumerates exhaustively with no pruning and no shared search
logic with the solver: labeled solutions come straight from permutations of
pins, and counting comes from explicit subset and multiset enumeration. Hard
instance-size guards keep runs deterministic instead of slow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .board import Board
from .request import Request
from .solver import rule_patterns

MAX_PINS = 8
MAX_SLOTS = 6


class InstanceTooLargeError(ValueError):
    """Instance exceeds the brute-force size guards."""


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive ground truth for one solve instance.

    Solutions are tuples of (slot, kind, pin id, detail) quadruples over the
    canonical request order, directly comparable with solver bindings.
    """

    labeled: tuple[tuple[tuple[int, str, str, str], ...], ...]
    representatives: tuple[tuple[tuple[int, str, str, str], ...], ...]
    costs: tuple[int, ...]
    min_cost: int | None

    @property
    def labeled_count(self) -> int:
        return len(self.labeled)

    @property
    def pin_set_count(self) -> int:
        return len(self.representatives)


def brute_force_solve(board: Board, request: Request, rules=()) -> OracleResult:
    """Enumerate every injective slot-to-pin map and filter by eligibility.

    rules: names of solver.RULES_BY_NAME. An entry serves a kind iff it has
    that kind and its detail matches every pattern the rules impose on the
    kind (restriction only, as the solver defines eligibility).
    """
    if len(board) > MAX_PINS or request.length > MAX_SLOTS:
        raise InstanceTooLargeError(
            f"brute force capped at {MAX_PINS} pins and {MAX_SLOTS} slots"
        )
    kinds = request.canonical
    patterns = rule_patterns(rules)

    def eligible_details(pin, kind):
        return sorted(
            e.detail
            for e in pin.entries
            if e.kind == kind and all(r.fullmatch(e.detail) for k, r in patterns if k == kind)
        )

    labeled = []
    costs = []
    for pins in itertools.permutations(board.pins, len(kinds)):
        details = [eligible_details(pin, kind) for pin, kind in zip(pins, kinds)]
        if any(not d for d in details):
            continue
        solution = tuple(
            (i, kind, pin.id, det[0])
            for i, (kind, pin, det) in enumerate(zip(kinds, pins, details))
        )
        labeled.append(solution)
        costs.append(sum(pin.cost for pin in pins))
    order = sorted(range(len(labeled)), key=lambda n: [board.index_of(b[2]) for b in labeled[n]])
    labeled = [labeled[n] for n in order]
    costs = [costs[n] for n in order]

    representatives = []
    seen: set[frozenset[str]] = set()
    for solution in labeled:
        key = frozenset(b[2] for b in solution)
        if key not in seen:
            seen.add(key)
            representatives.append(solution)

    return OracleResult(
        tuple(labeled),
        tuple(representatives),
        tuple(costs),
        min(costs) if costs else None,
    )


def brute_force_space(n: int, m: int, max_len: int) -> int:
    """Count (nonempty pin subset of size <= max_len, matching kind multiset)
    pairs by explicit enumeration."""
    if n > 6 or m > 4:
        raise InstanceTooLargeError("brute-force counting capped at n <= 6, m <= 4")
    count = 0
    for k in range(1, min(n, max_len) + 1):
        for _subset in itertools.combinations(range(n), k):
            for _multiset in itertools.combinations_with_replacement(range(m), k):
                count += 1
    return count


def brute_force_board_space(board: Board) -> int:
    """Count (nonempty pin subset, one entry chosen per pin) pairs explicitly."""
    if len(board) > 5:
        raise InstanceTooLargeError("brute-force board counting capped at 5 pins")
    count = 0
    for k in range(1, len(board) + 1):
        for subset in itertools.combinations(board.pins, k):
            for _choice in itertools.product(*(pin.entries for pin in subset)):
                count += 1
    return count


def realization_count(board: Board, max_len: int) -> int:
    """Number of (kind multiset, distinct pin set) realizations up to max_len.

    For every kind multiset over the board's vocabulary, counts the distinct
    pin sets admitting an injective slot-to-pin map, found by trying every
    permutation of pins against the multiset.
    """
    if len(board) > 6 or max_len > 3:
        raise InstanceTooLargeError("realization counting capped at 6 pins, length 3")
    all_kinds = sorted({e.kind for pin in board.pins for e in pin.entries})
    count = 0
    for k in range(1, min(max_len, len(board)) + 1):
        for multiset in itertools.combinations_with_replacement(all_kinds, k):
            sets = set()
            for pins in itertools.permutations(board.pins, k):
                if all(kind in pin.kinds() for pin, kind in zip(pins, multiset)):
                    sets.add(frozenset(pin.id for pin in pins))
            count += len(sets)
    return count
