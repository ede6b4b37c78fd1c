"""Test-side brute-force references for the counters.

Each counts by explicit subset, multiset and permutation enumeration, with
no shared logic with the closed forms it checks, and refuses an instance
beyond its size guard with InstanceTooLargeError instead of running long.

- brute_force_space checks counting.config_space;
- brute_force_board_space checks counting.config_space_board;
- realization_count checks the number of facts codegen.emit_prolog writes.
"""

from __future__ import annotations

import itertools

from pinassign import Board
from pinassign.oracle import InstanceTooLargeError


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
