"""Brute-force reference solver for validating the fast paths.

It enumerates exhaustively with no pruning and no shared search logic with
the solver: labeled solutions come straight from permutations of pins. Hard
instance-size guards keep runs deterministic instead of slow. The counting
references are test-side, in tests/count_references.py.
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
