"""Test-side references for find_best, written against the public API only.

Each mirrors one way the source paper's model checkers find the cheapest
configuration, and must return the assignment find_best returns: minimum
total cost, ties broken by the lexicographic order of pin indices. Both
take no eligibility rules and return None for an infeasible request.

- best_by_threshold probes cost bounds upward from length * min pin cost,
  as the Alloy cost assertions do, and keeps the lexicographically first
  assignment within the first satisfiable bound.
- best_by_enumeration takes the minimum over every enumerated pin set, as
  the Prolog cheapestConfig query does.
"""

from __future__ import annotations

from pinassign import Assignment, Binding, Board, Request, iter_assignments


def _eligible_details(board: Board, request: Request) -> list[dict[int, str]]:
    """Per canonical slot: eligible pin index -> smallest eligible detail."""
    table = []
    for kind in request.canonical:
        details: dict[int, str] = {}
        for index, pin in enumerate(board.pins):
            eligible = [e.detail for e in pin.entries if e.kind == kind]
            if eligible:
                details[index] = min(eligible)
        table.append(details)
    return table


def best_by_threshold(board: Board, request: Request) -> Assignment | None:
    slots = request.canonical
    eligible = _eligible_details(board, request)
    costs = [pin.cost for pin in board.pins]
    chosen: list[int] = []

    def first_within(budget: int, spent: int) -> bool:
        i = len(chosen)
        if i == len(slots):
            return True
        free = sorted(c for p, c in enumerate(costs) if p not in chosen)
        for p in eligible[i]:
            if p in chosen:
                continue
            rest = free.copy()
            rest.remove(costs[p])
            if spent + costs[p] + sum(rest[: len(slots) - i - 1]) > budget:
                continue
            chosen.append(p)
            if first_within(budget, spent + costs[p]):
                return True
            chosen.pop()
        return False

    low = len(slots) * min(costs, default=0)
    high = len(slots) * max(costs, default=0)
    for budget in range(low, high + 1):
        if first_within(budget, 0):
            bindings = tuple(
                Binding(i, kind, board.pins[p].id, eligible[i][p])
                for i, (kind, p) in enumerate(zip(slots, chosen))
            )
            return Assignment(bindings, sum(costs[p] for p in chosen), board)
    return None


def best_by_enumeration(board: Board, request: Request) -> Assignment | None:
    return min(
        iter_assignments(board, request),  # one representative per pin set
        key=lambda a: (a.total_cost, [board.index_of(b.pin) for b in a.bindings]),
        default=None,
    )
