"""Independent answers and checks for the correctness gate.

Nothing here calls solver code. Eligibility is read straight from the board
entries (the benchmark uses no eligibility rules), matchings are plain
breadth-first augmenting paths, and the minimum-cost answer comes from a
successive-shortest-path solve whose weights fold the lexicographic
tie-break into the cost:

    w(slot i, pin p) = cost(p) * P**L + p * P**(L - 1 - i)

with P pins and L slots. The second term spells the pin tuple as an L-digit
number in base P, which stays below P**L, so minimizing the total weight
minimizes the cost first and the pin tuple second.
"""

from __future__ import annotations

import heapq
from collections import deque

from pinassign import Board, Request
from pinassign.oracle import MAX_PINS, MAX_SLOTS, brute_force_solve


def eligibility(board: Board, slots: tuple[str, ...]) -> list[list[int]]:
    """Per slot, the declaration indices of the pins offering its kind."""
    offers: dict[str, list[int]] = {}
    for index, pin in enumerate(board.pins):
        for kind in sorted(set(pin.kinds())):
            offers.setdefault(kind, []).append(index)
    return [offers.get(kind, []) for kind in slots]


def _augment(adj, match_pin, match_slot, start, banned) -> bool:
    """Breadth-first augmenting path from an unmatched slot; commits if found."""
    prev: dict[int, int] = {}
    queue = deque([start])
    seen = set(banned)
    while queue:
        slot = queue.popleft()
        for p in adj[slot]:
            if p in seen:
                continue
            seen.add(p)
            prev[p] = slot
            owner = match_pin.get(p)
            if owner is None:
                while True:  # flip the path back to start
                    s = prev[p]
                    nxt = match_slot.get(s)
                    match_pin[p] = s
                    match_slot[s] = p
                    if s == start:
                        return True
                    p = nxt
            queue.append(owner)
    return False


def max_matching(adj: list[list[int]]) -> dict[int, int]:
    """A maximum matching as slot -> pin."""
    match_pin: dict[int, int] = {}
    match_slot: dict[int, int] = {}
    for slot in range(len(adj)):
        _augment(adj, match_pin, match_slot, slot, ())
    return match_slot


def lex_first(adj: list[list[int]]) -> tuple[int, ...] | None:
    """Lexicographically smallest pin tuple serving every slot, or None.

    Keeps one perfect matching and, slot by slot, moves the slot onto the
    smallest pin for which the displaced slot can be re-routed.
    """
    match_slot = max_matching(adj)
    if len(match_slot) < len(adj):
        return None
    match_pin = {p: s for s, p in match_slot.items()}
    fixed: set[int] = set()
    for slot in range(len(adj)):
        for q in adj[slot]:
            if q in fixed:
                continue
            old = match_slot[slot]
            if q == old:
                break
            owner = match_pin.get(q)
            if owner is None:
                del match_pin[old]
                match_slot[slot] = q
                match_pin[q] = slot
                break
            # Try q for this slot: its owner must reach a free pin without q.
            trial_pin = dict(match_pin)
            trial_slot = dict(match_slot)
            del trial_pin[old]
            del trial_slot[owner]
            trial_pin[q] = slot
            trial_slot[slot] = q
            if _augment(adj, trial_pin, trial_slot, owner, fixed | {q}):
                match_pin, match_slot = trial_pin, trial_slot
                break
        fixed.add(match_slot[slot])
    return tuple(match_slot[s] for s in range(len(adj)))


def lex_min_cost(adj: list[list[int]], costs: list[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest minimum-cost pin tuple, or None."""
    n_slots, n_pins = len(adj), len(costs)
    base = max(n_pins, 2)
    scale = base**n_slots
    place = [base ** (n_slots - 1 - i) for i in range(n_slots)]

    def weight(slot: int, p: int) -> int:
        return costs[p] * scale + p * place[slot]

    # Nodes: slots 0..L-1, pins L..L+P-1. Reduced cost w + phi(u) - phi(v).
    phi = [0] * (n_slots + n_pins)
    match_slot = [-1] * n_slots
    match_pin = [-1] * n_pins
    for root in range(n_slots):
        dist: dict[int, int] = {root: 0}
        prev: dict[int, int] = {}
        done: set[int] = set()
        heap = [(0, root)]
        target = -1
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node >= n_slots:
                p = node - n_slots
                owner = match_pin[p]
                if owner == -1:
                    target = node
                    break
                nd = d - weight(owner, p) + phi[node] - phi[owner]
                if nd < dist.get(owner, nd + 1):
                    dist[owner] = nd
                    prev[owner] = node
                    heapq.heappush(heap, (nd, owner))
                continue
            for p in adj[node]:
                if p == match_slot[node]:
                    continue
                v = n_slots + p
                nd = d + weight(node, p) + phi[node] - phi[v]
                if v not in done and nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    prev[v] = node
                    heapq.heappush(heap, (nd, v))
        if target == -1:
            return None
        reach = dist[target]
        for node in range(n_slots + n_pins):
            phi[node] += min(dist[node], reach) if node in done else reach
        node = target
        while node != root:  # flip the augmenting path
            slot = prev[node]
            p = node - n_slots
            match_pin[p] = slot
            previous = match_slot[slot]
            match_slot[slot] = p
            if slot == root:
                break
            node = previous + n_slots
    return tuple(match_slot)


def pin_tuple(board: Board, assignment) -> tuple[int, ...]:
    return tuple(board.index_of(b.pin) for b in assignment.bindings)


def check_valid(board: Board, request: Request, assignment) -> str | None:
    """Every slot served by a distinct pin that offers its kind with the
    reported detail, and the total cost recomputed from the board."""
    slots = tuple(sorted(request.slots))
    bindings = assignment.bindings
    if tuple(b.kind for b in bindings) != slots:
        return f"kinds {[b.kind for b in bindings]} do not follow the request {slots}"
    if tuple(b.slot for b in bindings) != tuple(range(len(slots))):
        return "slot indices out of order"
    pins = [b.pin for b in bindings]
    if len({p.lower() for p in pins}) != len(pins):
        return f"pins repeat: {pins}"
    cost = 0
    for b in bindings:
        if not board.has_pin(b.pin):
            return f"unknown pin {b.pin}"
        pin = board.pin(b.pin)
        if not any(e.kind == b.kind and e.detail == b.detail for e in pin.entries):
            return f"pin {b.pin} has no entry {b.kind}/{b.detail}"
        cost += len(pin.entries)
    if cost != assignment.total_cost:
        return f"total cost {assignment.total_cost}, recomputed {cost}"
    return None


def hall_recount(board: Board, request: Request, witness) -> str | None:
    """The witness names every pin offering one of its kinds, and the request
    demands more slots of those kinds than there are such pins."""
    if witness is None:
        return "infeasible verdict without a witness"
    kinds = set(witness.kinds)
    support = tuple(p.id for p in board.pins if kinds & set(p.kinds()))
    demanded = sum(1 for kind in request.slots if kind in kinds)
    if support != tuple(witness.pins):
        return f"witness pins {witness.pins} differ from the supporting pins {support}"
    if demanded != witness.demanded:
        return f"witness demands {witness.demanded}, request demands {demanded}"
    if demanded <= len(support):
        return f"witness is not deficient: {demanded} slots for {len(support)} pins"
    return None


def oracle_answers(board: Board, request: Request) -> dict | None:
    """Brute-force ground truth, or None when the oracle is out of range.

    Pins offering none of the requested kinds cannot appear in any solution,
    so they are dropped first; declaration order, ids and costs are kept.
    """
    kinds = set(request.slots)
    pins = tuple(p for p in board.pins if kinds & set(p.kinds()))
    if len(pins) > MAX_PINS or request.length > MAX_SLOTS:
        return None
    result = brute_force_solve(Board(pins, board.name), request)
    best = None
    if result.labeled:
        best = min(range(len(result.labeled)), key=lambda n: (result.costs[n], n))
    return {
        "pinsets": result.pin_set_count,
        "labeled": result.labeled_count,
        "first": result.labeled[0] if result.labeled else None,
        "best": result.labeled[best] if best is not None else None,
        "min_cost": result.min_cost,
    }


def bindings(assignment) -> tuple[tuple[int, str, str, str], ...]:
    return tuple((b.slot, b.kind, b.pin, b.detail) for b in assignment.bindings)
