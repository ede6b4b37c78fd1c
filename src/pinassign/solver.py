"""Assignment engine: one feasible, all possible, or the cheapest pin binding.

A request of length l is served by an injective map from its slots to pins
such that every slot's pin offers an eligible entry of the slot's kind. Slot
indices always refer to the request's canonical (sorted) form, which makes
every verdict invariant under permutation of the input request.

Determinism contract: assignments are ordered lexicographically by the tuple
of chosen pin declaration indices, slot by slot. "First feasible" is the
minimum under that order; "best" is the minimum-total-cost assignment, ties
broken by the same order. The cost of an assignment is the sum of the costs
of its used pins, each charged once.

Two counting semantics are supported. LABELED counts every distinct
slot-to-pin map (two slots of the same kind with swapped pins are two
solutions). UNIQUE_PIN_SETS counts one representative per distinct set of
used pins, namely the smallest binding realizing that set.

iter_assignments is a depth-first search over one kept matching of all
slots: _prepare builds it, and a bind that takes a pin another slot holds
either repairs it with one augmenting path (_augment, the only
augmenting-path routine) or skips that pin. A labeled search therefore opens
no node without a solution below it, and find_feasible is its first
solution. When the initial matching fails, the infeasibility witness is read
from the pins that failed search visited. find_best is a single weighted
bipartite assignment solve whose weights carry the lexicographic tie-break.

The enumerator is a single loop over an explicit stack, so its own depth is
not bounded by Python's recursion limit (_augment still recurses along each
path). Streamed Assignments share their frozen Binding objects: each solve
builds at most one Binding per (slot, pin), on first use. Labeled streaming
holds the search state, O(request length), plus those shared Bindings;
pin-set streaming also remembers every distinct pin set it has yielded.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from .board import Board, FunctionEntry, Pin
from .request import Request

REASON_KIND_UNSUPPORTED = "kind-unsupported"
REASON_PIGEONHOLE = "pigeonhole"
REASON_EXHAUSTED = "exhausted-search"

_ICU_CH12_RE = re.compile(r"TIM\d+_CH[12]\Z")


class AllPinsUsedWarning(UserWarning):
    """The request needs every pin on the board, leaving none free."""


class EnumerationLimitError(RuntimeError):
    """Materializing all solutions would exceed the configured cap."""

    def __init__(self, cap: int):
        super().__init__(
            f"more than {cap} solutions; raise the cap or stream with iter_assignments"
        )
        self.cap = cap


class Semantics(Enum):
    UNIQUE_PIN_SETS = "pinsets"
    LABELED = "labeled"


@dataclass(frozen=True)
class EligibilityRule:
    """A named predicate deciding whether an entry may serve a requested kind.

    Rules can only restrict eligibility: an entry is considered iff its kind
    matches the request slot and every active rule admits it.
    """

    name: str
    predicate: Callable[[Pin, FunctionEntry, str], bool]


def icu_channel_rule() -> EligibilityRule:
    """Admit ICU entries only on timer channels 1 or 2 (detail TIM<n>_CH1/2).

    Entries of other kinds are unaffected. ICU entries without a recognizable
    timer-channel detail are ineligible under this rule.
    """

    def predicate(pin: Pin, entry: FunctionEntry, kind: str) -> bool:
        if kind != "ICU":
            return True
        return bool(_ICU_CH12_RE.match(entry.detail))

    return EligibilityRule("icu-ch12", predicate)


RULES_BY_NAME = {"icu-ch12": icu_channel_rule}


@dataclass(frozen=True)
class SolveOptions:
    semantics: Semantics = Semantics.UNIQUE_PIN_SETS
    rules: tuple[EligibilityRule, ...] = ()
    enumeration_cap: int = 1_000_000


@dataclass(frozen=True)
class Binding:
    """One served slot: canonical slot index, kind, pin id, chosen detail."""

    slot: int
    kind: str
    pin: str
    detail: str


@dataclass(frozen=True)
class Assignment:
    """An injective slot-to-pin map with its total cost."""

    bindings: tuple[Binding, ...]
    total_cost: int
    board: Board = field(repr=False)

    @property
    def used_pins(self) -> frozenset[str]:
        return frozenset(b.pin for b in self.bindings)

    def pin_entry_map(self) -> dict[str, tuple[str, str]]:
        """Used pin id -> (kind, detail)."""
        return {b.pin: (b.kind, b.detail) for b in self.bindings}


@dataclass(frozen=True)
class Witness:
    """A deficient kind set: demanded occurrences exceed the supporting pins."""

    kinds: tuple[str, ...]
    pins: tuple[str, ...]
    demanded: int


@dataclass(frozen=True)
class Infeasible:
    reason: str
    message: str
    witness: Witness | None = None


SolveOutcome = Assignment | Infeasible


class _Bindings(dict):
    """(slot, pin index) -> that slot's Binding on that pin, built on first lookup.

    Streamed assignments share these frozen Bindings instead of building one
    per solution. Only pairs some solution uses are ever built, and the cache
    is one object per solve, so a one-shot solve pays for its own bindings
    and nothing more.
    """

    __slots__ = ("slots", "pins", "detail")

    def __init__(self, slots: tuple[str, ...], pins: tuple[Pin, ...], detail: dict):
        self.slots = slots
        self.pins = pins
        self.detail = detail

    def __missing__(self, key: tuple[int, int]) -> Binding:
        slot, p = key
        kind = self.slots[slot]
        binding = self[key] = Binding(slot, kind, self.pins[p].id, self.detail[(p, kind)])
        return binding


class _Problem:
    """Preprocessed solve instance: canonical slots plus eligibility tables."""

    def __init__(self, board: Board, request: Request, rules: tuple[EligibilityRule, ...]):
        self.board = board
        self.slots = request.canonical
        self.costs = [pin.cost for pin in board.pins]
        self.elig: dict[str, tuple[int, ...]] = {}
        self.detail: dict[tuple[int, str], str] = {}
        for kind in sorted(set(self.slots)):
            supporters = []
            for index, pin in enumerate(board.pins):
                details = [
                    e.detail
                    for e in pin.entries
                    if e.kind == kind and all(r.predicate(pin, e, kind) for r in rules)
                ]
                if details:
                    supporters.append(index)
                    self.detail[(index, kind)] = min(details)
            self.elig[kind] = tuple(supporters)
        self.bindings = _Bindings(self.slots, board.pins, self.detail)

    def assignment(self, chosen: tuple[int, ...]) -> Assignment:
        return Assignment(
            tuple(map(self.bindings.__getitem__, enumerate(chosen))),
            sum(map(self.costs.__getitem__, chosen)),
            self.board,
        )


def _augment(
    problem: _Problem, slot: int, owner: dict[int, int], banned: set[int], visited: set[int]
) -> bool:
    """Kuhn's augmenting path: find slot a pin, moving other slots along the way.

    owner maps each matched pin to its slot. Pins are tried in declaration
    order, skipping banned and already visited ones; on success the path is
    flipped in owner, and on failure owner is unchanged and visited holds
    every pin reachable from slot by alternating paths.
    """
    for p in problem.elig[problem.slots[slot]]:
        if p in banned or p in visited:
            continue
        visited.add(p)
        if p not in owner or _augment(problem, owner[p], owner, banned, visited):
            owner[p] = slot
            return True
    return False


def _witness(problem: _Problem, kinds: tuple[str, ...]) -> Witness:
    """The given kinds with every pin eligible for one and their total demand."""
    wanted = set(kinds)
    support = sorted({p for k in wanted for p in problem.elig[k]})
    return Witness(
        kinds,
        tuple(problem.board.pins[p].id for p in support),
        sum(1 for k in problem.slots if k in wanted),
    )


def check_witness(
    board: Board,
    request: Request,
    witness: Witness,
    rules: tuple[EligibilityRule, ...] = (),
) -> bool:
    """Machine-check an infeasibility witness against its instance.

    Valid iff the witness pins are exactly the pins eligible for some witness
    kind (under the same rules) and the request demands more occurrences of
    those kinds than there are such pins.
    """
    problem = _Problem(board, request, rules)
    if not set(witness.kinds) <= problem.elig.keys():
        return False
    return witness == _witness(problem, witness.kinds) and witness.demanded > len(witness.pins)


def _prepare(
    board: Board, request: Request, options: SolveOptions
) -> tuple[_Problem, dict[int, int]] | Infeasible:
    """Build the instance and one matching of all its slots (pin -> slot).

    Slots are inserted in order by _augment. When one cannot be, its failed
    search visited exactly the pins reachable from it by alternating paths,
    all matched, and every eligible pin of it and of their owners lies among
    them: those slots' kinds demand more pins than support them (Hall's
    condition fails), which is the witness.
    """
    if 0 < request.length == len(board):
        warnings.warn(
            "request length equals the board's pin count; "
            "an assignment would leave no pin free",
            AllPinsUsedWarning,
            stacklevel=3,
        )
    problem = _Problem(board, request, options.rules)
    for kind, supporters in problem.elig.items():
        if not supporters:
            return Infeasible(
                REASON_KIND_UNSUPPORTED,
                f"no pin offers an eligible {kind} entry",
                _witness(problem, (kind,)),
            )
    owner: dict[int, int] = {}
    for slot in range(len(problem.slots)):
        visited: set[int] = set()
        if not _augment(problem, slot, owner, set(), visited):
            reached = {slot} | {owner[p] for p in visited}
            witness = _witness(problem, tuple(sorted({problem.slots[s] for s in reached})))
            return Infeasible(
                REASON_PIGEONHOLE,
                f"{witness.demanded} slots of kinds {{{', '.join(witness.kinds)}}} "
                f"compete for {len(witness.pins)} eligible pins",
                witness,
            )
    return problem, owner


def _iter_bindings(
    problem: _Problem, owner: dict[int, int], distinct_sets: bool
) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of valid pin-index tuples in lexicographic order.

    owner is a matching of all slots (pin -> slot), as _prepare builds it.
    The search keeps it a matching whose bound slots sit on their chosen
    pins: binding slot i to pin p frees i's pin, and if an unbound slot j
    held p, one _augment from j either moves j elsewhere or proves that no
    solution uses p for slot i, which is then skipped with owner unchanged.
    Unbinding leaves i on p, still a matching. So every opened node has a
    solution below it in labeled mode, and the first tuple yielded is the
    lexicographically smallest solution.

    With distinct_sets, runs of equal-kind slots are forced onto strictly
    increasing pin indices, so each (kind -> pin set) split appears once, in
    its smallest arrangement. That floor is not part of the matching, so a
    node may then have nothing below it.

    One loop with an explicit stack, so the depth is not bounded by Python's
    recursion limit. The last slot's candidates are yielded straight from its
    node.
    """
    slots = problem.slots
    length = len(slots)
    if length == 0:
        yield ()
        return
    elig = problem.elig
    last = length - 1
    chosen: list[int] = []  # pins of the slots above the current node
    used: set[int] = set()
    # One entry per open inner node, from the root down: its untried
    # candidates and the pin its slot must exceed (-1 for none).
    frames: list[tuple[Iterator[int], int]] = []
    while True:
        # Enter the node for slot i = len(chosen).
        i = len(chosen)
        kind = slots[i]
        floor = chosen[-1] if distinct_sets and i > 0 and slots[i - 1] == kind else -1
        if i == last:
            for p in elig[kind]:
                if p > floor and p not in used:
                    yield (*chosen, p)
        else:
            frames.append((iter(elig[kind]), floor))
            mine = next(p for p in elig[kind] if owner.get(p) == i)  # i's pin in owner
        # Bind the deepest open node's next candidate, closing exhausted nodes.
        while frames:
            candidates, floor = frames[-1]
            i = len(frames) - 1
            if len(chosen) > i:
                mine = chosen.pop()
                used.remove(mine)
            for p in candidates:
                if p <= floor or p in used:
                    continue
                held = owner.get(p)
                if held == i:
                    break
                owner[p] = i
                del owner[mine]
                if held is None:
                    break
                # Find the displaced slot another pin, or undo and skip p.
                used.add(p)
                if _augment(problem, held, owner, used, set()):
                    break
                used.remove(p)
                owner[p] = held
                owner[mine] = i
            else:
                frames.pop()
                continue
            used.add(p)
            chosen.append(p)
            break
        else:
            return


def _iter_representatives(
    problem: _Problem, owner: dict[int, int]
) -> Iterator[tuple[int, ...]]:
    """Smallest binding per distinct used-pin set, in lexicographic order."""
    seen: set[frozenset[int]] = set()
    for chosen in _iter_bindings(problem, owner, distinct_sets=True):
        key = frozenset(chosen)
        if key not in seen:
            seen.add(key)
            yield chosen


def find_feasible(
    board: Board, request: Request, options: SolveOptions | None = None
) -> SolveOutcome:
    """Return the lexicographically smallest valid assignment, or Infeasible.

    It is the first solution of the labeled enumeration. Deterministic: slot
    order is the canonical request order and pins are tried in declaration
    order, so reruns and slot permutations of the same request give the same
    answer.
    """
    options = options or SolveOptions()
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return prepared
    problem, owner = prepared
    return problem.assignment(next(_iter_bindings(problem, owner, distinct_sets=False)))


def iter_assignments(
    board: Board, request: Request, options: SolveOptions | None = None
) -> Iterator[Assignment]:
    """Stream all solutions under the chosen semantics, lexicographically."""
    options = options or SolveOptions()
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return
    problem, owner = prepared
    if options.semantics is Semantics.LABELED:
        source = _iter_bindings(problem, owner, distinct_sets=False)
    else:
        source = _iter_representatives(problem, owner)
    for chosen in source:
        yield problem.assignment(chosen)


def enumerate_all(
    board: Board, request: Request, options: SolveOptions | None = None
) -> list[Assignment]:
    """Materialize all solutions under the chosen semantics.

    Empty list iff the request is infeasible. Raises EnumerationLimitError
    instead of materializing more than options.enumeration_cap solutions;
    use iter_assignments to stream larger spaces. Raises ValueError for a
    negative cap.
    """
    options = options or SolveOptions()
    if options.enumeration_cap < 0:
        raise ValueError(f"enumeration cap must be >= 0, got {options.enumeration_cap}")
    out: list[Assignment] = []
    for assignment in iter_assignments(board, request, options):
        if len(out) >= options.enumeration_cap:
            raise EnumerationLimitError(options.enumeration_cap)
        out.append(assignment)
    return out


def _lex_min_cost(problem: _Problem) -> tuple[int, ...]:
    """Pin tuple of the minimum-cost assignment, ties broken lexicographically.

    One Kuhn-Munkres solve with Jonker-Volgenant shortest augmenting paths,
    over the eligible edges only. With P pins and L slots, slot i on pin p
    weighs cost(p) * P**L + p * P**(L-1-i). The second terms of an assignment
    spell its pin tuple in base P and sum to less than P**L, so weights order
    assignments by (cost, pin tuple) and the minimum-weight matching is
    unique. Python ints keep the weights exact. The caller guarantees that a
    matching saturating every slot exists (_prepare checks it).
    """
    slots = problem.slots
    length = len(slots)
    n_pins = len(problem.costs)
    scale = n_pins**length
    weights: list[dict[int, int]] = []
    for i, kind in enumerate(slots):
        place = n_pins ** (length - 1 - i)
        weights.append({p: problem.costs[p] * scale + p * place for p in problem.elig[kind]})
    # Insert slots one at a time. Each insertion grows a shortest-path tree
    # from the new slot (Dijkstra on the reduced weights w - u[slot] - v[pin],
    # which the potentials keep nonnegative) until it reaches a free pin, then
    # flips the matching along that path.
    root = n_pins  # virtual column holding the slot being inserted
    u = [0] * length
    v = [0] * (n_pins + 1)
    owner: list[int | None] = [None] * (n_pins + 1)  # slot matched to each pin
    for slot in range(length):
        owner[root] = slot
        way: dict[int, int] = {}
        slack: dict[int, int] = {}
        done = {root}  # columns on the shortest-path tree
        col = root
        while True:
            row = owner[col]
            for p, w in weights[row].items():
                if p in done:
                    continue
                cur = w - u[row] - v[p]
                if p not in slack or cur < slack[p]:
                    slack[p] = cur
                    way[p] = col
            col = min(slack, key=slack.__getitem__)
            delta = slack.pop(col)
            for q in done:
                u[owner[q]] += delta
                v[q] -= delta
            for q in slack:
                slack[q] -= delta
            if owner[col] is None:
                break
            done.add(col)
        while col != root:
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    chosen = [0] * length
    for p in range(n_pins):
        if owner[p] is not None:
            chosen[owner[p]] = p
    return tuple(chosen)


def find_best(
    board: Board, request: Request, options: SolveOptions | None = None
) -> SolveOutcome:
    """Return the minimum-total-cost assignment, ties broken lexicographically.

    Solved exactly by one weighted bipartite assignment whose weights encode
    the lexicographic tie-break.
    """
    options = options or SolveOptions()
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return prepared
    problem = prepared[0]
    return problem.assignment(_lex_min_cost(problem))


def assignment_cost(board: Board, assignment: Assignment) -> int:
    """Sum of pin costs over the assignment's used pins (each charged once)."""
    return sum(board.pin(pin_id).cost for pin_id in sorted(assignment.used_pins))
