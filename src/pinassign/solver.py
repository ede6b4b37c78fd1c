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
either repairs it with one augmenting path or skips that pin. The repair
first gives the displaced slot the pin the bind freed, when that slot can
take it: a path of one step, which any augmenting-path search would also
have found, so only the matching kept changes, never an answer. Otherwise
it runs _augment, the only augmenting-path routine. Both read each slot's
candidate pins from _Problem.options, where the slots of one kind share one
list.
_augment keeps one set of blocked pins: those the caller rules out (a
repair's bound pins) and every pin it has tried. A failed repair proves
every pin it reached dead at its node, so the node skips those candidates
without a search and blocks them in its later repairs. A labeled search
therefore opens no node without a solution below it, and find_feasible is
its first solution. When the initial matching fails, the infeasibility
witness is read off that failed search: the pins it blocked and the kinds
of the slots holding them. check_witness checks a witness against _witness,
which recomputes it from the eligibility table alone.
find_best runs the same search on the instance _prepare builds by_cost: a
minimum-cost matching, inserted in the same loop one cost level at a time,
cheapest first (the only matching a solve builds), candidates cut to the
levels it uses, and spare slots, matched but never bound, holding the pins
a minimum-cost assignment leaves free. Every solution of that search costs
the minimum, so its first labeled one is the answer. quick_reject reads
the eligibility table (_Problem.elig) to reject a request some kind of
which has too few pins, before any search.

_Problem.elig is an instance's one eligibility table: each requested kind
-> its eligible pins in declaration order -> the detail a Binding on that
pin reports, the smallest eligible one. The candidate lists are the
table's tuples of those pins; the by-cost levels, Bindings and the
witnesses _witness recomputes are read from it. It is read from the
_Table this module builds for the Board and the solve's rule set on the
Board's first solve under that set, kept in the Board (Board._tables) and
shared, never written, by every later solve under the same set, so such a
solve scans no pin. The _Problem is itself the solve's Binding cache, a
dict whose values are Bindings and hold nothing that points back at it, so
a solve leaves no reference cycle.

The matching is one list, owner, indexed by pin: owner[p] is the slot
holding pin p, or _FREE, larger than any slot number, when p is free. The
request's slots are numbered 0..n-1 (n = _Problem.length) and the spare
slots n, n+1, ..., so _Problem.options lists the spares' candidates after
the request's.

Eligibility rules are names, keys of RULES_BY_NAME, so options holding them
are plain values. A rule restricts one kind to the entries whose detail
matches its pattern. This module names, validates and applies them:
SolveOptions keeps the rule set as the sorted distinct names, so their
order and repeats do not matter, a solve keys its table on that tuple as
it is, and _build_table applies the set in its one pass over the Board's
entries.

The enumerator is a single loop over an explicit stack, so its own depth is
not bounded by Python's recursion limit (_augment still recurses along each
path, in _prepare's insertions and in the repairs that run it). It yields
Assignments built incrementally: beside the chosen pins it keeps the bound
slots' Bindings and their running cost, so each solution costs one Binding
lookup, one addition, one tuple and one Assignment, built without the
dataclass __init__ at half the constructor's cost. Streamed
Assignments share their frozen Binding objects: each solve builds at most one
Binding per (slot, pin), on first use and also without the dataclass
__init__. A labeled stream walks the subtree below a run of equal-kind slots
once per set of pins the run takes and replays it for the run's other
orderings. It holds the search state, O(request length), plus each open
node's dead pins, O(request length x pins) in all whatever the number of
solutions, plus those shared Bindings, plus a memo of the replayed suffixes
of at most _MEMO_CELLS cells, under 1.5 MB; pin-set streaming keeps no memo
but remembers every distinct pin set it has yielded.
"""

from __future__ import annotations

__all__ = ["AllPinsUsedWarning", "Assignment", "Binding", "EnumerationLimitError", "Infeasible",
           "Rejection", "Semantics", "SolveOptions", "SolveOutcome", "Witness", "check_witness",
           "enumerate_all", "find_best", "find_feasible", "iter_assignments", "quick_reject"]

import re
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .board import Board
from .request import Request

REASON_KIND_UNSUPPORTED = "kind-unsupported"
REASON_PIGEONHOLE = "pigeonhole"
_FREE = sys.maxsize  # owner's entry for a free pin, above every slot number
# A labeled stream's memo (_iter_bindings) records at most _MEMO_CELLS
# cells. A cell is one 8-byte pointer, and each stored tuple is charged its
# items plus _CELLS_PER_TUPLE for its header, its pair or dict slot, its list
# entry and its cost, so the memo stays under 1.5 MB: streams built to spend
# the cells trace at most 0.95 MB. The demo's 136,800-solution request uses
# 28,650.
_MEMO_CELLS = 1 << 17
_CELLS_PER_TUPLE = 20


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


# Eligibility rules by name: each admits an entry of its kind only when the
# entry's detail matches its pattern. Rules only restrict eligibility, and
# entries of other kinds are unaffected. icu-ch12 admits ICU entries on timer
# channels 1 and 2 only (detail TIM<n>_CH1/2).
RULES_BY_NAME = {"icu-ch12": ("ICU", re.compile(r"TIM\d+_CH[12]"))}


def rule_patterns(rules: tuple[str, ...]) -> list[tuple[str, re.Pattern]]:
    """The (kind, detail pattern) of each named rule; ValueError for a name
    that is not a string or that RULES_BY_NAME does not hold."""
    for name in rules:
        if not isinstance(name, str):
            raise ValueError(f"rule names must be strings, got {name!r}")
    try:
        return [RULES_BY_NAME[name] for name in rules]
    except KeyError as exc:
        raise ValueError(f"unknown eligibility rule {exc.args[0]!r}") from None


class _Table(NamedTuple):
    """A Board's solver table for one rule set. offers: each kind -> the
    indices of the pins offering it, in declaration order -> the smallest
    detail among that pin's entries of the kind that the rules admit;
    candidates: each kind -> those indices as one tuple; ids and costs:
    each pin's id and cost, by index. Shared by every solve on the Board
    under the same rule set, so no reader may write into it."""

    offers: dict[str, dict[int, str]]
    candidates: dict[str, tuple[int, ...]]
    ids: tuple[str, ...]
    costs: tuple[int, ...]


def _build_table(board: Board, patterns: list[tuple[str, re.Pattern]]) -> _Table:
    """A Board's table, from one pass over its entries. An entry counts only
    when its detail fully matches every pattern paired with its kind in
    patterns."""
    pins = board.pins
    offers: dict[str, dict[int, str]] = {}
    for index, pin in enumerate(pins):
        for e in pin.entries:
            if patterns and not all(r.fullmatch(e.detail) for k, r in patterns if k == e.kind):
                continue
            details = offers.get(e.kind)
            if details is None:
                offers[e.kind] = {index: e.detail}
            elif index not in details or e.detail < details[index]:
                details[index] = e.detail
    candidates = {kind: tuple(details) for kind, details in offers.items()}
    ids = tuple([pin.id for pin in pins])
    return _Table(offers, candidates, ids, tuple([pin.cost for pin in pins]))


@dataclass(frozen=True)
class SolveOptions:
    """How to solve: the semantics, the eligibility rules by name, and how
    many solutions enumerate_all may materialize (at least 0). Building one
    with a field outside these raises ValueError."""

    semantics: Semantics = Semantics.UNIQUE_PIN_SETS
    rules: tuple[str, ...] = ()  # keys of RULES_BY_NAME, kept as the sorted distinct names
    enumeration_cap: int = 1_000_000

    def __post_init__(self):
        if not isinstance(self.semantics, Semantics):
            raise ValueError(f"semantics must be a Semantics member, got {self.semantics!r}")
        if not isinstance(self.rules, tuple):
            raise ValueError(f"rules must be a tuple of rule names, got {self.rules!r}")
        rule_patterns(self.rules)
        # So options naming one rule set, in any order or with repeats, are equal.
        object.__setattr__(self, "rules", tuple(sorted(set(self.rules))))
        if not isinstance(self.enumeration_cap, int):
            raise ValueError(f"enumeration cap must be an integer, got {self.enumeration_cap!r}")
        if self.enumeration_cap < 0:
            raise ValueError(f"enumeration cap must be >= 0, got {self.enumeration_cap}")


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
    witness: Witness


SolveOutcome = Assignment | Infeasible


@dataclass(frozen=True)
class Rejection:
    """Why a request cannot possibly be served, from a necessary-condition check."""

    reason: str


class _Problem(dict):
    """Preprocessed solve instance: canonical slots plus the eligibility
    table, and the solve's Binding cache.

    elig is that table: each requested kind, in sorted order -> its eligible
    pins' indices in declaration order -> the detail a Binding on that pin
    reports, the smallest eligible one. options lists each slot's candidate
    pins, one tuple per kind, shared by every slot of that kind. Both are
    read from the Board's _Table for the rule set, built on the first solve
    under that set and shared, never written, by every later one. The rule
    set comes normalized, the sorted distinct names as SolveOptions.rules
    keeps them, and is the table's key as it is.

    As a dict, a _Problem maps (slot, pin index) to that slot's Binding on
    that pin, built on first lookup. Streamed assignments share these frozen
    Bindings instead of building one per solution, and only pairs some
    solution uses are ever built, so a one-shot solve pays for its own
    bindings and nothing more. Each Binding skips the dataclass __init__:
    object.__new__ and four stores into its __dict__, in field order, as
    _iter_bindings builds an Assignment.
    """

    # Slots, not an instance dict: with one, the attribute reads of every
    # _augment call made each verdict 3-12% slower.
    __slots__ = ("board", "slots", "length", "costs", "ids", "elig", "options")

    def __init__(self, board: Board, request: Request, rules: tuple[str, ...]):
        tables = board._tables
        if rules not in tables:
            tables[rules] = _build_table(board, rule_patterns(rules))
        offers, candidates, self.ids, self.costs = tables[rules]
        self.board = board
        self.slots = slots = request.canonical
        self.length = len(slots)
        self.elig = {kind: offers.get(kind) or {} for kind in dict.fromkeys(slots)}
        # Candidate pins per slot, read by _augment and _iter_bindings.
        self.options = [candidates.get(kind, ()) for kind in slots]

    def __missing__(self, key: tuple[int, int]) -> Binding:
        slot, p = key
        kind = self.slots[slot]
        # Binding(slot, kind, pin id, detail) without its __init__.
        binding = self[key] = object.__new__(Binding)
        fields = binding.__dict__
        fields["slot"] = slot
        fields["kind"] = kind
        fields["pin"] = self.ids[p]
        fields["detail"] = self.elig[kind][p]
        return binding


def _augment(problem: _Problem, slot: int, owner: list[int], blocked: set[int]) -> bool:
    """Kuhn's augmenting path: find slot a pin, moving other slots along the way.

    Pins are tried in declaration order, skipping blocked ones, and every
    pin tried joins blocked, so one set holds both the pins the caller rules
    out and those already visited. On success the path is flipped in owner;
    on failure owner is unchanged and blocked has gained every pin reachable
    from slot by alternating paths.

    A spare slot only displaces real slots: it does not search on from a pin
    another spare holds. Spares of one cost level share one candidate list,
    so that spare reaches no pin this one does not, and without the skip a
    search could recurse once per spare.
    """
    n = problem.length
    for p in problem.options[slot]:
        if p in blocked:
            continue
        blocked.add(p)
        holder = owner[p]
        if holder == _FREE or (
            (slot < n or holder < n) and _augment(problem, holder, owner, blocked)
        ):
            owner[p] = slot
            return True
    return False


def _witness(problem: _Problem, kinds: tuple[str, ...]) -> Witness:
    """The given kinds with every pin eligible for one and their total demand,
    recomputed from the eligibility table: check_witness's reference for a
    witness _prepare read off its failed search, and the witness of a kind
    no pin supports."""
    wanted = set(kinds)
    support = sorted({p for k in wanted for p in problem.elig[k]})
    return Witness(
        kinds,
        tuple(problem.ids[p] for p in support),
        sum(1 for k in problem.slots if k in wanted),
    )


def check_witness(
    board: Board,
    request: Request,
    witness: Witness,
    rules: Iterable[str] = (),
) -> bool:
    """Machine-check an infeasibility witness against its instance.

    Valid iff the witness pins are exactly the pins eligible for some witness
    kind (under the same rules, any sequence of rule names) and the request
    demands more occurrences of those kinds than there are such pins. The
    names are read through SolveOptions, so a name that is not a known rule,
    a string or not, raises its ValueError. The check recomputes the witness
    from the Board's eligibility table (_witness), not from a search.
    """
    problem = _Problem(board, request, SolveOptions(rules=tuple(rules)).rules)
    if not set(witness.kinds) <= problem.elig.keys():
        return False
    return witness == _witness(problem, witness.kinds) and witness.demanded > len(witness.pins)


def quick_reject(board: Board, request: Request) -> Rejection | None:
    """Cheap necessary-condition filter ahead of the full solve.

    Returns a Rejection when the request is provably unservable: more slots
    than pins, or some kind demanded more times than there are pins offering
    it (the eligibility table without rules). When several kinds fall short,
    the reason names the first of them in the request's canonical order, so
    a permutation of the slots gets the same reason. Returns None when no
    such obstruction exists; the solver still has to decide feasibility.
    Never rejects a servable request.
    """
    if request.length > len(board):
        return Rejection(
            f"{request.length} slots requested but board has {len(board)} pins"
        )
    elig = _Problem(board, request, ()).elig
    for kind, needed in Counter(request.canonical).items():
        offers = len(elig[kind])
        if offers < needed:
            if offers == 0:
                return Rejection(f"no pin offers {kind}")
            return Rejection(f"{needed} x {kind} requested but only {offers} pins offer it")
    return None


def _prepare(
    board: Board, request: Request, options: SolveOptions, by_cost: bool = False
) -> tuple[_Problem, list[int]] | Infeasible:
    """Build the instance and owner, one matching of all its slots.

    Slots are inserted in order by _augment. Without by_cost there is one
    level and nothing is blocked. With by_cost (find_best only) they are
    inserted one cost level at a time, cheapest first, with dearer pins
    blocked, and a slot that fails at a level waits for the next. A pin
    costs the same whichever slot it serves, so the pin sets of full
    matchings are the bases of a transversal matroid, and this greedy rule
    (Edmonds 1971) finds a cheapest one: after level c the matching holds
    as many pins of cost <= c as any matching can, and a matched pin stays
    matched, so no assignment is cheaper. By the same count, every
    minimum-cost assignment uses the same number of pins of each cost.

    When a slot cannot be inserted at the last level, where nothing is
    blocked, the request is infeasible and the slot's failed search
    visited exactly the pins reachable from it by alternating paths, all
    matched, and every eligible pin of it and of their owners lies among
    them: those slots' kinds demand more pins than support them (Hall's
    condition fails), which is the witness. It is read off the search:
    its kinds are the slot's and its blocked pins' holders', and its pins
    are the blocked ones, since each reached slot tried its whole candidate
    list and the slots of one kind share one list, so they are every pin
    eligible for those kinds (what _witness recomputes and check_witness
    checks). The Witness and the Infeasible skip the dataclass __init__,
    as a Binding does.

    By_cost, the instance returned is the cheapest search: the candidate
    lists are cut to the levels the matching uses, and owner gains one
    spare slot per free pin of a used level, eligible for every pin of that
    level. The spares leave the real slots as many pins of each level as
    the matching uses, no more, so the real slots of any matching of slots
    and spares form a minimum-cost assignment, and every minimum-cost
    assignment extends to such a matching. The enumerator's repairs
    therefore keep one below every open node; spares are matched but never
    bound.
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
    # The pins each level blocks, cheapest level first.
    levels: list = [()]
    if by_cost:
        costs = problem.costs
        pins = sorted({p for supporters in problem.elig.values() for p in supporters})
        levels = [[p for p in pins if costs[p] > c] for c in sorted({costs[p] for p in pins})]
    owner = [_FREE] * len(board.pins)
    waiting = range(problem.length)
    for dearer in levels:
        # A failed search's blocked pins stay unreachable until one succeeds.
        blocked = {*dearer}
        left = []
        for slot in waiting:
            if _augment(problem, slot, owner, blocked):
                blocked = {*dearer}
            elif dearer:
                left.append(slot)
            else:
                slots = problem.slots
                wanted = {slots[slot], *[slots[owner[p]] for p in blocked]}
                kinds = (*sorted(wanted),)
                # Witness(kinds, pins, demanded) and Infeasible(reason,
                # message, witness) without their __init__.
                witness = object.__new__(Witness)
                fields = witness.__dict__
                fields["kinds"] = kinds
                fields["pins"] = (*map(problem.ids.__getitem__, sorted(blocked)),)
                fields["demanded"] = demanded = sum(map(wanted.__contains__, slots))
                outcome = object.__new__(Infeasible)
                fields = outcome.__dict__
                fields["reason"] = REASON_PIGEONHOLE
                fields["message"] = (
                    f"{demanded} slots of kinds {{{', '.join(kinds)}}} "
                    f"compete for {len(blocked)} eligible pins"
                )
                fields["witness"] = witness
                return outcome
        waiting = left
    if by_cost:
        kept = {costs[p] for p in pins if owner[p] != _FREE}  # the levels the matching uses
        cut = {kind: [p for p in elig if costs[p] in kept] for kind, elig in problem.elig.items()}
        options = problem.options = [cut[kind] for kind in problem.slots]
        for level in sorted(kept):
            level_pins = [p for p in pins if costs[p] == level]
            for p in level_pins:
                if owner[p] == _FREE:
                    owner[p] = len(options)
                    options.append(level_pins)
    return problem, owner


def _record(recording: list, leaf: tuple[Binding, ...], cost: int, left: int) -> int:
    """Add a yielded solution, below its node, to each run end being
    recorded, and return the cells left, charging each entry its Bindings
    plus _CELLS_PER_TUPLE. Once none are left, record nothing more."""
    for node, base, leaves, _ in recording:
        leaves.append((leaf[node:], cost - base))
        left -= len(leaf) - node + _CELLS_PER_TUPLE
    if left < 0:
        recording.clear()
    return left


def _iter_bindings(
    problem: _Problem, owner: list[int], semantics: Semantics
) -> Iterator[Assignment]:
    """Depth-first enumeration of valid assignments in lexicographic order.

    owner is a matching of all slots, spares included, as _prepare builds
    it. The node for slot i has bound slots 0..i-1, and the search keeps
    each of them on its chosen pin, so a pin is taken above the node exactly
    when its holder is below i. Binding slot i to pin p frees i's pin, and
    if an unbound slot j held p, one _augment from j either moves j
    elsewhere or proves that no solution uses p for slot i, which is then
    skipped with owner unchanged. Unbinding leaves i on p, still a matching.
    So every opened node has a solution below it in labeled mode, and the
    first assignment yielded is the lexicographically smallest solution.

    The last slot's node runs no repair: it yields a candidate not taken
    above when the candidate is its slot's own pin, is free, or is held by a
    slot that lists its slot's pin among its candidates. Every other slot is
    bound there, so that holder is a spare, and the test is the whole
    repair: the spare cannot search on from another spare's pin (_augment),
    the request's other pins are taken, and the slot's pin is the only free
    one, since the spares and the request's slots fill every pin of the
    cost levels in use. So every leaf of the cheapest search is a
    minimum-cost assignment. A plain instance has no spares, and its last
    slot takes every candidate not taken above.

    Before that _augment, j takes i's freed pin m if m is among j's
    candidates (for a spare, its cost level's pins), and the bind runs no
    search. This is exact: m is free, it is not p, no slot above holds it,
    and it is never among the node's dead pins (see below). A pin i holds
    was not dead when i took it, and every later failed repair at the node
    ran with that pin free, so did not reach it. So j -> m is an augmenting
    path that avoids every pin _augment(j, ...) would block, and that search
    would have succeeded too. Only the matching owner keeps differs; which
    candidates succeed or fail, the dead pins, the solutions and their order
    do not (the slots a failed repair reaches need every pin it reached, so
    any matching reaches the same ones). On a board where every pin offers
    every requested kind, every bind of the first descent is such a step,
    so find_feasible there runs no search beyond _prepare's.

    A failed repair proves more than that p is dead. Say the repair from j,
    with p and the chosen pins blocked, reached the pins R. All of them are
    matched, none is free, and i's pin, freed for the repair, is not among
    them, or the repair would have succeeded. Let T be j plus the holders of
    R. Then |T| = |R| + 1, and every candidate of a slot of T outside the
    chosen pins lies in R | {p}, so T fits only if it gets all of R | {p}
    (Hall's condition is tight there). Whatever matching owner later holds
    below this node:
    - every pin of R | {p} is a dead candidate for slot i;
    - no augmenting path for a live candidate passes through R | {p}: it
      would stay inside it and reach no free pin, so blocking those pins
      loses no repair, and a repair succeeds along the same path as without
      them;
    - a later failure seeded with them reaches a set whose union with them
      is again tight, so it proves its own pins dead too.
    The spare rule does not break this. A spare does not search on from
    another spare's pin, but spares of one cost level share one candidate
    list, so T's candidates are still closed.

    Each frame therefore keeps its node's dead pins: the shared () until the
    node's first failed repair, so a node without one allocates nothing. A
    candidate among them is skipped without a search (a dead pin is never
    free, never i's own and never taken above). Each later repair at the
    node is seeded with them, and after a failure they become its blocked
    pins less the chosen ones. Every output, its order and the matching
    owner holds are those of the search without them. Each open node holds
    at most its dead pins, kept without the chosen ones and freed when it
    closes, so O(request length x pins) in all, whatever the number of
    solutions.

    Unless semantics is LABELED, runs of equal-kind slots are forced onto
    strictly increasing pin indices, so each (kind -> pin set) split appears
    once, in its smallest arrangement. That floor is not part of the
    matching, so a node may then have nothing below it. Different splits can
    still share a pin set; a leaf whose pin set was yielded before is skipped
    before any object is built, so each set yields its smallest binding only.

    Each solution is built from its parent node: the bound slots' shared
    Bindings and their running cost are kept beside the chosen pins, the last
    slot's node freezes that prefix once, and each of its candidates costs
    one Binding lookup, one addition, one tuple and one Assignment. The
    Assignment skips the dataclass __init__: object.__new__ and three stores
    into its __dict__, in field order, give the instance the constructor
    would build, at half its cost.

    In labeled mode the solutions below a node depend only on the node and
    the pins taken above it: a candidate is skipped when a slot above holds
    it, and a repair succeeds when the unbound slots (spares included) can
    still be matched around the taken pins, whichever matching owner holds;
    the last slot takes every candidate not taken above that its test
    accepts: all of them on a plain instance, and on the cheapest one
    those of one cost level, which the taken pins fix: every minimum-cost
    assignment uses as many pins of each cost as any other, so the taken
    pins leave the last slot exactly one pin to take, of a known
    cost. So a run end, a node j < last whose slots j-2 and j-1 share a kind
    that slot j lacks, is reached once for each ordering of that run's pins,
    r! times for a run of r slots, with the same solutions below. The first
    time a taken set reaches it with the memo on, its leaves are recorded as
    (Bindings of slots j.., their pins' cost), stored when its frame closes;
    later times they are replayed, each the prefix's Bindings plus the
    recorded ones, the same shared objects, and the node is closed unwalked
    with owner untouched, still a matching of all slots. A replay inside a
    run end being recorded is recorded there too. The memo starts once the
    first solution is resumed, so find_feasible never pays for it, and it
    records at most _MEMO_CELLS cells, under 1.5 MB; once they are spent it
    records nothing more. Memory is the O(request length) search state, the
    open nodes' dead pins, the shared Bindings and that memo; pin-set mode,
    whose yielded sets make a node's solutions depend on what came before,
    keeps no memo but the yielded pin sets.

    One loop with an explicit stack, so the depth is not bounded by Python's
    recursion limit.
    """
    slots = problem.slots
    length = problem.length
    board = problem.board
    if length == 0:
        yield Assignment((), 0, board)
        return
    options = problem.options
    costs = problem.costs
    new = object.__new__
    distinct_sets = semantics is not Semantics.LABELED
    last = length - 1
    chosen: list[int] = []  # pins of the slots above the current node
    bound: list[Binding] = []  # their Bindings
    spent = 0  # and their total cost
    seen: set[frozenset[int]] = set()  # pin sets yielded, unless LABELED
    # One entry per open inner node, from the root down: its untried
    # candidates, the pin its slot must exceed (-1 for none) and its dead
    # pins, () until its first failed repair.
    frames: list[tuple[Iterator[int], int, tuple[()] | set[int]]] = []
    # The labeled memo: the run ends, none until the first solution is
    # resumed; each recorded run end's leaves by its sorted taken pins; the
    # run ends being recorded, (node, cost above it, leaves so far, taken
    # pins); and the cells left to record in.
    left = 0 if distinct_sets else _MEMO_CELLS
    pending = left > 0
    ends: set[int] = set()
    memo: dict[tuple[int, ...], list[tuple[tuple[Binding, ...], int]]] = {}
    recording: list[tuple[int, int, list, tuple[int, ...]]] = []
    while True:
        # Enter the node for slot i = len(chosen): the last slot yields its
        # solutions, a recorded run end replays its leaves, any other node
        # opens a frame.
        i = len(chosen)
        kind = slots[i]
        floor = chosen[-1] if distinct_sets and i > 0 and slots[i - 1] == kind else -1
        tails = None  # a recorded run end's leaves, to replay
        if i in ends:
            taken = (*sorted(chosen),)
            tails = memo.get(taken)
            if tails is None and left > i + _CELLS_PER_TUPLE:
                left -= i + _CELLS_PER_TUPLE
                recording.append((i, spent, [], taken))
        if i == last:
            prefix = tuple(bound)
            for p in options[i]:
                held = owner[p]
                if p > floor and held >= i and (
                    held == i or held == _FREE or owner.index(i) in options[held]
                ):
                    if distinct_sets:
                        key = frozenset((*chosen, p))
                        if key in seen:
                            continue
                        seen.add(key)
                    # Assignment(bindings, cost, board) without its __init__.
                    a = new(Assignment)
                    fields = a.__dict__
                    fields["bindings"] = leaf = (*prefix, problem[i, p])
                    fields["total_cost"] = cost = spent + costs[p]
                    fields["board"] = board
                    yield a
                    if recording:
                        left = _record(recording, leaf, cost, left)
            if pending:
                pending = False
                ends = {j for j in range(2, last) if slots[j - 1] == slots[j - 2] != slots[j]}
        elif tails is None:
            frames.append((iter(options[i]), floor, ()))
            mine = owner.index(i)
        else:
            prefix = tuple(bound)
            for suffix, suffix_cost in tails:
                a = new(Assignment)
                fields = a.__dict__
                fields["bindings"] = leaf = prefix + suffix
                fields["total_cost"] = cost = spent + suffix_cost
                fields["board"] = board
                yield a
                if recording:
                    left = _record(recording, leaf, cost, left)
        # Bind the deepest open node's next candidate, closing exhausted nodes.
        while frames:
            candidates, floor, dead = frames[-1]
            i = len(frames) - 1
            if len(chosen) > i:
                mine = chosen.pop()
                bound.pop()
                spent -= costs[mine]
            for p in candidates:
                held = owner[p]
                if p <= floor or held < i or p in dead:
                    continue
                if held == i:
                    break
                owner[p] = i
                owner[mine] = _FREE
                if held == _FREE:
                    break
                # The displaced slot takes the pin the bind freed, if it can.
                if mine in options[held]:
                    owner[mine] = held
                    break
                # Else find it another pin, or undo, skip p and keep what
                # the failure reached as the node's dead pins.
                tried = {p, *chosen, *dead}
                if _augment(problem, held, owner, tried):
                    break
                owner[p] = held
                owner[mine] = i
                dead = tried.difference(chosen)
                frames[-1] = (candidates, floor, dead)
            else:
                frames.pop()
                if recording and recording[-1][0] == i:
                    node, base, leaves, taken = recording.pop()
                    memo[taken] = leaves
                continue
            chosen.append(p)
            bound.append(problem[i, p])
            spent += costs[p]
            break
        else:
            return


def find_feasible(
    board: Board, request: Request, options: SolveOptions = SolveOptions()
) -> SolveOutcome:
    """Return the lexicographically smallest valid assignment, or Infeasible.

    It is the first solution of the labeled enumeration. Deterministic: slot
    order is the canonical request order and pins are tried in declaration
    order, so reruns and slot permutations of the same request give the same
    answer.
    """
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return prepared
    return next(_iter_bindings(*prepared, Semantics.LABELED))


def iter_assignments(
    board: Board, request: Request, options: SolveOptions = SolveOptions()
) -> Iterator[Assignment]:
    """Stream all solutions under the chosen semantics, lexicographically."""
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return
    yield from _iter_bindings(*prepared, options.semantics)


def enumerate_all(
    board: Board, request: Request, options: SolveOptions = SolveOptions()
) -> list[Assignment]:
    """Materialize all solutions under the chosen semantics.

    Empty list iff the request is infeasible. Raises EnumerationLimitError
    instead of materializing more than options.enumeration_cap solutions;
    use iter_assignments to stream larger spaces.
    """
    # _prepare directly, not through iter_assignments, so that its
    # AllPinsUsedWarning names this function's caller.
    prepared = _prepare(board, request, options)
    if isinstance(prepared, Infeasible):
        return []
    cap = options.enumeration_cap
    out = list(islice(_iter_bindings(*prepared, options.semantics), cap + 1))
    if len(out) > cap:
        raise EnumerationLimitError(cap)
    return out


def find_best(
    board: Board, request: Request, options: SolveOptions = SolveOptions()
) -> SolveOutcome:
    """Return the minimum-total-cost assignment, ties broken lexicographically.

    _prepare, asked by_cost, builds a minimum-cost matching and the search
    whose solutions are exactly the minimum-cost assignments; that matching
    also decides feasibility, so an infeasible request returns _prepare's
    Infeasible. The answer is that search's first labeled solution.
    """
    prepared = _prepare(board, request, options, by_cost=True)
    if isinstance(prepared, Infeasible):
        return prepared
    return next(_iter_bindings(*prepared, Semantics.LABELED))
