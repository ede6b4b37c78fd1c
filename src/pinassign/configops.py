"""Operations across configurations: merge requests, diff and extend assignments."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .board import Board
from .request import Request
from .solver import (
    Assignment,
    Binding,
    Infeasible,
    SolveOptions,
    SolveOutcome,
    find_best,
)


class BoardMismatchError(ValueError):
    """The two assignments do not refer to the same board."""


@dataclass(frozen=True)
class PinChange:
    """One pin whose binding differs: old and new are (kind, detail) or None."""

    pin: str
    old: tuple[str, str] | None
    new: tuple[str, str] | None


@dataclass(frozen=True)
class ConfigDiff:
    """Structural difference between two assignments on one board.

    added_kinds/removed_kinds are the slot-level multiset difference;
    pin_changes records per-pin rebindings, additions, and removals in
    declaration order; cost_delta is new cost minus old cost.
    """

    added_kinds: tuple[str, ...]
    removed_kinds: tuple[str, ...]
    pin_changes: tuple[PinChange, ...]
    cost_delta: int

    @property
    def is_empty(self) -> bool:
        return not self.pin_changes and self.cost_delta == 0


def merge_requests(a: Request, b: Request) -> Request:
    """Multiset sum of two requests, in canonical order."""
    return Request(tuple(sorted(a.slots + b.slots)))


def diff_assignments(a: Assignment, b: Assignment) -> ConfigDiff:
    """Diff two assignments over the same board.

    diff(x, x) is empty. Applying the result to the first assignment with
    apply_diff reconstructs the second.
    """
    if a.board != b.board:
        raise BoardMismatchError("assignments refer to different boards")
    old_map = a.pin_entry_map()
    new_map = b.pin_entry_map()
    changes = []
    for pin_id in sorted(set(old_map) | set(new_map), key=a.board.index_of):
        old = old_map.get(pin_id)
        new = new_map.get(pin_id)
        if old != new:
            changes.append(PinChange(pin_id, old, new))
    old_kinds = Counter(kind for kind, _ in old_map.values())
    new_kinds = Counter(kind for kind, _ in new_map.values())
    return ConfigDiff(
        added_kinds=tuple(sorted((new_kinds - old_kinds).elements())),
        removed_kinds=tuple(sorted((old_kinds - new_kinds).elements())),
        pin_changes=tuple(changes),
        cost_delta=b.total_cost - a.total_cost,
    )


def _canonical_assignment(board: Board, pin_map: dict[str, tuple[str, str]]) -> Assignment:
    # Slots follow the canonical kind order; equal kinds take pins in
    # declaration order, matching the solver's output form.
    items = sorted(pin_map.items(), key=lambda kv: (kv[1][0], board.index_of(kv[0])))
    bindings = tuple(
        Binding(i, kind, pin_id, detail)
        for i, (pin_id, (kind, detail)) in enumerate(items)
    )
    total = sum(board.pin(pin_id).cost for pin_id in pin_map)
    return Assignment(bindings, total, board)


def apply_diff(diff: ConfigDiff, base: Assignment) -> Assignment:
    """Apply a diff to the assignment it was computed from.

    Raises ValueError when the diff's old-side entries do not match base,
    or a new entry is not one its pin offers on base's board.
    """
    board = base.board
    pin_map = base.pin_entry_map()
    for change in diff.pin_changes:
        pin, new = change.pin, change.new
        if pin_map.get(pin) != change.old:
            raise ValueError(f"diff does not apply: pin {pin} differs from base")
        if new is None:
            del pin_map[pin]
        elif board.has_pin(pin) and new in [(e.kind, e.detail) for e in board.pin(pin).entries]:
            pin_map[pin] = new
        else:
            raise ValueError(f"diff does not apply: pin {pin} does not offer {'/'.join(new)}")
    return _canonical_assignment(board, pin_map)


def extend_assignment(
    board: Board,
    base: Assignment,
    extra: Request,
    options: SolveOptions | None = None,
) -> SolveOutcome:
    """Solve the extra request on the pins left free by base, keeping base
    bindings frozen, and return the combined assignment.

    Infeasibility (with witness) is reported over the residual board. With an
    empty base this is exactly find_best on the full board. Raises
    BoardMismatchError when base refers to another board.
    """
    if base.board != board:
        raise BoardMismatchError("base assignment refers to a different board")
    used = base.used_pins
    residual = Board(tuple(pin for pin in board.pins if pin.id not in used), board.name)
    outcome = find_best(residual, extra, options)
    if isinstance(outcome, Infeasible):
        return outcome
    pin_map = base.pin_entry_map()
    pin_map.update(outcome.pin_entry_map())
    return _canonical_assignment(board, pin_map)
