"""Pin-capability table: data model, parser, and serializer.

A board is an ordered list of pins. Each pin carries one or more function
entries, where an entry pairs a function kind (ANALOG, ICU, SERIAL_TX, ...)
with an optional peripheral detail (ADC1_IN1, TIM2_CH2, ...). The cost of a
pin is the number of its entries: pins with many alternate functions are
expensive to burn on a single use.

Board file format (UTF-8, LF or CRLF):

    # comment to end of line
    board <name>                      # optional, first significant line
    pin <ID> = KIND[/DETAIL], KIND[/DETAIL], ...

IDs match ``[A-Za-z][A-Za-z0-9_]*``. Kind tokens match
``[A-Za-z][A-Za-z0-9_-]*`` and are canonicalized by uppercasing and mapping
``-`` to ``_``; unknown kinds are accepted. Details match ``[A-Za-z0-9_]+``
and default to ``-`` when omitted. One leading byte-order mark is dropped.

Each value checks its own part of this grammar when it is built, however it
was built: a FunctionEntry its canonical kind (``[A-Z][A-Z0-9_]*``) and its
detail, a Pin its id, at least one entry and no repeated entry, and a Board
its name and that no id repeats. The name is what a header line can carry
back: no line break, no ``#`` and no outer blanks. So every token a consumer
of a Board writes comes from this grammar, and serialize_board's text parses
back to an equal Board. parse_board checks only the syntax around these
values and reports a value's fault at its line and column.

A Board also keeps a private dict, _tables, in which the solver keeps the
eligibility tables it builds for the Board, one per rule set. Equality,
hash and repr ignore it, and the constructor starts it empty, so
dataclasses.replace gives a Board with no table. A Board is immutable, so
no table goes stale, and a pickle or copy that carries them carries
correct ones.
"""

from __future__ import annotations

__all__ = ["Board", "BoardParseError", "FunctionEntry", "NO_DETAIL", "Pin", "board_stats",
           "canonical_kind", "parse_board", "serialize_board"]

import re
from dataclasses import dataclass, field

NO_DETAIL = "-"

_KIND_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
CANONICAL_KIND_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_PIN_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DETAIL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class BoardParseError(ValueError):
    """Board text is malformed. Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def canonical_kind(token: str) -> str:
    """Canonicalize a function-kind token (uppercase, hyphen to underscore).

    The kind vocabulary is open: any token matching the ASCII grammar
    ``[A-Za-z][A-Za-z0-9_-]*`` (after stripping blanks) is accepted. The
    grammar is checked before uppercasing, since uppercasing maps some
    non-ASCII letters to ASCII ones ("ß" to "SS"). Canonicalization is
    idempotent.
    """
    stripped = token.strip()
    if not _KIND_RE.match(stripped):
        raise ValueError(f"invalid function kind {token!r}")
    return stripped.upper().replace("-", "_")


def _first_repeat(items) -> int | None:
    """Index of the first item equal to an earlier one, or None."""
    seen = set()
    for index, item in enumerate(items):
        if item in seen:
            return index
        seen.add(item)
    return None


@dataclass(frozen=True)
class FunctionEntry:
    """One capability of a pin: a kind plus the peripheral route serving it."""

    kind: str
    detail: str = NO_DETAIL

    def __post_init__(self):
        if not CANONICAL_KIND_RE.match(self.kind):
            raise ValueError(f"kind {self.kind!r} is not canonical")
        if self.detail != NO_DETAIL and not _DETAIL_RE.match(self.detail):
            raise ValueError(f"invalid detail {self.detail!r}")

    def __str__(self) -> str:
        if self.detail == NO_DETAIL:
            return self.kind
        return f"{self.kind}/{self.detail}"


@dataclass(frozen=True)
class Pin:
    """A physical pin and its function entries. Cost equals the entry count."""

    id: str
    entries: tuple[FunctionEntry, ...]

    def __post_init__(self):
        # The entries are checked before the id, so that parse_board can
        # tell the two faults apart by looking for a repeat.
        if not self.entries:
            raise ValueError(f"pin {self.id} has no entries")
        if len(set(self.entries)) < len(self.entries):
            repeat = self.entries[_first_repeat(self.entries)]
            raise ValueError(f"duplicate entry {repeat} on pin {self.id}")
        if not _PIN_ID_RE.match(self.id):
            raise ValueError(f"invalid pin id {self.id!r}")

    @property
    def cost(self) -> int:
        return len(self.entries)

    def kinds(self) -> tuple[str, ...]:
        return tuple(e.kind for e in self.entries)


@dataclass(frozen=True)
class Board:
    """An ordered pin table. Declaration order drives deterministic tie-breaks."""

    pins: tuple[Pin, ...]
    name: str | None = None
    _by_id: dict = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        # The ids are checked before the name, so that parse_board can tell
        # the two faults apart by looking for a repeat.
        keys = [pin.id.lower() for pin in self.pins]
        by_id = dict(zip(keys, range(len(keys))))
        if len(by_id) < len(keys):
            raise ValueError(f"duplicate pin id {self.pins[_first_repeat(keys)].id!r}")
        object.__setattr__(self, "_by_id", by_id)
        if self.name is not None:
            for char, what in (("\r", "carriage return"), ("\n", "line feed"), ("#", "'#'")):
                if char in self.name:
                    raise ValueError(f"{what} in board name")
            if self.name != self.name.strip():
                raise ValueError(f"outer blanks in board name {self.name!r}")

    def __len__(self) -> int:
        return len(self.pins)

    def pin(self, pin_id: str) -> Pin:
        """Look up a pin by id, case-insensitively."""
        return self.pins[self.index_of(pin_id)]

    def index_of(self, pin_id: str) -> int:
        """Declaration index of a pin, case-insensitively."""
        try:
            return self._by_id[pin_id.lower()]
        except KeyError:
            raise KeyError(f"unknown pin id {pin_id!r}") from None

    def has_pin(self, pin_id: str) -> bool:
        return pin_id.lower() in self._by_id


def board_stats(board: Board) -> tuple[int, int, set[str]]:
    """Return (pin count, max entries per pin, set of kinds offered anywhere)."""
    max_cost = max((p.cost for p in board.pins), default=0)
    kinds = {e.kind for p in board.pins for e in p.entries}
    return len(board.pins), max_cost, kinds


def _parse_entry(chunk: str, line_no: int, col: int) -> FunctionEntry:
    if not chunk.strip():
        raise BoardParseError("empty function entry", line_no, col)
    kind_token, slash, detail = chunk.partition("/")
    detail = detail.strip() if slash else NO_DETAIL
    if slash and detail == NO_DETAIL:  # "-" only stands for an omitted detail
        raise BoardParseError("invalid detail '-'", line_no, col)
    try:
        return FunctionEntry(canonical_kind(kind_token.strip()), detail)
    except ValueError as exc:
        raise BoardParseError(str(exc), line_no, col) from None


def _parse_pin_line(line: str, line_no: int, start: int) -> Pin:
    # start: 0-based index in line just past the "pin" keyword.
    head, eq, tail = line[start:].partition("=")
    if not eq:
        raise BoardParseError("expected '=' after pin id", line_no, len(line) + 1)
    entries: list[FunctionEntry] = []
    columns: list[int] = []  # of each entry, for placing a fault in it
    base = start + len(head) + 1
    for chunk in tail.split(","):
        columns.append(base + (len(chunk) - len(chunk.lstrip())) + 1)
        entries.append(_parse_entry(chunk, line_no, columns[-1]))
        base += len(chunk) + 1
    try:
        return Pin(head.strip(), tuple(entries))
    except ValueError as exc:
        repeat = _first_repeat(entries)
        column = start + len(head) - len(head.lstrip()) + 1 if repeat is None else columns[repeat]
        raise BoardParseError(str(exc), line_no, column) from None


def parse_board(text: str) -> Board:
    """Parse a board document, preserving pin declaration order.

    Raises BoardParseError on syntax errors and on every fault the Board,
    Pin and FunctionEntry constructors refuse, at the line and column of
    the refused value.
    """
    name: str | None = None
    header = (0, 0)
    pins: list[Pin] = []
    places: list[tuple[int, int]] = []
    text = text.removeprefix("\ufeff")
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].rstrip("\r").rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if stripped.startswith("board") and (len(stripped) == 5 or stripped[5].isspace()):
            if name is not None or pins:
                raise BoardParseError(
                    "board header must be the first significant line", line_no, indent + 1
                )
            name = stripped[5:].strip()
            # A carriage return is the only fault a header line can put in
            # the name, and the name ends the line, so its last \r is in it.
            header = (line_no, line.rfind("\r") + 1)
            continue
        if stripped.startswith("pin") and len(stripped) > 3 and stripped[3].isspace():
            pins.append(_parse_pin_line(line, line_no, indent + 3))
            places.append((line_no, indent + 1))
            continue
        raise BoardParseError("expected 'pin' or 'board' line", line_no, indent + 1)
    try:
        return Board(tuple(pins), name)
    except ValueError as exc:
        repeat = _first_repeat([pin.id.lower() for pin in pins])
        raise BoardParseError(str(exc), *(header if repeat is None else places[repeat])) from None


def serialize_board(board: Board) -> str:
    """Render a board back to its file format. Reparsing yields an equal board."""
    lines = []
    if board.name is not None:
        lines.append(f"board {board.name}")
    for pin in board.pins:
        entries = ", ".join(str(e) for e in pin.entries)
        lines.append(f"pin {pin.id} = {entries}")
    return "\n".join(lines) + "\n"
