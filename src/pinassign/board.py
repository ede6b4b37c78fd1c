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
and default to ``-`` when omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

NO_DETAIL = "-"

_KIND_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
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


@dataclass(frozen=True)
class FunctionEntry:
    """One capability of a pin: a kind plus the peripheral route serving it."""

    kind: str
    detail: str = NO_DETAIL

    def __str__(self) -> str:
        if self.detail == NO_DETAIL:
            return self.kind
        return f"{self.kind}/{self.detail}"


@dataclass(frozen=True)
class Pin:
    """A physical pin and its function entries. Cost equals the entry count."""

    id: str
    entries: tuple[FunctionEntry, ...]

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

    def __post_init__(self):
        by_id = {}
        for index, pin in enumerate(self.pins):
            key = pin.id.lower()
            if key in by_id:
                raise ValueError(f"duplicate pin id {pin.id!r}")
            by_id[key] = (index, pin)
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.pins)

    def pin(self, pin_id: str) -> Pin:
        """Look up a pin by id, case-insensitively."""
        try:
            return self._by_id[pin_id.lower()][1]
        except KeyError:
            raise KeyError(f"unknown pin id {pin_id!r}") from None

    def index_of(self, pin_id: str) -> int:
        """Declaration index of a pin, case-insensitively."""
        try:
            return self._by_id[pin_id.lower()][0]
        except KeyError:
            raise KeyError(f"unknown pin id {pin_id!r}") from None

    def has_pin(self, pin_id: str) -> bool:
        return pin_id.lower() in self._by_id


def cost_of(board: Board, pin_id: str) -> int:
    """Number of function entries of the named pin."""
    return board.pin(pin_id).cost


def board_stats(board: Board) -> tuple[int, int, set[str]]:
    """Return (pin count, max entries per pin, set of kinds offered anywhere)."""
    max_cost = max((p.cost for p in board.pins), default=0)
    kinds = {e.kind for p in board.pins for e in p.entries}
    return len(board.pins), max_cost, kinds


def _parse_entry(chunk: str, line_no: int, chunk_start: int) -> FunctionEntry:
    # chunk_start: 0-based index of the chunk within its line.
    col = chunk_start + (len(chunk) - len(chunk.lstrip())) + 1
    stripped = chunk.strip()
    if not stripped:
        raise BoardParseError("empty function entry", line_no, col)
    kind_token, slash, detail_token = stripped.partition("/")
    try:
        kind = canonical_kind(kind_token.strip())
    except ValueError as exc:
        raise BoardParseError(str(exc), line_no, col) from None
    if not slash:
        return FunctionEntry(kind)
    detail_token = detail_token.strip()
    if not _DETAIL_RE.match(detail_token):
        raise BoardParseError(f"invalid detail {detail_token!r}", line_no, col)
    return FunctionEntry(kind, detail_token)


def _parse_pin_line(line: str, line_no: int, start: int) -> Pin:
    # start: 0-based index in line just past the "pin" keyword.
    head, eq, tail = line[start:].partition("=")
    pin_id = head.strip()
    id_col = start + (len(head) - len(head.lstrip())) + 1
    if not eq:
        raise BoardParseError("expected '=' after pin id", line_no, len(line) + 1)
    if not _PIN_ID_RE.match(pin_id):
        raise BoardParseError(f"invalid pin id {pin_id!r}", line_no, id_col)
    entries: list[FunctionEntry] = []
    seen: set[tuple[str, str]] = set()
    base = start + len(head) + 1
    for chunk in tail.split(","):
        entry = _parse_entry(chunk, line_no, base)
        if (entry.kind, entry.detail) in seen:
            raise BoardParseError(
                f"duplicate entry {entry} on pin {pin_id}",
                line_no,
                base + (len(chunk) - len(chunk.lstrip())) + 1,
            )
        seen.add((entry.kind, entry.detail))
        entries.append(entry)
        base += len(chunk) + 1
    return Pin(pin_id, tuple(entries))


def parse_board(text: str) -> Board:
    """Parse a board document, preserving pin declaration order.

    Raises BoardParseError on syntax errors, duplicate pin ids (compared
    case-insensitively), duplicate (kind, detail) pairs within one pin, and
    empty entry lists.
    """
    name: str | None = None
    pins: list[Pin] = []
    seen_ids: set[str] = set()
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
            continue
        if stripped.startswith("pin") and len(stripped) > 3 and stripped[3].isspace():
            pin = _parse_pin_line(line, line_no, indent + 3)
            key = pin.id.lower()
            if key in seen_ids:
                raise BoardParseError(f"duplicate pin id {pin.id!r}", line_no, indent + 1)
            seen_ids.add(key)
            pins.append(pin)
            continue
        raise BoardParseError("expected 'pin' or 'board' line", line_no, indent + 1)
    return Board(tuple(pins), name)


def serialize_board(board: Board) -> str:
    """Render a board back to its file format. Reparsing yields an equal board."""
    lines = []
    if board.name is not None:
        lines.append(f"board {board.name}")
    for pin in board.pins:
        entries = ", ".join(str(e) for e in pin.entries)
        lines.append(f"pin {pin.id} = {entries}")
    return "\n".join(lines) + "\n"
