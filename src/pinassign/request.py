"""Desired configurations: multisets of function kinds to be served by pins.

A request lists the kinds the board must serve, one slot per kind occurrence
("analog, analog, icu" asks for two analog-capable pins and one ICU-capable
pin, all distinct). Slot order as entered is preserved, but all solving is
defined over the canonical form: the same multiset sorted by kind name.
A Request holds canonical kinds only (``[A-Z][A-Z0-9_]*``, as on a Board),
however it was built. This module only parses and canonicalizes; the solver
module checks a request against a board (quick_reject, the solves).
"""

from __future__ import annotations

__all__ = ["Request", "RequestParseError", "parse_request"]

from dataclasses import dataclass

from .board import CANONICAL_KIND_RE, canonical_kind


class RequestParseError(ValueError):
    """Request string is malformed."""


@dataclass(frozen=True)
class Request:
    """A multiset of requested function kinds."""

    slots: tuple[str, ...]

    def __post_init__(self):
        for kind in self.slots:
            if not CANONICAL_KIND_RE.match(kind):
                raise ValueError(f"kind {kind!r} is not canonical")

    @property
    def canonical(self) -> tuple[str, ...]:
        """The same multiset, sorted by kind name (duplicates preserved)."""
        return tuple(sorted(self.slots))

    @property
    def length(self) -> int:
        return len(self.slots)


def parse_request(text: str) -> Request:
    """Parse a comma-separated list of kind tokens into a Request.

    Whitespace around tokens is ignored. The empty (or blank) string is the
    empty request. Raises RequestParseError on empty tokens between commas or
    tokens outside the kind grammar.
    """
    if not text.strip():
        return Request(())
    slots = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise RequestParseError(f"empty kind token in request {text!r}")
        try:
            slots.append(canonical_kind(token))
        except ValueError as exc:
            raise RequestParseError(str(exc)) from None
    return Request(tuple(slots))
