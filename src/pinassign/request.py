"""Desired configurations: multisets of function kinds to be served by pins.

A request lists the kinds the board must serve, one slot per kind occurrence
("analog, analog, icu" asks for two analog-capable pins and one ICU-capable
pin, all distinct). Slot order as entered is preserved, but all solving is
defined over the canonical form: the same multiset sorted by kind name.
A Request holds canonical kinds only (``[A-Z][A-Z0-9_]*``, as on a Board),
however it was built. This module only parses and canonicalizes; the solver
module checks a request against a board (quick_reject, the solves).

parse_request matches a whole text once against the request grammar. A text
that matches proves every check the Request would make, so it is
canonicalized in one pass and its Request built without re-validation. Any
other text goes through the per-token path, which finds a blank text (the
empty request) or words the fault.
"""

from __future__ import annotations

__all__ = ["Request", "RequestParseError", "parse_request"]

import re
from dataclasses import dataclass

from .board import _KIND, CANONICAL_KIND_RE, canonical_kind

# A valid nonblank request: kind tokens between commas, blanks around them.
# \s is exactly the set of characters str.strip removes, and each blank run
# sits between tokens that cannot hold a blank, so a match takes linear time.
_REQUEST_RE = re.compile(rf"\s*{_KIND}\s*(?:,\s*{_KIND}\s*)*")


class RequestParseError(ValueError):
    """Request string is malformed."""


@dataclass(frozen=True)
class Request:
    """A multiset of requested function kinds.

    canonical is the same multiset sorted by kind name (duplicates
    preserved). It is sorted once, when the Request is built, and kept
    outside the fields, so equality, hash, repr and asdict ignore it, and
    dataclasses.replace sorts the new slots anew.
    """

    slots: tuple[str, ...]

    def __post_init__(self):
        for kind in self.slots:
            if not CANONICAL_KIND_RE.match(kind):
                raise ValueError(f"kind {kind!r} is not canonical")
        object.__setattr__(self, "canonical", tuple(sorted(self.slots)))

    @property
    def length(self) -> int:
        return len(self.slots)


def parse_request(text: str) -> Request:
    """Parse a comma-separated list of kind tokens into a Request.

    Whitespace around tokens is ignored. The empty (or blank) string is the
    empty request. A valid nonblank text is matched once and built without
    re-validation; the per-token path reads the others, to find a blank
    text or to word a fault. Raises RequestParseError on empty tokens
    between commas or tokens outside the kind grammar.
    """
    if _REQUEST_RE.fullmatch(text):
        # The match proved every token, so the text is canonicalized whole,
        # its blanks dropped and split at its commas, and the Request built
        # without its checks, field by field as __init__ and __post_init__
        # set them.
        slots = tuple("".join(text.upper().replace("-", "_").split()).split(","))
        request = object.__new__(Request)
        object.__setattr__(request, "slots", slots)
        object.__setattr__(request, "canonical", tuple(sorted(slots)))
        return request
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
