"""Emitters for model-checking targets: Prolog facts, Alloy models, DOT graphs.

The emitters translate a pin table (and a request, for assertions) into
external notations so the same instances can be fed to off-the-shelf
analyzers. Nothing here executes those tools; the native solver is the
engine, and the emitted documents are checked structurally (balanced
delimiters, terminated clauses) plus semantically via the test suite's
fact readers.

Every materialized document ends in one call, _document, which runs the
self-check and measures the UTF-8 size. The Prolog fact base is the one
large document: its header, one block of facts per pin subset, and its rules
are pieces written by one loop, to the caller's sink or to a buffer. Kind
and pin atoms are built once per board, so a streamed document holds at most
one subset's block in memory; a streamed document is not self-checked.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from typing import Iterator

from .board import Board, NO_DETAIL
from .request import Request

DEFAULT_FACT_CAP = 5_000_000

_PLAIN_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# _check_balanced: a quoted literal, the bytes that are not delimiters, and
# each closing delimiter's opener.
_QUOTED = r"'[^'\n]*'|\"[^\"\n]*\""
_NOT_DELIMITERS = bytes(sorted(set(range(256)) - set(b"()[]{}")))
_OPENER = dict(zip(b")]}", b"([{"))

PROLOG_INFERENCE_RULES = """\
getConfig(RequiredConfiguration, Pair) :-
    msort(RequiredConfiguration, S),
    config(S, Pair).

allConfigs(RequiredConfiguration, Set) :-
    setof([Pins,Costs],
        getConfig(RequiredConfiguration,
        [Pins,Costs]), Set).

cheapestConfig(R, Pins, Costs) :-
    setof([Pins,Costs],
     getConfig(R, [Pins,Costs]), Set),
    Set = [_|_],
    minimal(Set, [Pins,Costs]).

minimal([Pair], Pair).
minimal([[P0,C0]|Rest], Best) :-
    Rest = [_|_],
    minimal(Rest, [P1,C1]),
    (   C0 =< C1
    ->  Best = [P0,C0]
    ;   Best = [P1,C1]
    ).
"""


class EmitterCapError(RuntimeError):
    """Non-streamed emission refused: estimated output exceeds the cap."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(
            f"estimated {estimate} facts exceeds the cap of {cap}; "
            "pass a sink to stream instead"
        )
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class EmitterOutput:
    """One emitted document with its size statistics.

    items counts the payload units of the target: Prolog facts, Alloy pin
    signatures, Alloy assertions, or DOT nodes plus edges. text is empty when
    the document was streamed to a sink; nbytes reflects what was written
    either way.
    """

    kind: str
    text: str
    items: int
    nbytes: int


def _check_balanced(text: str, comment: str | None = None) -> None:
    """Emitter self-check: delimiters balance outside quoted literals.

    A quoted literal runs from ' or " to the same character on the same
    line. Lines starting with the target's comment marker (after blanks) are
    skipped; they may quote arbitrary board names.
    """
    # One regex pass drops the comment lines and quoted spans. The "\n" put
    # in front lets a first-line comment match, and lets the regex engine
    # skip ahead to the characters its alternatives start with.
    hidden = rf"\n\s*{re.escape(comment)}.*|{_QUOTED}" if comment else _QUOTED
    rest = re.sub(hidden, "", "\n" + text)
    if "'" in rest or '"' in rest:
        raise AssertionError("emitted text has an unterminated quote")
    stack: list[int] = []
    for ch in rest.encode("utf-8").translate(None, _NOT_DELIMITERS):
        if ch not in _OPENER:
            stack.append(ch)
        elif not stack or stack.pop() != _OPENER[ch]:
            raise AssertionError("emitted text has unbalanced delimiters")
    if stack:
        raise AssertionError("emitted text has unbalanced delimiters")


def _document(kind: str, text: str, items: int, comment: str | None = None) -> EmitterOutput:
    """Self-check a materialized document and measure its UTF-8 size."""
    _check_balanced(text, comment)
    return EmitterOutput(kind, text, items, len(text.encode("utf-8")))


def _atom(text: str) -> str:
    """A Prolog atom for lowercase text, quoted unless it is a plain name."""
    if _PLAIN_ATOM_RE.match(text):
        return text
    return f"'{text}'"


def estimate_prolog_facts(board: Board, max_len: int) -> int:
    """Upper bound on the fact count: per-pin kind choices before multiset
    deduplication, summed over subset sizes 1..max_len via elementary
    symmetric polynomials."""
    choices = [len(set(pin.kinds())) for pin in board.pins]
    limit = min(max_len, len(choices))
    elementary = [1] + [0] * limit
    for c in choices:
        for k in range(limit, 0, -1):
            elementary[k] += elementary[k - 1] * c
    return sum(elementary[1:])


def _iter_prolog_blocks(board: Board, max_len: int) -> Iterator[tuple[str, int]]:
    """Yield the fact base as pieces, each with its fact count: the header,
    each pin subset's fact lines as one block, then the inference rules.

    Subsets run by size, then in combinations order; a subset's multisets run
    in sorted atom order. Atoms are built once per board, and kinds are
    ranked by atom text, so a multiset is a sorted tuple of ranks whose atoms
    are already in the order msort gives a query: the standard order of
    terms compares atoms by character codes, and since "_" (95) is written
    as "-" (45), kind-name order can differ (CAN_TX > CANX, but
    'can-tx' @< canx).
    """
    texts = {kind: kind.lower().replace("_", "-") for pin in board.pins for kind in pin.kinds()}
    kinds = sorted(texts, key=texts.__getitem__)
    rank = {kind: r for r, kind in enumerate(kinds)}
    kind_atoms = [_atom(texts[kind]) for kind in kinds]
    pin_atoms = [_atom(pin.id.lower()) for pin in board.pins]
    pin_ranks = [sorted({rank[kind] for kind in pin.kinds()}) for pin in board.pins]
    costs = [pin.cost for pin in board.pins]
    atom = kind_atoms.__getitem__
    indices = range(len(board.pins))
    label = board.name or "unnamed board"
    yield (
        f"% pin assignment fact base for {label}\n"
        f"% config(SortedKinds, [Pins, TotalCost]) up to length {max_len}\n\n"
    ), 0
    for k in range(1, min(max_len, len(board)) + 1):
        for subset in itertools.combinations(indices, k):
            pins = ",".join(pin_atoms[i] for i in subset)
            cost = sum(costs[i] for i in subset)
            choices = [pin_ranks[i] for i in subset]
            multisets = sorted({tuple(sorted(combo)) for combo in itertools.product(*choices)})
            tail = f"],[[{pins}],{cost}]).\n"
            block = "".join([f"config([{','.join(map(atom, m))}{tail}" for m in multisets])
            yield block, len(multisets)
    yield "\n" + PROLOG_INFERENCE_RULES, 0


def emit_prolog(
    board: Board,
    max_len: int,
    sink=None,
    cap: int = DEFAULT_FACT_CAP,
) -> EmitterOutput:
    """Emit the fact base plus inference rules for a board.

    One fact per realizable (sorted kind multiset of length <= max_len,
    distinct pin set) pair, carrying the summed pin cost. Kind atoms are
    lowercased with underscores written as hyphens (quoted when needed);
    pin atoms are lowercased. Atoms are built once per call, and each pin
    subset's facts go out in one write, so memory beyond the per-board atom
    tables is one subset's block.

    Without a sink the whole document is returned in text form, refused with
    EmitterCapError when the estimated fact count exceeds cap. With a sink
    (any object with write(str)) the document is streamed regardless of size
    and the returned text is empty.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if sink is None:
        estimate = estimate_prolog_facts(board, max_len)
        if estimate > cap:
            raise EmitterCapError(estimate, cap)

    out = io.StringIO() if sink is None else sink
    nbytes = facts = 0
    for piece, count in _iter_prolog_blocks(board, max_len):
        out.write(piece)
        nbytes += len(piece.encode("utf-8"))
        facts += count
    if sink is None:
        return _document("prolog", out.getvalue(), facts, comment="%")
    return EmitterOutput("prolog", "", facts, nbytes)


def emit_alloy_spec(board: Board) -> EmitterOutput:
    """Emit the Alloy instance model: abstract Pin/ConnType/ConnDetail
    signatures plus one singleton signature per pin carrying its connection
    types, details, and cost."""
    lines: list[str] = []
    label = board.name or "unnamed board"
    lines.append(f"// pin capability model for {label}")
    lines.append("abstract sig ConnType {}")
    lines.append("abstract sig ConnDetail {}")
    lines.append("abstract sig Pin {")
    lines.append("  conntype: some ConnType,")
    lines.append("  conn_detail: set ConnDetail,")
    lines.append("  cost: one Int")
    lines.append("}")
    lines.append("")

    kinds = sorted({e.kind for pin in board.pins for e in pin.entries})
    details = sorted(
        {e.detail for pin in board.pins for e in pin.entries if e.detail != NO_DETAIL}
    )
    for kind in kinds:
        lines.append(f"one sig {kind} extends ConnType {{}}")
    for detail in details:
        lines.append(f"one sig {detail} extends ConnDetail {{}}")
    if kinds or details:
        lines.append("")

    for pin in board.pins:
        conntype = " + ".join(e.kind for e in pin.entries)
        pin_details = [e.detail for e in pin.entries if e.detail != NO_DETAIL]
        conn_detail = " + ".join(pin_details) if pin_details else "none"
        lines.append(f"one sig {pin.id} extends Pin {{}} {{")
        lines.append(f"  conntype = {conntype}")
        lines.append(f"  conn_detail = {conn_detail}")
        lines.append(f"  cost = {pin.cost}}}")
        lines.append("")

    text = "\n".join(lines).rstrip("\n") + "\n"
    return _document("alloy-spec", text, len(board.pins), comment="//")


def _assertion(name: str, slots: tuple[str, ...], cost_term: str = "", scope: str = "") -> str:
    """One Alloy assert/check block: no disjoint pins serve every slot in order
    (and meet cost_term, when given); scope follows the check's name."""
    disj = "" if len(slots) == 1 else "disj "
    pins = ", ".join(f"p{i}" for i in range(1, len(slots) + 1))
    terms = [f"    {kind} in p{i}.conntype" for i, kind in enumerate(slots, start=1)]
    body = " &&\n".join(terms + [f"    {cost_term}"] if cost_term else terms)
    return (
        f"assert {name} {{\n"
        f"  all {disj}{pins}:Pin |\n"
        f"  not (\n{body}\n"
        f"  )}}\n"
        f"\n"
        f"check {name}{scope}\n"
    )


def emit_alloy_feasibility_assertion(request: Request) -> EmitterOutput:
    """Emit the negated feasibility assertion for a request.

    The assertion claims no disjoint pins can serve all slots; a model
    checker's counterexample is then a concrete valid assignment.
    """
    if request.length < 1:
        raise ValueError("feasibility assertion needs a nonempty request")
    text = _assertion("_".join(request.slots), request.slots)
    return _document("alloy-assert", text, 1)


def emit_alloy_best_assertions(
    request: Request, pc_min: int, pc_max: int
) -> EmitterOutput:
    """Emit the cost-probing assertion family for minimum-cost search.

    One assertion per total-cost bound X from length*pc_min to length*pc_max
    inclusive, ascending. Each embeds the chained cost sum bound inside the
    negation, and every check statement carries an integer bit-width large
    enough to represent length*pc_max.
    """
    if request.length < 1:
        raise ValueError("best-cost assertions need a nonempty request")
    if not 0 < pc_min <= pc_max:
        raise ValueError("need 0 < pc_min <= pc_max")
    length = request.length
    name = "_".join(request.slots)
    scope = f" for {(length * pc_max).bit_length() + 1} int"
    cost_expr = "p1.cost" + "".join(f".add[p{i}.cost]" for i in range(2, length + 1))
    bounds = range(length * pc_min, length * pc_max + 1)
    text = "\n".join(
        _assertion(f"{name}_COST_{bound}", request.slots, f"{cost_expr}<={bound}", scope)
        for bound in bounds
    )
    return _document("alloy-assert", text, len(bounds))


def emit_graph_dot(board: Board) -> EmitterOutput:
    """Emit the domain graph: virtual begin/end nodes, one node per pin
    labeled with its entries, and edges for every allowed path step (no
    self-loops; paths run begin -> pins -> end)."""
    nodes = ['  n_B [label="n_B", shape=circle];', '  n_E [label="n_E", shape=doublecircle];']
    for pin in board.pins:
        label = "\\n".join([pin.id] + [str(e) for e in pin.entries])
        nodes.append(f'  {pin.id} [shape=box, label="{label}"];')
    ids = [pin.id for pin in board.pins]
    edges = (
        [f"  n_B -> {b};" for b in ids]
        + [f"  {a} -> {b};" for a in ids for b in ids if a != b]
        + [f"  {a} -> n_E;" for a in ids]
    ) or ["  n_B -> n_E;"]
    lines = ["digraph pin_assignment_domain {", "  rankdir=LR;", *nodes, *edges, "}"]
    return _document("dot", "\n".join(lines) + "\n", len(nodes) + len(edges))
