"""Emitters for model-checking targets: Prolog facts, Alloy models, DOT graphs.

The emitters translate a pin table (and a request, for assertions) into
external notations so the same instances can be fed to off-the-shelf
analyzers. Nothing here executes those tools; the native solver is the
engine, and the test suite reads the emitted documents back to check them.

Every token an emitter writes comes from the file grammar that Board and
Request enforce on construction (ids, canonical kinds, details), and the one
free text, the board name, only lands in comment lines, which a Board keeps
free of line breaks. So no emitted document can have an unbalanced
delimiter or an unterminated quote, and none is checked for one. What the
grammar does not rule out is refused with ValueError: DOT keywords and the
virtual node names as pin ids, and Alloy signature names that collide, do
not start with a letter, or are Alloy keywords or fields of Pin.

The Alloy and DOT documents are returned as text, each through one call,
_document, which measures its UTF-8 size. The Prolog fact base is the one
large document, and it is never held whole: its header, one block of facts
per pin subset, and its rules are pieces written by one loop to the caller's
sink. Kind and pin atoms are built once per board, and a fact's kind list
once per fact size. The subsets that share all but their last pin are
written together, from their shared prefix's codes sorted once, so memory
holds the atom tables, one size's kind lists, one prefix's shifted codes
and at most one subset's block.
"""

from __future__ import annotations

__all__ = ["EmitterOutput", "emit_alloy_best_assertions", "emit_alloy_feasibility_assertion",
           "emit_alloy_spec", "emit_graph_dot", "emit_prolog"]

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .board import Board, NO_DETAIL
from .request import Request

# DOT's keywords, which it reads in any case.
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}

# Names no Alloy signature of emit_alloy_spec may take: Alloy's keywords and
# the fields of its Pin signature, which a pin's block reads by name.
_ALLOY_RESERVED = {
    **dict.fromkeys(
        "abstract all and as assert but check disj else enum exactly extends fact for fun "
        "iden iff implies in int let lone module no none not one open or pred private run "
        "seq set sig some sum this univ".split(),
        "an Alloy keyword",
    ),
    **dict.fromkeys(("conntype", "conn_detail", "cost"), "a field of Pin"),
}

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


@dataclass(frozen=True)
class EmitterOutput:
    """One emitted document with its size statistics.

    items counts the payload units of the target: Prolog facts, Alloy pin
    signatures, Alloy assertions, or DOT nodes plus edges. text is empty for
    the Prolog fact base, which goes to the caller's sink; nbytes is the
    UTF-8 size of the document either way.
    """

    kind: str
    text: str
    items: int
    nbytes: int


def _document(kind: str, text: str, items: int) -> EmitterOutput:
    """A document returned as text, with its UTF-8 size."""
    return EmitterOutput(kind, text, items, len(text.encode("utf-8")))


class _Memo(dict):
    """A dict that builds a missing key's value with build(key), once."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _iter_prolog_blocks(board: Board, max_len: int) -> Iterator[tuple[str, int]]:
    """Yield the fact base as pieces, each with its fact count: the header,
    each pin subset's fact lines as one block, then the inference rules.

    Subsets run by size, then in combinations order; a subset's multisets run
    in sorted atom order. Kinds are ranked by atom text, so a multiset read
    in rank order lists its atoms in the order msort gives a query: the
    standard order of terms compares atoms by character codes, and since "_"
    (95) is written as "-" (45), kind-name order can differ (CAN_TX > CANX,
    but 'can-tx' @< canx). A lowercased pin id is a plain atom, and so is a
    kind's text unless it holds a "-", which needs quotes.

    A multiset is coded as one integer, the sum of count(r) * B**(K-1-r) over
    the ranks r of its K kinds, with B one more than the largest size. No
    count reaches B, so codes of one size sort descending exactly as their
    sorted rank tuples sort ascending: where two tuples first differ, the
    smaller holds more of that rank and the same count of every lower one.

    The subsets of one size that share their first k-1 pins (their prefix)
    are consecutive in combinations order, so each prefix is walked once:
    levels[d] holds the codes of its first d pins, rebuilt only from the
    first pin that differs from the previous prefix, and the prefix's codes
    are sorted descending once. A later pin's kind of weight w adds w to
    every code, so the shifted run of each weight is built on first use and
    shared by all of the prefix's later pins. A pin of one kind reads its
    run as it is, already sorted and distinct; a pin of several kinds
    concatenates its runs and sorts them (timsort merges the runs). Two runs
    share a code only when the prefix offers both of their kinds (c + wa ==
    c' + wb puts kind a in c' and kind b in c), so repeats are dropped, with
    dict.fromkeys, only for a pin that offers two or more of the prefix's
    kinds. A code's "config([..." head is built on first use in a size and dropped
    with the size. Memory holds the atom tables, the levels, one size's
    heads, one prefix's runs and one subset's block.
    """
    texts = {kind: kind.lower().replace("_", "-") for pin in board.pins for kind in pin.kinds()}
    kinds = sorted(texts, key=texts.__getitem__)
    kind_atoms = [f"'{texts[k]}'" if "-" in texts[k] else texts[k] for k in kinds]
    pin_atoms = [pin.id.lower() for pin in board.pins]
    costs = [pin.cost for pin in board.pins]
    n = len(board)
    top = min(max_len, n)
    base = top + 1
    weight = {kind: base ** (len(kinds) - 1 - r) for r, kind in enumerate(kinds)}
    pin_weights = [sorted({weight[kind] for kind in pin.kinds()}) for pin in board.pins]

    def head(code: int) -> str:
        atoms: list[str] = []
        for atom in reversed(kind_atoms):
            code, count = divmod(code, base)
            atoms += [atom] * count
        return "config([" + ",".join(reversed(atoms))

    label = board.name or "unnamed board"
    yield (
        f"% pin assignment fact base for {label}\n"
        f"% config(SortedKinds, [Pins, TotalCost]) up to length {max_len}\n\n"
    ), 0
    for k in range(1, top + 1):
        heads = _Memo(head)
        levels: list[set[int]] = [{0}] * k
        previous = (-1,) * (k - 1)
        for prefix in itertools.combinations(range(n - 1), k - 1):
            d = 0
            while d < k - 1 and prefix[d] == previous[d]:
                d += 1
            for d in range(d, k - 1):
                levels[d + 1] = {code + w for code in levels[d] for w in pin_weights[prefix[d]]}
            previous = prefix
            desc = sorted(levels[k - 1], reverse=True)
            runs = _Memo(lambda w, desc=desc: [code + w for code in desc])
            pins = "".join(pin_atoms[i] + "," for i in prefix)
            cost = sum(costs[i] for i in prefix)
            offered = set().union(*map(pin_weights.__getitem__, prefix))
            for j in range(prefix[-1] + 1 if prefix else 0, n):
                weights = pin_weights[j]
                if len(weights) == 1:
                    codes = runs[weights[0]]
                else:
                    merged = []
                    for w in weights:
                        merged += runs[w]
                    merged.sort(reverse=True)
                    shared = len(offered.intersection(weights))
                    codes = dict.fromkeys(merged) if shared > 1 else merged
                tail = f"],[[{pins}{pin_atoms[j]}],{cost + costs[j]}]).\n"
                yield tail.join(map(heads.__getitem__, codes)) + tail, len(codes)
    yield "\n" + PROLOG_INFERENCE_RULES, 0


def emit_prolog(board: Board, max_len: int, sink) -> EmitterOutput:
    """Write the fact base plus inference rules for a board to sink.

    One fact per realizable (sorted kind multiset of length <= max_len,
    distinct pin set) pair, carrying the summed pin cost. Kind atoms are
    lowercased with underscores written as hyphens (quoted when needed);
    pin atoms are lowercased. Each pin subset's facts go out in one write,
    so whatever the document's size, memory holds the per-board atom
    tables, one size's fact heads, one pin prefix's shifted codes and one
    subset's block.

    sink is any object with write(str); a caller who wants the text passes
    an io.StringIO and reads it back. The returned text is empty; items is
    the fact count and nbytes the UTF-8 size written. Atoms are ASCII by the
    board grammar, so only a piece that is not, the header with a non-ASCII
    board name, is encoded to count its bytes. max_len below 1 is refused
    with ValueError before anything is written.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    nbytes = facts = 0
    for piece, count in _iter_prolog_blocks(board, max_len):
        sink.write(piece)
        nbytes += len(piece) if piece.isascii() else len(piece.encode("utf-8"))
        facts += count
    return EmitterOutput("prolog", "", facts, nbytes)


def emit_alloy_spec(board: Board) -> EmitterOutput:
    """Emit the Alloy instance model: abstract Pin/ConnType/ConnDetail
    signatures plus one singleton signature per pin carrying its connection
    types, details, and cost.

    Raises ValueError when two signatures would share a name (a pin, kind or
    detail named alike, or named like a built-in signature), when a pin,
    kind or detail is named like an Alloy keyword or a field of Pin, or when
    a detail does not start with a letter, as an Alloy name must. Kinds are
    upper case, so only pins and details can take the lower-case names.
    """
    kinds = sorted({e.kind for pin in board.pins for e in pin.entries})
    details = sorted(
        {e.detail for pin in board.pins for e in pin.entries if e.detail != NO_DETAIL}
    )
    names = ["Pin", "ConnType", "ConnDetail", "Int", *kinds, *details, *(p.id for p in board.pins)]
    ((name, count),) = Counter(names).most_common(1)
    if count > 1:
        raise ValueError(f"Alloy signature name {name!r} is declared twice")
    for name in names:
        if name in _ALLOY_RESERVED:
            raise ValueError(f"{name!r} is {_ALLOY_RESERVED[name]}, not an Alloy signature name")
    for detail in details:
        if not detail[0].isalpha():
            raise ValueError(f"detail {detail!r} must start with a letter to be an Alloy name")
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
    return _document("alloy-spec", text, len(board.pins))


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
    self-loops; paths run begin -> pins -> end).

    Pin ids are written as bare DOT IDs, so a pin named like a DOT keyword
    (which DOT reads as one in any case) or like a virtual node is refused
    with ValueError.
    """
    for pin in board.pins:
        if pin.id.lower() in _DOT_KEYWORDS or pin.id in ("n_B", "n_E"):
            raise ValueError(f"pin id {pin.id!r} is a DOT keyword or virtual node name")
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
