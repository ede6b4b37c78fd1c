"""Test-side reference for emit_prolog, written against the public API and
the inference rules' text.

fact_base_by_product builds the fact base the direct way: for each pin
subset, every combination of one kind per pin, each sorted into a tuple of
kind ranks, then the set of those tuples in sorted order, one fact line per
tuple. emit_prolog must write the same text, byte for byte.
"""

from __future__ import annotations

import itertools

from pinassign import Board
from pinassign.codegen import PROLOG_INFERENCE_RULES


def fact_base_by_product(board: Board, max_len: int) -> tuple[str, int]:
    """The fact base's text and its fact count."""
    texts = {kind: kind.lower().replace("_", "-") for pin in board.pins for kind in pin.kinds()}
    kinds = sorted(texts, key=texts.__getitem__)
    rank = {kind: r for r, kind in enumerate(kinds)}
    kind_atoms = [f"'{texts[k]}'" if "-" in texts[k] else texts[k] for k in kinds]
    pin_atoms = [pin.id.lower() for pin in board.pins]
    pin_ranks = [sorted({rank[kind] for kind in pin.kinds()}) for pin in board.pins]
    label = board.name or "unnamed board"
    lines = [
        f"% pin assignment fact base for {label}\n"
        f"% config(SortedKinds, [Pins, TotalCost]) up to length {max_len}\n\n"
    ]
    facts = 0
    for k in range(1, min(max_len, len(board)) + 1):
        for subset in itertools.combinations(range(len(board)), k):
            pins = ",".join(pin_atoms[i] for i in subset)
            cost = sum(board.pins[i].cost for i in subset)
            choices = [pin_ranks[i] for i in subset]
            multisets = sorted({tuple(sorted(combo)) for combo in itertools.product(*choices)})
            for m in multisets:
                lines.append(f"config([{','.join(kind_atoms[r] for r in m)}],[[{pins}],{cost}]).\n")
            facts += len(multisets)
    lines.append("\n" + PROLOG_INFERENCE_RULES)
    return "".join(lines), facts
