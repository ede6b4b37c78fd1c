"""Test-side evaluator for the Alloy documents the emitters write, read back
from their text.

read_pins parses emit_alloy_spec's pin blocks into each pin's connection
types and cost; read_assertions parses each assert/check block of
emit_alloy_feasibility_assertion or emit_alloy_best_assertions into its slot
kinds, its cost bound (None without one) and its integer bit width.
counterexample_sums answers what a model checker would search: the N-bit
two's-complement cost sums of every tuple of distinct pins serving the kinds
in order. An assertion has a counterexample exactly when one of those sums
is at most its bound, or, without a bound, when there is any sum at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ALLOY_DEFAULT_INT_BITS = 4  # Alloy's integer scope when a check names none

_PIN_RE = re.compile(
    r"^one sig (\w+) extends Pin \{\} \{\n"
    r"  conntype = (\w+(?: \+ \w+)*)\n"
    r"  conn_detail = [^\n]*\n"
    r"  cost = (-?\d+)\}$",
    re.M,
)
_ASSERTION_RE = re.compile(
    r"assert (\w+) \{\n"
    r"  all (disj )?(p1(?:, p\d+)*):Pin \|\n"
    r"  not \(\n(.*?)\n  \)\}\n"
    r"\n"
    r"check \1(?: for (\d+) int)?\n",
    re.S,
)
_TERM_RE = re.compile(r"    (\w+) in p(\d+)\.conntype")
_COST_RE = re.compile(r"    (p1\.cost(?:\.add\[p\d+\.cost\])*)<=(-?\d+)")


@dataclass(frozen=True)
class AlloyAssertion:
    kinds: tuple[str, ...]
    bound: int | None
    bits: int


def read_pins(spec: str) -> dict[str, tuple[frozenset[str], int]]:
    """Pin name -> (its conntype set, its cost), in declaration order."""
    return {
        name: (frozenset(conntype.split(" + ")), int(cost))
        for name, conntype, cost in _PIN_RE.findall(spec)
    }


def read_assertions(text: str) -> list[AlloyAssertion]:
    """Every assertion block of text, in order; ValueError for a block whose
    terms are not one kind per pin variable, in order, then an optional cost
    bound over the sum of every variable's cost."""
    out = []
    for block in _ASSERTION_RE.finditer(text):
        name, disj, variables, body, bits = block.groups()
        count = len(variables.split(", "))
        numbered = ", ".join(f"p{i}" for i in range(1, count + 1))
        if variables != numbered or bool(disj) != (count > 1):
            raise ValueError(f"unexpected quantifier in {name}")
        lines = body.split(" &&\n")
        terms = [_TERM_RE.fullmatch(line) for line in lines[:count]]
        if any(t is None for t in terms) or [int(t[2]) for t in terms] != list(range(1, count + 1)):
            raise ValueError(f"unexpected kind terms in {name}")
        bound = None
        if len(lines) == count + 1:
            cost = _COST_RE.fullmatch(lines[-1])
            chain = "p1.cost" + "".join(f".add[p{i}.cost]" for i in range(2, count + 1))
            if cost is None or cost[1] != chain:
                raise ValueError(f"unexpected cost term in {name}")
            bound = int(cost[2])
        elif len(lines) != count:
            raise ValueError(f"unexpected terms in {name}")
        bits_value = ALLOY_DEFAULT_INT_BITS if bits is None else int(bits)
        out.append(AlloyAssertion(tuple(t[1] for t in terms), bound, bits_value))
    return out


def wrap(value: int, bits: int) -> int:
    """value as a bits-wide two's-complement integer."""
    half = 1 << (bits - 1)
    return (value + half) % (2 * half) - half


def counterexample_sums(
    pins: dict[str, tuple[frozenset[str], int]], kinds: tuple[str, ...], bits: int
) -> set[int]:
    """The wrapped cost sums of every tuple of distinct pins whose i-th pin
    offers kinds[i]. A sum depends only on the set of pins, so the search
    keeps the sets that serve each prefix of kinds."""
    table = list(pins.values())
    served = {0}
    for kind in kinds:
        served = {
            used | 1 << i
            for used in served
            for i, (conntype, _) in enumerate(table)
            if kind in conntype and not used >> i & 1
        }
    return {
        wrap(sum(cost for i, (_, cost) in enumerate(table) if used >> i & 1), bits)
        for used in served
    }


def has_counterexample(
    pins: dict[str, tuple[frozenset[str], int]], assertion: AlloyAssertion
) -> bool:
    """Whether a model checker finds a counterexample to the assertion."""
    sums = counterexample_sums(pins, assertion.kinds, assertion.bits)
    if assertion.bound is None:
        return bool(sums)
    return any(s <= wrap(assertion.bound, assertion.bits) for s in sums)
