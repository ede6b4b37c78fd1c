"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Criteria and tolerances are pinned here; every check is exact unless a
runtime bound is stated. The random-instance battery is seeded and
deterministic.
"""

import math
import random
import time

import pytest

from pinassign import (
    Assignment,
    Infeasible,
    Request,
    Semantics,
    SolveOptions,
    apply_diff,
    check_witness,
    config_space,
    diff_assignments,
    emit_alloy_spec,
    enumerate_all,
    extend_assignment,
    find_best,
    find_feasible,
    k_factor,
    merge_requests,
    parse_board,
    parse_request,
)
from pinassign.oracle import brute_force_solve

from best_references import best_by_enumeration, best_by_threshold

from conftest import (
    DEMO_BOARD_PATH,
    TWO_PIN_TEXT,
    _k_factor_row,
    instance_family,
    plain_bindings,
    prolog_text,
    random_board,
)

pytestmark = pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")

LABELED = SolveOptions(semantics=Semantics.LABELED)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c1_counting_exactness():
    """Exact reproduction of the worked configuration-space totals."""
    expected = {
        (4, 1, 4): 15,
        (4, 2, 4): 47,
        (4, 3, 4): 103,
        (6, 4, 6): 1_519,
        (16, 20, 16): 1_099_126_862_792,
    }
    start = time.monotonic()
    mismatches = {
        args: (config_space(*args), want)
        for args, want in expected.items()
        if config_space(*args) != want
    }
    elapsed = time.monotonic() - start
    _report(
        "C1 counting exactness",
        not mismatches and elapsed < 1.0,
        f"{len(expected)} totals, {elapsed:.3f}s" + (f", mismatches={mismatches}" if mismatches else ""),
    )


def test_c2_recursion_closed_form_duality():
    """k_factor's closed form equals the paper's recursion for n<=12, m<=6."""
    start = time.monotonic()
    bad = [
        (n, m)
        for n in range(1, 13)
        for m in range(1, 7)
        if k_factor(n, m) != _k_factor_row(n, m)[n]
    ]
    elapsed = time.monotonic() - start
    _report(
        "C2 recursion/closed-form duality",
        not bad and elapsed < 1.0,
        f"72 pairs, {elapsed:.3f}s" + (f", bad={bad}" if bad else ""),
    )


def test_c3_reference_model_fidelity():
    """Golden Prolog fact line and the two reference Alloy signatures."""
    start = time.monotonic()
    board = parse_board(TWO_PIN_TEXT)
    prolog_ok = (
        "config([analog,analog],[[pa1,pa2],7])."
        in prolog_text(board, 2)[0].splitlines()
    )
    alloy = emit_alloy_spec(board).text
    pa1_want = (
        "one sig PA1 extends Pin {} { conntype = ANALOG + ICU + ICU "
        "conn_detail = ADC1_IN1 + TIM2_CH2 + TIM5_CH2 cost = 3}"
    ).split()
    pa2_want = (
        "one sig PA2 extends Pin {} { conntype = ANALOG + SERIAL_TX + ICU + ICU "
        "conn_detail = ADC1_IN2 + UART2_TX + TIM2_CH3 + TIM5_CH3 cost = 4}"
    ).split()
    blocks = [b.split() for b in alloy.split("\n\n")]
    alloy_ok = pa1_want in blocks and pa2_want in blocks
    elapsed = time.monotonic() - start
    _report(
        "C3 reference model fidelity",
        prolog_ok and alloy_ok and elapsed < 1.0,
        f"prolog={prolog_ok}, alloy={alloy_ok}, {elapsed:.3f}s",
    )


def test_c4_oracle_equivalence_battery():
    """>=200 seeded random instances: enumeration, best assignment, reference agreement."""
    start = time.monotonic()
    cases = 0
    mismatches = []
    for board, request in instance_family(seed=2024, count=220):
        cases += 1
        truth = brute_force_solve(board, request)
        labeled = enumerate_all(board, request, LABELED)
        if [plain_bindings(a) for a in labeled] != list(truth.labeled):
            mismatches.append(("labeled", board, request))
            continue
        if [a.total_cost for a in labeled] != list(truth.costs):
            mismatches.append(("labeled-costs", board, request))
            continue
        best = find_best(board, request)
        references = [best_by_threshold(board, request), best_by_enumeration(board, request)]
        if truth.min_cost is None:
            if not isinstance(best, Infeasible) or references != [None, None]:
                mismatches.append(("should-be-infeasible", board, request))
        else:
            # the oracle lists labeled solutions lexicographically
            lex_first = next(
                s for s, c in zip(truth.labeled, truth.costs) if c == truth.min_cost
            )
            if not isinstance(best, Assignment):
                mismatches.append(("should-be-feasible", board, request))
            elif best.total_cost != truth.min_cost:
                mismatches.append(("best-cost", board, request))
            elif plain_bindings(best) != lex_first:
                mismatches.append(("best-tie-break", board, request))
            elif references != [best, best]:
                mismatches.append(("strategy-disagreement", board, request))
    elapsed = time.monotonic() - start
    _report(
        "C4 oracle equivalence",
        cases >= 200 and not mismatches and elapsed < 60.0,
        f"{cases} cases, {elapsed:.1f}s"
        + (f", first={mismatches[0]}" if mismatches else ""),
    )


def test_c5_semantics_ratio_law():
    """Uniform-kind requests of length k: labeled count == k! * pin-set count."""
    rng = random.Random(2025)
    checked = 0
    bad = []
    while checked < 60:
        board = random_board(rng, max_pins=7)
        kinds = sorted({e.kind for p in board.pins for e in p.entries})
        if not kinds:
            continue
        k = rng.randint(1, 4)
        request = Request((rng.choice(kinds),) * k)
        labeled = len(enumerate_all(board, request, LABELED))
        pinsets = len(enumerate_all(board, request))
        if labeled != math.factorial(k) * pinsets:
            bad.append((board, request, labeled, pinsets))
        checked += 1
    _report(
        "C5 semantics ratio law",
        not bad,
        f"{checked} uniform requests" + (f", first={bad[0]}" if bad else ""),
    )


def test_c6_infeasibility_witnesses():
    """Over-demanding requests are Infeasible with machine-valid witnesses."""
    start = time.monotonic()
    rng = random.Random(2026)
    total = 0
    bad = []
    while total < 100:
        board = random_board(rng, max_pins=7)
        offered = sorted({e.kind for p in board.pins for e in p.entries})
        all_kinds = offered + ["CAN_TX", "I2C_SCL", "PWM"]
        kind = rng.choice(sorted(set(all_kinds)))
        support = sum(1 for p in board.pins if kind in p.kinds())
        demand = support + rng.randint(1, 2)
        filler_pool = [k for k in offered if k != kind]
        filler = [rng.choice(filler_pool)] if filler_pool and rng.random() < 0.5 else []
        request = Request(tuple([kind] * demand + filler))
        outcome = find_feasible(board, request)
        total += 1
        if not isinstance(outcome, Infeasible):
            bad.append(("not-infeasible", board, request))
        elif outcome.witness is None or not check_witness(board, request, outcome.witness):
            bad.append(("invalid-witness", board, request, outcome))
    elapsed = time.monotonic() - start
    _report(
        "C6 infeasibility witnesses",
        not bad and elapsed < 5.0,
        f"{total} constructed cases, {elapsed:.2f}s"
        + (f", first={bad[0]}" if bad else ""),
    )


def test_c7_desk_scale_performance():
    """16-pin board, 10-slot request: feasible < 0.5s, best < 1.5s."""
    board = parse_board(DEMO_BOARD_PATH.read_text(encoding="utf-8"))
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    assert len(board) == 16
    assert max(p.cost for p in board.pins) <= 4
    assert request.length == 10

    start = time.monotonic()
    first = find_feasible(board, request)
    t_feasible = time.monotonic() - start
    start = time.monotonic()
    best = find_best(board, request)
    t_best = time.monotonic() - start

    ok = (
        isinstance(first, Assignment)
        and isinstance(best, Assignment)
        and best.total_cost <= first.total_cost
        and t_feasible < 0.5
        and t_best < 1.5
    )
    _report(
        "C7 desk-scale performance",
        ok,
        f"feasible {t_feasible * 1000:.1f}ms, best {t_best * 1000:.1f}ms",
    )


def test_c8_invariance_suite():
    """Permutation, merge, diff round-trip, extend-vs-best, canonicalize."""
    rng = random.Random(2027)
    failures = []

    for board, request in instance_family(seed=2028, count=120):
        base = find_best(board, request)
        shuffled = list(request.slots)
        rng.shuffle(shuffled)
        other = find_best(board, Request(tuple(shuffled)))
        if isinstance(base, Assignment):
            if not (
                isinstance(other, Assignment)
                and other.total_cost == base.total_cost
                and other.used_pins == base.used_pins
            ):
                failures.append(("permutation", board, request))
        elif not isinstance(other, Infeasible):
            failures.append(("permutation", board, request))

        via_extend = extend_assignment(board, Assignment((), 0, board), request)
        if isinstance(base, Assignment):
            if via_extend != base:
                failures.append(("extend-empty-base", board, request))
        elif not isinstance(via_extend, Infeasible):
            failures.append(("extend-empty-base", board, request))

        smaller = find_best(board, Request(request.slots[:-1])) if request.length else None
        if isinstance(base, Assignment) and isinstance(smaller, Assignment):
            diff = diff_assignments(base, smaller)
            if apply_diff(diff, base) != smaller:
                failures.append(("diff-round-trip", board, request))

    kind_pool = ["ANALOG", "ICU", "PWM", "SERIAL_TX", "CAN_RX"]
    for _ in range(1000):
        slots = tuple(rng.choice(kind_pool) for _ in range(rng.randint(0, 6)))
        request = Request(slots)
        once = Request(request.canonical)
        if Request(once.canonical) != once or sorted(once.slots) != sorted(slots):
            failures.append(("canonicalize", slots))

    for _ in range(200):
        a = Request(tuple(rng.choice(kind_pool) for _ in range(rng.randint(0, 4))))
        b = Request(tuple(rng.choice(kind_pool) for _ in range(rng.randint(0, 4))))
        c = Request(tuple(rng.choice(kind_pool) for _ in range(rng.randint(0, 4))))
        if merge_requests(a, b) != merge_requests(b, a):
            failures.append(("merge-commutativity", a, b))
        if merge_requests(merge_requests(a, b), c) != merge_requests(a, merge_requests(b, c)):
            failures.append(("merge-associativity", a, b, c))

    _report(
        "C8 invariance suite",
        not failures,
        "permutation, extend, diff, canonicalize, merge"
        + (f"; first={failures[0]}" if failures else ""),
    )
