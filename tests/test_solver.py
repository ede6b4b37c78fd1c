"""Solver: reference examples, oracle spot checks, invariants, witnesses."""

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import (
    AllPinsUsedWarning,
    Assignment,
    Board,
    EnumerationLimitError,
    FunctionEntry,
    Infeasible,
    Pin,
    Request,
    Semantics,
    SolveOptions,
    assignment_cost,
    check_witness,
    enumerate_all,
    find_best,
    find_feasible,
    icu_channel_rule,
    iter_assignments,
    parse_board,
    parse_request,
)
from pinassign.cli import run
from pinassign import solver
from pinassign.solver import _lex_min_cost, _Problem
from pinassign.oracle import brute_force_solve

from best_references import best_by_enumeration, best_by_threshold
from conftest import instance_family, plain_bindings, random_board, random_request

LABELED = SolveOptions(semantics=Semantics.LABELED)


def test_two_analogs_bind_both_pins(two_pin_board):
    with pytest.warns(AllPinsUsedWarning):
        outcome = find_feasible(two_pin_board, parse_request("analog,analog"))
    assert isinstance(outcome, Assignment)
    assert outcome.used_pins == {"PA1", "PA2"}
    assert outcome.total_cost == 7


def test_empty_request_is_trivially_feasible(two_pin_board):
    outcome = find_feasible(two_pin_board, parse_request(""))
    assert outcome == Assignment((), 0, two_pin_board)
    assert find_feasible(Board(()), parse_request("")) == Assignment((), 0, Board(()))


def test_three_analogs_hit_pigeonhole(two_pin_board):
    outcome = find_feasible(two_pin_board, parse_request("analog,analog,analog"))
    assert isinstance(outcome, Infeasible)
    assert outcome.reason == "pigeonhole"
    assert outcome.witness.kinds == ("ANALOG",)
    assert outcome.witness.pins == ("PA1", "PA2")


def test_unsupported_kind_reported(two_pin_board):
    outcome = find_feasible(two_pin_board, parse_request("can-tx"))
    assert isinstance(outcome, Infeasible)
    assert outcome.reason == "kind-unsupported"
    assert outcome.witness.kinds == ("CAN_TX",)
    assert outcome.witness.pins == ()


def test_nonempty_request_on_empty_board():
    outcome = find_feasible(Board(()), parse_request("analog"))
    assert isinstance(outcome, Infeasible)
    assert outcome.reason == "kind-unsupported"


def test_enumerate_semantics_counts(two_pin_board):
    request = parse_request("analog,analog")
    with pytest.warns(AllPinsUsedWarning):
        pinsets = enumerate_all(two_pin_board, request)
    with pytest.warns(AllPinsUsedWarning):
        labeled = enumerate_all(two_pin_board, request, LABELED)
    assert len(pinsets) == 1
    assert len(labeled) == 2
    assert labeled[0].used_pins == labeled[1].used_pins == {"PA1", "PA2"}
    # representative is the smallest binding for the pin set
    assert pinsets[0] == labeled[0]


def test_enumerate_infeasible_is_empty_list(two_pin_board):
    assert enumerate_all(two_pin_board, parse_request("can-tx")) == []


def test_enumeration_cap_refuses_large_output(two_pin_board):
    request = parse_request("analog,analog")
    options = SolveOptions(semantics=Semantics.LABELED, enumeration_cap=1)
    with pytest.warns(AllPinsUsedWarning):
        with pytest.raises(EnumerationLimitError):
            enumerate_all(two_pin_board, request, options)


def test_negative_enumeration_cap_rejected_before_solving(two_pin_board):
    options = SolveOptions(enumeration_cap=-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # solving this request would warn AllPinsUsedWarning
        with pytest.raises(ValueError, match="-5"):
            enumerate_all(two_pin_board, parse_request("analog,analog"), options)


def test_best_prefers_cheaper_icu_pin(two_pin_board):
    outcome = find_best(two_pin_board, parse_request("icu"))
    assert outcome.used_pins == {"PA1"}
    assert outcome.total_cost == 3
    assert outcome.bindings[0].detail == "TIM2_CH2"


def test_best_matches_unique_solution_cost(two_pin_board):
    with pytest.warns(AllPinsUsedWarning):
        outcome = find_best(two_pin_board, parse_request("analog,analog"))
    assert outcome.total_cost == 7


def test_icu_rule_restricts_channels(two_pin_board):
    rule = icu_channel_rule()
    pa1, pa2 = two_pin_board.pins
    assert rule.predicate(pa1, FunctionEntry("ICU", "TIM2_CH2"), "ICU")
    assert not rule.predicate(pa2, FunctionEntry("ICU", "TIM2_CH3"), "ICU")
    assert not rule.predicate(pa1, FunctionEntry("ICU", "-"), "ICU")
    # other kinds unaffected
    assert rule.predicate(pa1, FunctionEntry("ANALOG", "ADC1_IN1"), "ANALOG")


def test_icu_rule_turns_channel3_board_infeasible():
    board = parse_board("pin PA2 = ANALOG/ADC1_IN2, SERIAL_TX/UART2_TX, ICU/TIM2_CH3, ICU/TIM5_CH3")
    options = SolveOptions(rules=(icu_channel_rule(),))
    with pytest.warns(AllPinsUsedWarning):
        outcome = find_best(board, parse_request("icu"), options)
    assert isinstance(outcome, Infeasible)
    assert outcome.reason == "kind-unsupported"
    # without the rule the same request is feasible
    with pytest.warns(AllPinsUsedWarning):
        assert isinstance(find_best(board, parse_request("icu")), Assignment)


def test_assignment_cost_sums_used_pins(two_pin_board):
    with pytest.warns(AllPinsUsedWarning):
        both = find_feasible(two_pin_board, parse_request("analog,analog"))
    assert assignment_cost(two_pin_board, both) == 7
    assert assignment_cost(two_pin_board, Assignment((), 0, two_pin_board)) == 0
    single = find_feasible(two_pin_board, parse_request("analog"))
    assert single.used_pins == {"PA1"}
    assert assignment_cost(two_pin_board, single) == 3


def test_assignment_cost_unknown_pin(two_pin_board):
    from pinassign import Binding

    bogus = Assignment((Binding(0, "ANALOG", "PZ9", "-"),), 0, two_pin_board)
    with pytest.raises(KeyError):
        assignment_cost(two_pin_board, bogus)


def test_warning_fires_exactly_when_request_uses_every_pin(two_pin_board):
    with pytest.warns(AllPinsUsedWarning):
        find_feasible(two_pin_board, parse_request("analog,icu"))
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        find_feasible(two_pin_board, parse_request("analog"))
        find_feasible(Board(()), parse_request(""))


# --- oracle spot checks (the full 200-case battery runs in the acceptance suite)


def _solve_all_plain(board, request, options):
    return [plain_bindings(a) for a in enumerate_all(board, request, options)]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_labeled_enumeration_equals_oracle_sample():
    for board, request in instance_family(seed=11, count=60):
        expected = brute_force_solve(board, request)
        got = _solve_all_plain(board, request, LABELED)
        assert got == list(expected.labeled), (board, request)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_pin_set_enumeration_equals_oracle_sample():
    for board, request in instance_family(seed=12, count=60):
        expected = brute_force_solve(board, request)
        got = _solve_all_plain(board, request, SolveOptions())
        assert got == list(expected.representatives), (board, request)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_oracle_equivalence_with_icu_rule():
    rules = (icu_channel_rule(),)
    for board, request in instance_family(seed=13, count=60):
        expected = brute_force_solve(board, request, rules)
        options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
        assert _solve_all_plain(board, request, options) == list(expected.labeled)
        outcome = find_best(board, request, SolveOptions(rules=rules))
        if expected.min_cost is None:
            assert isinstance(outcome, Infeasible)
        else:
            assert outcome.total_cost == expected.min_cost


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_best_strategies_agree_on_family():
    for board, request in instance_family(seed=14, count=80):
        outcome = find_best(board, request)
        references = [best_by_threshold(board, request), best_by_enumeration(board, request)]
        if isinstance(outcome, Infeasible):
            assert references == [None, None], (board, request)
        else:
            assert references == [outcome, outcome], (board, request)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_min_cost_matching_primitive_against_permutations():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        board = random_board(rng, max_pins=6)
        request = random_request(rng, board, max_len=4)
        problem = _Problem(board, request, ())
        candidates = [
            (sum(board.pins[p].cost for p in pins), pins)
            for pins in itertools.permutations(range(len(board.pins)), len(problem.slots))
            if all(p in problem.elig[k] for k, p in zip(problem.slots, pins))
        ]
        if not candidates:
            continue  # the primitive requires a matching that saturates every slot
        assert _lex_min_cost(problem) == min(candidates)[1], (board, request)
        checked += 1
    assert checked >= 30


# --- invariants


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
@settings(deadline=None, max_examples=40)
@given(st.permutations(["ANALOG", "ANALOG", "ICU", "SERIAL_TX"]))
def test_permutation_invariance_two_pin(perm):
    from conftest import TWO_PIN_TEXT

    board = parse_board(TWO_PIN_TEXT)
    base = find_best(board, Request(("ANALOG", "ANALOG", "ICU", "SERIAL_TX")))
    other = find_best(board, Request(tuple(perm)))
    assert type(base) is type(other)
    if isinstance(base, Assignment):
        assert base.total_cost == other.total_cost
        assert base.used_pins == other.used_pins


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_permutation_invariance_on_family():
    rng = random.Random(15)
    for board, request in instance_family(seed=15, count=40):
        if request.length < 2:
            continue
        shuffled = list(request.slots)
        rng.shuffle(shuffled)
        a = find_best(board, request)
        b = find_best(board, Request(tuple(shuffled)))
        if isinstance(a, Assignment):
            assert a.total_cost == b.total_cost
            assert a.used_pins == b.used_pins
        else:
            assert isinstance(b, Infeasible)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_uniform_requests_obey_factorial_ratio():
    import math

    rng = random.Random(16)
    checked = 0
    while checked < 25:
        board = random_board(rng, max_pins=6)
        kinds = sorted({e.kind for p in board.pins for e in p.entries})
        if not kinds:
            continue
        kind = rng.choice(kinds)
        k = rng.randint(1, 4)
        request = Request((kind,) * k)
        labeled = enumerate_all(board, request, LABELED)
        pinsets = enumerate_all(board, request)
        assert len(labeled) == math.factorial(k) * len(pinsets), (board, request)
        checked += 1


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_cost_dominance_chain():
    for board, request in instance_family(seed=17, count=60):
        first = find_feasible(board, request)
        if isinstance(first, Infeasible):
            continue
        best = find_best(board, request)
        ceiling = sum(sorted((p.cost for p in board.pins), reverse=True)[: request.length])
        assert best.total_cost <= first.total_cost <= ceiling


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_adding_a_pin_preserves_feasibility():
    rng = random.Random(18)
    for board, request in instance_family(seed=18, count=40):
        if isinstance(find_feasible(board, request), Infeasible):
            continue
        extra = Pin("PX99", (FunctionEntry(rng.choice(["ANALOG", "PWM"]), "D0"),))
        bigger = Board(board.pins + (extra,), board.name)
        assert isinstance(find_feasible(bigger, request), Assignment)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_removing_a_rule_preserves_feasibility():
    options = SolveOptions(rules=(icu_channel_rule(),))
    for board, request in instance_family(seed=19, count=40):
        if isinstance(find_feasible(board, request, options), Assignment):
            assert isinstance(find_feasible(board, request), Assignment)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_every_infeasible_witness_validates():
    seen = 0
    for board, request in instance_family(seed=21, count=120):
        outcome = find_feasible(board, request)
        if isinstance(outcome, Infeasible):
            assert outcome.witness is not None
            assert check_witness(board, request, outcome.witness)
            seen += 1
    assert seen >= 10  # the family must actually exercise infeasibility


def test_check_witness_rejects_bogus_witness(two_pin_board):
    from pinassign import Witness

    request = parse_request("analog,analog,analog,serial-tx")
    for valid in (
        Witness(("ANALOG",), ("PA1", "PA2"), 3),
        Witness(("ANALOG", "SERIAL_TX"), ("PA1", "PA2"), 4),
    ):
        assert check_witness(two_pin_board, request, valid)
    for bogus in (
        Witness(("ANALOG",), ("PA1",), 3),  # support set is wrong
        Witness(("ANALOG",), ("PA1", "PA2"), 4),  # demand is wrong
        Witness(("SERIAL_TX",), ("PA2",), 1),  # not deficient
        Witness(("ANALOG", "ICU"), ("PA1", "PA2"), 3),  # ICU is not requested
    ):
        assert not check_witness(two_pin_board, request, bogus)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_enumeration_is_lexicographic_and_deterministic():
    for board, request in instance_family(seed=22, count=30):
        for options in (LABELED, SolveOptions()):
            first = enumerate_all(board, request, options)
            second = enumerate_all(board, request, options)
            assert first == second
            keys = [[board.index_of(b.pin) for b in a.bindings] for a in first]
            assert keys == sorted(keys)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_find_feasible_is_first_enumerated(two_pin_board):
    for board, request in instance_family(seed=23, count=40):
        outcome = find_feasible(board, request)
        labeled = enumerate_all(board, request, LABELED)
        if isinstance(outcome, Infeasible):
            assert labeled == []
        else:
            assert outcome == labeled[0]


def test_enumeration_deeper_than_the_recursion_limit(tmp_path, capsys):
    # one slot per kind, one pin per kind: a single solution, 1200 slots deep
    n = 1200
    text = "".join(f"pin P{i:04d} = K{i:04d}\n" for i in range(n + 1))
    request_text = ",".join(f"K{i:04d}" for i in range(n))
    board, request = parse_board(text), parse_request(request_text)
    first = find_feasible(board, request)
    assert isinstance(first, Assignment)
    for options in (LABELED, SolveOptions()):
        assert enumerate_all(board, request, options) == [first]
    path = tmp_path / "deep.pins"
    path.write_text(text, encoding="utf-8")
    assert run(["solve-all", "--board", str(path), "--request", request_text]) == 0
    assert capsys.readouterr().out.startswith("1 solutions (pinsets)")


def _count_augments(monkeypatch) -> list[int]:
    """Count solver._augment calls, recursive ones included (they go through
    the module name); the one-item list holds the running count."""
    augment = solver._augment
    count = [0]

    def counted(*args):
        count[0] += 1
        return augment(*args)

    monkeypatch.setattr(solver, "_augment", counted)
    return count


@pytest.mark.parametrize(
    "options, solutions, calls",
    [(SolveOptions(), 588, 175), (LABELED, 136_800, 9_334)],
    ids=["pinsets", "labeled"],
)
def test_enumeration_pruning_call_counts(demo_board, monkeypatch, options, solutions, calls):
    """The kept matching's repairs, counted on the demo board's 10-slot mixed
    request, _prepare's matching included. The counts pin today's pruning
    exactly: a change to the prunes (a weaker one is still sound, so no output
    changes) must update them."""
    count = _count_augments(monkeypatch)
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    assert sum(1 for _ in iter_assignments(demo_board, request, options)) == solutions
    assert count[0] == calls


def test_enumeration_prunes_a_deficient_kind_union(monkeypatch):
    """ICU, PWM and SERIAL_TX each have four pins, but once the ANALOG slots
    take P0 and P1 the three kinds share two. No single kind is short, so only
    a matching sees it; a search without that prune walks every placement of
    the ANALOG slots on the Q pins (seconds, doubling with each Q pin)."""
    text = (
        "pin P0 = ANALOG, ICU, PWM, SERIAL_TX\n"
        "pin P1 = ANALOG, ICU, PWM, SERIAL_TX\n"
        "pin P2 = ICU, PWM, SERIAL_TX\n"
        "pin P3 = ICU, PWM, SERIAL_TX\n"
    ) + "".join(f"pin Q{i} = ANALOG\n" for i in range(11))
    board = parse_board(text)
    request = parse_request(",".join(["analog"] * 7 + ["icu", "pwm", "serial-tx"]))
    count = _count_augments(monkeypatch)
    first = next(iter_assignments(board, request, LABELED))
    assert count[0] == 102
    assert [b.pin for b in first.bindings] == [
        "P0", "Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "P1", "P2", "P3",
    ]
    assert first == find_feasible(board, request)
