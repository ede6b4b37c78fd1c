"""Solver: reference examples, oracle spot checks, invariants, witnesses."""

import dataclasses
import inspect
import itertools
import pickle
import random
import re
import sys
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
    check_witness,
    enumerate_all,
    extend_assignment,
    find_best,
    find_feasible,
    iter_assignments,
    parse_board,
    parse_request,
)
from pinassign.cli import bench, run
from pinassign import solver
from pinassign.solver import _Problem
from pinassign.oracle import brute_force_solve

from best_references import best_by_enumeration, best_by_threshold
from conftest import KIND_POOL, instance_family, plain_bindings, random_board, random_request

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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # solving this request would warn AllPinsUsedWarning
        with pytest.raises(ValueError, match="-5"):
            options = SolveOptions(enumeration_cap=-5)
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


def test_icu_rule_restricts_channels():
    board = parse_board(
        "pin PA1 = ICU/TIM2_CH2, ANALOG/ADC1_IN1\n"
        "pin PA2 = ICU/TIM2_CH3\n"
        "pin PA3 = ICU\n"
        "pin PA4 = ICU/XTIM2_CH1, ICU/TIM2_CH12, ANALOG\n"
    )
    # Only a whole TIM<n>_CH1/2 detail passes; other kinds are unaffected.
    problem = _Problem(board, parse_request("icu,analog"), ("icu-ch12",))
    assert problem.elig == {"ANALOG": (0, 3), "ICU": (0,)}
    assert problem.detail[(0, "ICU")] == "TIM2_CH2"
    assert _Problem(board, parse_request("icu"), ()).elig == {"ICU": (0, 1, 2, 3)}


def test_unknown_rule_name_is_refused(two_pin_board):
    request = parse_request("icu")
    with pytest.raises(ValueError, match="unknown eligibility rule 'icu-ch3'"):
        find_feasible(two_pin_board, request, SolveOptions(rules=("icu-ch3",)))
    with pytest.raises(ValueError, match="unknown eligibility rule"):
        brute_force_solve(two_pin_board, request, ("icu-ch12", "nope"))
    outcome = find_feasible(two_pin_board, parse_request("icu,icu,icu"))
    with pytest.raises(ValueError, match="unknown eligibility rule"):
        check_witness(two_pin_board, request, outcome.witness, rules=("ICU-CH12",))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"semantics": "labeled"}, "semantics must be a Semantics member, got 'labeled'"),
        ({"rules": ["icu-ch12"]}, r"rules must be a tuple of rule names, got \['icu-ch12'\]"),
        ({"rules": ("nope",)}, "unknown eligibility rule 'nope'"),
        ({"enumeration_cap": "5"}, "enumeration cap must be an integer, got '5'"),
    ],
    ids=["semantics-string", "rules-list", "unknown-rule", "cap-string"],
)
def test_solve_options_refuse_bad_fields_when_built(fields, message):
    """A string semantics would stream as pin sets, a list of rules would not
    hash and a string cap would raise TypeError at the first comparison, so
    each is refused before any solve, as is an unknown rule."""
    with pytest.raises(ValueError, match=message):
        SolveOptions(**fields)


def test_solve_options_with_rules_are_values(two_pin_board):
    """Rules are names, so equal options compare and hash equal, print no
    memory address, and solve alike."""
    a, b = SolveOptions(rules=("icu-ch12",)), SolveOptions(rules=("icu-ch12",))
    icu = parse_request("icu")
    assert find_feasible(two_pin_board, icu, a) == find_feasible(two_pin_board, icu, b)
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert "0x" not in repr(a)
    assert "'icu-ch12'" in repr(a)


@pytest.mark.parametrize(
    "solve",
    [find_feasible, iter_assignments, enumerate_all, find_best, extend_assignment, bench],
    ids=lambda solve: solve.__name__,
)
def test_options_default_to_one_shared_value(solve):
    """Every solve without options reads one SolveOptions() built once, which
    is safe to share because it is frozen."""
    default = inspect.signature(solve).parameters["options"].default
    assert default == SolveOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        default.rules = ("icu-ch12",)


def test_icu_rule_turns_channel3_board_infeasible():
    board = parse_board("pin PA2 = ANALOG/ADC1_IN2, SERIAL_TX/UART2_TX, ICU/TIM2_CH3, ICU/TIM5_CH3")
    options = SolveOptions(rules=("icu-ch12",))
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
    assert both.total_cost == 7
    assert find_feasible(two_pin_board, parse_request("")).total_cost == 0
    single = find_feasible(two_pin_board, parse_request("analog"))
    assert single.used_pins == {"PA1"}
    assert single.total_cost == 3


def test_warning_fires_exactly_when_request_uses_every_pin(two_pin_board):
    with pytest.warns(AllPinsUsedWarning):
        find_feasible(two_pin_board, parse_request("analog,icu"))
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        find_feasible(two_pin_board, parse_request("analog"))
        find_feasible(Board(()), parse_request(""))


@pytest.mark.parametrize(
    "solve",
    [find_feasible, find_best, lambda *args: list(iter_assignments(*args)), enumerate_all],
    ids=["find_feasible", "find_best", "iter_assignments", "enumerate_all"],
)
def test_all_pins_used_warning_names_the_callers_line(two_pin_board, solve):
    with pytest.warns(AllPinsUsedWarning) as record:
        solve(two_pin_board, parse_request("analog,analog"))
    assert [w.filename for w in record] == [__file__]


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
    rules = ("icu-ch12",)
    for board, request in instance_family(seed=13, count=60):
        expected = brute_force_solve(board, request, rules)
        options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
        assert _solve_all_plain(board, request, options) == list(expected.labeled)
        outcome = find_best(board, request, SolveOptions(rules=rules))
        if expected.min_cost is None:
            assert isinstance(outcome, Infeasible)
        else:
            # the lexicographically first labeled solution of minimum cost
            first_best = expected.labeled[expected.costs.index(expected.min_cost)]
            assert plain_bindings(outcome) == first_best, (board, request)
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
    """find_best's pin tuple is the smallest (cost, pin tuple) over every
    eligible permutation of pins, with and without a rule."""
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        board = random_board(rng, max_pins=6)
        request = random_request(rng, board, max_len=4)
        for rules in ((), ("icu-ch12",)):
            problem = _Problem(board, request, rules)
            candidates = [
                (sum(board.pins[p].cost for p in pins), pins)
                for pins in itertools.permutations(range(len(board.pins)), len(problem.slots))
                if all(p in problem.elig[k] for k, p in zip(problem.slots, pins))
            ]
            outcome = find_best(board, request, SolveOptions(rules=rules))
            if not candidates:
                assert isinstance(outcome, Infeasible), (board, request, rules)
                continue
            pins = tuple(board.index_of(b.pin) for b in outcome.bindings)
            assert pins == min(candidates)[1], (board, request, rules)
            checked += 1
    assert checked >= 50


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
    options = SolveOptions(rules=("icu-ch12",))
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


def _count_augments(monkeypatch, limit: int | None = None) -> list[int]:
    """Count solver._augment calls, recursive ones included (they go through
    the module name); the one-item list holds the running count. Past limit
    calls the count fails at once, so a search that lost a prune ends."""
    augment = solver._augment
    count = [0]

    def counted(*args):
        count[0] += 1
        assert limit is None or count[0] <= limit, f"more than {limit} _augment calls"
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


def test_streamed_solutions_share_their_bindings(demo_board):
    """A solve builds one Binding per (slot, pin) and every solution holding
    that pair reuses it, which keeps the CLI's per-Binding JSON cache small."""
    request = parse_request("analog,analog,analog,icu,analog,analog")
    solutions = list(iter_assignments(demo_board, request, LABELED))
    bindings = [b for a in solutions for b in a.bindings]
    assert len(solutions) == 3_480
    assert len({id(b) for b in bindings}) == len({(b.slot, b.pin) for b in bindings}) == 39


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


def _planted_instance(rng, n_pins, length):
    """Pins of 1-6 distinct kinds (so costs 1-6), and a request served by
    `length` distinct pins, one offered kind each."""
    pins = tuple(
        Pin(
            f"P{i}",
            tuple(
                FunctionEntry(kind, f"D{rng.randint(0, 99)}")
                for kind in rng.sample(KIND_POOL, rng.randint(1, 6))
            ),
        )
        for i in range(n_pins)
    )
    chosen = rng.sample(range(n_pins), length)
    return Board(pins), Request(tuple(rng.choice(pins[p].kinds()) for p in chosen))


def test_best_search_call_count(monkeypatch):
    """find_best's _augment calls on one 64x24 board, its one matching
    included: _prepare's, built one cost level at a time. The spare slots
    make each repair see the cost bound, so no open node lacks a
    minimum-cost solution below it; without them the search still ends on
    this answer, but only after millions of calls. The count pins today's
    search exactly."""
    board, request = _planted_instance(random.Random(7), 64, 24)
    count = _count_augments(monkeypatch, limit=10_000)
    best = find_best(board, request)
    assert count[0] == 237
    assert best.total_cost == 38
    assert [b.pin for b in best.bindings] == [
        "P20", "P23", "P51", "P54", "P1", "P14", "P35", "P18", "P28", "P32", "P34", "P44",
        "P52", "P3", "P62", "P8", "P19", "P24", "P11", "P16", "P2", "P4", "P9", "P27",
    ]


def test_best_search_does_not_recurse_once_per_spare():
    """Pins P0.. cost 2 and the last pin Q costs 1, so the cheapest pair
    leaves every P pin but one to a spare slot. Binding slot 0 to P0 must
    move slot 1 to Q; a search that went on from one spare's pin to the
    next would recurse once per spare, past Python's recursion limit."""
    n = sys.getrecursionlimit() + 100
    pins = tuple(Pin(f"P{j}", (FunctionEntry("ANALOG"), FunctionEntry("PWM"))) for j in range(n))
    board = Board(pins + (Pin("Q", (FunctionEntry("ANALOG"),)),))
    best = find_best(board, parse_request("analog,analog"))
    assert [b.pin for b in best.bindings] == ["P0", "Q"]
    assert best.total_cost == 3


def _checked_leaves(board, request, options, by_cost, limit=None) -> int:
    """Stream _iter_bindings over _prepare's instance, up to limit solutions,
    and check the matching the search keeps after each one: every slot
    number, spares included, holds exactly one pin, one of its candidates,
    every other pin is _FREE, and each slot but the last (yielded without
    moving) sits on its pin in the solution. Returns the solutions checked."""
    prepared = solver._prepare(board, request, options, by_cost)
    if isinstance(prepared, Infeasible):
        return 0
    problem, owner = prepared
    count = 0
    for a in itertools.islice(solver._iter_bindings(problem, owner, options.semantics), limit):
        count += 1
        held = [(p, slot) for p, slot in enumerate(owner) if slot != solver._FREE]
        assert sorted(slot for _, slot in held) == list(range(len(problem.options)))
        assert all(p in problem.options[slot] for p, slot in held)
        pins = [board.index_of(b.pin) for b in a.bindings]
        assert all(owner[pins[j]] == j for j in range(problem.length - 1))
    return count


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_search_keeps_one_matching_of_all_slots(demo_board):
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    assert _checked_leaves(demo_board, request, LABELED, False, limit=5_000) == 5_000
    assert _checked_leaves(demo_board, request, SolveOptions(), False) == 588
    assert _checked_leaves(demo_board, request, LABELED, True) == 840
    checked = 0
    for rules in ((), ("icu-ch12",)):
        options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
        for board, request in instance_family(seed=2024, count=200):
            for by_cost in (False, True):
                checked += _checked_leaves(board, request, options, by_cost)
    assert checked == 1_050


def _assert_same_infeasible(board, request, options=SolveOptions()):
    """find_best and find_feasible agree on feasibility, and an infeasible
    request gets the same Infeasible, witness included, from both."""
    best = find_best(board, request, options)
    feasible = find_feasible(board, request, options)
    if isinstance(best, Infeasible) or isinstance(feasible, Infeasible):
        assert best == feasible
        return 1
    return 0


def _pigeonhole_instances(rng, count):
    """Boards of 24-48 pins (costs 1-6) cycling through a planted feasible
    request, one kind asked once more than it has pins, and two kinds whose
    pin union is one short while each alone fits."""
    out = []
    while len(out) < count:
        n_pins = rng.randint(24, 48)
        board, planted = _planted_instance(rng, n_pins, n_pins // 3)
        offers = {
            kind: {p for p, pin in enumerate(board.pins) if kind in pin.kinds()}
            for kind in KIND_POOL
        }
        shape = len(out) % 3
        if shape == 0:
            slots = planted.slots
        elif shape == 1:
            kind = rng.choice([k for k in KIND_POOL if offers[k]])
            slots = (kind,) * (len(offers[kind]) + 1) + planted.slots[:3]
        else:
            pairs = [
                (a, b)
                for a, b in itertools.combinations(KIND_POOL, 2)
                if offers[a] & offers[b] and len(offers[a] | offers[b]) < n_pins
            ]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            union = len(offers[a] | offers[b])
            slots = (a,) * len(offers[a]) + (b,) * (union + 1 - len(offers[a]))
        out.append((board, Request(slots)))
    return out


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_best_and_feasible_agree_on_every_infeasible_request():
    """find_best's cost-level matching fails on exactly the requests
    find_feasible's plain one does, with the same witness, so solve-best and
    diff report the same Infeasible as solve. Seeded families (rule on and
    off), pigeonhole-shaped mid-size boards, every board of up to 2 pins over
    3 kinds with padding entries for costs 1-5 against every request of up
    to 3 slots, and a seeded sample of 3-pin boards."""
    infeasible = 0
    for seed in (2024, 7, 11):
        for rules in ((), ("icu-ch12",)):
            for board, request in instance_family(seed=seed, count=300):
                infeasible += _assert_same_infeasible(board, request, SolveOptions(rules=rules))
    for board, request in _pigeonhole_instances(random.Random(5), 60):
        infeasible += _assert_same_infeasible(board, request)
    kinds = ("ANALOG", "ICU", "PWM")
    pin_types = [
        (*offered, *(FunctionEntry("CAN_TX", f"D{k}") for k in range(padding)))
        for n in range(4)
        for offered in itertools.combinations(map(FunctionEntry, kinds), n)
        for padding in range(max(0, 1 - n), 6 - n)
    ]
    requests = [
        Request(slots)
        for n in range(4)
        for slots in itertools.combinations_with_replacement(kinds, n)
    ]
    boards = [()] + [(t,) for t in pin_types] + list(itertools.product(pin_types, repeat=2))
    rng = random.Random(3)
    boards += [tuple(rng.choices(pin_types, k=3)) for _ in range(600)]
    for entries in boards:
        board = Board(tuple(Pin(f"P{j}", e) for j, e in enumerate(entries)))
        for request in requests:
            infeasible += _assert_same_infeasible(board, request)
    assert infeasible > 20_000


@pytest.mark.parametrize(
    "options, solutions", [(SolveOptions(), 588), (LABELED, 136_800)], ids=["pinsets", "labeled"]
)
def test_streamed_assignments_equal_ones_built_from_their_pins(demo_board, options, solutions):
    """The enumerator builds each solution from its parent node's Bindings
    and running cost; every one must equal the Assignment built from scratch
    out of its pin tuple."""
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    problem = _Problem(demo_board, request, ())
    index = {pin.id: p for p, pin in enumerate(demo_board.pins)}
    count = 0
    for a in iter_assignments(demo_board, request, options):
        assert [b.slot for b in a.bindings] == list(range(request.length))
        assert tuple(b.kind for b in a.bindings) == request.canonical
        pins = [index[b.pin] for b in a.bindings]
        built = Assignment(
            tuple(problem.bindings[i, p] for i, p in enumerate(pins)),
            sum(demo_board.pins[p].cost for p in pins),
            demo_board,
        )
        assert a == built
        count += 1
    assert count == solutions


DEMO_REQUESTS = [
    "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda",
    ",".join(["can-tx"] * 10),
]


def _assert_constructed_alike(assignments) -> int:
    """Check that each Assignment given is indistinguishable from the one the
    constructor builds out of its fields, and return how many there were.

    Type, equality, the instance dict's items in order and a pickle round
    trip (one per chunk, so the board is pickled once a chunk) are checked
    on every one. Hash, repr, asdict, replace and frozenness each read the
    whole board, so they are checked on the first of every chunk.
    """
    count = 0
    assignments = iter(assignments)
    while chunk := list(itertools.islice(assignments, 1000)):
        built = [Assignment(a.bindings, a.total_cost, a.board) for a in chunk]
        copies = pickle.loads(pickle.dumps(chunk))
        board = copies[0].board  # a copy, shared by the chunk's copies
        assert board == chunk[0].board
        for a, b, copy in zip(chunk, built, copies):
            assert type(a) is Assignment and a == b
            assert list(vars(a).items()) == list(vars(b).items())
            assert type(copy) is Assignment and list(vars(copy)) == list(vars(b))
            assert copy.bindings == a.bindings and copy.total_cost == a.total_cost
            assert copy.board is board
        a, b = chunk[0], built[0]
        assert hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        dearer = dataclasses.replace(a, total_cost=a.total_cost + 1)
        assert dearer == Assignment(a.bindings, a.total_cost + 1, a.board) != a
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.total_cost = 0
        count += len(chunk)
    return count


# The mixed request's prefixes hold demo-table's 260,016 labeled solutions.
@pytest.mark.parametrize(
    "options, solutions", [(SolveOptions(), 1_562), (LABELED, 260_033)], ids=["pinsets", "labeled"]
)
def test_streamed_assignments_are_indistinguishable_from_constructed_ones(
    demo_board, options, solutions
):
    """The enumerator builds each solution without the dataclass __init__,
    storing its fields straight into the instance dict; nothing a caller can
    observe may tell it from one the constructor builds, on any interpreter.
    Every prefix of both demo requests, the empty one included, through
    iter_assignments, find_feasible and find_best."""
    streamed = answers = 0
    for text in DEMO_REQUESTS:
        kinds = text.split(",")
        for length in range(len(kinds) + 1):
            request = parse_request(",".join(kinds[:length]))
            streamed += _assert_constructed_alike(iter_assignments(demo_board, request, options))
            for solve in (find_feasible, find_best):
                outcome = solve(demo_board, request, options)
                if isinstance(outcome, Assignment):
                    answers += _assert_constructed_alike([outcome])
    assert streamed == solutions
    assert answers == 2 * (11 + 4)


def test_a_solve_builds_only_the_bindings_it_yields(monkeypatch):
    """Bindings are built on first lookup, never up front: every verdict and
    quick_reject builds a _Problem, so that fixed cost stays flat however
    large the board. find_feasible builds one Binding per slot of its
    answer."""
    built = []
    missing = solver._Bindings.__missing__

    def counted(self, key):
        built.append(key)
        return missing(self, key)

    monkeypatch.setattr(solver._Bindings, "__missing__", counted)
    board = Board(tuple(Pin(f"P{j}", (FunctionEntry("ANALOG", f"ADC_IN{j}"),)) for j in range(300)))
    request = Request(("ANALOG",) * 200)
    _Problem(board, request, ())
    assert built == []
    outcome = find_feasible(board, request)
    assert len(built) == len(outcome.bindings) == 200


ICU_CH12 = re.compile(r"TIM\d+_CH[12]")


def _per_kind_tables(board, request, rules):
    """elig and detail as one scan of every pin per requested kind builds
    them, applying icu-ch12 (the only rule) by its own pattern."""
    elig, detail = {}, {}
    for kind in sorted(set(request.canonical)):
        supporters = []
        for index, pin in enumerate(board.pins):
            details = [
                e.detail
                for e in pin.entries
                if e.kind == kind
                and ("icu-ch12" not in rules or kind != "ICU" or ICU_CH12.fullmatch(e.detail))
            ]
            if details:
                supporters.append(index)
                detail[(index, kind)] = min(details)
        elig[kind] = tuple(supporters)
    return elig, detail


def test_eligibility_tables_equal_a_per_kind_scan():
    # ICU/TIM1_CH3 sorts first but only ICU/TIM2_CH1 passes icu-ch12.
    entries = (FunctionEntry("ICU", "TIM1_CH3"), FunctionEntry("ICU", "TIM2_CH1"))
    two_icu = Board((Pin("PX", entries),))
    icu = parse_request("icu")
    for board, request in [*instance_family(seed=31, count=300), (two_icu, icu)]:
        for rules in ((), ("icu-ch12",)):
            problem = _Problem(board, request, rules)
            elig, detail = _per_kind_tables(board, request, rules)
            assert list(problem.elig.items()) == list(elig.items()), (board, request)
            assert problem.detail == detail, (board, request)
    assert _Problem(two_icu, icu, ()).detail == {(0, "ICU"): "TIM1_CH3"}
    assert _Problem(two_icu, icu, ("icu-ch12",)).detail == {(0, "ICU"): "TIM2_CH1"}
