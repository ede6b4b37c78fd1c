"""Solver: reference examples, oracle spot checks, invariants, witnesses."""

import copy as copy_module
import dataclasses
import gc
import inspect
import itertools
import operator
import pickle
import random
import re
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pinassign import (
    AllPinsUsedWarning,
    Assignment,
    Binding,
    Board,
    EnumerationLimitError,
    FunctionEntry,
    Infeasible,
    Pin,
    Request,
    Semantics,
    SolveOptions,
    Witness,
    check_witness,
    enumerate_all,
    extend_assignment,
    find_best,
    find_feasible,
    iter_assignments,
    parse_board,
    parse_request,
    serialize_board,
)
from pinassign.cli import bench, run
from pinassign import solver
from pinassign.solver import _Problem
from pinassign.oracle import brute_force_solve

from best_references import best_by_enumeration, best_by_threshold
from conftest import KIND_POOL, instance_family, plain_bindings, random_board, random_request

LABELED = SolveOptions(semantics=Semantics.LABELED)
RULE_SETS = ((), ("icu-ch12",))


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


def test_enumeration_cap_boundaries(two_pin_board):
    """A cap of exactly the solution count returns them all; a cap of 0
    refuses any feasible request, the empty one (one solution) included, and
    returns [] for an infeasible one."""
    for text, solutions in [("analog", 2), ("serial-tx", 1), ("", 1)]:
        request = parse_request(text)
        options = SolveOptions(semantics=Semantics.LABELED, enumeration_cap=solutions)
        everything = enumerate_all(two_pin_board, request, LABELED)
        assert len(everything) == solutions
        assert enumerate_all(two_pin_board, request, options) == everything
        with pytest.raises(EnumerationLimitError):
            enumerate_all(two_pin_board, request, SolveOptions(enumeration_cap=0))
    assert enumerate_all(two_pin_board, parse_request("can-tx"), SolveOptions(enumeration_cap=0)) == []


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
    assert problem.elig == {"ANALOG": {0: "ADC1_IN1", 3: "-"}, "ICU": {0: "TIM2_CH2"}}
    unruled = _Problem(board, parse_request("icu"), ()).elig
    assert {kind: list(pins) for kind, pins in unruled.items()} == {"ICU": [0, 1, 2, 3]}


def test_unknown_rule_name_is_refused(two_pin_board):
    request = parse_request("icu")
    with pytest.raises(ValueError, match="unknown eligibility rule 'icu-ch3'"):
        find_feasible(two_pin_board, request, SolveOptions(rules=("icu-ch3",)))
    with pytest.raises(ValueError, match="unknown eligibility rule"):
        brute_force_solve(two_pin_board, request, ("icu-ch12", "nope"))
    outcome = find_feasible(two_pin_board, parse_request("icu,icu,icu"))
    with pytest.raises(ValueError, match="unknown eligibility rule"):
        check_witness(two_pin_board, request, outcome.witness, rules=("ICU-CH12",))
    # Names that are not strings, hashable or not, mixed with a known one.
    for rules in (["icu-ch12", 3], [["icu-ch12"]]):
        with pytest.raises(ValueError, match="rule names must be strings"):
            check_witness(two_pin_board, request, outcome.witness, rules)
    # Refused before the Board caches a table for them.
    assert set(two_pin_board._tables) == {()}


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_check_witness_reads_a_list_of_rules_as_their_tuple():
    """check_witness takes its rule names in any sequence: a list gives the
    verdict the tuple of the same names gives, whether or not the Board has
    built its table for them."""
    verdicts = []
    for board, request in instance_family(seed=23, count=200):
        for rules in RULE_SETS:
            outcome = find_feasible(board, request, SolveOptions(rules=rules))
            if not isinstance(outcome, Infeasible):
                continue
            for other in RULE_SETS:
                listed = check_witness(dataclasses.replace(board), request, outcome.witness,
                                       list(other))
                assert listed == check_witness(board, request, outcome.witness, other)
                verdicts.append(listed)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 5


def test_a_repeated_rule_reads_the_table_of_its_rule_set(demo_board):
    """Tables are keyed on the rule set, not on the names as given: a Board
    solved under ("icu-ch12",), then ("icu-ch12", "icu-ch12"), then checked
    with a list naming the rule twice, holds one ruled table and gives the
    same answers each time."""
    board = parse_board(serialize_board(demo_board))
    infeasible = parse_request(",".join(["icu"] * 8))  # 7 pins pass icu-ch12
    request = parse_request("icu,icu,icu,analog")
    answers = []
    for rules in (("icu-ch12",), ("icu-ch12", "icu-ch12")):
        options = SolveOptions(rules=rules)
        answers.append((
            find_feasible(board, infeasible, options),
            find_best(board, request, options),
            enumerate_all(board, request, SolveOptions(Semantics.LABELED, rules)),
        ))
    assert list(board._tables) == [("icu-ch12",)]
    table = board._tables[("icu-ch12",)]
    assert answers[0] == answers[1]
    outcome = answers[0][0]
    assert isinstance(outcome, Infeasible) and len(outcome.witness.pins) == 7
    for rules in (("icu-ch12",), ["icu-ch12", "icu-ch12"]):
        assert check_witness(board, infeasible, outcome.witness, rules)
    assert list(board._tables) == [("icu-ch12",)]
    assert board._tables[("icu-ch12",)] is table


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"semantics": "labeled"}, "semantics must be a Semantics member, got 'labeled'"),
        ({"rules": ["icu-ch12"]}, r"rules must be a tuple of rule names, got \['icu-ch12'\]"),
        ({"rules": ("nope",)}, "unknown eligibility rule 'nope'"),
        ({"rules": (["icu-ch12"],)}, r"rule names must be strings, got \['icu-ch12'\]"),
        ({"rules": ("icu-ch12", 12)}, "rule names must be strings, got 12"),
        ({"enumeration_cap": "5"}, "enumeration cap must be an integer, got '5'"),
    ],
    ids=["semantics-string", "rules-list", "unknown-rule", "rule-name-list", "rule-name-int",
         "cap-string"],
)
def test_solve_options_refuse_bad_fields_when_built(fields, message):
    """A string semantics would stream as pin sets, a list of rules or a list
    as a rule name would not hash and a string cap would raise TypeError at
    the first comparison, so each is refused before any solve, as are an
    unknown rule and a rule name that is not a string."""
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


def test_solve_options_keep_their_rule_set(monkeypatch):
    """Options naming one rule set are one value: the names are kept sorted
    and each once, so a repeat or another order compares and hashes equal,
    and prints alike. The check runs before the names are sorted, so a
    non-tuple or an unknown name among them is still refused by name."""
    monkeypatch.setitem(solver.RULES_BY_NAME, "b-rule", solver.RULES_BY_NAME["icu-ch12"])
    once = SolveOptions(rules=("b-rule", "icu-ch12"))
    for rules in (("icu-ch12", "b-rule"), ("b-rule", "icu-ch12", "b-rule", "icu-ch12")):
        options = SolveOptions(rules=rules)
        assert options.rules == ("b-rule", "icu-ch12")
        assert options == once and hash(options) == hash(once) and repr(options) == repr(once)
    assert SolveOptions(rules=("icu-ch12", "icu-ch12")) == SolveOptions(rules=("icu-ch12",))
    assert dataclasses.replace(once, rules=("icu-ch12",) * 3).rules == ("icu-ch12",)
    with pytest.raises(ValueError, match="unknown eligibility rule 'nope'"):
        SolveOptions(rules=("icu-ch12", "nope", "icu-ch12"))
    with pytest.raises(ValueError, match="rules must be a tuple of rule names"):
        SolveOptions(rules=["icu-ch12", "icu-ch12"])


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
@pytest.mark.parametrize("seed", [2024, 7, 11])
def test_every_infeasible_witness_validates(seed):
    """The witness _prepare reads off its failed search, by find_feasible
    and by find_best's last cost level, under both rule sets, is the one
    _witness recomputes from the eligibility table, and check_witness
    accepts it."""
    seen = Counter()
    for board, request in instance_family(seed=seed, count=400):
        for rules in RULE_SETS:
            for solve in (find_feasible, find_best):
                outcome = solve(board, request, SolveOptions(rules=rules))
                if not isinstance(outcome, Infeasible):
                    continue
                witness = outcome.witness
                assert check_witness(board, request, witness, rules), (board, request, rules)
                assert witness == solver._witness(_Problem(board, request, rules), witness.kinds)
                seen[outcome.reason, rules, len(witness.kinds) > 1] += 1
    # The family must exercise both reasons, and under both rule sets
    # pigeonholes whose search reached slots of more than one kind.
    assert seen[solver.REASON_KIND_UNSUPPORTED, (), False] >= 10
    for rules in RULE_SETS:
        assert seen[solver.REASON_PIGEONHOLE, rules, True] >= 20


def test_check_witness_rejects_bogus_witness(two_pin_board):
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
    [(SolveOptions(), 588, 74), (LABELED, 136_800, 79)],
    ids=["pinsets", "labeled"],
)
def test_enumeration_pruning_call_counts(demo_board, monkeypatch, options, solutions, calls):
    """The kept matching's repairs, counted on the demo board's 10-slot mixed
    request, _prepare's matching included. The counts pin two savings, each
    sound without the other, so no output shows a lost one. A slot a bind
    displaces takes the pin the bind freed when it can, without a search
    (175 and 421 calls when every displaced slot ran _augment). The labeled
    search walks the slots below the five ANALOG ones once per set of pins
    those take and replays them for the other orderings (3,644 calls when it
    walked all 120). No node here fails two repairs, so these counts are the
    same without the skip of a failed repair's dead pins; that skip is
    guarded by test_best_search_call_count,
    test_best_search_skips_what_its_failed_repairs_proved,
    test_a_failed_repair_proves_its_region_dead and the find_best count in
    test_enumeration_prunes_a_deficient_kind_union."""
    count = _count_augments(monkeypatch)
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    assert sum(1 for _ in iter_assignments(demo_board, request, options)) == solutions
    assert count[0] == calls


def test_streamed_solutions_share_their_bindings(demo_board):
    """A solve builds one Binding per (slot, pin) and every solution holding
    that pair reuses it, which keeps the CLI's per-Binding JSON cache small.
    The 10-slot request's ANALOG run ends above its last slot, so most of its
    solutions are replayed from the labeled memo."""
    for text, solutions, pairs in [
        ("analog,analog,analog,icu,analog,analog", 3_480, 39),
        ("analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda", 136_800, 54),
    ]:
        ids, keys, count = set(), set(), 0
        for a in iter_assignments(demo_board, parse_request(text), LABELED):
            count += 1
            ids.update(map(id, a.bindings))
            keys.update((b.slot, b.pin) for b in a.bindings)
        assert count == solutions
        assert len(ids) == len(keys) == pairs


def test_enumeration_prunes_a_deficient_kind_union(monkeypatch):
    """ICU, PWM and SERIAL_TX each have four pins, but once the ANALOG slots
    take P0 and P1 the three kinds share two. No single kind is short, so only
    a matching sees it; a search without that prune walks every placement of
    the ANALOG slots on the Q pins (seconds, doubling with each Q pin). The
    first solution takes 69 calls (87 when every displaced slot ran
    _augment instead of taking the pin its bind freed). A node's first
    failed repair marks the pins it reached dead there, and the node skips
    them without another search: find_best makes 67 calls (95 when each such
    candidate ran its own failed repair, 92 without the freed-pin step)."""
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
    assert count[0] == 69
    assert [b.pin for b in first.bindings] == [
        "P0", "Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "P1", "P2", "P3",
    ]
    assert first == find_feasible(board, request)
    count[0] = 0
    best = find_best(board, request)
    assert count[0] == 67
    assert [b.pin for b in best.bindings] == [
        "Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "P0", "P2", "P3",
    ]
    assert best.total_cost == 17


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
    this answer, but only after millions of calls. A node skips the pins its
    failed repairs reached without another search (164 calls when each such
    candidate ran its own repair), and a displaced slot takes the pin its
    bind freed when it can (171 calls when every one ran _augment). The
    count pins today's search exactly."""
    board, request = _planted_instance(random.Random(7), 64, 24)
    count = _count_augments(monkeypatch, limit=10_000)
    best = find_best(board, request)
    assert count[0] == 126
    assert best.total_cost == 38
    assert [b.pin for b in best.bindings] == [
        "P20", "P23", "P51", "P54", "P1", "P14", "P35", "P18", "P28", "P32", "P34", "P44",
        "P52", "P3", "P62", "P8", "P19", "P24", "P11", "P16", "P2", "P4", "P9", "P27",
    ]


def test_best_search_skips_what_its_failed_repairs_proved(monkeypatch):
    """find_best's _augment calls on one 512x128 board, its matching
    included. Most failed repairs there would re-prove, at the same node, a
    Hall deficiency an earlier failure at that node found; skipping the pins
    that failure reached takes the calls from 15,484 to 4,074 (from 19,642
    to 6,135 when every displaced slot runs _augment instead of first
    taking the pin its bind freed). The limit ends a search that lost the
    skip at once."""
    board, request = _planted_instance(random.Random(7), 512, 128)
    count = _count_augments(monkeypatch, limit=10_000)
    best = find_best(board, request)
    assert count[0] == 4_074
    assert best.total_cost == 176


def _search_repairs(monkeypatch) -> list[tuple[int, bool]]:
    """Record each repair _iter_bindings runs as (its node, whether it
    succeeded). _prepare's insertions and the recursive steps of a search
    are not repairs."""
    augment = solver._augment
    repairs = []

    def recorded(*args):
        caller = sys._getframe(1)
        node = caller.f_locals["i"] if caller.f_code.co_name == "_iter_bindings" else None
        found = augment(*args)
        if node is not None:
            repairs.append((node, found))
        return found

    monkeypatch.setattr(solver, "_augment", recorded)
    return repairs


def test_a_failed_repair_proves_its_region_dead(monkeypatch):
    """R0-R2 offer ANALOG and PWM, X only ANALOG, and the three PWM slots
    need all of R0-R2. At the root, the ANALOG slot meets R0, R1 and R2
    before X: the first repair fails, and the pins it reached and their
    holders form a tight Hall set, so R1 and R2 are skipped without a
    search. A search without the skip runs one failed repair per candidate
    there. Both streams, the first and the best answer equal the oracle's."""
    board = parse_board(
        "pin R0 = ANALOG, PWM\npin R1 = ANALOG, PWM\npin R2 = ANALOG, PWM\npin X = ANALOG\n"
    )
    request = parse_request("pwm,analog,pwm,pwm")
    truth = brute_force_solve(board, request)
    first_best = truth.labeled[truth.costs.index(truth.min_cost)]
    repairs = _search_repairs(monkeypatch)
    answers = [
        (lambda: _solve_all_plain(board, request, LABELED), list(truth.labeled)),
        (lambda: _solve_all_plain(board, request, SolveOptions()), list(truth.representatives)),
        (lambda: plain_bindings(find_feasible(board, request)), truth.labeled[0]),
        (lambda: plain_bindings(find_best(board, request)), first_best),
    ]
    for answer, expected in answers:
        repairs.clear()
        with pytest.warns(AllPinsUsedWarning):
            assert answer() == expected
        assert [(node, found) for node, found in repairs if not found] == [(0, False)]
    assert truth.min_cost == 7


def test_best_search_does_not_recurse_once_per_spare():
    """Pins Z0.. and W cost 3 and S costs 2, so the cheapest pair puts the
    ANALOG slot on S and the ICU slot on W, and leaves every Z pin to a
    spare slot. Binding the ANALOG slot to Z0 frees S, which no cost-3 spare
    can take, so Z0's spare must search past the other spares' pins to W,
    whose ICU slot moves to S. A search that went on from one spare's pin to
    the next would recurse once per spare, past Python's recursion limit."""
    n = sys.getrecursionlimit() + 100
    entries = FunctionEntry("ANALOG"), FunctionEntry("PWM"), FunctionEntry("CAN_TX")
    pins = tuple(Pin(f"Z{j}", entries) for j in range(n))
    pins += (
        Pin("W", (FunctionEntry("ANALOG"), FunctionEntry("ICU"), FunctionEntry("PWM"))),
        Pin("S", (FunctionEntry("ANALOG"), FunctionEntry("ICU"))),
    )
    best = find_best(Board(pins), parse_request("analog,icu"))
    assert [b.pin for b in best.bindings] == ["Z0", "S"]
    assert best.total_cost == 5


@pytest.mark.parametrize("n_pins, length", [(80, 60), (400, 300)])
def test_deep_uniform_descent_runs_no_repair(monkeypatch, n_pins, length):
    """Every pin offers ANALOG and ICU and the slots alternate, so _prepare's
    matching puts slot j on pin length-1-j, after chains of up to length
    steps: length(length+1)/2 _augment calls. Each bind of the first descent
    then displaces a slot that takes the pin the bind freed, so
    find_feasible makes no other call (the search made 1,770 and 44,850
    more when every displaced slot ran _augment)."""
    pins = tuple(
        Pin(f"P{j}", (FunctionEntry("ANALOG", f"ADC{j}"), FunctionEntry("ICU", f"TIM{j}")))
        for j in range(n_pins)
    )
    board = Board(pins, f"uniform-{n_pins}")
    request = Request(tuple(("ANALOG", "ICU")[j % 2] for j in range(length)))
    count = _count_augments(monkeypatch)
    assert not isinstance(solver._prepare(board, request, SolveOptions()), Infeasible)
    assert count[0] == length * (length + 1) // 2
    count[0] = 0
    first = find_feasible(board, request)
    assert count[0] == length * (length + 1) // 2
    assert [b.pin for b in first.bindings] == [f"P{j}" for j in range(length)]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_a_spare_takes_the_pin_its_bind_freed(monkeypatch):
    """P3 (cost 1) serves the PWM slot, and the cost-3 level's free pin, P2,
    goes to a spare slot. The ANALOG slot's first candidate, P1, is the ICU
    slot's, which takes the ANALOG slot's freed P4; the ICU slot's next
    candidate, P2, is the spare's, which takes P4 in turn. Neither bind
    runs a repair: find_best makes only _prepare's 6 _augment calls (8 when
    a displaced slot ran _augment), and its answer is the oracle's."""
    board = parse_board(
        "pin P0 = CAN_TX\npin P1 = PWM, ICU, ANALOG\npin P2 = CAN_TX, ICU, PWM\n"
        "pin P3 = PWM\npin P4 = ICU, PWM, ANALOG\n"
    )
    request = parse_request("pwm,icu,analog")
    truth = brute_force_solve(board, request)
    count = _count_augments(monkeypatch)
    best = find_best(board, request)
    assert count[0] == 6
    assert [b.pin for b in best.bindings] == ["P1", "P2", "P3"] and best.total_cost == 7
    assert plain_bindings(best) == truth.labeled[truth.costs.index(truth.min_cost)]
    problem, owner = solver._prepare(board, request, LABELED, by_cost=True)
    spare = problem.length
    assert owner.index(spare) == 2 and owner[4] == 0
    repairs = _search_repairs(monkeypatch)
    next(solver._iter_bindings(problem, owner, Semantics.LABELED))
    assert repairs == [] and owner.index(spare) == 4


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
@pytest.mark.parametrize(
    "seed, count, feasible",
    [(2024, 400, 466), (7, 400, 404), (11, 400, 417), (12, 60, 75), (13, 60, 65), (14, 80, 79)],
    ids=["2024", "7", "11", "12", "13", "14"],
)
def test_seeded_family_equals_the_oracle(seed, count, feasible):
    """On the seeded family, under both rule sets, both streams,
    find_feasible and find_best equal oracle.brute_force_solve's answers,
    and without a rule find_best equals both test-side references. feasible
    is the number of feasible solves, over both rule sets."""
    solved = 0
    for board, request in instance_family(seed=seed, count=count):
        for rules in RULE_SETS:
            truth = brute_force_solve(board, request, rules)
            labeled = SolveOptions(semantics=Semantics.LABELED, rules=rules)
            assert _solve_all_plain(board, request, labeled) == list(truth.labeled)
            pinsets = SolveOptions(rules=rules)
            assert _solve_all_plain(board, request, pinsets) == list(truth.representatives)
            first, best = find_feasible(board, request, pinsets), find_best(board, request, pinsets)
            if truth.min_cost is None:
                assert isinstance(first, Infeasible) and isinstance(best, Infeasible)
                best = None
            else:
                solved += 1
                assert plain_bindings(first) == truth.labeled[0], (board, request, rules)
                assert plain_bindings(best) == truth.labeled[truth.costs.index(truth.min_cost)]
                assert best.total_cost == truth.min_cost
            if not rules:
                assert best_by_threshold(board, request) == best
                assert best_by_enumeration(board, request) == best
    assert solved == feasible


def _cheapest_stream(board, request, rules=()):
    """The labeled stream of _prepare's by_cost instance, as oracle rows."""
    prepared = solver._prepare(board, request, SolveOptions(rules=rules), by_cost=True)
    if isinstance(prepared, Infeasible):
        return []
    return [plain_bindings(a) for a in solver._iter_bindings(*prepared, Semantics.LABELED)]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_cheapest_search_yields_exactly_the_minimum_cost_solutions(demo_board):
    """Every leaf of the by_cost search is a minimum-cost assignment, so
    find_best takes its first one unfiltered. Under both rule sets, its
    labeled stream equals oracle.brute_force_solve's minimum-cost solutions,
    in order, on the seeded family, and the labeled enumeration's
    minimum-cost solutions on every prefix of both demo requests, too large
    for the oracle. The last slot runs no repair: a candidate a spare holds
    counts only when the spare can take the slot's pin (840 leaves at the
    mixed request's full length when it counted every such candidate)."""
    for seed in (2024, 7, 11):
        for board, request in instance_family(seed=seed, count=400):
            for rules in RULE_SETS:
                truth = brute_force_solve(board, request, rules)
                cheapest = [s for s, c in zip(truth.labeled, truth.costs) if c == truth.min_cost]
                assert _cheapest_stream(board, request, rules) == cheapest, (board, request, rules)
    counts = []
    for text in DEMO_REQUESTS:
        kinds = text.split(",")
        for length in range(len(kinds) + 1):
            request = parse_request(",".join(kinds[:length]))
            for rules in RULE_SETS:
                options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
                solutions = [
                    (plain_bindings(a), a.total_cost)
                    for a in iter_assignments(demo_board, request, options)
                ]
                least = min((cost for _, cost in solutions), default=None)
                cheapest = [s for s, cost in solutions if cost == least]
                assert _cheapest_stream(demo_board, request, rules) == cheapest, (length, rules)
                if text == DEMO_REQUESTS[0] and not rules:
                    counts.append(len(cheapest))
    assert counts == [1, 2, 2, 18, 90, 240, 240, 240, 240, 240, 600]


def _checked_leaves(board, request, options, by_cost, limit=None) -> int:
    """Stream _iter_bindings over _prepare's instance, up to limit solutions,
    and check the matching the search keeps after each one: every slot
    number, spares included, holds exactly one pin, one of its candidates,
    and every other pin is _FREE. With the labeled memo off, every solution
    is walked, so each slot but the last (yielded without moving) also sits
    on its pin in the solution; a replayed one leaves owner untouched.
    Returns the solutions checked."""
    prepared = solver._prepare(board, request, options, by_cost)
    if isinstance(prepared, Infeasible):
        return 0
    problem, owner = prepared
    walked = solver._MEMO_CELLS == 0
    count = 0
    for a in itertools.islice(solver._iter_bindings(problem, owner, options.semantics), limit):
        count += 1
        held = [(p, slot) for p, slot in enumerate(owner) if slot != solver._FREE]
        assert sorted(slot for _, slot in held) == list(range(len(problem.options)))
        assert all(p in problem.options[slot] for p, slot in held)
        if walked:
            pins = [board.index_of(b.pin) for b in a.bindings]
            assert all(owner[pins[j]] == j for j in range(problem.length - 1))
    return count


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_search_keeps_one_matching_of_all_slots(demo_board, monkeypatch):
    """Once with the labeled memo off, checking where each walked solution
    leaves its slots, and once with it on, where most of the 10-slot
    request's solutions are replayed."""
    request = parse_request(
        "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
    )
    for cells in (0, solver._MEMO_CELLS):
        monkeypatch.setattr(solver, "_MEMO_CELLS", cells)
        assert _checked_leaves(demo_board, request, LABELED, False, limit=5_000) == 5_000
        assert _checked_leaves(demo_board, request, SolveOptions(), False) == 588
        assert _checked_leaves(demo_board, request, LABELED, True) == 600
        checked = 0
        for rules in ((), ("icu-ch12",)):
            options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
            for board, asked in instance_family(seed=2024, count=200):
                for by_cost in (False, True):
                    checked += _checked_leaves(board, asked, options, by_cost)
        assert checked == 1_026


def _stream(problem, owner, cells):
    """_iter_bindings' labeled stream over problem and a copy of owner, with a
    memo of the given cells (0 walks every solution). The stream reads
    _MEMO_CELLS as it starts, so several can run side by side."""
    saved = solver._MEMO_CELLS
    solver._MEMO_CELLS = cells
    try:
        stream = solver._iter_bindings(problem, list(owner), Semantics.LABELED)
        first = next(stream)
    finally:
        solver._MEMO_CELLS = saved
    yield first
    yield from stream


def _assert_replays_walk(board, request, options, by_cost, budgets) -> int:
    """Stream _prepare's instance with the labeled memo off and with each
    budget of cells, side by side, and check that every stream yields the
    same solutions in the same order, holding the same Binding objects.
    Returns the solutions each stream yielded."""
    prepared = solver._prepare(board, request, options, by_cost)
    if isinstance(prepared, Infeasible):
        return 0
    problem, owner = prepared
    streams = [_stream(problem, owner, cells) for cells in (0, *budgets)]
    count = 0
    for walked, *replayed in itertools.zip_longest(*streams):
        for a in replayed:
            assert type(a) is Assignment, (board, request, by_cost)
            assert len(a.bindings) == len(walked.bindings)
            assert all(map(operator.is_, a.bindings, walked.bindings)), (board, request)
            assert a.total_cost == walked.total_cost and a.board is walked.board
        count += 1
    return count


# Two cells are spent by the first run end recorded, so nothing is stored;
# 1,000 store a run end or two of a demo request and run out inside another.
MEMO_BUDGETS = (2, 1_000, solver._MEMO_CELLS)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_labeled_memo_replays_exactly_what_the_walk_yields(demo_board, monkeypatch):
    """The memo is an optimization only: on every prefix of both demo
    requests, a demo request with nested run ends, and the seeded family
    (seeds 2024, 7 and 11, with and without icu-ch12), labeled streams of
    the plain and the by_cost instance equal the memo-off walk, Binding
    objects included, whether the memo has cells to spare, runs out
    mid-stream or has none to start with; so do find_best's answers there
    and on the 64x24 planted board."""
    instances = [
        (demo_board, parse_request(",".join(text.split(",")[:length])), LABELED)
        for text in DEMO_REQUESTS
        for length in range(len(text.split(",")) + 1)
    ]
    # Run ends at slots 2 and 4: the CAN_TX run's replays are recorded for
    # the ANALOG run's.
    nested = parse_request("analog,analog,can-tx,can-tx,i2c-sda,serial-rx")
    instances.append((demo_board, nested, LABELED))
    for seed in (2024, 7, 11):
        for rules in ((), ("icu-ch12",)):
            options = SolveOptions(semantics=Semantics.LABELED, rules=rules)
            instances += [(*pair, options) for pair in instance_family(seed, count=400)]
    streamed = 0
    for board, request, options in instances:
        for by_cost in (False, True):
            streamed += _assert_replays_walk(board, request, options, by_cost, MEMO_BUDGETS)
    assert streamed == 268_473
    planted = _planted_instance(random.Random(7), 64, 24)
    for board, request, options in [*instances, (*planted, LABELED)]:
        best = find_best(board, request, options)
        for cells in (0, *MEMO_BUDGETS):
            monkeypatch.setattr(solver, "_MEMO_CELLS", cells)
            assert find_best(board, request, options) == best
        monkeypatch.undo()


def test_labeled_memo_stays_under_its_bound():
    """120 ANALOG pins, one ICU and one PWM pin, asked ANALOG twice, ICU and
    PWM: each of the 7,140 ANALOG pin pairs is a run end's taken set, reached
    twice, with one solution below. Recording them all traces over 1.5 MB,
    the memo's documented bound; with _MEMO_CELLS it stays under the bound,
    and the stream still equals the memo-off walk."""
    pins = tuple(Pin(f"A{j}", (FunctionEntry("ANALOG", f"ADC_IN{j}"),)) for j in range(120))
    icu, pwm = Pin("T", (FunctionEntry("ICU", "TIM2_CH1"),)), Pin("U", (FunctionEntry("PWM"),))
    board = Board(pins + (icu, pwm))
    request = parse_request("analog,analog,icu,pwm")
    problem, owner = solver._prepare(board, request, LABELED)
    bound = 1_500_000

    def traced_peak(cells):
        tracemalloc.start()
        try:
            streams = _stream(problem, owner, 0), _stream(problem, owner, cells)
            count = 0
            for walked, replayed in itertools.zip_longest(*streams):
                assert all(map(operator.is_, replayed.bindings, walked.bindings))
                assert len(replayed.bindings) == 4
                assert replayed.total_cost == walked.total_cost
                count += 1
            assert count == 120 * 119
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(1 << 30) > bound
    assert traced_peak(solver._MEMO_CELLS) < bound


def _held_cells(state) -> int:
    """The cells charged for what a labeled stream's memo holds, read from
    the stream's frame: each run end stored or being recorded is charged its
    taken pins, and each of its leaves its Bindings, plus _CELLS_PER_TUPLE."""
    recording = [(taken, leaves) for _, _, leaves, taken in state["recording"]]
    held = [*state["memo"].items(), *recording]
    return sum(
        len(taken) + sum(len(suffix) for suffix, _ in leaves)
        + (1 + len(leaves)) * solver._CELLS_PER_TUPLE
        for taken, leaves in held
    )


def test_labeled_memo_holds_at_most_its_cells(demo_board, monkeypatch):
    """Given 1,000 cells, the mixed demo request's 7-slot prefix stores a few
    of its run end's taken sets, then runs out while recording another. At
    no solution does the memo hold more than its cells, and once they are
    spent no run end is being recorded."""
    monkeypatch.setattr(solver, "_MEMO_CELLS", 1_000)
    request = parse_request("analog,analog,analog,icu,analog,analog,serial-tx")
    problem, owner = solver._prepare(demo_board, request, LABELED)
    stream = solver._iter_bindings(problem, owner, Semantics.LABELED)
    stored = count = 0
    for _ in stream:
        count += 1
        state = stream.gi_frame.f_locals
        assert _held_cells(state) <= 1_000
        if state["left"] < 0:
            assert state["recording"] == []
        stored = max(stored, len(state["memo"]))
    assert count == 10_680
    assert stored > 0 and state["left"] < 0


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
            tuple(problem[i, p] for i, p in enumerate(pins)),
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


def _assert_infeasible_constructed_alike(outcome):
    """Check that an Infeasible and its Witness are indistinguishable from
    the ones the constructors build out of their fields: type, equality,
    hash, repr, the instance dict's items in order, asdict, replace, a
    pickle round trip and frozenness."""
    w = outcome.witness
    witness = Witness(w.kinds, w.pins, w.demanded)
    built = Infeasible(outcome.reason, outcome.message, witness)
    for a, b in ((w, witness), (outcome, built)):
        assert type(a) is type(b) and a == b
        assert hash(a) == hash(b) and repr(a) == repr(b)
        assert list(vars(a).items()) == list(vars(b).items())
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is type(b) and copy == b
        assert list(vars(copy).items()) == list(vars(b).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, dataclasses.fields(a)[0].name, None)
    more = dataclasses.replace(w, demanded=w.demanded + 1)
    assert more == Witness(w.kinds, w.pins, w.demanded + 1) != w
    other = dataclasses.replace(outcome, message="")
    assert other == Infeasible(outcome.reason, "", witness) != outcome


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_infeasible_answers_are_indistinguishable_from_constructed_ones(demo_board):
    """A pigeonhole answer's Infeasible and Witness are built without the
    dataclass __init__; nothing a caller can observe may tell them from
    ones the constructors build. Every infeasible prefix of the demo's
    CAN_TX request and the seeded family's pigeonholes, through
    find_feasible and find_best, under both rule sets."""
    questions = [
        (demo_board, parse_request(",".join(["can-tx"] * length))) for length in range(4, 11)
    ]
    questions += instance_family(seed=2024, count=400)
    checked = 0
    for board, request in questions:
        for rules in RULE_SETS:
            for solve in (find_feasible, find_best):
                outcome = solve(board, request, SolveOptions(rules=rules))
                if isinstance(outcome, Infeasible) and outcome.reason == solver.REASON_PIGEONHOLE:
                    _assert_infeasible_constructed_alike(outcome)
                    checked += 1
    assert checked >= 400


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
    missing = _Problem.__missing__

    def counted(self, key):
        built.append(key)
        return missing(self, key)

    monkeypatch.setattr(_Problem, "__missing__", counted)
    board = Board(tuple(Pin(f"P{j}", (FunctionEntry("ANALOG", f"ADC_IN{j}"),)) for j in range(300)))
    request = Request(("ANALOG",) * 200)
    assert len(_Problem(board, request, ())) == 0
    assert built == []
    outcome = find_feasible(board, request)
    assert len(built) == len(outcome.bindings) == 200


def test_a_solve_leaves_no_reference_cycle(demo_board):
    """A _Problem and the Bindings it caches are freed as soon as the solve
    drops them: a cycle through them would leave every solve's tables to
    the garbage collector. A _Problem has __slots__ and so takes no weak
    reference; the Binding it alone holds is freed with it."""
    request = parse_request("analog,analog,icu,can-tx")
    gc.disable()
    try:
        problem = _Problem(demo_board, request, ())
        assert problem[0, 0].detail == "ADC1_IN1"
        freed = weakref.ref(problem[0, 0])
        del problem
        assert freed() is None
        gc.collect()
        for solve in (find_feasible, find_best, enumerate_all, solver.quick_reject):
            solve(demo_board, request)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
            pins = [(kind, tuple(details)) for kind, details in problem.elig.items()]
            assert pins == list(elig.items()), (board, request)
            flat = {(p, k): d for k, details in problem.elig.items() for p, d in details.items()}
            assert flat == detail, (board, request)
    assert _Problem(two_icu, icu, ()).elig == {"ICU": {0: "TIM1_CH3"}}
    assert _Problem(two_icu, icu, ("icu-ch12",)).elig == {"ICU": {0: "TIM2_CH1"}}


def test_solver_bindings_are_indistinguishable_from_constructed_ones(demo_board):
    """A _Problem builds each Binding without the dataclass __init__; nothing
    a caller can observe may tell it from one the constructor builds. Every
    (slot, eligible pin) of every prefix of both demo requests, under both
    rule sets."""
    checked = 0
    for text in DEMO_REQUESTS:
        kinds = text.split(",")
        for length in range(len(kinds) + 1):
            request = parse_request(",".join(kinds[:length]))
            for rules in ((), ("icu-ch12",)):
                problem = _Problem(demo_board, request, rules)
                pairs = [(slot, p) for slot, ps in enumerate(problem.options) for p in ps]
                for slot, p in pairs:
                    b = problem[slot, p]
                    kind = request.canonical[slot]
                    built = Binding(slot, kind, demo_board.pins[p].id, problem.elig[kind][p])
                    assert type(b) is Binding and b == built and hash(b) == hash(built)
                    assert (b.slot, b.kind, b.pin, b.detail) == (
                        built.slot, built.kind, built.pin, built.detail
                    )
                    assert list(vars(b).items()) == list(vars(built).items())
                    assert repr(b) == repr(built)
                    assert dataclasses.asdict(b) == dataclasses.asdict(built)
                    copy = pickle.loads(pickle.dumps(b))
                    assert type(copy) is Binding and list(vars(copy).items()) == list(
                        vars(built).items()
                    )
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        b.pin = "PX"
                    checked += 1
    assert checked > 500


def _board_views(board):
    """What a caller can observe of a Board and of its copies through their
    fields."""
    clones = (
        copy_module.copy(board),
        pickle.loads(pickle.dumps(board)),
        dataclasses.replace(board),
    )
    return (
        board == Board(board.pins, board.name),
        hash(board),
        repr(board),
        [(clone == board, hash(clone), repr(clone)) for clone in clones],
    )


def _fresh_table(board, rules):
    """The table board._tables holds for rules, built anew."""
    return solver._build_table(board, solver.rule_patterns(rules))


def test_board_table_is_invisible_and_never_written(demo_board):
    """A Board's solver tables are a cache: building them changes nothing a
    caller sees of the Board or of its copies, a copy that carries them
    carries correct ones, and no solve, under any rule set, writes into an
    existing one."""
    board = parse_board(serialize_board(demo_board))
    request = parse_request("analog,analog,icu,icu,can-tx")
    assert board._tables == {}
    before = _board_views(board)
    for rules in RULE_SETS:
        find_feasible(board, request, SolveOptions(rules=rules))
        assert _board_views(board) == before
    fresh = {rules: _fresh_table(board, rules) for rules in RULE_SETS}
    assert board._tables == fresh
    for clone, carries in (
        (copy_module.copy(board), True),
        (pickle.loads(pickle.dumps(board)), True),
        (dataclasses.replace(board), False),
    ):
        assert clone == board
        assert clone._tables == (fresh if carries else {})

    ruled = SolveOptions(rules=("icu-ch12",))
    for order in ((SolveOptions(), ruled), (ruled, SolveOptions())):
        board = parse_board(serialize_board(demo_board))
        seen = {}
        for options in order:
            for solve in (find_feasible, find_best, enumerate_all):
                solve(board, request, options)
            seen.setdefault(options.rules, board._tables[options.rules])
            assert board._tables.keys() == seen.keys()
            for rules, table in seen.items():
                assert board._tables[rules] is table
                assert table == _fresh_table(board, rules)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
@pytest.mark.parametrize("seed", [2024, 7, 11])
def test_cold_and_warm_boards_answer_alike(seed):
    """A Board whose tables earlier solves built, under both rule sets,
    answers every question as a fresh equal Board does, which builds its
    tables anew."""
    stream = 200  # solutions compared per stream
    for board, request in instance_family(seed=seed, count=120):
        for rules in RULE_SETS:  # warms both tables
            find_feasible(board, request, SolveOptions(rules=rules))
        for rules in RULE_SETS:
            answers = []
            for warm in (dataclasses.replace(board), board):
                assert set(warm._tables) == (set(RULE_SETS) if warm is board else set())
                outcome = find_feasible(warm, request, SolveOptions(rules=rules))
                witness = outcome.witness if isinstance(outcome, Infeasible) else None
                answers.append((
                    outcome,
                    find_best(warm, request, SolveOptions(rules=rules)),
                    solver.quick_reject(warm, request),
                    witness and check_witness(warm, request, witness, rules),
                    *(
                        list(itertools.islice(iter_assignments(
                            warm, request, SolveOptions(semantics, rules)
                        ), stream))
                        for semantics in Semantics
                    ),
                ))
            assert answers[0] == answers[1], (board, request, rules)


def test_one_table_build_per_board(monkeypatch, demo_board, tmp_path, capsys):
    """A Board builds one table per rule set, on its first solve under that
    set, and never again; the subcommands that solve nothing never build
    one."""
    builds = []
    build = solver._build_table

    def counted(board, patterns):
        builds.append((board, patterns))
        return build(board, patterns)

    monkeypatch.setattr(solver, "_build_table", counted)
    board = parse_board(serialize_board(demo_board))
    kinds = ["analog", "icu", "can-tx", "serial-tx", "i2c-sda"]
    requests = [
        parse_request(",".join(combo))
        for size in (1, 2, 3)
        for combo in itertools.combinations_with_replacement(kinds, size)
    ][:50]
    assert len(set(requests)) == 50
    solves = (find_feasible, find_best, enumerate_all)
    bogus = solver.Witness(("ICU",), (), 1)
    for n, request in enumerate(requests):
        for rules in RULE_SETS:
            solves[n % len(solves)](board, request, SolveOptions(rules=rules))
            check_witness(board, request, bogus, list(rules))
        solver.quick_reject(board, request)
    assert builds == [(board, []), (board, [solver.RULES_BY_NAME["icu-ch12"]])]

    path = tmp_path / "demo.pins"
    path.write_text(serialize_board(demo_board), encoding="utf-8")
    builds.clear()
    for argv in (
        ["emit", "--target", "prolog", "--board", str(path), "--max-len", "2"],
        ["emit", "--target", "alloy-spec", "--board", str(path)],
        ["graph", "--board", str(path)],
        ["count", "--board", str(path)],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert builds == []
    assert run(["solve", "--board", str(path), "--request", "analog,icu"]) == 0
    assert len(builds) == 1
