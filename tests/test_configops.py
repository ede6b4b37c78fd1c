"""Merging, diffing, and extending configurations."""

import pytest
from hypothesis import given, strategies as st

from pinassign import (
    Assignment,
    Board,
    BoardMismatchError,
    ConfigDiff,
    Infeasible,
    PinChange,
    Request,
    apply_diff,
    diff_assignments,
    extend_assignment,
    find_best,
    merge_requests,
    parse_board,
    parse_request,
)

from conftest import instance_family


def test_merge_two_analogs():
    merged = merge_requests(Request(("ANALOG",)), Request(("ANALOG",)))
    assert merged.slots == ("ANALOG", "ANALOG")


def test_merge_with_empty_is_canonicalization():
    request = Request(("ICU", "ANALOG"))
    merged = merge_requests(request, Request(()))
    assert merged.slots == ("ANALOG", "ICU")


def test_merge_sorts_after_concatenation():
    merged = merge_requests(Request(("ICU",)), Request(("ANALOG",)))
    assert merged.slots == ("ANALOG", "ICU")


_kinds = st.lists(st.sampled_from(["ANALOG", "ICU", "PWM", "CAN_TX"]), max_size=5)


@given(_kinds, _kinds, _kinds)
def test_merge_commutative_associative_additive(a, b, c):
    ra, rb, rc = Request(tuple(a)), Request(tuple(b)), Request(tuple(c))
    assert merge_requests(ra, rb) == merge_requests(rb, ra)
    assert merge_requests(merge_requests(ra, rb), rc) == merge_requests(
        ra, merge_requests(rb, rc)
    )
    assert merge_requests(ra, rb).length == ra.length + rb.length


def test_diff_of_identical_is_empty(two_pin_board):
    a = find_best(two_pin_board, parse_request("icu"))
    diff = diff_assignments(a, a)
    assert diff.is_empty
    assert diff.cost_delta == 0
    assert diff.added_kinds == diff.removed_kinds == ()


def test_diff_rebinding_between_pins(two_pin_board):
    board = two_pin_board
    a = find_best(board, parse_request("analog"))  # PA1
    b_only = parse_board("pin PA2 = ANALOG/ADC1_IN2, SERIAL_TX/UART2_TX, ICU/TIM2_CH3, ICU/TIM5_CH3")
    # force the PA2 binding by solving on the one-pin board, then re-expressing
    # it over the full board through apply_diff's canonical form
    from pinassign import Binding

    b = Assignment((Binding(0, "ANALOG", "PA2", "ADC1_IN2"),), 4, board)
    diff = diff_assignments(a, b)
    assert diff.cost_delta == 1
    assert diff.added_kinds == () and diff.removed_kinds == ()
    assert {(c.pin, c.old is None, c.new is None) for c in diff.pin_changes} == {
        ("PA1", False, True),
        ("PA2", True, False),
    }


def test_diff_added_binding_costs_delta(two_pin_board):
    from pinassign import Binding

    a = Assignment((Binding(0, "ICU", "PA1", "TIM2_CH2"),), 3, two_pin_board)
    b = Assignment(
        (
            Binding(0, "ICU", "PA1", "TIM2_CH2"),
            Binding(1, "SERIAL_TX", "PA2", "UART2_TX"),
        ),
        7,
        two_pin_board,
    )
    diff = diff_assignments(a, b)
    assert diff.cost_delta == 4
    assert diff.added_kinds == ("SERIAL_TX",)
    assert diff.removed_kinds == ()
    assert [c.pin for c in diff.pin_changes] == ["PA2"]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_diff_requires_same_board(two_pin_board):
    other = parse_board("pin PB0 = ANALOG")
    a = find_best(two_pin_board, parse_request("analog"))
    b = find_best(other, parse_request("analog"))
    with pytest.raises(BoardMismatchError):
        diff_assignments(a, b)


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_diff_round_trip_on_family():
    pairs = 0
    for board, request in instance_family(seed=41, count=80):
        a = find_best(board, request)
        if isinstance(a, Infeasible):
            continue
        b = find_best(board, Request(request.slots[: max(0, request.length - 1)]))
        if isinstance(b, Infeasible):
            continue
        diff = diff_assignments(a, b)
        assert apply_diff(diff, a) == b
        assert apply_diff(diff_assignments(b, a), b) == a
        pairs += 1
    assert pairs >= 20


def test_apply_diff_rejects_wrong_base(two_pin_board):
    a = find_best(two_pin_board, parse_request("analog"))
    b = find_best(two_pin_board, parse_request("icu"))
    diff = diff_assignments(a, b)
    with pytest.raises(ValueError, match="does not apply"):
        apply_diff(diff, b)


def _add_pwm_on_q(base):
    """A diff that binds pin Q to PWM/T1 on top of base."""
    return ConfigDiff(("PWM",), (), (PinChange("Q", None, ("PWM", "T1")),), 1)


def test_apply_diff_refuses_a_pin_the_base_board_lacks():
    base = find_best(parse_board("pin P = ANALOG/A0\npin R = ICU/T1"), parse_request("analog"))
    with pytest.raises(ValueError, match="does not apply: pin Q does not offer PWM/T1"):
        apply_diff(_add_pwm_on_q(base), base)


def test_apply_diff_refuses_an_entry_the_pin_does_not_offer():
    board = parse_board("pin P = ANALOG/A0\npin Q = ICU/T9")
    base = find_best(board, parse_request("analog"))
    with pytest.raises(ValueError, match="does not apply: pin Q does not offer PWM/T1"):
        apply_diff(_add_pwm_on_q(base), base)


# Pin ids match in any case; apply_diff must bind and compare the declared id.
_CASE_BOARD = "pin P = ANALOG, PWM/T1\npin Q = PWM/T1, ICU/T9\npin R = ANALOG"


def test_apply_diff_refuses_to_bind_a_pin_twice_under_another_spelling():
    board = parse_board(_CASE_BOARD)
    base = find_best(board, parse_request("icu"))
    assert base.used_pins == {"Q"}
    diff = ConfigDiff(("PWM",), (), (PinChange("q", None, ("PWM", "T1")),), 1)
    with pytest.raises(ValueError, match="does not apply: pin Q differs from base"):
        apply_diff(diff, base)


def test_apply_diff_binds_the_declared_pin_id():
    board = parse_board(_CASE_BOARD)
    base = find_best(board, parse_request("pwm"))
    diff = ConfigDiff(("ANALOG",), (), (PinChange("r", None, ("ANALOG", "-")),), 1)
    result = apply_diff(diff, base)
    assert result == find_best(board, parse_request("analog,pwm"))
    assert result.used_pins == {"P", "R"}


def test_apply_diff_removes_a_pin_named_in_another_case():
    board = parse_board(_CASE_BOARD)
    base = find_best(board, parse_request("icu"))
    diff = ConfigDiff((), ("ICU",), (PinChange("q", ("ICU", "T9"), None),), -2)
    assert apply_diff(diff, base) == Assignment((), 0, board)


# A PinChange whose old equals its new is refused where it is built, so
# apply_diff never meets one.
@pytest.mark.parametrize(
    "pin, entry",
    [("PA1", None), ("ZZ", None), ("PA5", ("ICU", "TIM2_CH1"))],
    ids=["unused-pin", "pin-not-on-board", "unchanged-bound-entry"],
)
def test_a_pin_change_that_changes_nothing_is_refused(demo_board, pin, entry):
    base = find_best(demo_board, parse_request("icu"))
    assert base.pin_entry_map() == {"PA5": ("ICU", "TIM2_CH1")}
    with pytest.raises(ValueError, match=f"change of pin {pin} changes nothing"):
        apply_diff(ConfigDiff((), (), (PinChange(pin, entry, entry),), 0), base)


def test_extend_refuses_a_base_from_another_board():
    other = parse_board("pin P1 = PWM/TIM1_CH1\npin P2 = ANALOG\npin P3 = ANALOG")
    base = find_best(other, parse_request("pwm"))
    assert base.used_pins == {"P1"}
    board = parse_board("pin P1 = ICU/TIM1_CH1\npin P2 = ANALOG\npin P3 = ANALOG")
    with pytest.raises(BoardMismatchError):
        extend_assignment(board, base, parse_request("analog"))


def test_extend_refuses_a_base_whose_pin_the_board_lacks():
    other = parse_board("pin P1 = ANALOG\npin P2 = PWM\npin P3 = ANALOG")
    base = find_best(other, parse_request("pwm"))
    assert base.used_pins == {"P2"}
    board = parse_board("pin P1 = ANALOG\npin P3 = ANALOG")
    with pytest.raises(BoardMismatchError):
        extend_assignment(board, base, parse_request("analog"))


def test_extend_adds_serial_pin(two_pin_board):
    base = find_best(two_pin_board, parse_request("analog"))
    assert base.used_pins == {"PA1"}
    with pytest.warns(Warning):
        combined = extend_assignment(two_pin_board, base, parse_request("serial-tx"))
    assert isinstance(combined, Assignment)
    assert combined.used_pins == {"PA1", "PA2"}
    assert combined.total_cost == 7


def test_extend_fails_when_no_pins_left(two_pin_board):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = find_best(two_pin_board, parse_request("analog,analog"))
    outcome = extend_assignment(two_pin_board, base, parse_request("icu"))
    assert isinstance(outcome, Infeasible)
    assert outcome.witness is not None


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_extend_with_empty_base_equals_find_best():
    for board, request in instance_family(seed=43, count=60):
        empty = Assignment((), 0, board)
        via_extend = extend_assignment(board, empty, request)
        direct = find_best(board, request)
        if isinstance(direct, Infeasible):
            assert isinstance(via_extend, Infeasible)
        else:
            assert via_extend == direct


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_extend_matches_restricted_best_when_one_exists(two_pin_board):
    # extending analog by icu must keep PA1 frozen and use PA2's ICU entry
    base = find_best(two_pin_board, parse_request("analog"))
    combined = extend_assignment(two_pin_board, base, parse_request("icu"))
    assert isinstance(combined, Assignment)
    assert combined.used_pins == {"PA1", "PA2"}
    kinds = {b.pin: b.kind for b in combined.bindings}
    assert kinds == {"PA1": "ANALOG", "PA2": "ICU"}
