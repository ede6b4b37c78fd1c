"""Sanity checks for the brute-force reference implementations themselves."""

import pytest

from pinassign import parse_request
from pinassign.oracle import InstanceTooLargeError, brute_force_solve

from conftest import random_board
from count_references import brute_force_space


def test_two_analog_ground_truth(two_pin_board):
    result = brute_force_solve(two_pin_board, parse_request("analog,analog"))
    assert result.labeled_count == 2
    assert result.pin_set_count == 1
    assert result.min_cost == 7


def test_absent_kind_yields_nothing(two_pin_board):
    result = brute_force_solve(two_pin_board, parse_request("can-tx"))
    assert result.labeled_count == result.pin_set_count == 0
    assert result.min_cost is None


def test_empty_request_yields_single_empty_solution(two_pin_board):
    result = brute_force_solve(two_pin_board, parse_request(""))
    assert result.labeled == ((),)
    assert result.min_cost == 0


def test_worked_space_totals():
    assert brute_force_space(4, 1, 4) == 15
    assert brute_force_space(4, 2, 4) == 47
    assert brute_force_space(4, 3, 4) == 103


def test_size_guards():
    import random

    big = random_board(random.Random(0), max_pins=7)
    with pytest.raises(InstanceTooLargeError):
        brute_force_solve(big, parse_request("analog," * 6 + "analog"))
    with pytest.raises(InstanceTooLargeError):
        brute_force_space(7, 2, 3)
    with pytest.raises(InstanceTooLargeError):
        brute_force_space(4, 5, 3)
