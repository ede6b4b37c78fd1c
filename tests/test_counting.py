"""Configuration-space counting: worked totals, duality, brute-force equality."""

import math
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from pinassign import binomial, config_space, config_space_board, k_factor, parse_board
from pinassign.oracle import brute_force_board_space, brute_force_space

import conftest


def test_binomial_worked_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 3) == 10  # 5!/(2!3!)


@given(st.integers(0, 40))
def test_binomial_n_choose_zero(n):
    assert binomial(n, 0) == 1


@given(st.integers(0, 30), st.integers(0, 35))
def test_binomial_matches_factorial_formula(n, k):
    if k > n:
        assert binomial(n, k) == 0
    else:
        assert binomial(n, k) == math.factorial(n) // (
            math.factorial(k) * math.factorial(n - k)
        )


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_k_factor_base_case():
    for n in range(1, 10):
        assert k_factor(n, 1) == 1


def test_k_factor_worked_values():
    assert k_factor(2, 3) == 6
    # direct recursion: 1 + k(1,1) + k(2,1) + k(3,1) = 4
    assert k_factor(3, 2) == 4


def _k_factor_row(n, m):
    """[k_factor(p, m) for p in 0..n] by the paper's recurrence, bottom-up over
    the kind count: row m is 1 plus the running sums of row m - 1 (entry 0 is
    the empty sum's 1). The reference the closed form is checked against."""
    row = [1] * (n + 1)
    for _ in range(m - 1):
        row = list(accumulate(row[1:], initial=1))
    return row


def test_k_factor_equals_closed_form():
    for n in range(1, 13):
        for m in range(1, 7):
            assert k_factor(n, m) == _k_factor_row(n, m)[n]
    # thousands of kinds: far deeper than the interpreter's recursion limit
    assert k_factor(50, 3000) == _k_factor_row(50, 3000)[50]


def test_config_space_equals_recurrence_sum():
    for n in range(0, 13):
        for m in range(1, 7):
            row = _k_factor_row(n, m)
            for L in range(0, n + 2):
                top = min(n, L)
                assert config_space(n, m, L) == sum(
                    binomial(n, k) * row[k] for k in range(1, top + 1)
                )
    row = _k_factor_row(50, 3000)
    assert config_space(50, 3000, 50) == sum(binomial(50, k) * row[k] for k in range(1, 51))


def test_k_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        k_factor(0, 1)
    with pytest.raises(ValueError):
        k_factor(1, 0)


def test_config_space_worked_totals():
    assert config_space(4, 1, 4) == 15
    assert config_space(4, 2, 4) == 47
    assert config_space(4, 3, 4) == 103
    assert config_space(6, 4, 6) == 1519
    assert config_space(16, 20, 16) == 1_099_126_862_792


def test_config_space_degenerates_to_binomial_sum():
    for n in range(0, 9):
        for L in range(0, n + 2):
            assert config_space(n, 1, L) == sum(binomial(n, k) for k in range(1, L + 1))


def test_config_space_matches_brute_force():
    for n in range(0, 6):
        for m in range(1, 5):
            for L in range(0, n + 1):
                assert config_space(n, m, L) == brute_force_space(n, m, L)


def test_config_space_excess_max_len_adds_nothing():
    assert config_space(4, 3, 10) == config_space(4, 3, 4)


def test_config_space_monotone_in_each_argument():
    for n in range(1, 8):
        for m in range(1, 5):
            for L in range(1, n + 1):
                base = config_space(n, m, L)
                assert config_space(n + 1, m, L) >= base
                assert config_space(n, m + 1, L) >= base
                assert config_space(n, m, L + 1) >= base


def test_board_space_two_pin_reference(two_pin_board):
    # (1+3)(1+4) - 1 distinct (subset, entry choice) selections
    assert config_space_board(two_pin_board) == 19


def test_board_space_trivial_cases():
    assert config_space_board(parse_board("")) == 0
    assert config_space_board(parse_board("pin A = ANALOG")) == 1


def test_board_space_matches_brute_force_on_random_boards():
    import random

    rng = random.Random(7)
    for _ in range(40):
        board = conftest.random_board(rng, max_pins=5, max_entries=4)
        assert config_space_board(board) == brute_force_board_space(board)
