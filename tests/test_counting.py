"""Configuration-space counting: worked totals, duality, brute-force equality."""

import math
import random

import pytest

from pinassign import config_space, config_space_board, k_factor, parse_board

import conftest
from conftest import _k_factor_row
from count_references import brute_force_board_space, brute_force_space


def test_k_factor_base_case():
    for n in range(1, 10):
        assert k_factor(n, 1) == 1


def test_k_factor_worked_values():
    assert k_factor(2, 3) == 6
    # direct recursion: 1 + k(1,1) + k(2,1) + k(3,1) = 4
    assert k_factor(3, 2) == 4


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
                    math.comb(n, k) * row[k] for k in range(1, top + 1)
                )
    row = _k_factor_row(50, 3000)
    assert config_space(50, 3000, 50) == sum(math.comb(50, k) * row[k] for k in range(1, 51))


def test_k_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        k_factor(0, 1)
    with pytest.raises(ValueError):
        k_factor(1, 0)


def test_config_space_rejects_no_kinds():
    with pytest.raises(ValueError, match="^m must be positive$"):
        config_space(3, 0, 2)


def test_config_space_worked_totals():
    assert config_space(4, 1, 4) == 15
    assert config_space(4, 2, 4) == 47
    assert config_space(4, 3, 4) == 103
    assert config_space(6, 4, 6) == 1519
    assert config_space(16, 20, 16) == 1_099_126_862_792


def test_config_space_degenerates_to_binomial_sum():
    for n in range(0, 9):
        for L in range(0, n + 2):
            assert config_space(n, 1, L) == sum(math.comb(n, k) for k in range(1, L + 1))


def test_config_space_matches_brute_force():
    for n in range(0, 6):
        for m in range(1, 5):
            for L in range(0, n + 1):
                assert config_space(n, m, L) == brute_force_space(n, m, L)


def test_config_space_equals_comb_sum_on_a_seeded_grid():
    rng = random.Random(23)
    for _ in range(1000):
        n, m, L = rng.randint(0, 60), rng.randint(1, 40), rng.randint(0, 70)
        assert config_space(n, m, L) == sum(
            math.comb(n, k) * math.comb(k + m - 1, m - 1) for k in range(1, min(n, L) + 1)
        ), (n, m, L)


@pytest.mark.parametrize("n", [*range(1, 30), 15000])
def test_config_space_two_kinds_closed_form(n):
    # sum(comb(n, k) * (k + 1)) = n * 2**(n - 1) + 2**n - 1
    assert config_space(n, 2, n) == (n + 2) * 2 ** (n - 1) - 1


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
