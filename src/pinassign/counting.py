"""Exact configuration-space counting with arbitrary-precision integers.

The configuration space of a board with n interchangeable pins, m function
kinds per pin, and assignments up to length L is the number of pairs
(nonempty pin subset of size <= L, kind multiset matching the subset size).
Every count is a sum over subset sizes whose two binomials are carried from
one size to the next, so it takes min(n, L) steps whatever the kind count,
and its stack depth does not grow at all. The counts exceed 10**12 at realistic board
sizes, so everything here is exact integer arithmetic (Python ints never
overflow).
"""

from __future__ import annotations

__all__ = ["config_space", "config_space_board", "k_factor"]

import math


def k_factor(n: int, m: int) -> int:
    """Number of distinct kind multisets of length n over m kinds.

    The paper defines it by the recurrence

        k_factor(n, m) = 1 + sum(k_factor(p, m - 1) for p in 1..n)   if m > 1
        k_factor(n, 1) = 1

    whose solution is the stars-and-bars closed form comb(n + m - 1, m - 1),
    computed here directly (the test suite checks it against the recurrence).
    """
    if n < 1 or m < 1:
        raise ValueError("k_factor requires n >= 1 and m >= 1")
    return math.comb(n + m - 1, m - 1)


def config_space(n_pins: int, m: int, max_len: int) -> int:
    """Size of the configuration space: pin subsets of size 1..max_len, each
    paired with every kind multiset of matching size over m kinds, that is
    sum(comb(n_pins, k) * k_factor(k, m) for k in 1..max_len).

    Subset sizes above n_pins contribute nothing (their binomial is zero), so
    max_len larger than n_pins is permitted. Both factors are carried from
    one size to the next, each step a multiplication by a small integer and
    then an exact division by one:

        comb(n_pins, k)        = comb(n_pins, k - 1) * (n_pins - k + 1) // k
        comb(k + m - 1, m - 1) = comb(k + m - 2, m - 1) * (k + m - 1) // k
    """
    if n_pins < 0 or max_len < 0:
        raise ValueError("n_pins and max_len must be nonnegative")
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    subsets = multisets = 1  # comb(n_pins, 0) and comb(m - 1, m - 1)
    for k in range(1, min(n_pins, max_len) + 1):
        subsets = subsets * (n_pins - k + 1) // k
        multisets = multisets * (k + m - 1) // k
        total += subsets * multisets
    return total


def config_space_board(board) -> int:
    """Configuration count for a concrete, heterogeneous board.

    Counts pairs (nonempty pin subset, choice of one function entry per pin
    in the subset): the product of (1 + cost) over all pins, minus the empty
    selection.
    """
    product = 1
    for pin in board.pins:
        product *= 1 + pin.cost
    return product - 1
