"""Combinatorial primitives against independent enumeration oracles."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from burnside._rat import Rat
from burnside.combinat import (
    bell,
    compositions,
    inv_factorial_or_zero,
    kappa,
    multinomial,
    occupancy_pmf,
    rising_factorial,
    stirling2,
    subfactorial,
)


def set_partitions(items):
    """Oracle: enumerate every partition of a list of distinct items."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def count_partitions_into(n: int, r: int) -> int:
    return sum(1 for p in set_partitions(range(n)) if len(p) == r)


def count_derangements(m: int) -> int:
    return sum(
        1
        for p in itertools.permutations(range(m))
        if all(p[i] != i for i in range(m))
    )


class TestStirling:
    def test_diagonal(self):
        for n in range(8):
            assert stirling2(n, n) == 1

    def test_two_blocks_formula(self):
        # S(n,2) = 2^(n-1) - 1
        assert stirling2(4, 2) == 7
        for n in range(1, 10):
            assert stirling2(n, 2) == 2 ** (n - 1) - 1

    def test_enumeration_oracle(self):
        # frozen: S(4,3) = 6 by enumerating partitions of {1,2,3,4}
        assert count_partitions_into(4, 3) == 6
        assert stirling2(4, 3) == 6
        for n in range(7):
            for r in range(n + 2):
                assert stirling2(n, r) == count_partitions_into(n, r)

    def test_explicit_sum_past_recursion_depth(self):
        n = 3000
        for r in range(5):
            alternating = sum((-1) ** (r - j) * comb(r, j) * j**n for j in range(r + 1))
            assert stirling2(n, r) == alternating // factorial(r)
            assert alternating % factorial(r) == 0

    def test_out_of_range(self):
        assert stirling2(3, 5) == 0
        assert stirling2(0, 0) == 1
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestBell:
    def test_small(self):
        assert bell(0) == 1
        assert bell(2) == stirling2(2, 1) + stirling2(2, 2) == 2
        assert bell(4) == 15

    def test_sum_identity(self):
        for n in range(13):
            assert sum(stirling2(n, r) for r in range(n + 1)) == bell(n)

    def test_oracle(self):
        for n in range(8):
            assert bell(n) == sum(1 for _ in set_partitions(range(n)))


class TestSubfactorial:
    def test_edge_cases(self):
        assert subfactorial(0) == 1
        assert subfactorial(1) == 0
        assert subfactorial(3) == 2 == count_derangements(3)

    def test_dual_state_count(self):
        # |G*| for the symbol action at k = 3: 3! - !3 = 4
        assert factorial(3) - subfactorial(3) == 4

    def test_oracle(self):
        for m in range(8):
            assert subfactorial(m) == count_derangements(m)

    def test_alternating_sum(self):
        for m in range(11):
            alt = factorial(m) * sum(
                Fraction((-1) ** i, factorial(i)) for i in range(m + 1)
            )
            assert subfactorial(m) == alt


class TestCompositions:
    @pytest.mark.parametrize("total,parts", [(0, 3), (5, 1), (4, 3), (6, 4)])
    def test_count_and_uniqueness(self, total, parts):
        seen = list(compositions(total, parts))
        assert len(seen) == len(set(seen)) == comb(total + parts - 1, parts - 1)
        assert all(len(c) == parts and sum(c) == total for c in seen)

    def test_empty(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []


class TestKappa:
    def test_trivial(self):
        for p in range(1, 5):
            assert kappa(p, 0) == 1

    def test_single_unit(self):
        # kappa_{k-1}(1) = k - 1
        assert kappa(1, 1) == 1
        for p in range(1, 6):
            assert kappa(p, 1) == p

    def test_one_part(self):
        for s in range(6):
            assert kappa(1, s) == Rat(1, factorial(s) ** 2)

    def test_composition_oracle(self):
        for p in range(1, 5):
            for s in range(9):
                brute = sum(
                    (
                        Rat(1, prod([factorial(u) ** 2 for u in c]))
                        for c in compositions(s, p)
                    ),
                    Rat(0),
                )
                assert kappa(p, s) == brute


def prod(vals):
    out = 1
    for v in vals:
        out *= v
    return out


class TestOccupancy:
    def test_single_symbol(self):
        assert occupancy_pmf(1, 5) == {1: Rat(1)}

    def test_word_enumeration_oracle(self):
        # frozen values derived by enumerating all words
        assert occupancy_pmf(2, 2) == {1: Rat(1, 2), 2: Rat(1, 2)}
        assert occupancy_pmf(3, 2) == {1: Rat(1, 3), 2: Rat(2, 3)}
        for j in range(1, 5):
            for n in range(1, 5):
                counts: dict = {}
                for w in itertools.product(range(j), repeat=n):
                    r = len(set(w))
                    counts[r] = counts.get(r, 0) + 1
                expected = {r: Rat(c, j**n) for r, c in counts.items()}
                assert occupancy_pmf(j, n) == expected

    def test_total_mass(self):
        for j in range(1, 9):
            for n in range(1, 9):
                assert sum(occupancy_pmf(j, n).values(), Rat(0)) == 1


class TestRisingFactorial:
    def test_values(self):
        assert rising_factorial(5, 0) == 1
        assert rising_factorial(2, 3) == 24
        assert rising_factorial(3, 4) == 360

    def test_binomial_identity(self):
        for n in range(1, 11):
            for k in range(1, 11):
                assert rising_factorial(k, n) == factorial(n) * comb(n + k - 1, k - 1)


def test_inv_factorial_convention():
    assert inv_factorial_or_zero(-1) == 0
    assert inv_factorial_or_zero(-5) == 0
    assert inv_factorial_or_zero(0) == 1
    assert inv_factorial_or_zero(4) == Rat(1, 24)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (1, 2, 3)) == 60
    with pytest.raises(ValueError):
        multinomial(4, (1, 2))
