"""Exact integer and rational combinatorial primitives.

All values are computed with arbitrary-precision integers; no floating point
enters this module.  Stirling numbers use the triangle recurrence, and
derangement counts use the two-term recurrence, so no alternating sums occur.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterator

from ._rat import Rat

__all__ = [
    "stirling2",
    "bell",
    "subfactorial",
    "rising_factorial",
    "inv_factorial_or_zero",
    "compositions",
    "kappa",
    "occupancy_pmf",
    "multinomial",
]


@lru_cache(maxsize=None)
def stirling2(n: int, r: int) -> int:
    """Number of partitions of an n-element set into exactly r blocks."""
    if n < 0 or r < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if r > n:
        return 0
    row = [1] + [0] * r  # S(0, j) for j <= r
    for _ in range(n):  # S(m, j) = j S(m-1, j) + S(m-1, j-1)
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, r + 1)]
    return row[r]


def bell(n: int) -> int:
    """Total number of set partitions of an n-element set."""
    return sum(stirling2(n, r) for r in range(n + 1))


@lru_cache(maxsize=None)
def subfactorial(m: int) -> int:
    """Number of derangements of m items (!0 = 1, !1 = 0)."""
    if m < 0:
        raise ValueError("subfactorial needs a nonnegative argument")
    count = 1
    for i in range(1, m + 1):
        count = i * count + (-1) ** i  # !i = i !(i-1) + (-1)^i
    return count


def rising_factorial(k: int, n: int) -> int:
    """Product k(k+1)...(k+n-1); 1 when n = 0."""
    out = 1
    for i in range(n):
        out *= k + i
    return out


def inv_factorial_or_zero(t: int):
    """Exact 1/t!, extended by the convention 1/t! = 0 for t < 0."""
    if t < 0:
        return Rat(0)
    return Rat(1, factorial(t))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every sequence of `parts` nonnegative integers summing to `total`."""
    if parts < 0:
        raise ValueError("parts must be nonnegative")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def kappa(p: int, s: int):
    """Sum of prod 1/(u_i!)^2 over compositions u_1+...+u_p = s.

    Computed by convolution on p.  kappa(0, 0) = 1 and kappa(0, s>0) = 0, so
    callers with a degenerate one-letter alphabet stay total.
    """
    if p < 0 or s < 0:
        raise ValueError("kappa needs nonnegative arguments")
    if p == 0:
        return Rat(1) if s == 0 else Rat(0)
    if p == 1:
        return Rat(1, factorial(s) ** 2)
    return sum((kappa(p - 1, s - u) / factorial(u) ** 2 for u in range(s + 1)), Rat(0))


def occupancy_pmf(j: int, n: int) -> dict:
    """Law of the number of distinct symbols in a uniform word of [j]^n.

    Returns {r: P(R = r)} with exact rational masses summing to 1.
    """
    if j < 1 or n < 1:
        raise ValueError("occupancy_pmf needs j >= 1 and n >= 1")
    total = j**n
    pmf = {}
    for r in range(1, min(j, n) + 1):
        count = comb(j, r) * stirling2(n, r) * factorial(r)
        if count:
            pmf[r] = Rat(count, total)
    return pmf


def multinomial(n: int, parts) -> int:
    """Multinomial coefficient n! / prod(parts!); parts must sum to n."""
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    out = factorial(n)
    for m in parts:
        out //= factorial(m)
    return out
