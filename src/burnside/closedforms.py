"""Closed-form transition formulas for both models.

Each dual-kernel entry Q(g,h) admits several equivalent forms (a Stirling
sum, an occupancy expectation, a generating-function coefficient, ...), each
computed exactly and pinned by the tests against the brute-force oracle
``q_brute_row``, which evaluates a row Q(g, .) enumerating X_g once.  The
value forms depend on g and h only through a = |Fix g| and j = |Fix g & Fix
h| (``overlaps``) and are memoized on (k, n, a, j).  On ``burnside verify
--model value --k 5 --n 3`` the oracle's 76 rows take 5.4 ms and the whole
closed-form check (all 5776 pairs) 7.5 ms of the command's 233 ms (one
pinned CPU of a 2-vCPU VM, Python 3.11, medians of 21).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Sequence

import numpy as np

from ._rat import Rat
from .actions import (
    ActionSpec,
    _check_degree,
    enumerate_fixed_words,
    fixed_set_size,
    group_order,
    orbit_count,
    stabilizer_size,
)
from .combinat import (
    inv_factorial_or_zero,
    kappa,
    multinomial,
    occupancy_pmf,
    rising_factorial,
    stirling2,
    subfactorial,
)
from .permgroup import STATE_CAP, Permutation, _refuse_above, enumerate_sym, joint_orbits
from .ratmat import rat_vector

__all__ = [
    "q_brute_row",
    "q_brute",
    "intersection_size",
    "overlaps",
    "q_value_from_overlap",
    "q_value_stirling",
    "q_value_expectation",
    "q_value_coefficient",
    "pi_value",
    "value_normalizer",
    "cycle_index_Fk",
    "theta",
    "fixed_count_classes",
    "qbar_value",
    "pibar_value",
    "q_coord_colorings",
    "q_coord_expectation",
    "q_coord_binary",
    "kernel_forms",
    "q_coord_id_to_tcycle",
    "q_coord_tcycle_to_e",
    "pi_coord",
    "uniform_floor_coord",
    "verify_uniform_floor",
]


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def q_brute_row(spec: ActionSpec, g: Permutation, hs: Sequence[Permutation]) -> list:
    """Direct evaluation of Q(g,h) for each h in hs: the sum of
    1/(|X_g| |G_x|) over the words x of X_g that h fixes.

    Deliberately enumerates words: the oracle of every closed form.  One
    product (int64 while |G| |X_g| fits) sums the weights |G|/|G_x| of the
    words each h fixes.  Refuses an X_g past the state cap, before enumerating.
    """
    _refuse_above("|X_g|", fixed_set_size(spec, g), STATE_CAP, "state cap")
    xs = list(enumerate_fixed_words(spec, g))
    order = group_order(spec)
    weights = [order // stabilizer_size(spec, x) for x in xs]
    fixed = _fixed_by(spec, hs, np.array(xs, dtype=np.min_scalar_type(spec.k)))
    den = order * len(xs)  # no sum exceeds it: every |G_x| >= 1
    sums = fixed @ np.array(weights, dtype=np.int64 if den < 2**63 else object)
    return rat_vector(sums.tolist(), den)


def _fixed_by(spec: ActionSpec, hs: Sequence[Permutation], words: np.ndarray) -> np.ndarray:
    """Which words each h of hs fixes, as a (len(hs), len(words)) bool array,
    h acting as in apply_perm (on symbols, or on positions through h^-1), one
    position of every word at a time: no array of acted words is formed."""
    for h in {h.degree: h for h in hs}.values():  # one h per degree
        _check_degree(spec, h)
    columns = words.T
    fixed = np.ones((len(hs), len(words)), dtype=bool)
    if spec.model == "value":
        table = np.array([(0,) + h.images for h in hs], dtype=words.dtype).reshape(len(hs), spec.k + 1)
        for column in columns:
            fixed &= table[:, column] == column
    else:
        sources = np.array([h.inverse().images for h in hs], dtype=np.intp).reshape(len(hs), spec.n) - 1
        for column, source in zip(columns, sources.T):
            fixed &= columns[source] == column
    return fixed


def q_brute(spec: ActionSpec, g: Permutation, h: Permutation):
    """Direct evaluation of one entry Q(g,h): the one-entry row of q_brute_row."""
    return q_brute_row(spec, g, [h])[0]


def intersection_size(spec: ActionSpec, g: Permutation, h: Permutation) -> int:
    """|X_g intersect X_h|: j^n for the value model, k^s for the coordinate model."""
    if spec.model == "value":
        j = len(g.fixed_points() & h.fixed_points())
        return j**spec.n
    return spec.k ** len(joint_orbits(g, h))


# ---------------------------------------------------------------------------
# value model: Q(g,h) with a = |Fix(g)|, j = |Fix(g) & Fix(h)|
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_value_from_overlap(k: int, n: int, a: int, j: int):
    """Stirling-sum form: a^-n * sum_r C(j,r) S(n,r) r!/(k-r)!, r <= min(j, n, k)."""
    if a <= 0:
        raise ValueError("source permutation is a derangement (no fixed symbols)")
    total = Rat(0)
    for r in range(1, min(j, n, k) + 1):
        total += Rat(comb(j, r) * stirling2(n, r) * factorial(r), factorial(k - r))
    return total / a**n


@lru_cache(maxsize=None)
def _q_value_expectation(k: int, n: int, a: int, j: int):
    """Expectation form (j/a)^n E[1/(k-R)!] over the distinct-count law on [j]^n."""
    if j == 0:
        return Rat(0)
    mean = sum(
        (p * inv_factorial_or_zero(k - r) for r, p in occupancy_pmf(j, n).items()),
        Rat(0),
    )
    return Rat(j**n, a**n) * mean


@lru_cache(maxsize=None)
def _coeff_un_zs(j: int, n: int, s: int):
    """Exact [u^n][z^s] of exp(z) (1 + z(e^u - 1))^j, by the binomial theorem
    in z: sum_i C(j,i)/(s-i)! [u^n](e^u - 1)^i."""
    power = [1] + [0] * n  # d! [u^d](e^u - 1)^i for d <= n, from i = 0
    total = Rat(0)
    for i in range(min(j, s) + 1):
        total += Rat(comb(j, i) * power[n], factorial(s - i))
        # the next power P solves P' = (i+1)(P + (e^u - 1)^i), P(0) = 0
        nxt = [0]
        for d in range(n):
            nxt.append((i + 1) * (nxt[d] + power[d]))
        power = nxt
    return total / factorial(n)


@lru_cache(maxsize=None)
def _q_value_coefficient(k: int, n: int, a: int, j: int):
    """Coefficient form n! a^-n [u^n][z^k] exp(z)(1 + z(e^u - 1))^j."""
    return Rat(factorial(n), a**n) * _coeff_un_zs(j, n, k)


def overlaps(perms: Sequence[Permutation]) -> tuple[np.ndarray, np.ndarray]:
    """a = |Fix g| for each g of perms and j = |Fix g & Fix h| for each pair,
    from the 0/1 incidence F of their fixed symbols: a = F 1 and j = F F^T."""
    images = np.array([g.images for g in perms], dtype=np.int64)
    fixed = (images == np.arange(1, images.shape[1] + 1)).astype(np.int64)
    return fixed.sum(axis=1), fixed @ fixed.T


def _overlap(g: Permutation, h: Permutation) -> tuple[int, int]:
    fixed = g.fixed_points()
    if not fixed:
        raise ValueError("source permutation is a derangement (no fixed symbols)")
    return len(fixed), len(fixed & h.fixed_points())


def q_value_stirling(k: int, n: int, g: Permutation, h: Permutation):
    return q_value_from_overlap(k, n, *_overlap(g, h))


def q_value_expectation(k: int, n: int, g: Permutation, h: Permutation):
    return _q_value_expectation(k, n, *_overlap(g, h))


def q_value_coefficient(k: int, n: int, g: Permutation, h: Permutation):
    return _q_value_coefficient(k, n, *_overlap(g, h))


def value_normalizer(k: int, n: int) -> int:
    """Z_{k,n}: the value model's orbit count, Bell(n) when k >= n."""
    return orbit_count(ActionSpec("value", n, k))


def pi_value(k: int, n: int, g: Permutation):
    """Dual stationary mass f(g)^n / (k! Z_{k,n})."""
    f = len(g.fixed_points())
    if f == 0:
        raise ValueError("derangements are not dual states in the value model")
    return Rat(f**n, factorial(k) * value_normalizer(k, n))


def cycle_index_Fk(k: int) -> list[int]:
    """Coefficients of sum_g x^{f(g)} over S_k as a list indexed by the power.

    Closed form k! sum_{m<=k} (x-1)^m / m!; coefficient of x^s comes out to
    C(k,s) * !(k-s), the number of permutations with exactly s fixed symbols.
    """
    coeffs = [0] * (k + 1)
    fact_k = factorial(k)
    for m in range(k + 1):
        scale = fact_k // factorial(m)  # k!/m! multiplies (x-1)^m
        for s in range(m + 1):
            coeffs[s] += scale * comb(m, s) * (-1) ** (m - s)
    return coeffs


def theta(k: int, s: int):
    """Derangement probability !(k-s)/(k-s)! on the k-s unfixed symbols."""
    if not 0 <= s <= k:
        raise ValueError("need 0 <= s <= k")
    return Rat(subfactorial(k - s), factorial(k - s))


def fixed_count_classes(k: int) -> list[int]:
    """Realizable fixed-symbol counts of non-derangements, descending:
    k, k-2, k-3, ..., 1 (count k-1 is impossible)."""
    return [k] + list(range(k - 2, 0, -1))


def qbar_value(k: int, n: int, r: int, s: int):
    """Fixed-point-lumped kernel entry, by four equivalent routes.

    The Stirling, expectation and coefficient routes are theta_{k,s} times the
    value-model forms at (s, n, r, r); the two-stage product (distinct
    symbols, then a derangement of the rest) is derived independently.  All
    four are evaluated and must agree.
    """
    classes = fixed_count_classes(k)
    if r not in classes or s not in classes:
        if s == k - 1 or r == k - 1:
            raise ValueError(f"class with {k - 1} fixed symbols is empty")
        raise ValueError(f"classes must lie in {classes}")
    th = theta(k, s)
    single = th * q_value_from_overlap(s, n, r, r)
    expectation = th * _q_value_expectation(s, n, r, r)
    two_stage = sum(
        (
            p * Rat(comb(k - m, s - m) * subfactorial(k - s), factorial(k - m))
            for m, p in occupancy_pmf(r, n).items()
            if s >= m
        ),
        Rat(0),
    )
    coefficient = th * _q_value_coefficient(s, n, r, r)

    if not single == expectation == two_stage == coefficient:
        raise AssertionError(
            f"lumped closed forms disagree at (k={k}, n={n}, r={r}, s={s})"
        )
    return single


def pibar_value(k: int, n: int, s: int):
    """Lumped stationary mass theta_{k,s} s^n / (Z_{k,n} s!)."""
    if s not in fixed_count_classes(k):
        if s == k - 1:
            raise ValueError(f"class with {k - 1} fixed symbols is empty")
        raise ValueError(f"fixed-symbol count must lie in {fixed_count_classes(k)}")
    return theta(k, s) * Rat(s**n, factorial(s)) / value_normalizer(k, n)


# ---------------------------------------------------------------------------
# coordinate model: Q(g,h) via joint orbits of <g,h>
# ---------------------------------------------------------------------------

def _orbit_sizes(g: Permutation, h: Permutation) -> tuple[int, ...]:
    return tuple(len(b) for b in joint_orbits(g, h))


def q_coord_colorings(n: int, k: int, g: Permutation, h: Permutation):
    """Colorings sum k^-c(g) * sum_phi prod_a 1/M_a(phi)! over orbit colorings;
    refuses more than STATE_CAP colorings.  The s joint orbits of <g, h>
    refine the c(g) cycles of g, so k^s <= k^c(g) = |X_g|: this refuses only
    where q_brute refuses too."""
    sizes = _orbit_sizes(g, h)
    s = len(sizes)
    _refuse_above("k^s colorings", k**s, STATE_CAP, "state cap")
    # integer accumulation over a common denominator n! k^c
    total = 0
    for phi in itertools.product(range(k), repeat=s):
        masses = [0] * k
        for b, color in zip(sizes, phi):
            masses[color] += b
        total += multinomial(n, masses)
    return Rat(total, factorial(n) * k ** g.cycle_count())


def q_coord_expectation(n: int, k: int, g: Permutation, h: Permutation):
    """Expectation form k^{s-c(g)} E[prod_a 1/M_a!], by exact dynamic
    programming over the orbit-size convolution (no coloring enumeration)."""
    sizes = _orbit_sizes(g, h)
    dp: dict[tuple[int, ...], int] = {(0,) * k: 1}
    for b in sizes:
        nxt: dict[tuple[int, ...], int] = {}
        for masses, cnt in dp.items():
            for a in range(k):
                key = masses[:a] + (masses[a] + b,) + masses[a + 1 :]
                nxt[key] = nxt.get(key, 0) + cnt
        dp = nxt
    total = sum(cnt * multinomial(n, masses) for masses, cnt in dp.items())
    return Rat(total, factorial(n) * k ** g.cycle_count())


def q_coord_binary(n: int, g: Permutation, h: Permutation):
    """Binary closed forms: subset sum and the [w^n](1+w)^n prod(1+w^{b_j})
    coefficient; both are computed and must agree."""
    sizes = _orbit_sizes(g, h)
    c = g.cycle_count()

    subset_total = 0
    for bits in itertools.product((0, 1), repeat=len(sizes)):
        weight = sum(b for b, bit in zip(sizes, bits) if bit)
        subset_total += comb(n, weight)
    subset = Rat(subset_total, factorial(n) * 2**c)

    poly = [0] * (n + 1)
    for i in range(n + 1):
        poly[i] = comb(n, i)
    for b in sizes:
        nxt = list(poly)
        for i in range(n + 1 - b):
            nxt[i + b] += poly[i]
        poly = nxt
    coefficient = Rat(poly[n], factorial(n) * 2**c)

    if subset != coefficient:
        raise AssertionError(f"binary closed forms disagree for sizes {sizes}")
    return subset


def kernel_forms(spec: ActionSpec) -> list[tuple[str, Callable]]:
    """Every closed form of Q(g, h) for the model of spec, as (name, f(g, h));
    build_q_direct assembles Q from the first.  The binary form needs k = 2."""
    n, k = spec.n, spec.k
    if spec.model == "value":
        return [
            ("stirling_sum", lambda g, h: q_value_stirling(k, n, g, h)),
            ("expectation", lambda g, h: q_value_expectation(k, n, g, h)),
            ("coefficient", lambda g, h: q_value_coefficient(k, n, g, h)),
        ]
    forms = [
        ("colorings_sum", lambda g, h: q_coord_colorings(n, k, g, h)),
        ("expectation", lambda g, h: q_coord_expectation(n, k, g, h)),
    ]
    if k == 2:
        forms.append(("binary", lambda g, h: q_coord_binary(n, g, h)))
    return forms


def q_coord_id_to_tcycle(n: int, k: int, t: int):
    """Q(e, h) for h a single t-cycle, via both kappa summations."""
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    m = n - t
    lead = Rat(k, k**n)
    form_a = lead * sum(
        (
            comb(m, j) * Rat(factorial(m - j), factorial(t + j)) * kappa(k - 1, m - j)
            for j in range(m + 1)
        ),
        Rat(0),
    )
    form_b = lead * sum(
        (
            comb(m, r) * Rat(factorial(r), factorial(n - r)) * kappa(k - 1, r)
            for r in range(m + 1)
        ),
        Rat(0),
    )
    if form_a != form_b:
        raise AssertionError(f"kappa forms disagree at (n={n}, k={k}, t={t})")
    if k == 2:
        binary = Rat(comb(2 * n - t, n), factorial(n) * 2 ** (n - 1))
        if form_a != binary:
            raise AssertionError(f"binary t-cycle closed form disagrees at (n={n}, t={t})")
    return form_a


def q_coord_tcycle_to_e(n: int, k: int, t: int):
    """Q(g, e) = Q(g, g) for g a single t-cycle: k^{t-1} Q(e, g)."""
    return k ** (t - 1) * q_coord_id_to_tcycle(n, k, t)


def pi_coord(n: int, k: int, g: Permutation):
    """Dual stationary mass k^{c(g)} / (n! C(n+k-1, k-1)) = k^{c(g)} / k^(n rising)."""
    denom = factorial(n) * comb(n + k - 1, k - 1)
    if denom != rising_factorial(k, n):
        raise AssertionError("rising-factorial normalizer mismatch")
    return Rat(k ** g.cycle_count(), denom)


def uniform_floor_coord(n: int, k: int, g: Permutation):
    """Pointwise floor k^{1-c(g)} / n! for every row entry of the dual kernel."""
    return Rat(k, k ** g.cycle_count() * factorial(n))


def verify_uniform_floor(n: int, k: int, g: Permutation) -> bool:
    """Check the floor over every h in S_n, with equality exactly when
    <g,h> is transitive."""
    floor = uniform_floor_coord(n, k, g)
    for h in enumerate_sym(n):
        q = q_coord_colorings(n, k, g, h)
        if q < floor:
            raise AssertionError(f"floor violated at h = {h}")
        transitive = len(joint_orbits(g, h)) == 1
        if (q == floor) != transitive:
            raise AssertionError(f"floor equality/transitivity mismatch at h = {h}")
    return True
