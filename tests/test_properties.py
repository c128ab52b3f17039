"""Property tests: the integer paths of ratmat, kernels and dynamics against
plain Fraction references kept in this file.

Bundles come from random tabled actions (one seed per example); the
arbitrary matrices carry denominators far beyond int64, so both the int64
and the Python-int branches run.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside._rat import Rat
from burnside.actions import random_tabled_action
from burnside.dynamics import (
    LumpedPair,
    StatePartition,
    StrongLumpabilityFailure,
    bundle_profiles,
    cycle_count_partition,
    d_profile,
    lump,
)
from burnside.kernels import build_bundle, check_detailed_balance
from burnside.ratmat import RationalMatrix
from burnside.sampler import make_rng
from burnside.spectra import char_poly

SETTINGS = settings(max_examples=25, deadline=None)

seeds = st.integers(0, 2**32 - 1)
small = st.fractions(min_value=-3, max_value=3, max_denominator=60)
huge = st.fractions(min_value=-3, max_value=3, max_denominator=2**90)


def tabled_bundle(seed: int, max_states: int = 64):
    return build_bundle(random_tabled_action(make_rng(seed), max_states=max_states))


def entries(m: RationalMatrix) -> list[list[Fraction]]:
    return [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]


# --- Fraction references -----------------------------------------------------

def ref_vec_mul(p: list, v: list) -> list:
    out = [Fraction(0)] * len(p[0])
    for a, row in zip(v, p):
        for j, b in enumerate(row):
            out[j] += a * b
    return out


def ref_is_row_stochastic(p: list) -> bool:
    return all(all(v >= 0 for v in row) and sum(row) == 1 for row in p)


def ref_detailed_balance(p: list, pi: list) -> bool:
    n = len(p)
    return all(pi[i] * p[i][j] == pi[j] * p[j][i] for i in range(n) for j in range(n))


def ref_lump(p: list, partition: StatePartition):
    """Block sums of every row; the first (rep, other) pair of a block whose
    sums differ, with the differing (label, sum_rep, sum_other), else None."""
    sums = []
    for row in p:
        s = [Fraction(0)] * partition.num_blocks
        for j, v in enumerate(row):
            s[partition.block_of[j]] += v
        sums.append(s)
    for block in partition.blocks:
        rep = block[0]
        for other in block[1:]:
            if sums[other] != sums[rep]:
                mismatches = [
                    (partition.labels[b], sums[rep][b], sums[other][b])
                    for b in range(partition.num_blocks)
                    if sums[rep][b] != sums[other][b]
                ]
                return sums, (rep, other, mismatches)
    return sums, None


def ref_tv(mu: list, nu: list) -> Fraction:
    return sum((abs(a - b) for a, b in zip(mu, nu)), Fraction(0)) / 2


def ref_profile(p: list, pi: list, t_max: int) -> list:
    n = len(p)
    curves = []
    for x in range(n):
        mu = [Fraction(int(i == x)) for i in range(n)]
        curve = [ref_tv(mu, pi)]
        for _ in range(t_max):
            mu = ref_vec_mul(p, mu)
            curve.append(ref_tv(mu, pi))
        curves.append(curve)
    return curves


# --- the integer paths on random bundles -------------------------------------

@SETTINGS
@given(seed=seeds, data=st.data())
def test_vec_mul_matches_reference(seed, data):
    b = tabled_bundle(seed)
    for m in (b.A, b.B, b.Q, b.K):
        v = data.draw(st.lists(small, min_size=m.rows, max_size=m.rows))
        assert m.vec_mul(v) == ref_vec_mul(entries(m), v)


@SETTINGS
@given(seed=seeds, i=st.integers(0), j=st.integers(0), delta=small)
def test_is_row_stochastic_matches_reference(seed, i, j, delta):
    b = tabled_bundle(seed)
    for m in (b.A, b.B, b.Q, b.K):
        rows = entries(m)
        assert m.is_row_stochastic() and ref_is_row_stochastic(rows)
        rows[i % m.rows][j % m.cols] += delta
        assert RationalMatrix(rows).is_row_stochastic() == ref_is_row_stochastic(rows)


@SETTINGS
@given(seed=seeds, i=st.integers(0), j=st.integers(0), delta=small)
def test_detailed_balance_matches_reference(seed, i, j, delta):
    b = tabled_bundle(seed)
    for m, pi in ((b.Q, b.piQ), (b.K, b.piK)):
        rows = entries(m)
        assert check_detailed_balance(m, pi) and ref_detailed_balance(rows, pi)
        i, j = i % m.rows, j % m.rows
        rows[i][j] += delta
        rows[i][i] -= delta
        perturbed = RationalMatrix(rows)
        assert check_detailed_balance(perturbed, pi) == ref_detailed_balance(rows, pi)


def _check_lump(p: RationalMatrix, pi: list, partition: StatePartition) -> None:
    sums, failure = ref_lump(entries(p), partition)
    if failure is None:
        bar_p, bar_pi = lump(p, pi, partition)
        assert entries(bar_p) == [sums[block[0]] for block in partition.blocks]
        assert bar_pi == [sum(pi[i] for i in block) for block in partition.blocks]
    else:
        with pytest.raises(StrongLumpabilityFailure) as exc_info:
            lump(p, pi, partition)
        exc = exc_info.value
        assert (exc.state_i, exc.state_j, exc.mismatches) == failure
        assert all(type(v) is type(Rat(0)) for _, si, sj in exc.mismatches for v in (si, sj))


@SETTINGS
@given(seed=seeds)
def test_lump_matches_reference(seed):
    b = tabled_bundle(seed)
    _check_lump(b.Q, b.piQ, cycle_count_partition(b))
    _check_lump(b.Q, b.piQ, StatePartition.from_keys(b.dual_class_keys))
    _check_lump(b.K, b.piK, StatePartition.from_keys(b.state_orbit_keys))
    _check_lump(b.K, b.piK, StatePartition.from_keys([x % 2 for x in range(b.num_states)]))


@SETTINGS
@given(seed=seeds)
def test_d_profile_matches_reference(seed):
    b = tabled_bundle(seed, max_states=24)
    for m, pi in ((b.Q, b.piQ), (b.K, b.piK)):
        prof = d_profile(m, pi, 5)
        curves = ref_profile(entries(m), pi, 5)
        assert prof.per_start == curves
        assert prof.worst == [max(c[t] for c in curves) for t in range(6)]


@SETTINGS
@given(seed=seeds)
def test_bundle_profiles_match_reference(seed):
    # random stabilizer lattices: the walks on the legs lumped by repeated
    # rows against the state-level Fraction walk of every start
    b = tabled_bundle(seed, max_states=24)
    profs = bundle_profiles(b, 5)
    assert profs.k.per_start == ref_profile(entries(b.K), b.piK, 5)
    assert profs.q.per_start == ref_profile(entries(b.Q), b.piQ, 5)


def _check_lumped_pairs(b) -> None:
    """The orbit/class pair and the pair of classes of equal leg rows: K_bar
    and Q_bar, with their laws, are lump of the full kernels on the pair's
    partitions, and the larger char poly is the smaller times x^(difference
    of dimensions), so the two share their nonzero spectrum."""
    rows = LumpedPair(
        b,
        StatePartition.from_keys([tuple(row) for row in entries(b.B)]),
        StatePartition.from_keys([tuple(row) for row in entries(b.A)]),
    )
    for pair in (b.lumped, rows):
        assert (pair.K_bar, pair.piK_bar) == lump(b.K, b.piK, pair.states)
        assert (pair.Q_bar, pair.piQ_bar) == lump(b.Q, b.piQ, pair.duals)
        polys = sorted((char_poly(pair.K_bar), char_poly(pair.Q_bar)), key=lambda c: c.degree)
        assert polys[1] == polys[0].shifted(polys[1].degree - polys[0].degree)


@SETTINGS
@given(seed=seeds)
def test_lumped_pairs_match_lump(seed):
    _check_lumped_pairs(tabled_bundle(seed))


@pytest.mark.parametrize("config", [
    ("value", 3, 2), ("value", 3, 3), ("value", 4, 3), ("value", 4, 4), ("value", 5, 2),
    ("value", 5, 3), ("value", 5, 4), ("coord", 2, 3), ("coord", 2, 4), ("coord", 2, 5),
    ("coord", 3, 3), ("coord", 3, 4),
])
def test_lumped_pairs_match_lump_on_models(bundles, config):
    _check_lumped_pairs(bundles(*config))


# --- arbitrary rational matrices, numerators and denominators beyond int64 ----

def square(n: int, values=huge):
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 6))
def test_vec_mul_and_eq_beyond_int64(data, n):
    rows = data.draw(square(n))
    v = data.draw(st.lists(huge, min_size=n, max_size=n))
    m = RationalMatrix(rows)
    assert m.vec_mul(v) == ref_vec_mul(rows, v)
    assert entries(m) == rows
    assert m == RationalMatrix(rows)
    assert m == m.transpose().transpose()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    changed = [list(row) for row in rows]
    changed[i][j] += Fraction(1, 2**70)
    assert m != RationalMatrix(changed)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 6))
def test_detailed_balance_beyond_int64(data, n):
    # P(i, j) = S(i, j) / pi(i) is reversible for every symmetric S
    positive = st.fractions(min_value=Fraction(1, 2**80), max_value=1, max_denominator=2**80)
    pi = data.draw(st.lists(positive, min_size=n, max_size=n))
    upper = data.draw(square(n))
    sym = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    rows = [[sym[i][j] / pi[i] for j in range(n)] for i in range(n)]
    assert check_detailed_balance(RationalMatrix(rows), pi)
    if n > 1:
        rows[0][1] += Fraction(1, 3**50)
        assert not check_detailed_balance(RationalMatrix(rows), pi)
        assert not ref_detailed_balance(rows, pi)


def test_vec_mul_eq_detailed_balance_fixed_beyond_int64():
    big2, big3 = 2**40, 3**30
    rows = [[Rat(1, big2), Rat(-3, big2 // 2)], [Rat(big2 - 1, big2), Rat(1, big3)]]
    m = RationalMatrix(rows)
    for v in ([Rat(1, big3), Rat(big3 - 1, big3)], [Rat(-5, big2 * big3), Rat(7, 3)]):
        assert m.vec_mul(v) == ref_vec_mul(rows, v)
    # every term fits int64, their column sum does not
    assert RationalMatrix([[Rat(1)]] * 4).vec_mul([Rat(2**62)] * 4) == [Rat(2**64)]
    assert m == RationalMatrix([[Rat(2, 2 * big2), Rat(-6, big2)], rows[1]])
    assert m != RationalMatrix([rows[0], [Rat(big2 - 1, big2), Rat(1, big3 + 1)]])
    # pi = (1/big2, 1/big3): flows pi(i) P(i, j) match off the diagonal
    pi = [Rat(1, big2), Rat(1, big3)]
    sym = Rat(5, big2 * big3)
    p = RationalMatrix([[Rat(1, 7), sym / pi[0]], [sym / pi[1], Rat(2, big3)]])
    assert check_detailed_balance(p, pi) and ref_detailed_balance(entries(p), pi)
    bumped = sym / pi[1] + Rat(1, big2 * big3)
    q = RationalMatrix([[Rat(1, 7), sym / pi[0]], [bumped, Rat(2, big3)]])
    assert not check_detailed_balance(q, pi) and not ref_detailed_balance(entries(q), pi)
