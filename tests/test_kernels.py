"""Kernel assembly: golden matrices, factorization, stationarity, floors."""

import time

import numpy as np
import pytest

from burnside._rat import Rat, parse_rat
from burnside.actions import (
    TabledAction,
    coord_spec,
    dual_states,
    enumerate_fixed_words,
    fixed_set_size,
    random_tabled_action,
    stabilizer_size,
    value_spec,
    word_index,
)
from burnside.closedforms import kernel_forms
import burnside.kernels
from burnside.kernels import (
    CapExceeded,
    build_bundle,
    build_k_matrix,
    build_q_direct,
    check_detailed_balance,
    diagonal_equals_e_column,
    doeblin_floor,
)
from burnside.ratmat import RationalMatrix
from burnside.sampler import make_rng

import goldens


def as_matrix(rows):
    return RationalMatrix([[parse_rat(s) for s in row] for row in rows])


def action_incidence(bundle, source):
    """The fixed words of each dual as state indices and |G_x| per state,
    taken from the action itself, never from the bundle's legs."""
    if isinstance(source, TabledAction):
        fixed = [set(source.fixed_lists[gi]) for gi in source.dual_indices]
        # every element fixing x is a dual state
        stab = [sum(xi in f for f in fixed) for xi in range(bundle.num_states)]
        return fixed, stab
    fixed = [
        {word_index(source, x) for x in enumerate_fixed_words(source, g)} for g in bundle.duals
    ]
    return fixed, [stabilizer_size(source, x) for x in bundle.states]


def brute_q(bundle, source):
    """Definition oracle: Q(g,h) = sum over common fixed words of 1/(|X_g||G_x|)."""
    fixed, stab = action_incidence(bundle, source)
    nd = bundle.num_duals
    rows = [[Rat(0)] * nd for _ in range(nd)]
    for gi in range(nd):
        for hi in range(nd):
            total = Rat(0)
            for xi in fixed[gi] & fixed[hi]:
                total += Rat(1, stab[xi])
            rows[gi][hi] = total / len(fixed[gi])
    return RationalMatrix(rows)


def brute_k(bundle, source):
    fixed, stab = action_incidence(bundle, source)
    ns = bundle.num_states
    rows = [[Rat(0)] * ns for _ in range(ns)]
    for xi in range(ns):
        for yi in range(ns):
            total = Rat(0)
            for f in fixed:
                if xi in f and yi in f:
                    total += Rat(1, len(f))
            rows[xi][yi] = total / stab[xi]
    return RationalMatrix(rows)


class TestGoldenValue:
    def test_labels(self, golden_value):
        assert golden_value.dual_labels == goldens.VALUE_32_DUALS
        assert golden_value.state_labels == goldens.VALUE_32_WORDS

    def test_matrices(self, golden_value):
        assert golden_value.A == as_matrix(goldens.VALUE_32_A)
        assert golden_value.B == as_matrix(goldens.VALUE_32_B)
        assert golden_value.Q == as_matrix(goldens.VALUE_32_Q)
        assert golden_value.K == as_matrix(goldens.VALUE_32_K)

    def test_stationary(self, golden_value):
        assert golden_value.piQ == [parse_rat(s) for s in goldens.VALUE_32_PI_Q]


class TestGoldenCoord:
    def test_labels(self, golden_coord):
        assert golden_coord.dual_labels == goldens.COORD_23_DUALS
        assert golden_coord.state_labels == goldens.COORD_23_WORDS

    def test_matrices(self, golden_coord):
        assert golden_coord.A == as_matrix(goldens.COORD_23_A)
        assert golden_coord.B == as_matrix(goldens.COORD_23_B)
        assert golden_coord.Q == as_matrix(goldens.COORD_23_Q)
        assert golden_coord.K == as_matrix(goldens.COORD_23_K)

    def test_stationary(self, golden_coord):
        assert golden_coord.piQ == [parse_rat(s) for s in goldens.COORD_23_PI_Q]


BUNDLE_KEYS = [
    ("value", 2, 3),
    ("value", 3, 2),
    ("value", 3, 3),
    ("value", 4, 3),
    ("coord", 2, 3),
    ("coord", 2, 4),
    ("coord", 3, 3),
    ("coord", 3, 4),
]


@pytest.mark.parametrize("key", BUNDLE_KEYS, ids=lambda k: f"{k[0]}{k[1]}_{k[2]}")
class TestEveryBundle:
    def test_legs_share_one_incidence(self, bundles, key):
        # A and B are 0/1 over |X_g| and |G_x|: B's numerators are A's transposed
        b = bundles(*key)
        assert (b.A.num == b.B.num.T).all()
        assert np.shares_memory(b.A.num, b.B.num)  # one array: B is a view, not a copy
        assert set(b.A.num.flat) <= {0, 1}
        assert b.A.den.tolist() == [fixed_set_size(b.spec, g) for g in b.duals]
        assert b.B.den.tolist() == [stabilizer_size(b.spec, x) for x in b.states]

    def test_row_stochastic(self, bundles, key):
        b = bundles(*key)
        assert b.A.is_row_stochastic()
        assert b.B.is_row_stochastic()
        assert b.Q.is_row_stochastic()
        assert b.K.is_row_stochastic()

    def test_factorization_matches_definition(self, bundles, key):
        b = bundles(*key)
        assert b.Q == brute_q(b, b.spec)
        assert b.K == brute_k(b, b.spec)

    def test_block_flip_square(self, bundles, key):
        b = bundles(*key)
        m = RationalMatrix.block_flip(b.A, b.B)
        m2 = m @ m
        nd = b.num_duals
        for i in range(m2.rows):
            for j in range(m2.cols):
                if i < nd and j < nd:
                    assert m2[i, j] == b.Q[i, j]
                elif i >= nd and j >= nd:
                    assert m2[i, j] == b.K[i - nd, j - nd]
                else:
                    assert m2[i, j] == 0

    def test_stationarity_and_transfer(self, bundles, key):
        b = bundles(*key)
        assert b.Q.vec_mul(list(b.piQ)) == list(b.piQ)
        assert b.K.vec_mul(list(b.piK)) == list(b.piK)
        assert b.B.vec_mul(list(b.piK)) == list(b.piQ)
        assert b.A.vec_mul(list(b.piQ)) == list(b.piK)

    def test_detailed_balance(self, bundles, key):
        b = bundles(*key)
        assert check_detailed_balance(b.Q, b.piQ)
        assert check_detailed_balance(b.K, b.piK)

    def test_diagonal_equals_e_column(self, bundles, key):
        assert diagonal_equals_e_column(bundles(*key))

    def test_positivity(self, bundles, key):
        b = bundles(*key)
        e = b.e_index
        for gi in range(b.num_duals):
            assert b.Q[gi, gi] > 0
            assert b.Q[gi, e] > 0
            assert b.Q[e, gi] > 0
        # K is strictly positive in both named models
        assert (b.K.num > 0).all()

    def test_resolvent_identity(self, bundles, key):
        b = bundles(*key)
        if b.num_states > 100:
            pytest.skip("kept small: dense powers")
        q_pow = RationalMatrix.identity(b.num_duals)
        k_pow = RationalMatrix.identity(b.num_states)
        for t in range(1, 6):
            q_pow = q_pow @ b.Q
            assert q_pow == b.A @ k_pow @ b.B
            k_pow = k_pow @ b.K


def q_ratio(bundle, gi: int, hi: int):
    """Q(g,h)/Q(h,g), asserted equal to |X_h|/|X_g| (row denominators of A),
    as detailed balance requires."""
    ratio = bundle.Q[gi, hi] / bundle.Q[hi, gi]
    assert ratio == Rat(int(bundle.A.den[hi]), int(bundle.A.den[gi]))
    return ratio


class TestKernelOps:
    def test_reversibility_ratio_identity(self, golden_value):
        assert q_ratio(golden_value, 1, 1) == 1

    def test_reversibility_ratio_paper_values(self, golden_value, golden_coord):
        # transposition against identity in the symbol model: |X|/|X_g| = 9
        assert q_ratio(golden_value, 1, 0) == 9
        # 3-cycle against identity in the coordinate model: 2^(3-1) = 4
        assert q_ratio(golden_coord, 4, 0) == 4

    def test_doeblin_floor_values(self, bundles):
        # value model: delta = 1/(k-1)!; coordinate model: delta = 1/n!
        assert doeblin_floor(bundles("value", 3, 2)) == Rat(1, 2)
        assert doeblin_floor(bundles("value", 4, 3)) == Rat(1, 6)
        assert doeblin_floor(bundles("coord", 2, 3)) == Rat(1, 6)
        assert doeblin_floor(bundles("coord", 2, 4)) == Rat(1, 24)

    def test_doeblin_floor_trivial_stabilizers(self):
        # {e, (1 2)(3 4)} acts freely on 4 points, so every stabilizer is
        # trivial and the floor is 1
        from burnside.actions import TabledAction
        from burnside.permgroup import identity, parse_perm

        group = [identity(4), parse_perm("(1 2)(3 4)", 4)]
        ta = TabledAction(group, [1, 2, 3, 4], lambda g, x: g(x))
        bundle = build_bundle(ta)
        assert doeblin_floor(bundle) == 1

    def test_direct_q_construction_agrees(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 3), ("coord", 3, 3)]:
            b = bundles(*key)
            assert build_q_direct(b.spec) == b.Q

    def test_perturbed_kernel_fails_detailed_balance(self, golden_value):
        b = golden_value
        data = [b.Q.row(i) for i in range(b.Q.rows)]
        bump = Rat(1, 36)
        data[0][1] += bump
        data[0][0] -= bump
        perturbed = RationalMatrix(data)
        assert not check_detailed_balance(perturbed, b.piQ)

    @pytest.mark.parametrize("scale", [1, 3**45], ids=["int64", "python-int"])
    def test_one_asymmetric_flow_pair_fails_detailed_balance(self, scale):
        # P(i, j) = S(i, j) / pi(i) with S symmetric balances pi; at 3**45 the
        # flow over one denominator leaves int64
        pi = [scale * w for w in (1, 2, 3)]
        s = [
            [Rat(2), Rat(1, 3), Rat(5)],
            [Rat(1, 3), Rat(4), Rat(1, 7)],
            [Rat(5), Rat(1, 7), Rat(6)],
        ]
        rows = [[x / w for x in row] for row, w in zip(s, pi)]
        assert check_detailed_balance(RationalMatrix(rows), pi)
        rows[2][1] += Rat(1, 11)
        assert not check_detailed_balance(RationalMatrix(rows), pi)

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(burnside.kernels, "STATE_CAP", 100)
        with pytest.raises(CapExceeded):
            build_bundle(coord_spec(2, 7))

    def test_dual_cap_checked_before_enumeration(self, monkeypatch):
        # coord 2,9 has 512 words but |G*| = 9!; value 9,1 has |G*| = 9! - !9
        def refuse(spec):
            raise AssertionError("dual states enumerated past the state cap")

        monkeypatch.setattr(burnside.kernels, "dual_states", refuse)
        for spec in (coord_spec(2, 9), value_spec(9, 1)):
            with pytest.raises(CapExceeded, match="exceeds the state cap"):
                build_bundle(spec)
            with pytest.raises(CapExceeded, match="exceeds the state cap"):
                build_k_matrix(spec)

    def test_dense_budget_checked_before_enumeration(self, monkeypatch):
        # value 2,16 has one dual but a 65536^2 K; coord 2,8 has a 40320^2 Q
        class Enumerated(Exception):
            pass

        def refuse(spec):
            raise Enumerated(spec)

        monkeypatch.setattr(burnside.kernels, "dual_states", refuse)
        for build, spec in [
            (build_bundle, value_spec(2, 16)),
            (build_k_matrix, value_spec(2, 16)),
            (build_bundle, coord_spec(2, 8)),
        ]:
            with pytest.raises(CapExceeded, match="dense entries"):
                build(spec)
        # within the budget, enumeration starts: K alone for coord 2,8, and
        # the whole bundle for coord 2,7 and coord 3,6
        for build, spec in [
            (build_k_matrix, coord_spec(2, 8)),
            (build_bundle, coord_spec(2, 7)),
            (build_bundle, coord_spec(3, 6)),
        ]:
            with pytest.raises(Enumerated):
                build(spec)

    @pytest.mark.parametrize(
        "build, spec, refused",
        [
            # over a limit: |G*| = 9! - !9 and 5000! - !5000, K of 65536^2
            # entries, Q of 40320^2
            (build_k_matrix, value_spec(9, 1), True),
            (build_bundle, value_spec(5000, 1), True),
            (build_bundle, value_spec(2, 16), True),
            (build_q_direct, coord_spec(2, 8), True),
            # within both limits
            (build_k_matrix, coord_spec(2, 8), False),
            (build_bundle, coord_spec(2, 7), False),
            (build_q_direct, value_spec(5, 4), False),
        ],
        ids=lambda v: v.__name__ if callable(v) else str(v) if isinstance(v, bool)
        else f"{v.model}{v.k},{v.n}",
    )
    def test_every_builder_checks_size_before_enumeration(self, monkeypatch, build, spec, refused):
        class Enumerated(Exception):
            pass

        def refuse(spec):
            raise Enumerated(spec)

        monkeypatch.setattr(burnside.kernels, "dual_states", refuse)
        monkeypatch.setattr(burnside.kernels, "words", refuse)
        with pytest.raises(CapExceeded if refused else Enumerated):
            build(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (coord_spec(2, 40), "|X| = k^n = 1099511627776 exceeds the state cap 65536"),
            (coord_spec(1, 20), "|G*| = 2432902008176640000 exceeds the state cap 65536"),
            (value_spec(20, 1), "|G*| = 1537887376983737879 exceeds the state cap 65536"),
            (value_spec(3, 10**7), "|X| = k^n >= 2**103 exceeds the state cap 65536"),
            (value_spec(65536, 1), "|G*| >= 2**64 exceeds the state cap 65536"),
            (coord_spec(1, 300000), "|G*| >= 2**65 exceeds the state cap 65536"),
        ],
        ids=["coord2,40", "coord1,20", "value20,1", "value3,10000000", "value65536,1",
             "coord1,300000"],
    )
    def test_huge_spec_refused_at_once(self, spec, message):
        # the sizes are counted only up to 2**64, and shown exactly below it;
        # counting 65536! - !65536, 300000! or 3^(10^7) in full took seconds
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            build_bundle(spec)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "key", [("value", 3, 3), ("value", 4, 3), ("coord", 2, 5), ("coord", 3, 4)]
    )
    def test_k_only_assembly(self, bundles, key):
        b = bundles(*key)
        assert build_k_matrix(b.spec) == b.K


class TestTabledBundles:
    def test_universal_identities_on_random_actions(self):
        rng = make_rng(99)
        for _ in range(8):
            ta = random_tabled_action(rng)
            b = build_bundle(ta)
            assert b.Q.is_row_stochastic() and b.K.is_row_stochastic()
            assert b.Q == brute_q(b, ta) and b.K == brute_k(b, ta)
            assert check_detailed_balance(b.Q, b.piQ)
            assert check_detailed_balance(b.K, b.piK)
            assert diagonal_equals_e_column(b)
            assert b.B.vec_mul(list(b.piK)) == list(b.piQ)
            assert b.A.vec_mul(list(b.piQ)) == list(b.piK)
            doeblin_floor(b)


def test_direct_q_without_legs_on_wide_state_space(bundles):
    # |X| = 625 while |G*| = 76: the closed-form route never touches A or B
    b = bundles("value", 5, 4)
    assert build_q_direct(b.spec) == b.Q


def _q_per_entry(spec):
    """Q from the first closed form, one exact rational per entry: the
    per-entry assembly that build_q_direct's overlap table replaced."""
    duals = list(dual_states(spec))
    _, entry = kernel_forms(spec)[0]
    return RationalMatrix([[entry(g, h) for h in duals] for g in duals])


# every value-model config with at most 200 dual states (k <= 5) and n <= 5
@pytest.mark.parametrize(
    "spec", [value_spec(k, n) for k in range(1, 6) for n in range(1, 6)],
    ids=lambda spec: f"value{spec.k},{spec.n}",
)
def test_direct_q_overlap_table_matches_bundle_and_per_entry_forms(spec):
    direct = build_q_direct(spec)
    assert direct == build_bundle(spec).Q
    assert direct == _q_per_entry(spec)


def test_direct_q_overlap_table_past_int64():
    # |X_g| = a^45 leaves int64: the table and Q hold Python ints
    spec = value_spec(4, 45)
    direct = build_q_direct(spec)
    assert direct.den.dtype == object
    assert direct == _q_per_entry(spec)
