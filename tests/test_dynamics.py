"""Evolution, TV profiles, lumping machinery, and the bound suite."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from burnside import dynamics
from burnside._rat import Rat, parse_rat, rat_str
from burnside.actions import random_tabled_action, value_spec
from burnside.dynamics import (
    MinorizationError,
    StatePartition,
    StrongLumpabilityFailure,
    bound_suite,
    bundle_profiles,
    conjugacy_lump_Q,
    cycle_count_partition,
    d_profile,
    evolve,
    fixedpoint_lump_value,
    lump,
    minorization_transfer,
    mixing_time_from_curve,
    orbit_lump_K,
    point_mass,
    stationarity_transfer_check,
    tv,
    tv_preservation_check,
)
from burnside.kernels import build_bundle
from burnside.ratmat import RationalMatrix
from burnside.sampler import make_rng

import goldens


class TestEvolveTv:
    def test_zero_steps(self, golden_value):
        mu = point_mass(4, 1)
        assert evolve(golden_value.Q, mu, 0) == mu

    def test_stationary_fixed(self, golden_value):
        pi = list(golden_value.piQ)
        for t in (1, 3):
            assert evolve(golden_value.Q, pi, t) == pi

    def test_one_step_is_kernel_row(self, golden_value):
        mu = evolve(golden_value.Q, point_mass(4, 0), 1)
        assert mu == golden_value.Q.row(0)

    def test_tv_basics(self):
        mu = [Rat(1, 2), Rat(1, 2), Rat(0)]
        assert tv(mu, mu) == 0
        assert tv(point_mass(3, 0), point_mass(3, 2)) == 1
        assert tv(mu, point_mass(3, 0)) == Rat(1, 2)

    def test_golden_row_distance(self, golden_value):
        row = golden_value.Q.row(0)
        expected = tv(row, golden_value.piQ)
        assert expected == Rat(1, 12)


class TestProfiles:
    def test_monotone_and_positive_start(self, golden_coord):
        prof = d_profile(golden_coord.Q, golden_coord.piQ, 20)
        assert prof.worst[0] > 0
        for t in range(20):
            assert prof.worst[t + 1] <= prof.worst[t]

    def test_reduced_matches_direct(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]:
            b = bundles(*key)
            profs = bundle_profiles(b, 12)
            assert profs.q.worst == d_profile(b.Q, b.piQ, 12).worst
            assert profs.k.worst == d_profile(b.K, b.piK, 12).worst

    def test_reduced_matches_all_starts(self, golden_coord):
        b = golden_coord
        reduced = bundle_profiles(b, 10)
        full_q = d_profile(b.Q, b.piQ, 10)
        full_k = d_profile(b.K, b.piK, 10)
        assert reduced.q.worst == full_q.worst
        assert reduced.k.worst == full_k.worst
        for gi in range(b.num_duals):
            assert reduced.q.curve_for(gi) == full_q.per_start[gi]
        for xi in range(b.num_states):
            assert reduced.k.curve_for(xi) == full_k.per_start[xi]

    @pytest.mark.parametrize(
        "key, longest", [(("value", 4, 4), 11), (("value", 5, 3), 26)]
    )
    def test_leg_walks_step_class_vectors(self, bundles, monkeypatch, key, longest):
        # value 4,4 has 11 stabilizer and 11 fixed-set classes (256 states,
        # 15 duals), value 5,3 has 25 and 26 (125 states, 76 duals): the K and
        # Q walks step vectors over the classes, never over states or duals
        b = bundles(*key)
        lengths, walking = [], []
        step, per_key = RationalMatrix.step, dynamics._profile_per_key

        def spy_step(self, nums, den):
            if walking:
                lengths.append(len(nums))
            return step(self, nums, den)

        def spy_per_key(key_of, *args):
            if key_of is b.state_orbit_keys or key_of is b.dual_class_keys:
                walking.append(True)
            try:
                return per_key(key_of, *args)
            finally:
                walking.clear()

        monkeypatch.setattr(RationalMatrix, "step", spy_step)
        monkeypatch.setattr(dynamics, "_profile_per_key", spy_per_key)
        dynamics.bundle_profiles(b, 4)
        assert lengths and max(lengths) <= longest

    def test_one_step_lag_both_directions(self, bundles):
        for key in [("value", 3, 2), ("coord", 2, 4), ("coord", 3, 3)]:
            b = bundles(*key)
            profs = bundle_profiles(b, 60)
            d_q, d_k = profs.q.worst, profs.k.worst
            for t in range(1, 61):
                assert d_q[t] <= d_k[t - 1]
                assert d_k[t] <= d_q[t - 1]

    def test_pointwise_transfer(self, golden_coord):
        # TV(Q^t(g,.), piQ) <= max over fixed words of TV(K^(t-1)(x,.), piK)
        b = golden_coord
        curves_q = d_profile(b.Q, b.piQ, 20).per_start
        curves_k = d_profile(b.K, b.piK, 20).per_start
        for gi in range(b.num_duals):
            for t in range(1, 21):
                bound = max(
                    curves_k[xi][t - 1] for xi in np.flatnonzero(b.A.num[gi])
                )
                assert curves_q[gi][t] <= bound

    def test_mixing_time_equivalence_three_eps(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4), ("coord", 3, 4)]:
            b = bundles(*key)
            profs = bundle_profiles(b, 60)
            for eps in (Rat(1, 4), Rat(1, 10), Rat(1, 100)):
                tq = profs.q.mixing_time(eps)
                tk = profs.k.mixing_time(eps)
                assert tq is not None and tk is not None
                assert abs(tq - tk) <= 1

    def test_mixing_time_definition_scan(self, golden_value):
        b = golden_value
        prof = d_profile(b.Q, b.piQ, 10)
        t = prof.mixing_time(Rat(1, 4))
        assert t == mixing_time_from_curve(prof.worst, Rat(1, 4)) == 2
        # the least t whose worst-case TV is at most eps
        assert prof.worst[t] <= Rat(1, 4) < min(prof.worst[:t])

    def test_single_state_chain(self):
        b = build_bundle(value_spec(2, 2))
        assert b.num_duals == 1
        assert d_profile(b.Q, b.piQ, 10).mixing_time(Rat(1, 4)) == 0


class TestLumping:
    def test_golden_fixed_point_lump(self, golden_value):
        lumped = fixedpoint_lump_value(golden_value)
        assert lumped.partition.labels == [3, 1]
        expected = RationalMatrix([[parse_rat(s) for s in row] for row in goldens.VALUE_32_QBAR])
        assert lumped.kernel == expected
        assert lumped.pi == [Rat(3, 4), Rat(1, 4)]

    def test_counterexample_witnesses(self, bundles):
        b = bundles("coord", 2, 4)
        with pytest.raises(StrongLumpabilityFailure) as exc_info:
            lump(b.Q, b.piQ, cycle_count_partition(b))
        exc = exc_info.value
        names = {b.dual_labels[exc.state_i], b.dual_labels[exc.state_j]}
        assert names == {"(1 2 3)", "(1 2)(3 4)"}
        s_i, s_j = exc.sums_over(2)
        sums = {
            b.dual_labels[exc.state_i]: str(s_i),
            b.dual_labels[exc.state_j]: str(s_j),
        }
        assert sums == goldens.COUNTEREXAMPLE_N4

    def test_orbit_lump_uniform_and_symmetric(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]:
            b = bundles(*key)
            lumped = orbit_lump_K(b)
            z = b.orbit_count
            assert lumped.pi == [Rat(1, z)] * z
            assert lumped.kernel == lumped.kernel.transpose()
            assert lumped.kernel.is_row_stochastic()

    def test_conjugacy_lump_reversible_and_stochastic(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 3), ("coord", 2, 4), ("coord", 3, 4)]:
            b = bundles(*key)
            lumped = conjugacy_lump_Q(b)
            assert lumped.kernel.is_row_stochastic()

    def test_conjugacy_lump_golden_coord(self, golden_coord):
        lumped = conjugacy_lump_Q(golden_coord)
        assert lumped.kernel.rows == 3
        # aggregate the golden 6x6 kernel by classes e | transpositions | 3-cycles
        q = golden_coord.Q
        blocks = [[0], [1, 2, 3], [4, 5]]
        for bi, rows in enumerate(blocks):
            for bj, cols in enumerate(blocks):
                agg = sum((q[rows[0], j] for j in cols), Rat(0))
                assert lumped.kernel[bi, bj] == agg

    def test_value_fixed_point_coincides_with_conjugacy_at_k3(self, golden_value):
        assert fixedpoint_lump_value(golden_value).kernel == conjugacy_lump_Q(golden_value).kernel

    def test_lumped_irreducible(self, bundles):
        # positive e-row and e-column already force irreducibility; the lumped
        # kernels must inherit it (every block reachable from every block)
        for key in [("value", 4, 3), ("coord", 2, 4)]:
            b = bundles(*key)
            for lumped in (orbit_lump_K(b), conjugacy_lump_Q(b)):
                m = lumped.kernel
                reach = [[bool(v) for v in m.row(i)] for i in range(m.rows)]
                for _ in range(m.rows):
                    for i in range(m.rows):
                        for j in range(m.rows):
                            if reach[i][j]:
                                for l in range(m.rows):
                                    if m[j, l]:
                                        reach[i][l] = True
                assert all(all(row) for row in reach)

    def test_orbit_aggregation_catches_moved_word(self, bundles):
        b = bundles("value", 4, 3)
        orbit_lump_K(b)
        # the identity fixes every word: in A's identity row, trade one of
        # them for a word of another orbit (which then counts twice)
        num = b.A.num.copy()
        keys = b.state_orbit_keys
        x0 = 0
        y = next(y for y in range(b.num_states) if keys[y] != keys[x0])
        num[b.e_index, x0] -= 1
        num[b.e_index, y] += 1
        faulty = dataclasses.replace(b, A=RationalMatrix.from_scaled(num, b.A.den))
        with pytest.raises(AssertionError, match="orbit aggregation formula mismatch"):
            orbit_lump_K(faulty)

    def test_class_aggregation_catches_moved_element(self, bundles):
        b = bundles("coord", 2, 4)
        conjugacy_lump_Q(b)
        # every dual fixes the constant word 0000: in B's row of that word,
        # trade one dual for a dual of another class (which then counts twice)
        num = b.B.num.copy()
        keys = b.dual_class_keys
        h0 = b.num_duals - 1
        h1 = next(h for h in range(b.num_duals) if keys[h] != keys[h0])
        num[0, h0] -= 1
        num[0, h1] += 1
        faulty = dataclasses.replace(b, B=RationalMatrix.from_scaled(num, b.B.den))
        with pytest.raises(AssertionError, match="class aggregation formula mismatch"):
            conjugacy_lump_Q(faulty)

    def test_partition_validation(self, golden_value):
        bad = StatePartition(labels=["a"], blocks=[[0, 1]], block_of=[0, 0])
        with pytest.raises(ValueError):
            lump(golden_value.Q, golden_value.piQ, bad)


class TestTvPreservation:
    def test_flat_row_start_value(self, bundles):
        # a word using all symbols has a flat one-step row: TV equality holds
        # for every t >= 1 under the orbit partition
        b = bundles("value", 3, 3)
        partition = StatePartition.from_keys(b.state_orbit_keys)
        start = next(
            i for i, x in enumerate(b.states) if len(set(x)) == 3
        )
        rows = tv_preservation_check(b.K, b.piK, partition, start, 8)
        for row in rows[1:]:
            assert row.equal and row.sign_constant

    def test_ncycle_start_coord(self, bundles):
        # class-invariant flat row: equality under the conjugacy partition
        b = bundles("coord", 2, 4)
        partition = StatePartition.from_keys(b.dual_class_keys)
        start = next(i for i, g in enumerate(b.duals) if g.cycle_type() == (4,))
        rows = tv_preservation_check(b.Q, b.piQ, partition, start, 8)
        for row in rows[1:]:
            assert row.equal and row.sign_constant

    def test_generic_start_contracts(self, bundles):
        b = bundles("coord", 2, 4)
        partition = StatePartition.from_keys(b.dual_class_keys)
        rows = tv_preservation_check(b.Q, b.piQ, partition, 1, 8)
        for row in rows:
            assert row.fine >= row.lumped


class TestMinorization:
    def test_universal_floor_transfer(self, bundles):
        for key in [("value", 3, 2), ("coord", 2, 3)]:
            b = bundles(*key)
            profs = bundle_profiles(b, 30)
            res = minorization_transfer(b, t_max=30, d_q=profs.q.worst)
            assert res.verified
            assert res.curve[0] == 1
            assert "verified exactly" in res.reason

    def test_golden_value_half(self, golden_value):
        res = minorization_transfer(golden_value, t_max=10)
        assert res.curve[2] == Rat(1, 2)
        assert res.curve[3] == Rat(1, 2)

    def test_hypothesis_failure_raises(self, golden_value):
        # move the mass of K(0, 1) onto K(0, 0): one entry below delta/|X|
        rows = [golden_value.K.row(i) for i in range(golden_value.K.rows)]
        rows[0][0] += rows[0][1]
        rows[0][1] = Rat(0)
        tampered = dataclasses.replace(golden_value, K=RationalMatrix(rows))
        with pytest.raises(MinorizationError, match=r"K\(0,1\) = 0"):
            minorization_transfer(tampered)


class TestBoundSuite:
    def test_all_applicable_verified_on_goldens(self, golden_value, golden_coord):
        for b in (golden_value, golden_coord):
            for res in bound_suite(b, 60):
                if res.applicable:
                    assert res.verified, res.name

    def test_primal_floor_checked_once(self, golden_value, monkeypatch):
        b = golden_value
        bounds = []
        first_below = RationalMatrix.first_below

        def spy(self, bound):
            if self is b.K:
                bounds.append(list(bound))
            return first_below(self, bound)

        monkeypatch.setattr(RationalMatrix, "first_below", spy)
        bound_suite(b, 10)
        assert bounds.count([b.doeblin_delta / b.num_states] * b.num_states) == 1

    def test_inapplicable_reasons(self, golden_value, bundles):
        names = {r.name: r for r in bound_suite(bundles("value", 2, 3), 30)}
        assert not names["paguyo_K"].applicable  # k = 2 < n = 3
        assert "k >= n" in names["paguyo_K"].reason

    def test_every_curve_names_its_chain(self, bundles):
        # mix prints each curve beside the worst-case profile of that chain
        for key in (("value", 3, 2), ("value", 3, 3), ("coord", 2, 4), ("coord", 3, 3)):
            for res in bound_suite(bundles(*key), 20):
                assert (res.curve is not None) == (res.chain in ("K", "Q")), res.name

    def test_tabled_bundle_universal_subset(self):
        rng = make_rng(808)
        b = build_bundle(random_tabled_action(rng))
        results = {r.name: r for r in bound_suite(b, 40)}
        for name in ("rosenthal_K", "rosenthal_Q", "one_step_QK", "one_step_KQ"):
            assert results[name].verified

    # value 3,2 mixes to 1/4 at t = 2 and to 1/10 at t = 3 on Q; K's curve is planted
    @pytest.mark.parametrize(
        "t_max, eps, d_k, applicable, verified",
        [
            # Q mixed by t_max - 1, K not by t_max: t_mix(K) >= 4, two past t_mix(Q)
            (3, Rat(1, 4), [Rat(1)] * 4, True, False),
            # both known, t_mix(K) = 1 against t_mix(Q) = 3
            (3, Rat(1, 10), [Rat(1)] + [Rat(1, 20)] * 3, True, False),
            (3, Rat(1, 10), [Rat(1), Rat(1), Rat(1, 20), Rat(1, 20)], True, True),
            # Q mixed only at t_max: K may mix at t_max + 1
            (2, Rat(1, 4), [Rat(1)] * 3, False, None),
        ],
    )
    def test_mixing_equivalence_on_planted_curves(
        self, golden_value, t_max, eps, d_k, applicable, verified
    ):
        profs = bundle_profiles(golden_value, t_max)
        planted = dataclasses.replace(profs, k=dataclasses.replace(profs.k, worst=d_k))
        res = bound_suite(golden_value, t_max, planted, eps_list=[eps])[-1]
        assert res.name == f"mixing_equiv_eps={eps}"
        assert (res.applicable, res.verified) == (applicable, verified), res.reason

    def test_tabled_bundle_results_pinned(self):
        # name, applicability, verdict, reason, chain and curve of every result
        b = build_bundle(random_tabled_action(make_rng(14)))
        assert (b.num_duals, b.num_states) == (10, 32)
        rows = [
            [r.name, r.applicable, r.verified, r.reason, r.chain,
             None if r.curve is None else [rat_str(v) for v in r.curve]]
            for r in bound_suite(b, 30)
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "3cbe0ec346bb9983ab097b1f5034c6cee9e51288e30305846bd19bc0923bada3"

    def test_stationarity_transfer_flag(self, golden_value, golden_coord):
        assert stationarity_transfer_check(golden_value)
        assert stationarity_transfer_check(golden_coord)


class TestMixingCeilings:
    def test_stabilizer_floor_ceiling(self, bundles):
        """t_mix(K; eps) <= ceil(M log(1/eps)) with a 1e-12 guard band on the
        float logarithm (M is the largest stabilizer order)."""
        import math

        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4)]:
            b = bundles(*key)
            m = int(b.B.den.max())  # row x of B is 0/1 over |G_x|
            profs = bundle_profiles(b, 60)
            for eps in (Rat(1, 4), Rat(1, 10)):
                ceiling = math.ceil(m * math.log(1 / float(eps)) - 1e-12)
                assert profs.k.mixing_time(eps) <= ceiling
                assert profs.q.mixing_time(eps) <= ceiling + 1


class TestHandComputedAnchors:
    """TV values worked out from the golden matrices by hand."""

    def test_golden_value_profile_values(self, golden_value):
        profs = bundle_profiles(golden_value, 2)
        # t=0: worst point mass misses the heaviest state: 1 - 1/12
        assert profs.k.worst[0] == Rat(11, 12)
        # row of the word 11: (10,1,...,1)/18 against (3,1.5,...)/18 gives 7/18;
        # flat rows give 1/6, so the max is 7/18
        assert profs.k.worst[1] == Rat(7, 18)
        # transposition row (1/2,1/2,0,0) against (3/4,1/12,1/12,1/12): 5/12
        assert profs.q.worst[1] == Rat(5, 12)

    def test_bound_comparison_can_fail(self, golden_value):
        # a fake profile sitting above the transferred curve must be rejected
        fake_d_q = [Rat(1)] * 11
        res = minorization_transfer(golden_value, t_max=10, d_q=fake_d_q)
        assert res.verified is False

    def test_true_profile_accepted(self, golden_value):
        profs = bundle_profiles(golden_value, 10)
        res = minorization_transfer(golden_value, t_max=10, d_q=profs.q.worst)
        assert res.verified is True
