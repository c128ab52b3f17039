"""Closed forms against the brute-force kernel definition and each other."""

from math import comb, factorial

import pytest

from burnside._rat import Rat
from burnside.actions import (
    apply_perm,
    coord_spec,
    dual_states,
    enumerate_fixed_words,
    stabilizer_size,
    value_spec,
)
import burnside.closedforms
from burnside.closedforms import (
    cycle_index_Fk,
    fixed_count_classes,
    intersection_size,
    pi_coord,
    pi_value,
    pibar_value,
    q_brute,
    q_brute_row,
    q_coord_binary,
    q_coord_colorings,
    q_coord_expectation,
    q_coord_id_to_tcycle,
    q_coord_tcycle_to_e,
    q_value_coefficient,
    q_value_expectation,
    q_value_from_overlap,
    q_value_stirling,
    qbar_value,
    theta,
    uniform_floor_coord,
    value_normalizer,
    verify_uniform_floor,
)
from burnside.combinat import bell, stirling2, subfactorial
from burnside.permgroup import (
    CapExceeded,
    enumerate_sym,
    from_cycles,
    identity,
    joint_orbits,
    parse_perm,
)


def _q_brute_by_definition(spec, g, h):
    """Q(g,h) word by word: 1/(|X_g| |G_x|) summed over x in X_g with h.x = x."""
    total, count = Rat(0), 0
    for x in enumerate_fixed_words(spec, g):
        count += 1
        if apply_perm(spec, h, x) == x:
            total += Rat(1, stabilizer_size(spec, x))
    return total / count


class TestBruteRow:
    @pytest.mark.parametrize(
        "spec",
        [value_spec(3, 2), value_spec(4, 3), value_spec(5, 2), coord_spec(2, 4), coord_spec(3, 3)],
        ids=lambda spec: f"{spec.model}{spec.k},{spec.n}",
    )
    def test_row_matches_definition(self, spec):
        duals = dual_states(spec)
        for g in duals:
            want = [_q_brute_by_definition(spec, g, h) for h in duals]
            assert q_brute_row(spec, g, duals) == want
            assert [q_brute(spec, g, h) for h in duals] == want

    def test_weight_sums_exceed_int64(self):
        # |X_g| = 2^16 words with weights |G|/|G_x| up to C(60,30): their sum
        # leaves int64, and wrapped around it would give a wrong entry
        g = from_cycles(60, [range(4 * i + 1, 4 * i + 5) for i in range(14)] + [(57, 58), (59, 60)])
        assert q_brute(coord_spec(2, 60), g, g) == Rat(
            31157708190466567351,
            4868966173398390575850841926640414357652727285093666203033177349213388800000000000000,
        )

    def test_degree_mismatch_refused(self):
        with pytest.raises(ValueError, match="degree"):
            q_brute_row(value_spec(3, 2), identity(3), [identity(4)])
        with pytest.raises(ValueError, match="degree"):
            q_brute(coord_spec(2, 3), identity(3), identity(2))


class TestValueForms:
    def test_paper_single_fixed_symbol(self):
        # Q(e,h) = 1/(k^n (k-1)!) when h fixes exactly one symbol
        e = identity(3)
        h = parse_perm("(1 2)", 3)
        assert q_value_stirling(3, 2, e, h) == Rat(1, 18)

    def test_paper_diagonal_entry(self):
        e = identity(3)
        assert q_value_stirling(3, 2, e, e) == Rat(15, 18)

    def test_paper_two_fixed_symbols_display(self):
        # the worked f = 2 display evaluates to 1/3 at k=3, n=2
        assert q_value_from_overlap(3, 2, 3, 2) == Rat(1, 3)

    def test_zero_overlap(self):
        g = parse_perm("(1 2)", 4)  # fixes {3,4}
        h = parse_perm("(3 4)", 4)  # fixes {1,2}
        assert q_value_stirling(4, 2, g, h) == 0
        assert q_value_expectation(4, 2, g, h) == 0
        assert q_value_coefficient(4, 2, g, h) == 0

    def test_derangement_rejected(self):
        g = parse_perm("(1 2)", 2)
        with pytest.raises(ValueError):
            q_value_stirling(2, 2, g, identity(2))

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_all_forms_equal_brute(self, k, n):
        spec = value_spec(k, n)
        duals = dual_states(spec)
        for g in duals:
            for h in duals:
                expected = q_brute(spec, g, h)
                assert q_value_stirling(k, n, g, h) == expected
                assert q_value_expectation(k, n, g, h) == expected
                assert q_value_coefficient(k, n, g, h) == expected

    @pytest.mark.parametrize("k,n", [(3, 2), (4, 3), (5, 2)])
    def test_row_sums_one(self, k, n):
        spec = value_spec(k, n)
        duals = dual_states(spec)
        for g in duals:
            assert sum((q_value_stirling(k, n, g, h) for h in duals), Rat(0)) == 1

    def test_detailed_balance_of_forms(self):
        k, n = 4, 3
        duals = dual_states(value_spec(k, n))
        for g in duals:
            for h in duals:
                fg = len(g.fixed_points()) ** n
                fh = len(h.fixed_points()) ** n
                assert fg * q_value_stirling(k, n, g, h) == fh * q_value_stirling(k, n, h, g)

    def test_intersection_size(self):
        spec = value_spec(4, 3)
        for g in dual_states(spec):
            for h in dual_states(spec):
                j = len(g.fixed_points() & h.fixed_points())
                assert intersection_size(spec, g, h) == j**3


class TestValueStationary:
    def test_golden(self):
        assert pi_value(3, 2, identity(3)) == Rat(3, 4)

    def test_single_symbol_alphabet(self):
        assert pi_value(1, 4, identity(1)) == 1

    def test_normalizer_regimes(self):
        assert value_normalizer(5, 4) == bell(4) == 15
        assert value_normalizer(2, 5) == stirling2(5, 1) + stirling2(5, 2)

    def test_mass_ratio(self):
        # max/min stationary mass is k^n once a single-fixed-symbol state exists
        for k, n in [(3, 2), (4, 3), (5, 2)]:
            duals = dual_states(value_spec(k, n))
            masses = [pi_value(k, n, g) for g in duals]
            assert max(masses) / min(masses) == k**n

    def test_total_mass(self):
        for k, n in [(2, 3), (3, 2), (4, 3), (5, 4)]:
            duals = dual_states(value_spec(k, n))
            assert sum((pi_value(k, n, g) for g in duals), Rat(0)) == 1


class TestCycleIndex:
    def test_total_count(self):
        for k in range(1, 9):
            assert sum(cycle_index_Fk(k)) == factorial(k)

    def test_fixed_count_coefficients(self):
        for k in range(1, 21):
            coeffs = cycle_index_Fk(k)
            for s in range(k + 1):
                assert coeffs[s] == comb(k, s) * subfactorial(k - s)

    def test_power_sum_extraction(self):
        # sum_g f(g)^n recovered from the coefficient list, against enumeration
        k, n = 4, 3
        coeffs = cycle_index_Fk(k)
        total = sum(c * s**n for s, c in enumerate(coeffs))
        by_enum = sum(len(g.fixed_points()) ** n for g in enumerate_sym(k))
        assert total == by_enum == factorial(k) * sum(stirling2(n, m) for m in range(k + 1))


class TestLumpedValueForms:
    def test_golden_two_by_two(self):
        expect = {
            (3, 3): Rat(5, 6),
            (3, 1): Rat(1, 6),
            (1, 3): Rat(1, 2),
            (1, 1): Rat(1, 2),
        }
        for (r, s), v in expect.items():
            assert qbar_value(3, 2, r, s) == v

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            qbar_value(4, 2, 4, 3)
        with pytest.raises(ValueError):
            pibar_value(4, 2, 3)

    def test_block_sum_oracle(self):
        # aggregated block sums of the full kernel are the lumped entries
        k, n = 4, 3
        duals = dual_states(value_spec(k, n))
        for r in fixed_count_classes(k):
            g = next(g for g in duals if len(g.fixed_points()) == r)
            for s in fixed_count_classes(k):
                block_sum = sum(
                    (
                        q_value_stirling(k, n, g, h)
                        for h in duals
                        if len(h.fixed_points()) == s
                    ),
                    Rat(0),
                )
                assert qbar_value(k, n, r, s) == block_sum

    def test_theta_conventions(self):
        assert theta(3, 3) == 1  # !0/0! = 1
        assert theta(3, 2) == 0  # !1/1! = 0
        assert theta(5, 2) == Rat(subfactorial(3), 6)

    def test_lumped_stationary(self):
        assert pibar_value(3, 2, 3) == Rat(3, 4)
        assert pibar_value(3, 2, 1) == Rat(1, 4)
        for k, n in [(3, 2), (4, 3), (5, 4)]:
            total = sum((pibar_value(k, n, s) for s in fixed_count_classes(k)), Rat(0))
            assert total == 1

    def test_lumped_stationary_is_pushforward(self):
        k, n = 5, 4
        duals = dual_states(value_spec(k, n))
        for s in fixed_count_classes(k):
            mass = sum(
                (pi_value(k, n, g) for g in duals if len(g.fixed_points()) == s),
                Rat(0),
            )
            assert pibar_value(k, n, s) == mass

    def test_single_class_aggregation(self):
        # r = s = k: lumping the identity row over the full-fix class
        for k, n in [(3, 2), (4, 3)]:
            duals = dual_states(value_spec(k, n))
            e = duals[0]
            assert qbar_value(k, n, k, k) == q_value_stirling(k, n, e, e)


class TestCoordForms:
    def test_flat_row(self):
        g = parse_perm("(1 2 3)", 3)
        for h in enumerate_sym(3):
            assert q_coord_colorings(3, 2, g, h) == Rat(1, 6)

    def test_two_orbit_formula(self):
        # sizes (a, n-a) give k^(1-c)/n! (1 + (k-1) C(n,a)); the pair (g, g)
        # with g a (2,3)-cycle pattern has exactly two joint orbits
        n, k = 5, 3
        g = from_cycles(5, [(1, 2), (3, 4, 5)])
        blocks = joint_orbits(g, g)
        assert tuple(len(b) for b in blocks) == (2, 3)
        c = g.cycle_count()
        expected = Rat(k, k**c) / factorial(n) * (1 + (k - 1) * comb(n, 2))
        assert q_coord_colorings(n, k, g, g) == expected

    def test_paper_entry(self):
        assert q_coord_colorings(3, 2, identity(3), parse_perm("(1 2 3)", 3)) == Rat(1, 24)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_all_forms_equal_brute(self, n, k):
        spec = coord_spec(k, n)
        for g in enumerate_sym(n):
            for h in enumerate_sym(n):
                expected = q_brute(spec, g, h)
                assert q_coord_colorings(n, k, g, h) == expected
                assert q_coord_expectation(n, k, g, h) == expected
                if k == 2:
                    assert q_coord_binary(n, g, h) == expected

    def test_intersection_size_is_power_of_orbit_count(self):
        spec = coord_spec(3, 4)
        for g in enumerate_sym(4):
            for h in enumerate_sym(4):
                s = len(joint_orbits(g, h))
                assert intersection_size(spec, g, h) == 3**s

    def test_detailed_balance_of_forms(self):
        n, k = 4, 3
        for g in enumerate_sym(n):
            for h in enumerate_sym(n):
                lhs = k ** g.cycle_count() * q_coord_colorings(n, k, g, h)
                rhs = k ** h.cycle_count() * q_coord_colorings(n, k, h, g)
                assert lhs == rhs

    def test_row_sums_one(self):
        n, k = 4, 3
        for g in enumerate_sym(n):
            total = sum(
                (q_coord_colorings(n, k, g, h) for h in enumerate_sym(n)), Rat(0)
            )
            assert total == 1

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(burnside.closedforms, "STATE_CAP", 100)
        with pytest.raises(CapExceeded, match="k\\^s colorings = 6561"):
            q_coord_colorings(8, 3, identity(8), identity(8))
        # the expectation form has no such cap
        assert q_coord_expectation(8, 3, identity(8), identity(8)) > 0


class TestTCycleForms:
    def test_full_cycle(self):
        # t = n collapses to 1/(n! k^(n-1))
        for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            h = from_cycles(n, [tuple(range(1, n + 1))])
            assert q_coord_id_to_tcycle(n, k, n) == Rat(1, factorial(n) * k ** (n - 1))
            assert q_coord_colorings(n, k, identity(n), h) == q_coord_id_to_tcycle(n, k, n)

    def test_almost_full_cycle(self):
        # t = n-1 gives k^(1-n) ((k-1)/(n-1)! + 1/n!)
        for n, k in [(4, 2), (5, 3)]:
            expected = Rat(k, k**n) * (Rat(k - 1, factorial(n - 1)) + Rat(1, factorial(n)))
            assert q_coord_id_to_tcycle(n, k, n - 1) == expected

    def test_binary_closed_form(self):
        assert q_coord_id_to_tcycle(3, 2, 2) == Rat(comb(4, 3), 6 * 4) == Rat(1, 6)

    def test_t_cycle_to_identity_paper_entries(self):
        assert q_coord_tcycle_to_e(3, 2, 3) == Rat(4, 24)
        assert q_coord_tcycle_to_e(3, 2, 2) == Rat(8, 24)

    def test_matches_matrix_entries(self):
        for n in (3, 4, 5):
            for k in (2, 3):
                e = identity(n)
                for t in range(2, n + 1):
                    h = from_cycles(n, [tuple(range(1, t + 1))])
                    assert q_coord_id_to_tcycle(n, k, t) == q_coord_colorings(n, k, e, h)
                    assert q_coord_tcycle_to_e(n, k, t) == q_coord_colorings(n, k, h, e)
                    # Q(g,g) = Q(g,e)
                    assert q_coord_colorings(n, k, h, h) == q_coord_colorings(n, k, h, e)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            q_coord_id_to_tcycle(4, 2, 1)
        with pytest.raises(ValueError):
            q_coord_id_to_tcycle(4, 2, 5)


class TestCoordStationary:
    def test_golden(self):
        assert pi_coord(3, 2, identity(3)) == Rat(1, 3)

    def test_double_transposition(self):
        g = parse_perm("(1 2)(3 4)", 4)
        assert pi_coord(4, 3, g) == Rat(9, 360) == Rat(1, 40)

    def test_total_mass(self):
        for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            assert sum((pi_coord(n, k, g) for g in enumerate_sym(n)), Rat(0)) == 1


class TestUniformFloor:
    def test_ncycle_floor_attained_everywhere(self):
        g = parse_perm("(1 2 3 4)", 4)
        assert uniform_floor_coord(4, 2, g) == Rat(1, 24)
        assert verify_uniform_floor(4, 2, g)

    def test_identity_floor(self):
        assert uniform_floor_coord(3, 2, identity(3)) == Rat(1, 24)
        assert verify_uniform_floor(3, 2, identity(3))

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 2)])
    def test_floor_every_source(self, n, k):
        for g in enumerate_sym(n):
            assert verify_uniform_floor(n, k, g)


def test_pibar_rejects_derangement_class():
    with pytest.raises(ValueError):
        pibar_value(4, 3, 0)
