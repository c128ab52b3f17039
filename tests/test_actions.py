"""The two concrete actions: fixed sets, stabilizers, orbits, sampling."""

from math import factorial

import pytest

from burnside.actions import (
    ActionSpec,
    TabledAction,
    apply_perm,
    coord_spec,
    count_orbits,
    dual_state_count,
    dual_states,
    enumerate_fixed_words,
    fixed_set_size,
    fixed_slots,
    fixed_word_indices,
    group_order,
    orbit_key,
    random_tabled_action,
    sample_fixed_word_uniform,
    sample_stabilizer_uniform,
    stabilizer_blocks,
    stabilizer_elements,
    stabilizer_size,
    value_spec,
    word_count,
    word_from_str,
    word_index,
    word_to_str,
    words,
)
import burnside.actions
from burnside.permgroup import canonical_sort_key, enumerate_sym, identity, parse_perm
from burnside.sampler import make_rng

SMALL_SPECS = [
    value_spec(2, 3),
    value_spec(3, 2),
    value_spec(3, 3),
    value_spec(4, 3),
    coord_spec(2, 3),
    coord_spec(2, 4),
    coord_spec(3, 3),
    coord_spec(3, 4),
]


class TestSpecBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            ActionSpec("other", 2, 2)
        with pytest.raises(ValueError):
            ActionSpec("value", 0, 2)

    def test_word_index_round_trip(self):
        for spec in SMALL_SPECS:
            for i, x in enumerate(words(spec)):
                assert word_index(spec, x) == i

    def test_word_text_round_trip(self):
        for spec in SMALL_SPECS:
            for x in words(spec):
                assert word_from_str(spec, word_to_str(spec, x)) == x

    def test_coordinate_words_display_zero_based(self):
        spec = coord_spec(2, 3)
        assert [word_to_str(spec, x) for x in words(spec)] == [
            "000", "001", "010", "011", "100", "101", "110", "111",
        ]

    def test_value_words_display_one_based(self):
        spec = value_spec(3, 2)
        assert word_to_str(spec, (1, 3)) == "13"

    @pytest.mark.parametrize(
        "spec", [value_spec(12, 1), coord_spec(12, 1), value_spec(12, 2)],
        ids=lambda s: f"{s.model}{s.k},{s.n}",
    )
    def test_word_text_round_trip_past_nine(self, spec):
        # a one-letter word with a symbol past 9 prints as one multi-digit token
        for x in words(spec):
            assert word_from_str(spec, word_to_str(spec, x)) == x

    def test_word_text_matches_reference(self):
        # one digit per symbol up to 9, commas past it, in both models
        def reference(spec, x):
            symbols = [a - (spec.model == "coord") for a in x]
            return ("" if max(symbols) <= 9 else ",").join(str(s) for s in symbols)

        for spec in (value_spec(9, 2), value_spec(12, 2), coord_spec(10, 2), coord_spec(11, 2)):
            for x in words(spec):
                assert word_to_str(spec, x) == reference(spec, x)
        assert word_to_str(value_spec(12, 3), (1, 12, 3)) == "1,12,3"
        assert word_to_str(coord_spec(11, 2), (10, 1)) == "90"


class TestAction:
    def test_value_action_relabels_symbols(self):
        spec = value_spec(3, 2)
        g = parse_perm("(1 2)", 3)
        assert apply_perm(spec, g, (1, 3)) == (2, 3)

    def test_coord_action_moves_positions(self):
        # (g.x)_i = x_{g^{-1}(i)}: a cycle (1 2 3) sends the letter at 1 to 2
        spec = coord_spec(2, 3)
        g = parse_perm("(1 2 3)", 3)
        assert apply_perm(spec, g, (1, 2, 2)) == (2, 1, 2)

    def test_action_axioms(self):
        for spec in (value_spec(3, 2), coord_spec(2, 3)):
            m = spec.k if spec.model == "value" else spec.n
            e = identity(m)
            for x in words(spec):
                assert apply_perm(spec, e, x) == x
            for g in enumerate_sym(m):
                for h in enumerate_sym(m):
                    for x in words(spec):
                        assert apply_perm(spec, g * h, x) == apply_perm(
                            spec, g, apply_perm(spec, h, x)
                        )

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            apply_perm(value_spec(3, 2), identity(2), (1, 1))


class TestModelForms:
    def test_stabilizer_blocks(self):
        assert stabilizer_blocks(value_spec(5, 3), (2, 4, 2)) == [[1, 3, 5]]
        assert stabilizer_blocks(value_spec(2, 2), (1, 2)) == [[]]
        assert stabilizer_blocks(coord_spec(3, 5), (3, 1, 3, 3, 1)) == [[2, 5], [1, 3, 4]]

    def test_fixed_slots(self):
        def slots(spec, g):
            slot_of, count, palette = fixed_slots(spec, g.images)
            return list(slot_of), count, list(palette)

        g = parse_perm("(1 2)", 4)
        assert slots(value_spec(4, 3), g) == ([0, 1, 2], 3, [3, 4])
        assert slots(coord_spec(3, 4), g) == ([0, 0, 1, 2], 3, [1, 2, 3])
        # a derangement fixes no symbol: an empty palette
        assert slots(value_spec(3, 2), parse_perm("(1 2 3)", 3)) == ([0, 1], 2, [])

    def test_counts_exact_up_to_the_limit(self):
        # exact at or below the limit, a lower bound above it past the limit
        for spec in SMALL_SPECS + [value_spec(6, 2), coord_spec(2, 6), coord_spec(1, 7)]:
            sizes = [(word_count, len(words(spec))), (dual_state_count, len(dual_states(spec)))]
            for count, exact in sizes:
                for limit in (0, 1, 5, 23, 24, 100, 720, 5039, 10**6):
                    got = count(spec, limit)
                    if exact <= limit:
                        assert got == exact, (count.__name__, spec, limit)
                    else:
                        assert limit < got <= exact, (count.__name__, spec, limit)

    def test_huge_counts_stop_at_the_limit(self):
        assert dual_state_count(coord_spec(1, 10**9), 2**64) == factorial(21)
        assert word_count(value_spec(3, 10**9), 2**64) == 3**65
        assert word_count(coord_spec(1, 10**9), 2**64) == 1


class TestFixedWordIndices:
    @pytest.mark.parametrize(
        "spec",
        [value_spec(3, 2), value_spec(4, 3), value_spec(5, 3),
         coord_spec(2, 3), coord_spec(2, 6), coord_spec(3, 4)],
        ids=lambda s: f"{s.model}{s.k},{s.n}",
    )
    def test_indices_match_enumeration(self, spec):
        for g in dual_states(spec):
            got = fixed_word_indices(spec, g).tolist()
            assert got == sorted(word_index(spec, x) for x in enumerate_fixed_words(spec, g))
            assert all(a < b for a, b in zip(got, got[1:]))

    def test_indices_past_int64_refused(self):
        # 2^63 words: the last index, 2^63 - 1, fits, but k^n itself does not
        with pytest.raises(ValueError, match="int64"):
            fixed_word_indices(coord_spec(2, 63), parse_perm("(1 2)", 63))
        with pytest.raises(ValueError, match="int64"):
            fixed_word_indices(value_spec(3, 40), parse_perm("(1 2)", 3))

    def test_derangement_refused(self):
        with pytest.raises(ValueError, match="derangement"):
            fixed_word_indices(value_spec(3, 2), parse_perm("(1 2 3)", 3))

    def test_indices_and_sizes_match_brute_scan(self):
        # the words g fixes under apply_perm, scanned in index order
        for spec in SMALL_SPECS + [value_spec(5, 2), coord_spec(4, 3)]:
            m = spec.k if spec.model == "value" else spec.n
            for g in enumerate_sym(m):
                expected = [
                    i for i, x in enumerate(words(spec)) if apply_perm(spec, g, x) == x
                ]
                assert fixed_set_size(spec, g) == len(expected), (spec, g)
                if expected:
                    assert fixed_word_indices(spec, g).tolist() == expected, (spec, g)
                else:
                    with pytest.raises(ValueError, match="derangement"):
                        fixed_word_indices(spec, g)

    @pytest.mark.parametrize(
        "read",
        [
            fixed_set_size,
            fixed_word_indices,
            lambda spec, g: list(enumerate_fixed_words(spec, g)),
            lambda spec, g: sample_fixed_word_uniform(spec, g, make_rng(0)),
        ],
        ids=["fixed_set_size", "fixed_word_indices", "enumerate_fixed_words",
             "sample_fixed_word_uniform"],
    )
    def test_wrong_degree_refused(self, read):
        # value 3,2 acts by S_3 and coord 2,3 by S_3: degrees 2 and 4 are refused
        for spec in (value_spec(3, 2), coord_spec(2, 3)):
            for m in (2, 4):
                with pytest.raises(ValueError, match="does not match"):
                    read(spec, identity(m))


class TestFixedSets:
    def test_paper_sizes(self):
        assert fixed_set_size(value_spec(5, 4), parse_perm("(1 2)", 5)) == 81
        assert fixed_set_size(coord_spec(3, 4), parse_perm("(1 2)(3 4)", 4)) == 9
        for spec in (value_spec(4, 3), coord_spec(4, 3)):
            m = spec.k if spec.model == "value" else spec.n
            assert fixed_set_size(spec, identity(m)) == spec.num_states

    def test_enumeration_matches_definition(self):
        for spec in SMALL_SPECS:
            m = spec.k if spec.model == "value" else spec.n
            for g in enumerate_sym(m):
                expected = [x for x in words(spec) if apply_perm(spec, g, x) == x]
                if not expected:
                    assert spec.model == "value"
                    with pytest.raises(ValueError):
                        list(enumerate_fixed_words(spec, g))
                    continue
                got = sorted(enumerate_fixed_words(spec, g))
                assert got == sorted(expected)
                assert len(got) == len(set(got)) == fixed_set_size(spec, g)

    def test_value_fixed_words_single_symbol(self):
        spec = value_spec(3, 2)
        assert list(enumerate_fixed_words(spec, parse_perm("(1 2)", 3))) == [(3, 3)]

    def test_coord_ncycle_constant_words(self):
        spec = coord_spec(3, 4)
        got = sorted(enumerate_fixed_words(spec, parse_perm("(1 2 3 4)", 4)))
        assert got == [(a,) * 4 for a in (1, 2, 3)]


class TestStabilizers:
    def test_paper_sizes(self):
        assert stabilizer_size(value_spec(5, 4), (1, 3, 3, 5)) == 2
        # histogram (1,1,2) over three symbols
        assert stabilizer_size(coord_spec(3, 4), (3, 3, 2, 1)) == 2
        assert stabilizer_size(value_spec(3, 3), (1, 2, 3)) == 1
        assert stabilizer_size(coord_spec(3, 4), (2, 2, 2, 2)) == 24

    def test_elements_match_definition(self):
        for spec in SMALL_SPECS:
            m = spec.k if spec.model == "value" else spec.n
            all_perms = list(enumerate_sym(m))
            for x in words(spec):
                expected = {g for g in all_perms if apply_perm(spec, g, x) == x}
                got = list(stabilizer_elements(spec, x))
                assert len(got) == len(set(got)) == stabilizer_size(spec, x)
                assert set(got) == expected

    def test_membership_duality(self):
        for spec in (value_spec(3, 2), coord_spec(2, 3)):
            m = spec.k if spec.model == "value" else spec.n
            for g in enumerate_sym(m):
                fixed = set()
                if fixed_set_size(spec, g) > 0:
                    fixed = set(enumerate_fixed_words(spec, g))
                for x in words(spec):
                    assert (x in fixed) == (g in set(stabilizer_elements(spec, x)))


class TestOrbits:
    def test_orbit_keys(self):
        assert orbit_key(value_spec(5, 4), (1, 3, 3, 5)) == ((1,), (2, 3), (4,))
        assert orbit_key(coord_spec(3, 4), (3, 3, 2, 1)) == (1, 1, 2)

    def test_key_constant_on_orbits(self):
        for spec in SMALL_SPECS:
            m = spec.k if spec.model == "value" else spec.n
            for x in words(spec):
                for g in enumerate_sym(m):
                    assert orbit_key(spec, apply_perm(spec, g, x)) == orbit_key(spec, x)

    def test_orbit_stabilizer(self):
        for spec in SMALL_SPECS:
            if spec.num_states > 2048:
                continue
            m = spec.k if spec.model == "value" else spec.n
            order = group_order(spec)
            for x in words(spec):
                orbit = {apply_perm(spec, g, x) for g in enumerate_sym(m)}
                assert len(orbit) * stabilizer_size(spec, x) == order

    def test_counts(self):
        assert count_orbits(value_spec(5, 4)) == 15
        assert count_orbits(coord_spec(3, 4)) == 15
        assert count_orbits(value_spec(3, 2)) == 2
        # degree 9: the Burnside side sums the cycle-data closed forms
        assert count_orbits(value_spec(9, 2)) == 2
        assert count_orbits(coord_spec(2, 9)) == 10

    def test_enumerates_sym_within_state_cap(self, monkeypatch):
        # the limit of enumerate_sym: S_8 is summed over, S_9 is not
        degrees = []

        def spy(m):
            degrees.append(m)
            return enumerate_sym(m)

        monkeypatch.setattr(burnside.actions, "enumerate_sym", spy)
        for spec in (coord_spec(2, 8), value_spec(8, 1), coord_spec(2, 9), value_spec(9, 1)):
            count_orbits(spec)
        assert degrees == [8, 8]

    def test_burnside_by_enumeration(self):
        for spec in SMALL_SPECS:
            m = spec.k if spec.model == "value" else spec.n
            keys = {orbit_key(spec, x) for x in words(spec)}
            assert count_orbits(spec) == len(keys)


class TestDualStates:
    def test_value_excludes_derangements(self):
        duals = dual_states(value_spec(3, 2))
        assert [str(g) for g in duals] == ["e", "(1 2)", "(1 3)", "(2 3)"]

    def test_coord_keeps_everything(self):
        duals = dual_states(coord_spec(2, 3))
        assert [str(g) for g in duals] == [
            "e", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)",
        ]
        assert len(dual_states(coord_spec(2, 4))) == 24

    def test_coord_yields_all_of_sym_in_order(self, monkeypatch):
        # no X_g of the coordinate model is empty, so no fixed set is sized
        sized = []
        size = burnside.actions.fixed_set_size
        monkeypatch.setattr(burnside.actions, "fixed_set_size", lambda *a: sized.append(1) or size(*a))
        for k in (1, 2, 3):
            for n in range(1, 6):
                spec = coord_spec(k, n)
                everything = sorted(enumerate_sym(n), key=canonical_sort_key)
                duals = dual_states.__wrapped__(spec)
                assert duals == tuple(g for g in everything if size(spec, g) > 0)
                assert len(duals) == factorial(n)
        assert sized == []
        dual_states.__wrapped__(value_spec(3, 2))
        assert len(sized) == 6

    def test_value_count(self):
        from burnside.combinat import subfactorial

        for k in (2, 3, 4, 5):
            duals = dual_states(value_spec(k, 2))
            assert len(duals) == factorial(k) - subfactorial(k)


class TestSampling:
    def test_full_support_forces_identity(self):
        spec = value_spec(3, 3)
        rng = make_rng(5)
        for _ in range(20):
            assert sample_stabilizer_uniform(spec, (1, 2, 3), rng).is_identity()

    def test_stabilizer_uniformity_tv(self):
        cases = [
            (value_spec(3, 2), (1, 1)),      # stabilizer of size 2
            (value_spec(4, 2), (1, 1)),      # size 6
            (coord_spec(2, 4), (1, 1, 2, 2)),  # size 4
            (coord_spec(2, 4), (1, 1, 1, 1)),  # size 24
        ]
        for spec, x in cases:
            members = list(stabilizer_elements(spec, x))
            rng = make_rng(123)
            draws = 100_000
            counts = {g: 0 for g in members}
            for _ in range(draws):
                counts[sample_stabilizer_uniform(spec, x, rng)] += 1
            tv = sum(abs(c / draws - 1 / len(members)) for c in counts.values()) / 2
            assert tv <= 0.02

    def test_fixed_word_uniformity_tv(self):
        spec = coord_spec(2, 4)
        g = parse_perm("(1 2)(3 4)", 4)
        fixed = list(enumerate_fixed_words(spec, g))
        rng = make_rng(321)
        draws = 100_000
        counts = {x: 0 for x in fixed}
        for _ in range(draws):
            counts[sample_fixed_word_uniform(spec, g, rng)] += 1
        tv = sum(abs(c / draws - 1 / len(fixed)) for c in counts.values()) / 2
        assert tv <= 0.02

    def test_stabilizer_mean_cycles_harmonic(self):
        # all-equal word in the coordinate model: the stabilizer is all of S_n,
        # whose mean cycle count is the harmonic number H_n
        spec = coord_spec(2, 5)
        rng = make_rng(777)
        draws = 100_000
        total = sum(
            sample_stabilizer_uniform(spec, (1,) * 5, rng).cycle_count()
            for _ in range(draws)
        )
        h5 = sum(1 / i for i in range(1, 6))
        assert abs(total / draws - h5) < 0.02


class TestTabledAction:
    def test_rejects_non_closed(self):
        bad = [identity(3), parse_perm("(1 2 3)", 3)]
        with pytest.raises(ValueError):
            TabledAction(bad, [1, 2, 3], lambda g, x: g(x))

    def test_natural_action(self):
        group = list(enumerate_sym(3))
        ta = TabledAction(group, [1, 2, 3], lambda g, x: g(x))
        assert ta.count_orbits() == 1
        assert len(ta.dual_indices) == 4  # derangements of S_3 have no fixed point

    def test_random_actions_are_genuine(self):
        rng = make_rng(2024)
        for _ in range(12):
            ta = random_tabled_action(rng)
            assert len(ta.states) <= 64
            assert ta.group_order <= 24
            z = ta.count_orbits()
            assert z >= 1
            # class keys refine nothing outside the group: orbit of conjugation
            keys = ta.class_keys()
            pos = {g: i for i, g in enumerate(ta.elements)}
            for i, g in enumerate(ta.elements):
                for a in ta.elements:
                    assert keys[pos[a * g * a.inverse()]] == keys[i]
