"""Permutation arithmetic, cycle structure, enumeration order, joint orbits."""

import itertools
import time

import pytest

from burnside.combinat import subfactorial
from burnside.permgroup import (
    Permutation,
    canonical_sort_key,
    enumerate_sym,
    from_cycles,
    identity,
    joint_orbits,
    parse_perm,
)


class TestConstruction:
    @pytest.mark.parametrize(
        "images",
        [(1, 1), (2, 2, 1), (2, 1, 2), (0, 1), (1, 0, 2), (1, 3), (3, 1, 2, 5), (-1, 1)],
        ids=str,
    )
    def test_rejects_non_permutations(self, images):
        # duplicate, zero and out-of-range images
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)

    def test_cycles_found_at_construction(self):
        g = Permutation((3, 1, 2, 4, 6, 5))
        assert g.cycles() == ((1, 3, 2), (4,), (5, 6))
        assert g.cycle_type() == (3, 2, 1) and g.cycle_count() == 3
        assert g.fixed_points() == {4} and g.moved_points() == {1, 2, 3, 5, 6}
        assert str(g) == "(1 3 2)(5 6)" and not g.is_identity()
        assert identity(3).is_identity() and str(identity(3)) == "e"
        for h in enumerate_sym(4):
            walked = set()
            for c in h.cycles():
                assert c[0] == min(c)
                for a, b in zip(c, c[1:] + c[:1]):
                    assert h(a) == b
                walked |= set(c)
            assert walked == {1, 2, 3, 4}


def compose_oracle(g, h):
    """Hand multiplication: build the image table point by point."""
    return tuple(g(h(i)) for i in range(1, g.degree + 1))


class TestCompose:
    def test_identity_laws(self):
        g = parse_perm("(1 3 2)", 4)
        e = identity(4)
        assert e * g == g
        assert g * e == g

    def test_involution(self):
        t = parse_perm("(1 2)", 3)
        assert t * t == identity(3)

    def test_table_oracle(self):
        g = parse_perm("(1 2)", 3)
        h = parse_perm("(2 3)", 3)
        assert (g * h).images == compose_oracle(g, h)
        for a in enumerate_sym(4):
            for b in enumerate_sym(4):
                assert (a * b).images == compose_oracle(a, b)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            parse_perm("(1 2)", 3) * parse_perm("(1 2)", 4)

    def test_inverse(self):
        for g in enumerate_sym(4):
            assert g * g.inverse() == identity(4)
            assert g.inverse().inverse() == g


class TestFixedPoints:
    def test_identity(self):
        assert identity(5).fixed_points() == frozenset({1, 2, 3, 4, 5})

    def test_transposition_in_s5(self):
        assert parse_perm("(1 2)", 5).fixed_points() == frozenset({3, 4, 5})

    def test_three_cycle(self):
        assert parse_perm("(1 2 3)", 4).fixed_points() == frozenset({4})

    def test_moved_plus_fixed(self):
        for g in enumerate_sym(5):
            assert len(g.fixed_points()) + len(g.moved_points()) == 5


class TestCycles:
    def test_identity_cycles(self):
        g = identity(4)
        assert g.cycle_count() == 4
        assert g.cycle_type() == (1, 1, 1, 1)

    def test_double_transposition(self):
        g = parse_perm("(1 2)(3 4)", 4)
        assert g.cycles() == ((1, 2), (3, 4))
        assert g.cycle_count() == 2

    def test_three_cycle_in_s4(self):
        g = parse_perm("(1 2 3)", 4)
        assert g.cycle_type() == (3, 1)
        assert g.cycle_count() == 2

    def test_cycles_partition_points(self):
        for g in enumerate_sym(5):
            pts = sorted(p for c in g.cycles() for p in c)
            assert pts == list(range(1, 6))


class TestConjugacy:
    def test_same_class_transpositions(self):
        assert (
            parse_perm("(1 2)", 5).cycle_type()
            == parse_perm("(4 5)", 5).cycle_type()
            == (2, 1, 1, 1)
        )

    def test_distinct_classes_same_cycle_count(self):
        a = parse_perm("(1 2 3)", 4)
        b = parse_perm("(1 2)(3 4)", 4)
        assert a.cycle_count() == b.cycle_count() == 2
        assert a.cycle_type() != b.cycle_type()

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_conjugation_invariance(self, m):
        perms = list(enumerate_sym(m))
        step = max(1, len(perms) // 24)
        for g in perms[::step]:
            for a in perms[::step]:
                assert (a * g * a.inverse()).cycle_type() == g.cycle_type()


class TestEnumeration:
    def test_counts(self):
        assert [g.images for g in enumerate_sym(1)] == [(1,)]
        assert len(set(enumerate_sym(3))) == 6
        perms4 = list(enumerate_sym(4))
        assert len(set(perms4)) == 24
        derangements = [g for g in perms4 if not g.fixed_points()]
        assert len(derangements) == 9 == subfactorial(4)

    def test_lexicographic_one_line(self):
        images = [g.images for g in enumerate_sym(4)]
        assert images == sorted(images)

    def test_cap(self):
        # 8! = 40320 <= STATE_CAP < 9!; past it, any degree is refused at
        # once, before a permutation is formed
        assert sum(1 for _ in enumerate_sym(8)) == 40320
        for m in (9, 10, 10**6):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="exceeds the state cap 65536"):
                enumerate_sym(m)
            assert time.perf_counter() - start < 0.5

    def test_canonical_order_matches_fixtures(self):
        ordered = sorted(enumerate_sym(3), key=canonical_sort_key)
        assert [str(g) for g in ordered] == [
            "e", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)",
        ]


class TestTextFormat:
    def test_round_trip(self):
        for m in (3, 4, 5):
            for g in enumerate_sym(m):
                assert parse_perm(str(g), m) == g

    def test_identity_forms(self):
        assert parse_perm("e", 4) == identity(4)
        assert str(identity(4)) == "e"

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            parse_perm("(1 2)(2 3)", 3)

    def test_from_cycles(self):
        assert from_cycles(4, [(1, 2), (3, 4)]) == parse_perm("(1 2)(3 4)", 4)


class TestJointOrbits:
    def test_identity_pair(self):
        e = identity(4)
        assert joint_orbits(e, e) == ((1,), (2,), (3,), (4,))

    def test_disjoint_transpositions(self):
        g = parse_perm("(1 2)", 5)
        h = parse_perm("(3 4)", 5)
        assert joint_orbits(g, h) == ((1, 2), (3, 4), (5,))

    def test_generating_pair(self):
        g = parse_perm("(1 2)(3 4)", 4)
        h = parse_perm("(1 2 3)", 4)
        assert joint_orbits(g, h) == ((1, 2, 3, 4),)

    def test_orbits_with_identity_are_cycles(self):
        for g in enumerate_sym(5):
            blocks = {frozenset(b) for b in joint_orbits(g, identity(5))}
            assert blocks == {frozenset(c) for c in g.cycles()}

    def test_closure_oracle(self):
        """Blocks are closed under both generators and partition the points."""
        for g, h in itertools.islice(
            itertools.product(enumerate_sym(4), repeat=2), 0, None, 7
        ):
            blocks = joint_orbits(g, h)
            pts = sorted(p for b in blocks for p in b)
            assert pts == list(range(1, 5))
            for b in blocks:
                bs = set(b)
                assert {g(p) for p in bs} == bs
                assert {h(p) for p in bs} == bs
