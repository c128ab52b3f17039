"""Characteristic polynomials, shared spectra, intertwining, gap reports."""

import hashlib
import math

import pytest

from burnside._rat import Rat, rat_str
from burnside.actions import dual_states, fixed_set_size, random_tabled_action, value_spec
from burnside.kernels import build_bundle, build_q_direct
from burnside.ratmat import RationalMatrix
from burnside.sampler import make_rng
import burnside.spectra
from burnside.spectra import (
    CharPoly,
    SpectrumReport,
    char_poly,
    dz_check,
    dz_eigenvalues,
    eigen_nullspace,
    extract_rational_roots,
    intertwine_check,
    spectrum_equal_report,
)

import goldens


def charpoly_oracle(m: RationalMatrix):
    """Cofactor-expansion determinant of xI - M over polynomial coefficients."""

    def poly_mul(a, b):
        out = [Rat(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        a = list(a) + [Rat(0)] * (n - len(a))
        b = list(b) + [Rat(0)] * (n - len(b))
        return [x + y for x, y in zip(a, b)]

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        out = [Rat(0)]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            out = poly_add(out, term)
        return out

    n = m.rows
    entries = [
        [
            [-m[i, j], Rat(1)] if i == j else [-m[i, j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = det(entries)
    return coeffs + [Rat(0)] * (n + 1 - len(coeffs))


def nullspace_oracle(m: RationalMatrix, lam) -> tuple[list, list]:
    """Rational Gauss-Jordan on M - lam I: its pivot columns and the basis of
    ker(M - lam I) read off the reduced row echelon form."""
    n = m.rows
    rows = [[m[i, j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = []
    for col in range(n):
        top = len(pivots)
        piv = next((r for r in range(top, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for r in range(n):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Rat(0)] * n
        v[fc] = Rat(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return pivots, basis


def deflate_oracle(coeffs: list, root) -> list:
    """Rational synthetic division of coeffs (ascending) by x - root; the
    remainder must vanish."""
    out = [Rat(0)] * (len(coeffs) - 1)
    acc = Rat(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc * root
        out[i - 1] = acc
    assert coeffs[0] + acc * root == 0
    return out


def horner_oracle(coeffs: list, x):
    acc = Rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_from_rats(coeffs: list) -> CharPoly:
    d = math.lcm(*(c.denominator for c in coeffs))
    return CharPoly([int(c * d) for c in coeffs], d)


def int_poly_power(coeffs: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        prod = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                prod[i + j] += a * b
        out = prod
    return out


# Matrices whose Hessenberg reduction takes the rarer branches.
ELIMINATION_CASES = {
    # column 0 has a zero subdiagonal entry and a nonzero below it: a swap
    "pivot_swap": [[1, 2, 3, 0], [0, 1, 1, 2], [0, 0, 2, 1], [5, 0, 2, 1]],
    # nothing below the subdiagonal in any column: every step is skipped
    "zero_subdiagonal": [[1, 2, 3, 4], [0, 4, 5, 6], [0, 0, 6, 7], [0, 0, 0, 8]],
    # column 0 already cleared, so step 0 finds no pivot and step 1 runs
    "zero_column": [[1, 2, 3, 4], [0, 4, 5, 6], [0, 1, 6, 7], [0, 3, 0, 8]],
    "negative_pivot": [[1, 2, 3, 1], [-2, 1, 1, 0], [3, 1, 0, 2], [-1, 0, 2, 1]],
    # row 2 is twice row 1, so clearing column 0 leaves it zero
    "row_becomes_zero": [[1, 0, 0, 0], [1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]],
    "fractions_and_signs": [
        [Rat(1, 2), Rat(-1, 3), 0, Rat(5, 6), 0],
        [Rat(-3, 4), 0, Rat(2, 5), 0, 1],
        [Rat(3, 8), Rat(1, 7), 0, 0, Rat(-2, 3)],
        [0, Rat(-1, 6), Rat(4, 9), Rat(1, 2), 0],
        [Rat(9, 10), 0, 0, Rat(-1, 5), Rat(1, 4)],
    ],
}


def _rows(m: RationalMatrix) -> list:
    """The entries of m as lists of exact rationals, one per row."""
    return [m.row(i) for i in range(m.rows)]


def _random_matrix(rng, n: int, zero_share: float) -> RationalMatrix:
    def entry():
        if rng.random() < zero_share:
            return Rat(0)
        return Rat(int(rng.integers(-4, 5)), int(rng.integers(1, 7)))

    return RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])


class TestCharPoly:
    def test_identity(self):
        cp = char_poly(RationalMatrix.identity(2))
        assert cp.coeffs == [Rat(1), Rat(-2), Rat(1)]

    def test_cofactor_oracle(self):
        rng = make_rng(31)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            m = _random_matrix(rng, n, (0.0, 0.4, 0.7, 0.9)[trial % 4])
            assert char_poly(m).coeffs == charpoly_oracle(m)

    @pytest.mark.parametrize("case", list(ELIMINATION_CASES))
    def test_elimination_cases(self, case):
        m = RationalMatrix(ELIMINATION_CASES[case])
        assert char_poly(m).coeffs == charpoly_oracle(m)

    def test_empty_matrix(self):
        assert char_poly(RationalMatrix.zeros(0, 0)).coeffs == [Rat(1)]

    def test_repeated_rows_match_oracle(self):
        # d distinct rows, each of the n rows one of them: the matrix lumps once
        rng = make_rng(47)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, n))
            distinct = _rows(_random_matrix(rng, n, (0.0, 0.5)[trial % 2]))[:d]
            m = RationalMatrix([distinct[int(rng.integers(0, d))] for _ in range(n)])
            assert char_poly(m).coeffs == charpoly_oracle(m)

    def test_rows_equal_after_one_lumping_match_oracle(self):
        # rows 0 and 1 are equal, so columns 0 and 1 form one block; the last
        # two rows differ only by swapping those columns, so they are equal
        # once lumped and the lumped matrix lumps again
        rng = make_rng(53)
        for _ in range(20):
            n = int(rng.integers(4, 8))
            rows = _rows(_random_matrix(rng, n, 0.3))
            rows[1] = rows[0]
            rows[-2][0], rows[-2][1] = Rat(1, 2), Rat(-1, 3)
            rows[-1] = [rows[-2][1], rows[-2][0], *rows[-2][2:]]
            m = RationalMatrix(rows)
            block_of, reps = m.row_classes()
            once = m.select_rows(reps).block_sums(block_of, len(reps))
            assert len(once.row_classes()[1]) < once.rows
            assert char_poly(m).coeffs == charpoly_oracle(m)

    def test_row_differing_in_one_entry_is_not_lumped(self):
        rng = make_rng(59)
        rows = _rows(_random_matrix(rng, 6, 0.3))
        rows[3] = list(rows[1])
        rows[3][4] += Rat(1, 5)
        m = RationalMatrix(rows)
        assert len(m.row_classes()[1]) == m.rows
        assert char_poly(m).coeffs == charpoly_oracle(m)

    # sha256 of the coefficients as "p/q" strings joined by newlines
    @pytest.mark.parametrize(
        "key, which, digest",
        [
            (("value", 5, 3), "Q", "b36ac581a58be849c9e88d837d7116635905ec5870ff22285d636e7075e7db32"),
            (("value", 5, 3), "K", "6901c5dc7307496438ac0b9df8dfb92e2183db989271525aa8c5f1d322c3cef0"),
            (("value", 4, 4), "K", "d583551d63df791ae12febf78b61a74da256294c213995e88455ae20e554d40f"),
        ],
        ids=["value5,3-Q", "value5,3-K", "value4,4-K"],
    )
    def test_kernel_digest(self, bundles, key, which, digest):
        coeffs = char_poly(getattr(bundles(*key), which)).coeffs
        text = "\n".join(rat_str(c) for c in coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_vanishes_at_one_for_stochastic(self, bundles):
        for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]:
            b = bundles(*key)
            assert char_poly(b.Q)(Rat(1)) == 0
            assert char_poly(b.K)(Rat(1)) == 0

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(burnside.spectra, "EXACT_DIM_CAP", 3)
        with pytest.raises(ValueError):
            char_poly(RationalMatrix.identity(4))


class TestCharPolyDeflation:
    @staticmethod
    def _planted(rng):
        """A monic polynomial with planted rational roots (some repeated)
        times an irreducible quadratic x^2 + c x + e, c^2 < 4e."""
        roots = {}
        for _ in range(int(rng.integers(1, 5))):
            r = Rat(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
            roots[r] = roots.get(r, 0) + int(rng.integers(1, 4))
        c = Rat(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
        coeffs = [c * c + Rat(1, int(rng.integers(1, 7))), c, Rat(1)]
        for r, m in roots.items():
            for _ in range(m):
                coeffs = [Rat(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1]
        return roots, coeffs

    def test_planted_roots_match_oracle(self):
        rng = make_rng(1913)
        for _ in range(30):
            roots, coeffs = self._planted(rng)
            poly = poly_from_rats(coeffs)
            assert poly.coeffs == coeffs
            for r, m in roots.items():
                for _ in range(m):
                    assert poly(r) == 0
                    coeffs = deflate_oracle(coeffs, r)
                    poly = poly.deflate(r)
                    assert poly.coeffs == coeffs
                    assert poly == poly_from_rats(coeffs)
                assert poly.deflate(r) is None
            assert poly.degree == 2

    def test_refuses_non_roots(self):
        rng = make_rng(1914)
        for _ in range(30):
            roots, coeffs = self._planted(rng)
            poly = poly_from_rats(coeffs)
            for r in roots:
                for other in (r + Rat(1, 9), r * 2 + 1, -r - Rat(1, 2)):
                    if other not in roots:
                        assert poly.deflate(other) is None
                        assert poly(other) == horner_oracle(coeffs, other) != 0

    def test_equal_polynomials_compare_equal(self):
        assert CharPoly([2, 4, 2], 2) == CharPoly([1, 2, 1]) == CharPoly([3, 6, 3], 3)
        assert CharPoly([6, -10, 4], 4) == poly_from_rats([Rat(3, 2), Rat(-5, 2), Rat(1)])
        assert CharPoly([1, 2, 1]) != CharPoly([1, 2, 1], 2)
        assert CharPoly([1, 1]).shifted(2) == CharPoly([0, 0, 3, 3], 3)
        assert char_poly(RationalMatrix.identity(2)) == CharPoly([1, -2, 1])


class TestRationalRoots:
    def test_golden_value_spectrum(self, golden_value):
        roots, rem = extract_rational_roots(char_poly(golden_value.Q), golden_value.Q, golden_value.piQ)
        assert rem.degree == 0
        assert {str(r): m for r, m in roots.items()} == goldens.VALUE_32_SPEC_Q
        roots_k, rem_k = extract_rational_roots(char_poly(golden_value.K), golden_value.K, golden_value.piK)
        assert rem_k.degree == 0
        assert {str(r): m for r, m in roots_k.items()} == goldens.VALUE_32_SPEC_K

    def test_golden_coord_spectrum(self, golden_coord):
        roots, rem = extract_rational_roots(char_poly(golden_coord.Q), golden_coord.Q, golden_coord.piQ)
        assert rem.degree == 0
        assert {str(r): m for r, m in roots.items()} == goldens.COORD_23_SPEC_Q
        roots_k, rem_k = extract_rational_roots(char_poly(golden_coord.K), golden_coord.K, golden_coord.piK)
        assert {str(r): m for r, m in roots_k.items()} == goldens.COORD_23_SPEC_K

    def test_deflation_reconstructs(self, golden_value):
        poly = char_poly(golden_value.Q)
        roots, rem = extract_rational_roots(poly, golden_value.Q, golden_value.piQ)
        rebuilt = rem.coeffs
        for r, m in roots.items():
            for _ in range(m):
                rebuilt = [Rat(0)] + rebuilt
                for i in range(len(rebuilt) - 1):
                    rebuilt[i] -= r * rebuilt[i + 1]
        assert rebuilt == poly.coeffs

    @staticmethod
    def _assert_roots_match_eigenspaces(p, pi):
        """A reversible kernel is diagonalizable, so each root's multiplicity
        is the dimension of its eigenspace, found without the char poly."""
        roots, rem = extract_rational_roots(char_poly(p), p, pi)
        for r, m in roots.items():
            assert len(eigen_nullspace(p, r)) == m, r
        assert sum(roots.values()) + rem.degree == p.rows
        return roots, rem

    def test_value_52_pinned(self, bundles):
        # the remainder keeps an irrational factor of degree 8 on both sides
        b = bundles("value", 5, 2)
        roots, rem = self._assert_roots_match_eigenspaces(b.Q, b.piQ)
        assert {rat_str(r): m for r, m in roots.items()} == {"1": 1, "4/15": 1, "11/54": 5, "0": 61}
        assert rem.degree == 8
        roots, rem = self._assert_roots_match_eigenspaces(b.K, b.piK)
        assert {rat_str(r): m for r, m in roots.items()} == {"1": 1, "4/15": 1, "11/54": 5, "0": 10}
        assert rem.degree == 8

    # the irrational remainders are perfect powers of one quadratic factor
    IRRATIONAL_REMAINDERS = {
        ("value", 5, 2, "Q"): ([52, -331, 432], 4),
        ("value", 5, 2, "K"): ([52, -331, 432], 4),
        ("value", 6, 2, "K"): ([751, -4610, 5760], 5),
    }

    @pytest.mark.parametrize("key", list(IRRATIONAL_REMAINDERS), ids=lambda k: "{}{},{}-{}".format(*k))
    def test_irrational_remainder_exact(self, bundles, key):
        b = bundles(*key[:3])
        p, pi = getattr(b, key[3]), getattr(b, "pi" + key[3])
        factor, e = self.IRRATIONAL_REMAINDERS[key]
        _, rem = extract_rational_roots(char_poly(p), p, pi)
        assert rem == CharPoly(int_poly_power(factor, e), factor[-1] ** e)

    def test_multiplicities_are_eigenspace_dims(self, bundles):
        b = bundles("coord", 3, 4)
        self._assert_roots_match_eigenspaces(b.K, b.piK)
        rng = make_rng(808)
        for _ in range(5):
            b = build_bundle(random_tabled_action(rng))
            self._assert_roots_match_eigenspaces(b.Q, b.piQ)
            self._assert_roots_match_eigenspaces(b.K, b.piK)

    # value Q from the closed forms, past the enumeration caps, where the lcm
    # L of the row denominators passes 2**50 and round(mu L) misses rational
    # roots: value 4,26 (3 of 15 found) and 5,14 miss the root 1 itself, which
    # P(1) = 0 proves a root, so the peel must raise rather than report it in
    # the remainder.  value 4,30 finds 1 and misses 14 other roots unseen: the
    # guard sees only the root 1, and certified roots at any L are open work.
    @pytest.mark.parametrize("k, n", [(4, 26), (5, 14)], ids=["value4,26", "value5,14"])
    def test_missed_root_one_raises(self, k, n):
        spec = value_spec(k, n)
        q = build_q_direct(spec)
        weights = [fixed_set_size(spec, g) for g in dual_states(spec)]
        pi = [Rat(w, sum(weights)) for w in weights]
        with pytest.raises(AssertionError, match="root 1"):
            SpectrumReport("Q", q, pi).roots
        with pytest.raises(AssertionError, match="root 1"):
            extract_rational_roots(char_poly(q), q, pi)


class TestSpectrumEqual:
    def test_goldens(self, golden_value, golden_coord):
        for b in (golden_value, golden_coord):
            assert spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B)).equal

    def test_certificate_agrees_with_direct(self, bundles, monkeypatch):
        keys = [("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]
        for key in keys:
            b = bundles(*key)
            direct = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
            assert direct.mode == "direct" and direct.equal
        monkeypatch.setattr(burnside.spectra, "EXACT_DIM_CAP", 2)
        for key in keys:
            b = bundles(*key)
            cert = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
            assert cert.mode == "certificate" and cert.equal

    def test_certificate_rejects_wrong_product(self, golden_value, monkeypatch):
        b = golden_value
        data = _rows(b.Q)
        data[0][0] += Rat(1, 18)
        data[0][1] -= Rat(1, 18)
        wrong = RationalMatrix(data)
        monkeypatch.setattr(burnside.spectra, "EXACT_DIM_CAP", 2)
        rep = spectrum_equal_report(SpectrumReport("Q", wrong, b.piQ), b.spectra["K"], legs=(b.A, b.B))
        assert not rep.equal

    def test_certificate_catches_faulty_product(self, monkeypatch):
        # a product that moves one entry of its result builds a wrong Q and K;
        # the certificate must recompute them without that product
        good_matmul = RationalMatrix.__matmul__

        def faulty_matmul(self, other):
            rows = _rows(good_matmul(self, other))
            j = next(j for j, v in enumerate(rows[0]) if v)
            moved, rows[0][j] = rows[0][j], Rat(0)
            rows[0][(j + 1) % len(rows[0])] += moved
            return RationalMatrix(rows)

        def no_matmul(self, other):
            raise AssertionError("the certificate called the matrix product")

        monkeypatch.setattr(RationalMatrix, "__matmul__", faulty_matmul)
        b = build_bundle(value_spec(3, 2))
        assert b.Q.is_row_stochastic() and b.K.is_row_stochastic()
        monkeypatch.setattr(RationalMatrix, "__matmul__", no_matmul)
        monkeypatch.setattr(burnside.spectra, "EXACT_DIM_CAP", 2)
        rep = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
        assert rep.mode == "certificate"
        assert not rep.equal

    def test_random_tabled_actions(self):
        rng = make_rng(555)
        for _ in range(6):
            b = build_bundle(random_tabled_action(rng))
            assert spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B)).equal


class TestIntertwine:
    def test_golden_value(self, golden_value):
        report = intertwine_check(golden_value)
        assert report["ok"]
        dims = {str(lam): e["dim_K"] for lam, e in report["eigenvalues"].items()}
        assert dims == {"1": 1, "1/2": 2, "1/3": 1}

    def test_golden_coord(self, golden_coord):
        report = intertwine_check(golden_coord)
        assert report["ok"]
        dims = {str(lam): e["dim_K"] for lam, e in report["eigenvalues"].items()}
        assert dims == {"1": 1, "1/4": 3}

    def test_stochastic_eigenvector(self, golden_value):
        # lambda = 1: the all-ones vector maps to the all-ones vector
        ones = [Rat(1)] * golden_value.num_states
        assert golden_value.A.mul_vec(ones) == [Rat(1)] * golden_value.num_duals

    def test_nullspace_dimensions(self, golden_coord):
        vq = eigen_nullspace(golden_coord.Q, Rat(1, 4))
        vk = eigen_nullspace(golden_coord.K, Rat(1, 4))
        assert len(vq) == len(vk) == 3


class TestEigenNullspace:
    def test_planted_eigenvalue(self):
        # M = U W + lam I with U n x r and W r x n: lam is an eigenvalue of
        # geometric multiplicity at least n - r
        rng = make_rng(47)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, n))
            lam = Rat(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            zero_share = (0.0, 0.5, 0.8)[trial % 3]
            u = _random_matrix(rng, max(n, r), zero_share)
            w = _random_matrix(rng, max(n, r), zero_share)
            data = [
                [sum((u[i, t] * w[t, j] for t in range(r)), Rat(0)) + (lam if i == j else 0)
                 for j in range(n)]
                for i in range(n)
            ]
            m = RationalMatrix(data)
            pivots, expected = nullspace_oracle(m, lam)
            basis = eigen_nullspace(m, lam)
            assert len(basis) == n - len(pivots) >= n - r
            for v in basis:
                assert m.mul_vec(v) == [lam * x for x in v]
            assert basis == expected

    def test_not_an_eigenvalue(self):
        m = RationalMatrix(ELIMINATION_CASES["negative_pivot"])
        assert eigen_nullspace(m, Rat(1, 7)) == nullspace_oracle(m, Rat(1, 7))[1] == []


class TestDZ:
    def test_closed_values(self):
        assert dz_eigenvalues(3) == [Rat(1, 4)]
        assert dz_eigenvalues(4) == [Rat(1, 4), Rat(9, 64)]
        assert dz_eigenvalues(5)[1] == Rat(6, 16) ** 2

    def test_check_small(self, golden_coord, bundles):
        assert dz_check(3, golden_coord.K)
        assert dz_check(4, bundles("coord", 2, 4).K)

    def test_exact_roots_contain_dz_values(self, bundles):
        b = bundles("coord", 2, 4)
        roots, rem = extract_rational_roots(char_poly(b.K), b.K, b.piK)
        assert rem.degree == 0
        nontrivial = {r for r in roots if r not in (Rat(0), Rat(1))}
        assert nontrivial == set(dz_eigenvalues(4))


class TestGapReport:
    def test_golden_value(self, golden_value):
        rep = SpectrumReport("Q", golden_value.Q, golden_value.piQ)
        assert rep.gamma == pytest.approx(0.5)
        assert rep.gamma_star == pytest.approx(0.5)
        assert rep.relaxation_time == pytest.approx(2.0)
        rep_k = SpectrumReport("K", golden_value.K, golden_value.piK)
        assert rep_k.gamma_star == pytest.approx(rep.gamma_star)

    def test_paguyo_gap_bound(self, bundles):
        # lambda_1 <= 1 - 1/(2k) whenever k >= n in the symbol model
        for k, n in [(3, 2), (4, 3), (4, 4)]:
            b = bundles("value", k, n)
            rep = SpectrumReport("Q", b.Q, b.piQ)
            lam1 = 1.0 - rep.gamma
            assert lam1 <= 1 - 1 / (2 * k) + 1e-12

    def test_single_state_convention(self):
        b = build_bundle(value_spec(2, 3))
        assert b.num_duals == 1
        rep = SpectrumReport("Q", b.Q, b.piQ)
        assert rep.gamma == rep.gamma_star == rep.relaxation_time == 1.0

    def test_rejects_non_reversible(self):
        p = RationalMatrix([[Rat(0), Rat(1)], [Rat(1, 2), Rat(1, 2)]])
        with pytest.raises(ValueError):
            SpectrumReport("P", p, [Rat(1, 2), Rat(1, 2)]).float_roots

    def test_eigenvalues_real_and_contractive(self, bundles):
        for key in [("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]:
            b = bundles(*key)
            for mat, pi in ((b.Q, b.piQ), (b.K, b.piK)):
                rep = SpectrumReport("", mat, pi)
                assert all(abs(x) <= 1 + 1e-9 for x in rep.float_roots)
                lam_star = max(abs(x) for x in rep.float_roots[1:])
                assert lam_star < 1 - 1e-9

    # gamma* = 1 - the larger root of the quadratic factor of the remainder
    @pytest.mark.parametrize(
        "key, gamma_star",
        [
            (("value", 5, 2, "Q"), 1 - (331 + math.sqrt(19705)) / 864),
            (("value", 5, 2, "K"), 1 - (331 + math.sqrt(19705)) / 864),
            (("value", 6, 2, "K"), 1 - (4610 + math.sqrt(3949060)) / 11520),
        ],
        ids=["value5,2-Q", "value5,2-K", "value6,2-K"],
    )
    def test_gamma_star_of_irrational_spectrum(self, bundles, key, gamma_star):
        b = bundles(*key[:3])
        rep = SpectrumReport(key[3], getattr(b, key[3]), getattr(b, "pi" + key[3]))
        assert rep.mode == "exact+float"
        assert abs(rep.gamma_star - gamma_star) <= 1e-12


def test_bundle_gap_agreement(bundles):
    from burnside.spectra import bundle_gap_report

    for key in [("value", 3, 2), ("value", 4, 3), ("coord", 2, 4), ("coord", 3, 3)]:
        rep_q, rep_k = bundle_gap_report(bundles(*key))
        assert rep_q.gamma_star == pytest.approx(rep_k.gamma_star, abs=1e-9)
