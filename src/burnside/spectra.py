"""Exact characteristic polynomials, spectra, and eigen-structure checks.

Each kernel has one spectral record, a ``SpectrumReport`` (on a bundle,
``ChainBundle.spectra``), built part by part on first read: the float
eigenvalues of the symmetrized kernel, which every gap reads, and up to
EXACT_DIM_CAP the exact char poly and its rational roots, each proposed by a
float eigenvalue and certified by one exact integer division by q x - p.
The shared-spectrum check, intertwining and the gap reports read the same
records, so verify computes each part at most once per kernel.

char_poly (Hessenberg reduction, then the determinant recurrence) and
eigen_nullspace (Gauss-Jordan elimination) run fraction-free on the integer
rows of ``RationalMatrix``; char_poly reduces only P lumped on its classes
of equal rows (value 4,4's K: 11 of 256 rows), and EXACT_DIM_CAP bounds the
rows before that lumping.  Past EXACT_DIM_CAP spectrum_equal_report
verifies Q == A B and K == B A instead, each row of A B recomputed from the
legs with integer numerators, never through the product that built Q and K
(the report records which mode ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gcd, lcm
import numpy as np

from ._rat import Rat
from .actions import coord_spec, stabilizer_size, words
from .kernels import ChainBundle, check_detailed_balance
from .ratmat import RationalMatrix, rows_are_products

__all__ = [
    "CharPoly",
    "char_poly",
    "extract_rational_roots",
    "spectrum_equal_report",
    "eigen_nullspace",
    "intertwine_check",
    "dz_eigenvalues",
    "dz_check",
    "SpectrumReport",
    "bundle_gap_report",
    "EXACT_DIM_CAP",
]

# Above this dimension char_poly refuses, the shared-spectrum check switches
# to the factorization certificate and a spectral record has no exact part.
# It bounds p.rows, before char_poly lumps equal rows.  It was set by
# char_poly without that lumping: 0.14 s on the 512-dim K of coord 8,3,
# 0.79 s at 625 dims (value 5,4), 5.5 s at 1024 (coord 4,5).  With it the
# three take 6.3 ms (5 classes of rows), 17 ms (26) and 48 ms (51) (one
# pinned CPU of a 2-vCPU VM, Python 3.11, numpy 2.4, medians of 3 and 5
# runs).  The float root candidates stay complete while the lcm L
# of the row denominators times the eigenvalue error stays under 1/2; on
# those kernels it is at most 8e-9 (value 5,4, L = 9720000).
EXACT_DIM_CAP = 512
# Float eigenvalues agree with a closed form, or with each other, within this.
FLOAT_TOL = 1e-9


@dataclass
class CharPoly:
    """det(xI - P) as integer coefficients (ascending powers) over one positive
    denominator, gcd-reduced so equal polynomials have equal fields."""

    num: list
    den: int = 1

    def __post_init__(self) -> None:
        self.num, self.den = _divide_out(list(self.num), self.den)

    @property
    def coeffs(self) -> list:
        return [Rat(c, self.den) for c in self.num]

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def __call__(self, x) -> Rat:
        """The value at x = a/b: sum num_i a^i b^(d-i) over den b^d."""
        a, b = Rat(x).as_integer_ratio()
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc, scale = acc * a + c * scale, scale * b
        return Rat(acc, self.den * b**self.degree)

    def shifted(self, extra_zeros: int) -> "CharPoly":
        """Multiply by x^extra_zeros."""
        return CharPoly([0] * extra_zeros + self.num, self.den)

    def deflate(self, root) -> "CharPoly | None":
        """The quotient by (x - root) if root is a root, else None.

        With root = p/q in lowest terms, num is divided by the primitive
        integer polynomial q x - p; by Gauss's lemma the division is exact,
        every quotient coefficient an integer, iff root is a root."""
        p, q = Rat(root).as_integer_ratio()
        out, acc = [], 0  # num = (q x - p) out: num[i + 1] = q out[i] - p out[i + 1]
        for c in reversed(self.num[1:]):
            acc, r = divmod(c + p * acc, q)
            if r:
                return None
            out.append(q * acc)  # rescaled by q: the quotient by x - p/q
        return None if self.num[0] + p * acc else CharPoly(out[::-1], self.den)


def _divide_out(row: list, d: int = 0) -> tuple[list, int]:
    """row and d divided by the gcd of d and row's entries (d = 0 leaves the
    row primitive)."""
    g = gcd(d, *row)
    if g > 1:
        return [x // g for x in row], d // g
    return row, d


def _hessenberg(num: list[list[int]], den: list[int]) -> None:
    """Reduce the matrix with rows num[i] / den[i] (den[i] > 0) to upper
    Hessenberg form in place, by similarities that keep every row integral.

    Step j clears column j below the pivot p = num[j+1][j] with
    num_i <- |p| num_i - sign(p) q num_{j+1} over |p| den_i, and adds
    mu_i col_i to col_{j+1}, mu_i = q den_{j+1} / (den_i p).  That column
    update is made integral by scaling col_{j+1} by the lcm v of the mu_i's
    denominators and row j+1's denominator by v: a diagonal similarity."""
    n = len(num)
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if num[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            num[k], num[piv] = num[piv], num[k]
            den[k], den[piv] = den[piv], den[k]
            for row in num:
                row[k], row[piv] = row[piv], row[k]
        top = num[k]
        p = top[j]
        a = abs(p)
        mults = []  # (i, mu_i)
        for i in range(k + 1, n):
            row = num[i]
            q = row[j]
            if q:
                mults.append((i, Rat(q * den[k], den[i] * p)))
                b = q if p > 0 else -q
                new = row[:j] + [a * x - b * y for x, y in zip(row[j:], top[j:])]
                num[i], den[i] = _divide_out(new, a * den[i])
        if mults:
            v = lcm(*(mu.denominator for _, mu in mults))
            us = [(i, mu.numerator * (v // mu.denominator)) for i, mu in mults]
            for row in num:
                acc = v * row[k]
                for i, u in us:
                    if row[i]:
                        acc += u * row[i]
                row[k] = acc
            num[k], den[k] = _divide_out(num[k], v * den[k])


def char_poly(p: RationalMatrix) -> CharPoly:
    """Exact characteristic polynomial of a square rational matrix of
    dimension at most EXACT_DIM_CAP.

    With V the indicator of P's d classes of equal rows and R picking the
    first row of each, P = V (R P), so char_P = x^(n - d) char_{(R P) V}, the
    identity that gives Q = A B and K = B A one nonzero spectrum.  (R P) V,
    P lumped on those classes, replaces P until no two rows are equal."""
    if p.rows != p.cols:
        raise ValueError("matrix is not square")
    n = p.rows
    if n > EXACT_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the exact char-poly cap {EXACT_DIM_CAP}")
    while True:
        block_of, reps = p.row_classes()
        if len(reps) == p.rows:
            break
        p = p.select_rows(reps).block_sums(block_of, len(reps))
    num, den = p.num.tolist(), p.den.tolist()
    _hessenberg(num, den)

    def h(i: int, c: int):
        return Rat(num[i][c], den[i])

    # p_m = det(xI - H_m) of the leading m x m block, as integer coefficients
    # over one denominator:
    # p_m = (x - h_mm) p_{m-1} - sum_i h_im h_{i+1,i} ... h_{m,m-1} p_{i-1}
    polys = [([1], 1)]
    for m in range(1, p.rows + 1):
        diag = h(m - 1, m - 1)
        terms = [(m, -diag)] if diag else []
        prod = Rat(1)
        for i in range(m - 1, 0, -1):
            prod *= h(i, i - 1)
            if not prod:
                break
            if num[i - 1][m - 1]:
                terms.append((i, -h(i - 1, m - 1) * prod))
        prev, prev_den = polys[m - 1]
        common = lcm(prev_den, *(s.denominator * polys[i - 1][1] for i, s in terms))
        cur = [0] + [common // prev_den * c for c in prev]
        for i, s in terms:
            coeffs, d = polys[i - 1]
            f = s.numerator * (common // (s.denominator * d))
            for e, c in enumerate(coeffs):
                if c:
                    cur[e] += f * c
        polys.append(_divide_out(cur, common))
    return CharPoly(*polys[-1]).shifted(n - p.rows)


def extract_rational_roots(poly: CharPoly, p: RationalMatrix, pi):
    """Peel the rational roots off poly, the char poly of p, a kernel
    reversible with respect to pi: ({root: multiplicity}, remaining CharPoly).

    L P is an integer matrix for L the lcm of p's row denominators, so every
    rational root is m / L with m an integer.  Each float eigenvalue mu of
    the symmetrized kernel proposes m = round(L mu), computed exactly, which
    counts only if it divides out of poly exactly.  The set is complete
    while L times the float error stays under 1/2: any L below about 10**11
    at 512 dimensions.  Past it, a root 1 left in the remainder raises
    AssertionError; other missed roots stay in the remainder unnoticed."""
    return _peel_roots(poly, p, SpectrumReport("", p, pi).float_roots)


def _peel_roots(poly: CharPoly, p: RationalMatrix, eigs):
    big_l = lcm(*p.den.tolist())
    candidates = {Rat(round(Rat(float(mu)) * big_l), big_l) for mu in eigs}
    roots, rem = {}, poly
    # largest first so the report reads top-down
    for cand in sorted(candidates, reverse=True):
        while rem.degree > 0 and (quotient := rem.deflate(cand)) is not None:
            roots[cand] = roots.get(cand, 0) + 1
            rem = quotient
    if rem(Rat(1)) == 0:  # then poly(1) == 0 too, and no candidate was 1
        raise AssertionError("root 1 not among the float candidates: the roots are incomplete")
    return roots, rem


@dataclass
class SpectrumEqualReport:
    equal: bool
    mode: str
    detail: str = ""


def spectrum_equal_report(
    q: SpectrumReport, k: SpectrumReport, legs: tuple[RationalMatrix, RationalMatrix]
) -> SpectrumEqualReport:
    """Decide whether the kernels of records q and k share their nonzero spectra.

    Direct mode, when both dimensions are at most EXACT_DIM_CAP, compares
    the records' exact characteristic polynomials (the larger must be
    x^delta times the smaller).  Certificate mode, above it, verifies the
    exact factorizations through the legs (A, B).
    """
    small, large = (q, k) if q.dim <= k.dim else (k, q)
    if large.dim <= EXACT_DIM_CAP:
        equal = large.poly == small.poly.shifted(large.dim - small.dim)
        return SpectrumEqualReport(equal, "direct")
    a, b = legs
    ok = rows_are_products(q.p, a, b) and rows_are_products(k.p, b, a)
    detail = "verified Q == A@B and K == B@A entrywise"
    if ok and small.dim <= EXACT_DIM_CAP:
        # the small side's exact char poly must vanish at 1 (stochasticity), a
        # cheap independent sanity anchor
        if small.poly(Rat(1)) != 0:
            return SpectrumEqualReport(False, "certificate", "char(1) != 0")
        detail += f"; char poly of the {small.dim}-dim side computed exactly"
    return SpectrumEqualReport(ok, "certificate", detail)


def eigen_nullspace(p: RationalMatrix, lam) -> list[list]:
    """Exact basis of ker(P - lam I) by fraction-free Gauss-Jordan elimination.

    Row i of P - lam I is scaled to integers by den_i and lam's denominator;
    each update row <- a row - f pivot_row (a the pivot, f the row's entry
    in its column) is divided by its gcd.  Row r ends as a multiple of row r
    of the reduced row echelon form, so basis vector fc has
    v[pc] = -row_r[fc] / row_r[pc]."""
    if p.rows != p.cols:
        raise ValueError("matrix is not square")
    n = p.rows
    lam = Rat(lam)
    m = []
    for i, (row, d) in enumerate(zip(p.num.tolist(), p.den.tolist())):
        row = [lam.denominator * x for x in row]
        row[i] -= lam.numerator * d
        m.append(_divide_out(row)[0])
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        piv = next((r for r in range(top, n) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pivot_row = m[top]
        a = pivot_row[col]
        for r in range(n):
            f = m[r][col]
            if f and r != top:
                m[r] = _divide_out([a * x - f * y for x, y in zip(m[r], pivot_row)])[0]
        pivots.append(col)
        if len(pivots) == n:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Rat(0)] * n
        v[fc] = Rat(1)
        for r, pc in enumerate(pivots):
            v[pc] = Rat(-m[r][fc], m[r][pc])
        basis.append(v)
    return basis


def intertwine_check(bundle: ChainBundle) -> dict:
    """Verify QA == AK and KB == BQ exactly, then transport eigenvectors.

    For every nonzero rational eigenvalue lambda of the smaller kernel (at
    most EXACT_DIM_CAP states), the map v -> Av must carry ker(K - lambda I)
    into ker(Q - lambda I) without killing anything, and B must map back as
    multiplication by lambda.
    """
    a, b, q, k = bundle.A, bundle.B, bundle.Q, bundle.K
    report: dict = {
        "QA_eq_AK": (q @ a) == (a @ k),
        "KB_eq_BQ": (k @ b) == (b @ q),
        "eigenvalues": {},
    }
    roots, _ = bundle.spectra["Q" if q.rows <= k.rows else "K"].roots
    for lam in (r for r in roots if r != 0):  # descending
        vk = eigen_nullspace(k, lam)
        vq = eigen_nullspace(q, lam)
        entry = {"dim_K": len(vk), "dim_Q": len(vq), "dims_equal": len(vk) == len(vq)}
        entry["transported"] = _transports(vk, a, b, q, lam) and _transports(vq, b, a, k, lam)
        report["eigenvalues"][lam] = entry
    report["ok"] = (
        report["QA_eq_AK"]
        and report["KB_eq_BQ"]
        and all(e["dims_equal"] and e["transported"] for e in report["eigenvalues"].values())
    )
    return report


def _transports(
    vecs: list, there: RationalMatrix, back: RationalMatrix, target: RationalMatrix, lam
) -> bool:
    """Every v of vecs (eigenvectors for lam) goes to a nonzero w = there v
    with target w = lam w, and back carries w to lam v."""
    for v in vecs:
        w = there.mul_vec(v)
        if (
            all(c == 0 for c in w)
            or target.mul_vec(w) != [lam * c for c in w]
            or back.mul_vec(w) != [lam * c for c in v]
        ):
            return False
    return True


def dz_eigenvalues(n: int) -> list:
    """Nontrivial spectrum of the binary coordinate chain:
    (C(2m,m)/2^(2m))^2 for 1 <= m <= floor(n/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [Rat(comb(2 * m, m) ** 2, 16**m) for m in range(1, n // 2 + 1)]


def dz_check(n: int, k_matrix: RationalMatrix) -> bool:
    """Distinct nontrivial nonzero eigenvalues of K match the closed list,
    each within FLOAT_TOL; K is symmetrized by pi_K(x), proportional to |G_x|."""
    spec = coord_spec(2, n)
    pi = [stabilizer_size(spec, x) for x in words(spec)]
    eigs = SpectrumReport("K", k_matrix, pi).float_roots
    nontrivial = [x for x in eigs if abs(x - 1.0) > 1e-6 and abs(x) > 1e-6]
    found = sorted(set(round(float(x), 12) for x in nontrivial), reverse=True)
    expected = sorted((float(v) for v in dz_eigenvalues(n)), reverse=True)
    if len(found) != len(expected):
        return False
    return all(abs(f - e) <= FLOAT_TOL for f, e in zip(found, expected))


@dataclass
class SpectrumReport:
    """The spectral record of one kernel p, reversible with respect to pi.
    Its parts ``float_roots``, ``poly`` and ``roots`` are built on first
    read; past EXACT_DIM_CAP only the float part exists."""

    name: str
    p: RationalMatrix = field(repr=False)
    pi: list = field(repr=False)

    @property
    def dim(self) -> int:
        return self.p.rows

    @cached_property
    def poly(self) -> CharPoly:
        return char_poly(self.p)

    @cached_property
    def float_roots(self) -> list:
        """Eigenvalues of D^(1/2) P D^(-1/2), D = diag(pi), descending; P must be reversible."""
        if not check_detailed_balance(self.p, self.pi):
            raise ValueError("kernel is not reversible with respect to pi")
        d = np.sqrt(np.asarray([float(x) for x in self.pi], dtype=float))
        sym = (self.p.to_float_array() * d[:, None]) / d[None, :]
        return sorted((float(x) for x in np.linalg.eigvalsh(sym)), reverse=True)

    @cached_property
    def roots(self) -> tuple[dict, CharPoly]:
        """The rational roots of poly, largest first, and the remainder; poly
        must vanish at 1 first (P is stochastic), an independent anchor."""
        if self.poly(Rat(1)) != 0:
            raise AssertionError("characteristic polynomial does not vanish at 1")
        return _peel_roots(self.poly, self.p, self.float_roots)

    @property
    def mode(self) -> str:
        if self.dim > EXACT_DIM_CAP:
            return "float"
        return "exact+float" if self.roots[1].degree else "exact"

    @property
    def gamma(self) -> float:
        """1 - the largest eigenvalue below 1 (a single state: 1 by convention)."""
        below = (x for x in self.float_roots if x < 1.0 - FLOAT_TOL)
        return 1.0 - next(below, 1.0 if self.dim > 1 else 0.0)

    @property
    def gamma_star(self) -> float:
        return 1.0 - max((abs(x) for x in self.float_roots[1:]), default=0.0)

    @property
    def relaxation_time(self) -> float:
        return float("inf") if self.gamma_star <= 0 else 1.0 / self.gamma_star


def bundle_gap_report(bundle: ChainBundle) -> tuple[SpectrumReport, SpectrumReport]:
    """The bundle's spectral records of Q and K as gap reports; their
    absolute gaps must agree within FLOAT_TOL."""
    rep_q, rep_k = bundle.spectra["Q"], bundle.spectra["K"]
    if abs(rep_q.gamma_star - rep_k.gamma_star) > FLOAT_TOL:
        raise AssertionError(
            f"absolute gaps differ: Q gives {rep_q.gamma_star}, K gives {rep_k.gamma_star}"
        )
    return rep_q, rep_k
