"""Exact rational matrices stored as integer numerators over per-row denominators.

A matrix holds ``num``, a 2-D numpy array of integers, and ``den``, a 1-D
array with one positive integer per row: entry ``(i, j)`` is
``num[i, j] / den[i]``.  ``den[i]`` is the lcm of row ``i``'s reduced
denominators, so the form is canonical (equal matrices have equal ``num``
and ``den``) and every whole-matrix operation runs on the integers.  Every
leg entry of a Burnside chain is ``1/|X_g|`` or ``1/|G_x|``, so its kernels
have exactly this shape.  Both arrays are numpy ``int64`` when every value
fits and object arrays of Python ints otherwise: before an operation whose
results could leave ``int64`` the code bounds them and switches to Python
ints when the bound reaches ``2**63``.

Matrices are immutable.  ``RationalMatrix(rows)`` builds one from rows of
ints or exact rationals; ``m[i, j]``, ``row(i)`` and ``.data`` read entries
as exact rationals.  ``step`` moves a row vector of integer numerators over
one denominator; all distribution evolution uses it, and so does
``rows_are_products``, which checks a claimed product without ``@``.

Entries serialize as canonical "p/q" strings beside the row and column
labels.  ``str_rows`` formats a matrix, each distinct row once, and both
writers take its rows: ``matrix_to_json`` gives the payload that
``dump_json`` writes, the bytes of ``json.dump(payload, fh, indent=1)``,
and ``matrix_to_csv`` the CSV text.  A "p/q" string needs no escaping or
quoting, so either joins each distinct row once.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ._rat import Rat, parse_rat

__all__ = [
    "RationalMatrix",
    "rows_are_products",
    "differs",
    "ratio_arrays",
    "scaled_vector",
    "rat_vector",
    "str_rows",
    "matrix_to_json",
    "matrix_from_json",
    "dump_json",
    "matrix_to_csv",
    "matrix_from_csv",
]

_INT64_LIMIT = 2**63


class RationalMatrix:
    """Exact rational matrix: entry (i, j) is num[i, j] / den[i]."""

    __slots__ = ("rows", "cols", "num", "den", "_row_scale_cache", "_scatter_cache")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        """From rows of ints or exact rationals."""
        self._adopt(*_scale_rows(rows))

    def _adopt(self, num: np.ndarray, den: np.ndarray) -> "RationalMatrix":
        self.num, self.den = num, den
        self.rows, self.cols = num.shape
        self._row_scale_cache = None
        self._scatter_cache = None
        return self

    @classmethod
    def _canonical(cls, num: np.ndarray, den: np.ndarray) -> "RationalMatrix":
        return cls.__new__(cls)._adopt(num, den)

    @classmethod
    def from_scaled(cls, num, den: Sequence[int]) -> "RationalMatrix":
        """The matrix with row i equal to num[i] / den[i] (den[i] > 0), each row
        divided by the gcd of its numerators and its denominator."""
        den = _int_array(list(den), (len(den),))
        if not isinstance(num, np.ndarray):
            num = _int_array(num, (len(den), len(num[0]) if len(num) else 0))
        g = np.gcd(np.gcd.reduce(num, axis=1), den)
        return cls._canonical(_narrow(num // g[:, None]), _narrow(den // g))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._canonical(np.zeros((rows, cols), dtype=np.int64), np.ones(rows, dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._canonical(np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64))

    @property
    def data(self) -> tuple:
        """The entries as a tuple of rows, each a tuple of exact rationals."""
        return tuple(tuple(self.row(i)) for i in range(self.rows))

    def __getitem__(self, ij) -> object:
        i, j = ij
        return Rat(int(self.num[i, j]), int(self.den[i]))

    def row(self, i: int) -> list:
        return rat_vector(self.num[i].tolist(), int(self.den[i]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.num.shape == other.num.shape
            and np.array_equal(self.den, other.den)
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        raise TypeError("RationalMatrix is unhashable")

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        r, common = other._over_common_den()
        # every partial sum of num (L R) is at most max|num| max|L R| cols
        n = _wide(self.num, _max_abs(r) * self.cols)
        out = np.zeros((self.rows, other.cols), dtype=np.result_type(n, r))
        for i in range(self.rows):
            nz = np.flatnonzero(n[i])
            if nz.size:
                out[i] = n[i, nz] @ r[nz]
        # the reduction allocates a quotient as large as out: free the scaled
        # copy of other first
        del n, r
        return RationalMatrix.from_scaled(out, [d * common for d in self.den.tolist()])

    def step(self, nums: Sequence[int], den: int) -> tuple[np.ndarray, int]:
        """One step of the row vector nums/den: (nums/den) P, as integer
        numerators (an object array of Python ints) over one denominator,
        reduced by their gcd.  While max|w| max|num| rows fits int64 (w the
        vector over the common denominator) this is one int64 product; past
        it, each nonzero of P takes its term in Python ints."""
        if len(nums) != self.rows:
            raise ValueError("vector length mismatch")
        weights, common, bound = self._row_scale()
        w = np.asarray(nums, dtype=object) * weights
        if _max_abs(w) * bound < _INT64_LIMIT:
            out = (w.astype(np.int64) @ self.num).astype(object)
        else:
            rows, vals, cols, starts = self._scatter()
            terms = w[rows] if vals is None else w[rows] * vals
            out = np.zeros(self.cols, dtype=object)
            if terms.size:
                out[cols] = np.add.reduceat(terms, starts)
        return _reduced(out, den * common)

    def _row_scale(self) -> tuple[np.ndarray, int, int]:
        """Per row the factor common // den[i] that puts it over the common
        denominator, that denominator, and max|num| rows."""
        if self._row_scale_cache is None:
            dens = self.den.tolist()
            common = lcm(*dens)
            weights = np.array([common // d for d in dens], dtype=object)
            self._row_scale_cache = (weights, common, _max_abs(self.num) * self.rows)
        return self._row_scale_cache

    def _scatter(self) -> tuple:
        """The nonzero entries in column order, as their rows and values (None
        when all are 1), and the nonempty columns with their first offsets."""
        if self._scatter_cache is None:
            cols, rows = np.nonzero(self.num.T)
            vals = self.num[rows, cols]
            rows = rows.astype(np.int32)  # a compact copy: nonzero's buffer is freed
            nonempty, starts = np.unique(cols, return_index=True)
            if (vals == 1).all():
                vals = None
            self._scatter_cache = (rows, vals, nonempty, starts)
        return self._scatter_cache

    def vec_mul(self, v: Sequence) -> list:
        """Row vector times matrix: (v P)_j."""
        if len(v) != self.rows:
            raise ValueError("vector length mismatch")
        return rat_vector(*self.step(*scaled_vector(v)))

    def mul_vec(self, v: Sequence) -> list:
        """Matrix times column vector: (P v)_i."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        nums, den = scaled_vector(v)
        vec = _int_array(nums, (self.cols,))
        prod = _wide(self.num, _max_abs(vec) * self.cols) @ vec
        return [Rat(x, d * den) for x, d in zip(prod.tolist(), self.den.tolist())]

    def scaled_rows_symmetric(self, v: Sequence) -> bool:
        """Whether diag(v) P is symmetric: its integer numerators over one
        common denominator, num[i, j] v[i] L / den[i] with L the lcm of den,
        equal their transpose."""
        if len(v) != self.rows or self.rows != self.cols:
            raise ValueError("dimension mismatch")
        nums, _ = scaled_vector(v)
        dens = self.den.tolist()
        common = lcm(*dens)
        w = _int_array([x * (common // d) for x, d in zip(nums.tolist(), dens)], (self.rows, 1))
        flow = _wide(self.num, _max_abs(w)) * w
        return np.array_equal(flow, flow.T)

    def transpose(self) -> "RationalMatrix":
        n, common = self._over_common_den()
        return RationalMatrix.from_scaled(n.T, [common] * self.cols)

    def _over_common_den(self) -> tuple[np.ndarray, int]:
        """The numerators over the lcm of all row denominators, and that lcm."""
        dens = self.den.tolist()
        common = lcm(*dens)
        scale = _int_array([common // d for d in dens], (self.rows, 1))
        return _wide(self.num, _max_abs(scale)) * scale, common

    def select_rows(self, indices: Sequence[int]) -> "RationalMatrix":
        """The matrix of the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return RationalMatrix._canonical(self.num[idx], self.den[idx])

    def row_classes(self) -> tuple[list[int], list[int]]:
        """Each row's class of equal rows, numbered in order of first
        occurrence, and the first row of each class.  Rows are canonical: an
        int64 row is keyed by its bytes, a row of Python ints by its tuple."""
        num = self.num
        rows = map(tuple, num.tolist()) if num.dtype == object else map(np.ndarray.tobytes, num)
        class_of: dict = {}
        block_of, reps = [], []
        for i, key in enumerate(zip(rows, self.den.tolist())):
            c = class_of.setdefault(key, len(reps))
            if c == len(reps):
                reps.append(i)
            block_of.append(c)
        return block_of, reps

    def block_sums(self, block_of: Sequence[int], num_blocks: int) -> "RationalMatrix":
        """The rows x num_blocks matrix of each row's sums over the column
        blocks; column j lies in block block_of[j]."""
        indicator = np.zeros((self.cols, num_blocks), dtype=np.int64)
        indicator[np.arange(self.cols), np.asarray(block_of, dtype=np.intp)] = 1
        return RationalMatrix.from_scaled(_wide(self.num, self.cols) @ indicator, self.den)

    def first_below(self, floor: Sequence) -> Optional[tuple[int, int]]:
        """The first (i, j) in row-major order with P(i, j) < floor[j], or None."""
        if len(floor) != self.cols:
            raise ValueError("vector length mismatch")
        nums, den = scaled_vector(floor)
        f = _int_array(nums, (1, self.cols))
        # P(i, j) < floor[j]  <=>  num[i, j] den < f[j] den[i]
        lhs = _wide(self.num, den) * den
        rhs = _wide(self.den[:, None], _max_abs(f)) * f
        below = np.argwhere(lhs < rhs)
        return (int(below[0, 0]), int(below[0, 1])) if below.size else None

    def is_row_stochastic(self) -> bool:
        row_sums = _wide(self.num, self.cols).sum(axis=1)
        return bool((self.num >= 0).all()) and np.array_equal(row_sums, self.den)

    def to_float_array(self) -> np.ndarray:
        """Entries as num / den in Python ints: rounded once, as float(Fraction)."""
        rows = [[x / d for x in row] for row, d in zip(self.num.tolist(), self.den.tolist())]
        return np.array(rows, dtype=float).reshape(self.rows, self.cols)

    @classmethod
    def block_flip(cls, a: "RationalMatrix", b: "RationalMatrix") -> "RationalMatrix":
        """The square block matrix [[0, a], [b, 0]]."""
        if a.rows != b.cols or a.cols != b.rows:
            raise ValueError("blocks do not fit a square block-flip matrix")
        n = a.rows + b.rows
        num = np.zeros((n, n), dtype=np.result_type(a.num, b.num))
        num[: a.rows, a.rows :] = a.num
        num[a.rows :, : a.rows] = b.num
        return cls._canonical(num, np.concatenate([a.den, b.den]))

    @classmethod
    def block_diag(cls, a: "RationalMatrix", b: "RationalMatrix") -> "RationalMatrix":
        """The block matrix [[a, 0], [0, b]]."""
        num = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.result_type(a.num, b.num))
        num[: a.rows, : a.cols] = a.num
        num[a.rows :, a.cols :] = b.num
        return cls._canonical(num, np.concatenate([a.den, b.den]))


def rows_are_products(p: RationalMatrix, left: RationalMatrix, right: RationalMatrix) -> bool:
    """p == left @ right, row i of the product recomputed as the integer
    scatter of left's row i over the rows of right (never through @), once
    per class of equal rows of left for every row of p in that class."""
    if (p.rows, p.cols) != (left.rows, right.cols) or left.cols != right.rows:
        return False
    block_of, reps = left.row_classes()
    block_of = np.asarray(block_of)
    for c, rep in enumerate(reps):
        rows = block_of == c
        # both sides are reduced, so equal rows have equal integers
        row, row_den = right.step(left.num[rep], int(left.den[rep]))
        if set(p.den[rows].tolist()) != {row_den} or not (p.num[rows] == row).all():
            return False
    return True


def differs(num: np.ndarray, den: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where num / den != p / q (den, q > 0), entrywise as the arrays broadcast."""
    return _wide(num, _max_abs(q)) * q != _wide(p, _max_abs(den)) * den


def ratio_arrays(values: Sequence, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The numerators and denominators of exact rationals, in the given shape."""
    nums, dens = [x.numerator for x in values], [x.denominator for x in values]
    return _int_array(nums, shape), _int_array(dens, shape)


def scaled_vector(v: Sequence) -> tuple[np.ndarray, int]:
    """A vector of rationals as integer numerators (an object array of Python
    ints) over the lcm of its denominators, so the pair is already reduced."""
    den = lcm(*{int(x.denominator) for x in v})
    nums = [int(x.numerator) * (den // int(x.denominator)) for x in v]
    return np.array(nums, dtype=object), den


def rat_vector(nums: Sequence[int], den: int) -> list:
    """The vector nums/den as exact rationals."""
    values = {x: Rat(x, den) for x in set(nums)}  # entries repeat: one Rat per value
    return [values[x] for x in nums]


def str_rows(m: RationalMatrix) -> list[list[str]]:
    """The entries row by row as the "p/q" strings of ``str(Fraction)``:
    each distinct row is formatted once, into one list its equal rows share,
    and each distinct numerator of it reduced once by its gcd with den."""
    block_of, reps = m.row_classes()
    texts = []
    for nums, den in zip(m.num[reps].tolist(), m.den[reps].tolist()):
        strs = {}
        for x in set(nums):
            g = gcd(x, den)
            strs[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        texts.append(list(map(strs.__getitem__, nums)))
    return [texts[c] for c in block_of]


def _reduced(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    g = gcd(den, *nums.tolist())
    if g > 1:
        nums //= g
        den //= g
    return nums, den


def _scale_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Integer numerators and per-row lcm denominators of rows of rationals."""
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    nums, dens = zip(*map(scaled_vector, rows)) if rows else ((), ())
    return _int_array(nums, (len(rows), cols)), _int_array(dens, (len(rows),))


def _int_array(values, shape: tuple) -> np.ndarray:
    """values as an int64 array when every one fits, else as Python ints in
    an object array."""
    try:
        return np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def _max_abs(m: np.ndarray) -> int:
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _wide(m: np.ndarray, factor: int) -> np.ndarray:
    """m, or m as Python ints when max|m| * factor could leave int64 (a
    factor that does not fit int64 itself always switches)."""
    if m.dtype == object or max(_max_abs(m), 1) * factor < _INT64_LIMIT:
        return m
    return m.astype(object)


def _narrow(m: np.ndarray) -> np.ndarray:
    """m as int64 when it holds Python ints that all fit."""
    if m.dtype == object and _max_abs(m) < _INT64_LIMIT:
        return m.astype(np.int64)
    return m


class _EntryRows(list):
    """Rows of "p/q" strings, which ``dump_json`` quotes as they are."""


def _per_row(rows: Sequence[list], render) -> list[str]:
    """render(row) for each row, once per row object (see ``str_rows``)."""
    rendered = {id(row): row for row in rows}
    rendered = {key: render(row) for key, row in rendered.items()}
    return [rendered[id(row)] for row in rows]


def _check_labels(text: list, row_labels: Sequence[str], col_labels: Sequence[str]) -> None:
    if len(row_labels) != len(text) or text and len(text[0]) != len(col_labels):
        raise ValueError("label count mismatch")


def matrix_to_json(text: list, row_labels: Sequence[str], col_labels: Sequence[str]) -> dict:
    """The JSON payload of a matrix's ``str_rows``."""
    _check_labels(text, row_labels, col_labels)
    return {
        "rows": len(row_labels),
        "cols": len(col_labels),
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "entries": _EntryRows(text),
    }


def dump_json(obj, fh) -> None:
    """Write ``json.dump(obj, fh, indent=1)``, byte for byte, for obj made of
    dicts with str keys, lists, strs and ints.  A list of strs is one write,
    and no whole-file string is built."""
    _dump_json(obj, fh, "\n")


def _dump_json(obj, fh, newline: str) -> None:
    inner = newline + " "
    if isinstance(obj, str):
        fh.write(encode_basestring_ascii(obj))
    elif not isinstance(obj, (list, dict)) or not obj:
        fh.write(json.dumps(obj))
    elif isinstance(obj, _EntryRows):
        quoted = '",' + inner + ' "'
        rows = _per_row(obj, lambda row: f'[{inner} "{quoted.join(row)}"{inner}]' if row else "[]")
        for i, text in enumerate(rows):
            fh.write(("[" if i == 0 else ",") + inner + text)
        fh.write(newline + "]")
    elif isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _dump_json(value, fh, inner)
        fh.write(newline + "}")
    else:
        try:  # a list of strs, in one write
            items = ("," + inner).join(map(encode_basestring_ascii, obj))
        except TypeError:  # an item is not a str
            fh.write("[")
            for i, value in enumerate(obj):
                fh.write(("," if i else "") + inner)
                _dump_json(value, fh, inner)
            fh.write(newline + "]")
        else:
            fh.write("[" + inner + items + newline + "]")


def matrix_from_json(obj: dict) -> tuple[RationalMatrix, list[str], list[str]]:
    m = RationalMatrix([[parse_rat(s) for s in row] for row in obj["entries"]])
    return m, list(obj["row_labels"]), list(obj["col_labels"])


def matrix_to_csv(text: list, row_labels: Sequence[str], col_labels: Sequence[str]) -> str:
    """The CSV text of a matrix's ``str_rows``."""
    _check_labels(text, row_labels, col_labels)
    lines: list[str] = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    w.writerow([""] + list(col_labels))
    rests = _per_row(text, lambda row: ",".join(["", *row[1:]]))
    for label, row, rest in zip(row_labels, text, rests):
        # csv writes a row in one write: here the label with the first entry,
        # quoting the label as it would in the whole row; a "p/q" entry needs
        # no quoting, so one join puts the rest in before the line break
        w.writerow([label, *row[:1]])
        lines[-1] = lines[-1][:-1] + rest + "\n"
    return "".join(lines)


def matrix_from_csv(text: str) -> tuple[RationalMatrix, list[str], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    col_labels = rows[0][1:]
    row_labels = [r[0] for r in rows[1:]]
    m = RationalMatrix([[parse_rat(s) for s in r[1:]] for r in rows[1:]])
    return m, row_labels, col_labels
