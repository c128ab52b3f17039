"""Exact matrix arithmetic, serialization round trips, and the p/q writers
against the stdlib's json and csv output."""

import csv
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside._rat import Rat, parse_rat, rat_str
from burnside.ratmat import (
    RationalMatrix,
    dump_json,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    rows_are_products,
    str_rows,
)


def test_rat_is_fraction():
    import burnside

    assert burnside.Rat is Fraction and burnside.EXACT_BACKEND == "fractions"


def test_rat_strings():
    assert rat_str(Rat(3, 6)) == "1/2"
    assert rat_str(Rat(4, 2)) == "2"
    assert parse_rat("-7/3") == Rat(-7, 3)
    assert parse_rat("5") == Rat(5)


def test_matmul_against_hand_product():
    a = RationalMatrix([[Rat(1, 2), Rat(1, 2)], [Rat(1, 3), Rat(2, 3)]])
    b = RationalMatrix([[Rat(1), Rat(0)], [Rat(1, 4), Rat(3, 4)]])
    c = a @ b
    assert [c.row(0), c.row(1)] == [
        [Rat(5, 8), Rat(3, 8)],
        [Rat(1, 2), Rat(1, 2)],
    ]


def test_vector_products():
    p = RationalMatrix([[Rat(0), Rat(1)], [Rat(1, 2), Rat(1, 2)]])
    assert p.vec_mul([Rat(1), Rat(0)]) == [Rat(0), Rat(1)]
    assert p.mul_vec([Rat(1), Rat(0)]) == [Rat(0), Rat(1, 2)]


def test_row_stochastic_check():
    good = RationalMatrix([[Rat(1, 3), Rat(2, 3)], [Rat(1), Rat(0)]])
    assert good.is_row_stochastic()
    bad = RationalMatrix([[Rat(1, 3), Rat(1, 3)], [Rat(1), Rat(0)]])
    assert not bad.is_row_stochastic()


def test_row_classes():
    half = [Rat(1, 2), Rat(1, 2)]
    m = RationalMatrix([half, [Rat(1), Rat(0)], half, [Rat(2, 4), Rat(1, 2)]])
    assert m.row_classes() == ([0, 1, 0, 0], [0, 1])
    assert RationalMatrix.zeros(0, 2).row_classes() == ([], [])


@st.composite
def matrices_with_repeated_rows(draw):
    """An int64 matrix whose rows are drawn from a few distinct rows, so
    that most of them repeat.  The distinct rows are one base row, each with
    at most one entry changed and its own denominator, so two of them may
    differ in one late entry or only in the denominator; rows that reduce
    alike are equal too."""
    cols = draw(st.integers(1, 5))
    entries = st.integers(-(2**62), 2**62) | st.integers(-3, 3)
    base = draw(st.lists(entries, min_size=cols, max_size=cols))
    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        row = list(base)
        if draw(st.booleans()):
            row[draw(st.integers(0, cols - 1))] = draw(entries)
        distinct.append((row, draw(st.sampled_from([1, 2, 3, 2**62]))))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    nums, dens = zip(*(distinct[i] for i in picks))
    return RationalMatrix.from_scaled(np.array(nums, dtype=np.int64).reshape(len(picks), cols), dens)


def _object_copy(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix._canonical(m.num.astype(object), m.den.astype(object))


@settings(max_examples=200, deadline=None)
@given(matrices_with_repeated_rows())
def test_row_classes_int64_keys_match_object_rows(m):
    # int64 rows are keyed by their bytes, Python-int rows by their tuples
    assert m.num.dtype == np.int64
    block_of, reps = m.row_classes()
    assert (block_of, reps) == _object_copy(m).row_classes()
    rows = [m.row(i) for i in range(m.rows)]
    assert [rows.index(row) for row in rows] == [reps[c] for c in block_of]


def test_row_classes_past_int64():
    big = [Rat(2**70 + 1, 3), Rat(1, 2**64)]
    m = RationalMatrix([big, [Rat(1), Rat(0)], big, [Rat(2**70 + 1, 3), Rat(2, 2**64)]])
    assert m.num.dtype == object
    assert m.row_classes() == ([0, 1, 0, 2], [0, 1, 3])


def test_rows_are_products_checks_every_member_of_a_class():
    half = [Rat(1, 2), Rat(1, 2), Rat(0)]
    left = RationalMatrix([half, [Rat(0), Rat(1, 3), Rat(2, 3)], half])
    right = RationalMatrix([[Rat(1), Rat(0)], [Rat(1, 4), Rat(3, 4)], [Rat(-2, 5), Rat(7, 5)]])
    good = left @ right
    assert rows_are_products(good, left, right)
    # rows 0 and 2 of left are equal: break row 2 of p in one entry
    for wrong in (good[2, 0] + Rat(1, 8), good[2, 0] + 1):
        rows = [good.row(i) for i in range(good.rows)]
        rows[2][0] = wrong
        assert not rows_are_products(RationalMatrix(rows), left, right)


def test_block_flip_squares_to_diagonal():
    a = RationalMatrix([[Rat(1, 2), Rat(1, 2), Rat(0)]])
    b = RationalMatrix([[Rat(1)], [Rat(1)], [Rat(1)]])
    m = RationalMatrix.block_flip(a, b)
    m2 = m @ m
    q = a @ b
    k = b @ a
    for i in range(4):
        for j in range(4):
            if i < 1 and j < 1:
                assert m2[i, j] == q[i, j]
            elif i >= 1 and j >= 1:
                assert m2[i, j] == k[i - 1, j - 1]
            else:
                assert m2[i, j] == 0


def test_json_round_trip(golden_value):
    labels = golden_value.dual_labels
    payload = matrix_to_json(str_rows(golden_value.Q), labels, labels)
    text = json.dumps(payload)
    back, rows, cols = matrix_from_json(json.loads(text))
    assert back == golden_value.Q
    assert rows == golden_value.dual_labels


def test_csv_round_trip(golden_value):
    text = matrix_to_csv(str_rows(golden_value.B), golden_value.state_labels, golden_value.dual_labels)
    back, rows, cols = matrix_from_csv(text)
    assert back == golden_value.B
    assert rows == golden_value.state_labels
    assert cols == golden_value.dual_labels


# labels with commas, quotes, backslashes, line breaks, non-ASCII text and
# empty strings: everything json escapes and csv quotes
LABELS = st.text(alphabet=st.sampled_from(list(',"\\ \n\r\tab1(é€😀')), max_size=6)


@st.composite
def small_matrices(draw):
    """(matrix, row labels, column labels): up to 4 x 4, empty shapes included,
    entries p/q with negatives and zeros."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    nums = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    dens = draw(st.lists(st.integers(1, 12), min_size=rows, max_size=rows))
    m = RationalMatrix.from_scaled(np.array(nums, dtype=np.int64).reshape(rows, cols), dens)
    labels = st.lists(LABELS, min_size=rows, max_size=rows), st.lists(LABELS, min_size=cols, max_size=cols)
    return m, draw(labels[0]), draw(labels[1])


JSON_VALUES = st.recursive(
    st.integers() | LABELS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABELS, inner, max_size=4),
    max_leaves=20,
)


def _dumped(obj) -> str:
    buf = io.StringIO()
    dump_json(obj, buf)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_dump_json_matches_stdlib_on_matrix_payloads(case):
    m, row_labels, col_labels = case
    payload = matrix_to_json(str_rows(m), row_labels, col_labels)
    assert _dumped(payload) == json.dumps(payload, indent=1)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dump_json_matches_stdlib_on_nested_values(obj):
    # rows of strs, empty rows, mixed lists, nested dicts, bare scalars
    assert _dumped(obj) == json.dumps(obj, indent=1)


def test_dump_json_stationary_law_payload(golden_value):
    payload = {"labels": golden_value.dual_labels, "entries": [rat_str(v) for v in golden_value.piQ]}
    assert _dumped(payload) == json.dumps(payload, indent=1)


def _csv_per_row(m: RationalMatrix, row_labels, col_labels) -> str:
    """The CSV text of one csv.writer row per matrix row, entries as str(Fraction)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([""] + list(col_labels))
    for i, label in enumerate(row_labels):
        w.writerow([label] + [str(x) for x in m.row(i)])
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_matrix_to_csv_matches_per_row_writer(case):
    m, row_labels, col_labels = case
    assert matrix_to_csv(str_rows(m), row_labels, col_labels) == _csv_per_row(*case)


def test_writers_check_label_counts(golden_value):
    text, labels = str_rows(golden_value.B), golden_value.state_labels
    for writer in (matrix_to_json, matrix_to_csv):
        with pytest.raises(ValueError, match="label count"):
            writer(text, labels + ["extra"], golden_value.dual_labels)
        with pytest.raises(ValueError, match="label count"):
            writer(text, labels, golden_value.dual_labels[1:])


def test_matrix_to_csv_matches_per_row_writer_on_bundle(golden_value):
    labels = golden_value.dual_labels + golden_value.state_labels
    m = RationalMatrix.block_flip(golden_value.A, golden_value.B)
    assert matrix_to_csv(str_rows(m), labels, labels) == _csv_per_row(m, labels, labels)


@pytest.mark.parametrize("scale", [1, 2**40, 2**70], ids=["int64", "int64-wide", "object"])
def test_str_rows_matches_fraction_str(scale):
    rng = random.Random(scale)
    nums = [[rng.choice([0, 1, -1]) * rng.randrange(scale * 50) for _ in range(7)] for _ in range(9)]
    nums[0] = [0] * 7  # an all-zero row
    dens = [rng.randrange(1, scale * 30) for _ in nums]
    m = RationalMatrix.from_scaled(nums, dens)
    assert m.num.dtype == (object if scale > 2**63 else np.int64)
    expected = [[str(Fraction(x, d)) for x in row] for row, d in zip(nums, dens)]
    assert str_rows(m) == expected


def test_shape_errors():
    with pytest.raises(ValueError):
        RationalMatrix([[Rat(1)], [Rat(1), Rat(2)]])
    a = RationalMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        a @ a
    with pytest.raises(ValueError):
        RationalMatrix.zeros(2, 0) @ RationalMatrix.zeros(1, 2)


def _entrywise_product(a: RationalMatrix, b: RationalMatrix) -> list:
    """(ab)_ij = sum_t a_it b_tj, summed term by term in Rat."""
    return [
        [sum((a[i, t] * b[t, j] for t in range(a.cols)), Rat(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def _assert_exact_product(a: RationalMatrix, b: RationalMatrix) -> None:
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    rows = [c.row(i) for i in range(c.rows)]
    assert rows == _entrywise_product(a, b)
    assert all(type(v) is type(Rat(0)) for row in rows for v in row)


def test_matmul_negative_entries_and_zero_row():
    a = RationalMatrix([
        [Rat(-1, 2), Rat(3, 4), Rat(0)],
        [Rat(0), Rat(0), Rat(0)],
        [Rat(5, 6), Rat(-7, 9), Rat(-2)],
    ])
    b = RationalMatrix([
        [Rat(1, 3), Rat(-1, 5)],
        [Rat(0), Rat(0)],
        [Rat(-11, 4), Rat(2, 7)],
    ])
    _assert_exact_product(a, b)
    _assert_exact_product(b.transpose(), a.transpose())
    assert (a @ b).row(1) == [Rat(0), Rat(0)]


def test_matmul_empty_shapes():
    _assert_exact_product(RationalMatrix.zeros(0, 3), RationalMatrix([[Rat(1, 2)]] * 3))
    _assert_exact_product(RationalMatrix.zeros(2, 0), RationalMatrix.zeros(0, 3))
    _assert_exact_product(RationalMatrix([[Rat(1, 2), Rat(-1, 3)]]), RationalMatrix.zeros(2, 0))


def test_matmul_beyond_int64():
    big2, big3 = 2**40, 3**30
    # each factor fits int64 on its own, but their product bound does not
    a = RationalMatrix([[Rat(1, big2), Rat(-3, big2 // 2)], [Rat(big2 - 1, big2), Rat(0)]])
    b = RationalMatrix([[Rat(2, big3), Rat(-1, 3)], [Rat(big3 - 1, big3), Rat(1, big3 // 9)]])
    _assert_exact_product(a, b)
    _assert_exact_product(b, a)
    # a row whose lcm-scaled numerators exceed int64 on their own
    c = RationalMatrix([[Rat(1, big2), Rat(-1, big3)], [Rat(7, 3), Rat(-5, big2 * big3)]])
    _assert_exact_product(c, c)
    _assert_exact_product(c, a)
    _assert_exact_product(a, c)


def test_to_float_array_matches_fraction_route():
    """num / den in Python ints rounds once, as float(Fraction) does, also
    for int64 numerators past 2**53 and for object rows past 2**63."""
    rng = random.Random(4242)
    for trial in range(36):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        regime = trial % 3
        data = []
        for _ in range(rows):
            if regime == 0:
                data.append([Rat(rng.randint(-1000, 1000), rng.randint(1, 12)) for _ in range(cols)])
            elif regime == 1:  # one small denominator per row, numerators past 2**53
                d = rng.choice([1, 3, 7, 11])
                data.append([Rat(rng.randint(-(2**61), 2**61), d) for _ in range(cols)])
            else:
                data.append(
                    [Rat(rng.randint(-(2**90), 2**90), rng.randint(1, 2**70)) for _ in range(cols)]
                )
        m = RationalMatrix(data)
        assert (m.num.dtype == object) == (regime == 2)
        floats = m.to_float_array()
        assert floats.dtype == np.float64 and floats.shape == (rows, cols)
        assert np.array_equal(floats, np.array([[float(v) for v in m.row(i)] for i in range(rows)]))
    assert RationalMatrix.zeros(0, 3).to_float_array().shape == (0, 3)
    assert RationalMatrix.zeros(2, 0).to_float_array().shape == (2, 0)


def test_entries_are_read_only():
    m = RationalMatrix([[Rat(1, 2), Rat(1, 2)], [Rat(1, 3), Rat(2, 3)]])
    with pytest.raises(TypeError):
        m.data[0][0] = Rat(1)
    with pytest.raises(AttributeError):
        m.data.append((Rat(1), Rat(0)))
    m.row(0)[0] = Rat(1)  # row builds a new list
    assert m.data == ((Rat(1, 2), Rat(1, 2)), (Rat(1, 3), Rat(2, 3)))
    assert m == RationalMatrix(m.data)
