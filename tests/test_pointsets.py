"""Tests for point-set constructions: lattices, Kronecker, Halton, hybrid,
digital nets, Niederreiter matrices, polynomial lattices, CSV round trips."""

import io
import json
import math
import operator
import os
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction

import csv_reference
import net_reference
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from net_reference import radical_inverse
from polys import monomial

from lowdisc import pointsets
from lowdisc.algebra import Poly
from lowdisc.pointsets import (
    CSV_BLOCK,
    FIXED_POINT_BITS,
    GeneratingMatrixSet,
    PointSet,
    alpha_fixed_point,
    digital_net,
    digital_points,
    halton,
    hybrid,
    kronecker,
    lattice_points,
    niederreiter_matrices,
    niederreiter_net,
    pointset_from_csv,
    pointset_to_csv,
    polynomial_lattice,
    polynomial_lattice_matrices,
    provenance_reference,
)
from lowdisc.cli import _read_points
from lowdisc.pointsets import _exact_csv, _general_csv
from lowdisc.quality import p_alpha


# ---------------------------------------------------------------------------
# PointSet container
# ---------------------------------------------------------------------------

def test_exact_pointset_basics():
    ps = PointSet.exact([[0, 0], [1, 2]], [2, 3])
    assert ps.is_exact
    assert ps.count == 2 and len(ps) == 2
    assert ps.dim == 2
    assert ps.as_floats() == [(0.0, 0.0), (0.5, 2 / 3)]
    assert ps.as_fractions() == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(2, 3)),
    ]


@pytest.mark.parametrize(
    "nums,dens",
    [
        ([[2]], [2]),        # numerator == denominator
        ([[-1]], [4]),       # negative numerator
        ([[0, 0]], [4]),     # row wider than denominators
        ([[0]], [0]),        # zero denominator
    ],
)
def test_exact_pointset_rejects_bad_input(nums, dens):
    with pytest.raises(ValueError):
        PointSet.exact(nums, dens)


def test_float_pointset_rejects_out_of_range():
    with pytest.raises(ValueError):
        PointSet.floating([[0.5], [1.0]])
    with pytest.raises(ValueError):
        PointSet.floating([[0.5], [0.25, 0.75]])


def test_float_pointset_has_no_fractions():
    ps = PointSet.floating([[0.5, 0.25]])
    with pytest.raises(ValueError):
        ps.as_fractions()


def test_pointset_is_built_only_by_its_validating_constructors():
    with pytest.raises(TypeError):
        PointSet(numerators=[[3]], denominators=[2])  # 3/2 lies outside [0, 1)
    with pytest.raises(TypeError):
        PointSet(representation="float", float_rows=[[2.0]])
    exact = PointSet.exact([[1]], [2])
    floating = PointSet.floating([[0.5]])
    assert (exact.representation, exact.is_exact) == ("exact_rational", True)
    assert (floating.representation, floating.is_exact) == ("float", False)
    assert exact.float_rows is None
    assert floating.numerators is None and floating.denominators is None


# ---------------------------------------------------------------------------
# PointSet storage: one read-only (N, s) array
# ---------------------------------------------------------------------------

def test_lists_and_arrays_build_equal_sets():
    rows = [[0, 5], [3, 1], [2, 6]]
    from_lists = PointSet.exact(rows, [4, 7])
    for nums in (np.array(rows), np.array(rows, dtype=object), [tuple(r) for r in rows]):
        ps = PointSet.exact(nums, (4, 7))
        assert ps.numerators.dtype == np.int64 and ps.numerators.shape == (3, 2)
        assert ps.numerators.tolist() == from_lists.numerators.tolist() == rows
        assert ps.denominators == from_lists.denominators == (4, 7)
    floats = [[0.5, 0.25], [0.0, 0.75]]
    for rows_in in (floats, np.array(floats), [tuple(r) for r in floats]):
        ps = PointSet.floating(rows_in)
        assert ps.float_rows.dtype == np.float64
        assert ps.float_rows.tolist() == floats
        assert ps.as_floats() == [(0.5, 0.25), (0.0, 0.75)]


@pytest.mark.parametrize(
    "den,dtype",
    [(2 ** 63 - 1, np.int64), (2 ** 63, object), (2 ** 63 + 1, object)],
)
def test_storage_dtype_around_2_63(den, dtype):
    ps = PointSet.exact([[0, 1], [den - 1, 2]], [den, 3])
    assert ps.numerators.dtype == dtype
    assert ps.numerators.tolist() == [[0, 1], [den - 1, 2]]
    assert all(type(v) is int for row in ps.numerators.tolist() for v in row)
    text = pointset_to_csv(ps)
    assert text.splitlines()[2] == f"{den - 1}/{den},2/3"
    back = pointset_from_csv(text, None)
    assert back.numerators.dtype == dtype
    assert back.numerators.tolist() == ps.numerators.tolist()
    assert back.denominators == ps.denominators
    assert back.as_fractions() == ps.as_fractions()


def test_storage_is_a_read_only_copy():
    nums = np.array([[0, 1], [1, 0]])
    floats = np.array([[0.5], [0.25]])
    ps = PointSet.exact(nums, [2, 2])
    fs = PointSet.floating(floats)
    nums[0, 0] = 1
    floats[0, 0] = 0.75
    assert ps.numerators.tolist() == [[0, 1], [1, 0]]
    assert fs.float_rows.tolist() == [[0.5], [0.25]]
    for arr in (ps.numerators, fs.float_rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert PointSet.exact([], [2]).numerators.shape == (0, 1)
    assert PointSet.floating([]).float_rows.shape == (0, 0)


@pytest.mark.parametrize(
    "nums,dens,message",
    [
        ([[0, 1], [1]], [2, 2], "row width != number of denominators"),
        ([[0, 0]], [4], "row width != number of denominators"),
        ([[0], [2]], [2], r"numerator 2 outside \[0, 2\)"),
        ([[0, -1]], [2, 3], r"numerator -1 outside \[0, 3\)"),
        # beyond int64 under a small denominator: a ValueError, not an OverflowError
        ([[2 ** 64]], [3], r"numerator 18446744073709551616 outside \[0, 3\)"),
        ([[-(2 ** 64)]], [3], r"numerator -18446744073709551616 outside \[0, 3\)"),
        ([[2 ** 64, 0]], [2 ** 64, 2], r"numerator 18446744073709551616 outside \[0, 18446744073709551616\)"),
        ([[0]], [0], "denominators must be >= 1"),
        # a value that is not an integer is named, never truncated
        ([[0.5, 2.9]], [2, 3], r"numerator 0\.5 is not an integer"),
        ([[1, 2.9]], [2, 3], r"numerator 2\.9 is not an integer"),
        ([[Fraction(1, 2)]], [2], r"numerator Fraction\(1, 2\) is not an integer"),
        (np.array([[0.0, 1.5]]), [2, 2], r"numerator 0\.0 is not an integer"),
        ([[float("nan")]], [2], "numerator nan is not an integer"),
        ([[2 ** 64, 0.5]], [2 ** 65, 2], r"numerator 0\.5 is not an integer"),
    ],
)
def test_exact_validation_messages(nums, dens, message):
    with pytest.raises(ValueError, match=message):
        PointSet.exact(nums, dens)


@pytest.mark.parametrize(
    "nums,dens",
    [
        ([[2.0, 1]], [4, 2]),
        ([[Fraction(4, 2), True]], [4, 2]),
        (np.array([[2.0, 1.0]]), [4, 2]),
        (np.array([[2, 1]], dtype=np.uint8), [4, 2]),
        ([[2.0, 1]], [2 ** 64, 2]),
    ],
)
def test_integral_numerators_of_any_type_are_ints(nums, dens):
    # only an int or a numpy integer array is read as ints: 2.0,
    # Fraction(4, 2) and True are refused and named, never truncated
    if not isinstance(nums, np.ndarray) or nums.dtype.kind not in "iu":
        with pytest.raises(ValueError, match=r"numerator (2\.0|Fraction\(2, 1\)) is not an integer"):
            PointSet.exact(nums, dens)
        return
    ps = PointSet.exact(nums, dens)
    assert ps.numerators.tolist() == [[2, 1]]
    assert all(type(v) is int for v in ps.numerators.ravel().tolist())
    assert ps.as_fractions() == [(Fraction(2, dens[0]), Fraction(1, 2))]


# (argument, call with a value in its place): each argument is an int or fails
_INT_ARGUMENTS = {
    "numerator": lambda v: PointSet.exact([[v]], [4]),
    "denominator": lambda v: PointSet.exact([[1]], [v]),
    "base": lambda v: halton([v, 3], 4),
    "n": lambda v: lattice_points([1, 3], v),
    "p_alpha n": lambda v: p_alpha([1, 3], v),
}


@pytest.mark.parametrize(
    "argument,value",
    [(argument, value) for argument in _INT_ARGUMENTS for value in (2.0, True, "2", Fraction(4, 2))]
    # read as ints, these built the point 1/4, the base-2 Halton set and a
    # lattice whose own provenance assess refuses
    + [("denominator", 4.5), ("base", 2.9), ("n", 8.0)],
)
def test_a_value_that_is_not_an_int_is_refused_by_name(argument, value):
    with pytest.raises(ValueError, match=f"{re.escape(repr(value))} is not an int"):
        _INT_ARGUMENTS[argument](value)


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0.5], [0.25, 0.75]], "ragged rows"),
        ([[0.5], [1.0]], r"coordinate 1.0 outside \[0, 1\)"),
        ([[0.5, -0.25]], r"coordinate -0.25 outside \[0, 1\)"),
        ([[0.5], [float("nan")]], r"coordinate nan outside \[0, 1\)"),
    ],
)
def test_float_validation_messages(rows, message):
    with pytest.raises(ValueError, match=message):
        PointSet.floating(rows)


# ---------------------------------------------------------------------------
# Rank-1 lattices
# ---------------------------------------------------------------------------

def test_fibonacci_lattice_frozen():
    ps = lattice_points([1, 3], 4)
    assert ps.numerators.tolist() == [[0, 0], [1, 3], [2, 2], [3, 1]]
    assert ps.denominators == (4, 4)
    assert ps.provenance["kind"] == "lattice"


def test_lattice_reduces_generator_mod_n():
    assert lattice_points([5], 4).numerators.tolist() == lattice_points([1], 4).numerators.tolist()


@settings(max_examples=40)
@given(
    a=st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=1, max_size=4),
    n=st.integers(1, 300),
)
def test_lattice_matches_pointwise_formula(a, n):
    ps = lattice_points(a, n)
    assert ps.numerators.dtype == np.int64
    assert ps.numerators.tolist() == [[k * aj % n for aj in a] for k in range(n)]
    assert ps.denominators == (n,) * len(a)


def test_lattice_validation():
    with pytest.raises(ValueError):
        lattice_points([1], 0)
    with pytest.raises(ValueError):
        lattice_points([], 5)
    # a float or a bool is not an int, and is not truncated into one
    for a, entry in (([1.5, 3], "1.5"), ([True, 3], "True"), ([1, "3"], "'3'")):
        with pytest.raises(ValueError, match=f"entry {re.escape(entry)} is not an int"):
            lattice_points(a, 4)
    assert lattice_points([np.int64(1), 7], 4).provenance["a"] == (1, 3)


# ---------------------------------------------------------------------------
# Kronecker sequences and fixed-point alphas
# ---------------------------------------------------------------------------

def test_alpha_fixed_point_half_is_exact():
    assert alpha_fixed_point("0.5") == 1 << (FIXED_POINT_BITS - 1)


def test_alpha_fixed_point_takes_fractional_part():
    assert alpha_fixed_point("1.5") == alpha_fixed_point("0.5")
    assert alpha_fixed_point(Fraction(7, 2)) == alpha_fixed_point("0.5")
    assert alpha_fixed_point(3) == 0


def test_alpha_fixed_point_rejects_floats():
    with pytest.raises(TypeError):
        alpha_fixed_point(math.sqrt(2))


def test_alpha_fixed_point_sqrt_matches_high_precision():
    # independent oracle: 256-bit integer square root, reduced mod 1
    for d in (2, 3, 5, 7, 10):
        got = alpha_fixed_point(f"sqrt({d})")
        root = math.isqrt(d << 512)  # floor(sqrt(d) * 2^256)
        frac = Fraction(root, 1 << 256) % 1
        expect = math.floor(frac * (1 << FIXED_POINT_BITS))
        # the two floors can differ by at most one ulp of the 128-bit grid
        assert abs(got - expect) <= 1
    with pytest.raises(ValueError):
        alpha_fixed_point("sqrt(-1)")


def test_kronecker_sqrt2_frozen_floats():
    ps = kronecker(["sqrt(2)"], 4)
    xs = [row[0] for row in ps.float_rows]
    assert xs == [
        0.0,
        0.41421356237309503,
        0.8284271247461901,
        0.24264068711928516,
    ]


def test_kronecker_matches_fraction_oracle():
    # {k sqrt(2)} via 256-bit rational arithmetic; agreement to 2^-50 is far
    # tighter than anything float rounding could fake
    root = Fraction(math.isqrt(2 << 512), 1 << 256)
    ps = kronecker(["sqrt(2)"], 200)
    for k, row in enumerate(ps.float_rows):
        exact = (k * root) % 1
        assert abs(row[0] - float(exact)) <= 2 ** -50


def test_kronecker_accuracy_at_large_index():
    # fixed-point accumulation keeps 128 bits, so the error stays far below
    # 2^-50 even at the millionth point
    root = Fraction(math.isqrt(2 << 512), 1 << 256)
    start = 2 ** 20 - 3
    ps = kronecker(["sqrt(2)"], 3, start=start)
    for off, row in enumerate(ps.float_rows):
        exact = ((start + off) * root) % 1
        assert abs(row[0] - float(exact)) <= 2 ** -50


def test_kronecker_start_offset():
    tail = kronecker(["sqrt(3)", "sqrt(5)"], 3, start=7)
    full = kronecker(["sqrt(3)", "sqrt(5)"], 10)
    assert tail.float_rows.tolist() == full.float_rows.tolist()[7:]


def test_kronecker_validation():
    with pytest.raises(ValueError):
        kronecker(["sqrt(2)"], 0)


# ---------------------------------------------------------------------------
# Halton sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k,b,expect",
    [
        (0, 2, (0, 1)),
        (1, 2, (1, 2)),
        (2, 2, (1, 4)),
        (3, 2, (3, 4)),
        (4, 2, (1, 8)),
        (5, 2, (5, 8)),
        (5, 3, (7, 9)),
        (10, 10, (1, 100)),
    ],
)
def test_radical_inverse_frozen(k, b, expect):
    assert radical_inverse(k, b) == expect


def test_radical_inverse_validation():
    with pytest.raises(ValueError):
        radical_inverse(-1, 2)
    with pytest.raises(ValueError):
        radical_inverse(3, 1)


def test_halton_first_points():
    ps = halton([2, 3], 6)
    assert ps.denominators == (8, 9)
    got = ps.as_fractions()
    for k, row in enumerate(got):
        for b, x in zip((2, 3), row):
            num, den = radical_inverse(k, b)
            assert x == Fraction(num, den)
    assert got[5] == (Fraction(5, 8), Fraction(7, 9))


def test_halton_base2_equals_van_der_corput_net():
    h = halton([2], 16)
    v = niederreiter_net(2, 1, 4)
    assert h.numerators.tolist() == v.numerators.tolist()
    assert h.denominators == v.denominators


def test_halton_start_offset():
    tail = halton([2, 3], 4, start=5)
    assert tail.as_fractions()[0] == (Fraction(5, 8), Fraction(7, 9))


def test_halton_coprimality_guard():
    with pytest.raises(ValueError, match=r"^bases 2 and 4 share a factor$"):
        halton([2, 4], 8)


_MATRIX = GeneratingMatrixSet(2, [[[1, 0], [0, 1]]])


@pytest.mark.parametrize("error, message, call", [
    (TypeError, "unsupported alpha [1]", lambda: alpha_fixed_point([1])),
    (ValueError, "empty list of alphas", lambda: kronecker([], 3)),
    (ValueError, "need n >= 1", lambda: halton([2], 0)),
    (ValueError, "need start >= 0", lambda: halton([2], 4, start=-1)),
    (ValueError, "empty list of bases", lambda: halton([], 3)),
    (ValueError, "bases must be >= 2", lambda: halton([1], 4)),
    (ValueError, "ragged matrix", lambda: GeneratingMatrixSet(2, [[[1, 0], [1]]])),
    (ValueError, "need count >= 1", lambda: digital_points(_MATRIX, 0, 0)),
    (ValueError, "need start >= 0", lambda: digital_points(_MATRIX, -1, 2)),
    (ValueError, "need s >= 1", lambda: niederreiter_matrices(2, 0, 3)),
    (ValueError, "need rows >= 1", lambda: niederreiter_matrices(2, 2, 0)),
])
def test_construction_guards_refuse_bad_input(error, message, call):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _assert_halton_is_radical_inverse(ps, bases, start):
    last = start + ps.count - 1
    for b, den in zip(bases, ps.denominators):
        # the smallest power of b above the last index
        assert den > last and den // b <= max(last, 1)
    assert ps.numerators.dtype == (np.int64 if max(ps.denominators) < 2 ** 63 else object)
    for k, row in enumerate(ps.numerators.tolist(), start):
        for b, v, den in zip(bases, row, ps.denominators):
            num, kden = radical_inverse(k, b)
            assert type(v) is int and v == num * (den // kden)


@settings(max_examples=60)
@given(
    bases=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4, unique=True),
    start=st.one_of(st.integers(0, 10 ** 6), st.integers(0, 2 ** 66)),
    n=st.integers(1, 40),
)
def test_halton_matches_radical_inverse(bases, start, n):
    _assert_halton_is_radical_inverse(halton(bases, n, start=start), bases, start)


@pytest.mark.parametrize(
    "bases,start,n",
    [
        ([2, 5], 2 ** 61, 8),  # 2^62 and 5^27 < 2^63: both columns int64
        ([2], 2 ** 62 - 3, 6),  # last index past 2^62: the column's 2^L is 2^63
        ([2, 3], 2 ** 63 - 4, 4),  # last index 2^63 - 1
        ([2, 3, 5], 2 ** 63 - 2, 5),  # indices cross 2^63
        ([3], 3 ** 39 - 2, 4),  # last index past 3^39 < 2^63: 3^L is 3^40 > 2^63
    ],
)
def test_halton_columns_around_2_63(bases, start, n):
    _assert_halton_is_radical_inverse(halton(bases, n, start=start), bases, start)


# ---------------------------------------------------------------------------
# Hybrid sequences
# ---------------------------------------------------------------------------

def test_hybrid_exact_plus_exact_stays_exact():
    a = halton([2], 5)
    b = lattice_points([1, 2], 5)
    h = hybrid(a, b)
    assert h.is_exact
    assert h.dim == 3
    assert h.denominators == a.denominators + b.denominators
    assert h.as_fractions()[3] == a.as_fractions()[3] + b.as_fractions()[3]


def test_hybrid_with_float_side_drops_to_floats():
    a = halton([2], 5)
    k = kronecker(["sqrt(2)"], 5)
    h = hybrid(a, k)
    assert not h.is_exact
    assert h.float_rows[2].tolist() == list(a.as_floats()[2]) + k.float_rows[2].tolist()
    assert h.provenance["first"]["kind"] == "halton"
    assert h.provenance["second"]["kind"] == "kronecker"


def test_hybrid_count_mismatch():
    with pytest.raises(ValueError):
        hybrid(halton([2], 4), halton([3], 5))


def test_hybrid_with_zero_dimensional_set_is_identity():
    a = lattice_points([1, 3], 4)
    empty = PointSet.exact([[]] * 4, [])
    h = hybrid(a, empty)
    assert h.dim == 2
    assert h.numerators.tolist() == a.numerators.tolist()
    assert h.denominators == a.denominators


# ---------------------------------------------------------------------------
# Digital nets
# ---------------------------------------------------------------------------

def test_matrix_set_validation():
    with pytest.raises(ValueError):
        GeneratingMatrixSet(4, [[[1]]])  # base not prime
    with pytest.raises(ValueError):
        GeneratingMatrixSet(2, [[[2]]])  # entry outside F_2
    with pytest.raises(ValueError):
        GeneratingMatrixSet(2, [[[1, 0]], [[1]]])  # shape mismatch
    for empty in ([], [[]], [[[]]]):  # no matrix, no rows, rows without columns
        with pytest.raises(ValueError, match="need at least one matrix, with a row and a column"):
            GeneratingMatrixSet(2, empty)
    for entry in (1.7, 1.0, True, np.float64(1)):  # never truncated into an int
        with pytest.raises(ValueError, match=r"^entry .* is not an int$"):
            GeneratingMatrixSet(2, [[[entry, 0], [0, 1]]])
    G = GeneratingMatrixSet(2, np.eye(2, dtype=np.int64)[None])
    assert G.matrices == (((1, 0), (0, 1)),) and type(G.matrices[0][0][0]) is int


def test_matrix_set_roundtrip_and_shape():
    mats = [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]
    G = GeneratingMatrixSet(2, mats)
    assert (G.s, G.rows, G.cols) == (2, 2, 2)
    assert G.matrices == ((((1, 0), (0, 1)), ((1, 1), (0, 1))))
    assert G == GeneratingMatrixSet(2, G.matrices)


def test_digital_net_requires_square():
    G = GeneratingMatrixSet(2, [[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValueError):
        digital_net(G)


def test_digital_points_index_must_fit():
    G = GeneratingMatrixSet(2, [[[1, 0], [0, 1]]])
    with pytest.raises(ValueError):
        digital_points(G, 0, 5)
    with pytest.raises(ValueError):
        digital_points(G, 4, 1)


def _assert_same_points(ps, ref):
    assert ps.numerators.tolist() == ref.numerators.tolist()
    assert ps.numerators.dtype == (np.int64 if max(ps.denominators) < 2 ** 63 else object)
    assert all(type(v) is int for row in ps.numerators.tolist() for v in row)
    assert ps.denominators == ref.denominators
    assert ps.provenance == ref.provenance


@st.composite
def digital_inputs(draw):
    """(G, start, count) with rows <= cols and any start that fits."""
    b = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(rows, 7))
    s = draw(st.integers(1, 3))
    entry = st.integers(0, b - 1)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    G = GeneratingMatrixSet(b, draw(st.lists(matrix, min_size=s, max_size=s)))
    start = draw(st.integers(0, b ** cols - 1))
    count = draw(st.integers(1, min(64, b ** cols - start)))
    return G, start, count


@settings(max_examples=80)
@given(digital_inputs())
def test_digital_points_match_retired_loop(case):
    G, start, count = case
    _assert_same_points(digital_points(G, start, count), net_reference.digital_points(G, start, count))


@pytest.mark.parametrize("rows", [62, 63, 64])
@pytest.mark.parametrize(
    "start,count",
    [(0, 4), (2 ** 63 - 5, 5), (2 ** 63 - 3, 6), (2 ** 64 - 3, 3)],
    ids=["from-0", "ends-at-2^63-1", "crosses-2^63", "ends-at-2^64-1"],
)
def test_digital_points_wide_integers(rows, start, count):
    # b = 2, 64 index digits: numerators below 2^62, 2^63 and 2^64
    rng = random.Random(rows)
    mats = [[[rng.randrange(2) for _ in range(64)] for _ in range(rows)] for _ in range(2)]
    mats.append([[1] * 64] * rows)  # every row the parity of the index bits
    G = GeneratingMatrixSet(2, mats)
    ps = digital_points(G, start, count)
    _assert_same_points(ps, net_reference.digital_points(G, start, count))
    assert ps.denominators == (2 ** rows,) * 3


def test_digital_points_large_base_dot_products():
    # b^rows < 2^63 but (b - 1)^2 > 2^63: the dot products must not wrap
    b = 3037000507
    G = GeneratingMatrixSet(b, [[[b - 1, b - 1]]])
    ps = digital_points(G, b - 2, 2)
    _assert_same_points(ps, net_reference.digital_points(G, b - 2, 2))
    assert ps.numerators.tolist() == [[2], [1]]


@st.composite
def split_index_inputs(draw):
    """(G, start, count) with rows != cols, b up to 7 and up to 700 points,
    so the half-index split b^h <= sqrt(count) runs from h = 0 to h = 4;
    start 3 b^rows + 5, where it fits, begins inside a low-half block."""
    b = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8).filter(lambda c: c != rows))
    s = draw(st.integers(1, 3))
    entry = st.integers(0, b - 1)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    G = GeneratingMatrixSet(b, draw(st.lists(matrix, min_size=s, max_size=s)))
    top = b ** cols
    start = draw(st.one_of(st.integers(0, top - 1), st.just(min(3 * b ** rows + 5, top - 1))))
    count = draw(st.integers(1, min(700, top - start)))
    return G, start, count


@settings(max_examples=150)
@given(split_index_inputs())
def test_digital_points_match_matrix_product(case):
    G, start, count = case
    ref = net_reference.digital_points_by_product(G, start, count)
    _assert_same_points(digital_points(G, start, count), ref)


@pytest.mark.parametrize("b,m", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_digital_points_at_split_boundaries(b, m):
    # counts on both sides of b^(2h) change h; start 3 b^m + 5 is inside a block
    G = niederreiter_matrices(b, 3, m, m + 2)
    for h in (1, 2):
        for count in (b ** (2 * h) - 1, b ** (2 * h), b ** (2 * h) + 1):
            for start in (0, 3 * b ** m + 5):
                if start + count <= b ** (m + 2):
                    ref = net_reference.digital_points_by_product(G, start, count)
                    _assert_same_points(digital_points(G, start, count), ref)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize(
    "b", [3037000507, 2 ** 63 - 25, 2 ** 63 + 29], ids=["int64", "int64-edge", "python-ints"]
)
def test_digital_points_digit_types(b, rows):
    # digits below 2^63 are int64, Python ints above; 5 points keep h = 0
    rng = random.Random(b + rows)
    mats = [[[rng.randrange(b) for _ in range(2)] for _ in range(rows)] for _ in range(2)]
    G = GeneratingMatrixSet(b, mats)
    start = rng.randrange(b ** 2 - 5)
    ref = net_reference.digital_points_by_product(G, start, 5)
    _assert_same_points(digital_points(G, start, 5), ref)


def test_digital_points_split_follows_count_not_cols():
    # 64 index digits and 4 points: a split at cols / 2 would want 2^32-entry tables
    rng = random.Random(64)
    matrix = [[rng.randrange(2) for _ in range(64)] for _ in range(64)]
    G = GeneratingMatrixSet(2, [matrix])
    for start in (0, 2 ** 63 - 2, 2 ** 64 - 4):
        tracemalloc.start()
        try:
            ps = digital_points(G, start, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        _assert_same_points(ps, net_reference.digital_points_by_product(G, start, 4))


def test_identity_matrix_gives_van_der_corput():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    G = GeneratingMatrixSet(2, [ident])
    ps = digital_net(G)
    for k, row in enumerate(ps.numerators):
        num, den = radical_inverse(k, 2)
        assert Fraction(row[0], 8) == Fraction(num, den)


# ---------------------------------------------------------------------------
# Niederreiter sequences
# ---------------------------------------------------------------------------

def test_niederreiter_base2_s1_is_identity():
    G = niederreiter_matrices(2, 1, 4)
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert G.matrices[0] == ident


def test_niederreiter_base2_s2_second_matrix_is_pascal():
    # coordinate 2 uses p_2 = x + 1; the resulting matrix holds the
    # binomial coefficients C(r, i-1) mod 2
    G = niederreiter_matrices(2, 2, 4)
    expect = tuple(
        tuple(math.comb(r, i) % 2 for r in range(4)) for i in range(4)
    )
    assert G.matrices[1] == expect


def test_niederreiter_van_der_corput_m2_frozen():
    ps = niederreiter_net(2, 1, 2)
    assert ps.numerators.tolist() == [[0], [2], [1], [3]]
    assert ps.denominators == (4,)


def test_niederreiter_rectangular_columns_extend_rows():
    G = niederreiter_matrices(2, 2, rows=3, cols=5)
    assert (G.rows, G.cols) == (3, 5)
    # square prefix agrees with the rows=cols call
    G_sq = niederreiter_matrices(2, 2, 3)
    for mat5, mat3 in zip(G.matrices, G_sq.matrices):
        for r5, r3 in zip(mat5, mat3):
            assert r5[:3] == r3
    with pytest.raises(ValueError):
        niederreiter_matrices(2, 2, rows=4, cols=3)


def test_niederreiter_matches_the_row_by_row_definition():
    # 490 parameter sets: one expansion per power of p_j, read as windows,
    # against one expansion per row
    for b in (2, 3, 5, 7):
        for s in range(1, 8):
            for rows in range(1, (14 if b == 2 else 7) + 1):
                for cols in (rows, rows + 2):
                    G = niederreiter_matrices(b, s, rows, cols)
                    assert G == net_reference.niederreiter_matrices(b, s, rows, cols), (b, s, rows, cols)


def test_niederreiter_prime_base_only():
    with pytest.raises(ValueError):
        niederreiter_matrices(4, 2, 3)


def test_niederreiter_points_are_distinct_for_small_nets():
    for b, s, m in [(2, 2, 4), (3, 2, 3), (5, 3, 2)]:
        ps = niederreiter_net(b, s, m)
        assert len(set(map(tuple, ps.numerators.tolist()))) == b ** m


# ---------------------------------------------------------------------------
# Polynomial lattices
# ---------------------------------------------------------------------------

def test_polynomial_lattice_x3_is_van_der_corput_as_multiset():
    f = monomial(2, 3)
    ps = polynomial_lattice(f, [Poly.one(2)])
    vdc = niederreiter_net(2, 1, 3)
    assert sorted(ps.numerators.tolist()) == sorted(vdc.numerators.tolist())
    # but not pointwise: the index enters through its digit polynomial
    assert ps.numerators.tolist() != vdc.numerators.tolist()


def test_polynomial_lattice_agrees_with_its_net_matrices():
    rng = random.Random(20240814)
    for _ in range(20):
        b = rng.choice([2, 3, 5])
        m = rng.randint(1, 3)
        s = rng.randint(1, 3)
        f = monomial(b, m) + Poly(
            [rng.randrange(b) for _ in range(m)], b
        )
        g = [
            Poly([rng.randrange(b) for _ in range(m)], b) for _ in range(s)
        ]
        if any(gj.is_zero for gj in g):
            g = [gj + Poly.one(b) if gj.is_zero else gj for gj in g]
        ps = polynomial_lattice(f, g)
        net = digital_net(polynomial_lattice_matrices(f, g))
        assert ps.numerators.tolist() == net.numerators.tolist()
        assert ps.denominators == net.denominators


@settings(max_examples=40)
@given(
    b=st.sampled_from([2, 3, 5]),
    m=st.integers(1, 4),
    s=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(b=2, m=1, s=1, seed=0)
def test_polynomial_lattice_matches_retired_laurent_loop(b, m, s, seed):
    rng = random.Random(seed)
    # f need not be monic
    f = monomial(b, m) * rng.randrange(1, b) + Poly([rng.randrange(b) for _ in range(m)], b)
    # g_j = 0 is allowed and gives an all-zero coordinate
    g = [Poly([rng.randrange(b) for _ in range(m)], b) for _ in range(s)]
    _assert_same_points(polynomial_lattice(f, g), net_reference.polynomial_lattice(f, g))


def test_polynomial_lattice_validation():
    f = monomial(3, 2)
    with pytest.raises(ValueError):
        polynomial_lattice(f, [])
    with pytest.raises(ValueError):
        polynomial_lattice(f, [monomial(3, 2)])  # deg g == deg f
    with pytest.raises(ValueError):
        polynomial_lattice(f, [Poly.one(2)])  # modulus mismatch
    with pytest.raises(ValueError):
        polynomial_lattice(Poly.one(3), [Poly.one(3)])  # constant modulus


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_roundtrip_exact():
    ps = halton([2, 3], 7)
    text = pointset_to_csv(ps)
    assert text.splitlines()[0] == "x1,x2"
    assert "/" in text.splitlines()[1]
    back = pointset_from_csv(text, None)
    assert back.is_exact
    assert back.as_fractions() == ps.as_fractions()


def test_csv_roundtrip_float_is_bit_exact():
    ps = kronecker(["sqrt(2)", "sqrt(3)"], 9)
    back = pointset_from_csv(pointset_to_csv(ps), None)
    assert not back.is_exact
    assert back.float_rows.tolist() == ps.float_rows.tolist()


def test_csv_force_float():
    ps = lattice_points([1, 3], 4)
    text = pointset_to_csv(ps, force_float=True)
    assert "/" not in text
    back = pointset_from_csv(text, None)
    assert back.as_floats() == ps.as_floats()


def test_csv_without_header_and_empty():
    back = pointset_from_csv("1/4,1/2\n3/4,0/2\n", None)
    assert back.as_fractions() == [
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(0)),
    ]
    # a column's denominator is the lcm of the denominators written in it
    assert back.denominators == (4, 2)
    with pytest.raises(ValueError):
        pointset_from_csv("\n\n", None)


def test_csv_keeps_written_denominators():
    back = pointset_from_csv("1/2,2/4\n1/4,0/4\n", None)
    assert back.denominators == (4, 4)
    assert back.numerators.tolist() == [[2, 2], [1, 0]]
    for bad in ("1/4,1/2\n3/4\n", "1/0\n"):
        with pytest.raises(ValueError):
            pointset_from_csv(bad, None)


@pytest.mark.parametrize("b,s,m", [(2, 3, 9), (2, 4, 13), (3, 4, 9)])
def test_csv_roundtrip_keeps_net_denominators(b, s, m):
    # each of these nets has a column whose numerators all share a factor
    # with b^m; the reduced fractions would shrink its denominator
    ps = niederreiter_net(b, s, m)
    back = pointset_from_csv(pointset_to_csv(ps), None)
    assert back.denominators == ps.denominators == (b ** m,) * s
    assert back.numerators.tolist() == ps.numerators.tolist()


@pytest.mark.parametrize("block", [5, CSV_BLOCK])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_csv_render_matches_row_by_row_oracle(monkeypatch, block, s):
    # row counts around the block size, int64 numerators and Python ints
    monkeypatch.setattr(pointsets, "CSV_BLOCK", block)
    rng = random.Random(block * 10 + s)
    for wide in (False, True):
        dens = [rng.choice([1, 2, 7, 10 ** 18, 2 ** 63 - 1]) for _ in range(s)]
        if wide:
            dens[rng.randrange(s)] = rng.choice([2 ** 63, 2 ** 64 + 1])
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            ps = PointSet.exact([[rng.randrange(d) for d in dens] for _ in range(n)], dens)
            assert ps.numerators.dtype == (object if wide else np.int64)
            for force_float in (False, True):
                # compared as lines: a failing str comparison of this size diffs for minutes
                expected = csv_reference.pointset_to_csv(ps, force_float).splitlines()
                assert pointset_to_csv(ps, force_float).splitlines() == expected
                assert pointset_to_csv(ps, force_float).endswith("\n")


@pytest.mark.parametrize("n", [1, 4, 5, 6, 22])
def test_csv_render_zero_dimensional(monkeypatch, n):
    monkeypatch.setattr(pointsets, "CSV_BLOCK", 5)
    empty = np.zeros((n, 0))
    for ps in (PointSet.exact(empty.astype(np.int64), []), PointSet.floating(empty)):
        assert pointset_to_csv(ps) == csv_reference.pointset_to_csv(ps) == "\n" * (n + 1)


def test_csv_render_memory_stays_bounded():
    # the row-by-row render held 10^5 row strings and the text: 32 MB
    ps = halton([2, 3, 5, 7, 11], 100_000)
    tracemalloc.start()
    try:
        text = pointset_to_csv(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert text.count("\n") == 100_001


def test_csv_provenance_passthrough():
    ps = pointset_from_csv("0.25\n", provenance={"kind": "imported"})
    assert ps.provenance["kind"] == "imported"


# ---------------------------------------------------------------------------
# CSV parse: the array route against the general line parser
# ---------------------------------------------------------------------------

def _outcome(parse, text):
    """What parse(text) gives: the set's representation, denominators,
    dtype and values, or the type and message of the error it raises."""
    try:
        ps = parse(text, None)
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)
    if ps.is_exact:
        return "exact", ps.denominators, ps.numerators.dtype, ps.numerators.tolist()
    return "float", ps.float_rows.tolist()


def _read_file(text, provenance):
    """cli._read_points of a file holding the text's UTF-8 bytes as they are."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        return _read_points(path, provenance)


def _block_route(text, provenance):
    """The block reader alone: the set, or None where the general parser reads the text."""
    return _exact_csv(io.BytesIO(text.encode()), provenance)


def _whole_text_route(text, provenance):
    """The whole-text parse the block reader replaced, None where it raised."""
    try:
        return csv_reference.canonical_exact_csv(text, provenance)
    except ValueError:  # a numerator outside its denominator; the block reader defers it
        return None


_DENOMINATORS = st.one_of(
    st.integers(1, 64),
    st.integers(1, 10 ** 18 - 1),  # at most 18 digits: the array route's range
    st.sampled_from([10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1]),
)


@st.composite
def _exact_sets(draw, max_rows):
    dens = draw(st.lists(_DENOMINATORS, min_size=1, max_size=4))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, d - 1) for d in dens]), min_size=1, max_size=max_rows,
    ))
    return PointSet.exact(rows, dens)


@settings(max_examples=300, deadline=None)
@given(ps=_exact_sets(12))
def test_csv_array_route_matches_general_parser(ps):
    text = pointset_to_csv(ps)
    fast = _block_route(text, None)
    # every token of at most 18 digits, which needs every denominator below 10^18
    assert (fast is not None) == (max(ps.denominators) < 10 ** 18)
    oracle = _outcome(_general_csv, text)
    assert _outcome(pointset_from_csv, text) == _outcome(_read_file, text) == oracle
    assert oracle[:3] == ("exact", ps.denominators, ps.numerators.dtype)
    assert oracle[3] == ps.numerators.tolist()
    if fast is not None:
        assert _outcome(lambda t, p: fast, text) == oracle
        assert _outcome(csv_reference.canonical_exact_csv, text) == oracle


@settings(max_examples=400, deadline=None)
@given(
    ps=_exact_sets(12),
    edits=st.lists(
        st.tuples(
            st.integers(0, 10 ** 6),
            st.sampled_from("idr"),  # insert, delete, replace
            st.sampled_from("0123456789/,\n\r\t +-_.x\u00a0\uff11"),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_csvs_read_alike_through_both_routes(ps, edits):
    text = pointset_to_csv(ps)
    for pos, kind, char in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + ("" if kind == "d" else char) + text[i + (kind != "i"):]
    oracle = _outcome(_general_csv, text)
    assert _outcome(pointset_from_csv, text) == _outcome(_read_file, text) == oracle
    # the block reader takes exactly the texts the whole-text parse took, and reads them alike
    fast, whole = _block_route(text, None), _whole_text_route(text, None)
    assert (fast is None) == (whole is None)
    if fast is not None:
        assert _outcome(lambda t, p: fast, text) == _outcome(lambda t, p: whole, text) == oracle


@pytest.mark.parametrize(
    "text",
    [
        "x1\n1000000000000000000/1000000000000000001\n",  # 19 digits, int64 values
        "x1\n99999999999999999999/4\n",  # 20 digits: a numpy read saturates it
        "x1\n9223372036854775807/4\n",  # exactly 2^63 - 1
        "x1\n9223372036854775807/9223372036854775808\n",  # denominator 2^63: objects
        "x1\n1/18446744073709551616\n",
        "x1,x2\n1,4,3/4\n",
        "x1,x2\n1/2/3,4\n",
        "x1\n1/2/3,4\n",
        "x1\n+1/4\n",
        "x1\n1_0/16\n",
        "x1\n\uff11/4\n",  # fullwidth digit one
        "x1\n 1/4\n",
        "x1\n1/4 \n",
        "x1\n1 /4\n",
        "x1,x2\n1/4, 3/4\n",
        "x1\r\n1/4\r\n",
        "x1\n1/4\r\n3/4\n",
        "x1\n\n1/4\n",
        "x1\n1/4\n\n3/4\n",
        "x1\n1/4",
        "1/4\n3/4\n",
        "X1\n1/4\n",
        "x1,x2\n1/4\n",  # header wider than the rows
        "x1\n1/4\n3/8\n",  # hybrid-style mixed denominators: lcm 8
        "x1,x2\n1/2,1/3\n1/4,2/3\n",
        "x1\n1/0\n",
        "x1\n0/0\n",
        "x1\n4/4\n",
        "x1\n5/4\n",
        "x1\n/4\n",
        "x1\n1/\n",
        "x1\n1//4\n",
        "x1\n,1/4\n",
        "x1\n1/4,\n",
        "x1,x2\n1/4,3/4\n1/4\n",  # ragged
        "x1\n1/4\n3/4,1/4\n",
        "x1\n1011\n",  # one separator a row
        "x1,x2\n1/4/3\n",
        "x1\n1/4,3\n",
        "x1\n",
        "",
        "x1\n0.25\n",
        "x1\n1.0/4\n",
        "x1\n-1/4\n",
    ],
)
def test_csv_edge_texts_read_alike_through_both_routes(text):
    oracle = _outcome(_general_csv, text)
    assert _outcome(pointset_from_csv, text) == _outcome(_read_file, text) == oracle


@pytest.mark.parametrize(
    "text, token",
    [
        ("x1\n1_0/16\n", "1_0"),
        ("x1\n1/1_6\n", "1_6"),
        ("x1\n+1/4\n", "+1"),
        ("x1\n-1/4\n", "-1"),
        ("x1\n\uff11/4\n", "\uff11"),  # fullwidth digit one
        ("x1\n1/\u0664\n", "\u0664"),  # Arabic-Indic digit four
        ("x1,x2\n1/4,1_0/16\n", "1_0"),
        ("x1\n0.1_5\n", "0.1_5"),
        ("x1\n0.\uff15\n", "0.\uff15"),
        ("x1,x2\n0.25,1_0.5\n", "1_0.5"),
    ],
)
def test_csv_tokens_int_or_float_would_misread_are_errors(text, token):
    # int() and float() read these as other numbers; both routes refuse them
    for parse in (pointset_from_csv, _general_csv):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse(text, None)


def test_csv_tokens_keep_their_surrounding_whitespace():
    for text in ("x1\n 1 /4\n", "x1\n1/ 4\t\n", "x1,x2\n1/4, 3/4\n"):
        assert pointset_from_csv(text, None).numerators.tolist()[0][0] == 1
    assert pointset_from_csv("x1\n 0.25 \n", None).as_floats() == [(0.25,)]


def test_csv_array_route_reads_no_saturated_integer():
    for digits in (19, 20, 30):
        text = f"x1\n{'9' * digits}/4\n"
        assert _block_route(text, None) is None
        with pytest.raises(ValueError, match=f"numerator {'9' * digits} outside"):
            pointset_from_csv(text, None)
    big = pointset_from_csv("x1\n9223372036854775807/9223372036854775808\n", None)
    assert big.numerators.dtype == object
    assert big.numerators.tolist() == [[2 ** 63 - 1]]
    assert big.denominators == (2 ** 63,)
    # 18 digits is the largest token the array route reads
    top = 10 ** 18 - 1
    ps = _block_route(f"x1\n{top - 1}/{top}\n", None)
    assert ps.numerators.tolist() == [[top - 1]] and ps.denominators == (top,)


# a fault in the last row of a CSV that the block reader spreads over many blocks
_LAST_ROW_FAULTS = {
    "byte": lambda row: row + " ",  # the general parser strips it
    "denominator": lambda row: re.sub(r"/(\d+)", lambda m: f"/{int(m[1]) + 1}", row, count=1),
    "digits": lambda row: row.zfill(len(row) + 19 - len(row.partition("/")[0])),  # 19 digits
    "newline": lambda row: row[:-1],
}


@settings(max_examples=200, deadline=None)
@given(
    ps=_exact_sets(40),
    block=st.integers(1, 64),
    fault=st.sampled_from(sorted(_LAST_ROW_FAULTS)),
)
def test_a_fault_in_the_last_block_gives_the_general_parsers_outcome(ps, block, fault):
    # the faultless text takes the block route, and rows come before the faulty one
    assume(max(ps.denominators) < 10 ** 18 and ps.count > 1)
    text = pointset_to_csv(ps)
    head, last = text[:-1].rsplit("\n", 1)
    faulty = f"{head}\n{_LAST_ROW_FAULTS[fault](last + chr(10))}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointsets, "CSV_READ_BLOCK", block)
        assert _block_route(text, None) is not None
        assert _block_route(faulty, None) is None  # never the rows before the fault
        oracle = _outcome(_general_csv, faulty)
        assert _outcome(pointset_from_csv, faulty) == _outcome(_read_file, faulty) == oracle


@settings(max_examples=100, deadline=None)
@given(ps=_exact_sets(40), block=st.integers(1, 64))
def test_a_crlf_file_reads_as_its_lf_form(ps, block):
    # text mode translated CRLF for the parse; the bytes go to the general parser
    text = pointset_to_csv(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointsets, "CSV_READ_BLOCK", block)
        crlf = _outcome(_read_file, text.replace("\n", "\r\n"))
        assert crlf == _outcome(_read_file, text) == _outcome(_general_csv, text)


class _Pipe(io.BytesIO):
    """Bytes that read like a pipe: no seek."""

    def seekable(self):
        return False


@pytest.mark.parametrize("text,block", [(pointset_to_csv(halton([2, 3], 9)), True), ("x1\n 1/4\n1/2\n", False)])
def test_a_file_that_cannot_seek_reads_as_one_that_can(text, block):
    assert (_block_route(text, None) is not None) == block
    assert _outcome(pointsets.pointset_from_csv_file, _Pipe(text.encode())) == (
        _outcome(pointset_from_csv, text)
    )


def test_a_token_ending_on_a_block_edge_reads_whole(monkeypatch):
    ps = halton([2, 3, 5], 40)
    text = pointset_to_csv(ps)
    row = len(text.splitlines()[1]) + 1
    for block in range(1, 3 * row + 2):  # each read ends after a digit, a separator or a newline
        monkeypatch.setattr(pointsets, "CSV_READ_BLOCK", block)
        back = _block_route(text, None)
        assert back.denominators == ps.denominators
        assert back.numerators.tolist() == ps.numerators.tolist()


# ---------------------------------------------------------------------------
# Provenance: fixed when the set is built, decoded by provenance_reference
# ---------------------------------------------------------------------------

@st.composite
def built_sets(draw):
    """(a set that one construction builds, the reference it was built from)."""
    which = draw(st.sampled_from(["lattice", "digital", "digital_net", "niederreiter", "polylattice"]))
    b = draw(st.sampled_from([2, 3]))
    if which == "lattice":
        n = draw(st.integers(1, 40))
        a = draw(st.lists(st.integers(-100, 100), min_size=1, max_size=3))
        return lattice_points(a, n), ([v % n for v in a], n)
    if which == "niederreiter":
        s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return niederreiter_net(b, s, m), niederreiter_matrices(b, s, m)
    digits = st.integers(0, b - 1)
    if which == "polylattice":
        m = draw(st.integers(1, 3))
        f = Poly(draw(st.lists(digits, min_size=m, max_size=m)) + [1], b)
        g = [Poly(gj, b) for gj in draw(st.lists(st.lists(digits, max_size=m), min_size=1, max_size=3))]
        return polynomial_lattice(f, g), polynomial_lattice_matrices(f, g)
    rows = draw(st.integers(1, 3))
    cols = rows if which == "digital_net" else draw(st.integers(rows, rows + 2))
    matrix = st.lists(st.lists(digits, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    G = GeneratingMatrixSet(b, draw(st.lists(matrix, min_size=1, max_size=3)))
    if which == "digital_net":
        return digital_net(G), G
    count = draw(st.integers(1, b ** cols))
    return digital_points(G, draw(st.integers(0, b ** cols - count)), count), G


@given(built_sets())
@settings(max_examples=80)
def test_every_construction_provenance_decodes_to_its_reference(built):
    ps, ref = built
    assert provenance_reference(ps.provenance) == ref
    assert provenance_reference(json.loads(json.dumps(ps.provenance))) == ref


def test_halton_kronecker_and_hybrid_provenances_name_no_reference():
    sets = [halton([2, 3], 5), kronecker(["sqrt(2)"], 5)]
    sets += [hybrid(*sets), hybrid(lattice_points([1, 3], 5), niederreiter_net(5, 1, 1))]
    for ps in sets:
        assert provenance_reference(ps.provenance) is None
        assert provenance_reference(json.loads(json.dumps(ps.provenance))) is None


def test_provenance_is_read_only():
    ps = hybrid(niederreiter_net(2, 2, 2), lattice_points([1, 3], 4))
    writes = [
        lambda p: operator.setitem(p, "kind", "other"),
        lambda p: operator.delitem(p, "kind"),
        lambda p: operator.ior(p, {"n": 5}),
        lambda p: p.update(n=5),
        lambda p: p.setdefault("extra", 1),
        lambda p: p.pop("kind"),
        lambda p: p.popitem(),
        lambda p: p.clear(),
        lambda p: operator.setitem(p["first"], "kind", "other"),  # nested dicts too
        lambda p: operator.setitem(p["first"]["matrices"][0], 0, (1, 1)),  # lists are tuples
    ]
    for write in writes:
        with pytest.raises(TypeError):
            write(ps.provenance)
    assert ps.provenance["first"]["kind"] == "niederreiter"
    # the set keeps its own copy of the caller's dict
    mine = {"kind": "imported", "tags": [1]}
    ps = PointSet.exact([[0]], [1], provenance=mine)
    mine["kind"] = "changed"
    mine["tags"].append(2)
    assert ps.provenance == {"kind": "imported", "tags": (1,)}


def test_read_only_provenance_dumps_as_the_dict_it_was_built_from():
    G = niederreiter_matrices(3, 2, 2)
    written = {  # in the order niederreiter_net has always written its fields
        "kind": "niederreiter", "b": 3, "rows": 2, "cols": 2, "start": 0, "n": 9,
        "matrices": [[list(row) for row in mat] for mat in G.matrices], "m": 2, "s": 2,
    }
    ps = hybrid(niederreiter_net(3, 2, 2), lattice_points([1, 2], 9))
    plain = {"kind": "hybrid", "n": 9, "first": written, "second": {"kind": "lattice", "n": 9, "a": [1, 2]}}
    for options in ({}, {"sort_keys": True}, {"indent": 2, "sort_keys": True}):
        assert json.dumps(ps.provenance, **options) == json.dumps(plain, **options)


@pytest.mark.parametrize(
    "prov,error",
    [
        ({"kind": "lattice", "a": [1, 3]}, 'provenance lacks "n" for its lattice'),
        ({"kind": "lattice", "a": (1, 3.0), "n": 4}, 'field "a" must be a list of ints'),
        ({"kind": "lattice", "a": [1, 3], "n": 4.0}, 'field "n" must be an int'),
        ({"kind": "lattice", "a": [], "n": 4}, 'fields "a", "n": empty generating vector'),
        ({"b": True, "matrices": [[[1]]]}, 'field "b" must be an int'),
        ({"b": 2, "matrices": [[1]]}, 'field "matrices" must be a list of lists of lists of ints'),
        ({"b": 2, "matrices": [[[2]]]}, 'fields "b", "matrices": entry 2 outside F_2'),
        ({"kind": "polylattice", "b": 2, "f": "1,1", "g": [[1]]}, 'field "f" must be a list of ints'),
        ({"kind": "polylattice", "b": 2, "f": [1, 1], "g": [1]}, 'field "g" must be a list of lists of ints'),
        ({"kind": "polylattice", "b": 2, "f": [1, 1], "g": [[0, 1]]}, "deg g_j must be < deg f"),
    ],
)
def test_provenance_reference_names_a_bad_field(prov, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        provenance_reference(prov)
