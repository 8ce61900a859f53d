"""Point sets in [0,1)^s: rank-1 lattices, Kronecker, Halton, hybrid
sequences, digital nets, Niederreiter sequences, polynomial lattices.

Exactness policy: every construction whose coordinates are rational emits
exact points as integer numerators over one denominator per coordinate,
never floats.  Kronecker sequences are inherently irrational and are carried
as 128-bit fixed-point fractions rendered to floats.  Digital constructions
insist on prime bases; the digit bijection is the identity, and row 1 of a
generating matrix feeds the most significant digit b^(-1).
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .algebra import Poly, check_prime, laurent_expand, monic_irreducibles

__all__ = [
    "PointSet",
    "lattice_points",
    "alpha_fixed_point",
    "kronecker",
    "halton",
    "hybrid",
    "GeneratingMatrixSet",
    "digital_points",
    "digital_net",
    "niederreiter_matrices",
    "niederreiter_net",
    "polynomial_lattice_matrices",
    "polynomial_lattice",
    "provenance_reference",
    "pointset_to_csv",
    "csv_blocks",
    "pointset_from_csv",
    "pointset_from_csv_file",
]

FIXED_POINT_BITS = 128
CSV_BLOCK = 1 << 12  # rows of an exact CSV rendered as one byte array
CSV_READ_BLOCK = 1 << 16  # bytes of a CSV file read, checked and converted at a time


def _int_dtype(bound: int):
    """int64 when `bound` fits in it, else Python ints (dtype object)."""
    return np.int64 if bound < 1 << 63 else object


def _frozen_rows(rows, dtype, width: Optional[int], ragged: str) -> np.ndarray:
    """A fresh read-only (N, width) array of the rows; width None accepts
    the rows' own, and ragged rows fail on their shape.  Integer rows
    (dtype int64 or object) come from a numpy integer array that int64
    holds, or else are each an int as _ints reads it; one beyond int64
    stays a Python int that fails the caller's range check with its own
    message."""
    exact = dtype is not np.float64
    fast = isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.dtype != np.uint64
    try:
        arr = np.array(rows, dtype=object if exact and not fast else dtype)
    except (OverflowError, ValueError):
        arr = np.array(rows, dtype=object)
    if arr.shape == (0,):
        arr = arr.reshape(0, width or 0)
    if arr.ndim != 2 or width is not None and arr.shape[1] != width:
        raise ValueError(ragged)
    if exact and not fast:
        values = _ints(arr.ravel().tolist(), "numerator {!r} is not an integer")
        try:
            arr = np.array(values, dtype=dtype).reshape(arr.shape)
        except OverflowError:
            arr = np.array(values, dtype=object).reshape(arr.shape)
    arr.flags.writeable = False
    return arr


def _ints(values: Iterable, message: str) -> list[int]:
    """The values as Python ints when each is an int, never a bool, float,
    Fraction or string; else ValueError(message.format(the first that is not))."""
    values = list(values)
    if set(map(type, values)) - {int}:  # the type test alone keeps plain ints fast
        bad = [v for v in values if not _nested_ints(v, 0)]
        if bad:
            raise ValueError(message.format(bad[0]))
        values = [int(v) for v in values]
    return values


class _ReadOnlyDict(dict):
    """A dict that refuses every change; json.dumps writes it as any dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a point set's provenance is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


def _frozen(value):
    """value with its dicts made read-only and its lists tuples, at every depth."""
    if isinstance(value, dict):
        return _ReadOnlyDict((key, _frozen(v)) for key, v in value.items())
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


class PointSet:
    """Immutable container for N points in [0,1)^s.

    An exact set stores an (N, s) array of integer numerators with one
    denominator per coordinate: point i, coordinate j is
    numerators[i, j] / denominators[j].  The array is int64 when every
    denominator is below 2^63 and holds Python ints (dtype object)
    otherwise.  A float set stores an (N, s) float64 array, float_rows.
    Both arrays are read-only copies of what the caller passed, validated
    as whole arrays by the constructors exact and floating; only the CSV
    reader fills an instance with the array it checked block by block.
    Provenance is a small JSON-ready dict recording how the set was built,
    fixed with it (read-only dicts, lists as tuples).
    """

    @classmethod
    def exact(cls, numerators, denominators, provenance=None) -> "PointSet":
        dens = tuple(_ints(denominators, "denominator {!r} is not an int"))
        if any(d < 1 for d in dens):
            raise ValueError("denominators must be >= 1")
        nums = _frozen_rows(
            numerators,
            _int_dtype(max(dens, default=1)),
            len(dens),
            "row width != number of denominators",
        )
        inside = (nums >= 0) & (nums < np.array(dens, dtype=nums.dtype))
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise ValueError(f"numerator {nums[i, j]} outside [0, {dens[j]})")
        return cls()._fill(nums, dens, None, provenance)

    @classmethod
    def floating(cls, rows, provenance=None) -> "PointSet":
        rows = _frozen_rows(rows, np.float64, None, "ragged rows")
        inside = (rows >= 0.0) & (rows < 1.0)  # False at NaN too
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise ValueError(f"coordinate {rows[i, j]} outside [0, 1)")
        return cls()._fill(None, None, rows, provenance)

    def _fill(self, numerators, denominators, float_rows, provenance) -> "PointSet":
        self.numerators = numerators
        self.denominators = denominators
        self.float_rows = float_rows
        self.provenance = _frozen(provenance or {})
        self.count, self.dim = (float_rows if numerators is None else numerators).shape
        return self

    @property
    def is_exact(self) -> bool:
        return self.float_rows is None

    @property
    def representation(self) -> str:
        return "exact_rational" if self.is_exact else "float"

    def __len__(self) -> int:
        return self.count

    def as_floats(self) -> list[tuple[float, ...]]:
        # Python's int / int rounds correctly; numpy's division would not
        # for numerators above 2^53
        if self.is_exact:
            dens = self.denominators
            return [
                tuple(v / d for v, d in zip(row, dens))
                for row in self.numerators.tolist()
            ]
        return [tuple(row) for row in self.float_rows.tolist()]

    def as_fractions(self) -> list[tuple[Fraction, ...]]:
        if not self.is_exact:
            raise ValueError("float point set has no exact fractions")
        dens = self.denominators
        return [
            tuple(Fraction(v, d) for v, d in zip(row, dens))
            for row in self.numerators.tolist()
        ]

    def __repr__(self):
        return (
            f"PointSet(n={self.count}, s={self.dim}, "
            f"{self.representation}, {self.provenance.get('kind', '?')})"
        )


# ---------------------------------------------------------------------------
# Rank-1 lattice rules
# ---------------------------------------------------------------------------

def _lattice_generator(a: Sequence[int], n: int) -> list[int]:
    """The generating vector a reduced mod n, for an int n >= 1 and a nonempty a of ints."""
    if _ints([n], "n {!r} is not an int")[0] < 1:
        raise ValueError("need n >= 1")
    if not a:
        raise ValueError("empty generating vector")
    return [v % n for v in _ints(a, "generating vector entry {!r} is not an int")]


def lattice_points(a: Sequence[int], n: int) -> PointSet:
    """Rank-1 lattice {({k a_1/n}, ..., {k a_s/n}) : k = 0..n-1}, exact."""
    avec = _lattice_generator(a, n)
    provenance = {"kind": "lattice", "n": n, "a": list(avec)}
    return PointSet.exact(_lattice_numerators(avec, n, 0, n), [n] * len(avec), provenance=provenance)


def _lattice_numerators(avec: list[int], n: int, start: int, count: int) -> np.ndarray:
    """The numerators k a mod n of lattice points k = start..start+count-1, a reduced mod n."""
    k = _index_range(start, count, n * n)  # k * a_j stays below n^2
    return k[:, None] * np.array(avec, dtype=k.dtype) % n


# ---------------------------------------------------------------------------
# Kronecker sequences
# ---------------------------------------------------------------------------

def alpha_fixed_point(alpha) -> int:
    """floor(frac(alpha) * 2^FIXED_POINT_BITS) for alpha given exactly.

    Accepted forms: "sqrt(d)" for an integer d >= 0 (computed by integer
    square root, so the full bit budget is correct), any decimal string
    Fraction() accepts ("1.41421", "239/169"), a Fraction, or an int.
    Binary floats are rejected: their rounding error would silently poison
    the fixed-point value.
    """
    if isinstance(alpha, float):
        raise TypeError(
            "float alpha is ambiguous; pass a string like 'sqrt(2)' or '1.41421'"
        )
    if isinstance(alpha, int):
        return 0
    if isinstance(alpha, str):
        text = alpha.strip().lower()
        if text.startswith("sqrt(") and text.endswith(")"):
            d = int(text[5:-1])
            if d < 0:
                raise ValueError(f"sqrt of negative: {alpha!r}")
            root = math.isqrt(d << (2 * FIXED_POINT_BITS))
            return root & ((1 << FIXED_POINT_BITS) - 1)
        alpha = Fraction(text)
    if isinstance(alpha, Fraction):
        frac = alpha - math.floor(alpha)
        return (frac.numerator << FIXED_POINT_BITS) // frac.denominator
    raise TypeError(f"unsupported alpha {alpha!r}")


def kronecker(alphas: Sequence, n: int, start: int = 0) -> PointSet:
    """Kronecker sequence x_k = ({k alpha_1}, ..., {k alpha_s}) as floats.

    Each alpha is reduced to a 128-bit fixed-point fraction; multiplication
    and the fractional part are then exact integer operations, and only the
    final division to a float rounds (error < 2^-52, far below the 2^-128
    grid).  Irrational alphas come in as "sqrt(d)" strings.
    """
    n, start = _ints([n, start], "n and start must be ints, not {!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if not alphas:
        raise ValueError("empty list of alphas")
    fixed = [alpha_fixed_point(al) for al in alphas]
    mask = (1 << FIXED_POINT_BITS) - 1
    scale = float(1 << FIXED_POINT_BITS)
    rows = [
        [((k * aj) & mask) / scale for aj in fixed]
        for k in range(start, start + n)
    ]
    return PointSet.floating(
        rows,
        provenance={
            "kind": "kronecker",
            "n": n,
            "start": start,
            "alphas": [str(al) for al in alphas],
            "bits": FIXED_POINT_BITS,
        },
    )


# ---------------------------------------------------------------------------
# Halton sequences
# ---------------------------------------------------------------------------

def halton(bases: Sequence[int], n: int, start: int = 0) -> PointSet:
    """First n Halton points x_k (k = start..start+n-1), exact.

    Coordinate j is the radical inverse of k in bases[j].  Bases must be
    pairwise coprime.  Each coordinate's denominator is the power b_j^L
    needed for the largest index, so a column shares one denominator.  A
    numerator is k's L base-b digits reversed; with k = k_hi b^h + k_lo and
    b^(2h) <= n, that is rev_h(k_lo) b^(L-h) + rev_(L-h)(k_hi), so a column
    is one broadcast sum of two digit-reversal tables of about sqrt(n)
    entries each, split as _digital_numerators splits its indices.
    """
    n, start = _ints([n, start], "n and start must be ints, not {!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if start < 0:
        raise ValueError("need start >= 0")
    if not bases:
        raise ValueError("empty list of bases")
    blist = _ints(bases, "base {!r} is not an int")
    if any(b < 2 for b in blist):
        raise ValueError("bases must be >= 2")
    for i in range(len(blist)):
        for j in range(i + 1, len(blist)):
            if math.gcd(blist[i], blist[j]) != 1:
                raise ValueError(f"bases {blist[i]} and {blist[j]} share a factor")
    last = start + n - 1
    dens = []
    for b in blist:
        den = b
        while den <= last:
            den *= b
        dens.append(den)
    top = max(dens)
    columns = np.empty((len(blist), n), dtype=_int_dtype(top))
    for column, b, den in zip(columns, blist, dens):
        h, hi_first, hi_count = _index_halves(b, start, n)
        block = b ** h
        lo = _reversed_digits(_index_range(0, block, top), b, block) * (den // block)
        hi = _reversed_digits(_index_range(hi_first, hi_count, top), b, den // block)
        column[:] = (hi[:, None] + lo).ravel()[start % block : start % block + n]
    return PointSet.exact(
        columns.T,
        dens,
        provenance={
            "kind": "halton",
            "n": n,
            "start": start,
            "bases": blist,
            "coprime_checked": True,
        },
    )


# ---------------------------------------------------------------------------
# Hybrid sequences
# ---------------------------------------------------------------------------

def hybrid(first: PointSet, second: PointSet) -> PointSet:
    """Concatenate coordinates of two equally long point sets.

    If both inputs are exact the hybrid stays exact; mixing with a float
    set drops to floats (the exact half is rendered, the other half was
    never exact to begin with).
    """
    if first.count != second.count:
        raise ValueError(f"point counts differ: {first.count} vs {second.count}")
    prov = {
        "kind": "hybrid",
        "n": first.count,
        "first": first.provenance,
        "second": second.provenance,
    }
    if first.is_exact and second.is_exact:
        return PointSet.exact(
            np.hstack([first.numerators, second.numerators]),
            first.denominators + second.denominators,
            provenance=prov,
        )
    # as_floats renders an exact half with correctly rounded divisions
    halves = [np.reshape(ps.as_floats(), (ps.count, ps.dim)) for ps in (first, second)]
    return PointSet.floating(np.hstack(halves), provenance=prov)


# ---------------------------------------------------------------------------
# Digital nets over F_b
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingMatrixSet:
    """s generating matrices over F_b, each rows x cols.

    Row i (1-based) produces the digit multiplying b^(-i); column r
    (0-based) multiplies digit n_r of the point index.  Square m x m
    matrices generate nets with b^m points; rows < cols arise from
    sequences, where extra columns consume the higher index digits.
    """

    b: int
    matrices: Iterable[Iterable[Iterable[int]]]  # stored as tuples of tuples of ints

    def __post_init__(self):
        check_prime(self.b)
        mats = tuple(
            tuple(tuple(_ints(row, "entry {!r} is not an int")) for row in mat)
            for mat in self.matrices
        )
        object.__setattr__(self, "matrices", mats)  # any nested iterables, stored as tuples
        shapes = {(len(mat), len(mat[0]) if mat else 0) for mat in mats}
        if len(shapes) > 1:
            raise ValueError(f"inconsistent matrix shapes: {shapes}")
        if not shapes or 0 in shapes.pop():
            raise ValueError("need at least one matrix, with a row and a column")
        if any(len(row) != len(mat[0]) for mat in mats for row in mat):
            raise ValueError("ragged matrix")
        outside = [v for mat in mats for row in mat for v in row if not 0 <= v < self.b]
        if outside:
            raise ValueError(f"entry {outside[0]} outside F_{self.b}")

    @property
    def s(self) -> int:
        return len(self.matrices)

    @property
    def rows(self) -> int:
        return len(self.matrices[0])

    @property
    def cols(self) -> int:
        return len(self.matrices[0][0])


def _index_range(start: int, count: int, bound: int) -> np.ndarray:
    """Indices start..start+count-1 as an int64 array, or as Python ints
    (dtype object) when they or a result below `bound` could reach 2^63."""
    return np.arange(count, dtype=_int_dtype(max(bound, start + count - 1))) + start


def _index_halves(b: int, start: int, count: int) -> tuple[int, int, int]:
    """Each index k = start..start+count-1 split as k_hi b^h + k_lo, h the
    largest with b^(2h) <= count (h = 0 keeps every k whole): h, the first
    k_hi and the number of k_hi, so tables over all b^h low halves and the
    high halves in the range hold about 2 sqrt(count) entries."""
    h = 0
    while b ** (2 * h + 2) <= count:
        h += 1
    hi_first = start // b ** h
    return h, hi_first, (start + count - 1) // b ** h - hi_first + 1


def _reversed_digits(k: np.ndarray, b: int, den: int) -> np.ndarray:
    """The base-b digits of each k, as many as the power den of b has,
    in reverse order: k's radical inverse scaled to den, for k < den."""
    out = np.zeros_like(k)
    while den > 1:
        out *= b
        out += k % b
        k = k // b
        den //= b
    return out


def _digit_table(rows: list, b: int, first: int, count: int) -> np.ndarray:
    """The digits of C k for k = first..first+count-1, one matrix row of
    `rows` (each as long as k has digits) per table row: a (len(rows), count)
    array of the matrix product mod b, int64 for b < 2^63 and Python ints
    (dtype object) beyond."""
    cols = len(rows[0])
    # the product holds b and row-times-digits dot products up to cols (b - 1)^2
    k = _index_range(first, count, max(b, cols * (b - 1) ** 2 + 1))
    digits = np.empty((cols, count), dtype=k.dtype)
    for r in range(cols):
        digits[r] = k % b
        k //= b
    return (np.array(rows, dtype=k.dtype) @ digits % b).astype(_int_dtype(b))


def digital_points(G: GeneratingMatrixSet, start: int, count: int) -> PointSet:
    """Digital points x_k for k = start..start+count-1, exact.

    Index digits (least significant first) fill the column vector; matrix
    rows give base-b digits of the coordinate, row 1 being the most
    significant.  Denominator is b^rows for every coordinate.
    """
    return _digital_set(G, *_ints([start, count], "start and count must be ints, not {!r}"))


def _digital_set(G: GeneratingMatrixSet, start: int, count: int, **fields) -> PointSet:
    """digital_points(G, start, count), `fields` added to or overriding its provenance."""
    recorded = dict(kind="digital", b=G.b, rows=G.rows, cols=G.cols, start=start, n=count)
    return PointSet.exact(
        _digital_numerators(G, start, count),
        [G.b ** G.rows] * G.s,
        provenance={**recorded, "matrices": G.matrices, **fields},
    )


def _digital_numerators(G: GeneratingMatrixSet, start: int, count: int) -> np.ndarray:
    """The (count, s) numerators of digital_points(G, start, count).

    k -> C k is linear over F_b, so with k = k_hi b^h + k_lo the digits of
    x_k are T_lo[k_lo] + T_hi[k_hi] mod b: T_lo holds C times all b^h low
    halves, T_hi C times the high halves in the range, both by the matrix
    product.  h is the largest with b^h <= sqrt(count) (h = 0 is the plain
    product over every index), so the tables hold about 2 sqrt(count)
    indices, and each point costs one addition and one reduction of int64
    digits per matrix row and one Horner step over the rows.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    if start < 0:
        raise ValueError("need start >= 0")
    b = G.b
    rows_n, cols = G.rows, G.cols
    if start + count - 1 >= b ** cols:
        raise ValueError(
            f"index {start + count - 1} does not fit in {cols} base-{b} digits"
        )
    h, hi_first, hi_count = _index_halves(b, start, count)
    block = b ** h
    stacked = [row for mat in G.matrices for row in mat]
    t_lo = _digit_table([row[:h] for row in stacked], b, 0, block)
    t_hi = _digit_table([row[h:] for row in stacked], b, hi_first, hi_count)
    columns = np.zeros((G.s, count), dtype=_int_dtype(b ** rows_n))
    tables = zip(t_lo.reshape(G.s, rows_n, block), t_hi.reshape(G.s, rows_n, hi_count))
    for column, (lo, hi) in zip(columns, tables):
        # Horner over the matrix rows, most significant digit first
        for lo_row, hi_row in zip(lo, hi):
            digits = (hi_row[:, None] + lo_row).ravel()[start % block : start % block + count]
            if h:  # b^2 <= count, so b < 2^32: read as uint64, d - b wraps above d unless d >= b
                wrapped = digits.view(np.uint64)
                np.minimum(wrapped, wrapped - b, out=wrapped)
            column *= b
            column += digits
    return columns.T


def digital_net(G: GeneratingMatrixSet) -> PointSet:
    """The net of all b^m points of a square m x m matrix set."""
    if G.rows != G.cols:
        raise ValueError(f"digital net needs square matrices, got {G.rows}x{G.cols}")
    return _digital_set(G, 0, G.b ** G.rows, kind="digital_net", m=G.rows)


# ---------------------------------------------------------------------------
# Niederreiter sequences
# ---------------------------------------------------------------------------

def niederreiter_matrices(
    b: int, s: int, rows: int, cols: Optional[int] = None
) -> GeneratingMatrixSet:
    """Generating matrices of the Niederreiter sequence in prime base b.

    Coordinate j uses the j-th monic irreducible p_j over F_b (enumerated by
    degree, then constant-first lex).  With e_j = deg p_j and
    i - 1 = Q e_j + u (0 <= u < e_j), row i is

        C_j[i][r] = coefficient of x^(-r-1) in x^u / p_j(x)^(Q+1),

    which is the coefficient of x^(-r-u-1) in 1 / p_j^(Q+1).  So the e_j rows
    of one Q are windows of one expansion.

    The quality parameter satisfies t <= sum_j (e_j - 1); for s <= b all
    p_j are linear and t = 0.
    """
    check_prime(b)
    if s < 1:
        raise ValueError("need s >= 1")
    if rows < 1:
        raise ValueError("need rows >= 1")
    cols = rows if cols is None else cols
    if cols < rows:
        raise ValueError("cols must be >= rows")
    mats = []
    for pj in monic_irreducibles(b, s):
        e = pj.degree
        power = Poly.one(b)
        mat = []
        while len(mat) < rows:
            power = power * pj
            c = laurent_expand(Poly.one(b), power, order=1 - cols - e)
            mat.extend(c[u : u + cols] for u in range(e))
        mats.append(tuple(mat[:rows]))
    return GeneratingMatrixSet(b=b, matrices=tuple(mats))


def niederreiter_net(b: int, s: int, m: int) -> PointSet:
    """First b^m Niederreiter points truncated to m digits: a (t, m, s)-net."""
    G = niederreiter_matrices(b, s, rows=m, cols=m)
    return _digital_set(G, 0, b ** m, kind="niederreiter", m=m, s=s)


# ---------------------------------------------------------------------------
# Polynomial lattice point sets
# ---------------------------------------------------------------------------

def polynomial_lattice_matrices(f: Poly, g: Sequence[Poly]) -> GeneratingMatrixSet:
    """The digital-net matrices of a polynomial lattice:
    C_j[i][r] = coefficient of x^(-i) in x^r * g_j(x) / f(x), which is the
    coefficient of x^(-(i + r)) in g_j / f.  So each C_j is a Hankel matrix
    read off one Laurent expansion of g_j / f."""
    m = f.degree
    if m < 1:
        raise ValueError("modulus f must have degree >= 1")
    if not g:
        raise ValueError("empty generating vector")
    b = f.p
    mats = []
    for gj in g:
        if gj.p != b:
            raise ValueError("g_j modulus differs from f")
        if not gj.is_zero and gj.degree >= m:
            raise ValueError("deg g_j must be < deg f")
        c = laurent_expand(gj, f, order=1 - 2 * m)
        mats.append([c[i : i + m] for i in range(m)])
    return GeneratingMatrixSet(b, mats)


def polynomial_lattice(f: Poly, g: Sequence[Poly]) -> PointSet:
    """Polynomial lattice point set: for every polynomial n(x) of degree < m
    over F_b, coordinate j is v_m(n(x) g_j(x) / f(x)) where v_m keeps the
    x^-1..x^-m coefficients as base-b digits.  Exact, b^m points, built as
    the digital net of polynomial_lattice_matrices(f, g)."""
    G = polynomial_lattice_matrices(f, g)
    b, m = G.b, G.cols
    return PointSet.exact(
        _digital_numerators(G, 0, b ** m),
        [b ** m] * G.s,
        provenance=dict(kind="polylattice", b=b, m=m, f=f.coeffs, g=[gj.coeffs for gj in g]),
    )


# ---------------------------------------------------------------------------
# The reference a provenance names
# ---------------------------------------------------------------------------

# what a provenance names -> ({field: depth of lists around its ints}, reference builder)
_REFERENCES = {
    "lattice": ({"a": 1, "n": 0}, lambda a, n: (_lattice_generator(a, n), n)),
    "matrices": ({"b": 0, "matrices": 3}, GeneratingMatrixSet),
    "polylattice": (
        {"b": 0, "f": 1, "g": 2},
        lambda b, f, g: polynomial_lattice_matrices(Poly(f, b), [Poly(gj, b) for gj in g]),
    ),
}


def provenance_reference(prov: Mapping) -> tuple[list[int], int] | GeneratingMatrixSet | None:
    """The reference a provenance names: a lattice's (a, n), a reduced mod
    n; the generating matrices a digital set records, or a polynomial
    lattice's from its f and g; None for any other set.  The one reader of
    provenance fields: a field that is missing, of the wrong type or out of
    range raises ValueError naming it."""
    what = "matrices" if "matrices" in prov else prov.get("kind")
    if what not in _REFERENCES:
        return None
    fields, build = _REFERENCES[what]
    for name, depth in fields.items():
        if name not in prov:
            raise ValueError(f'provenance lacks "{name}" for its {what}')
        if not _nested_ints(prov[name], depth):
            kind = "a list of " + "lists of " * (depth - 1) + "ints" if depth else "an int"
            raise ValueError(f'provenance field "{name}" must be {kind}')
    try:
        return build(*(prov[name] for name in fields))
    except ValueError as exc:
        named = ", ".join(f'"{name}"' for name in fields)
        raise ValueError(f"provenance fields {named}: {exc}") from None


def _nested_ints(value, depth: int) -> bool:
    """Is value an int, not a bool (depth 0), or a list or tuple of depth - 1 ones?"""
    if depth == 0:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return isinstance(value, (list, tuple)) and all(_nested_ints(v, depth - 1) for v in value)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def pointset_to_csv(ps: PointSet, force_float: bool = False) -> str:
    """Render as CSV, one column per coordinate, header x1..xs: the pieces
    of csv_blocks joined."""
    return "".join(csv_blocks(ps, force_float))


def csv_blocks(ps: PointSet, force_float: bool) -> Iterator[str]:
    """pointset_to_csv's text in pieces, so a writer never holds all of it.

    Exact sets write num/den tokens unless force_float, CSV_BLOCK rows a
    piece, each rendered from the block's numerators as one byte array
    (_exact_rows), so no per-token Python object is made; float sets write
    repr() so the round trip is bit-exact, in one piece, as as_floats holds
    every row.  A zero-dimensional set writes empty rows through either.
    """
    yield _csv_header(ps.dim) + "\n"
    if ps.is_exact and not force_float and ps.dim:
        dens = ps.denominators
        width = len(str(max(dens) - 1))  # digits of the longest numerator
        tokens = [f"/{d},".encode() for d in dens[:-1]] + [f"/{dens[-1]}\n".encode()]
        size = max(map(len, tokens))
        padded = b"".join(token.ljust(size, bytes([_DROPPED])) for token in tokens)
        tails = np.frombuffer(padded, dtype=np.uint8).reshape(ps.dim, size)
        for lo in range(0, ps.count, CSV_BLOCK):
            yield _exact_rows(ps.numerators[lo : lo + CSV_BLOCK], width, tails).decode()
    else:
        yield "".join(",".join(map(repr, row)) + "\n" for row in ps.as_floats())


# A byte no token holds: it marks a cell's leading zeros and padding, and
# the render deletes it; the digit values 0..9 become their ASCII bytes.
_DROPPED = 0xFF
_DIGITS_TO_ASCII = bytes.maketrans(bytes(range(10)), b"0123456789")
_LIMB_DIGITS = 9  # places rendered at a time: below 10^9, they fit in uint32


def _exact_rows(block: np.ndarray, width: int, tails: np.ndarray) -> bytes:
    """The CSV rows of a (k, s) block of numerators, int64 or Python ints,
    each below 10^width: one (s, width + tail width, k) byte array of
    cells, column j's numerators right-aligned in `width` places and then
    its "/den," or "/den\\n" from `tails` (padded with _DROPPED).  The
    numerators are taken _LIMB_DIGITS places at a time as uint32, so no
    place runs on Python ints; one x // 10 pass per place writes the
    digits, least significant first, and marks a place _DROPPED where
    nothing of the numerator is left from it up (a leading zero; the units
    place always stays).  The rows are the cells read row by row with the
    marks deleted."""
    cells = np.empty((len(tails), width + tails.shape[1], len(block)), dtype=np.uint8)
    cells[:, width:] = tails[:, :, None]
    rest = block.T
    for low in range(0, width, _LIMB_DIGITS):
        top = low + _LIMB_DIGITS >= width
        limb, rest = (rest, 0) if top else (rest % 10 ** _LIMB_DIGITS, rest // 10 ** _LIMB_DIGITS)
        limb = limb.astype(np.uint32)
        for place in range(low, min(low + _LIMB_DIGITS, width)):
            digits = cells[:, width - 1 - place]
            higher = limb // 10
            np.subtract(limb, higher * 10, out=digits, casting="unsafe")
            if place:
                np.copyto(digits, _DROPPED, where=limb == 0 if top else (limb == 0) & (rest == 0))
            limb = higher
    return cells.transpose(2, 0, 1).tobytes().translate(_DIGITS_TO_ASCII, bytes([_DROPPED]))


def _csv_header(dim: int) -> str:
    return ",".join(f"x{j + 1}" for j in range(dim))


def pointset_from_csv(text: str, provenance: Optional[dict]) -> PointSet:
    """pointset_from_csv_file of the text's bytes."""
    return pointset_from_csv_file(io.BytesIO(text.encode()), provenance)


def pointset_from_csv_file(fh: BinaryIO, provenance: Optional[dict]) -> PointSet:
    """Parse the CSV format back from a binary file: num/den tokens rebuild
    an exact set (one denominator per column, the lcm of those written in
    it), plain decimals rebuild floats.  csvread.exact_csv reads the exact
    layout pointset_to_csv writes, CSV_READ_BLOCK bytes at a time, parsing
    only the numerators; other text is decoded for the line parser.  A
    stream that cannot seek is read whole first, as the line parser may
    need its text after the block reader has read it."""
    from .csvread import exact_csv  # loaded by the first read

    if not fh.seekable():
        fh = io.BytesIO(fh.read())
    ps = exact_csv(fh, provenance, CSV_READ_BLOCK)
    if ps is None:
        fh.seek(0)
        return _general_csv(fh.read().decode(), provenance)
    return ps


def _general_csv(text: str, provenance: Optional[dict]) -> PointSet:
    """Line-by-line parser for every CSV: headers or none, blank lines,
    whitespace, floats, mixed denominators and integers of any size."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    body = lines[1:] if lines[0].lower().startswith("x1") else lines
    if not body:
        raise ValueError("CSV has no data rows")
    exact = "/" in body[0]
    if not exact:
        rows = [[_csv_token(tok, float) for tok in ln.split(",")] for ln in body]
        return PointSet.floating(rows, provenance=provenance)
    # written, not reduced, denominators: a column whose numerators all
    # share a factor with the denominator keeps its grid.  Rows with the
    # same written denominators share one key tuple, so memory stays at
    # the numerators whatever the row count.
    nums = []
    row_keys = []
    keys: dict[tuple, tuple] = {}
    for ln in body:
        toks = [tok.partition("/") for tok in ln.split(",")]
        nums.append([_csv_token(num, int) for num, _, _ in toks])
        key = tuple(den for _, _, den in toks)
        row_keys.append(keys.setdefault(key, key))
    dim = len(nums[0])
    if any(len(key) != dim for key in keys):
        raise ValueError("ragged rows")
    written = {key: [_csv_token(w, int) for w in key] for key in keys}
    if any(d < 1 for ints in written.values() for d in ints):
        raise ValueError("denominators must be >= 1")
    dens = [math.lcm(*column) for column in zip(*written.values())]
    for row, key in zip(nums, row_keys):
        if written[key] != dens:
            row[:] = [v * (den // d) for v, den, d in zip(row, dens, written[key])]
    return PointSet.exact(nums, dens, provenance=provenance)


def _csv_token(tok: str, kind: type):
    """An ASCII token with whitespace around it, an exact one digits only;
    int() and float() alone also read signs, underscores and other digits."""
    bare = tok.strip()
    if not bare.isascii() or "_" in bare or kind is int and not bare.isdigit():
        raise ValueError(f"CSV token {tok!r} is not an ASCII {kind.__name__}")
    return kind(bare)
