"""Point sets in [0,1)^s: rank-1 lattices, Kronecker, Halton, hybrid
sequences, digital nets, Niederreiter sequences, polynomial lattices.

Exactness policy: every construction whose coordinates are rational emits
EXACT_RATIONAL points as integer numerators over one denominator per
coordinate, never floats.  Kronecker sequences are inherently irrational and
are carried as 128-bit fixed-point fractions rendered to floats.  Digital
constructions insist on prime bases; the digit bijection is the identity,
and row 1 of a generating matrix feeds the most significant digit b^(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import Poly, check_prime, laurent_expand, monic_irreducibles

__all__ = [
    "Representation",
    "PointSet",
    "lattice_points",
    "alpha_fixed_point",
    "kronecker",
    "radical_inverse",
    "halton",
    "hybrid",
    "GeneratingMatrixSet",
    "digital_points",
    "digital_net",
    "niederreiter_matrices",
    "niederreiter_net",
    "polynomial_lattice_matrices",
    "polynomial_lattice",
    "pointset_to_csv",
    "pointset_from_csv",
]

FIXED_POINT_BITS = 128


class Representation(Enum):
    EXACT_RATIONAL = "exact_rational"
    FLOAT = "float"


class PointSet:
    """Immutable container for N points in [0,1)^s.

    EXACT_RATIONAL sets store integer numerators with one denominator per
    coordinate (point i, coordinate j is numerators[i][j]/denominators[j]);
    FLOAT sets store float rows.  Provenance is a small JSON-ready dict
    recording how the set was built.
    """

    def __init__(
        self,
        *,
        representation: Representation,
        numerators: Optional[Sequence[Sequence[int]]] = None,
        denominators: Optional[Sequence[int]] = None,
        float_rows: Optional[Sequence[Sequence[float]]] = None,
        provenance: Optional[dict] = None,
    ):
        self.representation = representation
        self.provenance = dict(provenance or {})
        if representation is Representation.EXACT_RATIONAL:
            if numerators is None or denominators is None:
                raise ValueError("exact point sets need numerators and denominators")
            dens = tuple(int(d) for d in denominators)
            if any(d < 1 for d in dens):
                raise ValueError("denominators must be >= 1")
            rows = tuple(tuple(int(v) for v in row) for row in numerators)
            for row in rows:
                if len(row) != len(dens):
                    raise ValueError("row width != number of denominators")
                for v, d in zip(row, dens):
                    if not 0 <= v < d:
                        raise ValueError(f"numerator {v} outside [0, {d})")
            self.numerators = rows
            self.denominators = dens
            self.float_rows = None
            self.dim = len(dens)
            self.count = len(rows)
        elif representation is Representation.FLOAT:
            if float_rows is None:
                raise ValueError("float point sets need float_rows")
            rows = tuple(tuple(float(v) for v in row) for row in float_rows)
            widths = {len(r) for r in rows}
            if len(widths) > 1:
                raise ValueError("ragged rows")
            for row in rows:
                for v in row:
                    if not 0.0 <= v < 1.0:
                        raise ValueError(f"coordinate {v} outside [0, 1)")
            self.float_rows = rows
            self.numerators = None
            self.denominators = None
            self.dim = len(rows[0]) if rows else 0
            self.count = len(rows)
        else:  # pragma: no cover
            raise ValueError(f"unknown representation {representation!r}")

    @classmethod
    def exact(cls, numerators, denominators, provenance=None) -> "PointSet":
        return cls(
            representation=Representation.EXACT_RATIONAL,
            numerators=numerators,
            denominators=denominators,
            provenance=provenance,
        )

    @classmethod
    def floating(cls, rows, provenance=None) -> "PointSet":
        return cls(
            representation=Representation.FLOAT,
            float_rows=rows,
            provenance=provenance,
        )

    @property
    def is_exact(self) -> bool:
        return self.representation is Representation.EXACT_RATIONAL

    def __len__(self) -> int:
        return self.count

    def as_floats(self) -> list[tuple[float, ...]]:
        if self.is_exact:
            dens = self.denominators
            return [tuple(v / d for v, d in zip(row, dens)) for row in self.numerators]
        return list(self.float_rows)

    def as_fractions(self) -> list[tuple[Fraction, ...]]:
        if not self.is_exact:
            raise ValueError("float point set has no exact fractions")
        dens = self.denominators
        return [
            tuple(Fraction(v, d) for v, d in zip(row, dens))
            for row in self.numerators
        ]

    def __repr__(self):
        return (
            f"PointSet(n={self.count}, s={self.dim}, "
            f"{self.representation.value}, {self.provenance.get('kind', '?')})"
        )


# ---------------------------------------------------------------------------
# Rank-1 lattice rules
# ---------------------------------------------------------------------------

def lattice_points(a: Sequence[int], n: int) -> PointSet:
    """Rank-1 lattice {({k a_1/n}, ..., {k a_s/n}) : k = 0..n-1}, exact."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not a:
        raise ValueError("empty generating vector")
    avec = [int(v) % n for v in a]
    rows = [[k * aj % n for aj in avec] for k in range(n)]
    return PointSet.exact(
        rows,
        [n] * len(avec),
        provenance={"kind": "lattice", "n": n, "a": list(avec)},
    )


# ---------------------------------------------------------------------------
# Kronecker sequences
# ---------------------------------------------------------------------------

def alpha_fixed_point(alpha, bits: int = FIXED_POINT_BITS) -> int:
    """floor(frac(alpha) * 2^bits) for alpha given exactly.

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
            root = math.isqrt(d << (2 * bits))
            return root & ((1 << bits) - 1)
        alpha = Fraction(text)
    if isinstance(alpha, Fraction):
        frac = alpha - math.floor(alpha)
        return (frac.numerator << bits) // frac.denominator
    raise TypeError(f"unsupported alpha {alpha!r}")


def kronecker(alphas: Sequence, n: int, start: int = 0) -> PointSet:
    """Kronecker sequence x_k = ({k alpha_1}, ..., {k alpha_s}) as floats.

    Each alpha is reduced to a 128-bit fixed-point fraction; multiplication
    and the fractional part are then exact integer operations, and only the
    final division to a float rounds (error < 2^-52, far below the 2^-128
    grid).  Irrational alphas come in as "sqrt(d)" strings.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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

def radical_inverse(k: int, b: int) -> tuple[int, int]:
    """Exact radical inverse of k in base b as (numerator, denominator).

    Digit reversal: k = sum d_r b^r maps to sum d_r b^(-r-1).  The
    denominator is b^(number of digits); k = 0 gives (0, 1).
    """
    if k < 0:
        raise ValueError("index must be >= 0")
    if b < 2:
        raise ValueError("base must be >= 2")
    num = 0
    den = 1
    while k:
        k, d = divmod(k, b)
        num = num * b + d
        den *= b
    return num, den


def halton(
    bases: Sequence[int],
    n: int,
    start: int = 0,
    allow_non_coprime: bool = False,
) -> PointSet:
    """First n Halton points x_k (k = start..start+n-1), exact.

    Coordinate j is the radical inverse of k in bases[j].  Bases must be
    pairwise coprime (override with allow_non_coprime to study the failure
    mode on purpose).  Each coordinate's denominator is the power b_j^L
    needed for the largest index, so a column shares one denominator.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if start < 0:
        raise ValueError("need start >= 0")
    blist = [int(b) for b in bases]
    if any(b < 2 for b in blist):
        raise ValueError("bases must be >= 2")
    if not allow_non_coprime:
        for i in range(len(blist)):
            for j in range(i + 1, len(blist)):
                if math.gcd(blist[i], blist[j]) != 1:
                    raise ValueError(
                        f"bases {blist[i]} and {blist[j]} share a factor; "
                        "pass allow_non_coprime=True to force"
                    )
    last = start + n - 1
    dens = []
    columns = []
    for b in blist:
        length = 1
        while b ** length <= last:
            length += 1
        den = b ** length
        dens.append(den)
        # reversing all `length` digits of k gives its radical inverse
        # already scaled to den; numerators stay below den
        k = _index_range(start, n, den)
        num = np.zeros_like(k)
        for _ in range(length):
            num *= b
            num += k % b
            k //= b
        columns.append(num.tolist())
        del num, k  # before the rows are built, where memory peaks
    return PointSet.exact(
        zip(*columns) if columns else [()] * n,
        dens,
        provenance={
            "kind": "halton",
            "n": n,
            "start": start,
            "bases": blist,
            "coprime_checked": not allow_non_coprime,
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
        rows = [
            tuple(r1) + tuple(r2)
            for r1, r2 in zip(first.numerators, second.numerators)
        ]
        return PointSet.exact(
            rows, first.denominators + second.denominators, provenance=prov
        )
    f1 = first.as_floats()
    f2 = second.as_floats()
    return PointSet.floating(
        [tuple(r1) + tuple(r2) for r1, r2 in zip(f1, f2)], provenance=prov
    )


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
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        check_prime(self.b)
        if not self.matrices:
            raise ValueError("need at least one matrix")
        shapes = {(len(mat), len(mat[0]) if mat else 0) for mat in self.matrices}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent matrix shapes: {shapes}")
        for mat in self.matrices:
            for row in mat:
                if len(row) != len(mat[0]):
                    raise ValueError("ragged matrix")
                for v in row:
                    if not 0 <= v < self.b:
                        raise ValueError(f"entry {v} outside F_{self.b}")

    @classmethod
    def from_lists(cls, b: int, mats: Iterable[Iterable[Iterable[int]]]) -> "GeneratingMatrixSet":
        return cls(
            b=b,
            matrices=tuple(
                tuple(tuple(int(v) for v in row) for row in mat) for mat in mats
            ),
        )

    @property
    def s(self) -> int:
        return len(self.matrices)

    @property
    def rows(self) -> int:
        return len(self.matrices[0])

    @property
    def cols(self) -> int:
        return len(self.matrices[0][0])

    def as_lists(self) -> list[list[list[int]]]:
        return [[list(row) for row in mat] for mat in self.matrices]


def _index_range(start: int, count: int, bound: int) -> np.ndarray:
    """Indices start..start+count-1 as an int64 array, or as Python ints
    (dtype object) when they or a result below `bound` could reach 2^63."""
    dtype = np.int64 if bound < 1 << 63 and start + count <= 1 << 63 else object
    return np.arange(count, dtype=dtype) + start


def digital_points(G: GeneratingMatrixSet, start: int, count: int) -> PointSet:
    """Digital points x_k for k = start..start+count-1, exact.

    Index digits (least significant first) fill the column vector; matrix
    rows give base-b digits of the coordinate, row 1 being the most
    significant.  Denominator is b^rows for every coordinate.
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
    den = b ** rows_n
    # a row-times-digits dot product reaches cols (b - 1)^2 before mod b
    k = _index_range(start, count, max(den, cols * (b - 1) ** 2 + 1))
    digits = np.empty((cols, count), dtype=k.dtype)
    for r in range(cols):
        digits[r] = k % b
        k //= b
    columns = []
    for mat in G.matrices:
        # Horner over the matrix rows, most significant digit first
        num = np.zeros_like(k)
        for mrow in np.array(mat, dtype=k.dtype):
            num *= b
            num += mrow @ digits % b
        columns.append(num.tolist())
    del digits, num, k  # before the rows are built, where memory peaks
    return PointSet.exact(
        zip(*columns),
        [den] * G.s,
        provenance={
            "kind": "digital",
            "b": b,
            "rows": rows_n,
            "cols": cols,
            "start": start,
            "n": count,
            "matrices": G.as_lists(),
        },
    )


def digital_net(G: GeneratingMatrixSet) -> PointSet:
    """The net of all b^m points of a square m x m matrix set."""
    if G.rows != G.cols:
        raise ValueError(f"digital net needs square matrices, got {G.rows}x{G.cols}")
    ps = digital_points(G, 0, G.b ** G.rows)
    ps.provenance["kind"] = "digital_net"
    ps.provenance["m"] = G.rows
    return ps


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

        C_j[i][r] = coefficient of x^(-r-1) in x^u / p_j(x)^(Q+1).

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
    polys = monic_irreducibles(b, s)
    mats = []
    for pj in polys:
        e = pj.degree
        power_cache: dict[int, Poly] = {}
        mat = []
        for i in range(1, rows + 1):
            Q, u = divmod(i - 1, e)
            if Q not in power_cache:
                power_cache[Q] = pj ** (Q + 1)
            series = laurent_expand(Poly.monomial(b, u), power_cache[Q], order=-cols)
            mat.append(tuple(series.coeff(-r - 1) for r in range(cols)))
        mats.append(tuple(mat))
    return GeneratingMatrixSet(b=b, matrices=tuple(mats))


def niederreiter_net(b: int, s: int, m: int) -> PointSet:
    """First b^m Niederreiter points truncated to m digits: a (t, m, s)-net."""
    G = niederreiter_matrices(b, s, rows=m, cols=m)
    ps = digital_net(G)
    ps.provenance["kind"] = "niederreiter"
    ps.provenance["s"] = s
    return ps


# ---------------------------------------------------------------------------
# Polynomial lattice point sets
# ---------------------------------------------------------------------------

def polynomial_lattice_matrices(
    f: Poly, g: Sequence[Poly], rows: Optional[int] = None
) -> GeneratingMatrixSet:
    """The digital-net matrices of a polynomial lattice:
    C_j[i][r] = coefficient of x^(-i) in x^r * g_j(x) / f(x)."""
    m = f.degree
    if m is None or f.is_zero or m < 1:
        raise ValueError("modulus f must have degree >= 1")
    rows = m if rows is None else rows
    b = f.p
    mats = []
    for gj in g:
        if gj.p != b:
            raise ValueError("g_j modulus differs from f")
        mat = []
        for i in range(1, rows + 1):
            row = []
            for r in range(m):
                series = laurent_expand(Poly.monomial(b, r) * gj, f, order=-i)
                row.append(series.coeff(-i))
            mat.append(tuple(row))
        mats.append(tuple(mat))
    return GeneratingMatrixSet(b=b, matrices=tuple(mats))


def polynomial_lattice(f: Poly, g: Sequence[Poly]) -> PointSet:
    """Polynomial lattice point set: for every polynomial n(x) of degree < m
    over F_b, coordinate j is v_m(n(x) g_j(x) / f(x)) where v_m keeps the
    x^-1..x^-m coefficients as base-b digits.  Exact, b^m points, built as
    the digital net of polynomial_lattice_matrices(f, g)."""
    m = f.degree
    if m is None or f.is_zero or m < 1:
        raise ValueError("modulus f must have degree >= 1")
    b = f.p
    if not g:
        raise ValueError("empty generating vector")
    for gj in g:
        if gj.p != b:
            raise ValueError("g_j modulus differs from f")
        if not gj.is_zero and gj.degree >= m:
            raise ValueError("deg g_j must be < deg f")
    ps = digital_points(polynomial_lattice_matrices(f, g), 0, b ** m)
    ps.provenance = {
        "kind": "polylattice",
        "b": b,
        "m": m,
        "f": list(f.coeffs),
        "g": [list(gj.coeffs) for gj in g],
    }
    return ps


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def pointset_to_csv(ps: PointSet, force_float: bool = False) -> str:
    """Render as CSV, one column per coordinate, header x1..xs.

    Exact sets write num/den tokens unless force_float; float sets write
    repr() so the round trip is bit-exact.
    """
    header = ",".join(f"x{j + 1}" for j in range(ps.dim))
    lines = [header]
    if ps.is_exact and not force_float:
        for row in ps.numerators:
            lines.append(
                ",".join(f"{v}/{d}" for v, d in zip(row, ps.denominators))
            )
    else:
        for row in ps.as_floats():
            lines.append(",".join(repr(v) for v in row))
    lines.append("")  # the final newline, without copying the whole text again
    return "\n".join(lines)


def pointset_from_csv(text: str, provenance: Optional[dict] = None) -> PointSet:
    """Parse the CSV format back.  num/den tokens rebuild an exact set
    (one denominator per column, the lcm of those written in it); plain
    decimals rebuild floats."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    body = lines[1:] if lines[0].lower().startswith("x1") else lines
    if not body:
        raise ValueError("CSV has no data rows")
    exact = "/" in body[0]
    if not exact:
        rows = [[float(tok) for tok in ln.split(",")] for ln in body]
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
        nums.append([int(num) for num, _, _ in toks])
        key = tuple(den for _, _, den in toks)
        row_keys.append(keys.setdefault(key, key))
    dim = len(nums[0])
    if any(len(key) != dim for key in keys):
        raise ValueError("ragged rows")
    dens = []
    scales = []
    for j in range(dim):
        written = {w: int(w) for w in {key[j] for key in keys}}
        if min(written.values()) < 1:
            raise ValueError("denominators must be >= 1")
        den = math.lcm(*written.values())
        dens.append(den)
        scales.append({w: den // d for w, d in written.items()})
    factors = {
        key: [scale[w] for w, scale in zip(key, scales)] for key in keys
    }
    for row, key in zip(nums, row_keys):
        if any(f != 1 for f in factors[key]):
            row[:] = [v * f for v, f in zip(row, factors[key])]
    return PointSet.exact(nums, dens, provenance=provenance)
