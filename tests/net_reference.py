"""The per-point loops that the digital-net and Halton constructions and
the geometric net check used before the numpy kernels, the matrix-product
digital-point kernel that the half-index tables replaced, the dual-space
basis (a nullspace of T^T) and its enumeration, which the matrix t route
used before the rank walk, the walk that checked each composition on its
own (a fresh cell key, or one nullspace, per shape) before both t
routes kept a state per prefix, and the
dense dual-lattice grid that P_2's dual sum used before the residue fold,
kept verbatim as reference implementations.  Also the row-by-row
Niederreiter matrices: one expansion per row, where the production route
reads the rows of one power of p_j as windows of one expansion, with the
p_j listed by trial division (`factorizer_reference`), not by the
production sieve.  Every nullspace here is the reference Gauss-Jordan
elimination (`algebra_reference`), not the production kernel it checks.

Each builds or counts one point (or one dual vector or row) at a time, or
materialises the whole box, so these are slow but straightforward; the
tests compare the production routes against them value for value.
"""

import cmath
import itertools
import math
from typing import Sequence

import numpy as np
from algebra_reference import reference_nullspace
from factorizer_reference import trial_division_irreducibles
from polys import monomial

import lowdisc.quality as quality
from lowdisc.algebra import Poly, laurent_expand
from lowdisc.pointsets import GeneratingMatrixSet, PointSet, _index_range
from lowdisc.quality import BudgetError, DualSpace, _check_net_input

DUAL_ENUMERATION_LIMIT = 1 << 22


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


def _index_digits(k: int, b: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        k, d = divmod(k, b)
        digits.append(d)
    if k:
        raise ValueError("index needs more digits than the matrices have columns")
    return digits


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
    out = []
    for k in range(start, start + count):
        digits = _index_digits(k, b, cols)
        row = []
        for mat in G.matrices:
            num = 0
            for i in range(rows_n):
                mrow = mat[i]
                y = 0
                for r, d in enumerate(digits):
                    if d:
                        y += mrow[r] * d
                num = num * b + (y % b)
            row.append(num)
        out.append(row)
    return PointSet.exact(
        out,
        [den] * G.s,
        provenance={
            "kind": "digital",
            "b": b,
            "rows": rows_n,
            "cols": cols,
            "start": start,
            "n": count,
            "matrices": G.matrices,
        },
    )


def digital_points_by_product(G: GeneratingMatrixSet, start: int, count: int) -> PointSet:
    """digital_points as one matrix product per matrix row: each row of C_j
    times the (cols, count) array of every index's digits, mod b, then
    Horner over the rows.  Same checks, dtypes and provenance."""
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
    columns = np.zeros((G.s, count), dtype=k.dtype)
    for column, mat in zip(columns, G.matrices):
        # Horner over the matrix rows, most significant digit first
        for mrow in np.array(mat, dtype=k.dtype):
            column *= b
            column += mrow @ digits % b
    return PointSet.exact(
        columns.T,
        [den] * G.s,
        provenance={
            "kind": "digital",
            "b": b,
            "rows": rows_n,
            "cols": cols,
            "start": start,
            "n": count,
            "matrices": G.matrices,
        },
    )


def niederreiter_matrices(b: int, s: int, rows: int, cols: int) -> GeneratingMatrixSet:
    """Niederreiter's matrices by their definition, one row at a time: with
    e = deg p_j and i - 1 = Q e + u, row i of C_j holds the coefficients of
    x^-1, ..., x^-cols in x^u / p_j(x)^(Q+1)."""
    mats = []
    for pj in trial_division_irreducibles(b, s):
        mat = []
        for i in range(1, rows + 1):
            Q, u = divmod(i - 1, pj.degree)
            mat.append(laurent_expand(monomial(b, u), pj ** (Q + 1), order=-cols))
        mats.append(tuple(mat))
    return GeneratingMatrixSet(b=b, matrices=tuple(mats))


def polynomial_lattice(f: Poly, g: Sequence[Poly]) -> PointSet:
    """Polynomial lattice point set: for every polynomial n(x) of degree < m
    over F_b, coordinate j is v_m(n(x) g_j(x) / f(x)) where v_m keeps the
    x^-1..x^-m coefficients as base-b digits.  Exact, b^m points."""
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
    n_points = b ** m
    den = b ** m
    rows = []
    for k in range(n_points):
        n_poly = Poly(_index_digits(k, b, m), b)
        row = []
        for gj in g:
            num = 0
            for digit in laurent_expand(n_poly * gj, f, order=-m):
                num = num * b + digit
            row.append(num)
        rows.append(row)
    return PointSet.exact(
        rows,
        [den] * len(g),
        provenance={
            "kind": "polylattice",
            "b": b,
            "m": m,
            "f": list(f.coeffs),
            "g": [list(gj.coeffs) for gj in g],
        },
    )


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`, in
    lexicographic order: stars and bars, one bar position set per tuple."""
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        yield tuple(hi - lo - 1 for lo, hi in zip((-1, *bars), (*bars, end)))


def first_level_by_shapes(levels, m: int, parts: int, holds) -> int | None:
    """The first t in levels at which holds(shape) is true for every
    composition shape of m - t into `parts` parts, or None: each shape
    checked on its own.  A level is left at its first failing shape; past
    quality.COMPOSITION_BUDGET checks in all, the walk raises BudgetError."""
    checks = 0
    for t in levels:
        for shape in _compositions(m - t, parts):
            checks += 1
            if checks > quality.COMPOSITION_BUDGET:
                raise BudgetError(f"t needs more than {quality.COMPOSITION_BUDGET} compositions checked")
            if not holds(shape):
                break
        else:
            return t
    return None


def t_geometric_by_shapes(ps: PointSet, b: int, m: int) -> int:
    """minimal_t_geometric with a fresh mixed-radix cell key per shape."""
    _check_net_input(ps, b, m)
    cols = ps.numerators.T

    def balanced(shape):
        w = sum(shape)
        key = np.zeros(ps.count, dtype=np.int64)
        for v, d in zip(cols, shape):
            if d:
                key *= b ** d
                key += v // b ** (m - d)
        return bool((np.bincount(key, minlength=b ** w) == b ** (m - w)).all())

    return first_level_by_shapes(range(m + 1), m, ps.dim, balanced)


def t_dual_by_shapes(G: GeneratingMatrixSet) -> int:
    """minimal_t_dual with one reference_nullspace per shape: the first d_j rows
    of the C_j, taken together, are independent."""
    b, m = G.b, G.rows

    def independent(shape):
        rows = [row for mat, d in zip(G.matrices, shape) if d for row in mat[:d]]
        return len(reference_nullspace(rows, m, b)) == m - len(rows)

    return first_level_by_shapes(range(m + 1), m, G.s, independent)


def net_property(ps: PointSet, b: int, m: int, t: int) -> bool:
    """Does every elementary interval of volume b^(t-m) hold exactly b^t points?

    Checks all digit-resolution shapes (d_1, ..., d_s) with sum = m - t; a
    point falls in cell a iff its truncated base-b digits match, i.e.
    numerator // b^(m - d_j) agrees per coordinate.
    """
    _check_net_input(ps, b, m)
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}")
    s = ps.dim
    target = b ** t
    nums = ps.numerators
    for shape in _compositions(m - t, s):
        shifts = [b ** (m - d) for d in shape]
        counts: dict[tuple, int] = {}
        for row in nums:
            key = tuple(v // sh for v, sh in zip(row, shifts))
            counts[key] = counts.get(key, 0) + 1
        if any(c != target for c in counts.values()):
            return False
    return True


def t_monotonicity_check(ps: PointSet, b: int, m: int, t: int) -> bool:
    """A (t, m, s)-net must also be a (t', m, s)-net for every t' in [t, m]."""
    if not net_property(ps, b, m, t):
        return True  # nothing to propagate
    return all(net_property(ps, b, m, t2) for t2 in range(t, m + 1))


def nrt_weight(vec: Sequence[int], m: int, s: int) -> int:
    """Sum over coordinate blocks of the largest 1-based nonzero index.

    Index 1 is the most significant digit row, matching the matrix
    convention; an all-zero block contributes 0.
    """
    if len(vec) != s * m:
        raise ValueError(f"vector length {len(vec)} != s*m = {s * m}")
    total = 0
    for j in range(s):
        block = vec[j * m : (j + 1) * m]
        last = 0
        for i, v in enumerate(block):
            if v:
                last = i + 1
        total += last
    return total


def dual_basis(G: GeneratingMatrixSet) -> list[list[int]]:
    """A basis of the vectors in F_b^(sm) orthogonal to the image
    {(C_1 u, ..., C_s u) : u in F_b^m}: the nullspace of T^T."""
    if G.rows != G.cols:
        raise ValueError("dual space needs square generating matrices")
    b, m, s = G.b, G.rows, G.s
    # T^T has the stacked matrix columns as rows: entry (k, j*m+i) = C_j[i][k]
    tt_rows = [
        [G.matrices[j][i][k] for j in range(s) for i in range(m)]
        for k in range(m)
    ]
    return reference_nullspace(tt_rows, s * m, b)


def dual_space(G: GeneratingMatrixSet) -> DualSpace:
    """Dual of the image {(C_1 u, ..., C_s u) : u in F_b^m}, of dimension
    len(dual_basis(G)), with its minimum NRT weight delta (m + 1 when the
    dual is trivial).

    The whole dual space is enumerated for the weight minimum, guarded by a
    size budget.
    """
    basis = dual_basis(G)
    b, m, s = G.b, G.rows, G.s
    k = len(basis)
    if b ** k > DUAL_ENUMERATION_LIMIT:
        raise BudgetError(
            f"dual space has b^{k} = {b ** k} vectors, over the enumeration limit"
        )
    if k == 0:
        delta = m + 1
    else:
        span = np.zeros((1, s * m), dtype=np.int64)
        for vec in basis:
            v = np.array(vec, dtype=np.int64)
            span = np.concatenate([(span + c * v) % b for c in range(b)])
        nonzero = span != 0
        sig = np.arange(1, m + 1, dtype=np.int64)
        blocks = nonzero.reshape(len(span), s, m)
        weights = (blocks * sig).max(axis=2).sum(axis=1)
        positive = weights[weights > 0]
        delta = int(positive.min()) if positive.size else m + 1
    return DualSpace(b=b, m=m, s=s, dimension=k, delta=delta)


def minimal_t_dual(G: GeneratingMatrixSet) -> int:
    """t of the digital net from the dual space: t = clamp(m+1-delta, 0, m)."""
    d = dual_space(G)
    return max(0, min(d.m, d.m + 1 - d.delta))


def p2_dual_sum(a: Sequence[int], n: int, h_bound: int) -> float:
    """Truncated dual-lattice sum: sum over 0 < |h|_inf <= h_bound with
    a . h = 0 mod n of prod_j max(1, |h_j|)^(-2).  Independent oracle for
    p_alpha; the truncation error is bounded by p2_tail_bound."""
    s = len(a)
    if s not in (1, 2, 3):
        raise ValueError("dual sum implemented for s <= 3")
    if (2 * h_bound + 1) ** s > 1 << 26:
        raise BudgetError("dual sum grid too large")
    axes = [np.arange(-h_bound, h_bound + 1, dtype=np.int64)] * s
    grids = np.meshgrid(*axes, indexing="ij")
    dot = sum(g * (ai % n) for g, ai in zip(grids, a)) % n
    mask = dot == 0
    weight = np.ones_like(grids[0], dtype=np.float64)
    for g in grids:
        weight = weight / np.maximum(1, np.abs(g)).astype(np.float64) ** 2
    origin = tuple([h_bound] * s)
    mask[origin] = False
    return float(weight[mask].sum())


def character_orthogonality(a: Sequence[int], n: int, h: Sequence[int]) -> int:
    """(1/N) sum_k e^(2 pi i k (a.h) / N) as an exact 0/1 indicator.

    The exact integer test a.h = 0 mod n decides the value; a floating
    summation cross-checks it to 1e-10 and a disagreement raises, since it
    would mean the arithmetic itself is broken.
    """
    if len(h) != len(a):
        raise ValueError("h and a must have equal length")
    dot = sum(ai * hi for ai, hi in zip(a, h)) % n
    exact = 1 if dot == 0 else 0
    acc = 0j
    for k in range(n):
        acc += cmath.exp(2j * math.pi * k * dot / n)
    if abs(acc / n - exact) >= 1e-10:
        raise RuntimeError(
            f"character sum {acc / n} disagrees with exact test {exact}"
        )
    return exact
