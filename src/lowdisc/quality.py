"""Quality measures for point sets: exact t parameters, exact star
discrepancy (s <= 3), and the P_2 worst-case integration error of lattices.

Conventions shared with the constructions: a (t, m, s)-net in base b puts
exactly b^t points in every elementary interval prod [a_j b^-d_j, (a_j+1)
b^-d_j) of volume b^(t-m); digit index 1 is the most significant (b^-1).
Both t routes walk the compositions (d_1, ..., d_s) of m - t for t = 0, 1,
... and stop at the first level where every composition passes: the points
route counts the points in each cell of that shape, the matrix route asks
whether the first d_j rows of the C_j are linearly independent over F_b.
A nonzero vector orthogonal to the image of T = (C_1, ..., C_s) : F_b^m ->
F_b^(sm) is such a dependency, its Niederreiter-Rosenbloom-Tsfasman weight
the sum of the d_j it uses, so the minimum weight of the dual space is
delta = m + 1 - t (m + 1 on a trivial dual).  A level is walked depth first
in lexicographic order, one nonzero part at a time; each prefix keeps a
state built once from its parent's, its cell key or its rows' echelon form.

Star discrepancy is computed exactly: the supremum over boxes [0, y) is
attained in the limit at critical corners y built from coordinate values and
1, counting points strictly (< on every axis) against the closed volume for
the volume-excess side and weakly (<=) for the point-excess side.  All
comparisons are integer arithmetic on numerators; the result is a Fraction.
The sweep lives in lowdisc.sweep, loaded by the first call that sweeps; its
independent ranges of steps are split over two processes when two CPUs are
free.  The closed form that criterion 9 checks the sweep against at s = 1,
and criterion 10's P_2 tail bound, live beside those criteria in acceptance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import BudgetError, reduce_into
from .pointsets import GeneratingMatrixSet, PointSet, digital_points, provenance_reference
from .pointsets import _ints, _lattice_generator, _lattice_numerators

__all__ = [
    "net_property",
    "minimal_t_geometric",
    "DualSpace",
    "dual_space",
    "minimal_t_dual",
    "star_discrepancy",
    "sampled_deviation_lower_bound",
    "p_alpha",
    "p2_dual_sum",
    "qmc_integrate",
    "QualityReport",
    "assess",
]

# the star sweep evaluates about N^2 / 4 corners for s = 2 and N^3 / 11 for
# s = 3; these caps keep the default call interactive, and n_limit=
# overrides them deliberately
STAR_DISCREPANCY_BUDGET = {1: 200_000, 2: 8192, 3: 512}
# one walk over the compositions of m - t, on either route, checks at most
# this many; level 0 of b = 17, s = 17, m = 10 alone has 5.3 million
COMPOSITION_BUDGET = 1 << 16
# the sampled bound compares about this many point coordinates with sample
# corners at a time
SAMPLE_CHUNK = 1 << 22
# p_alpha takes about this many products k * a_j at a time
P_ALPHA_CHUNK = 1 << 16
# p_alpha refuses n * s above this, about 10 s at s = 2
P_ALPHA_BUDGET = 1 << 28
# assess builds and compares this many points of a reference set at a time
REFERENCE_BLOCK = 1 << 16
# p2_dual_sum folds at most this many terms, which caps its arrays at a few
# tens of MB; criterion 10 (s = 2, H = 1000, N <= 144) needs about 45,000
P2_FOLD_BUDGET = 1 << 22


# ---------------------------------------------------------------------------
# Geometric (t, m, s)-net verification
# ---------------------------------------------------------------------------

def _first_level(levels, m: int, s: int, empty: Callable, extend: Callable, holds: Callable) -> Optional[int]:
    """The first t in levels at which holds(state, t) is true for the state
    of every composition of m - t into s parts, walked by _prefixes from
    empty(), or None.  A level is left at its first failing composition;
    past COMPOSITION_BUDGET checks in all, the walk raises BudgetError."""
    checks = 0
    for t in levels:
        for state in _prefixes(empty(), 0, m - t, s, extend):
            checks += 1
            if checks > COMPOSITION_BUDGET:
                raise BudgetError(f"t needs more than {COMPOSITION_BUDGET} compositions checked")
            if not holds(state, t):
                break
            del state  # a leaf's key goes before the next one is built
        else:
            return t
    return None


def _prefixes(state, k: int, rest: int, s: int, extend: Callable):
    """The states, after the prefix `state`, of the compositions giving parts
    k..s-1 the sum rest, in lexicographic order.  extend(state, j, d, last)
    adds a nonzero part d_j = d, once per prefix, in place for a last child."""
    if rest == 0:
        yield state
        return
    for j in range(s - 1, k - 1, -1):
        for d in range(rest if j == s - 1 else 1, rest + 1):
            yield from _prefixes(extend(state, j, d, j == k and d == rest), j + 1, rest - d, s, extend)


def _check_net_input(ps: PointSet, b: int, m: int) -> None:
    """A set that passes has b^m = N points with int64 numerators below N."""
    if not ps.is_exact:
        raise ValueError("net verification needs an exact point set")
    if ps.count != b ** m:
        raise ValueError(f"expected b^m = {b ** m} points, got {ps.count}")
    if any(d != b ** m for d in ps.denominators):
        raise ValueError(f"expected all denominators {b ** m}, got {ps.denominators}")


def _cell_key(cols: np.ndarray, b: int, m: int, key, j: int, d: int, last: bool):
    """A prefix's mixed-radix cell key (0 when empty) with coordinate j's leading d digits."""
    if last:
        key *= b ** d
    else:
        key = key * b ** d
    key += cols[j] // b ** (m - d)
    return key


def _cells_balanced(b: int, m: int, key, t: int) -> bool:
    """Does each of the b^(m - t) cells that key numbers (one when it is 0) hold b^t points?"""
    return isinstance(key, int) or bool((np.bincount(key, minlength=b ** (m - t)) == b ** t).all())


def _walk_points(ps: PointSet, b: int, m: int, levels) -> Optional[int]:
    _check_net_input(ps, b, m)  # so the one cell of the empty prefix holds b^m points
    extend = functools.partial(_cell_key, ps.numerators.T, b, m)
    return _first_level(levels, m, ps.dim, int, extend, functools.partial(_cells_balanced, b, m))


def net_property(ps: PointSet, b: int, m: int, t: int) -> bool:
    """Does every elementary interval of volume b^(t-m) hold exactly b^t
    points, for all digit-resolution shapes (d_1, ..., d_s) of sum m - t?"""
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}")
    return _walk_points(ps, b, m, [t]) == t


def minimal_t_geometric(ps: PointSet, b: int, m: int) -> int:
    """Smallest t such that ps is a (t, m, s)-net in base b.

    Always terminates: t = m trivially holds (the single cell [0,1)^s).
    """
    return _walk_points(ps, b, m, range(m + 1))


# ---------------------------------------------------------------------------
# Dual-space route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualSpace:
    """The space of vectors orthogonal to the stacked net image in F_b^(sm),
    read as s blocks of m digit positions: its dimension and minimum NRT
    weight."""

    b: int
    m: int
    s: int
    dimension: int
    delta: int


def dual_space(G: GeneratingMatrixSet) -> DualSpace:
    """Dual of the image {(C_1 u, ..., C_s u) : u in F_b^m} with its minimum
    NRT weight delta (m + 1 when the dual is trivial).

    The image has the dimension of the row space of all sm rows of the C_j,
    so the dual has sm minus that rank.  A dual vector of weight w is a
    dependency among the first d_j rows of the C_j for a composition
    (d_1, ..., d_s) of w, so delta = m + 1 - t for the first level t at
    which every composition of m - t has independent rows.
    """
    if G.rows != G.cols:
        raise ValueError("dual space needs square generating matrices")
    b, m, s = G.b, G.rows, G.s
    # sm minus the rank of all sm rows: each row outside the span of those before it adds a pivot
    pivots: dict = {}
    dimension = s * m - sum(reduce_into(pivots, row, b) for mat in G.matrices for row in mat)
    t = _first_level(range(m + 1), m, s, dict, functools.partial(_echelon, G), lambda e, t: e is not None)
    return DualSpace(b=b, m=m, s=s, dimension=dimension, delta=m + 1 - t)


def _echelon(G: GeneratingMatrixSet, echelon: Optional[dict], j: int, d: int, last: bool) -> Optional[dict]:
    """A prefix's rows as {pivot column: row with 0 before it} over F_b, the
    first d rows of C_j reduced into it; None once the rows are dependent."""
    if echelon is None:
        return None
    echelon = echelon if last else dict(echelon)
    return echelon if all(reduce_into(echelon, row, G.b) for row in G.matrices[j][:d]) else None


def minimal_t_dual(G: GeneratingMatrixSet) -> int:
    """t of the digital net from the dual space: t = m + 1 - delta."""
    return G.rows + 1 - dual_space(G).delta


# ---------------------------------------------------------------------------
# Exact star discrepancy (s <= 3)
# ---------------------------------------------------------------------------

def star_discrepancy(ps: PointSet, n_limit: Optional[int] = None):
    """Exact D*_N for s <= 3: a Fraction for exact sets, float otherwise.

    s = 1 is vectorised; criterion 9 checks it against the closed form.  For
    s = 2, 3 one sweep runs over the first axis and keeps closed-box counts
    on the corner grid of the others up to date with one slice add per
    point; each step evaluates only the quadrant its points enter, on the
    grid of the points counted so far.  Point counts above the per-dimension
    default budget (200000 / 8192 / 512 for s = 1 / 2 / 3) raise
    BudgetError unless n_limit raises the cap explicitly.
    """
    s = ps.dim
    if s < 1:
        raise ValueError("empty point set")
    if s > 3:
        raise BudgetError(
            f"exact star discrepancy supports s <= 3 (got s={s}); "
            "use sampled_deviation_lower_bound for higher dimensions"
        )
    n = ps.count
    if n < 1:
        raise ValueError("need at least one point")
    cap = STAR_DISCREPANCY_BUDGET[s] if n_limit is None else n_limit
    if n > cap:
        raise BudgetError(
            f"N={n} exceeds the exact-sweep budget {cap} for s={s}; "
            "pass n_limit to override or use sampled_deviation_lower_bound"
        )
    from .sweep import star_sweep  # loaded by the first call that sweeps

    if not ps.is_exact:
        return float(star_sweep(ps.float_rows, [1.0] * s, exact=False))
    full = math.prod(ps.denominators)
    # int64 overflow guard: objectives are bounded by n * prod(dens); it
    # also keeps every denominator, so the numerators, in int64
    if n * full >= 1 << 62:
        raise BudgetError(
            "denominator product too large for the exact sweep; "
            "reduce precision or use sampled_deviation_lower_bound"
        )
    return Fraction(int(star_sweep(ps.numerators, ps.denominators, exact=True)), n * full)


def sampled_deviation_lower_bound(
    ps: PointSet, samples: int = 10_000, seed: int = 0
) -> Fraction:
    """Exact deviation at `samples` random corners: a certified lower bound.

    Corners have coordinates k/2^30 with k in [1, 2^30]; both the strict and
    weak counts are compared against the closed volume in exact integer
    arithmetic, so the result is a true lower bound for D*_N of an exact set
    at any denominator size.  The comparisons run in chunks of samples, so
    memory stays bounded at any N.
    """
    if not ps.is_exact:
        raise ValueError("sampling bound needs an exact point set")
    rng = np.random.default_rng(seed)
    bits = 30
    scale = 1 << bits
    s = ps.dim
    n = ps.count
    ks = rng.integers(1, scale + 1, size=(samples, s), dtype=np.int64)
    # for integer k: x < k/2^30 <=> floor(x 2^30) < k, and x <= k/2^30 <=>
    # ceil(x 2^30) <= k; both are taken in Python ints and lie in [0, 2^30]
    cells = [
        divmod(v << bits, d)
        for row in ps.numerators.tolist()
        for v, d in zip(row, ps.denominators)
    ]
    floors = np.array([q for q, _ in cells], dtype=np.int64).reshape(n, s)
    ceils = floors + np.array([r > 0 for _, r in cells]).reshape(n, s)
    strict = np.empty(samples, dtype=np.int64)
    weak = np.empty(samples, dtype=np.int64)
    step = max(1, SAMPLE_CHUNK // (n * s))
    for lo in range(0, samples, step):
        k = ks[lo : lo + step]
        below = floors[:, 0] < k[:, 0, None]
        upto = ceils[:, 0] <= k[:, 0, None]
        for j in range(1, s):
            below &= floors[:, j] < k[:, j, None]
            upto &= ceils[:, j] <= k[:, j, None]
        strict[lo : lo + step] = below.sum(axis=1)
        weak[lo : lo + step] = upto.sum(axis=1)
    # deviations scaled by n * 2^(30 s), in Python ints (object arrays), so
    # no product overflows
    vol_den = scale ** s
    vol = ks.astype(object).prod(axis=1) * n
    best = max(
        (vol - strict.astype(object) * vol_den).max(initial=0),
        (weak.astype(object) * vol_den - vol).max(initial=0),
    )
    return Fraction(best, n * vol_den)


# ---------------------------------------------------------------------------
# Lattice-rule figures of merit
# ---------------------------------------------------------------------------

def p_alpha(a: Sequence[int], n: int) -> float:
    """P_2 of the rank-1 lattice with generator a mod n, by the Bernoulli
    closed form P_2 = -1 + (1/N) sum_k prod_j (1 + 2 pi^2 B_2({k a_j / N})),
    B_2(x) = x^2 - x + 1/6, taking about P_ALPHA_CHUNK products k a_j at a time.
    """
    avec = _lattice_generator(a, n)
    if n * len(avec) > P_ALPHA_BUDGET:
        raise BudgetError(f"P_2 over n*s = {n * len(avec)} coordinates exceeds the budget {P_ALPHA_BUDGET}")
    step = max(1, P_ALPHA_CHUNK // len(avec))
    total = 0.0  # a single chunk sums its terms exactly as their mean does
    for lo in range(0, n, step):
        x = np.asarray(_lattice_numerators(avec, n, lo, min(step, n - lo)) / n, dtype=np.float64)
        total += (1.0 + 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)).prod(axis=1).sum()
    return float(total / n - 1.0)


def p2_dual_sum(a: Sequence[int], n: int, h_bound: int) -> float:
    """Truncated dual-lattice sum: sum over 0 < |h|_inf <= h_bound with
    a . h = 0 mod n of prod_j max(1, |h_j|)^(-2).  Independent oracle for
    p_alpha; acceptance.p2_tail_bound bounds the truncation error.

    The box is a product of axes, so the sum is residue 0 of the cyclic
    convolution of one residue histogram per axis, less the origin's 1.
    Work over P2_FOLD_BUDGET raises BudgetError before any allocation.
    """
    avec = _lattice_generator(a, n)
    h_bound = _ints([h_bound], "h_bound {!r} is not an int")[0]
    if h_bound < 0:
        raise ValueError("need h_bound >= 0")
    width = 2 * h_bound + 1
    # the budget also keeps every h * a_j below 2^63
    if len(avec) * (width + n * min(n, width)) > P2_FOLD_BUDGET:
        raise BudgetError(f"dual sum needs more than {P2_FOLD_BUDGET} terms folded")
    h = np.arange(-h_bound, h_bound + 1, dtype=np.int64)
    weight = 1.0 / np.maximum(1, np.abs(h)).astype(np.float64) ** 2
    fold = np.zeros(n)
    fold[0] = 1.0
    for aj in avec:  # fold[r]: the weight of the h so far with a . h = r mod n
        hist = np.bincount(h * aj % n, weights=weight, minlength=n)
        fold = sum(hist[r] * np.roll(fold, r) for r in np.flatnonzero(hist))
    return float(fold[0] - 1.0)


def qmc_integrate(f: Callable[[tuple[float, ...]], float], ps: PointSet) -> float:
    """Equal-weight cubature (1/N) sum f(x_k); rejects non-finite values."""
    total = []
    for idx, row in enumerate(ps.as_floats()):
        val = float(f(row))
        if not math.isfinite(val):
            raise ValueError(f"integrand returned {val} at node index {idx}")
        total.append(val)
    return math.fsum(total) / ps.count


def _holds(ps: PointSet, count: int, build: Callable[[int, int], PointSet]) -> bool:
    """Does ps hold, in order, the `count` points of which build(lo, k)
    makes the k from index lo?  Built and compared REFERENCE_BLOCK points
    at a time, so the whole reference never exists; a set of another size
    builds nothing."""
    if ps.count != count:
        return False
    for lo in range(0, count, REFERENCE_BLOCK):
        ref = build(lo, min(REFERENCE_BLOCK, count - lo))
        if ps.is_exact:
            mine = ps.numerators[lo : lo + ref.count]
            same = ps.denominators == ref.denominators and np.array_equal(mine, ref.numerators)
        else:
            same = list(map(tuple, ps.float_rows[lo : lo + ref.count].tolist())) == ref.as_floats()
        if not same:
            return False
    return True


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityReport:
    n: int
    s: int
    representation: str
    b: Optional[int] = None
    m: Optional[int] = None
    t_geometric: Optional[int] = None
    t_dual: Optional[int] = None
    star_discrepancy: Optional[Fraction | float] = None
    star_discrepancy_float: Optional[float] = None
    p2: Optional[float] = None
    diagnostic_ratio: Optional[float] = None

    def as_json_dict(self) -> dict:
        """The fields by name, an exact D* as {"num", "den"}."""
        fields = asdict(self)
        d_star = self.star_discrepancy
        if isinstance(d_star, Fraction):
            fields["star_discrepancy"] = {"num": d_star.numerator, "den": d_star.denominator}
        return fields


def assess(
    ps: PointSet,
    b: Optional[int] = None,
    m: Optional[int] = None,
    n_limit: Optional[int] = None,
) -> QualityReport:
    """Best-effort quality report: each measure is filled in when its
    preconditions hold and left None otherwise (budget misses included).

    t_dual describes the digital net of the square matrices and p2 the
    lattice that ps.provenance names (a bad field raises ValueError); each
    is reported only when ps holds exactly those points.
    """
    t_geo = None
    if b is not None and m is not None and ps.is_exact:
        try:
            t_geo = minimal_t_geometric(ps, b, m)
        except (ValueError, BudgetError):
            t_geo = None
    t_dual = None
    ref = provenance_reference(ps.provenance)
    if isinstance(ref, GeneratingMatrixSet) and ref.rows == ref.cols:
        try:
            t_dual = minimal_t_dual(ref)
        except BudgetError:
            t_dual = None
        net = ref.b ** ref.rows
        if t_dual is not None and not _holds(ps, net, lambda lo, k: digital_points(ref, lo, k)):
            t_dual = None
    d_star = None
    try:
        d_star = star_discrepancy(ps, n_limit=n_limit)
    except BudgetError:
        d_star = None
    p2 = None
    if isinstance(ref, tuple):
        a, n = ref
        if _holds(ps, n, lambda lo, k: PointSet.exact(_lattice_numerators(a, n, lo, k), [n] * len(a))):
            try:
                p2 = p_alpha(a, n)
            except BudgetError:
                p2 = None
    diag = None
    # a geometric t implies b and m were given
    if t_geo is not None and d_star is not None and m >= 2:
        # N D*_N / (b^t (log N)^(s-1)), the digital-net estimate's constant
        n = ps.count
        diag = float(d_star) * n / (b ** t_geo * math.log(n) ** (ps.dim - 1))
    return QualityReport(
        n=ps.count,
        s=ps.dim,
        representation=ps.representation,
        b=b,
        m=m,
        t_geometric=t_geo,
        t_dual=t_dual,
        star_discrepancy=d_star,
        star_discrepancy_float=None if d_star is None else float(d_star),
        p2=p2,
        diagnostic_ratio=diag,
    )
