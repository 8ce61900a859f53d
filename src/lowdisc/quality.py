"""Quality measures for point sets: exact t parameters, exact star
discrepancy (s <= 3), and the P_2 worst-case integration error of lattices.

Conventions shared with the constructions: a (t, m, s)-net in base b puts
exactly b^t points in every elementary interval prod [a_j b^-d_j, (a_j+1)
b^-d_j) of volume b^(t-m); digit index 1 is the most significant (b^-1).
The dual-space route stacks the generating matrices into T : F_b^m ->
F_b^(sm) and reads t off the minimum Niederreiter-Rosenbloom-Tsfasman
weight delta of the nonzero vectors orthogonal to the image:
t = clamp(m + 1 - delta, 0, m), with delta = m + 1 on a trivial dual.

Star discrepancy is computed exactly: the supremum over boxes [0, y) is
attained in the limit at corners y built from coordinate values and 1,
counting points strictly (< on every axis) against the closed volume for
the volume-excess side and weakly (<=) for the point-excess side.  All
comparisons are integer arithmetic on numerators; the result is a Fraction.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import nullspace_mod_p
from .pointsets import GeneratingMatrixSet, PointSet

__all__ = [
    "BudgetError",
    "net_property",
    "minimal_t_geometric",
    "nrt_weight",
    "DualSpace",
    "dual_space",
    "minimal_t_dual",
    "star_discrepancy",
    "star_discrepancy_1d_closed_form",
    "sampled_deviation_lower_bound",
    "p_alpha",
    "p2_dual_sum",
    "p2_tail_bound",
    "character_orthogonality",
    "qmc_integrate",
    "net_discrepancy_diagnostic",
    "QualityReport",
    "assess",
]

# the quadrant-restricted sweep costs about N * (N/2)^(s-1) corner
# evaluations for s = 2, 3; these caps keep the default call interactive,
# and n_limit= overrides them deliberately
STAR_DISCREPANCY_BUDGET = {1: 200_000, 2: 8192, 3: 512}
DUAL_ENUMERATION_LIMIT = 1 << 22


class BudgetError(Exception):
    """The requested exact computation exceeds its default budget."""


# ---------------------------------------------------------------------------
# Geometric (t, m, s)-net verification
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _check_net_input(
    ps: PointSet, b: int, m: int, s: Optional[int] = None
) -> None:
    if not ps.is_exact:
        raise ValueError("net verification needs an exact point set")
    if s is not None and ps.dim != s:
        raise ValueError(f"point set has dimension {ps.dim}, not {s}")
    if ps.count != b ** m:
        raise ValueError(f"expected b^m = {b ** m} points, got {ps.count}")
    den = b ** m
    if any(d != den for d in ps.denominators):
        raise ValueError(f"expected all denominators {den}, got {ps.denominators}")


def _numerator_columns(ps: PointSet) -> np.ndarray:
    """(s, N) int64 numerators of a set that passed _check_net_input, whose
    numerators are all below b^m = N."""
    return np.array(ps.numerators, dtype=np.int64).T


def _cells_balanced(cols: np.ndarray, b: int, m: int, t: int) -> bool:
    """The net property at level t, counting points per elementary interval.

    For each shape (d_1, ..., d_s) with sum m - t, a point's cell is its
    leading d_j digits per coordinate, numerator // b^(m - d_j), read as one
    mixed-radix key below b^(m - t); np.bincount counts the cells.
    """
    target = b ** t
    cells = b ** (m - t)
    for shape in _compositions(m - t, len(cols)):
        key = np.zeros(cols.shape[1], dtype=np.int64)
        for v, d in zip(cols, shape):
            key *= b ** d
            key += v // b ** (m - d)
        if not (np.bincount(key, minlength=cells) == target).all():
            return False
    return True


def net_property(
    ps: PointSet, b: int, m: int, t: int, s: Optional[int] = None
) -> bool:
    """Does every elementary interval of volume b^(t-m) hold exactly b^t points?

    Checks all digit-resolution shapes (d_1, ..., d_s) with sum = m - t; a
    point falls in cell a iff its truncated base-b digits match, i.e.
    numerator // b^(m - d_j) agrees per coordinate.
    """
    _check_net_input(ps, b, m, s)
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}")
    return _cells_balanced(_numerator_columns(ps), b, m, t)


def minimal_t_geometric(
    ps: PointSet, b: int, m: int, s: Optional[int] = None
) -> int:
    """Smallest t such that ps is a (t, m, s)-net in base b.

    Always terminates: t = m trivially holds (the single cell [0,1)^s).
    """
    _check_net_input(ps, b, m, s)
    cols = _numerator_columns(ps)
    for t in range(m + 1):
        if _cells_balanced(cols, b, m, t):
            return t
    raise AssertionError("unreachable: t = m always satisfies the net property")


# ---------------------------------------------------------------------------
# Dual-space route
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class DualSpace:
    """Basis of the vectors orthogonal to the stacked net image in F_b^(sm),
    read as s blocks of m digit positions, plus the minimum NRT weight."""

    b: int
    m: int
    s: int
    basis: tuple[tuple[int, ...], ...]
    delta: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def dual_space(G: GeneratingMatrixSet) -> DualSpace:
    """Dual of the image {(C_1 u, ..., C_s u) : u in F_b^m} with its minimum
    NRT weight delta (m + 1 when the dual is trivial).

    The whole dual space is enumerated for the weight minimum, guarded by a
    size budget.
    """
    if G.rows != G.cols:
        raise ValueError("dual space needs square generating matrices")
    b, m, s = G.b, G.rows, G.s
    # T^T has the stacked matrix columns as rows: entry (k, j*m+i) = C_j[i][k]
    tt_rows = [
        [G.matrices[j][i][k] for j in range(s) for i in range(m)]
        for k in range(m)
    ]
    basis = nullspace_mod_p(tt_rows, s * m, b)
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
    return DualSpace(b=b, m=m, s=s, basis=tuple(tuple(v) for v in basis), delta=delta)


def minimal_t_dual(G: GeneratingMatrixSet) -> int:
    """t of the digital net from the dual space: t = clamp(m+1-delta, 0, m)."""
    d = dual_space(G)
    return max(0, min(d.m, d.m + 1 - d.delta))


# ---------------------------------------------------------------------------
# Exact star discrepancy (s <= 3)
# ---------------------------------------------------------------------------

def _star_sweep(pts: np.ndarray, tops: Sequence, exact: bool):
    """Largest corner objective of the (n, s) points, s <= 3.

    Axis j sweeps the grid of its distinct values plus tops[j], the end of
    the axis (the denominator, or 1.0 on the float path).  Exact objectives
    are integers over n * prod(tops): counts are carried in units of
    prod(tops) and the x-step value as n * x.  Float objectives are
    x * vol - count / n, evaluated elementwise as written.

    For s >= 2 the first axis is swept in steps while the other s - 1 axes
    form a corner array.  At a fixed corner, x * vol - open count never
    decreases in x until that corner's open count changes, and closed count
    - x * vol never increases after a change to its closed count (rounding
    is monotone, so this holds in float64 too).  So each step evaluates
    the volume-excess side only over the open quadrant its points are about
    to enter (everywhere at the last step), and the point-excess side only
    over their closed quadrant once they are counted.
    """
    n, s = pts.shape
    grids = [np.unique(np.append(pts[:, j], top)) for j, top in enumerate(tops)]
    unit = math.prod(int(t) for t in tops) if exact else 1
    xs = n * grids[0] if exact else grids[0]
    to_number = int if exact else float

    def share(counts):
        return counts if exact else counts / n

    if s == 1:
        u = np.sort(pts[:, 0])
        strict = np.searchsorted(u, grids[0], side="left") * unit
        weak = np.searchsorted(u, grids[0], side="right") * unit
        return max((xs - share(strict)).max(), (share(weak) - xs).max())

    order = np.argsort(pts[:, 0], kind="stable")
    bounds = np.searchsorted(pts[order, 0], grids[0], side="right")
    ranks = np.stack(
        [np.searchsorted(g, pts[order, j]) for j, g in enumerate(grids[1:], 1)],
        axis=1,
    )
    vol = functools.reduce(np.multiply.outer, grids[1:])
    # closed[i + 1] counts the points <= corner i on every axis, so closed[i]
    # is the open count at corner i: one array serves both sides, and before
    # a step's points are added it holds the open counts of that step
    closed = np.zeros([len(g) + 1 for g in grids[1:]], dtype=vol.dtype)
    best = to_number(0)
    # every coordinate is below its axis end, so each x-step but the last
    # (the end itself) adds at least one point
    for k, x in enumerate(xs[:-1]):
        batch = ranks[bounds[k - 1] if k else 0 : bounds[k]]
        corner = batch.min(axis=0)
        scaled = x * vol[tuple(slice(i, None) for i in corner)]
        counts = closed[tuple(slice(i + 1, -1) for i in corner)]
        inner = scaled[(slice(1, None),) * (s - 1)]
        best = max(best, to_number((inner - share(counts)).max()))
        for r in batch:
            closed[tuple(slice(i + 1, None) for i in r)] += unit
        counts = closed[tuple(slice(i + 1, None) for i in corner)]
        best = max(best, to_number((share(counts) - scaled).max()))
    counts = closed[(slice(None, -1),) * (s - 1)]
    return max(best, to_number((xs[-1] * vol - share(counts)).max()))


def star_discrepancy(ps: PointSet, n_limit: Optional[int] = None):
    """Exact D*_N for s <= 3: a Fraction for exact sets, float otherwise.

    s = 1 is vectorised and cross-checked against the closed form.  For
    s = 2, 3 one sweep runs over the first axis and keeps closed-box counts
    on the corner grid of the others up to date with one slice add per
    point; each step evaluates only the quadrant its points enter, about a
    quarter of the grid for s = 3.  Point counts above the per-dimension
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
    if not ps.is_exact:
        rows = np.array(ps.float_rows, dtype=np.float64)
        return float(_star_sweep(rows, [1.0] * s, exact=False))
    full = math.prod(ps.denominators)
    # int64 overflow guard: objectives are bounded by n * prod(dens)
    if n * full >= 1 << 62:
        raise BudgetError(
            "denominator product too large for the exact sweep; "
            "reduce precision or use sampled_deviation_lower_bound"
        )
    nums = np.array(ps.numerators, dtype=np.int64)
    result = Fraction(int(_star_sweep(nums, ps.denominators, exact=True)), n * full)
    if s == 1:
        # the 1D closed form is independent of the sweep; a mismatch
        # means one of them is broken, which must never pass silently
        closed = star_discrepancy_1d_closed_form(ps)
        if closed != result:
            raise RuntimeError(
                f"1D sweep {result} disagrees with closed form {closed}"
            )
    return result


def star_discrepancy_1d_closed_form(ps: PointSet) -> Fraction:
    """D*_N = 1/(2N) + max_i |x_(i) - (2i-1)/(2N)| for one dimension, exact."""
    if ps.dim != 1:
        raise ValueError("closed form is one-dimensional only")
    if not ps.is_exact:
        raise ValueError("closed form needs an exact point set")
    n = ps.count
    xs = sorted(Fraction(row[0], ps.denominators[0]) for row in ps.numerators)
    half = Fraction(1, 2 * n)
    dev = max(abs(x - Fraction(2 * i - 1, 2 * n)) for i, x in enumerate(xs, start=1))
    return half + dev


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
        for row in ps.numerators
        for v, d in zip(row, ps.denominators)
    ]
    floors = np.array([q for q, _ in cells], dtype=np.int64).reshape(n, s)
    ceils = floors + np.array([r > 0 for _, r in cells]).reshape(n, s)
    strict = np.empty(samples, dtype=np.int64)
    weak = np.empty(samples, dtype=np.int64)
    step = max(1, (1 << 22) // (n * s))
    for lo in range(0, samples, step):
        k = ks[lo : lo + step, None, :]
        strict[lo : lo + step] = (floors < k).all(axis=2).sum(axis=1)
        weak[lo : lo + step] = (ceils <= k).all(axis=2).sum(axis=1)
    # deviations scaled by n * 2^(30 s), in Python ints
    vol_den = scale ** s
    best = 0
    for k_row, below, upto in zip(ks.tolist(), strict.tolist(), weak.tolist()):
        vol = math.prod(k_row) * n
        best = max(best, vol - below * vol_den, upto * vol_den - vol)
    return Fraction(best, n * vol_den)


# ---------------------------------------------------------------------------
# Lattice-rule figures of merit
# ---------------------------------------------------------------------------

def _bernoulli2(x: np.ndarray) -> np.ndarray:
    return x * x - x + 1.0 / 6.0


def p_alpha(a: Sequence[int], n: int, alpha: int = 2) -> float:
    """P_alpha of the rank-1 lattice with generator a mod n.

    Only alpha = 2 is implemented, via the Bernoulli closed form
    P_2 = -1 + (1/N) sum_k prod_j (1 + 2 pi^2 B_2({k a_j / N})).
    """
    if alpha != 2:
        raise ValueError("only alpha = 2 has a closed form here")
    if n < 1:
        raise ValueError("need n >= 1")
    avec = np.array([v % n for v in a], dtype=np.int64)
    k = np.arange(n, dtype=np.int64)
    frac = (k[:, None] * avec[None, :] % n) / n
    terms = (1.0 + 2.0 * math.pi ** 2 * _bernoulli2(frac)).prod(axis=1)
    return float(terms.mean() - 1.0)


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


def p2_tail_bound(s: int, h_bound: int) -> float:
    """Upper bound on the dual-sum truncation error: the h with some
    |h_j| > H contribute at most s * (2/H) * (1 + pi^2/3)^(s-1)."""
    return 2.0 * s * (1.0 + math.pi ** 2 / 3.0) ** (s - 1) / h_bound


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


def qmc_integrate(f: Callable[[tuple[float, ...]], float], ps: PointSet) -> float:
    """Equal-weight cubature (1/N) sum f(x_k); rejects non-finite values."""
    total = []
    for idx, row in enumerate(ps.as_floats()):
        val = float(f(row))
        if not math.isfinite(val):
            raise ValueError(f"integrand returned {val} at node index {idx}")
        total.append(val)
    return math.fsum(total) / ps.count


def net_discrepancy_diagnostic(
    ps: PointSet, b: int, m: int, s: Optional[int] = None
) -> float:
    """N D*_N / (b^t (log N)^(s-1)): the constant in front of the classical
    digital-net discrepancy estimate.  Needs m >= 2 so log N > 0 ... and the
    normalization is only meaningful with at least two digits anyway."""
    if m < 2:
        raise ValueError("diagnostic needs m >= 2")
    t = minimal_t_geometric(ps, b, m, s)
    d_star = star_discrepancy(ps)
    n = ps.count
    dim = ps.dim
    return float(d_star) * n / (b ** t * math.log(n) ** (dim - 1))


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
    star_disc: Optional[Fraction | float] = None
    star_disc_float: Optional[float] = None
    p2: Optional[float] = None
    diagnostic_ratio: Optional[float] = None

    def as_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "s": self.s,
            "representation": self.representation,
            "b": self.b,
            "m": self.m,
            "t_geometric": self.t_geometric,
            "t_dual": self.t_dual,
            "star_discrepancy": (
                None
                if self.star_disc is None
                else {
                    "num": self.star_disc.numerator,
                    "den": self.star_disc.denominator,
                }
                if isinstance(self.star_disc, Fraction)
                else self.star_disc
            ),
            "star_discrepancy_float": self.star_disc_float,
            "p2": self.p2,
            "diagnostic_ratio": self.diagnostic_ratio,
        }
        return d


def assess(
    ps: PointSet,
    b: Optional[int] = None,
    m: Optional[int] = None,
    G: Optional[GeneratingMatrixSet] = None,
    n_limit: Optional[int] = None,
) -> QualityReport:
    """Best-effort quality report: each measure is filled in when its
    preconditions hold and left None otherwise (budget misses included)."""
    t_geo = None
    if b is not None and m is not None and ps.is_exact:
        try:
            t_geo = minimal_t_geometric(ps, b, m)
        except ValueError:
            t_geo = None
    t_dual = None
    if G is not None and G.rows == G.cols:
        try:
            t_dual = minimal_t_dual(G)
        except BudgetError:
            t_dual = None
    d_star = None
    try:
        d_star = star_discrepancy(ps, n_limit=n_limit)
    except BudgetError:
        d_star = None
    p2 = None
    if ps.provenance.get("kind") == "lattice":
        p2 = p_alpha(ps.provenance["a"], ps.provenance["n"])
    diag = None
    if (
        t_geo is not None
        and d_star is not None
        and m is not None
        and b is not None
        and m >= 2
    ):
        diag = float(d_star) * ps.count / (b ** t_geo * math.log(ps.count) ** (ps.dim - 1))
    return QualityReport(
        n=ps.count,
        s=ps.dim,
        representation=ps.representation.value,
        b=b,
        m=m,
        t_geometric=t_geo,
        t_dual=t_dual,
        star_disc=d_star,
        star_disc_float=None if d_star is None else float(d_star),
        p2=p2,
        diagnostic_ratio=diag,
    )
