"""The corner sweeps that star_discrepancy used before the critical-corner
sweep, kept verbatim as reference implementations.

star_exact and star_float rebuild the full cumulative-count tables at each
x-step and evaluate every corner, so they are slow but straightforward.
quadrant_sweep keeps the full corner grid of the other axes for the whole
sweep and evaluates, at each step, the quadrant its points enter.  The
tests compare the production sweep against them value for value (Fractions)
and bit for bit (floats).

closed_form_fractions is the one-dimensional closed form in one Fraction per
point, as star_discrepancy_1d_closed_form computed it before it moved to
integer numerators.

sampled_deviation_per_sample is sampled_deviation_lower_bound as it was
before its counts became one comparison per axis and its deviations one
object-array pass: all axes compared at once, then one Python step per
sample.
"""

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from lowdisc.pointsets import PointSet
from lowdisc.quality import BudgetError


def closed_form_fractions(ps: PointSet) -> Fraction:
    """D*_N = 1/(2N) + max_i |x_(i) - (2i-1)/(2N)| for one dimension, exact."""
    n = ps.count
    xs = sorted(Fraction(v, ps.denominators[0]) for v in ps.numerators[:, 0].tolist())
    half = Fraction(1, 2 * n)
    dev = max(abs(x - Fraction(2 * i - 1, 2 * n)) for i, x in enumerate(xs, start=1))
    return half + dev


def star_exact(nums: np.ndarray, dens: Sequence[int], n: int) -> Fraction:
    """Corner sweep with integer objectives; nums is (n, s) int64."""
    s = nums.shape[1]
    big_den = n
    for d in dens:
        big_den *= d
    # int64 overflow guard: objectives are bounded by n * prod(dens)
    if big_den >= 1 << 62:
        raise BudgetError(
            "denominator product too large for the exact sweep; "
            "reduce precision or use sampled_deviation_lower_bound"
        )
    full = 1
    for d in dens:
        full *= d
    best = 0

    if s == 1:
        D = int(dens[0])
        u = np.sort(nums[:, 0])
        grid = np.unique(np.concatenate([u, [D]]))
        a_minus = np.searchsorted(u, grid, side="left")
        a_plus = np.searchsorted(u, grid, side="right")
        best = max(
            int((n * grid - a_minus * D).max()),
            int((a_plus * D - n * grid).max()),
        )
        return Fraction(best, n * D)

    if s == 2:
        Du, Dv = int(dens[0]), int(dens[1])
        DuDv = Du * Dv
        order = np.argsort(nums[:, 0], kind="stable")
        u = nums[order, 0]
        v = nums[order, 1]
        gu = np.unique(np.concatenate([u, [Du]]))
        gv = np.unique(np.concatenate([nums[:, 1], [Dv]]))
        ranks = np.searchsorted(gv, v)
        G = len(gv)
        h_minus = np.zeros(G, dtype=np.int64)
        h_plus = np.zeros(G, dtype=np.int64)
        ptr_minus = ptr_plus = 0
        for g1 in gu:
            g1 = int(g1)
            while ptr_minus < n and u[ptr_minus] < g1:
                h_minus[ranks[ptr_minus]] += 1
                ptr_minus += 1
            while ptr_plus < n and u[ptr_plus] <= g1:
                h_plus[ranks[ptr_plus]] += 1
                ptr_plus += 1
            inc_plus = np.cumsum(h_plus)
            inc_minus = np.cumsum(h_minus)
            a_minus = inc_minus - h_minus  # exclusive: count(v < gv[k])
            volume = (n * g1) * gv
            best = max(
                best,
                int((volume - a_minus * DuDv).max()),
                int((inc_plus * DuDv - volume).max()),
            )
        return Fraction(best, n * DuDv)

    # s == 3
    Du, Dv, Dw = (int(d) for d in dens)
    Dall = Du * Dv * Dw
    order = np.argsort(nums[:, 0], kind="stable")
    u = nums[order, 0]
    v = nums[order, 1]
    w = nums[order, 2]
    gu = np.unique(np.concatenate([u, [Du]]))
    gv = np.unique(np.concatenate([nums[:, 1], [Dv]]))
    gw = np.unique(np.concatenate([nums[:, 2], [Dw]]))
    rv = np.searchsorted(gv, v)
    rw = np.searchsorted(gw, w)
    Gv, Gw = len(gv), len(gw)
    h_minus = np.zeros((Gv, Gw), dtype=np.int64)
    h_plus = np.zeros((Gv, Gw), dtype=np.int64)
    vol_vw = gv[:, None] * gw[None, :]
    ptr_minus = ptr_plus = 0
    for g1 in gu:
        g1 = int(g1)
        while ptr_minus < n and u[ptr_minus] < g1:
            h_minus[rv[ptr_minus], rw[ptr_minus]] += 1
            ptr_minus += 1
        while ptr_plus < n and u[ptr_plus] <= g1:
            h_plus[rv[ptr_plus], rw[ptr_plus]] += 1
            ptr_plus += 1
        inc_plus = h_plus.cumsum(axis=0).cumsum(axis=1)
        inc_minus = h_minus.cumsum(axis=0).cumsum(axis=1)
        # exclusive 2D prefix: shift the inclusive sums by one in each axis
        a_minus = np.zeros_like(inc_minus)
        a_minus[1:, 1:] = inc_minus[:-1, :-1]
        volume = (n * g1) * vol_vw
        best = max(
            best,
            int((volume - a_minus * Dall).max()),
            int((inc_plus * Dall - volume).max()),
        )
    return Fraction(best, n * Dall)


def star_float(rows: np.ndarray, n: int) -> float:
    """Same sweep in float64 for FLOAT point sets (approximate)."""
    s = rows.shape[1]
    best = 0.0
    if s == 1:
        u = np.sort(rows[:, 0])
        grid = np.unique(np.concatenate([u, [1.0]]))
        a_minus = np.searchsorted(u, grid, side="left")
        a_plus = np.searchsorted(u, grid, side="right")
        return float(
            max((grid - a_minus / n).max(), (a_plus / n - grid).max())
        )
    if s == 2:
        order = np.argsort(rows[:, 0], kind="stable")
        u, v = rows[order, 0], rows[order, 1]
        gu = np.unique(np.concatenate([u, [1.0]]))
        gv = np.unique(np.concatenate([rows[:, 1], [1.0]]))
        ranks = np.searchsorted(gv, v)
        h_minus = np.zeros(len(gv))
        h_plus = np.zeros(len(gv))
        ptr_minus = ptr_plus = 0
        for g1 in gu:
            while ptr_minus < n and u[ptr_minus] < g1:
                h_minus[ranks[ptr_minus]] += 1
                ptr_minus += 1
            while ptr_plus < n and u[ptr_plus] <= g1:
                h_plus[ranks[ptr_plus]] += 1
                ptr_plus += 1
            inc_plus = np.cumsum(h_plus)
            a_minus = np.cumsum(h_minus) - h_minus
            volume = g1 * gv
            best = max(
                best,
                float((volume - a_minus / n).max()),
                float((inc_plus / n - volume).max()),
            )
        return best
    order = np.argsort(rows[:, 0], kind="stable")
    u, v, w = rows[order, 0], rows[order, 1], rows[order, 2]
    gu = np.unique(np.concatenate([u, [1.0]]))
    gv = np.unique(np.concatenate([rows[:, 1], [1.0]]))
    gw = np.unique(np.concatenate([rows[:, 2], [1.0]]))
    rv = np.searchsorted(gv, v)
    rw = np.searchsorted(gw, w)
    h_minus = np.zeros((len(gv), len(gw)))
    h_plus = np.zeros((len(gv), len(gw)))
    vol_vw = gv[:, None] * gw[None, :]
    ptr_minus = ptr_plus = 0
    for g1 in gu:
        while ptr_minus < n and u[ptr_minus] < g1:
            h_minus[rv[ptr_minus], rw[ptr_minus]] += 1
            ptr_minus += 1
        while ptr_plus < n and u[ptr_plus] <= g1:
            h_plus[rv[ptr_plus], rw[ptr_plus]] += 1
            ptr_plus += 1
        inc_plus = h_plus.cumsum(axis=0).cumsum(axis=1)
        inc_minus = h_minus.cumsum(axis=0).cumsum(axis=1)
        a_minus = np.zeros_like(inc_minus)
        a_minus[1:, 1:] = inc_minus[:-1, :-1]
        volume = g1 * vol_vw
        best = max(
            best,
            float((volume - a_minus / n).max()),
            float((inc_plus / n - volume).max()),
        )
    return best


def quadrant_sweep(pts: np.ndarray, tops: Sequence, exact: bool):
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


def sampled_deviation_per_sample(ps: PointSet, samples: int, seed: int) -> Fraction:
    """Exact deviation at `samples` random corners k/2^30, one sample at a time."""
    rng = np.random.default_rng(seed)
    bits = 30
    scale = 1 << bits
    s = ps.dim
    n = ps.count
    ks = rng.integers(1, scale + 1, size=(samples, s), dtype=np.int64)
    cells = [
        divmod(v << bits, d)
        for row in ps.numerators.tolist()
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
    vol_den = scale ** s
    best = 0
    for k_row, below, upto in zip(ks.tolist(), strict.tolist(), weak.tolist()):
        vol = math.prod(k_row) * n
        best = max(best, vol - below * vol_den, upto * vol_den - vol)
    return Fraction(best, n * vol_den)
