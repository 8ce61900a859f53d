"""The corner sweeps that star_discrepancy used before the
quadrant-restricted sweep, kept verbatim as reference implementations.

Each x-step rebuilds the full cumulative-count tables and evaluates every
corner, so these are slow but straightforward; the tests compare the
production sweep against them value for value (Fractions) and bit for bit
(floats).
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from lowdisc.quality import BudgetError


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
