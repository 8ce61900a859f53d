"""The exact star-discrepancy sweep behind quality.star_discrepancy.

The sweep runs in STAR_SWEEP_CHUNKS independent ranges of steps, which a
large sweep splits between this process and one forked child when two
CPUs are free.  quality.star_discrepancy imports this module on its first
call that sweeps, so a process that never computes D* never loads it.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from itertools import starmap
from typing import Callable, Sequence

import numpy as np

from .quality import STAR_SWEEP_CHUNKS, _axis_grid

# a sweep forks when its corner work, summed over ranges of (steps) x (points
# counted)^(s - 1), reaches this: about 10 ms of sweeping in one process,
# where a fork costs about 4 ms
STAR_FORK_WORK = 1 << 22


def star_sweep(pts: np.ndarray, tops: Sequence, exact: bool):
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

    Both sides of a step are also maximal at critical corners, whose every
    coordinate is a value of a point counted so far or the axis end: moving
    a coordinate up to the next such value keeps the open count and does not
    lower x * vol, moving it down to the largest such value in the box keeps
    the closed count.  So the steps run in STAR_SWEEP_CHUNKS equal ranges,
    each on the corner grid of the points counted by its last step, and the
    full grid is built only for the last range.  A range rebuilds its counts
    from a bincount of the points before it, so the ranges are independent,
    and they are split over two processes when two CPUs are free.
    """
    n, s = pts.shape
    grid = _axis_grid(pts[:, 0], tops[0])
    unit = math.prod(int(t) for t in tops) if exact else 1
    xs = n * grid if exact else grid

    def share(counts):
        return counts if exact else counts / n

    if s == 1:
        u = np.sort(pts[:, 0])
        strict = np.searchsorted(u, grid, side="left") * unit
        weak = np.searchsorted(u, grid, side="right") * unit
        return max((xs - share(strict)).max(), (share(weak) - xs).max())

    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    # step k adds the points cuts[k]:cuts[k + 1]; every coordinate is below
    # its axis end, so each step but the last (the end itself) adds one or more
    cuts = np.searchsorted(pts[:, 0], grid, side="left")
    edges = [(len(xs) - 1) * c // STAR_SWEEP_CHUNKS for c in range(STAR_SWEEP_CHUNKS + 1)]
    inner, trim = (slice(1, None),) * (s - 1), (slice(None, -1),) * (s - 1)

    def sweep(lo, hi):
        head, tail = cuts[lo], cuts[hi]
        grids = [_axis_grid(pts[:tail, j], top) for j, top in enumerate(tops[1:], 1)]
        ranks = np.stack(
            [np.searchsorted(g, pts[:tail, j]) for j, g in enumerate(grids, 1)], axis=1
        )
        vol = functools.reduce(np.multiply.outer, grids)
        # closed[i + 1] counts the points <= corner i on every axis, so
        # closed[i] is the open count at corner i: one array serves both
        # sides, and before a step's points are added it holds the open
        # counts of that step
        shape = tuple(len(g) + 1 for g in grids)
        cells = np.ravel_multi_index(tuple(ranks[:head].T + 1), shape)
        closed = np.bincount(cells, minlength=math.prod(shape)) * unit
        closed = closed.astype(vol.dtype).reshape(shape)
        for axis in range(s - 1):
            np.cumsum(closed, axis=axis, out=closed)
        corners = np.minimum.reduceat(ranks[head:], cuts[lo:hi] - head, axis=0)
        steps = zip(xs[lo:hi], corners.tolist(), cuts[lo:hi], cuts[lo + 1 : hi + 1])
        best = 0
        for x, corner, a, b in steps:
            scaled = x * vol[tuple(slice(i, None) for i in corner)]
            # a view: it holds the open counts now, the closed ones after the add
            counts = closed[tuple(slice(i + 1, None) for i in corner)]
            best = max(best, np.maximum.reduce(scaled[inner] - share(counts[trim]), axis=None))
            if b - a == 1:  # one point, at the corner
                counts += unit
            else:
                for r in ranks[a:b].tolist():
                    closed[tuple(slice(i + 1, None) for i in r)] += unit
            best = max(best, np.maximum.reduce(np.subtract(share(counts), scaled, out=scaled), axis=None))
        if hi < len(xs) - 1:
            return best
        # the last range's grid holds every point; vol is not needed after
        vol *= xs[-1]
        return max(best, np.subtract(vol, share(closed[trim]), out=vol).max())

    ranges = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    work = [(hi - lo) * int(cuts[hi]) ** (s - 1) for lo, hi in ranges]
    return max_over_two_processes(sweep, ranges, work, exact)


def max_over_two_processes(run: Callable, ranges: list, work: list, exact: bool):
    """max(run(lo, hi) for lo, hi in ranges), bit for bit.

    When the work reaches STAR_FORK_WORK, two CPUs are free and no other
    thread runs, one forked child takes part of the ranges: this process
    keeps the last, and the others go, heaviest first, to the side with
    less work.  Each side runs its ranges in ascending order.  The child
    writes its maximum to a pipe (a decimal int, or float.hex) and exits;
    it is always reaped, and a child that fails raises RuntimeError.
    """
    if not (
        sum(work) >= STAR_FORK_WORK and len(ranges) > 1
        and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1
    ):
        return max(starmap(run, ranges))
    mine, theirs, excess = [ranges[-1]], [], work[-1]
    for w, r in sorted(zip(work[:-1], ranges[:-1]), reverse=True):
        if excess > 0:
            theirs.append(r)
            excess -= w
        else:
            mine.append(r)
            excess += w
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: all ranges here
        os.close(read_end)
        os.close(write_end)
        return max(starmap(run, ranges))
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            best = max(starmap(run, sorted(theirs)))
            os.write(write_end, (str(int(best)) if exact else float(best).hex()).encode())
            code = 0
        except BaseException:
            import traceback  # the caller raises RuntimeError; the cause shows here

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            best = max(starmap(run, sorted(mine)))
            reply = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        if code == 0:
            return max(best, int(reply) if exact else float.fromhex(reply.decode()))
    except ValueError:
        pass
    raise RuntimeError(f"the star sweep's second process failed: exit code {code}, reply {reply!r}")
