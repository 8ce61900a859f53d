"""Tests for quality assessment: net verification, duality, exact star
discrepancy, P_2, and the integration harness."""

import contextlib
import errno
import gc
import itertools
import math
import os
import random
import signal
import threading
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import net_reference
from net_reference import character_orthogonality, nrt_weight
from star_reference import (
    closed_form_fractions,
    quadrant_sweep,
    sampled_deviation_per_sample,
    star_exact,
    star_float,
)

import lowdisc.quality as quality
import lowdisc.sweep as sweep
from lowdisc.algebra import Poly, monic_irreducibles
from lowdisc.pointsets import (
    GeneratingMatrixSet,
    PointSet,
    digital_net,
    halton,
    kronecker,
    lattice_points,
    niederreiter_matrices,
    niederreiter_net,
    polynomial_lattice,
    polynomial_lattice_matrices,
)
from lowdisc.quality import (
    STAR_DISCREPANCY_BUDGET,
    STAR_SWEEP_CHUNKS,
    BudgetError,
    QualityReport,
    assess,
    dual_space,
    minimal_t_dual,
    minimal_t_geometric,
    net_property,
    p2_dual_sum,
    p2_tail_bound,
    p_alpha,
    qmc_integrate,
    sampled_deviation_lower_bound,
    star_discrepancy,
    star_discrepancy_1d_closed_form,
)


def naive_star_discrepancy(ps):
    """Brute-force corner maximum in Fraction arithmetic.

    Independent of the sweep implementation: enumerates the full corner
    grid and counts points with straight comparisons.
    """
    n = ps.count
    s = ps.dim
    pts = ps.as_fractions()
    grids = [
        sorted({p[j] for p in pts} | {Fraction(1)}) for j in range(s)
    ]
    best = Fraction(0)
    for corner in itertools.product(*grids):
        vol = Fraction(1)
        for c in corner:
            vol *= c
        open_count = sum(
            1 for p in pts if all(p[j] < corner[j] for j in range(s))
        )
        closed_count = sum(
            1 for p in pts if all(p[j] <= corner[j] for j in range(s))
        )
        best = max(
            best, vol - Fraction(open_count, n), Fraction(closed_count, n) - vol
        )
    return best


def random_exact_pointset(rng, s, n, max_den=9):
    dens = [rng.randint(1, max_den) for _ in range(s)]
    rows = [[rng.randrange(d) for d in dens] for _ in range(n)]
    return PointSet.exact(rows, dens)


# ---------------------------------------------------------------------------
# Geometric net verification
# ---------------------------------------------------------------------------

def test_quarter_points_are_a_0_2_1_net():
    ps = PointSet.exact([[0], [2], [1], [3]], [4])
    assert net_property(ps, 2, 2, 0)
    assert minimal_t_geometric(ps, 2, 2) == 0


def test_repeated_origin_has_worst_t():
    m = 3
    ps = PointSet.exact([[0, 0]] * 8, [8, 8])
    assert minimal_t_geometric(ps, 2, m) == m


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_niederreiter_b2_s2_is_a_0_net(m):
    assert minimal_t_geometric(niederreiter_net(2, 2, m), 2, m) == 0


def test_geometric_walk_builds_its_cell_keys_in_place():
    # one key and one digit array at a time: about the s = 2 numerators
    ps = niederreiter_net(2, 2, 16)
    tracemalloc.start()
    try:
        assert minimal_t_geometric(ps, 2, 16) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * ps.numerators.nbytes


def test_geometric_walk_keeps_one_cell_key_per_depth():
    # at s = 3 a prefix's key lives while its children's keys are built
    ps = niederreiter_net(2, 3, 12)
    tracemalloc.start()
    try:
        assert minimal_t_geometric(ps, 2, 12) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ps.numerators.nbytes


def test_niederreiter_b2_s3_needs_t_1():
    # third coordinate uses the degree-2 irreducible x^2+x+1, so the bound
    # sum(e_j - 1) = 1 is tight here
    for m in (3, 4):
        ps = niederreiter_net(2, 3, m)
        assert minimal_t_geometric(ps, 2, m) == 1


def test_niederreiter_t_respects_degree_sum_bound():
    """Geometric t stays within sum(deg p_j - 1) across small bases."""
    cases = [(2, s, m) for s in (2, 3, 4, 5) for m in (6, 8)]
    cases += [(3, s, 4) for s in (2, 3, 4)]
    cases += [(5, s, 3) for s in (2, 3, 4, 5)]
    for b, s, m in cases:
        bound = sum(p.degree - 1 for p in monic_irreducibles(b, s))
        t = minimal_t_geometric(niederreiter_net(b, s, m), b, m)
        assert t <= min(m, bound), (b, s, m, t, bound)


def test_zero_matrix_digital_net_has_worst_t():
    zero = [[0] * 3 for _ in range(3)]
    G = GeneratingMatrixSet(2, [zero, zero])
    ps = digital_net(G)
    assert ps.as_fractions() == [(Fraction(0), Fraction(0))] * 8
    assert minimal_t_geometric(ps, 2, 3) == 3


def test_net_property_validates_input():
    ps = PointSet.exact([[0], [2], [1], [3]], [4])
    with pytest.raises(ValueError):
        net_property(ps, 2, 3, 0)  # wrong N for m=3
    with pytest.raises(ValueError):
        net_property(ps, 2, 2, 3)  # t > m
    with pytest.raises(ValueError):
        net_property(PointSet.floating([[0.0]] * 4), 2, 2, 0)
    with pytest.raises(ValueError):
        # right count, wrong denominator
        net_property(PointSet.exact([[0]] * 4, [5]), 2, 2, 0)


@st.composite
def net_inputs(draw, b):
    """(ps, m) over s in 1..4, m in 0..6: digital nets of random or
    all-zero matrices and arbitrary sets of b^m grid points."""
    m = draw(st.integers(0, 6))
    s = draw(st.integers(1, 4))
    # the retired counter costs b^m points times C(m + s, s) shapes over
    # all t; this keeps each example under a second
    assume(b ** m * math.comb(m + s, s) <= 500_000)
    kind = draw(st.sampled_from(["matrices", "zero", "points"]))
    if m == 0:
        return PointSet.exact([[0] * s], [1] * s), m
    if kind == "points":
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        rows = [[rng.randrange(b ** m) for _ in range(s)] for _ in range(b ** m)]
        return PointSet.exact(rows, [b ** m] * s), m
    entry = st.integers(0, b - 1) if kind == "matrices" else st.just(0)
    matrix = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)
    mats = draw(st.lists(matrix, min_size=s, max_size=s))
    return digital_net(GeneratingMatrixSet(b, mats)), m


@pytest.mark.parametrize("b", [2, 3, 5])
@settings(max_examples=40)
@given(data=st.data())
def test_net_property_matches_retired_counter(b, data):
    ps, m = data.draw(net_inputs(b))
    holds = [net_property(ps, b, m, t) for t in range(m + 1)]
    assert holds == [net_reference.net_property(ps, b, m, t) for t in range(m + 1)]
    assert minimal_t_geometric(ps, b, m) == holds.index(True)


@pytest.mark.parametrize(
    "build,b,m",
    [
        (lambda: PointSet.exact([[0, 0, 0]], [1, 1, 1]), 5, 0),
        (lambda: digital_net(GeneratingMatrixSet(5, [[[0] * 4] * 4] * 2)), 5, 4),
        (lambda: niederreiter_net(5, 4, 4), 5, 4),
        (lambda: niederreiter_net(3, 4, 5), 3, 5),
        (lambda: niederreiter_net(2, 4, 6), 2, 6),
    ],
    ids=["single-point", "zero-matrices", "niederreiter-b5-s4", "niederreiter-b3-s4", "niederreiter-b2-s4"],
)
def test_net_property_matches_retired_counter_on_known_nets(build, b, m):
    ps = build()
    holds = [net_property(ps, b, m, t) for t in range(m + 1)]
    assert holds == [net_reference.net_property(ps, b, m, t) for t in range(m + 1)]
    assert minimal_t_geometric(ps, b, m) == holds.index(True)


def test_t_is_monotone_upward():
    rng = random.Random(7)
    for _ in range(10):
        b, m = 2, 3
        rows = [[rng.randrange(8), rng.randrange(8)] for _ in range(8)]
        ps = PointSet.exact(rows, [8, 8])
        t = minimal_t_geometric(ps, b, m)
        assert net_reference.t_monotonicity_check(ps, b, m, t)
        # the holds-set {t' : net property at t'} is exactly [t, m]
        holds = [net_property(ps, b, m, t2) for t2 in range(m + 1)]
        assert holds == [False] * t + [True] * (m + 1 - t)


# ---------------------------------------------------------------------------
# Dual space route
# ---------------------------------------------------------------------------

def test_nrt_weight_blocks():
    assert nrt_weight([0, 1, 0, 1, 0, 0], 3, 2) == 3
    assert nrt_weight([0] * 6, 3, 2) == 0
    assert nrt_weight([1, 0, 0, 0, 0, 1], 3, 2) == 4
    with pytest.raises(ValueError):
        nrt_weight([1, 0], 3, 2)


def test_dual_of_invertible_s1_is_trivial():
    G = GeneratingMatrixSet(2, [[[1, 1], [0, 1]]])
    d = dual_space(G)
    assert d.dimension == 0
    assert d.delta == 3  # m + 1
    assert minimal_t_dual(G) == 0


def test_dual_of_zero_matrices_is_everything():
    m = 3
    G = GeneratingMatrixSet(2, [[[0] * m] * m, [[0] * m] * m])
    assert minimal_t_dual(G) == m
    assert dual_space(G).delta == 1


def test_dual_basis_is_orthogonal_to_image():
    G = niederreiter_matrices(3, 2, 4)
    basis = net_reference.dual_basis(G)
    m, s, b = 4, 2, 3
    assert len(basis) == dual_space(G).dimension == s * m - m
    for vec in basis:
        for u_index in range(b ** m):
            u = [(u_index // b ** i) % b for i in range(m)]
            image = [
                sum(G.matrices[j][i][r] * u[r] for r in range(m)) % b
                for j in range(s)
                for i in range(m)
            ]
            assert sum(x * y for x, y in zip(vec, image)) % b == 0


def test_dual_t_equals_geometric_t_on_random_matrices():
    rng = random.Random(20240815)
    for _ in range(40):
        b = rng.choice([2, 3])
        m = rng.randint(1, 5)
        s = rng.randint(1, 3)
        mats = [
            [[rng.randrange(b) for _ in range(m)] for _ in range(m)]
            for _ in range(s)
        ]
        G = GeneratingMatrixSet(b, mats)
        assert minimal_t_dual(G) == minimal_t_geometric(digital_net(G), b, m)


def test_dual_needs_square_matrices():
    G = GeneratingMatrixSet(2, [[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValueError):
        minimal_t_dual(G)


@st.composite
def square_matrix_sets(draw):
    """Square generating matrices over F_b, b in {2, 3, 5}, s in 1..4, m in
    1..5: random entries, all zeros (t = m), or one unitriangular matrix
    (invertible, t = 0).  The retired enumeration visits b^(dual dimension)
    vectors, which is at most b^(sm) and b^((s-1)m) for random matrices of
    full rank; both are kept to 2^14 here."""
    b = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["random", "zero", "unitriangular"]))
    s = 1 if kind == "unitriangular" else draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    assume(b ** ((s - (kind == "random")) * m) <= 1 << 14)
    if kind == "unitriangular":
        above = draw(st.lists(st.integers(0, b - 1), min_size=m * m, max_size=m * m))
        mats = [[[1 if i == r else above[i * m + r] if r > i else 0 for r in range(m)] for i in range(m)]]
    else:
        entry = st.integers(0, b - 1) if kind == "random" else st.just(0)
        matrix = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)
        mats = draw(st.lists(matrix, min_size=s, max_size=s))
    return GeneratingMatrixSet(b, mats)


@settings(max_examples=150)
@given(square_matrix_sets())
@example(niederreiter_matrices(5, 4, 2))  # t = 0
@example(niederreiter_matrices(2, 3, 5))  # t = 1
@example(GeneratingMatrixSet(3, [[[0] * 4] * 4] * 2))  # t = m
@example(GeneratingMatrixSet(2, [[[1, 1, 0], [1, 1, 0], [0, 0, 1]]]))  # singular, s = 1
@example(GeneratingMatrixSet(5, [[[0, 0], [0, 3]]]))  # first row zero, s = 1
def test_dual_routes_match_retired_enumeration(G):
    b, m = G.b, G.rows
    d = dual_space(G)
    assert d == net_reference.dual_space(G)
    assert minimal_t_dual(G) == net_reference.minimal_t_dual(G)
    assert minimal_t_dual(G) == minimal_t_geometric(digital_net(G), b, m)
    assert d.delta == m + 1 - minimal_t_dual(G)


def _level_five_matrices():
    """73 matrices of 8 x 8 over F_2 with t = 5 whose level 5 alone has
    C(75, 3) = 67,525 compositions, all passing.

    Rows 1-3 of C_i are 128 + i, i ^ 100 and i ^ 101 read as 8 bits: first
    rows share the leading bit, so no three of them are dependent, and i ^
    100 differs from every first-row sum (128 + i) ^ (128 + j) for j < 73.
    Row 4 is zero, so every level below 5 fails at its first composition.
    """
    def bits(v):
        return [(v >> (7 - k)) & 1 for k in range(8)]

    return GeneratingMatrixSet(2, [
        [bits(128 + i), bits(i ^ 100), bits(i ^ 101)] + [[0] * 8] * 5 for i in range(73)
    ])


def test_walk_over_the_composition_budget_is_refused_on_both_routes():
    G = _level_five_matrices()
    with pytest.raises(BudgetError):
        minimal_t_dual(G)
    with pytest.raises(BudgetError):
        minimal_t_geometric(digital_net(G), 2, 8)
    # the first 20 of the matrices: level 5 has C(22, 3) = 1,540 compositions
    G = GeneratingMatrixSet(b=2, matrices=G.matrices[:20])
    assert minimal_t_dual(G) == minimal_t_geometric(digital_net(G), 2, 8) == 5


def test_one_composition_budget_covers_every_walk(monkeypatch):
    import lowdisc.quality as quality

    # t = 0: the walk checks the 5 compositions of 4 into 2 parts
    G = niederreiter_matrices(2, 2, 4)
    ps = digital_net(G)
    monkeypatch.setattr(quality, "COMPOSITION_BUDGET", 5)
    assert net_property(ps, 2, 4, 0)
    assert minimal_t_geometric(ps, 2, 4) == minimal_t_dual(G) == 0
    monkeypatch.setattr(quality, "COMPOSITION_BUDGET", 4)
    for walk in (
        lambda: net_property(ps, 2, 4, 0),
        lambda: minimal_t_geometric(ps, 2, 4),
        lambda: dual_space(G),
        lambda: minimal_t_dual(G),
    ):
        with pytest.raises(BudgetError):
            walk()
    rep = assess(ps, b=2, m=4)  # ps's provenance names G
    assert rep.t_geometric is None and rep.t_dual is None
    assert rep.star_discrepancy == Fraction(11, 64)


def _t_or_refused(walk, *args):
    try:
        return walk(*args)
    except BudgetError:
        return "refused"


@st.composite
def matrices_with_zero_rows(draw):
    """Generating matrices over F_b, b in {2, 3, 5}, s in 1..5, m in 1..5,
    about half their rows zero, so t = 0 and t = m both occur."""
    b = draw(st.sampled_from([2, 3, 5]))
    s, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.one_of(st.just([0] * m), st.lists(st.integers(0, b - 1), min_size=m, max_size=m))
    matrix = st.lists(row, min_size=m, max_size=m)
    return GeneratingMatrixSet(b, draw(st.lists(matrix, min_size=s, max_size=s)))


@settings(max_examples=150, deadline=None)
@given(matrices_with_zero_rows())
@example(niederreiter_matrices(5, 5, 3))  # t = 0
@example(GeneratingMatrixSet(3, [[[0] * 4] * 4] * 5))  # t = m
def test_prefix_walks_match_the_per_shape_walk_under_every_budget(G):
    # each shape is checked on its own in the oracle, so both prefix walks
    # must reach the same t, or refuse at the same budgets
    b, m = G.b, G.rows
    ps = digital_net(G)
    for budget in (1, 2, 3, 5, 8, 13, 21, 34, 89, 233, quality.COMPOSITION_BUDGET):
        with mock.patch.object(quality, "COMPOSITION_BUDGET", budget):
            want = _t_or_refused(net_reference.t_dual_by_shapes, G)
            assert _t_or_refused(net_reference.t_geometric_by_shapes, ps, b, m) == want
            assert _t_or_refused(minimal_t_geometric, ps, b, m) == want
            assert _t_or_refused(minimal_t_dual, G) == want


def test_dual_walk_reduces_rows_without_a_nullspace_per_composition(monkeypatch):
    calls = []
    nullspace = quality.nullspace_mod_p
    monkeypatch.setattr(quality, "nullspace_mod_p", lambda *args: calls.append(args) or nullspace(*args))
    assert minimal_t_dual(niederreiter_matrices(2, 3, 14)) == 1
    assert len(calls) <= 1  # the dual's dimension


def test_walks_free_the_numerators_without_the_cycle_collector(monkeypatch):
    # a walk that formed a reference cycle would keep every checked set's
    # numerators until the collector ran, refused walks included
    G = niederreiter_matrices(2, 3, 8)
    for budget in (quality.COMPOSITION_BUDGET, 3):
        monkeypatch.setattr(quality, "COMPOSITION_BUDGET", budget)
        ps = digital_net(G)  # its provenance names G, so assess walks both routes
        numerators = weakref.ref(ps.numerators)
        gc.disable()
        try:
            t = _t_or_refused(minimal_t_geometric, ps, 2, 8)
            assert t == _t_or_refused(minimal_t_dual, G) == (1 if budget > 3 else "refused")
            rep = assess(ps, b=2, m=8)
            assert rep.t_geometric == rep.t_dual == (1 if budget > 3 else None)
            del ps
            assert numerators() is None
        finally:
            gc.enable()


def test_walk_counts_checks_not_level_sizes():
    # level 0 of b=2 s=9 m=12 has 125,970 compositions, but each level below
    # t = 8 stops at its first failing one
    assert minimal_t_geometric(niederreiter_net(2, 9, 12), 2, 12) == 8
    assert minimal_t_dual(niederreiter_matrices(2, 9, 12)) == 8


# ---------------------------------------------------------------------------
# Star discrepancy
# ---------------------------------------------------------------------------

def test_star_two_points_frozen():
    ps = PointSet.exact([[0], [1]], [2])  # {0, 1/2}
    assert star_discrepancy(ps) == Fraction(1, 2)


def test_star_single_point_at_origin():
    ps = PointSet.exact([[0]], [1])
    assert star_discrepancy(ps) == 1


def test_star_equidistant_is_optimal():
    n = 10
    ps = PointSet.exact([[2 * i - 1] for i in range(1, n + 1)], [2 * n])
    assert star_discrepancy(ps) == Fraction(1, 2 * n)


def test_star_fibonacci_lattices_frozen():
    assert star_discrepancy(lattice_points([1, 3], 8)) == Fraction(1, 4)
    assert star_discrepancy(lattice_points([1, 8], 13)) == Fraction(28, 169)
    assert star_discrepancy(lattice_points([1, 3, 5], 16)) == Fraction(53, 256)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_star_sweep_matches_naive_oracle(s):
    rng = random.Random(100 + s)
    for _ in range(12):
        ps = random_exact_pointset(rng, s, rng.randint(1, 12))
        assert star_discrepancy(ps) == naive_star_discrepancy(ps)


def test_star_1d_closed_form_on_100_random_sets():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 40)
        den = rng.randint(1, 64)
        ps = PointSet.exact([[rng.randrange(den)] for _ in range(n)], [den])
        # star_discrepancy cross-checks internally; compare explicitly too
        assert star_discrepancy(ps) == star_discrepancy_1d_closed_form(ps)


def test_star_lattice_coordinate_permutation_invariance():
    base = star_discrepancy(lattice_points([1, 8], 13))
    assert star_discrepancy(lattice_points([8, 1], 13)) == base
    p3 = star_discrepancy(lattice_points([1, 3, 5], 16))
    for perm in itertools.permutations([1, 3, 5]):
        assert star_discrepancy(lattice_points(list(perm), 16)) == p3


def test_star_float_path_approximates_exact():
    exact_ps = lattice_points([1, 8], 13)
    float_ps = PointSet.floating(exact_ps.as_floats())
    assert abs(
        star_discrepancy(float_ps) - float(star_discrepancy(exact_ps))
    ) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: star_discrepancy(PointSet.exact([[]] * 2, [])), "empty point set"),
    (lambda: star_discrepancy(PointSet.floating(np.zeros((0, 1)))), "need at least one point"),
    (lambda: star_discrepancy_1d_closed_form(lattice_points([1, 3], 4)),
     "closed form is one-dimensional only"),
    (lambda: star_discrepancy_1d_closed_form(PointSet.floating([[0.5]])),
     "closed form needs an exact point set"),
])
def test_star_input_guards(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n, dens", [(2, [1 << 31, 1 << 31]), (2, [1 << 61]), (4, [1 << 60])])
def test_star_refuses_objectives_beyond_int64(n, dens):
    # n * prod(dens) >= 2^62 would let the sweep's int64 objectives overflow
    ps = PointSet.exact([[d - 1 - k for d in dens] for k in range(n)], dens)
    with pytest.raises(BudgetError, match="denominator product too large"):
        star_discrepancy(ps)


def test_star_at_the_int64_boundary_matches_the_closed_form():
    den = 1 << 60  # n * den = 2^61, the largest power of two let through
    ps = PointSet.exact([[1], [den - 1]], [den])
    assert star_discrepancy(ps) == star_discrepancy_1d_closed_form(ps)
    assert star_discrepancy(ps) == closed_form_fractions(ps)


def test_star_1d_disagreeing_with_the_closed_form_raises(monkeypatch):
    import lowdisc.quality as quality

    monkeypatch.setattr(quality, "star_discrepancy_1d_closed_form", lambda ps: Fraction(0))
    with pytest.raises(RuntimeError, match="disagrees with closed form"):
        star_discrepancy(lattice_points([1], 8))


def test_star_budget_guards():
    with pytest.raises(BudgetError):
        star_discrepancy(lattice_points([1, 3, 5, 7], 16))  # s = 4
    big = lattice_points([1, 89], 10000)
    with pytest.raises(BudgetError):
        star_discrepancy(big)
    # explicit override allows it
    val = star_discrepancy(big, n_limit=10000)
    assert 0 < float(val) < 1


@st.composite
def tied_exact_sets(draw):
    """Exact sets with s = 2, 3 on coarse grids: ties in every coordinate,
    points at 0 and single points are all common."""
    s = draw(st.sampled_from([2, 3]))
    dens = draw(st.lists(st.integers(1, 6), min_size=s, max_size=s))
    cell = st.tuples(*[st.integers(0, d - 1) for d in dens])
    rows = draw(st.lists(cell, min_size=1, max_size=10))
    return PointSet.exact(rows, dens)


@settings(max_examples=150)
@given(tied_exact_sets())
@example(PointSet.exact([[0, 0]], [1, 1]))
@example(PointSet.exact([[0, 0, 0]], [5, 3, 2]))
@example(PointSet.exact([[1, 2, 1]] * 3, [3, 5, 2]))
@example(PointSet.exact([[0, 3, 0], [2, 0, 0], [0, 0, 1], [2, 3, 1]], [4, 4, 2]))
def test_star_sweep_matches_naive_on_tied_sets(ps):
    assert star_discrepancy(ps) == naive_star_discrepancy(ps)


@settings(max_examples=8)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 512),
    dens=st.lists(st.integers(1, 1024), min_size=3, max_size=3),
)
@example(seed=3, n=512, dens=[512, 512, 512])
@example(seed=4, n=300, dens=[7, 1024, 3])
def test_star_sweep_equals_retired_exact_sweep_s3(seed, n, dens):
    rng = random.Random(seed)
    ps = PointSet.exact([[rng.randrange(d) for d in dens] for _ in range(n)], dens)
    nums = np.array(ps.numerators, dtype=np.int64)
    assert star_discrepancy(ps) == star_exact(nums, ps.denominators, n)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    s=st.integers(1, 3),
    n=st.integers(1, 64),
    grid=st.integers(1, 8),
)
def test_star_float_is_bit_identical_to_retired_sweep(seed, s, n, grid):
    # half the coordinates sit on a coarse grid, so ties are common
    rng = random.Random(seed)
    rows = [
        [rng.randrange(grid) / grid if rng.random() < 0.5 else rng.random()
         for _ in range(s)]
        for _ in range(n)
    ]
    ps = PointSet.floating(rows)
    got = star_discrepancy(ps)
    assert got.hex() == star_float(np.array(ps.float_rows), n).hex()


def test_star_float_kronecker_bit_identical_to_retired_sweep():
    ps = kronecker(["sqrt(2)", "sqrt(3)", "sqrt(5)"], 200)
    want = star_float(np.array(ps.float_rows), ps.count)
    assert star_discrepancy(ps).hex() == want.hex()


def _by_quadrant_sweep(ps):
    """D* of ps by the quadrant sweep: a Fraction for exact sets, a float
    otherwise."""
    if not ps.is_exact:
        return float(quadrant_sweep(np.array(ps.float_rows), [1.0] * ps.dim, exact=False))
    nums = np.array(ps.numerators, dtype=np.int64)
    value = quadrant_sweep(nums, ps.denominators, exact=True)
    return Fraction(int(value), ps.count * math.prod(ps.denominators))


def _identical(*values):
    """Equal Fractions, or floats with the same bits."""
    return len({v.hex() if isinstance(v, float) else v for v in values}) == 1


@st.composite
def chunked_sweep_sets(draw):
    """s = 2, 3 sets from one point up to several points per x-step over more
    x-steps than the sweep has ranges.  Coarse axes (denominator 1, 2, 3) tie
    every coordinate and leave later ranges with no new grid values; float
    sets take the same grid values k / d as floats."""
    s = draw(st.sampled_from([2, 3]))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 16, 64, 1000]), min_size=s, max_size=s))
    n = draw(st.integers(1, 4 * STAR_SWEEP_CHUNKS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    rows = [[rng.randrange(d) for d in dens] for _ in range(n)]
    if draw(st.booleans()):
        return PointSet.exact(rows, dens)
    return PointSet.floating([[v / d for v, d in zip(row, dens)] for row in rows])


@settings(max_examples=200, deadline=None)
@given(chunked_sweep_sets())
@example(PointSet.exact([[1, 2]], [3, 5]))
@example(PointSet.exact([[0, 0, 0]], [2, 2, 2]))
@example(PointSet.floating([[0.5, 0.25, 0.75]]))
@example(PointSet.exact([[k % 3, k % 2, k % 3] for k in range(60)], [3, 2, 3]))
@example(PointSet.exact([[k, k % 2] for k in range(64)], [64, 2]))
@example(PointSet.exact([[k // 4, (7 * k) % 16] for k in range(64)], [16, 16]))
@example(PointSet.floating([[k / 64, (k % 3) / 3, (k % 2) / 2] for k in range(64)]))
def test_star_sweep_equals_quadrant_and_full_table_sweeps(ps):
    if ps.is_exact:
        nums = np.array(ps.numerators, dtype=np.int64)
        full_table = star_exact(nums, ps.denominators, ps.count)
    else:
        full_table = star_float(np.array(ps.float_rows), ps.count)
    assert _identical(star_discrepancy(ps), _by_quadrant_sweep(ps), full_table)


# the star-discrepancy inputs of the exact pipeline: two nets at the s = 2
# and s = 3 budgets and a float Kronecker set
PIPELINE_STAR_SETS = {
    "nied-s2-m13": lambda: niederreiter_net(2, 2, 13),
    "nied-s3-m9": lambda: niederreiter_net(2, 3, 9),
    "kron-s3-512": lambda: kronecker(["sqrt(7)", "sqrt(11)", "sqrt(13)"], 512, start=4321),
}


@pytest.mark.parametrize("label", PIPELINE_STAR_SETS)
def test_star_sweep_equals_quadrant_sweep_at_pipeline_shapes(label):
    ps = PIPELINE_STAR_SETS[label]()
    assert _identical(star_discrepancy(ps), _by_quadrant_sweep(ps))


@pytest.mark.parametrize(
    "values, top",
    [
        (np.array([5, 1, 5, 0, 3, 1], dtype=np.int64), 8),
        (np.array([4], dtype=np.int64), 7),
        (np.array([0.5, 0.25, 0.5, 0.0, 0.75]), 1.0),
        (np.array([0.5]), 1.0),
        (np.array([0.5, 0.0, -0.0, 0.25, -0.0, 0.0]), 1.0),
        (np.array([-0.0, 0.5, 0.0]), 1.0),
    ],
)
def test_axis_grid_is_unique_of_the_values_and_top(values, top):
    want = np.unique(np.append(values, top))
    got = quality._axis_grid(values, top)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_star_float_with_a_negative_zero_matches_the_quadrant_sweep():
    ps = PointSet.floating([[-0.0, 0.5], [0.25, -0.0], [0.5, 0.75], [0.0, 0.25]])
    assert _identical(star_discrepancy(ps), _by_quadrant_sweep(ps))


# ---------------------------------------------------------------------------
# The sweep's ranges over two processes
# ---------------------------------------------------------------------------

def _in_process(ps):
    with mock.patch.object(sweep, "STAR_FORK_WORK", math.inf):
        return star_discrepancy(ps)


@contextlib.contextmanager
def _two_cpus(fork_work=0):
    """Sweeps of at least fork_work (any by default) fork as on a machine
    with two free CPUs; yields a mock that counts the os.fork calls."""
    with mock.patch.object(sweep, "STAR_FORK_WORK", fork_work), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=100, deadline=None)
@given(chunked_sweep_sets())
@example(PointSet.exact([[1, 2]], [3, 5]))
@example(PointSet.floating([[0.5, 0.25, 0.75]]))
@example(PointSet.floating([[-0.0, 0.5], [0.25, -0.0], [0.5, 0.75], [0.0, 0.25]]))
@example(PointSet.exact([[k % 3, k % 2, k % 3] for k in range(60)], [3, 2, 3]))
@example(PointSet.exact([[k // 4, (7 * k) % 16] for k in range(64)], [16, 16]))
@example(PointSet.floating([[k / 64, (k % 3) / 3, (k % 2) / 2] for k in range(64)]))
def test_forked_sweep_equals_the_in_process_sweep(ps):
    want = _in_process(ps)
    with _two_cpus() as fork:
        got = star_discrepancy(ps)
    assert _identical(got, want)
    first = ps.numerators[:, 0] if ps.is_exact else ps.float_rows[:, 0]
    # one child per sweep, unless a single x-step leaves one range
    assert fork.call_count == (len(set(first.tolist())) > 1)
    _assert_no_child_left()


def test_discrepancy_cli_prints_the_same_bytes_forked_and_in_process(tmp_path, capsys):
    from lowdisc.cli import main

    assert main(["gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "13", "--out", str(tmp_path)]) == 0
    argv = ["discrepancy", "--points", str(tmp_path / "points.csv"), "--json"]
    capsys.readouterr()
    with mock.patch.object(sweep, "STAR_FORK_WORK", math.inf):
        assert main(argv) == 0
    in_process = capsys.readouterr().out
    with _two_cpus(sweep.STAR_FORK_WORK) as fork:  # the default threshold
        assert main(argv) == 0
    assert fork.call_count == 1
    assert capsys.readouterr().out == in_process
    _assert_no_child_left()


RANGES, WORK = [(0, 1), (1, 2), (2, 3), (3, 4)], [1, 1, 1, 1]


def _child_does(fault):
    """run(lo, hi) = hi / 3, after fault() in a forked child."""
    parent = os.getpid()

    def run(lo, hi):
        if os.getpid() != parent:
            fault()
        return hi / 3

    return run


def test_two_processes_give_the_max_of_all_ranges():
    with _two_cpus() as fork:
        assert _identical(sweep.max_over_two_processes(_child_does(lambda: None), RANGES, WORK, False), 4 / 3)
        assert sweep.max_over_two_processes(lambda lo, hi: 5 * lo, RANGES, WORK, True) == 15
    assert fork.call_count == 2
    _assert_no_child_left()


def _child_raises():
    raise ValueError("in the child")


@pytest.mark.parametrize(
    "fault, code",
    [
        (_child_raises, 1),
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda: os._exit(0), 0),  # before it replies
    ],
    ids=["raises", "exits-3", "sigkill", "no-reply"],
)
def test_a_failed_child_raises_and_is_reaped(fault, code):
    with _two_cpus():
        with pytest.raises(RuntimeError, match=f"second process failed: exit code {code},"):
            sweep.max_over_two_processes(_child_does(fault), RANGES, WORK, False)
    _assert_no_child_left()


def test_the_callers_own_error_propagates_after_the_child_is_reaped():
    parent = os.getpid()

    def run(lo, hi):
        if os.getpid() == parent and hi == 4:  # this process keeps the last range
            raise ValueError("in the caller")
        return hi

    with _two_cpus() as fork:
        with pytest.raises(ValueError, match="in the caller"):
            sweep.max_over_two_processes(run, RANGES, WORK, True)
    assert fork.call_count == 1
    _assert_no_child_left()


@contextlib.contextmanager
def _second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("setting", ["one CPU", "a second thread", "no os.fork", "a failing fork"])
def test_the_sweep_stays_in_process_when_it_cannot_fork(setting, monkeypatch):
    ps = niederreiter_net(2, 2, 8)
    want = _in_process(ps)
    forks = []

    def fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(sweep, "STAR_FORK_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if setting == "one CPU" else {0, 1})
    if setting == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    with _second_thread() if setting == "a second thread" else contextlib.nullcontext():
        assert star_discrepancy(ps) == want
    assert len(forks) == (setting == "a failing fork")
    _assert_no_child_left()


@pytest.mark.parametrize("s", [2, 3])
def test_star_budget_edges_without_n_limit(s):
    cap = STAR_DISCREPANCY_BUDGET[s]
    assert cap == {2: 8192, 3: 512}[s]
    with pytest.raises(BudgetError, match=f"N={cap + 1} exceeds"):
        star_discrepancy(halton([2, 3, 5][:s], cap + 1))
    assert 0 < star_discrepancy(halton([2, 3, 5][:s], cap)) < 1


def test_sampled_lower_bound_never_exceeds_exact():
    for ps in (
        lattice_points([1, 8], 13),
        niederreiter_net(2, 2, 4),
        halton([2, 3], 20),
    ):
        exact = star_discrepancy(ps)
        lb = sampled_deviation_lower_bound(ps, samples=3000, seed=11)
        assert lb <= exact


@st.composite
def one_dimensional_sets(draw):
    """Exact 1D sets: single points, values drawn from a small pool so they
    repeat, and denominators 1, small or near 2^40."""
    den = draw(st.one_of(st.just(1), st.integers(1, 64), st.integers(2 ** 40 - 64, 2 ** 40 + 64)))
    pool = draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return PointSet.exact([[v] for v in rows], [den])


@settings(max_examples=200)
@given(one_dimensional_sets())
@example(PointSet.exact([[0]], [1]))
@example(PointSet.exact([[2 ** 40 - 1]], [2 ** 40]))
@example(PointSet.exact([[3]] * 5, [7]))
@example(PointSet.exact([[0], [2 ** 40 - 1], [2 ** 39]], [2 ** 40]))
def test_star_1d_closed_form_matches_fraction_closed_form(ps):
    assert star_discrepancy_1d_closed_form(ps) == closed_form_fractions(ps)


def test_sampled_lower_bound_survives_denominators_beyond_int64():
    # {1/2, 1/4}: 2^30 * 2^40 overflows int64; the bound must stay <= 1/2
    ps = PointSet.exact([[1 << 39], [1 << 38]], [1 << 40])
    assert star_discrepancy(ps) == Fraction(1, 2)
    assert 0 < sampled_deviation_lower_bound(ps) <= star_discrepancy(ps)
    # the same points over 2^70, past what the exact sweep accepts
    ps = PointSet.exact([[1 << 69], [1 << 68]], [1 << 70])
    exact = star_discrepancy_1d_closed_form(ps)
    assert exact == Fraction(1, 2)
    assert 0 < sampled_deviation_lower_bound(ps) <= exact


def test_sampled_lower_bound_frozen():
    # criterion 9's s = 3 probe (one chunk of samples), and a set large
    # enough to be compared in several chunks
    lb = sampled_deviation_lower_bound(
        lattice_points([1, 3, 5], 16), samples=10_000, seed=99
    )
    assert lb == Fraction(
        56063938725040011999721687, 309485009821345068724781056
    )
    lb = sampled_deviation_lower_bound(halton([2, 3, 5], 2000), samples=3000, seed=5)
    assert lb == Fraction(2081127574149502169837257, 604462909807314587353088000)


@st.composite
def sampled_bound_cases(draw):
    """An exact set of 1 to 5 points in s = 1..4, a chunk size, and a
    sample count just below, at or above the chunk's step (or past two
    steps).  Each axis has denominator 1, a small one, one beyond int64, or
    2^31 with coordinates next to or on a sample corner's, where the strict
    and weak counts differ."""
    s = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    chunk = draw(st.integers(1, 40))
    step = max(1, chunk // (n * s))
    samples = draw(st.sampled_from([step - 1, step, step + 1, 2 * step + 1]).filter(bool))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    corners = np.random.default_rng(seed).integers(1, (1 << 30) + 1, size=(samples, s)).tolist()
    den = st.one_of(
        st.just(1), st.integers(1, 64), st.integers(2 ** 63 - 64, 2 ** 70), st.just(1 << 31)
    )
    dens = draw(st.lists(den, min_size=s, max_size=s))
    rows = [
        [
            min(2 * draw(st.sampled_from(corners))[j] + draw(st.integers(-1, 1)), d - 1)
            if d == 1 << 31 else draw(st.integers(0, d - 1))
            for j, d in enumerate(dens)
        ]
        for _ in range(n)
    ]
    return PointSet.exact(rows, dens), chunk, samples, seed


@settings(max_examples=150, deadline=None)
@given(sampled_bound_cases())
@example((PointSet.exact([[1 << 69]], [1 << 70]), 1, 2, 0))  # n = 1, s = 1
@example((PointSet.exact([[3, 1 << 65, 0, 7]], [4, 1 << 66, 1, 9]), 12, 3, 5))  # s = 4
def test_sampled_bound_matches_per_sample_loop(case):
    import lowdisc.quality as quality

    ps, chunk, samples, seed = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quality, "SAMPLE_CHUNK", chunk)
        got = sampled_deviation_lower_bound(ps, samples=samples, seed=seed)
    assert got == sampled_deviation_per_sample(ps, samples, seed)


def test_sampled_lower_bound_needs_exact_points():
    with pytest.raises(ValueError):
        sampled_deviation_lower_bound(kronecker(["sqrt(2)"], 8))


# ---------------------------------------------------------------------------
# P_2 and characters
# ---------------------------------------------------------------------------

def test_p2_single_point_closed_form():
    assert abs(p_alpha([1], 1) - math.pi ** 2 / 3) < 1e-12


def test_p_alpha_rejects_n_below_1_and_empty_vector():
    with pytest.raises(ValueError):
        p_alpha([1], 0)
    with pytest.raises(ValueError, match="empty generating vector"):
        p_alpha([], 5)


@pytest.mark.parametrize("entry", [1.5, True, "3"])
def test_lattice_routes_refuse_a_generator_entry_that_is_no_int(entry):
    # int() would truncate 1.5 and read True as 1, silently building [1, 3]
    for build in (lattice_points, p_alpha, lambda a, n: p2_dual_sum(a, n, 2)):
        with pytest.raises(ValueError, match=f"entry {entry!r} is not an int"):
            build([entry, 3], 4)


def _p_alpha_unchunked(a, n):
    """p_alpha as one (n, s) array, its terms averaged by mean()."""
    avec = np.array([v % n for v in a], dtype=np.int64)
    k = np.arange(n, dtype=np.int64)
    frac = (k[:, None] * avec[None, :] % n) / n
    terms = (1.0 + 2.0 * math.pi ** 2 * (frac * frac - frac + 1.0 / 6.0)).prod(axis=1)
    return float(terms.mean() - 1.0)


def test_p_alpha_in_chunks(monkeypatch):
    import lowdisc.pointsets as pointsets
    import lowdisc.quality as quality

    cases = [([1, 34], 55), ([1, 89], 10000), ([1, 3, 5], 997), ([7], 1), ([0, 0], 4)]
    for a, n in cases:  # one chunk each: bit-identical to the mean
        assert p_alpha(a, n) == _p_alpha_unchunked(a, n)
    monkeypatch.setattr(quality, "P_ALPHA_CHUNK", 7)
    for a, n in cases:
        assert abs(p_alpha(a, n) - _p_alpha_unchunked(a, n)) < 1e-12
    # the Python-int products that n >= 3.04e9 needs give the same terms
    def wide(start, count, bound):
        return np.arange(start, start + count, dtype=object)

    monkeypatch.setattr(pointsets, "_index_range", wide)
    for a, n in cases:
        assert abs(p_alpha(a, n) - _p_alpha_unchunked(a, n)) < 1e-12


def test_p2_matches_dual_sum_oracle():
    rng = random.Random(4)
    for _ in range(6):
        n = rng.randint(2, 60)
        a = [1, rng.randrange(1, n)]
        closed = p_alpha(a, n)
        h = 60
        truncated = p2_dual_sum(a, n, h)
        assert truncated <= closed + 1e-9  # truncation only removes mass
        assert abs(closed - truncated) <= p2_tail_bound(2, h)


@pytest.mark.parametrize(
    "s,h_bound,message",
    [
        (2, 0, "need h_bound >= 1"),   # the formula divides by H
        (2, -5, "need h_bound >= 1"),  # the formula gives a negative "bound"
        (0, 10, "need s >= 1"),
        (-1, 10, "need s >= 1"),
    ],
)
def test_p2_tail_bound_rejects_what_it_cannot_bound(s, h_bound, message):
    with pytest.raises(ValueError, match=message):
        p2_tail_bound(s, h_bound)
    assert p2_tail_bound(1, 1) == 2.0


def test_p2_is_nonnegative():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 100)
        s = rng.randint(1, 3)
        a = [rng.randrange(n) for _ in range(s)]
        assert p_alpha(a, n) >= -1e-9


def test_p2_fibonacci_improves_with_size():
    fib = [1, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    values = [p_alpha([1, fib[k - 1]], fib[k]) for k in (8, 12, 16)]
    assert values[0] > values[1] > values[2]


def test_character_orthogonality_cases():
    assert character_orthogonality([1, 3], 4, [0, 0]) == 1
    assert character_orthogonality([1, 3], 4, [1, 1]) == 1
    assert character_orthogonality([1, 3], 4, [1, 0]) == 0
    assert character_orthogonality([1, 8], 13, [5, 1]) == 1
    with pytest.raises(ValueError):
        character_orthogonality([1, 3], 4, [1])


def _dual_terms(a, n, h_bound, keep):
    """The box's terms prod_j max(1, |h_j|)^-2 over the h != 0 that keep."""
    box = itertools.product(range(-h_bound, h_bound + 1), repeat=len(a))
    return [
        math.prod(1.0 / max(1, abs(v)) ** 2 for v in h)
        for h in box
        if any(h) and keep(h)
    ]


def test_dense_oracle_keeps_exactly_the_h_whose_character_sum_is_1():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(1, 20)
        a = [rng.randrange(0, 2 * n) for _ in range(rng.randint(1, 2))]
        h = rng.randint(0, 4)
        kept = _dual_terms(a, n, h, lambda v: character_orthogonality(a, n, v) == 1)
        assert abs(net_reference.p2_dual_sum(a, n, h) - math.fsum(kept)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    h_bound=st.integers(0, 30),
    a=st.lists(st.integers(0, 200), min_size=1, max_size=3),
)
@example(n=12, h_bound=30, a=[0, 12, 8])  # a_j = 0, a_j = n, gcd(a_j, n) = 4
@example(n=1, h_bound=5, a=[3, 7])
@example(n=60, h_bound=0, a=[1, 2, 3])
@example(n=55, h_bound=30, a=[1, 34])
def test_p2_fold_matches_dense_oracle(n, h_bound, a):
    assert abs(p2_dual_sum(a, n, h_bound) - net_reference.p2_dual_sum(a, n, h_bound)) < 1e-12


def test_p2_fold_in_four_and_five_dimensions():
    rng = random.Random(11)
    for _ in range(10):
        s = rng.choice([4, 5])
        n = rng.randint(1, 30)
        a = [rng.choice([0, n, 2, rng.randrange(0, 3 * n)]) for _ in range(s)]
        h = rng.randint(0, 3)
        kept = _dual_terms(a, n, h, lambda v: sum(x * y for x, y in zip(a, v)) % n == 0)
        assert abs(p2_dual_sum(a, n, h) - math.fsum(kept)) < 1e-12


def test_p2_dual_sum_rejects_bad_input_and_over_budget(monkeypatch):
    import lowdisc.quality as quality

    for a, n, h in (([1, 2], 0, 3), ([1, 2], -4, 3), ([1, 2], 5, -1), ([], 5, 3)):
        with pytest.raises(ValueError):
            p2_dual_sum(a, n, h)
    assert p2_dual_sum([1, 2], 5, 0) == 0.0  # the origin alone, which is left out
    with pytest.raises(BudgetError):
        p2_dual_sum([1, 2], 10 ** 12, 1)  # refused before an array of length n
    with pytest.raises(BudgetError):
        p2_dual_sum([1], 7, 10 ** 12)  # refused before an array of length 2H + 1
    # the work is s * (2H + 1 + n * min(n, 2H + 1)): 2 * (7 + 10 * 7) = 154
    monkeypatch.setattr(quality, "P2_FOLD_BUDGET", 154)
    assert abs(p2_dual_sum([1, 3], 10, 3) - net_reference.p2_dual_sum([1, 3], 10, 3)) < 1e-12
    monkeypatch.setattr(quality, "P2_FOLD_BUDGET", 153)
    with pytest.raises(BudgetError):
        p2_dual_sum([1, 3], 10, 3)


# ---------------------------------------------------------------------------
# Integration harness
# ---------------------------------------------------------------------------

def test_integrate_constant():
    for ps in (lattice_points([1, 8], 13), halton([2, 3], 10)):
        assert qmc_integrate(lambda x: 1.0, ps) == 1.0


def test_integrate_indicator_error_bounded_by_discrepancy():
    ps = niederreiter_net(2, 2, 5)
    d_star = float(star_discrepancy(ps))
    rng = random.Random(3)
    for _ in range(20):
        y = (rng.random(), rng.random())
        est = qmc_integrate(
            lambda x: 1.0 if x[0] < y[0] and x[1] < y[1] else 0.0, ps
        )
        assert abs(est - y[0] * y[1]) <= d_star + 1e-12


def test_integrate_rejects_non_finite():
    ps = halton([2], 4)
    with pytest.raises(ValueError):
        qmc_integrate(lambda x: float("nan"), ps)


def test_product_integrand_error_stays_bounded_along_net_family():
    # integral of prod 2 x_j over the unit square is 1
    ratios = []
    for m in range(4, 13):
        ps = niederreiter_net(2, 2, m)
        err = abs(qmc_integrate(lambda x: 4 * x[0] * x[1], ps) - 1.0)
        n = 2 ** m
        ratios.append(n * err / math.log(n))
    assert max(ratios) <= 2 * ratios[0] or max(ratios) < 1.0


# ---------------------------------------------------------------------------
# Diagnostic and combined report
# ---------------------------------------------------------------------------

def test_diagnostic_guards_and_degenerate_case():
    assert assess(niederreiter_net(2, 2, 1), b=2, m=1).diagnostic_ratio is None
    zero = PointSet.exact([[0, 0]] * 4, [4, 4])
    val = assess(zero, b=2, m=2).diagnostic_ratio
    assert math.isfinite(val) and val > 0


def test_diagnostic_stays_bounded_for_niederreiter_family():
    vals = [
        assess(niederreiter_net(2, 2, m), b=2, m=m).diagnostic_ratio
        for m in range(4, 10)
    ]
    assert max(vals) <= 1.5 * vals[0]


def test_assess_full_report():
    G = niederreiter_matrices(2, 2, 4)
    rep = assess(digital_net(G), b=2, m=4)
    assert isinstance(rep, QualityReport)
    assert rep.t_geometric == 0 and rep.t_dual == 0
    assert rep.star_discrepancy == Fraction(11, 64)
    assert rep.diagnostic_ratio is not None
    d = rep.as_json_dict()
    assert d["star_discrepancy"] == {"num": 11, "den": 64}


@pytest.mark.parametrize(
    "d_star, written",
    [(Fraction(11, 64), {"num": 11, "den": 64}), (0.171875, 0.171875), (None, None)],
)
def test_report_json_holds_every_field_by_name(d_star, written):
    d_float = None if d_star is None else float(d_star)
    rep = QualityReport(
        n=16, s=2, representation="exact_rational", b=2, m=4, t_geometric=0, t_dual=1,
        star_discrepancy=d_star, star_discrepancy_float=d_float, p2=None, diagnostic_ratio=0.5,
    )
    assert rep.as_json_dict() == {
        "n": 16,
        "s": 2,
        "representation": "exact_rational",
        "b": 2,
        "m": 4,
        "t_geometric": 0,
        "t_dual": 1,
        "star_discrepancy": written,
        "star_discrepancy_float": d_float,
        "p2": None,
        "diagnostic_ratio": 0.5,
    }


def test_assess_fills_p2_for_lattices_and_skips_over_budget():
    rep = assess(lattice_points([1, 8], 13))
    assert rep.p2 is not None and rep.p2 > 0
    big = assess(lattice_points([1, 89], 10000))
    assert big.star_discrepancy is None  # over budget, skipped rather than raised
    assert big.p2 is not None


def _naming(ps: PointSet, G: GeneratingMatrixSet) -> PointSet:
    """ps's points under a provenance that names the matrices of G."""
    return PointSet.exact(ps.numerators, ps.denominators, {"b": G.b, "matrices": G.matrices})


def test_assess_reads_a_net_reference_from_the_provenance():
    G = niederreiter_matrices(2, 4, 5)  # t = 2, between 0 and m
    assert assess(digital_net(G), 2, 5).t_dual == minimal_t_dual(G) == 2
    f = Poly([1, 1, 0, 0, 1], 2)  # x^4 + x + 1
    g = [Poly([1], 2), Poly([0, 1, 0, 1], 2), Poly([1, 0, 1], 2)]
    t = minimal_t_dual(polynomial_lattice_matrices(f, g))  # an int, never None
    assert assess(polynomial_lattice(f, g), 2, 4).t_dual == t


def test_assess_reports_p2_and_t_dual_only_for_their_points():
    G = niederreiter_matrices(2, 2, 4)
    swapped = GeneratingMatrixSet(b=2, matrices=G.matrices[::-1])
    rep = assess(_naming(digital_net(G), swapped), b=2, m=4)
    assert rep.t_geometric == 0 and rep.t_dual is None
    assert assess(digital_net(swapped)).t_dual == 0
    fib = lattice_points([1, 34], 55)
    other = PointSet.exact(halton([2, 3], 55).numerators, [64, 81], provenance=fib.provenance)
    assert assess(other).p2 is None
    assert assess(fib).p2 == p_alpha([1, 34], 55)


def test_assess_builds_no_reference_for_a_refused_dual(monkeypatch):
    import lowdisc.quality as quality

    def must_not_build(*args):
        raise AssertionError("a refused dual needs no reference net")

    G = _level_five_matrices()  # 256 points, but a walk over the budget
    # 256 points too, so a dual t would be checked
    ps = _naming(niederreiter_net(2, 2, 8), G)
    monkeypatch.setattr(quality, "digital_points", must_not_build)
    rep = assess(ps, b=2, m=8)
    assert rep.t_dual is None and rep.t_geometric is not None
