"""Tests for the kernel-based factorizer, against trial-division oracles."""

import itertools
import random
import time

import pytest
from factorizer_reference import (
    kernel_dimension,
    niederreiter_operator,
    operator_rows,
    reference_kernel_basis,
    trial_divide_by_all_monics,
    trial_division_irreducibles,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from polys import monomial

from lowdisc.acceptance import _naive_factor
from lowdisc.algebra import NEG_INF, BudgetError, Poly, is_prime, monic_irreducibles, poly_gcd
from lowdisc.factorizer import (
    FACTOR_DEGREE_BUDGET,
    FactorizationResult,
    factor,
    kernel_basis,
    operator_matrix,
    squarefree_decomposition,
)


def rand_poly(rng, p, max_deg, monic=False):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randrange(p) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, p))
    return Poly(coeffs, p)


def naive_factor(f):
    """Exhaustive trial-division factorization: the independent oracle."""
    p = f.p
    content = f.leading
    work = f.monic()
    out = []
    d = 1
    while work.degree is not NEG_INF and work.degree >= 1:
        if 2 * d > work.degree:
            out.append((work, 1))
            break
        found = False
        for tail in itertools.product(range(p), repeat=d):
            g = Poly(tail + (1,), p)
            mult = 0
            while (work % g).is_zero:
                work = work // g
                mult += 1
            if mult:
                out.append((g, mult))
                found = True
        d += 1
    merged: dict[Poly, int] = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m
    return content, sorted(merged.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


# --- operator ------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_operator_is_linear(p):
    rng = random.Random(900 + p)
    for _ in range(10):
        f = rand_poly(rng, p, 5, monic=True)
        if f.coeff(0) == 0:
            continue
        d = f.degree
        h1 = Poly([rng.randrange(p) for _ in range(d)], p)
        h2 = Poly([rng.randrange(p) for _ in range(d)], p)
        c = rng.randrange(p)
        lhs = niederreiter_operator(f, (h1 + h2 * c) % f if d else h1)
        rhs = niederreiter_operator(f, h1) + niederreiter_operator(f, h2) * c
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derivative_always_in_kernel(p):
    # f'/f has only simple poles, so f' solves the equation for every f
    rng = random.Random(910 + p)
    for _ in range(15):
        f = rand_poly(rng, p, 6, monic=True)
        if f.coeff(0) == 0:
            continue
        assert niederreiter_operator(f, f.derivative()).is_zero


def test_operator_rejects_bad_input():
    f = Poly([1, 1, 1], 2)
    with pytest.raises(ValueError):
        niederreiter_operator(Poly([1, 1], 7), Poly.one(7))  # unsupported p
    with pytest.raises(ValueError):
        niederreiter_operator(Poly([1, 2], 3), Poly.one(3))  # not monic
    with pytest.raises(ValueError):
        niederreiter_operator(Poly([0, 1], 2), Poly.one(2))  # f(0) = 0
    with pytest.raises(ValueError, match="^f must have degree >= 1$"):
        operator_matrix(Poly.one(2))
    with pytest.raises(ValueError, match="^squarefree decomposition needs monic input$"):
        squarefree_decomposition(Poly([1, 0, 2], 3))
    with pytest.raises(ValueError):
        niederreiter_operator(f, monomial(2, 2))             # deg h >= deg f
    with pytest.raises(ValueError):
        niederreiter_operator(f, Poly.one(3))                # mixed moduli


# --- kernel dimension = number of distinct factors -------------------------------

def _squarefree(f):
    fp = f.derivative()
    return (not fp.is_zero) and poly_gcd(f, fp).degree == 0


def _distinct_factor_count(f):
    _, factors = naive_factor(f)
    return len(factors)


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 5)])
def test_kernel_dimension_counts_factors_exhaustively(p, max_deg):
    # every squarefree monic f with f(0) != 0 up to max_deg
    for d in range(2, max_deg + 1):
        for tail in itertools.product(range(p), repeat=d):
            if tail[0] == 0:
                continue
            f = Poly(tail + (1,), p)
            if not _squarefree(f):
                continue
            assert kernel_dimension(f) == _distinct_factor_count(f), f


def test_kernel_certifies_known_irreducibles():
    from lowdisc.algebra import monic_irreducibles

    for p in (2, 3, 5):
        for g in monic_irreducibles(p, 12):
            if g.coeff(0) == 0 or g.degree < 2:
                continue
            assert kernel_dimension(g) == 1


def test_kernel_basis_elements_are_kernel_elements():
    rng = random.Random(77)
    for p in (2, 3):
        for _ in range(10):
            f = rand_poly(rng, p, 6, monic=True)
            if f.coeff(0) == 0:
                continue
            for h in kernel_basis(f):
                assert niederreiter_operator(f, h).is_zero


@st.composite
def operator_moduli(draw):
    """Monic f over F_p, p in {2, 3, 5}, deg 1..12, with f(0) != 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 12))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=d - 1, max_size=d - 1))
    return Poly([draw(st.integers(1, p - 1))] + tail + [1], p)


@settings(max_examples=150)
@given(operator_moduli())
@example(Poly([1, 1], 2))                  # d = 1
@example(Poly([4, 1], 5))                  # d = 1, p = 5
@example(Poly([1, 1, 1], 2))               # p | d
@example(Poly([2, 0, 1, 1, 0, 1, 1], 3))   # p | d, p = 3
@example(Poly([1] * 10 + [1], 5))          # p | d, p = 5
@example(Poly([3] + [0] * 11 + [1], 5))    # deg 12, p = 5
def test_operator_matrix_and_kernel_match_the_per_monomial_operator(f):
    p, d = f.p, f.degree
    rows = operator_rows(f)
    assert operator_matrix(f) == [rows[m * p] for m in range(d)]
    assert all(not any(row) for i, row in enumerate(rows) if i % p)
    basis = kernel_basis(f)
    assert basis == reference_kernel_basis(f)
    for h in basis:
        assert niederreiter_operator(f, h).is_zero


# --- squarefree decomposition ------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_squarefree_decomposition_properties(p):
    rng = random.Random(920 + p)
    for _ in range(25):
        f = rand_poly(rng, p, 9, monic=True)
        parts = squarefree_decomposition(f)
        # reconstruction
        acc = Poly.one(p)
        for g, m in parts:
            acc = acc * g ** m
        assert acc == f
        # parts squarefree and pairwise coprime
        for i, (g, m) in enumerate(parts):
            assert m >= 1
            assert _squarefree(g) or g.degree == 0
            for g2, _ in parts[i + 1 :]:
                assert poly_gcd(g, g2).degree == 0


def test_squarefree_decomposition_pth_power():
    # (x+1)^6 over F_2 exercises the vanishing-derivative branch
    f = Poly([1, 1], 2) ** 6
    assert squarefree_decomposition(f) == [(Poly([1, 1], 2), 6)]


# --- full factorization ---------------------------------------------------------

def test_factor_hand_examples():
    r = factor(Poly([1, 0, 1], 2) * Poly([1, 1], 2))  # (x+1)^3
    assert r.factors == ((Poly([1, 1], 2), 3),)
    assert r.content == 1

    r = factor(Poly([0, 0, 2, 0, 0, 2], 5))  # 2 x^2 (x+1)(x^2+4x+1)
    assert r.content == 2
    assert r.factors == (
        (Poly([0, 1], 5), 2),
        (Poly([1, 1], 5), 1),
        (Poly([1, 4, 1], 5), 1),
    )
    assert r.verify()

    r = factor(Poly([0, 1], 3))  # x alone
    assert r.factors == ((Poly([0, 1], 3), 1),)

    r = factor(Poly([1, 1, 1], 2))  # irreducible stays prime
    assert r.factors == ((Poly([1, 1, 1], 2), 1),)


def test_factor_sorted_and_monic():
    rng = random.Random(5150)
    for p in (2, 3, 5):
        for _ in range(10):
            f = rand_poly(rng, p, 8)
            r = factor(f)
            degs = [(g.degree, g.coeffs) for g, _ in r.factors]
            assert degs == sorted(degs)
            assert all(g.is_monic for g, _ in r.factors)
            assert len({g for g, _ in r.factors}) == len(r.factors)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_matches_naive_oracle(p):
    rng = random.Random(930 + p)
    max_deg = 10 if p != 5 else 8
    for _ in range(40):
        f = rand_poly(rng, p, max_deg)
        r = factor(f)
        assert r.reassemble() == f
        content, expected = naive_factor(f)
        assert r.content == content
        assert list(r.factors) == expected
        assert r.verify()


def test_factor_input_validation():
    with pytest.raises(ValueError):
        factor(Poly.zero(2))
    with pytest.raises(ValueError):
        factor(Poly.one(3))
    with pytest.raises(ValueError):
        factor(Poly([1, 1], 7))


def test_factor_takes_its_degree_budget_and_refuses_one_more_at_once():
    f = Poly([1] + [0] * 255 + [1], 2)  # x^256 + 1 = (x + 1)^256, cheap to split
    assert f.degree == FACTOR_DEGREE_BUDGET == 256
    assert factor(f).factors == ((Poly([1, 1], 2), 256),)
    start = time.perf_counter()
    for p in (2, 3, 5):
        with pytest.raises(BudgetError, match="at most 256, got 257"):
            factor(Poly([1] * 258, p))
    assert time.perf_counter() - start < 1


def test_factorization_result_verify_catches_tampering():
    r = factor(Poly([1, 0, 1, 1], 2))
    tampered = FactorizationResult(
        input=Poly([1, 0, 1, 1], 2),
        content=1,
        factors=((Poly([1, 1], 2), 1), (Poly([1, 1, 1], 2), 1)),
    )
    assert r.verify()
    # (x+1)(x^2+x+1) = x^3 + 1 != x^3 + x^2 + 1
    assert not tampered.verify()


# --- criterion 4's oracle ------------------------------------------------------

def gauss_count(p, d):
    """Monic irreducibles of degree d over F_p: (1/d) sum_(e | d) mu(e) p^(d/e)."""

    def mobius(e):
        primes = [r for r in range(2, e + 1) if e % r == 0 and is_prime(r)]
        return 0 if any(e % (r * r) == 0 for r in primes) else (-1) ** len(primes)

    return sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sieve_finds_gauss_count_per_degree(p):
    counts = [gauss_count(p, d) for d in range(1, 7)]
    degrees = [g.degree for g in monic_irreducibles(p, sum(counts))]
    assert degrees == sorted(degrees)
    assert [degrees.count(d) for d in range(1, 7)] == counts


# criterion 4's lists (degree <= 6), degree <= 5 over F_5, and counts past
# the degree-1 monics at larger p
@pytest.mark.parametrize(
    "p,count", [(2, 23), (3, 196), (5, 829), (17, 18), (101, 102), (1009, 1010)]
)
def test_sieve_lists_the_monic_irreducibles_in_order(p, count):
    assert monic_irreducibles(p, count) == trial_division_irreducibles(p, count)


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 5)])
def test_sieved_oracle_matches_division_by_every_monic(p, max_deg):
    irreducibles = monic_irreducibles(p, sum(gauss_count(p, d) for d in range(1, max_deg // 2 + 1)))
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=d):
            f = Poly(tail + (1,), p)
            assert _naive_factor(f, irreducibles) == trial_divide_by_all_monics(f), f
