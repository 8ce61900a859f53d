"""Tests for continued fractions and bounded-quotient searches."""

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc.diophantine import (
    continued_fraction,
    zaremba_search,
    zaremba_table,
)


def convergents(quotients: Sequence[int]) -> list[tuple[int, int]]:
    """Convergents (h_j, k_j) of [0; a_1, a_2, ...], starting from (0, 1)."""
    hs = [(0, 1)]
    h_prev, k_prev = 1, 0
    h, k = 0, 1
    for a in quotients:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        hs.append((h, k))
    return hs


def cf_to_fraction(quotients: Sequence[int]) -> tuple[int, int]:
    """(a, n) with a/n = [0; quotients] in lowest terms."""
    if not quotients:
        raise ValueError("empty quotient list")
    if any(q < 1 for q in quotients):
        raise ValueError("partial quotients must be >= 1")
    return convergents(quotients)[-1]


def max_partial_quotient(quotients: Sequence[int]) -> int:
    if not quotients:
        raise ValueError("empty quotient list")
    return max(quotients)


def noncanonical_variant(quotients: Sequence[int]) -> tuple[int, ...]:
    """The other expansion of the same fraction: [..., m] <-> [..., m-1, 1].

    Every rational has exactly two expansions; this maps the canonical one
    (last quotient >= 2) to its twin ending in 1, and back.
    """
    qs = list(quotients)
    if not qs:
        raise ValueError("empty quotient list")
    if qs[-1] == 1:
        if len(qs) == 1:
            raise ValueError("[1] has no canonical twin with the same value")
        qs.pop()
        qs[-1] += 1
    else:
        qs[-1] -= 1
        qs.append(1)
        if qs[0] == 0:
            raise ValueError("variant would need a zero quotient")
    return tuple(qs)


def cf_by_fractions(a, n):
    """Independent expansion via Fraction arithmetic."""
    x = Fraction(a, n)
    out = []
    while x:
        x = 1 / x
        q = math.floor(x)
        out.append(q)
        x -= q
    return tuple(out)


# --- expansion ----------------------------------------------------------------

def test_hand_example_7_16():
    qs = continued_fraction(7, 16)
    assert qs == (2, 3, 2)
    assert max_partial_quotient(qs) == 3
    assert cf_to_fraction(qs) == (7, 16)


def test_single_quotient():
    assert continued_fraction(1, 2) == (2,)
    assert continued_fraction(1, 17) == (17,)


def test_validation():
    with pytest.raises(ValueError):
        continued_fraction(0, 5)
    with pytest.raises(ValueError):
        continued_fraction(5, 5)
    with pytest.raises(ValueError):
        continued_fraction(2, 6)  # gcd 2
    with pytest.raises(ValueError):
        cf_to_fraction(())
    with pytest.raises(ValueError):
        cf_to_fraction((2, 0, 1))


def test_expansion_matches_fraction_oracle_and_is_canonical():
    rng = random.Random(1212)
    for _ in range(200):
        n = rng.randint(2, 5000)
        a = rng.randint(1, n - 1)
        if math.gcd(a, n) != 1:
            continue
        qs = continued_fraction(a, n)
        assert qs == cf_by_fractions(a, n)
        assert all(q >= 1 for q in qs)
        assert qs[-1] >= 2
        assert cf_to_fraction(qs) == (a, n)


def test_fibonacci_quotients_are_all_small():
    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for k in range(3, 20):
        qs = continued_fraction(fib[k - 1], fib[k])
        assert max_partial_quotient(qs) <= 2
        assert set(qs[:-1]) <= {1}


def test_convergent_determinant_identity():
    # h_j k_{j-1} - h_{j-1} k_j = (-1)^(j-1) along the sequence
    qs = continued_fraction(355, 1000 + 13)  # arbitrary coprime pair
    cs = convergents(qs)
    for j in range(1, len(cs)):
        h, k = cs[j]
        hp, kp = cs[j - 1]
        assert h * kp - hp * k in (1, -1)


def test_noncanonical_variant_roundtrip():
    qs = continued_fraction(7, 16)
    alt = noncanonical_variant(qs)
    assert alt == (2, 3, 1, 1)
    assert cf_to_fraction(alt) == (7, 16)
    assert noncanonical_variant(alt) == qs
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(3, 400)
        a = rng.randint(1, n - 1)
        if math.gcd(a, n) != 1:
            continue
        qs = continued_fraction(a, n)
        assert cf_to_fraction(noncanonical_variant(qs)) == (a, n)


# --- zaremba search --------------------------------------------------------------

def test_zaremba_search_hand_value():
    # 7/16 = [2,3,2] and nothing smaller works:
    # 1 -> [16], 3 -> [5,3], 5 -> [3,5]; evens share a factor with 16
    assert zaremba_search(16, 3) == 7


def zaremba_brute(n, c):
    """Smallest coprime a with every quotient <= c, scanning from a = 1."""
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        if max(cf_by_fractions(a, n)) <= c:
            return a
    return None


def test_zaremba_search_matches_brute_force():
    for n in range(2, 80):
        for c in (1, 2, 3):
            assert zaremba_search(n, c) == zaremba_brute(n, c)


@settings(max_examples=60)
@given(n=st.integers(2, 4000), c=st.integers(1, 6))
@example(n=2, c=1)
@example(n=17, c=17)
@example(n=2048, c=3)
@example(n=3125, c=5)
def test_zaremba_search_from_its_scan_start_matches_brute_force(n, c):
    assert zaremba_search(n, c) == zaremba_brute(n, c)


@pytest.mark.parametrize("c", range(1, 7))
def test_zaremba_search_at_multiples_of_c_plus_1(c):
    # a = n/(c+1) has first quotient exactly c+1, the last candidate the
    # scan skips; n//(c+1) + 1, its first candidate, is often the witness
    starts = 0
    for n in range(c + 1, 60 * (c + 1), c + 1):
        a = zaremba_search(n, c)
        assert a == zaremba_brute(n, c)
        assert a != n // (c + 1)
        starts += a == n // (c + 1) + 1
    assert starts > 0 or c == 1


def test_zaremba_search_trivial_and_impossible():
    assert zaremba_search(17, 17) == 1  # 1/17 = [17]
    # every expansion ends in a quotient >= 2, so bound 1 has no witness;
    # the answer comes at once, without a scan of 2^40 candidates
    assert zaremba_search(4, 1) is None
    assert zaremba_search(2 ** 40, 1) is None
    with pytest.raises(ValueError):
        zaremba_search(1, 3)
    with pytest.raises(ValueError):
        zaremba_search(10, 0)


def test_zaremba_witness_bound_applies():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(10, 3000)
        a = zaremba_search(n, 3)
        if a is None:
            continue
        qs = continued_fraction(a, n)
        assert max_partial_quotient(qs) <= 3
        # minimality: no smaller coprime a satisfies the bound
        for smaller in range(1, a):
            if math.gcd(smaller, n) == 1:
                assert max(cf_by_fractions(smaller, n)) > 3


# --- power tables ------------------------------------------------------------------

def test_zaremba_table_base2_frozen_prefix():
    rows = zaremba_table(2, 8, 3)
    assert [(r.m, r.n, r.witness) for r in rows] == [
        (1, 2, 1),
        (2, 4, 3),
        (3, 8, 3),
        (4, 16, 7),
        (5, 32, 25),
        (6, 64, 19),
        (7, 128, 47),
        (8, 256, 75),
    ]
    for r in rows:
        assert r.max_quotient <= 3


def test_zaremba_table_bases_3_and_5():
    rows3 = zaremba_table(3, 6, 5)
    assert [r.witness for r in rows3] == [1, 2, 5, 14, 53, 127]
    rows5 = zaremba_table(5, 4, 5)
    assert [r.witness for r in rows5] == [1, 7, 23, 107]
    for r in rows3 + rows5:
        assert r.max_quotient <= 5
        assert math.gcd(r.witness, r.n) == 1


def test_zaremba_table_validation():
    with pytest.raises(ValueError):
        zaremba_table(4, 5, 3)
    with pytest.raises(ValueError):
        zaremba_table(2, 0, 3)
