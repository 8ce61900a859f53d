"""Oracle tests for exact F_p[x] arithmetic, expansion at infinity, irreducibles."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import timeit

import pytest
from algebra_reference import reference_nullspace
from factorizer_reference import binom_mod, hasse_derivative
from hypothesis import example, given, settings
from hypothesis import strategies as st
from polys import monomial

from lowdisc.algebra import (
    NEG_INF,
    Poly,
    check_prime,
    interpolate,
    inv_mod,
    is_irreducible,
    is_prime,
    laurent_expand,
    monic_irreducibles,
    nullspace_mod_p,
    poly_gcd,
)
from lowdisc.cli import main

PRIMES = [2, 3, 5, 7]


def rand_poly(rng, p, max_deg):
    return Poly([rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))], p)


# --- canonical form and structure ------------------------------------------

def test_canonical_form():
    f = Poly([3, 5, 0, 0], 3)
    assert f.coeffs == (0, 2)
    assert f.degree == 1
    assert Poly([0, 0], 5).is_zero
    assert Poly([], 2).degree == NEG_INF
    assert Poly([-1], 7).coeffs == (6,)


def test_poly_is_immutable_and_has_no_dict():
    f = Poly([1, 2], 5)
    with pytest.raises(AttributeError):
        f.coeffs = (0,)
    assert f.coeffs == (1, 2)
    assert not hasattr(f, "__dict__")


def test_equal_polys_hash_alike_and_ints_are_not_polys():
    f = Poly([1, 2], 5)
    g = Poly([6, 7, 0], 5)
    assert f == g
    assert hash(f) == hash(g)
    assert {f: "f"}[g] == "f"
    assert Poly([1, 2], 7) != f
    assert Poly([3], 5) != 3


def test_modulus_must_be_prime():
    assert check_prime(2) == 2  # decided afresh, and no other type passes for it
    for bad in (0, 1, 4, 6, 9, 100, 2.0, True):
        with pytest.raises(ValueError):
            Poly([1], bad)
        with pytest.raises(ValueError, match="modulus must be prime"):
            check_prime(bad)


def test_coefficients_are_ints_never_truncated():
    for coeffs in ([1.5, 2.9], [1.0], [1, 2, 3.0]):
        with pytest.raises(TypeError):
            Poly(coeffs, 3)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Poly([1], 2) + Poly([1], 3)
    with pytest.raises(ValueError):
        poly_gcd(Poly([1, 1], 2), Poly([1, 1], 5))


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_a_sieve_below_10_5():
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 41041, 825265,     # Carmichael numbers
        2047, 3215031751,             # strong pseudoprimes to bases 2 and 2..7
        3825123056546413051,          # ... to every prime base below 37
        318665857834031151167461,     # ... to every prime base below 41
        (2 ** 31 - 1) ** 2,
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_deterministic_range():
    bound = 3_317_044_064_679_887_385_961_981
    assert not is_prime(bound - 1)  # even
    for n in (bound, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)


# --- arithmetic against the evaluation homomorphism -------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_ring_ops_match_pointwise_evaluation(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        f = rand_poly(rng, p, 8)
        g = rand_poly(rng, p, 8)
        for a in range(p):
            assert (f + g)(a) == (f(a) + g(a)) % p
            assert (f - g)(a) == (f(a) - g(a)) % p
            assert (f * g)(a) == (f(a) * g(a)) % p
            assert (-f)(a) == (-f(a)) % p


def test_int_operands_lift_to_constants():
    f = Poly([1, 2], 5)
    assert f + 3 == Poly([4, 2], 5)
    assert 3 + f == Poly([4, 2], 5)
    assert f - 1 == Poly([0, 2], 5)
    assert 1 - f == Poly([0, -2], 5)
    assert 2 * f == Poly([2, 4], 5)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_identity(p):
    rng = random.Random(200 + p)
    for _ in range(80):
        f = rand_poly(rng, p, 10)
        g = rand_poly(rng, p, 6)
        if g.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
        assert f // g == q and f % g == r


M61 = 2 ** 61 - 1


@pytest.fixture(scope="module")
def mersenne_61():
    """2^61 - 1, certified prime by Lucas-Lehmer."""
    s = 4
    for _ in range(61 - 2):
        s = (s * s - 2) % M61
    assert s == 0
    return M61


def test_is_prime_on_mersenne_primes(mersenne_61):
    assert is_prime(2 ** 31 - 1)
    assert is_prime(mersenne_61)
    assert min(timeit.repeat(lambda: is_prime(mersenne_61), number=1, repeat=3)) < 0.01


@st.composite
def operands(draw):
    """A prime and two coefficient lists, unreduced and possibly with
    trailing zeros, so the checked constructor canonicalises them."""
    p = draw(st.sampled_from([2, 3, 5, M61]))
    coeffs = st.lists(st.integers(-2 * p, 2 * p), max_size=8)
    return p, draw(coeffs), draw(coeffs)


@settings(max_examples=300)
@given(operands())
@example((5, [1, 2, 3, 4], [1, 3]))            # divisor with leading coefficient 3
@example((5, [1, 2, 3], [2]))                  # division by a constant
@example((5, [1, 2], [1, 2, 4]))               # zero quotient
@example((5, [2, 1, 1, 1], [4, 1]))            # (x^2 + 2x + 3)(x + 4): zero remainder
@example((M61, [M61 - 1, 5, 7, 0], [3, M61 - 2]))
@example((M61, [2, M61 + 3], [M61 - 3]))
def test_ring_results_are_canonical(mersenne_61, case):
    # + - * and divmod build their results through the trusted constructor;
    # each must be what the checked constructor makes of its coefficients
    p, a, b = case
    f, g = Poly(a, p), Poly(b, p)
    results = [f + g, f - g, f * g, -f]
    if not g.is_zero:
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
        results += [q, r]
    for res in results:
        assert res.coeffs == Poly(list(res.coeffs), p).coeffs
        assert all(type(c) is int and 0 <= c < p for c in res.coeffs)


def test_pow_matches_repeated_multiplication():
    f = Poly([1, 1, 2], 3)
    acc = Poly.one(3)
    for k in range(8):
        assert f ** k == acc
        acc = acc * f
    with pytest.raises(ValueError):
        f ** (-1)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_properties(p):
    rng = random.Random(300 + p)
    for _ in range(40):
        h = rand_poly(rng, p, 4)
        a = rand_poly(rng, p, 4)
        b = rand_poly(rng, p, 4)
        g = poly_gcd(a * h, b * h)
        if not h.is_zero and not (a * h).is_zero and not (b * h).is_zero:
            assert (g % h.monic()).is_zero or ((a * h) % g).is_zero
            # h divides gcd, and gcd divides both inputs
            assert (g % h.monic()).is_zero
            assert ((a * h) % g).is_zero and ((b * h) % g).is_zero
            assert g.is_monic
    f = Poly([2, 4], 5)
    assert poly_gcd(f, Poly.zero(5)) == f.monic()
    assert poly_gcd(Poly.zero(5), Poly.zero(5)).is_zero


@pytest.mark.parametrize("call, message", [
    (lambda: Poly.zero(5).leading, "zero polynomial has no leading coefficient"),
    (lambda: Poly.zero(5).monic(), "cannot normalize the zero polynomial"),
    (lambda: monic_irreducibles(2, 0), "count must be >= 1"),
])
def test_zero_polynomial_and_count_guards(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_non_int_count_is_refused_not_listed_forever():
    # no list length equals 2.5, so the lister once appended irreducibles
    # without end; in a subprocess with a timeout that fails, not hangs
    script = (
        "from lowdisc.algebra import monic_irreducibles\n"
        "from lowdisc.pointsets import niederreiter_matrices, niederreiter_net\n"
        "calls = (\n"
        "    lambda: monic_irreducibles(2, 2.5),\n"
        "    lambda: niederreiter_matrices(2, 2.5, 4),\n"
        "    lambda: niederreiter_net(2, 2.5, 4),\n"
        ")\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.splitlines() == ["count must be an int, got 2.5"] * 3


def test_floor_division_and_mod_refuse_a_non_polynomial():
    with pytest.raises(TypeError):
        Poly([1], 2) // "x"
    with pytest.raises(TypeError):
        Poly([1], 2) % "x"


def test_inv_mod():
    for p in (2, 3, 5, 7, 11):
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inv_mod(14, 7)


# --- Lucas binomials and Hasse derivatives ----------------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_binom_mod_matches_math_comb(p):
    for n in range(0, 40):
        for k in range(0, 40):
            assert binom_mod(n, k, p) == math.comb(n, k) % p


@pytest.mark.parametrize("p", PRIMES)
def test_hasse_product_rule(p):
    # H^k(f g) == sum_{i+j=k} H^i(f) H^j(g)
    rng = random.Random(400 + p)
    for _ in range(20):
        f = rand_poly(rng, p, 7)
        g = rand_poly(rng, p, 7)
        for k in range(0, 6):
            lhs = hasse_derivative(f * g, k)
            rhs = Poly.zero(p)
            for i in range(k + 1):
                rhs = rhs + hasse_derivative(f, i) * hasse_derivative(g, k - i)
            assert lhs == rhs


def test_hasse_matches_scaled_iterated_derivative_below_p():
    # for k < p:  H^k(f) == f^(k) / k!
    p = 7
    rng = random.Random(41)
    for _ in range(20):
        f = rand_poly(rng, p, 9)
        d = f
        fact = 1
        for k in range(1, p):
            d = d.derivative()
            fact = fact * k % p
            assert hasse_derivative(f, k) == d * inv_mod(fact, p)


def test_hasse_survives_above_characteristic():
    # x^4 over F_2: H^3 gives C(4,3) x = 4x = 0, H^4 gives C(4,4) = 1
    f = monomial(2, 4)
    assert hasse_derivative(f, 4) == Poly.one(2)
    assert hasse_derivative(f, 3).is_zero
    # but the iterated formal derivative of anything vanishes by order p
    assert f.derivative().derivative().is_zero


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pth_power_and_root(p):
    rng = random.Random(500 + p)
    for _ in range(20):
        f = rand_poly(rng, p, 6)
        assert (f ** p).pth_root() == f
    with pytest.raises(ValueError):
        Poly([0, 1], 2).pth_root()


# --- nullspaces mod p ---------------------------------------------------------

@st.composite
def matrices_mod_p(draw):
    """(rows, ncols, p): p in {2, 3, 5, 7, 17}, up to 8 rows of up to 8
    columns, about half the rows zero, entries in [-2p, 2p]."""
    p = draw(st.sampled_from([2, 3, 5, 7, 17]))
    ncols = draw(st.integers(0, 8))
    row = st.one_of(st.just([0] * ncols), st.lists(st.integers(-2 * p, 2 * p), min_size=ncols, max_size=ncols))
    return draw(st.lists(row, max_size=8)), ncols, p


@settings(max_examples=400)
@given(matrices_mod_p())
@example(([], 3, 5))                                    # no rows: every column free
@example(([[0, 0, 0]] * 4, 3, 2))                       # zero rows, rank 0
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3))     # full rank
@example(([[1, 2], [2, 4], [3, 6], [0, 5]], 2, 7))      # more rows than columns
@example(([[1, 2, 3, 4, 5], [0, 0, 0, 1, 1]], 5, 17))   # more columns than rows
@example(([[-1, 5, -17], [-3, -15, 3], [4, 0, 0]], 3, 3))  # entries outside [0, p)
@example(([[0, 0, 2, 1], [0, 0, 1, 3], [1, 1, 1, 1]], 4, 5))  # pivots out of row order
def test_nullspace_matches_the_reference_elimination(case):
    rows, ncols, p = case
    copied = [list(row) for row in rows]
    basis = nullspace_mod_p(rows, ncols, p)
    assert rows == copied  # the input is not reduced in place
    assert basis == reference_nullspace(rows, ncols, p)
    assert all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows for vec in basis)


# --- evaluation, interpolation ----------------------------------------------

def test_interpolate_roundtrip():
    p = 7
    rng = random.Random(7)
    for _ in range(10):
        values = [rng.randrange(p) for _ in range(p)]
        f = interpolate(values, p)
        assert [f(a) for a in range(p)] == values
        assert f.is_zero or f.degree < p
    with pytest.raises(ValueError):
        interpolate([0, 1], 7)


# --- expansion at infinity ---------------------------------------------------

def test_laurent_geometric_series_over_f2():
    # 1/(x+1) = x^-1 + x^-2 + x^-3 + ... over F_2
    assert laurent_expand(Poly.one(2), Poly([1, 1], 2), order=-4) == (1, 1, 1, 1)


def test_laurent_polynomial_part():
    # (x^3 + 1) / x = x^2 + x^-1: the polynomial part x^2 is not returned
    p = 5
    assert laurent_expand(monomial(p, 3) + 1, Poly.x(p), order=-2) == (1, 0)


def test_laurent_zero_numerator():
    assert laurent_expand(Poly.zero(3), Poly([1, 2], 3), order=-3) == (0, 0, 0)


def test_laurent_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        laurent_expand(Poly.one(2), Poly.zero(2), order=-1)


def test_laurent_rejects_a_nonnegative_order_and_mixed_moduli():
    with pytest.raises(ValueError):
        laurent_expand(Poly.one(2), Poly([1, 1], 2), order=0)
    with pytest.raises(ValueError):
        laurent_expand(Poly.one(2), Poly([1, 1], 3), order=-2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_reconstruction_identity(p):
    # For deg num < deg den and K = -order, den * sum_k c_k x^(K-k) equals
    # num * x^K up to a remainder of degree < deg den: the defining
    # property of the first K coefficients at infinity.
    rng = random.Random(600 + p)
    for _ in range(40):
        den = rand_poly(rng, p, 5)
        if den.is_zero or den.degree < 1:
            continue
        num = rand_poly(rng, p, den.degree - 1)
        K = rng.randint(1, 9)
        c = laurent_expand(num, den, order=-K)
        assert len(c) == K
        head = Poly([c[K - 1 - j] for j in range(K)], p)  # sum_k c_k x^(K-k)
        rest = num * monomial(p, K) - den * head
        assert rest.is_zero or rest.degree < den.degree, (num, den, K)


# --- irreducibles -------------------------------------------------------------

def test_first_irreducibles_base2():
    polys = monic_irreducibles(2, 5)
    assert [f.coeffs for f in polys] == [
        (0, 1),          # x
        (1, 1),          # x + 1
        (1, 1, 1),       # x^2 + x + 1
        (1, 0, 1, 1),    # x^3 + x^2 + 1
        (1, 1, 0, 1),    # x^3 + x + 1
    ]


def test_first_irreducibles_base3():
    polys = monic_irreducibles(3, 6)
    assert [f.coeffs for f in polys] == [
        (0, 1),       # x
        (1, 1),       # x + 1
        (2, 1),       # x + 2
        (1, 0, 1),    # x^2 + 1
        (2, 1, 1),    # x^2 + x + 2
        (2, 2, 1),    # x^2 + 2x + 2
    ]


def naive_irreducible(f):
    # independent oracle: divide by every monic of every lower positive degree
    d = f.degree
    if d < 1:
        return False
    for e in range(1, d):
        for tail in itertools.product(range(f.p), repeat=e):
            g = Poly(tail + (1,), f.p)
            if (f % g).is_zero:
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_complete_and_correct(p):
    norm = 25 if p == 2 else 30
    listed = monic_irreducibles(p, norm)
    # every listed poly passes the naive oracle
    for f in listed:
        assert naive_irreducible(f)
    # the listing is exhaustive and in order: rebuild it naively
    expected = []
    d = 1
    while len(expected) < norm:
        for tail in itertools.product(range(p), repeat=d):
            f = Poly(tail + (1,), p)
            if naive_irreducible(f):
                expected.append(f)
        d += 1
    assert listed == expected[:norm]
    assert all(f.is_monic for f in listed)


def test_is_irreducible_agrees_with_naive():
    # every polynomial up to the degree bound, with every leading coefficient
    for p, max_degree in ((2, 10), (3, 6), (5, 4)):
        assert not is_irreducible(Poly.zero(p))
        for d in range(max_degree + 1):
            for tail in itertools.product(range(p), repeat=d):
                for lead in range(1, p):
                    f = Poly(tail + (lead,), p)
                    assert is_irreducible(f) == naive_irreducible(f), f


def test_is_irreducible_certifies_a_degree_64_pentanomial():
    # x^64 + x^4 + x^3 + x + 1 is irreducible over F_2; trial division
    # would need about 2^32 divisions, Rabin's test 64 squarings mod f
    f = monomial(2, 64) + Poly([1, 1, 0, 1, 1], 2)
    assert is_irreducible(f)
    assert not is_irreducible(f * Poly([1, 1], 2))


def test_is_irreducible_at_a_large_prime():
    # x^2 + 1 is irreducible over F_p iff p = 3 mod 4
    assert is_irreducible(Poly([1, 0, 1], 10_007))
    assert not is_irreducible(Poly([1, 0, 1], 10_009))


@pytest.mark.parametrize("mod", [None, Poly([1, 1, 0, 1], 2)])
def test_pow_multiplies_once_per_bit_and_once_per_square(monkeypatch, mod):
    f = Poly([1, 0, 1, 1, 1], 2)
    calls = []
    multiply = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    expected = Poly.one(2)
    for k in range(41):
        reference = expected if mod is None else expected % mod
        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", counted)
            calls.clear()
            got = f ** k if mod is None else pow(f, k, mod)
        assert got == reference, k
        assert len(calls) <= max(0, k.bit_count() + k.bit_length() - 1), k
        expected = expected * f


def test_pow_with_a_modulus_matches_pow_then_mod():
    rng = random.Random(23)
    for p in PRIMES:
        for _ in range(20):
            g, f = rand_poly(rng, p, 5), rand_poly(rng, p, 4)
            if f.is_zero:
                continue
            k = rng.randint(0, 12)
            assert pow(g, k, f) == g ** k % f


# --- the text forms of a polynomial ------------------------------------------
# A coefficient line (lowest degree first, comma-separated) and a polynomial
# file (a p=<prime> line, then a coefficient line) are read by `lowdisc factor`;
# its --json payload echoes the polynomial it read as "p" and "input".

FACTOR_PRIMES = [2, 3, 5]  # the characteristics factor supports

def _factor_reads(capsys, *argv):
    assert main(["factor", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    return Poly(payload["input"], payload["p"])


def _random_text_poly(rng, p):
    coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
    return Poly(coeffs, p)


def test_poly_string_roundtrip(capsys):
    rng = random.Random(31)
    for p in FACTOR_PRIMES:
        for _ in range(5):
            f = _random_text_poly(rng, p)
            text = ",".join(map(str, f.coeffs))
            assert _factor_reads(capsys, "--p", str(p), "--coeffs", text) == f
    # spaces around entries are skipped and entries are reduced mod p
    assert _factor_reads(capsys, "--p", "3", "--coeffs", " 1, 0, 5 ") == Poly([1, 0, 2], 3)


def test_poly_file_roundtrip(tmp_path, capsys):
    rng = random.Random(37)
    path = tmp_path / "f.txt"
    for p in FACTOR_PRIMES:
        f = _random_text_poly(rng, p)
        path.write_text(f"p={p}\n{','.join(map(str, f.coeffs))}\n")
        assert _factor_reads(capsys, "--poly-file", str(path)) == f
    # the header in either case, blank lines and spaces skipped, and the
    # coefficients reduced mod p
    for text, f in [
        ("p=3\n1,0,2,1\n", Poly([1, 0, 2, 1], 3)),
        ("\nP=2\n\n1,1,0,1", Poly([1, 1, 0, 1], 2)),
        ("p=3\n 1, 0, 5 \n", Poly([1, 0, 2], 3)),
    ]:
        path.write_text(text)
        assert _factor_reads(capsys, "--poly-file", str(path)) == f
