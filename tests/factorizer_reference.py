"""The per-monomial Niederreiter operator that the factorizer's kernel used
before it read the operator's matrix off f^(p-1), with the Lucas binomials
and Hasse derivatives it was written with, kept as reference
implementations.

`niederreiter_operator` expands h/f as its own power series for every h, so
`operator_rows` (one call per monomial x^k) is slow but follows the
definition N_f(h) = f^p H^(p-1)(h/f) - h^p term by term; the tests compare
the production matrix and kernel against it.

`trial_divide_by_all_monics` is the trial division that criterion 4 ran
before it divided by irreducibles only: it tries every monic polynomial
of degree up to deg/2; the tests compare criterion 4's oracle against it.

`trial_division_irreducibles` is the lister that `algebra` ran before its
sieve: every monic in the production order, kept unless an irreducible
kept before it of at most half its degree divides it.  The tests compare
`monic_irreducibles` against it, and the reference Niederreiter matrices
(`net_reference`) take their polynomials from it.
"""

import itertools

from algebra_reference import reference_nullspace
from polys import monomial

from lowdisc.algebra import Poly, inv_mod
from lowdisc.factorizer import _check_modulus, kernel_basis


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p via Lucas' theorem (n, k >= 0)."""
    if k < 0 or n < 0:
        raise ValueError("binom_mod needs n, k >= 0")
    r = 1
    while k:
        np_, kp = n % p, k % p
        if kp > np_:
            return 0
        num = den = 1
        for t in range(kp):
            num = num * (np_ - t) % p
            den = den * (t + 1) % p
        r = r * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return r


def hasse_derivative(f: Poly, k: int) -> Poly:
    """k-th Hasse (divided) derivative: sum C(i, k) a_i x^(i-k).

    Unlike the iterated formal derivative this does not vanish for
    k >= p; the binomial weights are taken mod p via Lucas.
    """
    if k < 0:
        raise ValueError("Hasse derivative order must be >= 0")
    if k == 0:
        return f
    out = [
        binom_mod(i, k, f.p) * c % f.p
        for i, c in enumerate(f.coeffs)
    ][k:]
    return Poly(out, f.p)


def niederreiter_operator(f: Poly, h: Poly) -> Poly:
    """N_f(h) = f^q * H^(q-1)(h/f) - h^q, exact.

    h/f is expanded as a power series at 0 far enough (q*d + q terms) that
    every coefficient of the product up to degree q*d is exact; the true
    result has degree <= q*(d-1), which is asserted.
    """
    _check_modulus(f)
    if f.p != h.p:
        raise ValueError(f"mixed moduli: {f.p} vs {h.p}")
    if not h.is_zero and h.degree >= f.degree:
        raise ValueError("h must have degree < deg f")
    p = f.p
    d = f.degree
    K = p * d + p  # series terms needed
    inv_f0 = inv_mod(f.coeff(0), p)
    fc = f.coeffs
    u = [0] * K
    for i in range(K):
        acc = h.coeff(i)
        for j in range(1, min(i, d) + 1):
            acc -= fc[j] * u[i - j]
        u[i] = acc * inv_f0 % p
    # termwise Hasse derivative of order q-1: coefficient of x^k becomes
    # C(k+q-1, q-1) * u_{k+q-1}
    w = [binom_mod(k + p - 1, p - 1, p) * u[k + p - 1] % p for k in range(p * d + 1)]
    # multiply by f^q; Frobenius makes f^q supported on multiples of q only
    prod = [0] * (p * d + 1)
    for i in range(d + 1):
        fi = fc[i]
        if fi:
            base = i * p
            for k in range(base, p * d + 1):
                prod[k] = (prod[k] + fi * w[k - base]) % p
    hq = h ** p
    out = [(prod[k] - hq.coeff(k)) % p for k in range(p * d + 1)]
    result = Poly(out, p)
    if not result.is_zero and result.degree > p * (d - 1):
        raise RuntimeError(
            f"operator overflow: deg {result.degree} > {p * (d - 1)} for f={f!r}, h={h!r}"
        )
    return result


def operator_rows(f: Poly) -> list[list[int]]:
    """The (p(d-1)+1) x d matrix whose column k is N_f(x^k), coefficient of
    x^i in row i."""
    p = f.p
    d = f.degree
    images = [niederreiter_operator(f, monomial(p, k)) for k in range(d)]
    return [[img.coeff(i) for img in images] for i in range(p * (d - 1) + 1)]


def reference_kernel_basis(f: Poly) -> list[Poly]:
    """The nullspace of `operator_rows` by the reference elimination, as
    the factorizer computed it."""
    rows = operator_rows(f)
    return [Poly(v, f.p) for v in reference_nullspace(rows, f.degree, f.p)]


def kernel_dimension(f: Poly) -> int:
    return len(kernel_basis(f))


def trial_divide_by_all_monics(f: Poly) -> list[tuple[tuple[int, ...], int]]:
    """Trial division by monic polynomials in degree order."""
    p = f.p
    factors: dict[tuple[int, ...], int] = {}
    work = f.monic()
    while work.degree >= 1:
        hit = None
        max_d = work.degree // 2
        for d in range(1, max_d + 1):
            for tail in itertools.product(range(p), repeat=d):
                cand = Poly(list(tail) + [1], p)
                q, r = divmod(work, cand)
                if r.is_zero:
                    hit = cand
                    work = q
                    break
            if hit:
                break
        if hit is None:  # remainder is irreducible
            hit = work
            work = Poly.one(p)
        factors[hit.coeffs] = factors.get(hit.coeffs, 0) + 1
    return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))


def trial_division_irreducibles(p: int, count: int) -> list[Poly]:
    """First `count` monic irreducibles over F_p, by degree and then
    constant-first lex order, by trial division."""
    out: list[Poly] = []
    for d in itertools.count(1):
        for tail in itertools.product(range(p), repeat=d):
            f = Poly(tail + (1,), p)
            if any((f % g).is_zero for g in out if 2 * g.degree <= d):
                continue
            out.append(f)
            if len(out) == count:
                return out
