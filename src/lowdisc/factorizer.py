"""Factorization over F_p (p in {2, 3, 5}) via a differential-operator kernel.

For monic f with f(0) != 0 and deg f = d, the operator

    N_f(h) = f^p * H^(p-1)(h / f) - h^p        (deg h < d)

with H^(p-1) the (p-1)-st Hasse derivative, is F_p-linear on the space of
polynomials of degree < d.  Writing squarefree f = g_1 ... g_r, its kernel is
exactly the r-dimensional span of { g_i' * (f / g_i) }: a partial-fraction
computation shows H^(p-1)((x-a)^(-1)) = (x-a)^(-p), so h/f with simple poles
and residues in F_p solves the equation, and conversely.  Consequently

  * dim ker N_f = number of distinct irreducible factors of squarefree f,
    so dimension 1 certifies irreducibility, and
  * gcd(f, h - c*f') for kernel elements h and c in F_p separates factors
    (f' is the kernel element with all residues 1).

The matrix of N_f comes from one series.  With 1/f = sum u_i x^i at 0 (a
power series because f(0) != 0), x^k/f has u_(n-k) at x^n.  H^(p-1)
weights x^n by C(n+p-1, p-1), which by Lucas is 1 mod p when n is a
multiple of p and 0 otherwise, and f^p = sum f_j x^(jp) lives on multiples
of p too.  So N_f(x^k) is supported on x^0, x^p, ..., and its coefficient
at x^(mp) is

    sum_j f_j u_((m-j+1)p-1-k) - [m == k]      (u_i = 0 for i < 0),

the coefficient of x^((m+1)p-1-k) in f(x^p) * (1/f) = f^p / f = f^(p-1),
less [m == k].  That series is a polynomial of degree d(p-1), so the rows
m >= d vanish and the whole operator is the d x d matrix read off f^(p-1).
Powers of x and the leading coefficient are split off before the kernel
machinery runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BudgetError, Poly, is_irreducible, nullspace_mod_p, poly_gcd

SUPPORTED_PRIMES = (2, 3, 5)
# factor refuses a degree above this; the kernel's elimination grows about
# as d^3, and degree 256 takes up to about 1 s over F_5
FACTOR_DEGREE_BUDGET = 256


def _check_modulus(f: Poly) -> None:
    if f.p not in SUPPORTED_PRIMES:
        raise ValueError(f"characteristic {f.p} unsupported (need one of {SUPPORTED_PRIMES})")
    if f.degree < 1:
        raise ValueError("f must have degree >= 1")
    if not f.is_monic:
        raise ValueError("f must be monic")
    if f.coeff(0) == 0:
        raise ValueError("f must have a nonzero constant term")


def operator_matrix(f: Poly) -> list[list[int]]:
    """The d x d matrix of N_f: entry (m, k) is the coefficient of x^(mp)
    in N_f(x^k), i.e. that of x^((m+1)p-1-k) in f^(p-1), less [m == k]."""
    _check_modulus(f)
    p, d = f.p, f.degree
    g = (f ** (p - 1)).coeffs
    rows = []
    for m in range(d):
        top = (m + 1) * p - 1
        row = [g[top - k] if 0 <= top - k < len(g) else 0 for k in range(d)]
        row[m] = (row[m] - 1) % p
        rows.append(row)
    return rows


def kernel_basis(f: Poly) -> list[Poly]:
    """Basis of { h : deg h < deg f, N_f(h) = 0 } as polynomials.

    Requires monic f, f(0) != 0, deg f >= 1.  For squarefree f the dimension
    equals the number of distinct irreducible factors.
    """
    return [Poly(v, f.p) for v in nullspace_mod_p(operator_matrix(f), f.degree, f.p)]


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic pairwise-coprime squarefree parts with multiplicities.

    Characteristic-p aware: a vanishing derivative means f = g(x)^p via the
    Frobenius, handled by recursing on the p-th root with multiplicities
    scaled by p.  The product of part^mult over the result equals f.
    """
    if not f.is_monic:
        raise ValueError("squarefree decomposition needs monic input")
    p = f.p
    fp = f.derivative()
    if fp.is_zero:
        return [(g, m * p) for g, m in squarefree_decomposition(f.pth_root())]
    out: list[tuple[Poly, int]] = []
    c = poly_gcd(f, fp)
    w = f // c
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree >= 1:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree >= 1:
        out.extend((g, m * p) for g, m in squarefree_decomposition(c.pth_root()))
    return out


def _split_squarefree(g: Poly) -> list[Poly]:
    """All monic irreducible factors of squarefree monic g with g(0) != 0."""
    if g.degree == 1:
        return [g]
    basis = kernel_basis(g)
    if len(basis) == 1:
        return [g]  # kernel dimension 1 certifies irreducibility
    p = g.p
    gp = g.derivative()
    for h in basis:
        for c in range(p):
            dvd = poly_gcd(g, h - c * gp)
            if 1 <= dvd.degree < g.degree:
                rest = g // dvd
                return _split_squarefree(dvd) + _split_squarefree(rest)
    raise RuntimeError(f"kernel basis failed to split {g!r}")  # pragma: no cover


@dataclass(frozen=True)
class FactorizationResult:
    input: Poly
    content: int                       # leading coefficient of the input
    factors: tuple[tuple[Poly, int], ...]  # (monic irreducible, multiplicity)

    def reassemble(self) -> Poly:
        acc = Poly((self.content,), self.input.p)
        for g, m in self.factors:
            acc = acc * g ** m
        return acc

    def verify(self) -> bool:
        """Reassembly matches and every factor passes Rabin's irreducibility test."""
        if self.reassemble() != self.input:
            return False
        return all(is_irreducible(g) for g, _ in self.factors)


def factor(f: Poly) -> FactorizationResult:
    """Full factorization into monic irreducibles times the content.

    Supported characteristics: 2, 3, 5.  Requires deg f >= 1; a degree
    above FACTOR_DEGREE_BUDGET raises BudgetError before any work.  The
    result is sorted by degree then lexicographically on coefficient
    tuples, and an internal reassembly check guards every call.
    """
    if f.p not in SUPPORTED_PRIMES:
        raise ValueError(f"characteristic {f.p} unsupported (need one of {SUPPORTED_PRIMES})")
    if f.degree < 1:
        raise ValueError("factor needs deg f >= 1")
    if f.degree > FACTOR_DEGREE_BUDGET:
        raise BudgetError(f"factor takes degree at most {FACTOR_DEGREE_BUDGET}, got {f.degree}")
    content = f.leading
    work = f.monic()
    found: dict[Poly, int] = {}
    # split off powers of x so the kernel operator sees a unit constant term
    e0 = 0
    while work.coeff(0) == 0:
        e0 += 1
        work = Poly(work.coeffs[1:], f.p)
    if e0:
        found[Poly.x(f.p)] = e0
    if work.degree >= 1:
        for part, mult in squarefree_decomposition(work):
            for g in _split_squarefree(part):
                found[g] = found.get(g, 0) + mult
    factors = tuple(sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    result = FactorizationResult(input=f, content=content, factors=factors)
    if result.reassemble() != f:
        raise RuntimeError(f"reassembly mismatch for {f!r}")  # pragma: no cover
    return result
