"""Exact arithmetic over prime fields F_p and the polynomial ring F_p[x].

Polynomials are immutable coefficient tuples, lowest degree first, with no
trailing zeros (canonical form).  Field elements are plain ints reduced into
[0, p).  Only prime moduli are supported; extension fields are out of scope.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

NEG_INF = float("-inf")


class BudgetError(Exception):
    """The requested exact computation exceeds its default budget.  Defined
    here, in the one module that loads no numpy, so every module can raise it."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, which is deterministic below
    _MR_BOUND (Sorenson and Webster, 2017); at or above it, ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Return p if it is a prime int, else raise ValueError.  Each call
    decides afresh by is_prime; the type is checked first."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo prime p, by pow(a, -1, p)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Poly:
    """Univariate polynomial over F_p in canonical form.

    Supports +, -, *, divmod, //, %, ** (non-negative int), == and hashing.
    +, -, * and divmod lift a plain int to a constant; == compares
    polynomials only.  Polynomials over different primes raise ValueError.
    """

    coeffs: tuple[int, ...]
    p: int

    def __init__(self, coeffs: Iterable[int], p: int):
        check_prime(p)
        self._fill([operator.index(x) % p for x in coeffs], p)

    @classmethod
    def _reduced(cls, c: list[int], p: int) -> "Poly":
        """Trusted constructor: c already holds ints in [0, p) and p is a
        checked prime, so only the trailing zeros are trimmed (in place)."""
        self = object.__new__(cls)
        self._fill(c, p)
        return self

    def _fill(self, c: list[int], p: int) -> None:
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "p", p)

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls((1,), p)

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls((0, 1), p)

    # --- basic structure ----------------------------------------------
    @property
    def degree(self):
        """Degree as an int; the zero polynomial has degree -inf."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        """Coefficient of x^k (0 beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # --- ring operations ------------------------------------------------
    def _lift(self, other):
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return Poly((other,), self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % self.p
        return Poly._reduced(out, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Poly._reduced([-v % self.p for v in self.coeffs], self.p)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly.zero(self.p)
        a, b = self.coeffs, o.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly._reduced([v % self.p for v in out], self.p)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        if len(self.coeffs) < len(o.coeffs):
            return Poly.zero(p), self
        rem = list(self.coeffs)
        dq = len(o.coeffs) - 1
        inv_lead = inv_mod(o.coeffs[-1], p)
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c:
                q = c * inv_lead % p
                quot[i - dq] = q
                for j, bj in enumerate(o.coeffs):
                    rem[i - dq + j] = (rem[i - dq + j] - q * bj) % p
        return Poly._reduced(quot, p), Poly._reduced(rem[:dq], p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k: int, mod: Poly | None = None):
        """self^k; pow(self, k, mod) reduces mod `mod` after every step."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative int")
        result = Poly.one(self.p) if mod is None else Poly.one(self.p) % mod
        base = self
        while k:
            if k & 1:
                result = result * base
                if mod is not None:
                    result = result % mod
            k >>= 1
            if k:  # the square after the top bit would go unused
                base = base * base
                if mod is not None:
                    base = base % mod
        return result

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, a: int) -> int:
        """Evaluate at a field element (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)}, p={self.p})"

    # --- calculus and helpers -------------------------------------------
    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        inv = inv_mod(self.coeffs[-1], self.p)
        return Poly([c * inv for c in self.coeffs], self.p)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.p)

    def pth_root(self) -> "Poly":
        """Inverse of f -> f ** p; requires support only on multiples of p."""
        for i, c in enumerate(self.coeffs):
            if c and i % self.p:
                raise ValueError("polynomial is not a p-th power")
        return Poly(self.coeffs[:: self.p], self.p)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    if f.p != g.p:
        raise ValueError(f"mixed moduli: {f.p} vs {g.p}")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def reduce_into(echelon: dict[int, Sequence[int]], row: Sequence[int], p: int) -> bool:
    """Reduce row over F_p by echelon, {pivot column: row that is 0 mod p
    before it and nonzero at it}.  A nonzero remainder goes in at its first
    nonzero column and the call returns True; a row in the span returns
    False.  Entries may lie outside [0, p).  The package's one elimination."""
    for c in range(len(row)):  # the columns before c are 0 in row
        f = row[c] % p
        if f:
            if c not in echelon:
                echelon[c] = row
                return True
            pivot = echelon[c]
            g = pivot[c]
            row = [(g * v - f * q) % p for v, q in zip(row, pivot)]
    return False


def nullspace_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : M v = 0} over F_p in deterministic RREF parametrization:
    one vector per free column, 1 there and 0 at the other free columns,
    solved for the pivot columns from the last pivot up."""
    check_prime(p)
    echelon: dict[int, Sequence[int]] = {}
    for row in rows:
        reduce_into(echelon, row, p)
    pivots = [(c, echelon[c], inv_mod(echelon[c][c], p)) for c in sorted(echelon, reverse=True)]
    basis = []
    for free_col in (c for c in range(ncols) if c not in echelon):
        v = [0] * ncols
        v[free_col] = 1
        for col, row, inv in pivots:  # row is 0 before col, and v[col] is still 0
            v[col] = -sum(map(operator.mul, row, v)) * inv % p
        basis.append(v)
    return basis


def interpolate(values: Sequence[int], p: int) -> Poly:
    """The unique poly of degree < p with f(i) = values[i], for values of
    length p: f = sum_i v_i (1 - (x - i)^(p-1)), since by Fermat
    (a - i)^(p-1) is 1 for a != i and 0 at a = i."""
    check_prime(p)
    if len(values) != p:
        raise ValueError(f"need exactly {p} values, got {len(values)}")
    result = Poly.zero(p)
    for i, v in enumerate(values):
        if v % p:
            result = result + (1 - Poly((-i, 1), p) ** (p - 1)) * v
    return result


# ---------------------------------------------------------------------------
# Expansion at infinity
# ---------------------------------------------------------------------------

def laurent_expand(num: Poly, den: Poly, order: int) -> tuple[int, ...]:
    """The coefficients of x^-1, x^-2, ..., x^order in num/den, expanded at
    infinity.  With K = -order, entry k-1 is the coefficient of x^(K-k) in
    (num * x^K) // den, one shifted polynomial floor division."""
    if order > -1:
        raise ValueError(f"order must be <= -1, got {order}")
    K = -order
    q = Poly((0,) * K + num.coeffs, num.p) // den
    return tuple(q.coeff(K - k) for k in range(1, K + 1))


# ---------------------------------------------------------------------------
# Irreducible enumeration
# ---------------------------------------------------------------------------

def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f of degree d >= 1 is irreducible iff x^(p^d) = x mod f
    and gcd(x^(p^(d/r)) - x, f) = 1 for every prime r dividing d."""
    d = f.degree
    if d < 1:
        return False
    x = Poly.x(f.p) % f
    frobenius = [x]  # frobenius[k] = x^(p^k) mod f
    for _ in range(d):
        frobenius.append(pow(frobenius[-1], f.p, f))
    if frobenius[d] != x:
        return False
    return all(
        poly_gcd(frobenius[d // r] - x, f).degree == 0
        for r in range(2, d + 1)
        if d % r == 0 and is_prime(r)
    )


def monic_irreducibles(p: int, count: int) -> list[Poly]:
    """First `count` monic irreducibles over F_p.

    Order: by degree, then lexicographic on (a_0, a_1, ...), constant term
    first.  For p = 2 this starts x, x+1, x^2+x+1, x^3+x+1, x^3+x^2+1, ...

    Sieved one degree d >= 2 and one constant term c != 0 at a time (x
    divides the rest): such a monic is reducible iff it is g h, g found
    earlier with 2 deg g <= d and g(0) != 0, h monic with h(0) = c / g(0).
    """
    check_prime(p)
    if not isinstance(count, int):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [Poly._reduced([c, 1], p) for c in range(min(p, count))]
    for d in itertools.count(2):
        for c in range(1, p):
            if len(out) == count:
                return out
            hit = {
                (g * Poly._reduced([c * inv_mod(g.coeffs[0], p) % p, *tail, 1], p)).coeffs
                for g in out
                if 2 * g.degree <= d and g.coeffs[0]
                for tail in itertools.product(range(p), repeat=d - g.degree - 1)
            }
            for tail in itertools.product(range(p), repeat=d - 1):
                if (c, *tail, 1) not in hit:
                    out.append(Poly._reduced([c, *tail, 1], p))
                    if len(out) == count:
                        return out
