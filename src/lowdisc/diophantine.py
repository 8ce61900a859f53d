"""Continued fractions with bounded partial quotients.

A fraction a/n in lowest terms with 0 < a < n has a unique canonical
expansion a/n = [0; a_1, ..., a_k] whose final quotient is >= 2 (the
Euclidean algorithm produces exactly this form).  Small partial quotients
make (a, n) a good 2D lattice generator; zaremba_search hunts the smallest
a whose quotients all stay <= c, and zaremba_table runs that search along
the power families n = base^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import BudgetError

__all__ = [
    "continued_fraction",
    "zaremba_search",
    "ZarembaRow",
    "zaremba_table",
]


def continued_fraction(a: int, n: int) -> tuple[int, ...]:
    """Canonical partial quotients (a_1, ..., a_k) of a/n = [0; a_1, ..., a_k].

    Requires 0 < a < n and gcd(a, n) = 1.  The Euclidean algorithm's final
    quotient is always >= 2 here, so no folding step is needed; the result
    is canonical by construction.
    """
    if not 0 < a < n:
        raise ValueError(f"need 0 < a < n, got a={a}, n={n}")
    quotients = []
    p, q = n, a
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    if p != 1:
        raise ValueError(f"a and n must be coprime, gcd({a}, {n}) = {p}")
    return tuple(quotients)


def zaremba_search(n: int, c: int) -> Optional[int]:
    """Smallest a coprime to n with all partial quotients of a/n at most c.

    Returns None when no such a exists.  Every a <= n // (c+1) has first
    quotient n // a >= c+1, so the scan starts just above; it embeds the
    quotient bound in the Euclidean loop, so a candidate stops at its first
    quotient above c.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if c < 1:
        raise ValueError("need c >= 1")
    if c == 1:
        # the last Euclid step divides some p >= 2 by 1, so every expansion
        # ends in a quotient >= 2: no a qualifies, and the scan would find none
        return None
    for a in range(n // (c + 1) + 1, n):
        p, q = n, a
        ok = True
        while q:
            if p // q > c:
                ok = False
                break
            p, q = q, p % q
        if ok and p == 1:
            return a
    return None


# zaremba_table refuses scans that may try more candidates a than this,
# about 10 s where no a qualifies
ZAREMBA_BUDGET = 1 << 26


@dataclass(frozen=True)
class ZarembaRow:
    m: int
    n: int
    witness: Optional[int]
    quotients: Optional[tuple[int, ...]]

    @property
    def max_quotient(self) -> Optional[int]:
        return max(self.quotients) if self.quotients else None


def zaremba_table(base: int, m_max: int, c: int) -> list[ZarembaRow]:
    """zaremba_search along n = base^m for m = 1..m_max, base in {2, 3, 5}.

    Rows come back in ascending m order; work over ZAREMBA_BUDGET raises BudgetError.
    """
    if base not in (2, 3, 5):
        raise ValueError(f"base must be one of 2, 3, 5; got {base}")
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    work = 0
    if c > 1:  # c = 1 scans nothing
        for m in range(1, m_max + 1):
            n = base ** m
            work += n - 1 - n // (c + 1)  # the a in (n / (c + 1), n)
            if work > ZAREMBA_BUDGET:
                raise BudgetError(f"zaremba to m = {m_max} may scan more than its budget of {ZAREMBA_BUDGET} candidates")
    rows = []
    for m in range(1, m_max + 1):
        n = base ** m
        a = zaremba_search(n, c)
        qs = continued_fraction(a, n) if a is not None else None
        rows.append(ZarembaRow(m=m, n=n, witness=a, quotients=qs))
    return rows
