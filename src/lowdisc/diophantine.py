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
from typing import Optional, Sequence

__all__ = [
    "continued_fraction",
    "cf_to_fraction",
    "convergents",
    "max_partial_quotient",
    "noncanonical_variant",
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
    assert quotients[-1] >= 2 or len(quotients) == 0
    return tuple(quotients)


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


def zaremba_search(n: int, c: int) -> Optional[int]:
    """Smallest a coprime to n with all partial quotients of a/n at most c.

    Returns None when no such a exists.  The scan embeds the quotient bound
    in the Euclidean loop, so hopeless candidates abort on their first
    quotient (every a < n/(c+1) dies immediately at n // a > c).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if c < 1:
        raise ValueError("need c >= 1")
    for a in range(1, n):
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

    Rows come back in ascending m order.
    """
    if base not in (2, 3, 5):
        raise ValueError(f"base must be one of 2, 3, 5; got {base}")
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    rows = []
    for m in range(1, m_max + 1):
        n = base ** m
        a = zaremba_search(n, c)
        qs = continued_fraction(a, n) if a is not None else None
        rows.append(ZarembaRow(m=m, n=n, witness=a, quotients=qs))
    return rows
