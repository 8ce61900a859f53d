"""Inversive congruential generators over F_q and the audit of their residue bound.

The recurrence u_{n+1} = a * u_n^(-1) + b (with 0 mapped to b) is a bijection
of F_q, so every orbit is purely periodic: least_period always reports a
pre-period of 0, but computes it honestly rather than assuming it.

For s | q-1 the s-power residues R_s = {0} union {w : w^((q-1)/s) = 1} are
exactly the s-th powers.  Along any orbit prefix of length N within one
period, the visit count R_s(N) obeys |R_s(N) - N/s| < 2.2 sqrt(N) q^(1/4);
audit_bound sweeps that inequality exhaustively over parameter ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import check_prime, is_prime

__all__ = [
    "InversiveParams",
    "PeriodInfo",
    "AuditResult",
    "inversive_step",
    "inversive_sequence",
    "least_period",
    "to_unit_interval",
    "s_power_residues",
    "audit_bound",
]


@dataclass(frozen=True)
class InversiveParams:
    q: int
    a: int
    b: int
    u0: int

    def __post_init__(self):
        check_prime(self.q)
        if not 0 < self.a < self.q:
            raise ValueError(f"need 0 < a < q, got a={self.a}")
        if not 0 <= self.b < self.q:
            raise ValueError(f"need 0 <= b < q, got b={self.b}")
        if not 0 <= self.u0 < self.q:
            raise ValueError(f"need 0 <= u0 < q, got u0={self.u0}")


def inversive_step(q: int, a: int, b: int, u: int) -> int:
    """One step of the recurrence; the exceptional point 0 maps to b."""
    if u == 0:
        return b % q
    return (a * pow(u, -1, q) + b) % q


def inversive_sequence(params: InversiveParams, n: int) -> list[int]:
    """First n terms u_0, ..., u_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q, a, b = params.q, params.a, params.b
    out = []
    u = params.u0
    for _ in range(n):
        out.append(u)
        u = inversive_step(q, a, b, u)
    return out


@dataclass(frozen=True)
class PeriodInfo:
    period: int
    pre_period: int


def least_period(params: InversiveParams) -> PeriodInfo:
    """Least period and pre-period of the orbit of u0, by direct iteration."""
    q, a, b = params.q, params.a, params.b
    seen: dict[int, int] = {}
    u = params.u0
    n = 0
    while u not in seen:
        seen[u] = n
        u = inversive_step(q, a, b, u)
        n += 1
    first = seen[u]
    return PeriodInfo(period=n - first, pre_period=first)


def to_unit_interval(seq: Iterable[int], q: int) -> list[float]:
    """Map residues to [0, 1) via u/q."""
    return [u / q for u in seq]


def s_power_residues(q: int, s: int) -> frozenset[int]:
    """R_s = {0} union {w in F_q* : w^((q-1)/s) = 1}, for s dividing q-1.

    This is exactly the set of s-th powers in F_q, of size 1 + (q-1)/s.
    """
    check_prime(q)
    if s < 1 or (q - 1) % s:
        raise ValueError(f"s must divide q-1 = {q - 1}, got s={s}")
    e = (q - 1) // s
    return frozenset({0} | {w for w in range(1, q) if pow(w, e, q) == 1})


@dataclass(frozen=True)
class AuditResult:
    q_max: int
    combinations: int   # (q, a, b, s) tuples audited
    checks: int         # individual (combo, N) inequalities tested
    violations: tuple   # (q, a, b, s, N, count, bound) for each failure


# the C of the residue bound |R_s(N) - N/s| < C sqrt(N) q^(1/4)
RESIDUE_BOUND_C = 2.2
# orbit elements per row block of _audit_prime, so memory stays bounded at any q
AUDIT_BLOCK = 1 << 16
# lowdisc inversive-audit refuses more orbit elements than this, about 7 s
AUDIT_BUDGET = 1 << 25


def _audit_prime(q: int):
    """All bound checks for one modulus; returns (combos, checks, violations).

    The orbits of 1, one row per (a, b), are walked together in blocks of
    rows with one table of inverses (inv[0] = 0 sends 0 to b).  The map is
    a bijection, so a row's period is its first return to 1.
    """
    divisors = [s for s in range(2, q) if (q - 1) % s == 0]
    masks = {}
    for s in divisors:
        mask = np.zeros(q, dtype=bool)
        mask[list(s_power_residues(q, s))] = True
        masks[s] = mask
    inv = np.array([0] + [pow(u, -1, q) for u in range(1, q)], dtype=np.int64)
    ns = np.arange(1, q + 1, dtype=np.float64)
    bounds = RESIDUE_BOUND_C * q ** 0.25 * np.sqrt(ns)
    rows_a = np.repeat(np.arange(1, q, dtype=np.int64), 2)
    rows_b = np.tile(np.arange(2, dtype=np.int64), q - 1)
    step = max(1, AUDIT_BLOCK // q)
    checks = 0
    violations = []
    for start in range(0, 2 * (q - 1), step):
        a, b = rows_a[start:start + step], rows_b[start:start + step]
        orbit = np.empty((len(a), q), dtype=np.int64)
        u = np.ones(len(a), dtype=np.int64)
        for n in range(q):
            orbit[:, n] = u
            u = (a * inv[u] + b) % q
        returned = orbit[:, 1:] == 1
        period = np.where(returned.any(axis=1), returned.argmax(axis=1) + 1, q)
        inside = np.arange(q) < period[:, None]
        checks += len(divisors) * int(period.sum())
        for s in divisors:
            counts = np.cumsum(masks[s][orbit], axis=1)
            bad = (np.abs(counts - ns / s) >= bounds) & inside
            for r, n in zip(*np.nonzero(bad)):
                count, bound = int(counts[r, n]), float(bounds[n])
                violations.append((q, int(a[r]), int(b[r]), s, int(n) + 1, count, bound))
    violations.sort()  # (a, b, s, N) order, as one orbit and divisor at a time
    return 2 * (q - 1) * len(divisors), checks, violations


def audit_bound(q_max: int) -> AuditResult:
    """Exhaustive audit of the residue bound for all odd primes q <= q_max.

    Sweeps every a in [1, q), b in {0, 1} (orbits from u0 = 1), every
    divisor s >= 2 of q-1, and every prefix length N up to the orbit period.
    Degenerate short orbits are included on purpose; no parameter
    combination is excluded.  Results are merged in prime order.
    """
    combos = 0
    checks = 0
    violations = []
    for q in range(3, q_max + 1):
        if is_prime(q):
            c, k, v = _audit_prime(q)
            combos += c
            checks += k
            violations.extend(v)
    return AuditResult(
        q_max=q_max,
        combinations=combos,
        checks=checks,
        violations=tuple(violations),
    )
