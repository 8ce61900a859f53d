"""Inversive congruential generators over F_q and their residue statistics.

The recurrence u_{n+1} = a * u_n^(-1) + b (with 0 mapped to b) is a bijection
of F_q, so every orbit is purely periodic: least_period always reports a
pre-period of 0, but computes it honestly rather than assuming it.

For s | q-1 the s-power residues R_s = {0} union {w : w^((q-1)/s) = 1} are
exactly the s-th powers.  Along any orbit prefix of length N within one
period, the visit count R_s(N) obeys |R_s(N) - N/s| < 2.2 sqrt(N) q^(1/4);
audit_bound sweeps that inequality exhaustively over parameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import check_prime, is_prime

__all__ = [
    "InversiveParams",
    "PeriodInfo",
    "ResidueStat",
    "AuditResult",
    "inversive_step",
    "inversive_sequence",
    "least_period",
    "to_unit_interval",
    "s_power_residues",
    "residue_count",
    "residue_stats",
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


def residue_count(params: InversiveParams, s: int, n: int) -> int:
    """R_s(N): how many of u_0..u_{N-1} are s-power residues."""
    members = s_power_residues(params.q, s)
    return sum(1 for u in inversive_sequence(params, n) if u in members)


@dataclass(frozen=True)
class ResidueStat:
    s: int
    n: int
    count: int
    expected: float     # N/s
    bound: float        # 2.2 sqrt(N) q^(1/4)
    satisfied: bool


def residue_stats(
    params: InversiveParams, s: int, n_values: Sequence[int]
) -> list[ResidueStat]:
    """Residue-count deviations |R_s(N) - N/s| against the orbit-sum bound.

    Every N must lie within [1, least period]; the bound statement only
    covers prefixes of a single period.
    """
    q = params.q
    period = least_period(params).period
    members = s_power_residues(q, s)
    out = []
    max_n = max(n_values, default=0)
    for n in n_values:
        if not 1 <= n <= period:
            raise ValueError(f"N={n} outside [1, period={period}]")
    seq = inversive_sequence(params, max_n)
    hits = 0
    counts = {}
    for i, u in enumerate(seq, start=1):
        hits += u in members
        counts[i] = hits
    bound_scale = 2.2 * q ** 0.25
    for n in n_values:
        count = counts[n]
        bound = bound_scale * math.sqrt(n)
        out.append(
            ResidueStat(
                s=s,
                n=n,
                count=count,
                expected=n / s,
                bound=bound,
                satisfied=abs(count - n / s) < bound,
            )
        )
    return out


@dataclass(frozen=True)
class AuditResult:
    q_max: int
    combinations: int   # (q, a, b, s) tuples audited
    checks: int         # individual (combo, N) inequalities tested
    violations: tuple   # (q, a, b, s, N, count, bound) for each failure


def _audit_prime(q: int, b_values: Sequence[int], u0: int):
    """All bound checks for one modulus; returns (combos, checks, violations)."""
    divisors = [s for s in range(2, q) if (q - 1) % s == 0]
    masks = {}
    for s in divisors:
        mask = np.zeros(q, dtype=bool)
        mask[list(s_power_residues(q, s))] = True
        masks[s] = mask
    q4 = 2.2 * q ** 0.25
    combos = 0
    checks = 0
    violations = []
    for a in range(1, q):
        for b in b_values:
            params = InversiveParams(q=q, a=a, b=b % q, u0=u0 % q)
            period = least_period(params).period
            orbit = np.array(inversive_sequence(params, period), dtype=np.int64)
            ns = np.arange(1, period + 1, dtype=np.float64)
            bounds = q4 * np.sqrt(ns)
            for s in divisors:
                combos += 1
                counts = np.cumsum(masks[s][orbit])
                dev = np.abs(counts - ns / s)
                checks += period
                bad = np.nonzero(dev >= bounds)[0]
                for i in bad:
                    violations.append(
                        (q, a, b, s, int(i + 1), int(counts[i]), float(bounds[i]))
                    )
    return combos, checks, violations


def audit_bound(
    q_max: int,
    b_values: Sequence[int] = (0, 1),
    u0: int = 1,
    min_q: int = 3,
) -> AuditResult:
    """Exhaustive audit of the residue bound for all odd primes q <= q_max.

    Sweeps every a in [1, q), the given b values, every divisor s >= 2 of
    q-1, and every prefix length N up to the orbit period.  Degenerate short
    orbits are included on purpose; no parameter combination is excluded.
    Results are merged in prime order.
    """
    combos = 0
    checks = 0
    violations = []
    for q in range(max(3, min_q), q_max + 1):
        if is_prime(q):
            c, k, v = _audit_prime(q, b_values, u0)
            combos += c
            checks += k
            violations.extend(v)
    return AuditResult(
        q_max=q_max,
        combinations=combos,
        checks=checks,
        violations=tuple(violations),
    )
