"""Tests for inversive congruential generators and residue-count bounds."""

import math
import random
import tracemalloc

import pytest

from lowdisc import generators
from lowdisc.generators import (
    AuditResult,
    InversiveParams,
    _audit_prime,
    audit_bound,
    inversive_sequence,
    inversive_step,
    least_period,
    s_power_residues,
    to_unit_interval,
)

PRIMES = [3, 5, 7, 11, 13, 17, 101]


def test_frozen_orbits():
    p = InversiveParams(q=5, a=1, b=0, u0=2)
    assert inversive_sequence(p, 4) == [2, 3, 2, 3]
    info = least_period(p)
    assert (info.period, info.pre_period) == (2, 0)

    p = InversiveParams(q=5, a=1, b=1, u0=0)
    assert inversive_sequence(p, 5) == [0, 1, 2, 4, 0]
    info = least_period(p)
    assert (info.period, info.pre_period) == (4, 0)


def test_step_handles_zero():
    assert inversive_step(7, 3, 5, 0) == 5
    # u=2: 3 * 4 + 5 = 17 = 3 mod 7  (2^-1 = 4)
    assert inversive_step(7, 3, 5, 2) == 3


def test_param_validation():
    with pytest.raises(ValueError):
        InversiveParams(q=8, a=1, b=0, u0=0)
    with pytest.raises(ValueError):
        InversiveParams(q=7, a=0, b=0, u0=0)
    with pytest.raises(ValueError):
        InversiveParams(q=7, a=7, b=0, u0=0)
    with pytest.raises(ValueError):
        InversiveParams(q=7, a=1, b=9, u0=0)
    with pytest.raises(ValueError):
        InversiveParams(q=7, a=1, b=0, u0=-1)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        inversive_sequence(InversiveParams(q=7, a=1, b=0, u0=0), -1)


def dict_walk_period(params):
    """(period, pre_period) of the orbit of u0, found by keeping the step at
    which each element was first seen until one comes back: assumes nothing
    of the map."""
    seen = {}
    u, n = params.u0, 0
    while u not in seen:
        seen[u] = n
        u = inversive_step(params.q, params.a, params.b, u)
        n += 1
    return n - seen[u], seen[u]


@pytest.mark.parametrize("q", PRIMES)
def test_map_is_bijective_so_no_pre_period(q):
    rng = random.Random(q)
    for _ in range(8):
        a = rng.randrange(1, q)
        b = rng.randrange(q)
        images = {inversive_step(q, a, b, u) for u in range(q)}
        assert images == set(range(q))
        params = InversiveParams(q, a, b, rng.randrange(q))
        assert least_period(params).pre_period == dict_walk_period(params)[1] == 0


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_period_equals_the_dict_walk(q):
    for a in range(1, q):
        for b in range(q):
            for u0 in range(q):
                params = InversiveParams(q, a, b, u0)
                info = least_period(params)
                assert (info.period, info.pre_period) == dict_walk_period(params), params


def test_period_walk_keeps_no_orbit():
    # q = 20011 is prime and this orbit holds 20009 of its elements, so a
    # walk that kept them would trace over a megabyte
    params = InversiveParams(20011, 1, 1, 0)
    tracemalloc.start()
    try:
        info = least_period(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10, peak
    assert (info.period, info.pre_period) == dict_walk_period(params) == (20009, 0)


def test_period_matches_naive_rescan():
    rng = random.Random(4242)
    for _ in range(20):
        q = rng.choice([5, 7, 11, 13])
        p = InversiveParams(q, rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
        t = least_period(p).period
        seq = inversive_sequence(p, 3 * t)
        assert seq[:t] * 3 == seq
        # t is minimal
        for shorter in range(1, t):
            if seq[:shorter] * (3 * t // shorter + 1) != seq[: 3 * t]:
                continue
            pytest.fail(f"period {t} not minimal for {p}")


def test_unit_interval_values():
    vals = to_unit_interval([0, 1, 4], 5)
    assert vals == [0.0, 0.2, 0.8]
    assert all(0 <= v < 1 for v in vals)


# --- power residues ---------------------------------------------------------

def test_power_residue_sets_frozen():
    assert sorted(s_power_residues(5, 2)) == [0, 1, 4]
    assert sorted(s_power_residues(7, 2)) == [0, 1, 2, 4]
    assert sorted(s_power_residues(7, 3)) == [0, 1, 6]


@pytest.mark.parametrize("q", PRIMES)
def test_power_residues_are_exactly_sth_powers(q):
    for s in range(2, q):
        if (q - 1) % s:
            continue
        explicit = {0} | {pow(w, s, q) for w in range(1, q)}
        assert s_power_residues(q, s) == frozenset(explicit)
        assert len(s_power_residues(q, s)) == 1 + (q - 1) // s


def test_power_residues_validation():
    with pytest.raises(ValueError):
        s_power_residues(7, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        s_power_residues(9, 2)  # not prime


# --- the audit -----------------------------------------------------------------

def test_audit_small_range_clean():
    r = audit_bound(31)
    assert isinstance(r, AuditResult)
    assert r.violations == ()
    assert r.combinations > 0
    assert r.checks > r.combinations


def brute_force_audit(q_max):
    """audit_bound recounted one prefix at a time: odd primes q <= q_max by
    trial division, orbits from u0 = 1 until they return to it, with the
    bound's constant read from the module at call time."""
    combos = checks = 0
    violations = []
    for q in range(3, q_max + 1):
        if any(q % d == 0 for d in range(2, q)):
            continue
        for a in range(1, q):
            for b in (0, 1):
                orbit = inversive_sequence(InversiveParams(q, a, b, 1), q + 1)
                period = orbit.index(1, 1)
                for s in range(2, q):
                    if (q - 1) % s:
                        continue
                    combos += 1
                    members = s_power_residues(q, s)
                    for n in range(1, period + 1):
                        checks += 1
                        count = sum(u in members for u in orbit[:n])
                        bound = generators.RESIDUE_BOUND_C * q ** 0.25 * math.sqrt(n)
                        if not abs(count - n / s) < bound:
                            violations.append((q, a, b, s, n, count, bound))
    return AuditResult(q_max, combos, checks, tuple(violations))


@pytest.mark.parametrize("q_max", [13, 31])
def test_audit_bound_matches_brute_force(q_max):
    assert audit_bound(q_max) == brute_force_audit(q_max)


def test_audit_violations_match_brute_force(monkeypatch):
    # a constant far below 2.2 makes violations, which must come out in the
    # brute force's (q, a, b, s, N) order with int counts and float bounds;
    # blocks of a few rows split the orbits of one modulus
    monkeypatch.setattr(generators, "RESIDUE_BOUND_C", 0.4)
    monkeypatch.setattr(generators, "AUDIT_BLOCK", 100)
    result = audit_bound(31)
    assert result == brute_force_audit(31)
    assert len(result.violations) > 500
    for q, a, b, s, n, count, bound in result.violations:
        assert all(type(v) is int for v in (q, a, b, s, n, count))
        assert type(bound) is float


def test_audit_memory_stays_bounded():
    q = 503
    assert 2 * (q - 1) * q > 4 * generators.AUDIT_BLOCK  # several row blocks
    tracemalloc.start()
    try:
        combos, checks, violations = _audit_prime(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert combos == 2 * (q - 1) * 3  # divisors 2, 251 and 502 of q - 1
    assert violations == []
    # each divisor checks every prefix of every orbit, so checks is three
    # times the orbits' total length
    periods = [
        least_period(InversiveParams(q, a, b, 1)).period
        for a in range(1, q)
        for b in (0, 1)
    ]
    assert checks == 3 * sum(periods)


def test_audit_deterministic():
    assert audit_bound(13) == audit_bound(13)


def test_audit_counts_scale_with_qmax():
    small, large = audit_bound(13), audit_bound(31)
    assert large.combinations > small.combinations
    assert large.q_max == 31
