"""The acceptance suite: eleven end-to-end experiments, each with a wall-time
budget, runnable one at a time (``lowdisc reproduce <n>``) or all together
(the test suite runs every one and prints a pass/fail line per criterion).

Every experiment checks library results against an independent route --
exhaustive search, trial division, closed forms, high-precision rationals --
never against values the same code path produced.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .algebra import Poly, interpolate, is_prime, monic_irreducibles
from .diophantine import zaremba_search, zaremba_table
from .factorizer import factor
from .generators import audit_bound
from .permutations import CheckDigitSystem, detection_report, fb_sweep, is_complete_mapping
from .pointsets import (
    PointSet,
    digital_net,
    GeneratingMatrixSet,
    digital_points,
    halton,
    lattice_points,
    niederreiter_matrices,
    niederreiter_net,
)
from .quality import (
    minimal_t_dual,
    minimal_t_geometric,
    net_property,
    p2_dual_sum,
    p2_tail_bound,
    p_alpha,
    sampled_deviation_lower_bound,
    star_discrepancy,
    star_discrepancy_1d_closed_form,
)

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_criterion", "format_result_line"]


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float
    budget_seconds: float


# ---------------------------------------------------------------------------
# 1. ISBN validation and single-error detection, through the CLI
# ---------------------------------------------------------------------------

def _run_cli(argv) -> int:
    from .cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _criterion_1() -> tuple[bool, str]:
    base = "0-521-39231-4"
    if _run_cli(["isbn", base]) != 0:
        return False, f"{base} did not validate"
    digits = base.replace("-", "")
    rng = random.Random(1)
    caught = 0
    for _ in range(100):
        pos = rng.randrange(10)
        pool = "0123456789X" if pos == 9 else "0123456789"
        new = rng.choice([c for c in pool if c != digits[pos]])
        corrupted = digits[:pos] + new + digits[pos + 1 :]
        if _run_cli(["isbn", corrupted]) == 1:
            caught += 1
    ok = caught == 100
    return ok, f"base code valid; {caught}/100 single-digit corruptions rejected"


# ---------------------------------------------------------------------------
# 2. Complete mappings: criterion vs exhaustive check; linear classification
# ---------------------------------------------------------------------------

def _criterion_2() -> tuple[bool, str]:
    for q in filter(is_prime, range(3, 50)):
        sweep = fb_sweep(q)
        if sweep.mismatches:
            return False, f"criterion/exhaustive mismatch at q={q}: {sweep.mismatches}"
    for q in filter(is_prime, range(2, 32)):
        for a in range(q):
            expected = a % q not in (0, q - 1)
            got = is_complete_mapping(Poly([0, a], q))
            if got != expected:
                return False, f"linear map a={a} over F_{q}: got {got}"
    return True, (
        f"half-power family agrees with exhaustive search for all odd q <= 49; "
        f"linear maps complete exactly for a not in {{0,-1}} up to q=31"
    )


# ---------------------------------------------------------------------------
# 3. Check-digit detection theory
# ---------------------------------------------------------------------------

def _random_permutation_poly(rng: random.Random, q: int) -> Poly:
    table = list(range(q))
    rng.shuffle(table)
    return interpolate(table, q)


def _criterion_3() -> tuple[bool, str]:
    rng = random.Random(3)
    tested = 0
    for q in (5, 7, 11):
        for _ in range(20):
            f = _random_permutation_poly(rng, q)
            rep = detection_report(CheckDigitSystem(f, c=0, s=4))
            want_transposition = is_complete_mapping(-f)
            want_twin = is_complete_mapping(f)
            if not rep.detects_single:
                return False, f"singles missed for q={q}, f={f.coeffs}"
            if rep.detects_transposition != want_transposition:
                return False, f"transposition theory broken for q={q}, f={f.coeffs}"
            if rep.detects_twin != want_twin:
                return False, f"twin theory broken for q={q}, f={f.coeffs}"
            tested += 1
    return True, f"{tested} random permutation polynomials match the theory booleans"


# ---------------------------------------------------------------------------
# 4. Factorizer against a trial-division oracle
# ---------------------------------------------------------------------------

def _naive_factor(f: Poly, irreducibles: list[Poly]) -> list[tuple[tuple[int, ...], int]]:
    """Trial division by monic irreducibles in degree order, each as often as
    it divides; once 2 deg g > deg(work), what is left is irreducible.  The
    irreducibles must reach degree deg f / 2."""
    factors = []
    work = f.monic()
    for g in irreducibles:
        if 2 * g.degree > work.degree:
            break
        mult = 0
        q, r = divmod(work, g)
        while r.is_zero:
            work, mult = q, mult + 1
            q, r = divmod(work, g)
        if mult:
            factors.append((g.coeffs, mult))
    if work.degree >= 1:
        factors.append((work.coeffs, 1))
    return sorted(factors, key=lambda kv: (len(kv[0]), kv[0]))


def _criterion_4() -> tuple[bool, str]:
    rng = random.Random(4)
    # the monic irreducibles of degree <= 6, enough for deg f <= 12
    irreducibles = {2: monic_irreducibles(2, 23), 3: monic_irreducibles(3, 196)}
    for trial in range(500):
        p = 2 if trial % 2 == 0 else 3
        deg = rng.randint(1, 12)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = Poly(coeffs, p)
        result = factor(f)
        if result.reassemble() != f:
            return False, f"reassembly failed for {coeffs} over F_{p}"
        got = [(g.coeffs, m) for g, m in result.factors]
        if got != _naive_factor(f, irreducibles[p]):
            return False, f"factor multiset differs from oracle for {coeffs} over F_{p}"
    return True, "500 random monic polynomials (deg <= 12, p in {2,3}) match trial division"


# ---------------------------------------------------------------------------
# 5. Inversive residue bound
# ---------------------------------------------------------------------------

def _criterion_5() -> tuple[bool, str]:
    result = audit_bound(101)
    ok = not result.violations
    return ok, (
        f"{result.combinations} (q,a,b,s) combinations, {result.checks} prefix "
        f"inequalities, {len(result.violations)} violations"
    )


# ---------------------------------------------------------------------------
# 6. Bounded partial quotients for prime-power denominators
# ---------------------------------------------------------------------------

def _criterion_6() -> tuple[bool, str]:
    jobs = [(2, 20, 3), (3, 12, 5), (5, 10, 5)]
    rows_total = 0
    for base, m_max, c in jobs:
        rows = zaremba_table(base, m_max, c)
        absent = [row.m for row in rows if row.witness is None]
        if absent:
            return False, f"no witness for base {base}, c={c}, m in {absent}"
        rows_total += len(rows)
    return True, f"witnesses found in all {rows_total} rows (2^m c=3; 3^m, 5^m c=5)"


# ---------------------------------------------------------------------------
# 7. Niederreiter nets achieve t = 0, including sequence prefix blocks
# ---------------------------------------------------------------------------

def _criterion_7() -> tuple[bool, str]:
    jobs = [(2, 2, 8), (3, 3, 5), (5, 5, 3)]
    nets = 0
    blocks = 0
    for b, s, m_max in jobs:
        for m in range(1, m_max + 1):
            t = minimal_t_geometric(niederreiter_net(b, s, m), b, m)
            if t != 0:
                return False, f"net b={b} s={s} m={m} has t={t}"
            nets += 1
            G = niederreiter_matrices(b, s, rows=m, cols=m + 2)
            for k in range(3):
                block = digital_points(G, k * b ** m, b ** m)
                if not net_property(block, b, m, 0):
                    return False, f"prefix block k={k} fails for b={b} s={s} m={m}"
                blocks += 1
    return True, f"t=0 for {nets} nets and {blocks} sequence prefix blocks"


# ---------------------------------------------------------------------------
# 8. Dual-space t equals geometric t
# ---------------------------------------------------------------------------

def _criterion_8() -> tuple[bool, str]:
    rng = random.Random(8)
    for trial in range(200):
        b = rng.choice([2, 3])
        m = rng.randint(1, 6)
        s = rng.randint(1, 3)
        mats = [
            [[rng.randrange(b) for _ in range(m)] for _ in range(m)]
            for _ in range(s)
        ]
        G = GeneratingMatrixSet(b, mats)
        t_dual = minimal_t_dual(G)
        t_geo = minimal_t_geometric(digital_net(G), b, m)
        if t_dual != t_geo:
            return False, (
                f"trial {trial}: t_dual={t_dual} != t_geometric={t_geo} "
                f"for b={b} m={m} s={s} matrices {mats}"
            )
    return True, "200 random generating-matrix sets agree between both routes"


# ---------------------------------------------------------------------------
# 9. Discrepancy engine: closed form, sampling bound, lattice ratio stability
# ---------------------------------------------------------------------------

def _criterion_9() -> tuple[bool, str]:
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 50)
        den = rng.randint(1, 64)
        ps = PointSet.exact([[rng.randrange(den)] for _ in range(n)], [den])
        if star_discrepancy(ps) != star_discrepancy_1d_closed_form(ps):
            return False, f"1D sweep vs closed form mismatch (n={n}, den={den})"

    probes = [
        lattice_points([1, 8], 13),
        lattice_points([1, 3, 5], 16),
        niederreiter_net(2, 2, 5),
        halton([2, 3], 40),
    ]
    for ps in probes:
        exact = star_discrepancy(ps)
        lb = sampled_deviation_lower_bound(ps, samples=10_000, seed=99)
        if lb > exact:
            return False, f"sampled deviation {lb} exceeds exact D* {exact}"

    ratios = {}
    for m in range(4, 13):
        n = 2 ** m
        a = zaremba_search(n, 3)
        if a is None:
            return False, f"no bounded-quotient generator for 2^{m}"
        d_star = star_discrepancy(lattice_points([1, a], n), n_limit=n)
        ratios[m] = n * float(d_star) / math.log(n)
    early = max(ratios[m] for m in range(4, 9))
    late = max(ratios[m] for m in range(9, 13))
    if late > 1.3 * early:
        return False, f"ratio drifts upward: early max {early:.3f}, late max {late:.3f}"
    return True, (
        "closed form matches on 100 sets; sampling never exceeds exact D*; "
        f"N*D*/log N stable (early max {early:.3f}, late max {late:.3f})"
    )


# ---------------------------------------------------------------------------
# 10. P_2 against the truncated dual-lattice sum; Fibonacci improvement
# ---------------------------------------------------------------------------

def _criterion_10() -> tuple[bool, str]:
    rng = random.Random(10)
    h = 1000
    tail = p2_tail_bound(2, h)
    for _ in range(20):
        n = rng.randint(8, 144)
        a = [rng.randrange(1, n), rng.randrange(1, n)]
        closed = p_alpha(a, n)
        truncated = p2_dual_sum(a, n, h)
        if abs(closed - truncated) > tail:
            return False, (
                f"a={a}, N={n}: closed {closed} vs truncated {truncated} "
                f"differ beyond tail bound {tail}"
            )
    fib = [1, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    values = [p_alpha([1, fib[k - 1]], fib[k]) for k in range(8, 17)]
    decreasing = all(x > y for x, y in zip(values, values[1:]))
    if not decreasing:
        return False, f"Fibonacci P_2 not strictly decreasing: {values}"
    return True, (
        f"20 random rules within tail bound {tail:.4f}; Fibonacci P_2 falls "
        f"from {values[0]:.4f} to {values[-1]:.6f}"
    )


# ---------------------------------------------------------------------------
# 11. Scope exclusions are documented
# ---------------------------------------------------------------------------

_EXCLUSION_TOPICS = ("function field", "A(q)", "metric", "Gowers")


def _criterion_11() -> tuple[bool, str]:
    readme = Path(__file__).resolve().parents[2] / "README.md"
    if not readme.exists():
        return False, "README.md not found"
    text = readme.read_text()
    missing = [topic for topic in _EXCLUSION_TOPICS if topic.lower() not in text.lower()]
    if missing:
        return False, f"README does not document excluded topics: {missing}"
    return True, "README documents all four classes of excluded results"


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

ALL_CRITERIA: dict[int, tuple[str, float, Callable[[], tuple[bool, str]]]] = {
    1: ("isbn-detection", 1.0, _criterion_1),
    2: ("complete-mappings", 10.0, _criterion_2),
    3: ("check-digit-theory", 60.0, _criterion_3),
    4: ("factorizer-oracle", 60.0, _criterion_4),
    5: ("inversive-bound", 300.0, _criterion_5),
    6: ("zaremba-witnesses", 120.0, _criterion_6),
    7: ("niederreiter-t0", 180.0, _criterion_7),
    8: ("duality-equivalence", 180.0, _criterion_8),
    9: ("discrepancy-engine", 300.0, _criterion_9),
    10: ("p2-oracle", 120.0, _criterion_10),
    11: ("scope-exclusions", 10.0, _criterion_11),
}


def run_criterion(cid: int) -> CriterionResult:
    name, budget, fn = ALL_CRITERIA[cid]
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    if ok and elapsed >= budget:
        ok = False
        detail += f" -- but took {elapsed:.1f}s, over the {budget:.0f}s budget"
    return CriterionResult(cid, name, ok, detail, elapsed, budget)


def format_result_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return (
        f"criterion {result.criterion:2d} [{result.name}] {verdict} "
        f"({result.elapsed_seconds:.2f}s / budget {result.budget_seconds:.0f}s): {result.detail}"
    )
