"""Permutation polynomials, complete mappings, and check-digit systems over F_q.

A polynomial f over F_q is a *complete mapping* when both f and f + X permute
the field.  Complete mappings drive error detection in check-digit systems:
with digit equation sum_i f^(i)(a_{i+1}) = c (f^(i) = i-fold composition),
twin errors are all detected iff f is complete, adjacent transpositions iff
-f is complete, and single errors always (iterates of a permutation permute).

The classical theory assumes q > 2; every function here still evaluates the
definitions literally at q = 2 (where no complete mappings exist).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BudgetError, Poly, check_prime

__all__ = [
    "is_permutation_poly",
    "value_table",
    "is_complete_mapping",
    "fb_criterion",
    "fb_sweep",
    "SweepResult",
    "CheckDigitSystem",
    "DetectionReport",
    "detection_report",
    "parse_isbn10",
    "isbn10_weighted_sum",
]


def value_table(f: Poly) -> tuple[int, ...]:
    """(f(0), f(1), ..., f(q-1)) over F_q, q = f.p."""
    return tuple(f(a) for a in range(f.p))


def is_permutation_poly(f: Poly) -> bool:
    """True iff f permutes F_q."""
    q = f.p
    return len(set(value_table(f))) == q


def _is_complete_table(vals, q: int) -> bool:
    """True iff the value table vals and vals + X both permute F_q."""
    return len(set(vals)) == q and len({(v + a) % q for a, v in enumerate(vals)}) == q


def is_complete_mapping(f: Poly) -> bool:
    """True iff both f and f + X permute F_q."""
    return _is_complete_table(value_table(f), f.p)


def fb_criterion(q: int, b: int) -> bool:
    """Square-based test: f_b is complete iff b^2 - 1 and b^2 + 2b are
    both nonzero squares in F_q, each decided by Euler's criterion
    v^((q-1)/2) = 1 (generators.s_power_residues at s = 2)."""
    check_prime(q)
    if q == 2:
        raise ValueError("f_b needs an odd prime q")
    e = (q - 1) // 2
    return pow(b * b - 1, e, q) == 1 and pow(b * b + 2 * b, e, q) == 1


# fb_sweep refuses q^2 above this, about 7 s
FB_SWEEP_BUDGET = 1 << 25


@dataclass(frozen=True)
class SweepResult:
    q: int
    count: int
    witnesses: tuple[int, ...]
    mismatches: tuple[int, ...]  # b where criterion and exhaustive check differ


def fb_sweep(q: int) -> SweepResult:
    """Exhaustively test f_b for every b in F_q and cross-check the criterion.

    The exhaustive check evaluates f_b at all q field elements (modular
    exponentiation for the sparse power term) and tests both f_b and f_b + X
    for bijectivity.  Witnesses are sorted, so the result is independent of
    evaluation order.  q^2 over FB_SWEEP_BUDGET raises BudgetError.
    """
    check_prime(q)
    if q == 2:
        raise ValueError("f_b needs an odd prime q")
    if q ** 2 > FB_SWEEP_BUDGET:
        raise BudgetError(f"cmsweep over q^2 = {q ** 2} table entries exceeds the budget {FB_SWEEP_BUDGET}")
    e = (q + 1) // 2
    powers = [pow(a, e, q) for a in range(q)]
    witnesses = []
    mismatches = []
    for b in range(q):
        vals = [(powers[a] + b * a) % q for a in range(q)]
        complete = _is_complete_table(vals, q)
        if complete:
            witnesses.append(b)
        if complete != fb_criterion(q, b):
            mismatches.append(b)
    return SweepResult(
        q=q,
        count=len(witnesses),
        witnesses=tuple(sorted(witnesses)),
        mismatches=tuple(sorted(mismatches)),
    )


# ---------------------------------------------------------------------------
# Check-digit systems
# ---------------------------------------------------------------------------

class CheckDigitSystem:
    """Words (a_1, ..., a_s) over F_q valid when sum_i f^(i-1)(a_i) = c.

    f must be a permutation polynomial; f^(0) is the identity and f^(i) the
    i-fold composition, realized as value tables so composition is exact and
    cheap.  Instances are immutable.
    """

    def __init__(self, f: Poly, c: int, s: int):
        q = f.p
        if s < 2:
            raise ValueError("word length s must be >= 2")
        if not is_permutation_poly(f):
            raise ValueError("f must be a permutation polynomial")
        self.q = q
        self.f = f
        self.c = c % q
        self.s = s
        base = value_table(f)
        tables = [tuple(range(q))]
        for _ in range(s - 1):
            prev = tables[-1]
            tables.append(tuple(base[prev[a]] for a in range(q)))
        # tables[i][a] = f^(i)(a); note composition order is irrelevant for
        # iterates of a single map.
        self.tables = tuple(tables)

    def __repr__(self):
        return f"CheckDigitSystem(q={self.q}, f={self.f!r}, c={self.c}, s={self.s})"


@dataclass(frozen=True)
class DetectionReport:
    """Exhaustive error-detection audit of a check-digit system.

    For each error class, `detects_*` is True when every perturbation of
    every valid word is rejected.  A counterexample tuple carries the valid
    word plus the perturbation that produced a second valid word; at most
    one witness per class is kept (the scan stops early once a class fails).
    """

    q: int
    s: int
    words_checked: int
    detects_single: bool
    detects_transposition: bool
    detects_twin: bool
    single_counterexamples: tuple = field(default=())
    transposition_counterexamples: tuple = field(default=())
    twin_counterexamples: tuple = field(default=())


# valid words per block of detection_report, so memory stays bounded at any q, s
WORD_BLOCK = 1 << 16


def _first_collision(values: np.ndarray) -> np.ndarray:
    """For each a, the first v != a with values[v] == values[a], or -1."""
    same = values[:, None] == values[None, :]
    np.fill_diagonal(same, False)
    return np.where(same.any(axis=1), same.argmax(axis=1), -1)


def detection_report(system: CheckDigitSystem) -> DetectionReport:
    """Scan all q^(s-1) valid words against single, adjacent-transposition,
    and twin errors.  Budget-guarded: requires q <= 31 and s <= 6.

    Word k carries the base-q digits of k (itertools.product order) and then
    its check digit; words are tested WORD_BLOCK at a time as arrays.  With
    T_i = f^(i), b for a_i goes unnoticed iff T_i(b) = T_i(a_i); swapping
    a_i != a_(i+1) iff T_i - T_(i+1) agrees on them; replacing the twin
    a_i = a_(i+1) by v, v iff T_i + T_(i+1) agrees on a_i and v.  Each class
    keeps its first failing word, position, and b or v.
    """
    q, s, c = system.q, system.s, system.c
    if q > 31 or s > 6:
        raise ValueError(
            f"detection_report budget exceeded (q={q}, s={s}); "
            "needs q <= 31 and s <= 6"
        )
    T = np.array(system.tables, dtype=np.int64)
    inverse_last = np.empty(q, dtype=np.int64)  # T[-1] permutes F_q
    inverse_last[T[-1]] = np.arange(q)
    single_b = np.array([_first_collision(t) for t in T])
    h = (T[:-1] - T[1:]) % q
    twin_v = np.array([_first_collision(g) for g in (T[:-1] + T[1:]) % q])
    inner = np.arange(s - 1)
    n_words = q ** (s - 1)
    found = {"single": (), "transposition": (), "twin": ()}
    for start in range(0, n_words, WORD_BLOCK):
        k = np.arange(start, min(start + WORD_BLOCK, n_words), dtype=np.int64)
        words = np.empty((len(k), s), dtype=np.int64)
        for i in range(s - 2, -1, -1):
            words[:, i] = k % q
            k = k // q
        words[:, -1] = inverse_last[(c - T[inner, words[:, :-1]].sum(axis=1)) % q]
        left, right = words[:, :-1], words[:, 1:]
        # error class -> (undetected at (word, i), table of the first b or v)
        for name, bad, other in (
            ("single", single_b[np.arange(s), words] >= 0, single_b),
            ("transposition", (left != right) & (h[inner, left] == h[inner, right]), None),
            ("twin", (left == right) & (twin_v[inner, left] >= 0), twin_v),
        ):
            if not found[name] and bad.any():
                row, i = divmod(int(bad.argmax()), bad.shape[1])
                word = tuple(words[row].tolist())
                cx = (word, i) if other is None else (word, i, int(other[i, word[i]]))
                found[name] = (cx,)

    return DetectionReport(
        q=q,
        s=s,
        words_checked=n_words,
        detects_single=not found["single"],
        detects_transposition=not found["transposition"],
        detects_twin=not found["twin"],
        single_counterexamples=found["single"],
        transposition_counterexamples=found["transposition"],
        twin_counterexamples=found["twin"],
    )


# ---------------------------------------------------------------------------
# ISBN-10
# ---------------------------------------------------------------------------

def parse_isbn10(code: str) -> tuple[int, ...]:
    """Ten digit values x_1..x_10; 'X' (value 10) allowed in the final
    position only.  Hyphens and spaces are stripped.  Malformed input raises
    ValueError (distinct from a well-formed code with a bad checksum)."""
    cleaned = code.replace("-", "").replace(" ", "")
    if len(cleaned) != 10:
        raise ValueError(f"ISBN-10 needs 10 digits, got {len(cleaned)}: {code!r}")
    digits = []
    for pos, ch in enumerate(cleaned, start=1):
        if ch.isdigit():
            digits.append(int(ch))
        elif ch in "Xx":
            if pos != 10:
                raise ValueError(f"'X' only allowed as the check digit: {code!r}")
            digits.append(10)
        else:
            raise ValueError(f"invalid character {ch!r} in ISBN: {code!r}")
    return tuple(digits)


def isbn10_weighted_sum(code: str) -> int:
    """sum_{i=1..10} i * x_i (not reduced mod 11)."""
    digits = parse_isbn10(code)
    return sum(i * x for i, x in enumerate(digits, start=1))
