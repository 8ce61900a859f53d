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

from .algebra import Poly, check_prime

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


def _nonzero_squares(q: int) -> frozenset[int]:
    return frozenset(z * z % q for z in range(1, q))


def fb_criterion(q: int, b: int) -> bool:
    """Square-based test: f_b is complete iff b^2 - 1 and b^2 + 2b are
    both nonzero squares in F_q."""
    check_prime(q)
    if q == 2:
        raise ValueError("f_b needs an odd prime q")
    sq = _nonzero_squares(q)
    b %= q
    return (b * b - 1) % q in sq and (b * b + 2 * b) % q in sq


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
    evaluation order.
    """
    check_prime(q)
    if q == 2:
        raise ValueError("f_b needs an odd prime q")
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
        last = self.tables[s - 1]
        inverse_last = [0] * q
        for a, v in enumerate(last):
            inverse_last[v] = a
        self._inverse_last = tuple(inverse_last)

    def weighted_sum(self, word) -> int:
        self._check_word(word, self.s)
        return sum(self.tables[i][a] for i, a in enumerate(word)) % self.q

    def validate(self, word) -> bool:
        return self.weighted_sum(word) == self.c

    def check_digit(self, prefix) -> int:
        """The unique a_s making (prefix..., a_s) valid."""
        self._check_word(prefix, self.s - 1)
        partial = sum(self.tables[i][a] for i, a in enumerate(prefix)) % self.q
        return self._inverse_last[(self.c - partial) % self.q]

    def complete(self, prefix) -> tuple[int, ...]:
        return tuple(prefix) + (self.check_digit(prefix),)

    def _check_word(self, word, expected_len):
        if len(word) != expected_len:
            raise ValueError(f"expected {expected_len} symbols, got {len(word)}")
        for a in word:
            if not 0 <= a < self.q:
                raise ValueError(f"symbol {a} outside F_{self.q}")

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


def detection_report(system: CheckDigitSystem) -> DetectionReport:
    """Scan all q^(s-1) valid words against single, adjacent-transposition,
    and twin errors.  Budget-guarded: requires q <= 31 and s <= 6."""
    q, s, c = system.q, system.s, system.c
    if q > 31 or s > 6:
        raise ValueError(
            f"detection_report budget exceeded (q={q}, s={s}); "
            "needs q <= 31 and s <= 6"
        )
    T = system.tables
    single_cx = None
    transp_cx = None
    twin_cx = None
    n_words = 0

    import itertools

    for prefix in itertools.product(range(q), repeat=s - 1):
        word = system.complete(prefix)
        n_words += 1
        if single_cx is None:
            for i in range(s):
                Ti = T[i]
                base = Ti[word[i]]
                for b in range(q):
                    if b != word[i] and Ti[b] == base:
                        single_cx = (word, i, b)
                        break
                if single_cx:
                    break
        if transp_cx is None:
            for i in range(s - 1):
                a, b = word[i], word[i + 1]
                if a != b:
                    delta = (T[i][b] + T[i + 1][a] - T[i][a] - T[i + 1][b]) % q
                    if delta == 0:
                        transp_cx = (word, i)
                        break
        if twin_cx is None:
            for i in range(s - 1):
                a = word[i]
                if word[i + 1] == a:
                    for v in range(q):
                        if v != a and (
                            T[i][v] + T[i + 1][v] - T[i][a] - T[i + 1][a]
                        ) % q == 0:
                            twin_cx = (word, i, v)
                            break
                    if twin_cx:
                        break

    return DetectionReport(
        q=q,
        s=s,
        words_checked=n_words,
        detects_single=single_cx is None,
        detects_transposition=transp_cx is None,
        detects_twin=twin_cx is None,
        single_counterexamples=(single_cx,) if single_cx else (),
        transposition_counterexamples=(transp_cx,) if transp_cx else (),
        twin_counterexamples=(twin_cx,) if twin_cx else (),
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
