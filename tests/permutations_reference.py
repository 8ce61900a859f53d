"""The word-by-word scan that detection_report used before its array pass,
kept as a reference implementation, with the word-level operations of a
check-digit system that only the scan and the tests use.

scan_detection_report completes each prefix of itertools.product order into
a valid word and tests every single substitution, adjacent transposition
and twin replacement on it directly, so it is slow but literal.  The tests
compare whole DetectionReports, counterexamples included, against it.
"""

import itertools

from lowdisc.permutations import CheckDigitSystem, DetectionReport


def check_word(system: CheckDigitSystem, word, expected_len: int) -> None:
    if len(word) != expected_len:
        raise ValueError(f"expected {expected_len} symbols, got {len(word)}")
    for a in word:
        if not 0 <= a < system.q:
            raise ValueError(f"symbol {a} outside F_{system.q}")


def weighted_sum(system: CheckDigitSystem, word) -> int:
    """sum_i f^(i-1)(a_i) mod q of a whole word."""
    check_word(system, word, system.s)
    return sum(system.tables[i][a] for i, a in enumerate(word)) % system.q


def validate(system: CheckDigitSystem, word) -> bool:
    return weighted_sum(system, word) == system.c


def check_digit(system: CheckDigitSystem, prefix) -> int:
    """The unique a_s making (prefix..., a_s) valid."""
    check_word(system, prefix, system.s - 1)
    partial = sum(system.tables[i][a] for i, a in enumerate(prefix)) % system.q
    return system.tables[-1].index((system.c - partial) % system.q)


def complete(system: CheckDigitSystem, prefix) -> tuple[int, ...]:
    return tuple(prefix) + (check_digit(system, prefix),)


def scan_detection_report(system: CheckDigitSystem) -> DetectionReport:
    """Scan all q^(s-1) valid words against single, adjacent-transposition,
    and twin errors, one word at a time.  Budget-guarded: requires q <= 31
    and s <= 6."""
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

    for prefix in itertools.product(range(q), repeat=s - 1):
        word = complete(system, prefix)
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
