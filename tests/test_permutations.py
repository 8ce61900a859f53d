"""Tests for complete mappings, check-digit systems, and ISBN-10 validation."""

import random
import tracemalloc

import pytest

from lowdisc import permutations
from lowdisc.algebra import Poly, interpolate
from lowdisc.permutations import (
    CheckDigitSystem,
    detection_report,
    fb_criterion,
    fb_sweep,
    is_complete_mapping,
    is_permutation_poly,
    isbn10_weighted_sum,
    parse_isbn10,
    value_table,
)
from permutations_reference import (
    check_digit,
    complete,
    scan_detection_report,
    validate,
    weighted_sum,
)
from polys import monomial

ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def fb_poly(q: int, b: int) -> Poly:
    """f_b(X) = X^((q+1)/2) + bX over F_q, for odd prime q."""
    return monomial(q, (q + 1) // 2) + Poly((0, b), q)


# --- permutation polynomials -------------------------------------------------

def test_basic_permutation_checks():
    assert is_permutation_poly(Poly.x(5))
    assert not is_permutation_poly(monomial(5, 2))       # X^2: 0,1,4,4,1
    assert not is_permutation_poly(Poly((3,), 5))        # constant
    assert is_permutation_poly(monomial(7, 5))           # gcd(5, 6) = 1
    assert not is_permutation_poly(monomial(7, 3))       # gcd(3, 6) = 3


def test_monomial_permutation_rule():
    # X^k permutes F_q iff gcd(k, q-1) = 1
    import math
    for q in (5, 7, 11, 13):
        for k in range(1, q):
            assert is_permutation_poly(monomial(q, k)) == (
                math.gcd(k, q - 1) == 1
            )


@pytest.mark.parametrize("q", [2] + ODD_PRIMES_TO_31)
def test_linear_complete_mappings(q):
    # aX is complete exactly for a not in {0, -1}
    for a in range(q):
        expected = a not in (0, q - 1)
        assert is_complete_mapping(Poly((0, a), q)) == expected


def test_spec_example_complete_mapping_f7():
    # X^4 + 3X over F_7: both it and X^4 + 4X must permute
    f = fb_poly(7, 3)
    assert f == Poly((0, 3, 0, 0, 1), 7)
    assert is_complete_mapping(f)
    table = value_table(f)
    assert sorted(table) == list(range(7))
    assert sorted((v + a) % 7 for a, v in enumerate(table)) == list(range(7))


# --- the f_b family -----------------------------------------------------------

def test_fb_criterion_hand_values_q7():
    # nonzero squares mod 7 are {1, 2, 4}
    # b=3: b^2-1 = 8 = 1 ok, b^2+2b = 15 = 1 ok -> complete
    assert fb_criterion(7, 3)
    # b=0: b^2-1 = -1 = 6, not a square -> not complete
    assert not fb_criterion(7, 0)
    # b=1: b^2-1 = 0 is excluded (must be a *nonzero* square)
    assert not fb_criterion(7, 1)


@pytest.mark.parametrize(
    "q,count,witnesses",
    [
        (3, 0, ()),
        (7, 1, (3,)),
        (11, 0, ()),
        (13, 1, (6,)),
    ],
)
def test_fb_sweep_small_counts(q, count, witnesses):
    r = fb_sweep(q)
    assert r.count == count
    assert r.witnesses == witnesses
    assert r.mismatches == ()


def test_fb_sweep_q199_count_tracks_q_over_4():
    r = fb_sweep(199)
    assert r.mismatches == ()
    assert r.count == 45  # computed by the exhaustive sweep; q/4 = 49.75
    assert abs(r.count - 199 / 4) < 2 * 199 ** 0.5


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_fb_criterion_equals_exhaustive(q):
    sq = {z * z % q for z in range(1, q)}
    for b in range(q):
        crit = (b * b - 1) % q in sq and (b * b + 2 * b) % q in sq
        assert crit == fb_criterion(q, b)
        assert crit == is_complete_mapping(fb_poly(q, b))


ODD_PRIMES_BELOW_200 = [q for q in range(3, 200, 2) if all(q % d for d in range(3, q, 2) if d * d <= q)]


@pytest.mark.parametrize("q", ODD_PRIMES_BELOW_200)
def test_fb_criterion_equals_the_square_table(q):
    sq = {z * z % q for z in range(1, q)}
    for b in range(q):
        assert fb_criterion(q, b) == ((b * b - 1) % q in sq and (b * b + 2 * b) % q in sq), b


def test_fb_criterion_refuses_a_float():
    # 2.5 is no element of F_7; it must not read as some b
    with pytest.raises(TypeError):
        fb_criterion(7, 2.5)


def test_fb_rejects_q2():
    with pytest.raises(ValueError):
        fb_criterion(2, 1)
    with pytest.raises(ValueError):
        fb_sweep(2)


# --- check-digit systems --------------------------------------------------------

def test_check_digit_hand_example():
    # q=5, f=X, c=0: word (1, 2, a3) valid iff 1+2+a3 = 0, so a3 = 2
    sys5 = CheckDigitSystem(Poly.x(5), c=0, s=3)
    assert check_digit(sys5, (1, 2)) == 2
    assert complete(sys5, (1, 2)) == (1, 2, 2)
    assert validate(sys5, (1, 2, 2))
    assert not validate(sys5, (1, 2, 3))
    assert weighted_sum(sys5, (1, 2, 3)) == 1


def test_iterate_tables_match_naive_composition():
    rng = random.Random(5)
    q = 7
    perm = list(range(q))
    rng.shuffle(perm)
    f = interpolate(perm, q)
    system = CheckDigitSystem(f, c=3, s=5)
    # naive composition oracle
    naive = list(range(q))
    for i in range(5):
        assert system.tables[i] == tuple(naive)
        naive = [perm[naive[a]] for a in range(q)]


def test_check_digit_system_rejects_non_permutation():
    with pytest.raises(ValueError):
        CheckDigitSystem(monomial(5, 2), c=0, s=4)
    with pytest.raises(ValueError):
        CheckDigitSystem(Poly.x(5), c=0, s=1)


def test_validate_checks_word_shape():
    sys5 = CheckDigitSystem(Poly.x(5), c=0, s=3)
    with pytest.raises(ValueError):
        validate(sys5, (1, 2))
    with pytest.raises(ValueError):
        validate(sys5, (1, 2, 7))
    with pytest.raises(ValueError):
        check_digit(sys5, (1, 2, 3))


def test_every_completed_word_validates():
    rng = random.Random(99)
    for q in (5, 11):
        perm = list(range(q))
        rng.shuffle(perm)
        system = CheckDigitSystem(interpolate(perm, q), c=rng.randrange(q), s=4)
        for _ in range(50):
            prefix = tuple(rng.randrange(q) for _ in range(3))
            word = complete(system, prefix)
            assert validate(system, word)


# --- detection reports --------------------------------------------------------

def test_detection_q5_identity_map():
    # f = X: f complete (2X permutes), -f = 4X not complete (4X + X = 0)
    rep = detection_report(CheckDigitSystem(Poly.x(5), c=0, s=3))
    assert rep.detects_single
    assert rep.detects_twin
    assert not rep.detects_transposition
    assert rep.words_checked == 25
    # the stored counterexample must actually produce a second valid word
    (word, i) = rep.transposition_counterexamples[0]
    swapped = list(word)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    system = CheckDigitSystem(Poly.x(5), c=0, s=3)
    assert validate(system, word)
    assert validate(system, tuple(swapped))
    assert tuple(swapped) != word


def test_single_counterexample_substitutes():
    # craft a failing system is impossible for singles (f permutes), so just
    # assert singles always pass across random systems
    rng = random.Random(31)
    for q in (5, 7):
        for _ in range(5):
            perm = list(range(q))
            rng.shuffle(perm)
            rep = detection_report(
                CheckDigitSystem(interpolate(perm, q), c=0, s=3)
            )
            assert rep.detects_single
            assert rep.single_counterexamples == ()


@pytest.mark.parametrize("q", [5, 7])
def test_detection_matches_complete_mapping_theory(q):
    # for s >= 3: transpositions detected iff -f complete, twins iff f complete
    rng = random.Random(700 + q)
    for _ in range(10):
        perm = list(range(q))
        rng.shuffle(perm)
        f = interpolate(perm, q)
        rep = detection_report(CheckDigitSystem(f, c=1, s=3))
        assert rep.detects_single
        assert rep.detects_transposition == is_complete_mapping(-f)
        assert rep.detects_twin == is_complete_mapping(f)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_detection_report_matches_word_scan(q, s):
    # whole reports, counterexamples included, against the word-by-word scan
    rng = random.Random(100 * q + s)
    systems = [CheckDigitSystem(Poly.x(q), c=0, s=s), CheckDigitSystem(-Poly.x(q), c=1, s=s)]
    for _ in range(2 if q ** (s - 1) > 5000 else 6):
        perm = list(range(q))
        rng.shuffle(perm)
        systems.append(CheckDigitSystem(interpolate(perm, q), c=rng.randrange(q), s=s))
    for system in systems:
        assert detection_report(system) == scan_detection_report(system)


def _word_index(word, q):
    k = 0
    for a in word[:-1]:
        k = k * q + a
    return k


def test_detection_witnesses_found_in_later_blocks(monkeypatch):
    monkeypatch.setattr(permutations, "WORD_BLOCK", 4)
    system = CheckDigitSystem(interpolate([3, 0, 6, 1, 5, 4, 2], 7), c=3, s=4)
    rep = detection_report(system)
    assert rep == scan_detection_report(system)
    assert rep.transposition_counterexamples == (((0, 1, 2, 1), 1),)
    assert rep.twin_counterexamples == (((0, 2, 2, 6), 1, 3),)
    # the first witnesses sit in the third and fifth blocks of four words
    assert _word_index(rep.transposition_counterexamples[0][0], 7) == 9
    assert _word_index(rep.twin_counterexamples[0][0], 7) == 16


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_detection_single_witness_matches_word_scan(monkeypatch, block):
    # iterates of a permutation never collide, so plant a table that does:
    # f^(1) = (0, 0, 1, 2, 3) collides at 0 and 1
    monkeypatch.setattr(permutations, "WORD_BLOCK", block)
    system = CheckDigitSystem(Poly.x(5), c=2, s=3)
    system.tables = (system.tables[0], (0, 0, 1, 2, 3), system.tables[2])
    rep = detection_report(system)
    assert rep == scan_detection_report(system)
    assert not rep.detects_single
    assert rep.single_counterexamples == (((0, 0, 2), 1, 1),)


def test_detection_report_memory_stays_bounded():
    q, s = 31, 5
    assert q ** (s - 1) > 8 * permutations.WORD_BLOCK  # 923,521 words, several blocks
    f = interpolate(random.Random(31).sample(range(q), q), q)
    for g in (f, -f):
        tracemalloc.start()
        try:
            rep = detection_report(CheckDigitSystem(g, c=5, s=s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak
        assert rep.words_checked == q ** (s - 1)
        assert rep.detects_single
        assert rep.detects_transposition == is_complete_mapping(-g)
        assert rep.detects_twin == is_complete_mapping(g)


def test_detection_budget_guard():
    with pytest.raises(ValueError):
        detection_report(CheckDigitSystem(Poly.x(37), c=0, s=3))
    with pytest.raises(ValueError):
        detection_report(CheckDigitSystem(Poly.x(5), c=0, s=7))


# --- ISBN-10 -------------------------------------------------------------------

def test_isbn_monograph_example():
    assert isbn10_weighted_sum("0-521-39231-4") == 176
    assert isbn10_weighted_sum("0-521-39231-4") % 11 == 0
    assert isbn10_weighted_sum("0-521-39231-5") == 186
    assert isbn10_weighted_sum("0-521-39231-5") % 11 != 0


def test_isbn_all_ones():
    assert isbn10_weighted_sum("1111111111") == 55
    assert isbn10_weighted_sum("1111111111") % 11 == 0


def test_isbn_x_check_digit():
    # 9*6 = 54 = 10 mod 11, so the check digit is X
    assert isbn10_weighted_sum("000000006X") % 11 == 0
    assert isbn10_weighted_sum("0 0000 0006 x") % 11 == 0


def test_isbn_malformed_inputs():
    for bad in ("", "12345", "05213923145", "0-521-39231-?", "0X21392314",
                "052139231X4"):
        with pytest.raises(ValueError):
            parse_isbn10(bad)
    # malformed raises; a wrong checksum is a well-formed sum
    assert isbn10_weighted_sum("0521392315") % 11 != 0


def test_isbn_equals_f2x_check_digit_system():
    # Reindex a valid ISBN word by a_i = x_{2^(i-1) mod 11}; the weights i
    # then appear as powers of 2, so the system (q=11, f=2X, c=0, s=10)
    # validates exactly the valid ISBNs.
    digits = parse_isbn10("0-521-39231-4")
    word = tuple(digits[pow(2, i, 11) - 1] for i in range(10))
    system = CheckDigitSystem(Poly((0, 2), 11), c=0, s=10)
    assert word == (0, 5, 1, 3, 3, 4, 1, 2, 2, 9)
    assert validate(system, word)
    # corrupting any single symbol must invalidate (singles always detected)
    for i in range(10):
        corrupted = list(word)
        corrupted[i] = (corrupted[i] + 3) % 11
        assert not validate(system, tuple(corrupted))
