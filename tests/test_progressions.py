import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from math import gcd, prod

from jacobsthal.progressions import (ApIso, EligibleAP, coprime_iso,
                                     make_eligible)
from jacobsthal.errors import NotEligible
from oracles import crt_coprime_c, is_coprime_preserving_on_window

FIRST_SIX = (2, 3, 5, 7, 11, 13)
PRIMES_BELOW_200 = tuple(sympy.primerange(2, 200))


def test_eligible_validation():
    assert str(make_eligible(9, 7)) == "2+7Z"
    assert make_eligible(0, 1) == EligibleAP(0, 1)
    with pytest.raises(NotEligible):
        make_eligible(4, 6)
    with pytest.raises(NotEligible):
        EligibleAP(0, 5)  # a = 0 only allowed for d = 1
    with pytest.raises(ValueError):
        EligibleAP(7, 5)  # unnormalized representative
    with pytest.raises(ValueError):
        EligibleAP(1, 0)
    with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
        make_eligible(1, 0)
    with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
        ApIso(5, 0)


def test_iso_apply():
    iso = ApIso(3, 5)
    assert [iso(n) for n in range(-3, 4)] == [-12, -7, -2, 3, 8, 13, 18]
    iso18 = ApIso(18, 5)
    assert [iso18(n) for n in range(-3, 4)] == [3, 8, 13, 28 - 10, 23, 28, 33]


@pytest.mark.parametrize("a, d, primes, c", [
    (1, 3, (2, 3), 4),
    (2, 3, (2, 3), 2),
    (1, 4, (2, 3), 9),
    (3, 4, (2, 3), 3),
    (1, 7, (2, 3, 5), 120),
    (2, 7, (2, 3, 5, 7), 30),
    (0, 1, (2,), 0),
])
def test_coprime_iso_pinned_constants(a, d, primes, c):
    iso = coprime_iso(make_eligible(a, d), primes)
    assert iso.c == c
    assert iso.c % iso.d == make_eligible(a, d).a


def test_coprime_iso_validation():
    with pytest.raises(ValueError):
        coprime_iso(make_eligible(1, 3), (4, 3))
    with pytest.raises(ValueError):
        coprime_iso(make_eligible(1, 3), (3, 3))
    # as long as first_primes(5), so only the full checks can reject them
    with pytest.raises(ValueError, match="^9 is not prime$"):
        coprime_iso(make_eligible(1, 3), (2, 3, 5, 7, 9))
    with pytest.raises(ValueError, match="^primes must be distinct$"):
        coprime_iso(make_eligible(1, 3), (2, 3, 5, 7, 7))
    # unsorted and in a list, the same sets are refused the same way
    with pytest.raises(ValueError, match="^9 is not prime$"):
        coprime_iso(make_eligible(1, 3), [9, 7, 5, 3, 2])
    with pytest.raises(ValueError, match="^primes must be distinct$"):
        coprime_iso(make_eligible(1, 3), (7, 2, 3, 5, 7))
    with pytest.raises(ValueError, match="^1 is not prime$"):
        coprime_iso(make_eligible(1, 3), (1,))


@pytest.mark.parametrize("a, d, primes", [
    (0, 1, ()),                       # the whole line, no primes
    (0, 1, (2, 3, 5, 7)),             # d = 1 maps n to itself plus 0
    (1, 2, ()),                       # no primes: c is a itself
    (5, 12, (2, 3)),                  # every prime divides d
    (5, 12, (2, 3, 5, 7, 11)),        # a prefix holding divisors of d
    (3, 10, (3, 7, 19)),              # not a prefix
    (9_999, 10_000, (11, 2, 5, 3)),   # unsorted, holding divisors of d
])
def test_coprime_iso_c_matches_the_crt_oracle_on_corners(a, d, primes):
    assert coprime_iso(make_eligible(a, d), primes).c == crt_coprime_c(
        a, d, primes)


@st.composite
def _wide_ap_and_prime_set(draw):
    d = draw(st.integers(1, 10**4))
    a = draw(st.integers(0, d - 1))
    assume(gcd(a, d) == 1)
    pool = sorted(set(PRIMES_BELOW_200).union(sympy.primefactors(d)))
    primes = draw(st.lists(st.sampled_from(pool), unique=True, max_size=20))
    return a, d, primes


@given(_wide_ap_and_prime_set())
def test_coprime_iso_c_matches_the_crt_oracle(a_d_primes):
    a, d, primes = a_d_primes
    iso = coprime_iso(make_eligible(a, d), primes)
    assert iso.c == crt_coprime_c(a, d, primes)
    assert (iso.d, iso.c % iso.d) == (d, a)


def test_window_check_catches_bad_maps():
    # 1 + 3n sends 1 (coprime to 6) to 4 (even): not coprimality-preserving
    bad = ApIso(1, 3)
    assert not is_coprime_preserving_on_window(bad, (2, 3), 2)
    good = coprime_iso(make_eligible(1, 3), (2, 3))
    assert is_coprime_preserving_on_window(good, (2, 3), 10_000)
    with pytest.raises(ValueError):
        is_coprime_preserving_on_window(good, (2, 3), -1)


def test_window_check_trivial_prime_set():
    assert is_coprime_preserving_on_window(ApIso(5, 3), (), 50)


@st.composite
def _ap_and_primes(draw):
    d = draw(st.integers(1, 50))
    residues = [a for a in range(d) if gcd(a, d) == 1 and (a or d == 1)]
    a = draw(st.sampled_from(residues))
    primes = tuple(sorted(draw(st.sets(st.sampled_from(FIRST_SIX),
                                       max_size=6))))
    return make_eligible(a, d), primes


@given(_ap_and_primes())
def test_constructed_isos_preserve_coprimality(ap_primes):
    ap, primes = ap_primes
    iso = coprime_iso(ap, primes)
    window = 10 * ap.d * prod(primes)
    assert is_coprime_preserving_on_window(iso, primes, window)
    # prime by prime, for n over one period of prod(primes), whose images
    # span one period d * prod(primes) of the line: for q not dividing d,
    # q | n exactly when q | c + d*n; a q dividing d divides no image, even
    # of an n it divides (the oracle above checks coprime inputs only)
    pairs = [(n, iso(n)) for n in range(prod(primes))]
    for q in primes:
        if ap.d % q:
            assert all((n % q == 0) == (m % q == 0) for n, m in pairs)
        else:
            assert all(m % q for _, m in pairs)


@given(_ap_and_primes(), st.integers(-10**6, 10**6), st.integers(0, 200))
def test_iso_is_increasing_bijection(ap_primes, start, length):
    ap, primes = ap_primes
    iso = coprime_iso(ap, primes)
    values = [iso(n) for n in range(start, start + min(length, 50))]
    assert all(b - a == ap.d for a, b in zip(values, values[1:]))
    assert all(v % ap.d == ap.a for v in values)
