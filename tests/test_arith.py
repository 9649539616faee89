import random
import sys
import threading
import time

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from jacobsthal import arith
from jacobsthal.arith import (crt_solve, factorize, first_primes, is_prime,
                              nth_prime, primes_upto, primorial,
                              validated_primes, _MR_LIMIT)
from jacobsthal.errors import BudgetExceeded, JacobsthalError, NonCoprimeModuli
from conftest import run_python
from oracles import is_decimal_integer, prime_flags, shared_factor_flags

from math import gcd, prod


def test_crt_empty_and_single():
    assert crt_solve([]) == (0, 1)
    assert crt_solve([(5, 7)]) == (5, 7)
    assert crt_solve([(12, 7)]) == (5, 7)
    assert crt_solve([(5, 7), (0, 1)]) == (5, 7)


@given(st.lists(st.sampled_from([(2,), (3,), (5,), (7,), (11,)]),
                min_size=1, max_size=4, unique=True),
       st.integers(0, 10**6))
def test_crt_matches_bruteforce(mods, seed):
    moduli = [m[0] for m in mods]
    residues = [(seed // (i + 1)) % m for i, m in enumerate(moduli)]
    t, modulus = crt_solve(list(zip(residues, moduli)))
    assert modulus == prod(moduli)
    assert 0 <= t < modulus
    for r, m in zip(residues, moduli):
        assert t % m == r
    # brute force: t is the unique solution in range
    hits = [x for x in range(modulus)
            if all(x % m == r for r, m in zip(residues, moduli))]
    assert hits == [t]


def test_crt_rejects_non_coprime_moduli():
    with pytest.raises(NonCoprimeModuli):
        crt_solve([(1, 6), (2, 4)])
    # compatible congruences are still refused: moduli must be coprime
    with pytest.raises(NonCoprimeModuli):
        crt_solve([(0, 4), (0, 6)])


@pytest.mark.parametrize("call, message", [
    (lambda: crt_solve([(0, 0)]), "modulus must be positive, got 0"),
    (lambda: factorize(0), "can only factor positive integers, got 0"),
], ids=["crt-zero-modulus", "factorize-zero"])
def test_zero_is_refused_by_name(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_primes_upto_against_sympy():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(100) == list(sympy.primerange(2, 101))
    assert len(primes_upto(10**6)) == 78498


@pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 1000, 10001])
def test_nth_prime_against_sympy(k):
    assert nth_prime(k) == sympy.prime(k)


def test_nth_prime_specials():
    assert nth_prime(55) == 257
    assert nth_prime(10001) == 104743
    with pytest.raises(ValueError):
        nth_prime(0)


def test_a_fresh_process_sieves_only_what_it_reads():
    # loading the table reads primes up to p_53 = 241, factorize(2**61 - 1)
    # the primes up to 100000, and factorize(9699690) those up to
    # isqrt(9699690) = 3114, where its trial division stops: one sieve
    # each, with no larger floor behind them
    def sieves(*calls):
        script = ("from jacobsthal import arith, default_h_table\n"
                  "sieves = []\n"
                  "real = arith._sieve\n"
                  "arith._sieve = lambda n: sieves.append(n) or real(n)\n"
                  + "".join(f"{call}\nprint(*sieves)\n" for call in calls))
        proc = run_python("-c", script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    assert sieves("default_h_table()", "arith.factorize(2 ** 61 - 1)") == [
        "1024", "1024 100000"]
    assert sieves("arith.factorize(9699690)") == ["3114"]


def test_a_growing_sieve_sieves_each_number_once(monkeypatch):
    # each growth sieves only (old bound, new bound], so stepwise growth
    # ends with the primes a sieve from 0 finds; a store short of the new
    # bound's root (10 < isqrt(1000)) takes the rest of them from the segment
    expected = tuple(sympy.primerange(2, 200_001))
    for start in (1, 2, 10, 30, 1000):
        monkeypatch.setattr(arith, "_primes",
                            tuple(p for p in expected if p <= start))
        monkeypatch.setattr(arith, "_sieved_to", start)
        assert arith._sieve(1000) == expected[:168]
    monkeypatch.setattr(arith, "_primes", ())
    monkeypatch.setattr(arith, "_sieved_to", 1)
    real, segments = arith._sieve, []

    def sieve(bound):
        segments.append((arith._sieved_to, bound))
        return real(bound)

    monkeypatch.setattr(arith, "_sieve", sieve)
    for bound in (5, 1000, 1500, 3000, 200_000):
        arith._ensure_sieved(bound)
    assert segments == [(1, 1024), (1024, 2048), (2048, 4096),
                        (4096, 200_000)]
    assert arith._primes == expected
    grown = arith._primes
    monkeypatch.setattr(arith, "_primes", ())
    monkeypatch.setattr(arith, "_sieved_to", 1)
    assert real(200_000) == grown


def test_the_cw_find_sieves_no_number_twice(monkeypatch):
    # the cw walk asks for p_{k+1} one k at a time up to k = 8119, which
    # grows the sieve by doubling from 1024 to 131072: eight sieves, which
    # between them read each number once (a sieve hands compress the range
    # of numbers it flagged)
    from jacobsthal.certify import MODE_CW, find_prime
    from jacobsthal.cover import KnownHTable
    from jacobsthal.progressions import make_eligible
    monkeypatch.setattr(arith, "_primes", ())
    monkeypatch.setattr(arith, "_sieved_to", 1)
    real, flagged = arith.compress, []

    def compress(numbers, flags):
        flagged.append(len(numbers))
        return real(numbers, flags)

    monkeypatch.setattr(arith, "compress", compress)
    find_prime(make_eligible(1, 42), KnownHTable(), mode=MODE_CW)
    assert len(flagged) == 8
    assert sum(flagged) <= arith._sieved_to == 131072


def test_first_primes_and_primorial():
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(0) == ()
    # a tuple equal to the sieved prefix is validated as it is
    ps = first_primes(54)
    assert validated_primes(ps) is ps
    assert validated_primes(list(reversed(ps))) == ps
    assert primorial(0) == 1
    assert primorial(5) == 2310
    assert primorial(8) == 9699690


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130])
def test_primorial_on_both_sides_of_the_kept_products(k):
    # k <= 64 reads the kept prefix products, a larger k multiplies out
    assert primorial(k) == prod(first_primes(k))


def test_primorial_refuses_a_negative_count():
    # the kept tuple indexed by -1 would quietly answer P_64
    with pytest.raises(ValueError):
        primorial(-1)


def test_the_prime_store_under_threads(monkeypatch):
    # four readers ask for prime prefixes from a fresh store while a fifth
    # thread sieves past 10**6, which swaps in a larger tuple mid-read
    monkeypatch.setattr(arith, "_primes", ())
    monkeypatch.setattr(arith, "_sieved_to", 1)
    expected = tuple(sympy.primerange(2, 1_000_100))
    start = threading.Barrier(5)
    errors = []

    def read(seed):
        rng = random.Random(seed)
        ks = [rng.randrange(1, 3000) if i % 10 else
              rng.randrange(1, len(expected) + 1) for i in range(200)]
        start.wait()
        try:
            for k in ks:
                ps = first_primes(k)
                if type(ps) is not tuple or ps != expected[:k]:
                    errors.append(("first_primes", k))
                if nth_prime(k) != expected[k - 1]:
                    errors.append(("nth_prime", k))
                if validated_primes(ps) != ps:
                    errors.append(("validated_primes", k))
        except Exception as exc:  # a reader that raises fails the test too
            errors.append(("raised", repr(exc)))

    def sieve():
        start.wait()
        table = primes_upto(1_000_100)
        if type(table) is not list or table != list(expected):
            errors.append(("primes_upto", 1_000_100))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so reads meet the swap
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=sieve))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert arith._sieved_to >= 1_000_100
    assert type(primes_upto(100)) is list


@given(st.integers(2, 10**6))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_a_sieve_below_100000():
    # below 43**2 = 1849 trial division by the witnesses decides alone;
    # 41**2, 41*43, 43**2, 31*61 and 43*47 sit around that edge
    flags = prime_flags(10**5)
    assert [n for n in range(10**5) if is_prime(n) != flags[n]] == []
    assert not any(flags[n] for n in (1681, 1763, 1849, 1891, 2021))


def test_is_prime_corners():
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    # deterministic witness range covers the certificate scale we emit
    assert is_prime(66047) == sympy.isprime(66047)
    assert is_prime(104743)
    with pytest.raises(BudgetExceeded):
        is_prime(_MR_LIMIT + 12)


def test_is_prime_trial_step_is_one_gcd_with_the_witnesses():
    # n shares a factor with the witnesses' product W exactly when a
    # witness divides n, and then n is prime only if it is that witness
    w = prod(arith._MR_WITNESSES)
    assert arith._WITNESS_PRODUCT == w
    cases = list(arith._MR_WITNESSES) + [6, 30, 37 * 41, w]
    cases += [2 * 43, 41 * 47, 3 * 1_000_003, 37 * 104743, 1849, 0, 1]
    cases += [-1, -2, -41, -1849, -w]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    # 60000 digits: an even n is refused by the gcd alone, one coprime to W
    # reaches the range check, as the trial loop did
    base = 10**59999
    assert not is_prime(2 * base)
    odd = next(base + t for t in range(1, 100) if gcd(base + t, w) == 1)
    assert base < odd < 10 * base
    with pytest.raises(BudgetExceeded):
        is_prime(odd)


def test_is_prime_strong_pseudoprime_traps():
    # Carmichael and strong-pseudoprime classics
    for n in (561, 1105, 1729, 25326001, 3215031751, 3474749660383):
        assert is_prime(n) == sympy.isprime(n)


@given(st.integers(1, 10**9))
def test_factorize_reconstructs_and_is_prime(n):
    fact = factorize(n)
    assert fact.base == n
    assert fact.product() == n
    for p, e in fact.factors:
        assert e >= 1
        assert sympy.isprime(p)
    assert fact.radical() == prod(p for p, _ in fact.factors)


def test_factorize_semiprime_beyond_trial_division():
    p, q = 1_000_003, 1_000_033
    fact = factorize(p * q)
    assert fact.factors == ((p, 1), (q, 1))


def test_factorize_splits_a_composite_past_the_primality_range():
    # 10000019 * (10**18 + 3) is past the test's range, a Miller-Rabin round
    # proves it composite, and rho splits it into primes the test decides
    p, q = 10000019, 10**18 + 3
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_refuses_a_cofactor_that_passes_every_round(monkeypatch):
    # 2**89 - 1 is prime and past the test's range: factorize raises at
    # once, naming the number asked about, and never starts rho
    def no_rho(*args):
        raise AssertionError("rho ran")

    monkeypatch.setattr(arith, "_rho_brent", no_rho)
    for n, message in [
            (3 * (2**89 - 1), "cannot factor 1856910058928070412348686333: "
             "a 27-digit cofactor"),
            (2**521 - 1, "cannot factor 6864797660130609714981900799081393"
             "217269... (157 digits): a 157-digit cofactor")]:
        with pytest.raises(BudgetExceeded) as err:
            factorize(n)
        assert str(err.value) == (
            f"{message} is past the deterministic primality range")


def test_factorize_names_the_number_a_failed_split_came_from(monkeypatch):
    monkeypatch.setattr(arith, "_rho_brent", lambda n, steps: None)
    with pytest.raises(BudgetExceeded) as err:
        factorize(7 * 10000019 * (10**18 + 3))
    assert str(err.value) == (
        "cannot factor 70000133000000000210000399: a 26-digit cofactor did "
        "not split within budget")


def test_factorize_strips_a_prime_power_in_few_divisions():
    # dividing 2**200000 by 2 once per power took about 10 s
    start = time.perf_counter()
    assert factorize(2**200000).factors == ((2, 200000),)
    assert time.perf_counter() - start < 2
    for e in range(1, 70):
        assert factorize(3**e * 7**(70 - e)).factors == ((3, e), (7, 70 - e))


def test_rho_brent_corners():
    # 35: the batched gcd reaches n, and the step-by-step walk finds 5;
    # a wide semiprime outlasts a budget of 10 steps; a prime never splits
    assert arith._rho_brent(35, 10**6) == 5
    assert arith._rho_brent(1000003 * 1000033, 10) is None
    assert arith._rho_brent(101, 10**6) is None


def test_primes_upto_refuses_past_the_sieve_cap():
    with pytest.raises(BudgetExceeded) as err:
        primes_upto(80_000_001)
    assert str(err.value) == "refusing to sieve beyond 80000000"


def test_factorization_helpers():
    fact = factorize(360)
    assert fact.factors == ((2, 3), (3, 2), (5, 1))
    assert fact.primes() == (2, 3, 5)
    assert fact.radical() == 30


@given(st.integers(1, 10**6))
def test_radical_matches_sympy(n):
    expected = prod(sympy.primefactors(n)) if n > 1 else 1
    assert factorize(n).radical() == expected


@pytest.mark.parametrize("window", [26, 27, 40, 1 << 16])
def test_shared_factor_windows_tile_the_whole_period_flags(monkeypatch,
                                                          window):
    # joined, the windows are the whole-range flags; each window but the
    # last ends on a coprime position, so no run crosses into the next
    monkeypatch.setattr(arith, "_RUN_WINDOW", window)
    cases = [((2,), 0), ((2,), 1), ((2, 3), 7), ((7,), 100),
             ((2, 3, 5), 1000), ((1999,), 5000),
             (first_primes(7), primorial(7) + 25)]
    for primes, limit in cases:
        windows = list(arith.shared_factor_windows(primes, limit))
        offsets = [0]
        for _, flags in windows[:-1]:
            offsets.append(offsets[-1] + len(flags))
        assert [offset for offset, _ in windows] == offsets
        joined = b"".join(flags for _, flags in windows)
        assert joined == shared_factor_flags(primes, limit), (primes, limit)
        assert all(0 < len(flags) <= window for _, flags in windows)
        assert all(flags[-1] == 0 for _, flags in windows[:-1])


def test_a_run_longer_than_a_window_is_an_internal_error(monkeypatch):
    # the first 7 primes cover 25 integers in a row (217128..217152), so a
    # 25-byte window that starts on that run holds no coprime position
    monkeypatch.setattr(arith, "_RUN_WINDOW", 25)
    with pytest.raises(JacobsthalError, match="^internal: no integer in "
                       "217128..217152 is coprime"):
        list(arith.shared_factor_windows(first_primes(7), primorial(7)))


@given(st.one_of(st.text(), st.text("-+_ 0123456789\u0663\uff10"),
                 st.from_regex(r"-?[0-9]+", fullmatch=True)))
def test_is_decimal_is_a_minus_then_ascii_digits(text):
    # the one integer rule for outside text agrees with the regex -?[0-9]+
    assert arith.is_decimal(text) == is_decimal_integer(text)


def test_quoted_excerpt_cuts_long_text():
    assert arith.quoted_excerpt("x" * 40) == repr("x" * 40)
    assert arith.quoted_excerpt("\u0663" * 41) == (
        repr("\u0663" * 40) + "... (41 characters)")
