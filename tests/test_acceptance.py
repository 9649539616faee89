"""End-to-end acceptance checks.

Each test exercises one headline capability at full stated scale, enforces
its runtime limit, and reports one ``ACCEPTANCE NN PASS``/``FAIL`` line
(replayed in the terminal summary).  Run just this gate with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
from math import gcd

import mpmath
import sympy

from jacobsthal.arith import first_primes, nth_prime, primorial
from jacobsthal.bounds import bound_table, cw_upper, max_provable_d
from jacobsthal.certify import (MODE_CW, certificate_from_json, find_prime,
                                verify_certificate)
from jacobsthal.cover import (CoverWitness, elementary_lower_witness,
                              least_witness, max_cover_length, verify_cover,
                              witness_integer)
from jacobsthal.cover import h_of
from jacobsthal.gaps import g_of
from jacobsthal.progressions import coprime_iso, make_eligible
from conftest import run_python
from oracles import is_coprime_preserving_on_window

REMARK_ROWS = [
    (5, 13, 14, "11.133"),
    (10, 31, 46, "20.404"),
    (15, 53, 100, "27.792"),
    (20, 73, 174, "30.440"),
    (25, 101, 258, "39.378"),
    (30, 127, 330, "48.722"),
    (35, 151, 432, "52.654"),
    (40, 179, 538, "59.442"),
    (45, 199, 642, "61.585"),
    (50, 233, 762, "71.149"),
]


def test_criterion_01_headline_values(acceptance, shipped_table):
    with acceptance.criterion(1, seconds=1.0):
        result = g_of(10)
        assert result.g == 4
        assert (result.witness_start, result.witness_length) == (4, 3)
        assert h_of(5, shipped_table) == (14, "paper")
        primes = first_primes(5)
        witness = least_witness(primes)
        assert witness == CoverWitness(114, 13)
        assert verify_cover(114, 13, primes)
        modulus = primorial(5)
        assert gcd(113, modulus) == 1 and gcd(127, modulus) == 1


def test_criterion_02_bound_table(acceptance, shipped_table):
    with acceptance.criterion(2, seconds=1.0):
        rows = bound_table(range(5, 51, 5), shipped_table)
        got = [(r.k, r.next_prime, r.h_value, r.text) for r in rows]
        assert got == REMARK_ROWS


def test_criterion_03_max_modulus(acceptance, shipped_table):
    with acceptance.criterion(3, seconds=1.0):
        assert max_provable_d(shipped_table) == (76, 54)


def test_criterion_04_engine_agrees_with_sieve(acceptance):
    with acceptance.criterion(4, seconds=300.0):
        for k in range(1, 9):
            primes = first_primes(k)
            length, assignment = max_cover_length(primes)
            sieved = g_of(primorial(k))
            assert length + 1 == sieved.g, k
            witness = witness_integer(assignment)
            assert witness.length == length
            assert verify_cover(witness.start, witness.length, primes)


def test_criterion_05_engine_reaches_twenty(acceptance, shipped_table):
    with acceptance.criterion(5, seconds=600.0):
        computed = {}
        for k in range(1, 21):
            primes = first_primes(k)
            length, assignment = max_cover_length(primes)
            witness = witness_integer(assignment)
            assert verify_cover(witness.start, witness.length, primes)
            computed[k] = length + 1
        for k in range(1, 21):
            entry = shipped_table.get(k)
            assert computed[k] == entry.h, k
        values = [computed[k] for k in range(1, 21)]
        assert values == sorted(values)


def test_criterion_06_certified_prime_for_every_small_modulus(
        acceptance, shipped_table):
    with acceptance.criterion(6, seconds=120.0):
        window_top = nth_prime(55) ** 2  # 66049
        prime_set = set(sympy.primerange(2, window_top))
        pairs = 0
        for d in range(1, 77):
            for a in range(d):
                if gcd(a, d) != 1:
                    continue
                ap = make_eligible(a, d)
                cert = find_prime(ap, shipped_table)
                assert cert.prime % d == a % d
                assert 2 <= cert.prime < window_top
                assert cert.prime in prime_set
                assert verify_certificate(cert, shipped_table).ok
                assert sympy.isprime(cert.prime)
                pairs += 1
        assert pairs > 1700


def test_criterion_07_elementary_witnesses(acceptance):
    with acceptance.criterion(7, seconds=10.0):
        for n in range(3, 31):
            witness = elementary_lower_witness(n)
            assert witness.length == 2 * nth_prime(n - 1) - 1
            assert verify_cover(witness.start, witness.length,
                                first_primes(n))
        five = elementary_lower_witness(5)
        assert (five.start, five.length) == (114, 13)


def test_criterion_08_randomized_isomorphisms(acceptance):
    with acceptance.criterion(8, seconds=30.0):
        rng = random.Random(20260818)
        pool = first_primes(6)
        for _ in range(500):
            d = rng.randint(1, 50)
            residues = [a for a in range(d) if gcd(a, d) == 1]
            ap = make_eligible(rng.choice(residues), d)
            subset = tuple(p for p in pool if rng.random() < 0.5)
            iso = coprime_iso(ap, subset)
            modulus = 1
            for p in subset:
                modulus *= p
            window = 10 * d * modulus
            assert is_coprime_preserving_on_window(iso, subset, window)
            n0 = rng.randint(-50, 50)
            assert iso(n0) < iso(n0 + 1)
            length = rng.randint(0, 12)
            seg = range(iso(n0), iso(n0 + length), d)
            assert list(seg) == [iso(n) for n in range(n0, n0 + length)]


def test_criterion_09_prime_streams(acceptance, shipped_table):
    with acceptance.criterion(9, seconds=5.0):
        human = run_python("-m", "jacobsthal", "primes", "1", "3",
                           "--count", "2")
        assert human.returncode == 0
        assert human.stdout == "7\n97\n"
        machine = run_python("-m", "jacobsthal", "primes", "0", "1",
                             "--count", "3", "--json")
        assert machine.returncode == 0
        payload = json.loads(machine.stdout)
        primes = [int(item["prime"]) for item in payload]
        assert len(set(primes)) == 3
        for item in payload:
            cert = certificate_from_json(json.dumps(item))
            assert verify_certificate(cert, shipped_table).ok
            assert sympy.isprime(cert.prime)


def test_criterion_10_conditional_bound(acceptance, shipped_table):
    with acceptance.criterion(10, seconds=10.0):
        assert cw_upper(50) >= 762
        best, best_k = max_provable_d(shipped_table, mode=MODE_CW)
        assert (best, best_k) == (42, 8119)

        # independent evaluation: mpmath arithmetic over a sympy prime list
        next_primes = list(sympy.primerange(nth_prime(51), 104744))
        assert len(next_primes) == 9951  # p_51 .. p_10001
        indep_best, indep_k = 0, None
        with mpmath.workdps(30):
            coefficient = mpmath.mpf("0.27749612254")
            for i, p in enumerate(next_primes):
                k = 50 + i
                h_bound = int(mpmath.ceil(coefficient * k * k * mpmath.log(k)))
                d = (p * p - 2) // (h_bound + 1)
                if d > indep_best:
                    indep_best, indep_k = d, k
        assert (indep_best, indep_k) == (best, best_k)
