import functools
import subprocess
import tracemalloc

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from math import gcd, prod

from jacobsthal import arith
from jacobsthal.arith import factorize, primorial
from jacobsthal.cover import SearchBudget, verify_cover
from jacobsthal.errors import BudgetExceeded, JacobsthalError
from jacobsthal.gaps import g_of
from conftest import run_python
from oracles import first_longest_run, g_exhaustive


def _witness_ok(res):
    """The run must be non-coprime throughout and maximal at both ends."""
    n = res.n
    run = range(res.witness_start, res.witness_start + res.witness_length)
    assert all(gcd(x, n) > 1 for x in run)
    assert gcd(res.witness_start - 1, n) == 1
    assert gcd(res.witness_start + res.witness_length, n) == 1


def test_oracle_agrees_exhaustively_for_small_n():
    for n in range(1, 2001):
        assert g_of(n).g == g_exhaustive(n), n


@pytest.mark.parametrize("n, expected", [
    (1, 1), (2, 2), (3, 2), (6, 4), (10, 4), (30, 6), (210, 10),
])
def test_small_pinned_values(n, expected):
    res = g_of(n)
    assert res.g == expected
    if res.g > 1:
        _witness_ok(res)


def test_g_of_ten_witness_is_least():
    res = g_of(10)
    assert (res.g, res.witness_start, res.witness_length) == (4, 4, 3)


def test_witness_is_the_first_longest_run():
    for n in [*range(1, 2001), *(primorial(k) for k in range(1, 8))]:
        res = g_of(n)
        run = (res.witness_start, res.witness_length)
        assert run == first_longest_run(n), n
    res = g_of(primorial(8))
    assert (res.g, res.witness_start, res.witness_length) == (34, 60044, 33)


@functools.cache
def _first_longest_runs():
    return {n: first_longest_run(n)
            for n in [*range(1, 2001), *(primorial(k) for k in range(1, 8))]}


@pytest.mark.parametrize("window", [26, 27, 40])
def test_small_windows_find_the_same_first_longest_run(monkeypatch, window):
    # the longest run for these n is 25 long (P_7), so a 26-byte window
    # is the smallest that holds it and the coprime position before it
    monkeypatch.setattr(arith, "_RUN_WINDOW", window)
    for n, run in _first_longest_runs().items():
        res = g_of(n)
        assert (res.witness_start, res.witness_length) == run, n


def test_a_window_shorter_than_a_run_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(arith, "_RUN_WINDOW", 25)
    with pytest.raises(JacobsthalError, match="^internal: "):
        g_of(primorial(7))


def test_the_scan_holds_a_window_not_the_period():
    # a gate that does not depend on the machine: the flags of the whole
    # period of P_8 took 19.4 MB
    g_of(primorial(8))  # first use sieves the trial-division primes
    tracemalloc.start()
    try:
        res = g_of(primorial(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.g, res.witness_start) == (34, 60044)
    assert peak < 1_000_000


def test_g_depends_only_on_radical():
    for n in (4, 8, 9, 12, 360, 2**20, 9_699_690 * 4):
        assert g_of(n).g == g_of(factorize(n).radical()).g


@given(st.integers(2, 50_000))
def test_witness_always_checks_out(n):
    res = g_of(n)
    assert res.g == res.witness_length + 1
    if res.g > 1:
        _witness_ok(res)


def test_divisor_monotone_on_squarefree():
    # more prime factors can only lengthen the worst run
    squarefree = [n for n in range(2, 1000) if factorize(n).radical() == n]
    for n in squarefree[:150]:
        for p in sympy.primefactors(n):
            assert g_of(n // p).g <= g_of(n).g


def test_primorial_values_match_engine_path():
    # radical beyond the scan limit forces the exact-cover route
    res = g_of(primorial(9))
    assert res.g == 40
    assert res.witness_length == 39
    primes = tuple(sympy.primerange(2, 24))
    assert verify_cover(res.witness_start, res.witness_length, primes)


def test_engine_path_respects_budget():
    with pytest.raises(BudgetExceeded):
        g_of(primorial(9), budget=SearchBudget(max_nodes=3))


def test_huge_prime_factor_takes_the_engine_quickly():
    # rad(n) is past the scan limit, so the cover engine runs with a
    # 13-digit prime; in a child process so a regression fails, not hangs
    script = ("from jacobsthal.gaps import g_of\n"
              "print(g_of(1000000000039).g, g_of(2 * 1000000000039).g)\n")
    try:
        proc = run_python("-c", script, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("g_of(1000000000039) ran past 20 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "4"]


def test_too_many_primes_is_refused():
    n = prod(sympy.prime(i) for i in range(1, 27))
    with pytest.raises(BudgetExceeded):
        g_of(n)


def test_input_validation():
    with pytest.raises(ValueError):
        g_of(0)
    with pytest.raises(ValueError):
        g_exhaustive(-5)
    with pytest.raises(ValueError):
        g_exhaustive(30, horizon=10)
    with pytest.raises(BudgetExceeded):
        g_exhaustive(primorial(10))  # horizon would be ~4.5e9
