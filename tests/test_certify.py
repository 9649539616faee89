import hashlib
import json
import random
import sys
import threading
import time
from decimal import Decimal, ROUND_HALF_UP, localcontext
from fractions import Fraction
from math import floor, gcd, prod

import mpmath
import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from jacobsthal.arith import first_primes, nth_prime, primorial
from jacobsthal.bounds import (BoundRow, bound, bound_table, cw_upper,
                               max_provable_d, min_k_for)
from jacobsthal.certify import (CHECK_NAMES, MODE_CW, MODE_UNCONDITIONAL,
                                MODES, CertificateCheck, PrimeCertificate,
                                certificate_from_json, certificate_to_json,
                                find_prime, prime_stream, int_to_decimal,
                                verify_certificate)
from jacobsthal import arith, bounds, certify, cover, progressions
from jacobsthal.cover import KnownHTable, default_h_table
from jacobsthal.errors import (JacobsthalError, NotProvable, OutOfRange)
from jacobsthal.progressions import coprime_iso, make_eligible
from oracles import (certificate_json, is_decimal_integer, least_k_walk,
                     max_d_walk, preimage_scan, refined_two_branch)

REMARK_TABLE = [
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


def _exact(row) -> Fraction:
    """The row's exact rational ``(p_{k+1}**2 - 2) / (h + 1)``."""
    return Fraction(row.next_prime ** 2 - 2, row.h_value + 1)


def _oracle_thousandths(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        return str(dec.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _row(next_prime, h_value):
    return BoundRow(1, next_prime, h_value, "computed",
                    (next_prime ** 2 - 2) // (h_value + 1))


@given(st.integers(min_value=2, max_value=10**6),
       st.integers(min_value=0, max_value=10**9))
def test_bound_row_text_matches_decimal_oracle(next_prime, h_value):
    row = _row(next_prime, h_value)
    assert row.text == _oracle_thousandths(_exact(row))


def test_bound_row_text_on_every_shipped_and_cw_row(shipped_table):
    rows = bound_table(shipped_table.ks(), shipped_table) + bound_table(
        range(bounds.CW_MIN_K, bounds.CW_MAX_K + 1), shipped_table,
        mode=MODE_CW)
    assert len(rows) == 9978
    assert [row.text for row in rows] == [
        _oracle_thousandths(_exact(row)) for row in rows]


def test_bound_row_text_rounds_halves_up():
    assert _row(3, 11199).text == "0.001"  # 7/11200 = 0.000625
    assert _row(3, 13999).text == "0.001"  # 7/14000, an exact half
    assert _row(3, 1).text == "3.500"
    assert _row(5, 22).text == "1.000"  # 23/23


def test_bound_rows_reproduce_remark_table(shipped_table):
    rows = bound_table(range(5, 51, 5), shipped_table)
    got = [(r.k, r.next_prime, r.h_value, r.text) for r in rows]
    assert got == REMARK_TABLE
    assert all(r.h_source == "paper" for r in rows)


def test_bound_row_for_largest_tabulated_k(shipped_table):
    row = bound(54, shipped_table)
    assert (row.next_prime, row.h_value) == (257, 858)
    assert _exact(row) == Fraction(66047, 859)
    assert row.text == "76.888"
    assert _exact(row) > 76


def test_bound_small_k_and_validation(shipped_table):
    row = bound(1, shipped_table)
    assert _exact(row) == Fraction(7, 3)
    assert row.text == "2.333"
    assert row.h_source == "computed"
    with pytest.raises(ValueError):
        bound(0, shipped_table)
    with pytest.raises(ValueError):
        bound(5, shipped_table, mode="hopeful")


def test_cw_upper_pinned_and_range():
    assert cw_upper(50) == 2714
    assert cw_upper(50) >= 762  # the conditional bound dominates the exact h
    assert cw_upper(10000) == 255583375
    for bad in (49, 10001, 1):
        with pytest.raises(OutOfRange):
            cw_upper(bad)


# Every n of the conditional range, in spans that start at these points.
_CW_SPAN_STARTS = [50, 100, 777, 5000, 10000, 10001]


@pytest.mark.parametrize("n", _CW_SPAN_STARTS[:-1])
def test_cw_upper_against_mpmath(n):
    # cw_upper takes the formula in double precision, so its ceiling is
    # exact only while each real value keeps its distance from an integer
    stop = _CW_SPAN_STARTS[_CW_SPAN_STARTS.index(n) + 1]
    with mpmath.workdps(40):
        coefficient = mpmath.mpf("0.27749612254")
        for k in range(n, stop):
            value = coefficient * k * k * mpmath.log(k)
            assert cw_upper(k) == int(mpmath.ceil(value)), k
            assert value - mpmath.floor(value) >= 1e-5, k
            assert mpmath.ceil(value) - value >= 1e-5, k


def test_cw_mode_bound(shipped_table):
    row = bound(50, shipped_table, mode=MODE_CW)
    assert row.h_value == 2714
    assert row.h_source == "cw"
    assert int(_exact(row)) == 19


@pytest.mark.parametrize("d, k", [
    (1, 1), (2, 1), (3, 2), (4, 2), (7, 4), (11, 5), (12, 6), (13, 7),
    (30, 16), (31, 16), (33, 18), (76, 54),
])
def test_min_k_for_pinned(shipped_table, d, k):
    assert min_k_for(d, shipped_table) == k


def test_min_k_is_minimal(shipped_table):
    for d in (5, 17, 40, 62, 76):
        k = min_k_for(d, shipped_table)
        assert _exact(bound(k, shipped_table)) >= d
        smaller = [j for j in range(1, k)
                   if shipped_table.get(j) is not None
                   or j <= cover.DEFAULT_MAX_COMPUTE_K]
        assert all(_exact(bound(j, shipped_table)) < d for j in smaller)


def test_min_k_not_provable(shipped_table):
    with pytest.raises(NotProvable) as err:
        min_k_for(77, shipped_table)
    assert err.value.max_provable_d == 76


def test_min_k_cw(shipped_table):
    assert min_k_for(19, shipped_table, mode=MODE_CW) == 50
    with pytest.raises(NotProvable) as err:
        min_k_for(43, shipped_table, mode=MODE_CW)
    assert err.value.max_provable_d == 42


def test_min_k_for_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        min_k_for(5, KnownHTable(), mode="bogus")


def test_min_k_for_refuses_a_modulus_below_one():
    with pytest.raises(ValueError) as err:
        min_k_for(0, KnownHTable())
    assert str(err.value) == "modulus must be >= 1, got 0"


def _copy_rows(table, keep=lambda k: True):
    copy = KnownHTable()
    for k in table.ks():
        if keep(k):
            entry = table.get(k)
            copy.set(k, entry.h, entry.source)
    return copy


def _reference_walk(table, mode, cap):
    """The k that min_k_for walks, with their h, for the reference walk."""
    if mode == MODE_CW:
        return range(bounds.CW_MIN_K, bounds.CW_MAX_K + 1), cw_upper
    ks = sorted(set(table.ks()) | set(range(1, cap + 1)))
    return ks, lambda k: cover.h_of(k, table, max_compute_k=cap)[0]


def _outcome(d, table, mode):
    """min_k_for as ``("k", k)``, or ``("max", best)`` from its NotProvable
    after checking the message."""
    try:
        return "k", min_k_for(d, table, mode=mode)
    except NotProvable as exc:
        best = exc.max_provable_d
        assert str(exc) == (f"no available bound reaches d = {d} "
                            f"(largest provable: {best})")
        return "max", best


# cw rows checked against bound: the range's ends, the k where the formula
# comes closest to an integer, and the k that certifies d = 42
CW_CHECKED_KS = (50, 7361, 8119, 10000)


def _checked_walk(table, mode):
    """The walk's rows, each checked as the row bound builds for its k, with
    the floor of its exact value as its reach: every unconditional row, and
    the cw rows at CW_CHECKED_KS."""
    rows = list(bounds._bounds(table, mode))
    for row in rows:
        if mode == MODE_UNCONDITIONAL or row.k in CW_CHECKED_KS:
            assert row == bound(row.k, table, mode=mode), row
            assert row.reach == floor(_exact(row)), row
    return rows


TABLE_VARIANTS = {
    "shipped": lambda t: _copy_rows(t),
    "k<=50": lambda t: _copy_rows(t, lambda k: k <= 50),
    "no 50, 54": lambda t: _copy_rows(t, lambda k: k not in (50, 54)),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", sorted(TABLE_VARIANTS))
def test_min_k_for_matches_the_reference_walk(shipped_table, variant, mode,
                                              monkeypatch):
    # one table, every d in 1..80 in shuffled order: each answer is the
    # reference walk's, and each d looks up the k that walk passes, in order
    table = TABLE_VARIANTS[variant](shipped_table)
    ks, h_at = _reference_walk(table, mode, cover.DEFAULT_MAX_COMPUTE_K)
    looked_up = []
    real = bounds._h_at
    monkeypatch.setattr(bounds, "_h_at",
                        lambda k, *rest: looked_up.append(k) or real(k, *rest))
    ds = list(range(1, 81))
    random.Random(11).shuffle(ds)
    for d in ds:
        looked_up.clear()
        outcome = least_k_walk(d, ks, h_at)
        assert _outcome(d, table, mode) == outcome, d
        passed = ks[:ks.index(outcome[1]) + 1] if outcome[0] == "k" else ks
        assert looked_up == list(passed), d
    assert max_provable_d(table, mode=mode) == max_d_walk(ks, h_at)
    rows = _checked_walk(table, mode)
    assert [row.k for row in rows] == list(ks)
    assert [row.h_value for row in rows] == list(map(h_at, ks))


MAX_D_TABLES = dict(TABLE_VARIANTS, **{
    "1, 2": lambda t: _copy_rows(t, lambda k: k <= 2),
    "empty": lambda t: KnownHTable(),
})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", sorted(MAX_D_TABLES))
def test_max_provable_d_is_the_largest_d_a_refusal_names(shipped_table,
                                                         variant, mode):
    # one walk answers both questions: min_k_for certifies the largest d at
    # the k max_provable_d names, and refuses the next d naming that d
    table = MAX_D_TABLES[variant](shipped_table)
    best, k = max_provable_d(table, mode=mode)
    widest = max(_checked_walk(table, mode), key=lambda row: row.reach)
    assert (widest.k, widest.reach) == (k, best)
    assert min_k_for(best, table, mode=mode) == k
    with pytest.raises(NotProvable) as err:
        min_k_for(best + 1, table, mode=mode)
    assert err.value.max_provable_d == best


def test_min_k_for_computes_what_the_reference_walk_computes():
    # from an empty table with the default cap of 12, the engine fills in
    # h(1..12) only as the walk reaches them: after every d, the same rows
    # as the reference
    engine, reference = KnownHTable(), KnownHTable()
    cap = cover.DEFAULT_MAX_COMPUTE_K
    ks, h_at = _reference_walk(reference, MODE_UNCONDITIONAL, cap)
    ds = list(range(1, 81))
    random.Random(5).shuffle(ds)
    for d in ds:
        assert _outcome(d, engine, MODE_UNCONDITIONAL) == (
            least_k_walk(d, ks, h_at)), d
        assert engine.ks() == reference.ks(), d
    assert engine.ks() == list(range(1, cap + 1))
    assert max_provable_d(engine) == (25, 12)
    assert max_provable_d(KnownHTable()) == (25, 12)


def test_min_k_for_cw_walk_stays_lazy(monkeypatch):
    # a cw question looks up only the k it needs, from the first
    looked_up = []
    real = bounds.cw_upper
    monkeypatch.setattr(bounds, "cw_upper",
                        lambda k: looked_up.append(k) or real(k))
    table = KnownHTable()
    assert min_k_for(19, table, mode=MODE_CW) == 50
    assert looked_up == [50]
    looked_up.clear()
    assert min_k_for(42, table, mode=MODE_CW) == 8119
    assert looked_up == list(range(50, 8120))


def test_min_k_for_sees_every_set(shipped_table):
    # a row raised after a walk takes d = 76 out of reach, as on a fresh
    # table; a row added back brings it into reach again
    table = _copy_rows(shipped_table)
    assert min_k_for(76, table) == 54
    table.set(54, 900, "paper")
    fresh = _copy_rows(table)
    with pytest.raises(NotProvable) as err:
        min_k_for(76, table)
    with pytest.raises(NotProvable) as expected:
        min_k_for(76, fresh)
    assert err.value.max_provable_d == expected.value.max_provable_d == 73
    assert str(err.value) == str(expected.value)
    assert max_provable_d(table) == max_provable_d(fresh) == (73, 54)
    table.set(54, 858, "paper")
    assert min_k_for(76, table) == 54
    trimmed = _copy_rows(shipped_table, lambda k: k != 54)
    with pytest.raises(NotProvable):
        min_k_for(76, trimmed)
    trimmed.set(54, 858, "paper")
    assert min_k_for(76, trimmed) == 54
    assert max_provable_d(trimmed) == (76, 54)


@pytest.mark.parametrize("mode, computed", [
    (MODE_UNCONDITIONAL, False), (MODE_UNCONDITIONAL, True), (MODE_CW, False),
], ids=["False", "True", "cw"])
def test_min_k_for_agrees_across_threads(shipped_table, mode, computed):
    # four threads start together on one fresh table, five times over;
    # with ``computed`` the rows k <= 12 are missing, so the walks run the
    # engine and its inserts drop the table's records mid-walk; in cw mode
    # d runs to 43, past the conditional bound
    keep = (lambda k: k > 12) if computed else (lambda k: True)
    ks, h_at = _reference_walk(_copy_rows(shipped_table, keep), mode,
                               cover.DEFAULT_MAX_COMPUTE_K)
    top = 43 if mode == MODE_CW else 76
    expected = {d: least_k_walk(d, ks, h_at) for d in range(1, top + 1)}
    assert (expected[top] == ("max", 42)) == (mode == MODE_CW)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the walks interleave
    try:
        for _ in range(5):
            table = _copy_rows(shipped_table, keep)
            start = threading.Barrier(4)
            results = [dict() for _ in range(4)]

            def work(seed):
                ds = list(range(1, top + 1))
                random.Random(seed).shuffle(ds)
                start.wait()
                for d in ds:
                    results[seed][d] = _outcome(d, table, mode)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_find_prime_agrees_across_threads(shipped_table):
    # four threads share one table with the rows k <= 12 missing, so the
    # engine's inserts drop the store while some finds build their record;
    # each thread gets the certificates a single-threaded find gives
    aps = [make_eligible(a, d) for d in range(1, 77) for a in (1, d - 1)]
    reference = _copy_rows(shipped_table, lambda k: k > 12)
    expected = [find_prime(ap, reference) for ap in aps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            table = _copy_rows(shipped_table, lambda k: k > 12)
            start = threading.Barrier(4)
            results = [None] * 4

            def work(seed):
                order = list(range(len(aps)))
                random.Random(seed).shuffle(order)
                start.wait()
                found = {i: find_prime(aps[i], table) for i in order}
                results[seed] = [found[i] for i in range(len(aps))]

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_warm_find_prime_looks_up_h_once(monkeypatch):
    # once a find modulo d has kept its record, find_prime takes k and h
    # from it and only verify's h-consistent clause asks for h(k)
    table = default_h_table()
    cases = ((1, 76), (3, 76), (1, 5), (2, 33), (0, 1))
    for a, d in cases:
        find_prime(make_eligible(a, d), table)
    looked_up = []
    real = bounds.h_of
    monkeypatch.setattr(bounds, "h_of",
                        lambda k, *rest: looked_up.append(k) or real(k, *rest))
    for a, d in cases:
        looked_up.clear()
        cert = find_prime(make_eligible(a, d), table)
        assert looked_up == [cert.k], (a, d)


def test_certify_calls_hand_h_of_only_k_and_the_table(monkeypatch):
    # no certify call sets a cap or a budget: the walk of find_prime and
    # min_k_for, verify and bound each call h_of(k, table)
    seen = []
    h_of = bounds.h_of
    monkeypatch.setattr(bounds, "h_of", lambda *args, **kwargs: (
        seen.append(args[0] if len(args) == 2 and not kwargs
                    else (args, kwargs))
        or h_of(*args, **kwargs)))
    # empty tables, so h(1..3) are computed under the default cap
    assert min_k_for(5, KnownHTable()) == 3
    assert seen == [1, 2, 3]
    seen.clear()
    cert = find_prime(make_eligible(1, 5), KnownHTable())
    assert seen == [1, 2, 3, 3]
    seen.clear()
    assert verify_certificate(cert, KnownHTable()).ok
    assert seen == [3]
    seen.clear()
    rows = bound_table((2, 3), KnownHTable())
    assert [row.h_value for row in rows] == [4, 6]
    assert seen == [2, 3]


def test_lemma_sweep_is_exact():
    for k in range(1, 7):
        p_k = nth_prime(k)
        limit = nth_prime(k + 1) ** 2
        for n in range(2, limit):
            expected = sympy.isprime(n) and n > p_k
            criterion = 2 <= n < limit and gcd(n, primorial(k)) == 1
            assert criterion == expected, (n, k)


@pytest.mark.parametrize("a, d, prime, k, c, m", [
    (1, 3, 7, 2, 4, 1),
    (2, 3, 5, 2, 2, 1),
    (0, 1, 3, 1, 0, 3),
    (1, 2, 3, 1, 1, 1),
    (9, 7, 23, 4, 30, -1),
])
def test_find_prime_pinned_traces(shipped_table, a, d, prime, k, c, m):
    cert = find_prime(make_eligible(a, d), shipped_table)
    assert (cert.prime, cert.k, cert.c, cert.m) == (prime, k, c, m)
    assert cert.checks == CHECK_NAMES
    assert cert.mode == MODE_UNCONDITIONAL
    assert verify_certificate(cert, shipped_table).ok


@given(st.integers(0, 400), st.integers(0, 399), st.integers(1, 70))
def test_the_image_and_the_primes_of_d_decide_the_preimage(d, a, k):
    # for d < p_{k+1}, the test of each x = c + d*m of the window against
    # P_k (by the window lemma, whether x is a prime above p_k) and of m
    # against d is exactly the test of m against P_k
    p_next = nth_prime(k + 1)
    d = d % (p_next - 1) + 1
    a %= d
    assume(gcd(a, d) == 1)
    modulus = primorial(k)
    c = coprime_iso(make_eligible(a, d), first_primes(k)).c
    for x in range(2 + (a - 2) % d, p_next * p_next, d):
        m = (x - c) // d
        assert (gcd(m, modulus) == 1) == (
            gcd(x, modulus) == 1 and gcd(m, d) == 1), (x, m)


def test_every_bound_stays_below_the_next_prime():
    # so every prime of a d that k certifies is among the first k primes,
    # and find_prime's scan tests m against d alone: the bound
    # (p_{k+1}^2 - 2) // (h + 1) is below p_{k+1} for the least h a table
    # row may hold (2 at k = 1, else 2 p_{k-1}) and for every cw bound
    ps = first_primes(10001)
    for k in range(1, 10001):
        p_next = ps[k]
        hs = [2 if k == 1 else 2 * ps[k - 2]]
        if k >= bounds.CW_MIN_K:
            hs.append(cw_upper(k))
        for h in hs:
            assert (p_next * p_next - 2) // (h + 1) < p_next, (k, h)


def test_find_prime_picks_the_preimage_scan_m(shipped_table):
    # the image scan picks the m the old preimage scan picked, on every
    # pair with d <= 76 and on the cw certificate of 1 + 42Z
    for d in range(1, 77):
        for a in range(d):
            if gcd(a, d) == 1:
                cert = find_prime(make_eligible(a, d), shipped_table)
                assert preimage_scan(cert.c, d, cert.k) == cert.m, (a, d)
    cert = find_prime(make_eligible(1, 42), shipped_table, mode=MODE_CW)
    assert preimage_scan(cert.c, 42, cert.k) == cert.m


def test_scan_tests_m_only_for_an_x_coprime_to_the_primorial(
        shipped_table, monkeypatch):
    for a, d in ((1, 76), (3, 76), (1, 70), (5, 66)):
        ap = make_eligible(a, d)
        cert = find_prime(ap, shipped_table)
        modulus = primorial(cert.k)
        calls = []
        with monkeypatch.context() as patched:
            patched.setattr(certify, "gcd",
                            lambda u, v: calls.append((u, v)) or gcd(u, v))
            assert find_prime(ap, shipped_table) == cert
        scanned = range(2 + (a - 2) % d, cert.prime + 1, d)
        preimage = {(x - cert.c) // d: x for x in scanned}
        tested = [preimage[u] for u, v in calls
                  if v == d and u in preimage]
        assert tested == [x for x in scanned if gcd(x, modulus) == 1], (a, d)


def test_warm_unconditional_find_multiplies_out_no_primes(shipped_table,
                                                          monkeypatch):
    # P_0 .. P_64 are kept: at k <= 64 the map and verify read them, and
    # the scan needs none, so neither a find nor its verify forms a product
    # of primes
    aps = [make_eligible(a, d) for a, d in ((1, 76), (5, 38), (0, 1))]
    for ap in aps:
        find_prime(ap, shipped_table)
    formed = []

    def counting(*args):
        formed.append(args)
        return prod(*args)

    for module in (certify, progressions):
        monkeypatch.setattr(module, "prod", counting)
    monkeypatch.setattr(arith.math, "prod", counting)
    for ap in aps:
        cert = find_prime(ap, shipped_table)
        assert cert.k <= 64
        assert verify_certificate(cert, shipped_table).ok
    assert formed == []


def test_warm_cw_find_multiplies_out_the_first_k_primes_once(shipped_table,
                                                             monkeypatch):
    # the scan tests x for primality, not against P_k: of cw finds modulo
    # d, only the first asks for a product of more than the 64 kept primes,
    # for the factor of c the table then keeps
    table = _copy_rows(shipped_table)
    ap = make_eligible(1, 42)
    asked = []
    for module in (certify, progressions):
        monkeypatch.setattr(module, "primorial",
                            lambda k: asked.append(k) or primorial(k))
    cert = find_prime(ap, table, mode=MODE_CW)
    assert [k for k in asked if k > 64] == [cert.k] == [8119]
    asked.clear()
    assert find_prime(ap, table, mode=MODE_CW) == cert
    assert find_prime(make_eligible(5, 42), table, mode=MODE_CW).k == 8119
    assert [k for k in asked if k > 64] == []


def test_find_prime_c_is_the_coprime_iso_anchor(shipped_table):
    # the kept factor gives the c that coprime_iso gives on the first k
    # primes, for every pair with d <= 76 and for cw residues
    table = _copy_rows(shipped_table)
    for d in range(1, 77):
        for a in range(d):
            if gcd(a, d) == 1:
                ap = make_eligible(a, d)
                cert = find_prime(ap, table)
                assert cert.c == coprime_iso(ap, first_primes(cert.k)).c, ap
    for d in (1, 7, 30, 42):
        for a in [a for a in range(d) if gcd(a, d) == 1][:4]:
            ap = make_eligible(a, d)
            cert = find_prime(ap, table, mode=MODE_CW)
            assert cert.c == coprime_iso(ap, first_primes(cert.k)).c, ap


def test_a_second_find_modulo_d_reads_the_kept_record(shipped_table,
                                                      monkeypatch):
    # after the first find modulo d, a find for any residue builds no map,
    # validates no primes and asks for no list or product of primes beyond
    # what its own verify asks for: none at k <= 64, and at the cw
    # k = 8119 the verify's walk over the first k primes
    table = _copy_rows(shipped_table)
    cases = [(MODE_UNCONDITIONAL, 76, (1, 3, 75)),
             (MODE_UNCONDITIONAL, 1, (0,)), (MODE_CW, 3, (1, 2)),
             (MODE_CW, 42, (1, 5))]
    for mode, d, residues in cases:
        find_prime(make_eligible(residues[0], d), table, mode=mode)
    calls = []
    for module, name in ((certify, "coprime_iso"), (certify, "first_primes"),
                         (certify, "primorial"), (progressions, "primorial"),
                         (progressions, "validated_primes"),
                         (arith, "first_primes"),
                         (arith, "validated_primes")):
        real = getattr(module, name)
        counted = name in ("first_primes", "primorial")
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real,
                            counted=counted: calls.append(
                                (name, args[0] if counted else None))
                            or real(*args))
    for mode, d, residues in cases:
        for a in residues:
            calls.clear()
            cert = find_prime(make_eligible(a, d), table, mode=mode)
            found = list(calls)
            calls.clear()
            assert verify_certificate(cert, table).ok
            assert found == calls, (mode, a, d)
            if cert.k <= 64:
                assert [name for name, _ in found] in ([], ["primorial"])
    assert found == [("primorial", 64), ("first_primes", 8119)]


def test_a_modulus_past_every_bound_keeps_no_record(shipped_table):
    # d = 77 raises each time, and the table keeps nothing
    table = _copy_rows(shipped_table)
    for _ in range(2):
        with pytest.raises(NotProvable) as err:
            find_prime(make_eligible(1, 77), table)
        assert err.value.max_provable_d == 76
    assert table._derived == {}


def test_a_table_keeps_only_the_records_of_the_moduli_found(shipped_table):
    # finds over every pair with d <= 76 and the cw line 1 + dZ, d <= 42,
    # then the walks of min_k_for and max_provable_d in both modes: the
    # table holds one record per mode and modulus found, and nothing else
    table = _copy_rows(shipped_table)
    for d in range(1, 77):
        for a in range(d):
            if gcd(a, d) == 1:
                find_prime(make_eligible(a, d), table)
    for d in range(1, 43):
        find_prime(make_eligible(1, d), table, mode=MODE_CW)
    assert min_k_for(19, table) == 9
    assert min_k_for(19, table, mode=MODE_CW) == 50
    assert max_provable_d(table) == (76, 54)
    assert max_provable_d(table, mode=MODE_CW) == (42, 8119)
    assert set(table._derived) == (
        {(MODE_UNCONDITIONAL, d) for d in range(1, 77)}
        | {(MODE_CW, d) for d in range(1, 43)})


def test_a_record_built_across_an_engine_insert_is_dropped():
    # on an empty table the first find computes h(1..3), and each insert
    # drops the store the find read: its record goes with it, and the
    # second find keeps one built from the filled rows
    table = KnownHTable()
    key = (MODE_UNCONDITIONAL, 5)
    cert = find_prime(make_eligible(1, 5), table)
    assert table.ks() == [1, 2, 3] and key not in table._derived
    assert find_prime(make_eligible(1, 5), table) == cert
    assert table._derived[key][:3] == (cert.k, cert.h_value, cert.h_source)


def test_a_set_row_replaces_the_kept_record(shipped_table):
    # without the row k = 30, d = 40 certifies at k = 35; once the row is
    # set, finds modulo 40 give the shipped table's certificates again
    table = _copy_rows(shipped_table, lambda k: k != 30)
    aps = [make_eligible(a, 40) for a in (1, 3, 39)]
    for ap in aps:
        cert = find_prime(ap, table)
        assert cert.k == 35 and verify_certificate(cert, table).ok
    entry = shipped_table.get(30)
    table.set(30, entry.h, entry.source)
    for ap in aps:
        assert find_prime(ap, table) == find_prime(ap, shipped_table)
        assert find_prime(ap, table).k == 30


def test_find_prime_uses_tabulated_h(shipped_table):
    cert = find_prime(make_eligible(1, 11), shipped_table)
    assert cert.k == 5
    assert cert.h_source == "paper"
    assert cert.h_value == 14


def test_find_prime_cw_mode(shipped_table):
    cert = find_prime(make_eligible(1, 3), shipped_table, mode=MODE_CW)
    assert cert.k == 50
    assert cert.h_source == "cw"
    assert cert.h_value == 2714
    assert cert.mode == MODE_CW
    assert cert.prime % 3 == 1
    assert sympy.isprime(cert.prime)
    assert verify_certificate(cert, shipped_table).ok


@pytest.fixture(scope="module")
def good_cert(shipped_table):
    return find_prime(make_eligible(1, 3), shipped_table)


def replace(cert, **changes):
    """A copy of ``cert`` with ``changes``, rebuilt by field name, so a
    forgery needs neither a dataclass nor a NamedTuple."""
    return type(cert)(**{name: getattr(cert, name)
                         for name in certify._FIELDS} | changes)


def _failures(cert, table):
    check = verify_certificate(cert, table)
    assert not check.ok
    return "\n".join(check.failures)


def test_verify_rejects_wrong_prime(good_cert, shipped_table):
    text = _failures(replace(good_cert, prime=good_cert.prime + 3), shipped_table)
    assert "equation" in text


def test_verify_rejects_wrong_preimage(good_cert, shipped_table):
    text = _failures(replace(good_cert, m=good_cert.m + 2), shipped_table)
    assert "equation" in text


def test_verify_rejects_wrong_anchor(good_cert, shipped_table):
    text = _failures(replace(good_cert, c=good_cert.c + 3), shipped_table)
    assert "congruences" in text


def test_verify_rejects_an_anchor_outside_the_progression(shipped_table):
    # 60 is divisible by 2, 3 and 5 (and 7 divides d), so only the residue
    # clause and the equation catch it
    cert = find_prime(make_eligible(2, 7), shipped_table)
    assert (cert.k, cert.c) == (4, 30)
    check = verify_certificate(replace(cert, c=60), shipped_table)
    assert check.failures == ("congruences: c does not lie in a + dZ",
                              "equation: prime != c + d*m")


def test_find_prime_never_emits_an_unverified_certificate(shipped_table,
                                                          monkeypatch):
    forged = CertificateCheck(("primality: forged",))
    monkeypatch.setattr(certify, "verify_certificate",
                        lambda cert, table: forged)
    with pytest.raises(JacobsthalError,
                       match="internal: produced certificate failed "
                             "verification"):
        find_prime(make_eligible(1, 3), shipped_table)


def test_verify_bound_clause_alone(good_cert, shipped_table):
    # relabel to k=1 with the honest h(1)=2: every clause passes except
    # the provability inequality (7/3 < 3)
    lowered = replace(good_cert, k=1, h_value=2, h_source="computed")
    check = verify_certificate(lowered, shipped_table)
    assert not check.ok
    assert [f.split(":")[0] for f in check.failures] == ["bound"]


def test_verify_h_consistency(good_cert, shipped_table):
    # every outcome of the h-consistent clause, word for word
    cw_cert = find_prime(make_eligible(1, 3), shipped_table, mode=MODE_CW)
    seven = find_prime(make_eligible(1, 7), shipped_table)
    cases = [
        (replace(good_cert, h_value=-1),
         "h-consistent: impossible h_value -1"),
        (replace(cw_cert, h_source="paper"),
         "h-consistent: cw mode requires the cw source"),
        (replace(good_cert, mode=MODE_CW, h_source="cw"),
         "h-consistent: k = 2 outside the conditional range"),
        (replace(cw_cert, h_value=2715),
         "h-consistent: conditional bound for k = 50 is 2714, certificate "
         "says 2715"),
        (replace(good_cert, h_source="cw"),
         "h-consistent: unconditional mode with conditional source"),
        (replace(good_cert, k=21, h_value=190),
         "h-consistent: cannot confirm h(21) here (h(21) is not tabulated "
         "and k exceeds the compute cap 12)"),
        (replace(good_cert, h_value=100),
         "h-consistent: h(2) = 4, certificate says 100"),
        (replace(seven, h_source="made-up"),
         "h-consistent: h(4) comes from computed, certificate says made-up"),
        (replace(seven, h_source="paper"),
         "h-consistent: h(4) comes from computed, certificate says paper"),
    ]
    for forged, expected in cases:
        check = verify_certificate(forged, shipped_table)
        assert not check.ok
        assert [f for f in check.failures
                if f.startswith("h-consistent")] == [expected]
    assert "bound:" in _failures(replace(good_cert, h_value=-1),
                                 shipped_table)


def test_find_and_verify_read_one_h_lookup(monkeypatch):
    # a cw bound raised by one reaches find_prime's walk and verify's
    # h-consistent clause alike, so the certificate it yields verifies
    real = bounds._h_at
    monkeypatch.setattr(
        bounds, "_h_at",
        lambda k, table, mode: (cw_upper(k) + 1, "cw")
        if mode == MODE_CW else real(k, table, mode))
    table = default_h_table()
    cert = find_prime(make_eligible(1, 3), table, mode=MODE_CW)
    assert (cert.k, cert.h_value, cert.h_source) == (50, 2715, "cw")
    assert verify_certificate(cert, table).ok


def test_verify_rejects_garbage_mode(good_cert, shipped_table):
    check = verify_certificate(replace(good_cert, mode="hopeful"),
                               shipped_table)
    assert not check.ok
    assert "unknown mode" in check.failures[0]


def test_verify_rejects_ineligible(good_cert, shipped_table):
    for a, d in ((2, 4), (1, 0), (5, 3)):
        check = verify_certificate(replace(good_cert, a=a, d=d), shipped_table)
        assert not check.ok
        assert "eligible" in check.failures[0]


def test_verify_flags_composite(good_cert, shipped_table):
    forged = replace(good_cert, prime=49)
    text = _failures(forged, shipped_table)
    assert "primality" in text
    assert "range" in text  # the lemma makes composites violate the window


def test_verify_reports_shift_past_primality_range(shipped_table, tmp_path,
                                                  capsys):
    # m shifted by 10**25 (kept a multiple of 7, so gcd(m, 210) > 1) puts
    # prime past 3.3e24, where the deterministic test gives up; prime is
    # kept coprime to 41# so trial division cannot settle it first
    from jacobsthal.cli import run
    cert = find_prime(make_eligible(1, 7), shipped_table)
    m = cert.m + 10**25
    while m % 7 or gcd(cert.c + cert.d * m, primorial(13)) != 1:
        m += 1
    forged = replace(cert, m=m, prime=cert.c + cert.d * m)
    check = verify_certificate(forged, shipped_table)
    assert not check.ok
    assert [f.split(":")[0] for f in check.failures] == [
        "range", "preimage-coprime", "primality"]
    cert_file = tmp_path / "forged.json"
    cert_file.write_text(certificate_to_json(forged))
    assert run(["verify", str(cert_file)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_absurd_k(good_cert, shipped_table):
    check = verify_certificate(replace(good_cert, k=200_000), shipped_table)
    assert not check.ok


def test_verify_rejects_forged_k_quickly(good_cert, shipped_table):
    forged = replace(good_cert, k=100_000)
    started = time.perf_counter()
    for _ in range(100):
        check = verify_certificate(forged, shipped_table)
        assert [f.split(":")[0] for f in check.failures] == [
            "congruences", "image-coprime", "h-consistent"]
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("field, value, clauses", [
    ("k", 10**5000, ["index k"]),
    ("h_value", 10**5000, ["h-consistent", "bound"]),
    ("h_value", -10**5000, ["h-consistent", "bound"]),
    ("prime", 3 * 10**5000 + 7, ["range", "primality"]),
], ids=["k", "h_value", "negative-h_value", "prime"])
def test_verify_reports_fields_past_the_digit_limit(good_cert, shipped_table,
                                                    field, value, clauses):
    # a hostile field of any length is reported, never raised on: each
    # message shows at most 40 of its digits.  The prime has no factor up
    # to 41, so it reaches the primality test's refusal
    if field == "prime":
        assert gcd(value, primorial(13)) == 1
    check = verify_certificate(replace(good_cert, **{field: value}),
                               shipped_table)
    assert not check.ok
    for clause in clauses:
        assert any(f.startswith(clause) for f in check.failures), clause
    assert all(len(f) < 200 for f in check.failures)


def test_verify_forms_each_block_product_once(good_cert, shipped_table,
                                              monkeypatch):
    # the cw certificate of 1 + 42Z has k = 8119: 127 blocks of 64 primes,
    # which the congruence clause and both coprimality clauses all read
    # block 0 is the kept P_64, and the other 126 are multiplied out
    cert = find_prime(make_eligible(1, 42), shipped_table, mode=MODE_CW)
    blocks, kept = [], []
    monkeypatch.setattr(certify, "prod",
                        lambda block: blocks.append(block) or prod(block))
    monkeypatch.setattr(certify, "primorial",
                        lambda k: kept.append(k) or primorial(k))
    assert verify_certificate(cert, shipped_table).ok
    assert kept == [64]
    assert len(blocks) == len(set(blocks)) == -(-8119 // 64) - 1
    assert first_primes(64) + sum(blocks, ()) == first_primes(8119)
    # a forged k stays lazy: the blocks up to the first failing one
    blocks.clear()
    kept.clear()
    check = verify_certificate(replace(good_cert, k=100_000), shipped_table)
    assert [f.split(":")[0] for f in check.failures] == [
        "congruences", "image-coprime", "h-consistent"]
    assert kept == [64]
    assert 1 <= len(kept) + len(blocks) <= 2


def test_an_honest_short_verify_slices_no_primes(shipped_table, monkeypatch):
    # at k <= 64 block 0 is the kept primorial, so a passing verify reads no
    # prime list and returns the one shared passing result; a missing factor
    # is still named, from one slice of the first k primes
    certs = [find_prime(make_eligible(a, d), shipped_table)
             for a, d in ((1, 76), (3, 76), (1, 5), (2, 33), (0, 1))]
    sliced = []
    monkeypatch.setattr(certify, "first_primes",
                        lambda k: sliced.append(k) or first_primes(k))
    for cert in certs:
        assert cert.k <= 64
        assert verify_certificate(cert, shipped_table) is certify._PASSED
    assert sliced == []
    assert certify._PASSED == CertificateCheck() and certify._PASSED.ok
    cert = certs[0]
    check = verify_certificate(replace(cert, c=cert.c // 3), shipped_table)
    assert "congruences: c not divisible by 3" in check.failures
    assert sliced == [cert.k]


@pytest.mark.parametrize("index", [0, 63, 64, 100, 128])
def test_verify_names_the_first_missing_factor(shipped_table, index):
    # c misses the index-th and the last of the first 130 primes, so the
    # first failing prime is in the first, second or third block of 64
    qs = first_primes(130)
    c = primorial(130) // (qs[index] * qs[129])
    cert = PrimeCertificate(0, 1, 130, c, 0, c, 4, "computed",
                            MODE_UNCONDITIONAL, CHECK_NAMES)
    check = verify_certificate(cert, shipped_table)
    assert f"congruences: c not divisible by {qs[index]}" in check.failures
    # a prime of d needs no factor in c, so the next miss is named
    moved = replace(cert, a=c % qs[index], d=qs[index])
    check = verify_certificate(moved, shipped_table)
    assert [f for f in check.failures if f.startswith("congruences")] == [
        f"congruences: c not divisible by {qs[129]}"]


def _shifted(cert, t):
    """cert with m moved by t and the prime with it: prime = c + d*m holds."""
    return replace(cert, m=cert.m + t, prime=cert.prime + cert.d * t)


# One mutation of a certificate per entry, its amount drawn from rng: most
# break a clause, some (a shift, an equal k) may leave it valid.  A forgery
# applies one to three of them.
_MUTATIONS = (
    lambda cert, rng: replace(cert, k=rng.choice((64, 65, 128, 100_000))),
    lambda cert, rng: replace(cert, k=max(1, cert.k + rng.choice((-1, 1)))),
    lambda cert, rng: replace(cert, k=rng.randrange(1, 200)),
    lambda cert, rng: replace(cert, m=cert.m + rng.randrange(-40, 41)),
    lambda cert, rng: replace(cert, m=cert.m * rng.choice((0, 2, 3, 7, 227,
                                                           229))),
    lambda cert, rng: replace(cert, prime=cert.prime + rng.randrange(-40, 41)),
    lambda cert, rng: replace(cert, prime=cert.prime * rng.choice((-1, 2, 3,
                                                                   307))),
    lambda cert, rng: replace(cert, c=cert.c + cert.d * rng.randrange(-5, 6)),
    lambda cert, rng: replace(cert, c=cert.c * rng.choice((2, 3, 5, 311))),
    lambda cert, rng: replace(cert, c=cert.c // rng.choice((2, 3, 5, 7, 311))),
    lambda cert, rng: replace(cert, a=rng.randrange(-1, 2 * cert.d + 1)),
    lambda cert, rng: replace(cert, d=cert.d + rng.choice((-2, -1, 1, 2,
                                                           cert.d))),
    lambda cert, rng: replace(cert, h_value=cert.h_value
                              + rng.randrange(-3, 4)),
    lambda cert, rng: replace(cert, h_value=rng.choice((0, -1, 10**6))),
    lambda cert, rng: _shifted(cert, rng.randrange(-1000, 1001)),
    lambda cert, rng: _shifted(cert, rng.choice((1, 7, 11))
                               * 10 ** rng.randrange(2, 30)),
)

# SHA-256 of the failure tuples verify returns for the seeded forgeries of
# test_verify_verdicts_on_a_forgery_corpus: a change to how verify walks
# the primes must leave every verdict as it is.
FORGERY_CORPUS_SHA256 = (
    "e8cbdb54ea593e1958b777fe808ca35d84be52a715d08e70e04258a23bbf85c5")


def test_verify_verdicts_on_a_forgery_corpus():
    # three forgeries of each certificate with d <= 76, and cw forgeries:
    # 400 of 1 + 7Z (k = 50), 8 each of 1 + 30Z and 1 + 42Z (k in the
    # thousands, about 22 ms a verify)
    table = default_h_table()
    rng = random.Random(30)
    honest = [(find_prime(make_eligible(a, d), table), 3)
              for d in range(1, 77) for a in range(d) if gcd(a, d) == 1]
    honest += [(find_prime(make_eligible(1, d), table, mode=MODE_CW), count)
               for d, count in ((7, 400), (30, 8), (42, 8))]
    digest = hashlib.sha256()
    forged = rejected = 0
    for cert, count in honest:
        for _ in range(count):
            forgery = cert
            for _ in range(rng.randrange(1, 4)):
                forgery = rng.choice(_MUTATIONS)(forgery, rng)
            failures = verify_certificate(forgery, table).failures
            digest.update(repr(failures).encode() + b"\n")
            forged += 1
            rejected += bool(failures)
    assert forged == 3 * 1772 + 416
    assert rejected > 0.9 * forged
    assert digest.hexdigest() == FORGERY_CORPUS_SHA256


def test_verify_makes_no_closure_cells():
    # A cell is a garbage-collected object allocated on every call; one more
    # per verify moves the collector's gen-0 trigger into the verify call.
    # The same holds for the bound walk that find_prime reads.
    for fn in (verify_certificate, certify._prime_clauses,
               certify._h_consistency, min_k_for,
               find_prime, bounds._least_row, bounds._bounds,
               bounds._h_at, bound):
        assert fn.__code__.co_cellvars == (), fn.__name__


# SHA-256 of certificate_to_json over every eligible (a, d) with d <= 76 in
# (d, a) order, and over cw 1 + dZ for d = 1..42: a faster certify path
# must produce the same certificates, byte for byte.
ALL_PAIRS_SHA256 = (
    "f51129f4826a32c01b4ed9720a9a75e4e3638b949591b6d96a93f5806eacaf91")
CW_LINE_SHA256 = (
    "63e02d88d40086bf766c21f412f746998b1dcf47a92dc71e6ca9bbdb51b46879")


def test_cw_certificates_are_byte_identical(shipped_table):
    digest = hashlib.sha256()
    for d in range(1, 43):
        cert = find_prime(make_eligible(1, d), shipped_table, mode=MODE_CW)
        digest.update(certificate_to_json(cert).encode())
    assert digest.hexdigest() == CW_LINE_SHA256


def test_default_table_certifies_without_the_engine(monkeypatch):
    # every h(k) that d <= 76 needs ships in the table, the prime sets
    # find_prime validates are first_primes(k) itself, so none is re-proved,
    # and the certificates are the pinned ones
    def no_engine(*args, **kwargs):
        raise AssertionError("the exact search ran")

    monkeypatch.setattr(cover, "max_cover_length", no_engine)
    proved = []
    for module in (arith, progressions, cover):
        real = module.is_prime
        monkeypatch.setattr(module, "is_prime",
                            lambda n, real=real: proved.append(n) or real(n))
    table = default_h_table()
    digest = hashlib.sha256()
    pairs = 0
    for d in range(1, 77):
        for a in range(d):
            if gcd(a, d) == 1:
                cert = find_prime(make_eligible(a, d), table)
                assert verify_certificate(cert, table).ok, (a, d)
                digest.update(certificate_to_json(cert).encode())
                pairs += 1
    assert pairs == 1772
    assert proved == []
    assert digest.hexdigest() == ALL_PAIRS_SHA256


def test_verify_ignores_stored_checks(good_cert, shipped_table):
    odd = replace(good_cert, checks=("made-up",))
    assert verify_certificate(odd, shipped_table).ok


def test_prime_stream_traced_fixture(shipped_table):
    certs = prime_stream(make_eligible(1, 3), 2, shipped_table)
    assert [c.prime for c in certs] == [7, 97]
    assert (certs[0].a, certs[0].d) == (1, 3)
    assert (certs[1].a, certs[1].d) == (1, 12)
    assert (certs[1].k, certs[1].c, certs[1].m) == (6, 5005, -409)
    for cert in certs:
        assert verify_certificate(cert, shipped_table).ok
        assert cert.prime % 3 == 1


def test_refined_matches_the_two_branch_rule():
    # every class r mod the new modulus that reduces to a mod d, as the
    # prime r and as r + 4d (the same class mod 2d and mod 4d)
    checked = 0
    for d in range(1, 121):
        new_d = d * (2 if d % 2 == 0 else 4)
        for a in range(d):
            if gcd(a, d) != 1:
                continue
            ap = make_eligible(a, d)
            for r in range(a, new_d, d):
                for prime in (r, r + 4 * d):
                    got = certify._refined(ap, prime)
                    assert (got.a, got.d) == refined_two_branch(a, d, prime)
                    checked += 1
    assert checked == 29188


def test_prime_stream_whole_line(shipped_table):
    certs = prime_stream(make_eligible(0, 1), 3, shipped_table)
    assert [c.prime for c in certs] == [3, 5, 17]
    assert [(c.a, c.d) for c in certs] == [(0, 1), (1, 4), (1, 8)]
    assert len({c.prime for c in certs}) == 3
    for cert in certs:
        assert verify_certificate(cert, shipped_table).ok


def test_prime_stream_corners(shipped_table):
    assert prime_stream(make_eligible(1, 3), 0, shipped_table) == []
    with pytest.raises(ValueError):
        prime_stream(make_eligible(1, 3), -1, shipped_table)


def test_prime_stream_not_provable_immediately(shipped_table):
    with pytest.raises(NotProvable) as err:
        prime_stream(make_eligible(1, 77), 1, shipped_table)
    assert err.value.certificates == ()
    assert err.value.max_provable_d == 76


def test_prime_stream_not_provable_midway(shipped_table):
    with pytest.raises(NotProvable) as err:
        prime_stream(make_eligible(1, 39), 2, shipped_table)
    assert len(err.value.certificates) == 1
    assert "after 1 of 2" in str(err.value)
    assert verify_certificate(err.value.certificates[0], shipped_table).ok


def test_max_provable_d_unconditional(shipped_table):
    assert max_provable_d(shipped_table) == (76, 54)
    trimmed = KnownHTable()
    for k in shipped_table.ks():
        if k <= 50:
            entry = shipped_table.get(k)
            trimmed.set(k, entry.h, entry.source)
    assert max_provable_d(trimmed) == (71, 50)
    assert max_provable_d(KnownHTable()) == (25, 12)


def test_max_provable_d_cw(shipped_table):
    assert max_provable_d(shipped_table, mode=MODE_CW) == (42, 8119)


def test_certificate_round_trip(good_cert):
    text = certificate_to_json(good_cert)
    again = certificate_from_json(text)
    assert again == good_cert
    assert certificate_to_json(again) == text
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["prime"] == "7"
    assert payload["m"] == "1"


def test_certificate_negative_m_round_trip(shipped_table):
    cert = find_prime(make_eligible(9, 7), shipped_table)
    assert cert.m == -1
    assert certificate_from_json(certificate_to_json(cert)) == cert


@given(st.integers(-10**40, 10**40))
def test_certificate_huge_ints_survive(n):
    cert = PrimeCertificate(1, 3, 2, n, n, n, 4, "computed",
                            MODE_UNCONDITIONAL, CHECK_NAMES)
    assert certificate_from_json(certificate_to_json(cert)) == cert


# text fields: any characters, json's escapes (quotes, backslashes, control
# characters) and non-ASCII ones, astral characters included
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                          '\u00e9\u2028\U0001f600'),
                          st.characters()))
# integers of every sign and size: a 5000-digit one repeats a drawn block of
# 40 digits 125 times, far cheaper to draw than 5000 digits
_BIG = st.integers(10**39, 10**40 - 1).map(
    lambda n: n * ((10**5000 - 1) // (10**40 - 1)))
_INTS = st.one_of(st.integers(), _BIG, _BIG.map(lambda n: -n))


@given(st.builds(PrimeCertificate, _INTS, _INTS, _INTS, _INTS, _INTS, _INTS,
                 _INTS, _TEXT, _TEXT, st.lists(_TEXT).map(tuple)))
def test_certificate_text_is_what_json_dumps_writes(cert):
    assert certificate_to_json(cert) == certificate_json(cert)


def test_empty_checks_and_escaped_fields_render_as_json_dumps(good_cert):
    odd = replace(good_cert, h_source='say "\\"\n', mode="\u00e9\U0001f600",
                  checks=())
    text = certificate_to_json(odd)
    assert text == certificate_json(odd)
    assert '  "checks": [],\n' in text
    assert '"h_source": "say \\"\\\\\\"\\n"' in text
    assert '"mode": "\\u00e9\\ud83d\\ude00"' in text
    assert certificate_from_json(text) == odd


def test_certificate_text_never_runs_the_json_encoder(shipped_table,
                                                      monkeypatch):
    # json.dumps with an indent runs JSONEncoder's pure-Python iterencode;
    # the certificate text is formatted without it
    certs = [find_prime(make_eligible(1, 76), shipped_table),
             find_prime(make_eligible(1, 42), shipped_table, mode=MODE_CW)]
    expected = [certificate_json(cert) for cert in certs]

    def refuse(*args, **kwargs):
        raise AssertionError("json.JSONEncoder ran")

    monkeypatch.setattr(json.encoder.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    texts = [certificate_to_json(cert) for cert in certs]
    monkeypatch.undo()
    assert texts == expected


def test_every_engine_certificate_is_read_without_json(shipped_table,
                                                       monkeypatch):
    # certificate_from_json reads the writer's layout itself: a certificate
    # the engine writes never reaches json, so writer and reader cannot drift
    # apart unnoticed
    certs = [find_prime(make_eligible(a, d), shipped_table)
             for d in range(1, 77) for a in range(d) if gcd(a, d) == 1]
    certs.append(find_prime(make_eligible(1, 42), shipped_table,
                            mode=MODE_CW))  # c past 4300 digits
    certs.append(replace(certs[0], checks=()))
    assert len(certs) == 1772 + 2
    texts = [certificate_to_json(cert) for cert in certs]

    def refuse(*args, **kwargs):
        raise AssertionError("json decoded an engine-written certificate")

    monkeypatch.setattr(certify._DECODER, "decode", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    read = [certificate_from_json(text) for text in texts]
    monkeypatch.undo()
    assert read == certs


def _read_both_ways(text):
    """What ``certificate_from_json`` and the json path (decode, then
    ``_certificate_from_data``) make of a text: a record, or the type and
    message of the JacobsthalError raised."""
    def outcome(read):
        try:
            return read(text)
        except JacobsthalError as exc:
            return type(exc), str(exc)

    return (outcome(certificate_from_json),
            outcome(lambda text: certify._certificate_from_data(
                certify._json_value(text))))


# text fields the layout takes (printable ASCII but '"' and '\') as well as
# any other
_FIELD_TEXT = st.one_of(_TEXT, st.text(st.characters(min_codepoint=32,
                                                     max_codepoint=126)),
                        st.sampled_from(CHECK_NAMES + MODES))
_CERTS = st.builds(PrimeCertificate, _INTS, _INTS, _INTS, _INTS, _INTS,
                   _INTS, _INTS, _FIELD_TEXT, _FIELD_TEXT,
                   st.lists(_FIELD_TEXT).map(tuple))


@given(_CERTS)
def test_layout_reader_agrees_with_json_on_canonical_text(cert):
    text = certificate_to_json(cert)
    layout, json_path = _read_both_ways(text)
    assert layout == json_path == cert


@given(_CERTS, st.data())
def test_layout_reader_agrees_with_json_on_single_edits(cert, data):
    # a character dropped, doubled or replaced anywhere in a canonical text
    text = certificate_to_json(cert)
    at = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(("drop", "double", "replace")))
    if edit == "replace":
        new = data.draw(st.one_of(st.sampled_from('"\\ ,:[]{}-0+9\n\t\u0663'),
                                  st.characters()))
    else:
        new = "" if edit == "drop" else text[at] * 2
    layout, json_path = _read_both_ways(text[:at] + new + text[at + 1:])
    assert layout == json_path


def _field_edits(payload):
    """Texts one field-level edit away from a canonical payload."""
    def canonical(edited):  # non-ASCII characters as they are
        return json.dumps(edited, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    names = sorted(payload)
    for i, first in enumerate(names):  # two fields' values swapped
        for second in names[i + 1:]:
            yield canonical({**payload, first: payload[second],
                             second: payload[first]})
    for i in range(len(names) - 1):  # two neighbours' places swapped
        order = names[:i] + [names[i + 1], names[i]] + names[i + 2:]
        yield json.dumps({name: payload[name] for name in order},
                         indent=2) + "\n"
    yield json.dumps(payload)  # compact
    yield canonical(payload)[:-1]  # no final newline
    yield canonical({**payload, "checks": []}).replace("[]", "[\n  ]")
    for name in certify._INT_FIELDS:
        for raw in ("-0", "0", "00", "007", "-007", "+7", "-", "\u0663",
                    "7\uff17"):
            yield canonical({**payload, name: raw})
    for digits in (certify._FIELD_MAX_DIGITS, certify._FIELD_MAX_DIGITS + 1):
        for sign in ("", "-"):
            yield canonical({**payload, "c": sign + "7" * digits})
            yield canonical({**payload, "c": sign + "7" * digits,
                             "d": sign + "1" * digits})


@pytest.mark.parametrize("a, d", [(1, 3), (3, 76)])
def test_layout_reader_agrees_with_json_on_field_edits(a, d, shipped_table):
    cert = find_prime(make_eligible(a, d), shipped_table)
    payload = json.loads(certificate_to_json(cert))
    outcomes = [_read_both_ways(text) for text in _field_edits(payload)]
    assert [layout for layout, _ in outcomes] == [
        json_path for _, json_path in outcomes]
    assert any(isinstance(layout, PrimeCertificate)
               for layout, _ in outcomes)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("prime"),
    lambda d: d.update(extra="1"),
    lambda d: d.update(prime=7),
    lambda d: d.update(prime="seven"),
    lambda d: d.update(checks="eligible"),
    lambda d: d.update(mode=3),
    lambda d: d.update(prime="7\n"),
])
def test_certificate_rejects_malformed(good_cert, mutate):
    payload = json.loads(certificate_to_json(good_cert))
    mutate(payload)
    with pytest.raises(JacobsthalError):
        certificate_from_json(json.dumps(payload))


@pytest.mark.parametrize("array", [False, True], ids=["object", "array-item"])
def test_certificate_rejects_a_repeated_field(good_cert, array):
    text = certificate_to_json(good_cert).replace(
        "{\n", '{\n  "prime": "1601",\n', 1)
    with pytest.raises(JacobsthalError,
                       match="^certificate repeats the field 'prime'$"):
        certificate_from_json(f"[{text}]" if array else text)


def test_certificate_with_a_byte_order_mark_names_it(good_cert):
    # the reader decodes as json.loads does, which refuses a leading BOM
    with pytest.raises(JacobsthalError, match="Unexpected UTF-8 BOM"):
        certificate_from_json("\ufeff" + certificate_to_json(good_cert))


@given(st.one_of(st.text(), st.text("-+0123456789\u0663\uff10 \n"),
                 st.from_regex(r"-?[0-9]+", fullmatch=True)))
def test_integer_fields_take_exactly_the_decimal_strings(raw):
    # the reader's test agrees with the regex -?[0-9]+ on any text: one
    # leading '-', then ASCII digits only (not '+5', '--5', '', '5\n' or a
    # digit of another script)
    payload = json.loads(certificate_to_json(PrimeCertificate(
        1, 3, 2, 4, 1, 7, 4, "computed", MODE_UNCONDITIONAL, CHECK_NAMES)))
    payload["m"] = raw
    if is_decimal_integer(raw):
        assert certify._certificate_from_data(payload).m == int(raw)
    else:
        with pytest.raises(JacobsthalError,
                           match="^field 'm' must be a decimal string$"):
            certify._certificate_from_data(payload)


def test_decimal_conversion_past_the_digit_limit():
    rng = random.Random(5)
    values = [10**4300 - 1, 10**4300, -(10**9000) + 1, 7 * 10**45000]
    values += [rng.getrandbits(rng.randrange(1, 100_000)) for _ in range(8)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(n) for n in values]
    finally:
        sys.set_int_max_str_digits(limit)
    for n, text in zip(values, expected):
        assert int_to_decimal(n) == text
        cert = PrimeCertificate(1, 3, 2, n, -n, n, 4, "computed",
                                MODE_UNCONDITIONAL, CHECK_NAMES)
        assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize("d", [34, 42])
def test_cw_certificate_past_the_digit_limit(d, tmp_path, capsys):
    from jacobsthal.cli import run
    cert_file = tmp_path / "cert.json"
    assert run(["find-prime", "1", str(d), "--mode", "cw"]) == 0
    text = capsys.readouterr().out
    cert = certificate_from_json(text)
    assert len(int_to_decimal(cert.c)) > 4300
    assert certificate_to_json(cert) == text
    cert_file.write_text(text)
    assert run(["verify", str(cert_file)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_certificate_rejects_a_huge_field_quickly(good_cert):
    payload = json.loads(certificate_to_json(good_cert))
    payload["c"] = "7" * 1_000_000
    text = json.dumps(payload)
    started = time.perf_counter()
    with pytest.raises(JacobsthalError, match="digits"):
        certificate_from_json(text)
    with pytest.raises(JacobsthalError):
        certificate_from_json(text.replace('"' + payload["c"] + '"',
                                           payload["c"]))
    assert time.perf_counter() - started < 0.1


def test_certificate_rejects_non_object():
    with pytest.raises(JacobsthalError):
        certificate_from_json("[1, 2]")
    with pytest.raises(JacobsthalError):
        certificate_from_json("not json at all")
