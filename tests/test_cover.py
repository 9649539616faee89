import contextlib
import functools
import hashlib
import itertools
import random
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jacobsthal import arith, cover
from jacobsthal.arith import (factorize, first_primes, nth_prime,
                              primes_upto, primorial)
from jacobsthal.cover import (CoverAssignment, CoverWitness, HEntry,
                              HSOURCE_COMPUTED, KnownHTable,
                              SearchBudget,
                              coverable, default_h_table,
                              elementary_lower_witness, h_of, least_witness,
                              max_cover_length,
                              verify_cover, witness_integer, _parse_h_table)
from jacobsthal.gaps import g_of
from jacobsthal.errors import (BudgetExceeded, JacobsthalError,
                               TableParseError, TableValidationError,
                               Unavailable)
from oracles import (first_longest_run, g_exhaustive, prime_order_cover,
                     shares_factor_throughout)

REMARK_ROWS = [(5, 14), (10, 46), (15, 100), (20, 174), (25, 258), (30, 330),
               (35, 432), (40, 538), (45, 642), (50, 762), (54, 858)]
# h(k) for the other k <= 20, shipped as engine results (Hagedorn 2009)
COMPUTED_ROWS = [(1, 2), (2, 4), (3, 6), (4, 10), (6, 22), (7, 26), (8, 34),
                 (9, 40), (11, 58), (12, 66), (13, 74), (14, 90), (16, 106),
                 (17, 118), (18, 132), (19, 152)]


def test_coverable_trivial_and_validation():
    empty = coverable(0, (2, 3))
    assert empty.length == 0 and empty.is_valid()
    one = coverable(1, (7,))
    assert one is not None and one.is_valid()
    with pytest.raises(ValueError):
        coverable(3, ())
    with pytest.raises(ValueError):
        coverable(3, (2, 2, 3))
    with pytest.raises(ValueError):
        coverable(3, (2, 9))
    # as long as first_primes(5), so only the full checks can reject them
    with pytest.raises(ValueError, match="^9 is not prime$"):
        coverable(3, (2, 3, 5, 7, 9))
    with pytest.raises(ValueError, match="^primes must be distinct$"):
        coverable(3, (2, 3, 5, 7, 7))
    with pytest.raises(ValueError):
        coverable(-1, (2,))


def test_coverable_small_decisions():
    # {2,3} covers three consecutive integers but never four
    assert coverable(3, (2, 3)) is not None
    assert coverable(4, (2, 3)) is None
    # a single prime covers only length 1
    assert coverable(2, (13,)) is None


def test_strategies_agree_at_critical_lengths():
    # the engine against the independent prime-order oracle
    critical = {1: 1, 2: 3, 3: 5, 4: 9, 5: 13, 6: 21, 7: 25, 8: 33}
    for k, lstar in critical.items():
        ps = first_primes(k)
        for length, feasible in ((lstar, True), (lstar + 1, False)):
            found = coverable(length, ps)
            assert (found is not None) == feasible, (k, length)
            if found is not None:
                assert found.is_valid()
            offsets = prime_order_cover(length, ps)
            assert (offsets is not None) == feasible, (k, length, "oracle")
            if offsets is not None:
                oracle = CoverAssignment(ps, tuple(offsets[p] for p in ps),
                                         length)
                assert oracle.is_valid()


# max_cover_length(first_primes(k)) -> (L*, offsets).  The witness is the
# first cover the search reaches, so any change to its branch order shows
# up here even when every L* stays the same.
PINNED_SEARCH = {
    1: (1, (0,)),
    2: (3, (0, 1)),
    3: (5, (0, 1, 3)),
    4: (9, (0, 1, 3, 5)),
    5: (13, (0, 0, 1, 5, 7)),
    6: (21, (0, 1, 0, 3, 9, 11)),
    7: (25, (0, 0, 2, 5, 1, 11, 13)),
    8: (33, (0, 1, 1, 2, 5, 3, 15, 17)),
    9: (39, (0, 1, 3, 1, 5, 9, 11, 17, 21)),
    10: (45, (0, 1, 2, 1, 0, 9, 5, 3, 21, 23)),
    11: (57, (0, 1, 3, 0, 6, 2, 11, 9, 5, 27, 29)),
    12: (65, (0, 1, 3, 1, 6, 9, 11, 2, 5, 27, 10, 10)),
    13: (73, (0, 0, 1, 1, 3, 10, 2, 17, 13, 7, 5, 35, 37)),
    14: (89, (0, 1, 1, 3, 9, 5, 12, 8, 0, 4, 15, 35, 39, 4)),
    15: (99, (0, 1, 1, 3, 9, 5, 12, 8, 0, 6, 2, 15, 39, 4, 30)),
    16: (105, (0, 1, 1, 3, 9, 5, 12, 8, 0, 6, 2, 15, 39, 4, 30, 46)),
    17: (117, (0, 1, 1, 1, 1, 1, 1, 1, 1, 17, 3, 33, 5, 9, 12, 10, 24)),
}


def test_search_path_is_pinned():
    for k, (lstar, offsets) in PINNED_SEARCH.items():
        length, assignment = max_cover_length(first_primes(k))
        assert (length, assignment.offsets) == (lstar, offsets), k


# SHA-256 of "ps L* offsets\n" from max_cover_length(ps) for every set ps of
# 1 to 5 primes up to 43 that is not the first primes, by size and then in
# itertools.combinations order: the walks g's engine path runs
NON_PREFIX_WALKS_SHA256 = (
    "ca06f0c345ea1ac571ad90804bafb492b23832f055c8e359b3e151ac8482ae57")


def test_walks_of_other_prime_sets_are_pinned():
    digest, walks = hashlib.sha256(), 0
    for r in range(1, 6):
        for ps in itertools.combinations(primes_upto(43), r):
            if ps == first_primes(r):
                continue
            length, assignment = max_cover_length(ps)
            digest.update(f"{ps} {length} {assignment.offsets}\n".encode())
            walks += 1
    assert walks == 3467
    assert digest.hexdigest() == NON_PREFIX_WALKS_SHA256


# Nodes the search visits (calls of _Search._tick) in
# max_cover_length(first_primes(k)); every node but the wheel's root is
# counted once, a partial wheel assignment and a wheel survivor like any
# other, and so is a child the skip rule cuts without visiting.  A change
# that only makes a node cheaper must leave every count as it is.  Prime 2
# never enters the search, so each count is that of the odd primes on half
# the length.
PINNED_NODES = {1: 1, 2: 2, 3: 1, 4: 1, 5: 5, 6: 6, 7: 2, 8: 8, 9: 25,
                10: 83, 11: 46, 12: 216}
# The same count for the walks that decide h(13..17), about 0.4 s in all.
PINNED_WALK_NODES = {13: 952, 14: 1577, 15: 5575, 16: 18222, 17: 70447}
# Searches (calls of coverable) in the same walks.  The first cover is
# built, not searched: the elementary one for k >= 3, else one position.
# So a walk searches once for each length the last cover does not reach,
# the refusal at L* + 1 among them, and makes only that refusal where the
# first cover is already the longest (k = 3..8, 10, 11, 13: h = 2 p_{k-1}).
PINNED_WALK_SEARCHES = {k: 1 for k in range(1, 18)} | {2: 2, 9: 2, 12: 3,
                                                       14: 2, 15: 5, 16: 4,
                                                       17: 3}


def test_search_node_counts_are_pinned(monkeypatch):
    nodes = searches = 0
    tick, search = cover._Search._tick, cover.coverable

    def counting_tick(self):
        nonlocal nodes
        nodes += 1
        tick(self)

    def counting_search(*args, **kwargs):
        nonlocal searches
        searches += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(cover._Search, "_tick", counting_tick)
    monkeypatch.setattr(cover, "coverable", counting_search)
    pinned_nodes = {**PINNED_NODES, **PINNED_WALK_NODES}
    for k in PINNED_WALK_SEARCHES:
        nodes = searches = 0
        max_cover_length(first_primes(k))
        assert nodes == pinned_nodes[k], k
        assert searches == PINNED_WALK_SEARCHES[k], k


@pytest.mark.parametrize("k", [11, 12, 13, 14])
def test_wheel_prunes_partial_assignments(k):
    # Both searches that decide h(k) stay far below the thousands of offset
    # combinations of the wheel primes, because the wheel bounds its
    # partial assignments.
    h = dict(COMPUTED_ROWS)[k]
    budget = SearchBudget(max_nodes=5000)
    assert coverable(h - 1, first_primes(k), budget=budget) is not None
    assert coverable(h, first_primes(k), budget=budget) is None


@pytest.mark.parametrize("k, length, spent", [(20, 174, 409_408),
                                              (30, 402, 1499),
                                              (40, 710, 5110)])
def test_large_refusals_spend_pinned_nodes(k, length, spent):
    # the refusal that proves h(20) = 174, the one node count pinned for
    # k = 18..20, and two well past it, where the capacity check at the
    # wheel's nodes does most of the cutting; about 1.3 s for the three
    allowance = cover._Allowance(None)
    assert coverable(length, first_primes(k), budget=allowance) is None
    assert allowance.spent == spent


def test_a_wheel_node_finishes_like_any_other():
    # 40 positions on the first 15 primes halve to 20 positions on 14 odd
    # primes, with 3 and 5 on the wheel.  Once 3 is placed, no more
    # positions are left than primes, so that wheel node hands them out at
    # once: one node in all, and no branch on 5's offsets
    allowance = cover._Allowance(None)
    found = coverable(40, first_primes(15), budget=allowance)
    assert found is not None and found.is_valid()
    assert allowance.spent == 1


PRIMES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@given(length=st.integers(min_value=1, max_value=30),
       primes=st.lists(st.sampled_from(PRIMES_TO_37), min_size=1,
                       max_size=len(PRIMES_TO_37), unique=True))
@example(length=30, primes=list(PRIMES_TO_37))  # p >= L and 2p >= L present
@example(length=29, primes=list(PRIMES_TO_37))  # odd: 2 takes one more
@example(length=6, primes=[2, 3])  # even, no wheel on the half
@example(length=7, primes=[2, 3, 5])  # odd, no wheel on the half
@example(length=12, primes=[3, 5, 7, 11, 13])  # no 2: the whole length
@example(length=10, primes=[5, 7, 31, 37])
def test_engine_agrees_with_oracle_on_any_prime_set(length, primes):
    found = coverable(length, primes)
    offsets = prime_order_cover(length, primes)
    assert (found is not None) == (offsets is not None)
    if found is not None:
        assert found.is_valid()


def _decides_like_the_oracle_on_the_half(length, primes):
    """coverable against prime_order_cover on the set and, for the halving
    lemma, on ``length // 2`` positions without 2."""
    found = coverable(length, primes)
    assert found is None or found.is_valid(), (length, primes)
    odd = [p for p in primes if p != 2]
    assert ((found is not None)
            == (prime_order_cover(length, primes) is not None)
            == (prime_order_cover(length // 2, odd) is not None)), (
                length, primes)
    return found is not None


def test_halving_lemma_against_the_oracle():
    rng = random.Random(20261018)
    odd_primes = primes_upto(60)[1:]
    verdicts = set()
    for _ in range(1500):
        primes = [2] + rng.sample(odd_primes, rng.randint(0, 8))
        verdicts.add(_decides_like_the_oracle_on_the_half(rng.randrange(40),
                                                          primes))
    assert verdicts == {True, False}
    # {2} alone covers only a single position
    assert [_decides_like_the_oracle_on_the_half(length, [2])
            for length in range(5)] == [True, True, False, False, False]
    for primes in ([2, 3], [2, 59], [2, 3, 5, 7]):
        for length in (0, 1, 2):
            assert _decides_like_the_oracle_on_the_half(length, primes)


def test_g_of_twice_an_odd_number_is_twice_g():
    for m in range(1, 200, 2):
        g = g_of(m).g
        assert g_of(2 * m).g == 2 * g == g_exhaustive(2 * m), m
        if m > 1:  # the engine, on the prime set of 2m
            length, _ = max_cover_length((2,) + factorize(m).primes())
            assert length + 1 == 2 * g, m


def test_lower_bound_check_is_an_error_not_an_assert(monkeypatch):
    # the walk checks the cover it starts from, under python -O too
    def broken(ps):
        return CoverAssignment(ps, (1,) * len(ps), 2 * ps[-2] - 1)

    monkeypatch.setattr(cover, "_elementary_cover", broken)
    with pytest.raises(JacobsthalError, match="^internal: start cover "):
        max_cover_length(first_primes(5))


def test_self_check_is_an_error_not_an_assert(monkeypatch):
    # must hold under python -O too, so it cannot be an assert
    monkeypatch.setattr(cover._Search, "search",
                        lambda self: {p: 0 for p in self.primes})
    with pytest.raises(JacobsthalError):
        coverable(13, first_primes(5))


def test_max_cover_length_matches_direct_scan_oracle():
    for k in range(1, 8):
        length, assignment = max_cover_length(first_primes(k))
        assert length + 1 == g_exhaustive(primorial(k)), k
        assert assignment.is_valid()
        assert assignment.length == length


def test_max_cover_length_non_prefix_sets():
    length, assignment = max_cover_length((3, 5))
    assert length == 2
    assert assignment.is_valid()
    length, _ = max_cover_length((2,))
    assert length == 1


def test_remark_values_for_small_k():
    length, _ = max_cover_length(first_primes(5))
    assert length + 1 == 14
    length, _ = max_cover_length(first_primes(10))
    assert length + 1 == 46


def test_budget_is_an_error_not_a_verdict():
    with pytest.raises(BudgetExceeded):
        coverable(45, first_primes(10), budget=SearchBudget(max_nodes=2))
    with pytest.raises(BudgetExceeded):
        coverable(46, first_primes(10),
                  budget=SearchBudget(max_seconds=1e-9))
    # a search of fewer than 1024 nodes still notices an expired budget
    with pytest.raises(BudgetExceeded):
        coverable(45, first_primes(10),
                  budget=SearchBudget(max_seconds=1e-9))


def test_budget_bounds_the_whole_walk():
    # one budget covers every search of a walk, not each search on its own:
    # the k = 17 walk spends PINNED_WALK_NODES[17] nodes in all, 70,332 of
    # them in its largest search
    ps, spent = first_primes(17), PINNED_WALK_NODES[17]
    for max_nodes in (70_400, spent - 1):
        budget = SearchBudget(max_nodes=max_nodes)
        with pytest.raises(BudgetExceeded,
                           match=f"passed {max_nodes} nodes$"):
            max_cover_length(ps, budget)
        assert budget == SearchBudget(max_nodes=max_nodes)  # left as it was
    assert max_cover_length(ps, SearchBudget(max_nodes=spent))[0] == 117


def test_a_stopped_search_keeps_its_node_count():
    # the walk's allowance counts every node, the one that stops it too
    allowance = cover._Allowance(SearchBudget(max_nodes=5))
    with pytest.raises(BudgetExceeded, match="passed 5 nodes$"):
        coverable(45, first_primes(10), budget=allowance)
    assert allowance.spent == 6
    allowance = cover._Allowance(SearchBudget(max_seconds=1e-9))
    with pytest.raises(BudgetExceeded, match="time budget$"):
        coverable(45, first_primes(10), budget=allowance)
    assert allowance.spent >= 1


@contextlib.contextmanager
def _checking_count_tables():
    """While open, each _Search._capacity_prune call first checks that
    every count table it may read, that of a prime in ``rem`` whose
    incoming cap is above 2, equals the popcounts it caches.  Yields the
    list of primes checked."""
    checked = []
    prune = cover._Search._capacity_prune

    def checking_prune(self, uncov, rem, caps, need):
        for i in rem:
            if caps[i] > 2:
                base = self.bases[i]
                assert self.counts[i] == [((base << c) & uncov).bit_count()
                                          for c in range(self.primes[i])], i
                checked.append(self.primes[i])
        return prune(self, uncov, rem, caps, need)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover._Search, "_capacity_prune", checking_prune)
        yield checked


def _at_the_h_searches(test):
    """Both searches that decide h(k) for k <= 12, as explicit examples."""
    for k, h in sorted(COMPUTED_ROWS + REMARK_ROWS):
        if k <= 12:
            for length in (h - 1, h):
                test = example(length=length,
                               primes=list(first_primes(k)))(test)
    return test


@given(length=st.integers(min_value=1, max_value=40),
       primes=st.lists(st.sampled_from(PRIMES_TO_37), min_size=1,
                       max_size=len(PRIMES_TO_37), unique=True))
@_at_the_h_searches
def test_count_tables_equal_what_they_cache(length, primes):
    # _shift keeps counts[i][c] = |(bases[i] << c) & uncov| while branches
    # cover positions and give them back; the pinned node counts only
    # catch an upkeep error that changes the search path
    with _checking_count_tables():
        coverable(length, primes)


def test_count_table_check_reads_tables():
    # the check above is not vacuous: the searches that decide h(k) for
    # k <= 12 read the tables of every prime that has one
    checked = set()
    for k, h in sorted(COMPUTED_ROWS + REMARK_ROWS):
        if k <= 12:
            for length in (h - 1, h):
                with _checking_count_tables() as primes:
                    coverable(length, first_primes(k))
                checked.update(primes)
    assert checked == {3, 5, 7, 11, 13}


def test_witness_integer_least_positive():
    # the canonical length-13 cover by the first five primes
    assignment = CoverAssignment((2, 3, 5, 7, 11), (0, 0, 1, 5, 7), 13)
    assert assignment.is_valid()
    witness = witness_integer(assignment)
    assert witness.start == 114
    assert verify_cover(114, 13, (2, 3, 5, 7, 11))
    # all-zero offsets must give the modulus, not zero
    bump = witness_integer(CoverAssignment((2, 3), (0, 0), 1))
    assert bump.start == 6


def test_least_witness_pinned_and_bounds():
    assert least_witness(first_primes(5)) == CoverWitness(114, 13)
    assert least_witness((2, 3)) == CoverWitness(2, 3)
    assert least_witness(first_primes(9)) is None  # period too large


@functools.cache
def _first_longest_runs():
    """``{k: (start, length)}`` from the whole-period reference, k <= 7."""
    return {k: first_longest_run(primorial(k)) for k in range(1, 8)}


@pytest.mark.parametrize("window", [26, 27, 40, 1 << 16])
def test_least_witness_matches_the_whole_period_scan(monkeypatch, window):
    # the longest run for k <= 7 is 25 long, so a 26-byte window is the
    # smallest that holds it and the coprime position before it
    monkeypatch.setattr(arith, "_RUN_WINDOW", window)
    h = dict(COMPUTED_ROWS + REMARK_ROWS)
    for k, (start, length) in _first_longest_runs().items():
        assert length == h[k] - 1, k
        assert arith.first_longest_run(first_primes(k)) == (start, length), k
        assert least_witness(first_primes(k)) == CoverWitness(start,
                                                              length), k


def test_least_witness_is_the_run_g_of_finds():
    # g(P_k) = h(k): the h and g commands report the run of one scan
    for k in range(1, 9):
        res = g_of(primorial(k))
        assert least_witness(first_primes(k)) == CoverWitness(
            res.witness_start, res.witness_length), k


def test_least_witness_holds_a_window_not_the_period():
    # a gate that does not depend on the machine: the flags of the whole
    # period of P_8 took 19.4 MB
    primes = first_primes(8)
    tracemalloc.start()
    try:
        witness = least_witness(primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == CoverWitness(60044, 33)
    assert peak < 1_000_000


def _agrees_with_reference(start, length, ps):
    """verify_cover, and is_valid with each offset moved out of [0, p) by a
    different multiple of p, against the gcd-per-position reference."""
    expected = shares_factor_throughout(start, length, ps)
    assert verify_cover(start, length, ps) is expected, (start, length, ps)
    offsets = tuple(-start % p + (i % 5 - 2) * p for i, p in enumerate(ps))
    assert CoverAssignment(ps, offsets, length).is_valid() is expected
    return expected


def test_verify_cover():
    assert verify_cover(2, 3, (2, 3))  # 2, 3, 4
    assert not verify_cover(2, 4, (2, 3))  # 5 is coprime to 6
    assert verify_cover(90, 0, (2, 3))  # empty run
    # covered windows and the same windows shifted by one
    verdicts = set()
    for n in range(3, 16):
        ps = first_primes(n)
        witness = elementary_lower_witness(n)
        for start in (witness.start - 1, witness.start, witness.start + 1):
            verdicts.add(_agrees_with_reference(start, witness.length, ps))
    assert verdicts == {True, False}
    # short windows, negative starts and primes longer than the window
    ps = first_primes(6)
    assert {_agrees_with_reference(start, length, ps)
            for start in range(-40, 40) for length in range(8)} == {True, False}


def test_elementary_lower_witness_is_fast():
    # its self-check marks each prime's class once; a gcd with the
    # primorial per position took about ten seconds
    started = time.perf_counter()
    witness = elementary_lower_witness(5000)
    assert time.perf_counter() - started < 2
    assert witness.length == 2 * nth_prime(4999) - 1


# SHA-256 of "n start length\n" for the witnesses of n = 3..200
ELEMENTARY_WITNESSES_SHA256 = (
    "fcc1a971614c5382cf52cb779e45fcce933720fa9fe908431d3cccfb4e042643")


def test_elementary_lower_witness():
    pinned = {3: (2, 5), 4: (2, 9), 5: (114, 13)}
    for n, (start, length) in pinned.items():
        witness = elementary_lower_witness(n)
        assert (witness.start, witness.length) == (start, length)
    digest = hashlib.sha256()
    for n in range(3, 201):
        witness = elementary_lower_witness(n)
        digest.update(f"{n} {witness.start} {witness.length}\n".encode())
    assert digest.hexdigest() == ELEMENTARY_WITNESSES_SHA256
    for n in range(3, 21):
        witness = elementary_lower_witness(n)
        ps = first_primes(n)
        assert witness.length == 2 * ps[-2] - 1
        assert verify_cover(witness.start, witness.length, ps)
    with pytest.raises(ValueError):
        elementary_lower_witness(2)


def test_cover_assignment_helpers():
    # 2 at offset 0 and 3 at offset 2 cover position 0 and not position 1
    assert CoverAssignment((2, 3), (0, 2), 1).is_valid()
    for length in (2, 4):
        assert not CoverAssignment((2, 3), (0, 2), length).is_valid(), length


# --- the known-h table -------------------------------------------------------

def _rows(table):
    return [(k, table.get(k).h, table.get(k).source) for k in table.ks()]


def test_default_table_ships_the_known_rows():
    # a fresh load, not the shared fixture: other tests may legitimately
    # have cached computed entries into that instance
    table = default_h_table()
    assert _rows(table) == sorted(
        [(k, h, "paper") for k, h in REMARK_ROWS]
        + [(k, h, "computed") for k, h in COMPUTED_ROWS])


def test_parse_accepts_comments_and_blank_lines():
    table = _parse_h_table([
        "# heading", "", "  5 , 14 , paper", "3,6,computed",
        "7,26,computed",
    ])
    assert _rows(table) == [(3, 6, "computed"), (5, 14, "paper"),
                            (7, 26, "computed")]


@pytest.mark.parametrize("line, fragment", [
    ("5,14", "expected 'k,h,source'"),
    ("5,fourteen,paper", "must be integers"),
])
def test_parse_errors_carry_line_numbers(line, fragment):
    with pytest.raises(TableParseError) as err:
        _parse_h_table(["# comment", line])
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize("line, fragment", [
    ("5,3,paper", "h(5) = 3 violates the elementary bound 2*p_4 = 14"),
    ("0,14,paper", "index k must be >= 1, got 0"),
    ("5,14,guessed", "unknown source 'guessed'"),
    ("5,14,ingested", "unknown source 'ingested'"),
], ids=["below-the-bound", "k-zero", "unknown-source", "ingested-source"])
def test_rows_the_table_refuses_carry_line_numbers(line, fragment):
    with pytest.raises(TableValidationError) as err:
        _parse_h_table(["1,2,computed", line])
    assert str(err.value) == f"line 2: {fragment}"


def test_parse_rejects_duplicate_k():
    with pytest.raises(TableParseError) as err:
        _parse_h_table(["5,14,paper", "5,14,paper"])
    assert "duplicate entry for k = 5" in str(err.value)
    assert "line 2" in str(err.value)


def test_validation_rejects_impossible_h():
    with pytest.raises(TableValidationError):
        _parse_h_table(["5,10,paper"])  # h(5) >= 2*p_4 = 14
    table = KnownHTable()
    with pytest.raises(TableValidationError):
        table.set(0, 5, "paper")
    with pytest.raises(TableValidationError):
        table.set(1, 1, "paper")
    with pytest.raises(TableValidationError):
        table.set(5, 14, "folklore")
    # h(3) = 6, so a witness run must have length 5
    with pytest.raises(TableValidationError, match="witness length 4"):
        table.set(3, 6, HSOURCE_COMPUTED,
                  witness=CoverWitness(2, 4))


def test_packaged_table_file_is_ascii():
    # load_h_table opens every table file as ASCII, the packaged one too:
    # one byte past 0x7f would make default_h_table raise
    data = (Path(cover.__file__).parent / "data" / "h_table.txt").read_bytes()
    assert data and data.isascii()


def test_h_of_sources_and_caching():
    table = KnownHTable()
    h, source = h_of(3, table)
    assert (h, source) == (6, HSOURCE_COMPUTED)
    entry = table.get(3)
    assert entry.witness is not None
    assert verify_cover(entry.witness.start, entry.witness.length,
                        first_primes(3))
    # second call hits the table
    assert h_of(3, table) == (6, HSOURCE_COMPUTED)


def test_h_of_tabulated_and_refusals(shipped_table):
    assert h_of(5, shipped_table) == (14, "paper")
    with pytest.raises(Unavailable):
        h_of(4, KnownHTable(), max_compute_k=0)
    with pytest.raises(Unavailable):
        h_of(13, KnownHTable(), max_compute_k=12)
    with pytest.raises(ValueError):
        h_of(0, shipped_table)


@pytest.mark.parametrize("record, field", [
    (HEntry(6, HSOURCE_COMPUTED), "h"),
    (CoverWitness(2, 5), "start"),
    (SearchBudget(), "max_nodes"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    # a changed copy comes from _replace and leaves the record as it was
    assert getattr(record._replace(**{field: 1}), field) == 1
    assert getattr(record, field) != 1


def test_records_keep_their_defaults_and_repr():
    assert SearchBudget(max_nodes=5) == SearchBudget(5, None)
    assert HEntry(6, "paper").witness is None
    assert repr(SearchBudget(max_nodes=5)) == (
        "SearchBudget(max_nodes=5, max_seconds=None)")
    assert repr(CoverWitness(2, 5)) == "CoverWitness(start=2, length=5)"


def test_coverable_refuses_a_search_too_large_to_hold(monkeypatch):
    # past 2^17 positions (after halving) or 2^25 primes times positions
    # the search is refused before it is built; the stand-in records what
    # gets built.  A prime far beyond the length marks one position, and
    # its base mask is built without forming 2^p.
    assert coverable(cover._MAX_POSITIONS, (10**18 + 3,)) is None

    class Built(Exception):
        pass

    def search(length, primes, allowance):
        raise Built(length, len(primes) * length)

    monkeypatch.setattr(cover, "_Search", search)
    refused = [(10**11, first_primes(3)), (10**5000, first_primes(3)),
               (2 * cover._MAX_POSITIONS + 2, first_primes(3)),
               (2 * cover._MAX_POSITIONS, first_primes(258))]
    for length, primes in refused:
        with pytest.raises(BudgetExceeded):
            coverable(length, primes)
    # the largest probe of the k = 200 walk still runs: 9,807 positions
    # for 199 odd primes
    with pytest.raises(Built) as built:
        coverable(19615, first_primes(200))
    assert built.value.args == (9807, 199 * 9807)
    with pytest.raises(Built):
        coverable(2 * cover._MAX_POSITIONS + 1, first_primes(3))
    with pytest.raises(Built):
        coverable(2 * cover._MAX_POSITIONS, first_primes(257))


def test_the_search_keeps_no_per_offset_masks():
    # one base mask per prime: the k = 140, U = 8540 search over 4,270
    # positions holds about 0.8 MB, where a mask per offset took 30.8 MB
    tracemalloc.start()
    try:
        cover._Search(4270, first_primes(140)[1:], cover._Allowance(None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_h_of_budget_propagates():
    with pytest.raises(BudgetExceeded):
        h_of(10, KnownHTable(), budget=SearchBudget(max_nodes=2))


def test_h_of_computes_a_shared_miss_once(monkeypatch):
    calls = []
    search = cover.max_cover_length

    def slow_search(*args, **kwargs):
        calls.append(args)
        time.sleep(0.05)  # hold the miss open while the other thread looks
        return search(*args, **kwargs)

    monkeypatch.setattr(cover, "max_cover_length", slow_search)
    table = KnownHTable()
    results = []
    threads = [threading.Thread(target=lambda: results.append(h_of(10, table)))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert results == [(46, HSOURCE_COMPUTED)] * 2
    assert len(calls) == 1
