import random
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from math import prod

from jacobsthal import cover
from jacobsthal.arith import (factorize, first_primes, nth_prime,
                              primes_upto, primorial)
from jacobsthal.cover import (CoverAssignment, CoverWitness, HEntry,
                              HSOURCE_COMPUTED, KnownHTable,
                              SearchBudget, ComputePolicy,
                              coverable, default_h_table,
                              elementary_lower_witness, h_of, least_witness,
                              load_h_table, max_cover_length,
                              verify_cover, witness_integer, _parse_h_table)
from jacobsthal.gaps import g_of
from jacobsthal.errors import (BudgetExceeded, JacobsthalError,
                               TableParseError, TableValidationError,
                               Unavailable)
from oracles import g_exhaustive, prime_order_cover, shares_factor_throughout

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
}


def test_search_path_is_pinned():
    for k, (lstar, offsets) in PINNED_SEARCH.items():
        length, assignment = max_cover_length(first_primes(k))
        assert (length, assignment.offsets) == (lstar, offsets), k


# Nodes the search visits (calls of _Search._tick) in
# max_cover_length(first_primes(k)); a wheel survivor is one node, the
# positions-search root it starts, and so is each capacity check of a
# partial wheel assignment.  A change that only makes a node cheaper must
# leave every count as it is.  Prime 2 never enters the search, so each
# count is that of the odd primes on half the length.
PINNED_NODES = {1: 2, 2: 2, 3: 2, 4: 3, 5: 9, 6: 10, 7: 8, 8: 16, 9: 25,
                10: 147, 11: 100, 12: 216}
# The same count for the walks that decide h(13..17), about 0.4 s in all.
PINNED_WALK_NODES = {13: 1594, 14: 1577, 15: 5575, 16: 18269, 17: 70447}


def test_search_node_counts_are_pinned(monkeypatch):
    nodes = 0
    tick = cover._Search._tick

    def counting_tick(self):
        nonlocal nodes
        nodes += 1
        tick(self)

    monkeypatch.setattr(cover._Search, "_tick", counting_tick)
    for k, expected in {**PINNED_NODES, **PINNED_WALK_NODES}.items():
        nodes = 0
        max_cover_length(first_primes(k))
        assert nodes == expected, k


@pytest.mark.parametrize("k", [11, 12, 13, 14])
def test_wheel_prunes_partial_assignments(k):
    # Both searches that decide h(k) stay far below the thousands of offset
    # combinations of the wheel primes, because the wheel bounds its
    # partial assignments.
    h = dict(COMPUTED_ROWS)[k]
    budget = SearchBudget(max_nodes=5000)
    assert coverable(h - 1, first_primes(k), budget=budget) is not None
    assert coverable(h, first_primes(k), budget=budget) is None


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
    monkeypatch.setattr(cover, "coverable", lambda *args, **kwargs: None)
    with pytest.raises(JacobsthalError):
        max_cover_length(first_primes(5))


def test_self_check_is_an_error_not_an_assert(monkeypatch):
    # must hold under python -O too, so it cannot be an assert
    monkeypatch.setattr(cover._Search, "search_wheel",
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
    witness = least_witness(13, first_primes(5))
    assert (witness.start, witness.length) == (114, 13)
    assert least_witness(3, (2, 3)).start == 2
    assert least_witness(14, first_primes(5)) is None  # no such run exists
    assert least_witness(45, first_primes(10)) is None  # period too large


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


def test_elementary_lower_witness():
    pinned = {3: (2, 5), 4: (2, 9), 5: (114, 13)}
    for n, (start, length) in pinned.items():
        witness = elementary_lower_witness(n)
        assert (witness.start, witness.length) == (start, length)
    for n in range(3, 21):
        witness = elementary_lower_witness(n)
        ps = first_primes(n)
        assert witness.length == 2 * ps[-2] - 1
        assert verify_cover(witness.start, witness.length, ps)
    with pytest.raises(ValueError):
        elementary_lower_witness(2)


def test_cover_assignment_helpers():
    assignment = CoverAssignment((2, 3), (0, 2), 4)
    assert assignment.covers(2)
    assert not assignment.covers(1)
    assert not assignment.is_valid()  # position 1 is uncovered


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
        "7,26,ingested",
    ])
    assert _rows(table) == [(3, 6, "computed"), (5, 14, "paper"),
                            (7, 26, "ingested")]


@pytest.mark.parametrize("line, fragment", [
    ("5,14", "expected 'k,h,source'"),
    ("5,fourteen,paper", "must be integers"),
    ("5,14,guessed", "unknown source"),
])
def test_parse_errors_carry_line_numbers(line, fragment):
    with pytest.raises(TableParseError) as err:
        _parse_h_table(["# comment", line])
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


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
                  witness=least_witness(4, first_primes(3)))


def test_load_h_table_reads_the_packaged_file(shipped_table):
    path = Path(cover.__file__).parent / "data" / "h_table.txt"
    assert _rows(load_h_table(path)) == _rows(shipped_table)


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
        h_of(4, KnownHTable(), ComputePolicy(max_compute_k=0))
    with pytest.raises(Unavailable):
        h_of(13, KnownHTable(), ComputePolicy(max_compute_k=12))
    with pytest.raises(ValueError):
        h_of(0, shipped_table)


@pytest.mark.parametrize("record, field", [
    (HEntry(6, HSOURCE_COMPUTED), "h"),
    (CoverWitness(2, 5), "start"),
    (SearchBudget(), "max_nodes"),
    (ComputePolicy(), "max_compute_k"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    # a changed copy comes from _replace and leaves the record as it was
    assert getattr(record._replace(**{field: 1}), field) == 1
    assert getattr(record, field) != 1


def test_records_keep_their_defaults_and_repr():
    assert SearchBudget(max_nodes=5) == SearchBudget(5, None)
    assert ComputePolicy() == ComputePolicy(12, None)
    assert HEntry(6, "paper").witness is None
    assert repr(SearchBudget(max_nodes=5)) == (
        "SearchBudget(max_nodes=5, max_seconds=None)")
    assert repr(CoverWitness(2, 5)) == "CoverWitness(start=2, length=5)"


def test_h_of_budget_propagates():
    policy = ComputePolicy(budget=SearchBudget(max_nodes=2))
    with pytest.raises(BudgetExceeded):
        h_of(10, KnownHTable(), policy)


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
