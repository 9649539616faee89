"""Longest runs of consecutive integers sharing a factor with n.

``g_of(n)`` is the classical Jacobsthal function: the least m such that any
m consecutive integers contain one coprime to n.  It depends only on the
radical of n, so the scan works over one period of rad(n).
"""

from __future__ import annotations

from typing import NamedTuple

from . import cover
from .arith import decimal_excerpt, factorize, first_longest_run
from .errors import BudgetExceeded

MAX_SUPPORT = 25


class GapScanResult(NamedTuple):
    """Value of g(n) plus the witness run of ``g - 1`` non-coprime integers.

    Both neighbors of the run (``witness_start - 1`` and
    ``witness_start + witness_length``) are coprime to n; for ``g == 1``
    the run is empty.
    """

    n: int
    g: int
    witness_start: int
    witness_length: int


def g_of(n: int, *,
         budget: "cover.SearchBudget | None" = None) -> GapScanResult:
    """Compute g(n) with a maximal witness run.

    Small radicals are scanned by ``arith.first_longest_run``, one window
    of flags at a time, which yields the run with the smallest positive
    start.  When rad(n) exceeds ``RUN_SIEVE_LIMIT`` but n has few distinct
    primes, the exact cover engine takes over; its witness is
    deterministic and verified but not necessarily the least one.
    """
    if n < 1:
        raise ValueError(f"g(n) is defined for n >= 1, got {n}")
    fac = factorize(n)
    primes = fac.primes()
    run = first_longest_run(primes)
    if run is None:
        if len(primes) > MAX_SUPPORT:
            raise BudgetExceeded(
                f"rad(n) = {decimal_excerpt(fac.radical())} exceeds the scan "
                f"limit and n has {len(primes)} distinct primes (engine "
                f"handles at most {MAX_SUPPORT})")
        length, assignment = cover.max_cover_length(primes, budget=budget)
        run = cover.witness_integer(assignment).start, length
    start, length = run
    return GapScanResult(n, length + 1, start, length)
