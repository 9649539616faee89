"""Longest runs of consecutive integers sharing a factor with n.

``g_of(n)`` is the classical Jacobsthal function: the least m such that any
m consecutive integers contain one coprime to n.  It depends only on the
radical of n, so the scan works over one period of rad(n).
"""

from __future__ import annotations

from typing import NamedTuple

from . import cover
from .arith import RUN_SIEVE_LIMIT, factorize, shared_factor_flags
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


def _first_longest_run(flags: bytearray) -> tuple[int, int]:
    """``(length, start)`` of the first longest run of 1 bytes in ``flags``,
    which must hold at least one.

    ``find`` gives the first run at least a given length long, and a run
    that long starts no earlier than one of any shorter length: so double
    the length while such a run exists, then bisect.  Among runs of the
    longest length, the first one found is the first maximal run.
    """
    length, start = 1, flags.find(1)
    while (at := flags.find(b"\x01" * (2 * length), start)) >= 0:
        length, start = 2 * length, at
    absent = 2 * length  # no run is this long
    while absent - length > 1:
        mid = (length + absent) // 2
        at = flags.find(b"\x01" * mid, start)
        if at < 0:
            absent = mid
        else:
            length, start = mid, at
    return length, start


def g_of(n: int, *,
         budget: "cover.SearchBudget | None" = None) -> GapScanResult:
    """Compute g(n) with a maximal witness run.

    Small radicals are scanned directly, which also yields the run with the
    smallest positive start.  When rad(n) exceeds ``RUN_SIEVE_LIMIT`` but n
    has few distinct primes, the exact cover engine takes over; its witness
    is deterministic and verified but not necessarily the least one.
    """
    if n < 1:
        raise ValueError(f"g(n) is defined for n >= 1, got {n}")
    fac = factorize(n)
    rad = fac.radical()
    if rad == 1:
        return GapScanResult(n, 1, 1, 0)
    primes = fac.primes()
    if rad <= RUN_SIEVE_LIMIT:
        # rad >= 2 always has the run ending at rad
        length, start = _first_longest_run(shared_factor_flags(primes, rad))
        return GapScanResult(n, length + 1, start, length)
    if len(primes) > MAX_SUPPORT:
        raise BudgetExceeded(
            f"rad(n) = {rad} exceeds the scan limit and n has {len(primes)} "
            f"distinct primes (engine handles at most {MAX_SUPPORT})")
    length, assignment = cover.max_cover_length(primes, budget=budget)
    witness = cover.witness_integer(assignment)
    return GapScanResult(n, length + 1, witness.start, length)

