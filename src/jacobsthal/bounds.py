"""Provability bounds: how large a modulus d each index k certifies,
``(p_{k+1}**2 - 2) / (h(k) + 1)``, and the one walk over k that every
certify question reads.  Nothing here loads certificate code."""

from __future__ import annotations

from math import ceil, log
from operator import attrgetter
from typing import NamedTuple

from .arith import decimal_excerpt, nth_prime
from .cover import (DEFAULT_MAX_COMPUTE_K, MODE_CW, MODE_UNCONDITIONAL,
                    KnownHTable, h_of)
from .errors import NotProvable, OutOfRange

HSOURCE_CW = "cw"
_new_row = tuple.__new__  # bound's rows skip BoundRow's slower __new__

# Conditional quadratic bound on h(n), verified by computation for
# 50 <= n <= 10000 (natural logarithm).
CW_COEFFICIENT = 0.27749612254
CW_MIN_K = 50
CW_MAX_K = 10000


class BoundRow(NamedTuple):
    """One row of the provability table: with ``h_value`` consecutive
    integers always containing one coprime to the first k primes, every
    eligible progression with ``d <= reach`` gets a certified prime."""

    k: int
    next_prime: int
    h_value: int
    h_source: str
    reach: int  # (p_{k+1}**2 - 2) // (h + 1), the largest d k certifies

    @property
    def text(self) -> str:
        """``(p_{k+1}**2 - 2) / (h + 1)`` to 3 decimals, halves rounded up."""
        den = self.h_value + 1
        scaled = (2000 * (self.next_prime ** 2 - 2) + den) // (2 * den)
        return f"{scaled // 1000}.{scaled % 1000:03d}"


def cw_upper(n: int) -> int:
    """Integer upper bound on h(n) from the conditional quadratic formula,
    valid only for ``50 <= n <= 10000``."""
    if not CW_MIN_K <= n <= CW_MAX_K:
        raise OutOfRange(
            f"the conditional bound holds for {CW_MIN_K} <= n <= {CW_MAX_K}, "
            f"got {decimal_excerpt(n)}")
    # Exact in double precision: on 50..10000 the real value stays 4.8e-5 or
    # more from an integer (closest at n = 7361), over 300 times the float
    # error (6.4e-8 measured, about 1.5e-7 bounded for five roundings).
    return ceil(CW_COEFFICIENT * n * n * log(n))


def _h_at(k: int, table: KnownHTable, mode: str) -> tuple[int, str]:
    """``(h, source)`` for index k under ``mode``: the exact h(k), or the
    conditional formula in cw mode.  ``bound``, and so every row of the
    walk, and verify's h-consistent clause read the bound from here."""
    if mode == MODE_UNCONDITIONAL:
        return h_of(k, table)
    if mode == MODE_CW:
        return cw_upper(k), HSOURCE_CW
    raise ValueError(f"unknown mode {mode!r}")


def bound(k: int, table: KnownHTable, *,
          mode: str = MODE_UNCONDITIONAL) -> BoundRow:
    """The bound row for index k, using the exact h(k) in unconditional
    mode or the conditional formula in cw mode: the one place a row is
    built, for ``bound_table`` and for the walk alike."""
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    h_value, h_source = _h_at(k, table, mode)
    p_next = nth_prime(k + 1)
    return _new_row(BoundRow, (k, p_next, h_value, h_source,
                               (p_next * p_next - 2) // (h_value + 1)))


def bound_table(ks, table: KnownHTable, *,
                mode: str = MODE_UNCONDITIONAL) -> list[BoundRow]:
    return [bound(k, table, mode=mode) for k in ks]


def _bounds(table: KnownHTable, mode: str):
    """The rows ``bound`` builds, in ascending k: the table's k and every k
    up to the compute cap, or cw mode's validity range.  Every certify
    question reads this one walk."""
    ks = (range(CW_MIN_K, CW_MAX_K + 1) if mode == MODE_CW else
          sorted(set(table.ks()).union(range(1, DEFAULT_MAX_COMPUTE_K + 1))))
    for k in ks:  # an unknown mode raises at the first _h_at
        yield bound(k, table, mode=mode)


def _least_row(d: int, table: KnownHTable, mode: str) -> BoundRow:
    """The row of ``_bounds`` at the least k whose bound certifies d."""
    best = 0
    for row in _bounds(table, mode):
        best = max(best, row.reach)
        if best >= d:  # the rows before all reached less than d
            return row
    raise NotProvable(f"no available bound reaches d = {decimal_excerpt(d)} "
                      f"(largest provable: {best})", max_provable_d=best)


def min_k_for(d: int, table: KnownHTable, *,
              mode: str = MODE_UNCONDITIONAL) -> int:
    """Smallest k whose available bound certifies modulus d, scanning k
    ascending over tabulated/computable values (unconditional) or the
    conditional validity range (cw)."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    return _least_row(d, table, mode).k


def max_provable_d(table: KnownHTable, *,
                   mode: str = MODE_UNCONDITIONAL) -> tuple[int, int]:
    """Largest modulus any available bound certifies, with the least index
    that certifies it: the largest reach of the walk ``min_k_for`` and
    ``find_prime`` take, so always the ``max_provable_d`` that their
    NotProvable carries."""
    row = max(_bounds(table, mode), key=attrgetter("reach"))
    return row.reach, row.k
