"""Exact integer arithmetic: CRT, primes, primorials, factoring.

Everything here works with arbitrary-precision integers and is deterministic.
Operations that could run away on absurd input take explicit caps and raise
:class:`~jacobsthal.errors.BudgetExceeded` instead of silently grinding.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from itertools import accumulate, compress
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceeded, JacobsthalError, NonCoprimeModuli

# Deterministic Miller-Rabin witness set: the first 13 primes decide
# primality correctly for every n below this bound (Sorenson/Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# is_prime's trial step is one gcd with the witnesses' product, which is not
# 1 exactly when a witness divides n; and a composite below 43**2 has a
# prime factor <= 41, a witness itself.
_WITNESS_PRODUCT = 304_250_263_527_210
_TRIAL_LIMIT = 43 * 43

_SIEVE_CAP = 80_000_000  # largest bound primes_upto will sieve
# largest period first_longest_run scans: it bounds the scan's time, since
# the scan holds one window of flags at a time, not the period
RUN_SIEVE_LIMIT = 20_000_000
_RUN_WINDOW = 1 << 16  # flag bytes a scan window holds at most
_NTH_CAP = 4_000_000  # largest index nth_prime will serve
_TRIAL_BOUND = 100_000  # factorize divides out the primes up to this
_RHO_STEPS = 1_000_000  # Pollard rho steps factorize spends per split
# factorize tests and splits only smaller cofactors: one Miller-Rabin round
# takes 0.3 ms at 100 digits, but 11 s at 4928
_RHO_LIMIT = 10 ** 100
# primorial keeps P_0 .. P_64, built on first use; verify_certificate tests
# c, m and prime against the first k primes in blocks of this many primes.
_COPRIME_BLOCK = 64
_primorials: tuple[int, ...] = ()


def crt_solve(congruences) -> tuple[int, int]:
    """Solve ``x ≡ r_i (mod m_i)`` for pairwise coprime moduli.

    Returns ``(c, M)`` where ``M`` is the product of the moduli and ``c`` is
    the least nonnegative solution.  An empty system yields ``(0, 1)``.
    Raises :class:`NonCoprimeModuli` when two moduli share a factor.
    """
    c, modulus = 0, 1
    for residue, m in congruences:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        r = modulus % m
        g = math.gcd(r, m)
        if g != 1:
            raise NonCoprimeModuli(f"moduli are not pairwise coprime (gcd {g})")
        # c' = c (mod modulus), c' = residue (mod m)
        t = ((residue - c) * pow(r, -1, m)) % m
        c = c + modulus * t
        modulus *= m
    return c % modulus, modulus


# --- prime generation -------------------------------------------------------

# The primes sieved so far, ascending, in one immutable tuple: first_primes
# hands out slices of it, and a larger sieve swaps in a new tuple.
_prime_lock = threading.Lock()
_primes: tuple[int, ...] = ()
_sieved_to = 1


def _sieve(bound: int) -> tuple[int, ...]:
    """The sieved primes extended to ``bound``.  Only the new segment
    ``(_sieved_to, bound]`` is sieved: the primes already held strike out
    their multiples there, and a prime of the segment up to ``isqrt(bound)``
    (found only when the store is short of that root) strikes out its
    own, as a sieve from 0 would.  Called under ``_prime_lock``."""
    lo = _sieved_to + 1
    root = math.isqrt(bound)
    flags = bytearray([1]) * (bound - lo + 1)
    for p in _primes[:bisect_right(_primes, root)]:
        first = max(p * p, -(-lo // p) * p) - lo
        flags[first::p] = b"\x00" * ((bound - lo - first) // p + 1)
    for p in range(lo, root + 1):
        if flags[p - lo]:
            first = p * p - lo
            flags[first::p] = b"\x00" * ((bound - lo - first) // p + 1)
    return _primes + tuple(compress(range(lo, bound + 1), flags))


def _ensure_sieved(bound: int) -> None:
    global _primes, _sieved_to
    if bound <= _sieved_to:
        return
    if bound > _SIEVE_CAP:
        raise BudgetExceeded(f"refusing to sieve beyond {_SIEVE_CAP}")
    with _prime_lock:
        if bound > _sieved_to:
            target = max(bound, min(2 * _sieved_to, _SIEVE_CAP), 1 << 10)
            # swap in a fresh tuple so concurrent readers see a consistent one
            _primes = _sieve(target)
            _sieved_to = target


def primes_upto(bound: int) -> list[int]:
    """All primes ``<= bound`` in ascending order."""
    if bound < 2:
        return []
    _ensure_sieved(bound)
    table = _primes
    return list(table[: bisect_right(table, bound)])


def nth_prime(k: int) -> int:
    """The k-th prime, 1-indexed: ``nth_prime(1) == 2``."""
    if k < 1:
        raise ValueError(f"prime index must be >= 1, got {k}")
    if k > _NTH_CAP:
        raise BudgetExceeded(f"prime index {decimal_excerpt(k)} beyond "
                             f"supported cap {_NTH_CAP}")
    if k <= len(_primes):
        return _primes[k - 1]
    # Rosser-style upper bound on p_k, padded for small k
    est = 100 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
    _ensure_sieved(est)
    while k > len(_primes):  # estimate was short (should not happen)
        _ensure_sieved(_sieved_to * 2)
    return _primes[k - 1]


def first_primes(k: int) -> tuple[int, ...]:
    """The first ``k`` primes as a tuple: a slice of the sieved primes."""
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    if k == 0:
        return ()
    nth_prime(k)
    return _primes[:k]


def validated_primes(primes) -> tuple[int, ...]:
    """``primes`` as a sorted tuple, once they are known to be distinct
    primes.  A tuple equal to the first primes already sieved, such as
    ``first_primes(k)``, is returned as it is after one comparison (no
    sieving, so no ``BudgetExceeded``); any other set is checked."""
    if isinstance(primes, tuple) and primes == _primes[:len(primes)]:
        return primes
    ps = tuple(sorted(primes))
    if len(set(ps)) != len(ps):
        raise ValueError("primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return ps


def shared_factor_windows(primes, limit: int):
    """Yield ``(offset, flags)`` windows that tile ``0..limit`` in order:
    ``flags[i] == 1`` iff some p in primes divides ``offset + i``, except
    at position 0, which stays 0.  Every window but the last ends on a
    position coprime to the primes, so no run of 1s crosses from one window
    into the next; a window of ``_RUN_WINDOW`` bytes holding no such
    position raises :class:`JacobsthalError`.
    """
    offset = 0
    while offset <= limit:
        end = min(offset + _RUN_WINDOW, limit + 1)
        size = end - offset
        flags = bytearray(size)
        for p in primes:
            first = -offset % p
            if first < size:
                flags[first::p] = b"\x01" * ((size - 1 - first) // p + 1)
        if offset == 0:
            flags[0] = 0
        if end <= limit:
            last = flags.rfind(0)
            if last < 0:
                raise JacobsthalError(
                    f"internal: no integer in {offset}..{end - 1} is coprime "
                    f"to the primes, so a run is longer than a scan window")
            del flags[last + 1:]
        yield offset, flags
        offset += len(flags)


def first_longest_run(primes) -> tuple[int, int] | None:
    """``(start, length)`` of the first longest run in ``1..prod(primes)``
    of integers each divisible by one of ``primes``; ``(1, 0)`` when there
    is none, and ``None`` when the period exceeds ``RUN_SIEVE_LIMIT``.

    In each window, ``find`` the first run one longer than the best so far
    (it starts a maximal run, as the search starts after a 0), measure it
    up to the next 0 and look again past it.
    """
    period = math.prod(primes)
    if period > RUN_SIEVE_LIMIT:
        return None
    start, length = 1, 0
    for offset, flags in shared_factor_windows(primes, period):
        at = flags.find(b"\x01" * (length + 1))
        while at >= 0:
            end = flags.find(0, at)
            if end < 0:
                end = len(flags)
            start, length = offset + at, end - at
            at = flags.find(b"\x01" * (length + 1), end)
    return start, length


def primorial(k: int) -> int:
    """Product of the first ``k`` primes; P_0 = 1 .. P_64 are kept."""
    global _primorials
    if not 0 <= k <= _COPRIME_BLOCK:  # first_primes raises for k < 0
        return math.prod(first_primes(k))
    if not _primorials:
        _primorials = tuple(accumulate(first_primes(_COPRIME_BLOCK), mul,
                                       initial=1))
    return _primorials[k]


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for ``n < 3.3e24``.

    Inputs past the proven witness range raise :class:`BudgetExceeded`
    rather than return a probabilistic answer.
    """
    if n < 2:
        return False
    if math.gcd(n, _WITNESS_PRODUCT) != 1:
        return n in _MR_WITNESSES
    if n < _TRIAL_LIMIT:
        return True
    if n >= _MR_LIMIT:
        raise BudgetExceeded(f"{decimal_excerpt(n)} exceeds the deterministic "
                             "primality range")
    return _passes_every_round(n)


def _passes_every_round(n: int) -> bool:
    """Whether an odd ``n > 41`` passes the Miller-Rabin round of each
    witness: a failed round proves n composite."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(NamedTuple):
    """Prime factorization ``base = ∏ p**e`` with ascending distinct primes."""

    base: int
    factors: tuple[tuple[int, int], ...]

    def radical(self) -> int:
        return math.prod(self.primes())

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def product(self) -> int:
        return math.prod(p**e for p, e in self.factors)


def _rho_brent(n: int, max_steps: int) -> int | None:
    # Brent's cycle variant of Pollard rho; deterministic seed ladder.
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        steps = 0
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            steps += r
            if steps > max_steps:
                return None
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1`` by trial division, then verified Pollard rho.

    Every reported prime is confirmed with the deterministic test and the
    product is checked against ``n``.  Past the test's range, a cofactor
    goes to rho once a Miller-Rabin round proves it composite.  Hard
    leftovers (wide semiprimes, a cofactor that passes every round) raise
    :class:`BudgetExceeded` rather than stall.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n == 1:
        return Factorization(1, ())
    counts: dict[int, int] = {}
    m = n
    for p in primes_upto(min(_TRIAL_BOUND, math.isqrt(n))):
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    pending = [m] if m > 1 else []
    while pending:
        v = pending.pop()
        if v < _MR_LIMIT and is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        # past _MR_LIMIT, v has no factor up to _TRIAL_BOUND: the rounds apply
        if v >= _MR_LIMIT and (v >= _RHO_LIMIT or _passes_every_round(v)):
            failure = "is past the deterministic primality range"
        elif (d := _rho_brent(v, _RHO_STEPS)) is None:
            failure = "did not split within budget"
        else:
            pending.extend((d, v // d))
            continue
        raise BudgetExceeded(f"cannot factor {decimal_excerpt(n)}: a "
                             f"{len(int_to_decimal(v))}-digit cofactor "
                             f"{failure}")
    factors = tuple(sorted((p, e) for p, e in counts.items()))
    result = Factorization(n, factors)
    if result.product() != n:
        raise JacobsthalError(f"internal: factors of {n} multiply to "
                              f"{result.product()}")
    return result


# --- decimal text -----------------------------------------------------------

# Python refuses int <-> str conversions past 4300 digits by default, and a
# cw certificate's c reaches about 45.3k digits at k = 10000, so longer
# numbers are converted in pieces below that limit.
_PIECE_DIGITS = 4000
# most digits a message shows of one number
_EXCERPT_DIGITS = 40


def int_to_decimal(n: int) -> str:
    """``str(n)`` for an int of any size, whatever the interpreter's digit
    limit."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _PIECE_DIGITS * 3:  # under _PIECE_DIGITS digits
        return str(n)
    low_digits = n.bit_length() * 3 // 20  # about half of the digit count
    high, low = divmod(n, 10 ** low_digits)
    return int_to_decimal(high) + int_to_decimal(low).zfill(low_digits)


def decimal_excerpt(n: int) -> str:
    """``str(n)`` when it has at most 40 digits, else its first 40 digits
    and the digit count, so a message can name a number of any size.  One
    division finds both: ``s <= log10(n)`` (0.30102999 < log10(2)), so
    ``n // 10**(s - 39)`` keeps 40 or more leading digits of n."""
    if n < 0:
        return "-" + decimal_excerpt(-n)
    if n < 10 ** _EXCERPT_DIGITS:
        return str(n)
    s = (n.bit_length() - 1) * 30102999 // 10**8
    head = str(n // 10 ** (s - _EXCERPT_DIGITS + 1))
    return (f"{head[:_EXCERPT_DIGITS]}... "
            f"({len(head) + s - _EXCERPT_DIGITS + 1} digits)")


def _decimal_to_int(text: str) -> int:
    """``int(text)`` for a string of optional '-' and digits, of any length."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_decimal_to_int(text[1:])
    low_digits = len(text) // 2
    return (_decimal_to_int(text[:-low_digits]) * 10 ** low_digits
            + _decimal_to_int(text[-low_digits:]))
