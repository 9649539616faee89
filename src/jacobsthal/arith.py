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
# A composite below 43**2 has a prime factor <= 41, a witness itself.
_TRIAL_LIMIT = 43 * 43

_SIEVE_CAP = 80_000_000  # largest bound primes_upto will sieve
RUN_SIEVE_LIMIT = 20_000_000  # largest range g_of and least_witness sieve
_NTH_CAP = 4_000_000  # largest index nth_prime will serve
_TRIAL_BOUND = 100_000  # factorize divides out the primes up to this
_RHO_STEPS = 1_000_000  # Pollard rho steps factorize spends per split
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
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((bound - p * p) // p + 1)
    return tuple(compress(range(bound + 1), flags))


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
        raise BudgetExceeded(f"prime index {k} beyond supported cap {_NTH_CAP}")
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


def shared_factor_flags(primes, limit: int) -> bytearray:
    """flags[i] == 1 iff some p in primes divides i, for 0 <= i <= limit."""
    flags = bytearray(limit + 1)
    for p in primes:
        flags[p::p] = b"\x01" * (limit // p)
    return flags


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
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT:
        return True
    if n >= _MR_LIMIT:
        raise BudgetExceeded(f"{n} exceeds the deterministic primality range")
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
    product is checked against ``n``.  Hard leftovers (e.g. wide semiprimes)
    raise :class:`BudgetExceeded` rather than stall.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n == 1:
        return Factorization(1, ())
    counts: dict[int, int] = {}
    m = n
    for p in primes_upto(_TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    pending = [m] if m > 1 else []
    while pending:
        v = pending.pop()
        if v == 1:
            continue
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _rho_brent(v, _RHO_STEPS)
        if d is None or d == v:
            raise BudgetExceeded(f"failed to split composite {v} within budget")
        pending.extend((d, v // d))
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


def _decimal_to_int(text: str) -> int:
    """``int(text)`` for a string of optional '-' and digits, of any length."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_decimal_to_int(text[1:])
    low_digits = len(text) // 2
    return (_decimal_to_int(text[:-low_digits]) * 10 ** low_digits
            + _decimal_to_int(text[-low_digits:]))
