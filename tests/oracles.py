"""Independent reference algorithms the tests check the engine against.

They are deliberately plain and share no code with ``jacobsthal.cover`` or
``jacobsthal.gaps``, so a bug in the engine's pruning or sieving cannot
hide in the oracle as well:

- ``prime_order_cover`` decides coverability by assigning offsets prime by
  prime, smallest first, with a simple capacity bound;
- ``g_exhaustive`` scans integers one gcd at a time for the longest run
  sharing a factor with n;
- ``first_longest_run`` scans one period the same way for where the first
  longest such run starts, the reference for ``arith.first_longest_run``
  and so for ``gaps.g_of`` and ``cover.least_witness``;
- ``shared_factor_flags`` sieves one whole period plus slack into a
  single bytearray, the reference for ``arith.shared_factor_windows``;
- ``shares_factor_throughout`` checks a run of integers one gcd at a
  time for each sharing a factor with a prime set, the reference for
  ``verify_cover``;
- ``prime_flags`` sieves the primes below a bound with no shortcut, the
  reference for ``is_prime``;
- ``is_coprime_preserving_on_window`` checks a map ``n -> c + d*n`` one
  input at a time for sending integers coprime to a prime set to images
  coprime to it;
- ``crt_coprime_c`` solves one congruence per prime for the c of that map,
  the reference for ``progressions.coprime_iso``'s closed form;
- ``preimage_scan`` walks the preimages m of the window upward and takes
  one gcd of each with the primorial, the reference for
  ``certify.find_prime``'s scan of the small images;
- ``least_k_walk`` and ``max_d_walk`` walk the bound table from its first
  k on every call, the reference for ``certify.min_k_for`` and
  ``certify.max_provable_d``, which read one walk: cw mode's validity
  range, or in unconditional mode the table's k and every k up to the
  compute cap, computing a missing row there;
- ``refined_two_branch`` picks the sub-progression that avoids a found
  prime by the two-branch rule (the two halves mod 2d for even d, the four
  residues mod 4d sorted and gcd-tested for odd d), the reference for
  ``certify._refined``'s one ascending walk;
- ``certificate_json`` renders a certificate through ``json.dumps`` with
  sorted keys and a two-space indent, the reference for
  ``certify.certificate_to_json``, which formats the same text itself;
- ``is_decimal_integer`` matches a string against the regex ``-?[0-9]+``,
  the reference for the integer fields the certificate reader accepts.
"""

import json
import re
from decimal import Decimal
from math import gcd, prod

import sympy
from sympy.ntheory.modular import crt

from jacobsthal.errors import BudgetExceeded


def prime_order_cover(length: int, primes) -> dict[int, int] | None:
    """Offsets ``{p: c_p}`` such that every position in ``[0, length)`` is
    ≡ c_p (mod p) for some p, or ``None`` when no such offsets exist."""
    ps = sorted(primes)
    full = (1 << length) - 1
    masks = []  # masks[i][c]: positions hit by offset c of ps[i]
    for p in ps:
        base = sum(1 << x for x in range(0, length, p))
        # offsets c >= length hit nothing, so they are never needed
        masks.append([(base << c) & full for c in range(min(p, length))])

    def search(i: int, uncov: int) -> dict[int, int] | None:
        if not uncov:
            return {p: 0 for p in ps[i:]}
        # prune: each remaining prime hits at most its best offset's share
        if sum(max((m & uncov).bit_count() for m in masks[j])
               for j in range(i, len(ps))) < uncov.bit_count():
            return None
        # Equal hit sets give equal subproblems, and an offset hitting
        # nothing new never helps; try the biggest bite first.
        first_offset: dict[int, int] = {}
        for c, mask in enumerate(masks[i]):
            if mask & uncov:
                first_offset.setdefault(mask & uncov, c)
        for hit, c in sorted(first_offset.items(),
                             key=lambda item: -item[0].bit_count()):
            found = search(i + 1, uncov & ~hit)
            if found is not None:
                found[ps[i]] = c
                return found
        return None

    return search(0, full)


def g_exhaustive(n: int, horizon: int | None = None, *,
                 limit: int = 50_000_000) -> int:
    """g(n) by scanning ``1..horizon`` for the longest run of integers
    sharing a factor with n.

    ``horizon`` defaults to ``2 * rad(n)`` and must be at least that, so a
    full period plus slack is always inspected.
    """
    if n < 1:
        raise ValueError(f"g(n) is defined for n >= 1, got {n}")
    rad = prod(sympy.primefactors(n))
    if rad == 1:
        return 1
    if horizon is None:
        horizon = 2 * rad
    if horizon < 2 * rad:
        raise ValueError(f"horizon {horizon} < 2*rad(n) = {2 * rad}")
    if horizon > limit:
        raise BudgetExceeded(f"horizon {horizon} exceeds the scan limit {limit}")
    longest = run = 0
    for x in range(1, horizon + 1):
        if gcd(x, rad) > 1:
            run += 1
            if run > longest:
                longest = run
        else:
            run = 0
    return longest + 1


def first_longest_run(n: int) -> tuple[int, int]:
    """``(start, length)`` of the first longest run in ``1..rad(n)`` of
    integers sharing a factor with n; ``(1, 0)`` when there is none."""
    rad = prod(sympy.primefactors(n))
    best = (1, 0)
    run = 0
    for x in range(1, rad + 1):
        if gcd(x, rad) > 1:
            run += 1
            if run > best[1]:
                best = (x - run + 1, run)
        else:
            run = 0
    return best


def shared_factor_flags(primes, limit: int) -> bytearray:
    """``flags[i] == 1`` iff some p in primes divides i, for
    ``0 < i <= limit``; ``flags[0] == 0``."""
    flags = bytearray(limit + 1)
    for p in primes:
        flags[p::p] = b"\x01" * (limit // p)
    return flags


def shares_factor_throughout(start: int, length: int, primes) -> bool:
    """True iff each of ``start .. start+length-1`` shares a factor with
    the product of ``primes``; an empty run does."""
    modulus = prod(primes)
    return all(gcd(x, modulus) > 1 for x in range(start, start + length))


def prime_flags(limit: int) -> list[bool]:
    """``flags[n]`` is True iff n is prime, for ``0 <= n < limit``, by the
    sieve of Eratosthenes."""
    flags = [n >= 2 for n in range(limit)]
    for p in range(2, limit):
        if flags[p]:
            for multiple in range(p * p, limit, p):
                flags[multiple] = False
    return flags


def is_coprime_preserving_on_window(iso, primes, window: int) -> bool:
    """Check on ``|n| <= window`` that inputs coprime to all of ``primes``
    map to images coprime to them as well.

    Coprimality to the (squarefree) product is periodic, so once the window
    covers a full period the scan drops to one period — same verdict, less
    work — and the verdict then holds for every integer.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    modulus = prod(primes)
    if modulus == 1:
        return True
    if window >= modulus - 1:
        candidates = range(modulus)
    else:
        candidates = range(-window, window + 1)
    d, c = iso.d, iso.c
    for n in candidates:
        if gcd(n, modulus) == 1 and gcd(c + d * n, modulus) != 1:
            return False
    return True


def crt_coprime_c(a: int, d: int, primes) -> int:
    """The least nonnegative c with ``c ≡ a (mod d)`` and ``c ≡ 0 (mod q)``
    for every q in ``primes`` not dividing d, by the Chinese remainder
    theorem over one congruence per prime."""
    moduli = [d] + [q for q in primes if d % q]
    solution = crt(moduli, [a] + [0] * (len(moduli) - 1))
    return int(solution[0]) % int(solution[1])


def preimage_scan(c: int, d: int, k: int) -> int | None:
    """The least m with ``2 <= c + d*m < p_{k+1}**2`` that is coprime to the
    first k primes, or ``None`` when the window holds none."""
    p_next = sympy.prime(k + 1)
    modulus = prod(sympy.primerange(p_next))
    for m in range((1 - c) // d + 1, (p_next * p_next - 1 - c) // d + 1):
        if gcd(m, modulus) == 1:
            return m
    return None


def least_k_walk(d: int, ks, h_at) -> tuple[str, int]:
    """``("k", k)`` for the first k of the ascending ``ks`` with
    ``(p_{k+1}^2 - 2)/(h_at(k) + 1) >= d``, else ``("max", best)`` with the
    largest d any of them reaches.  Looks up h for each k it passes, in
    order, on every call."""
    best = 0
    for k in ks:
        p_next = sympy.sieve[k + 1]
        largest = (p_next * p_next - 2) // (h_at(k) + 1)
        if largest >= d:
            return "k", k
        best = max(best, largest)
    return "max", best


def max_d_walk(ks, h_at) -> tuple[int, int]:
    """The largest d any k of the nonempty ``ks`` reaches, with the first k
    that reaches it."""
    best, best_k = -1, None
    for k in ks:
        p_next = sympy.sieve[k + 1]
        largest = (p_next * p_next - 2) // (h_at(k) + 1)
        if largest > best:
            best, best_k = largest, k
    return best, best_k


def refined_two_branch(a: int, d: int, prime: int) -> tuple[int, int]:
    """``(residue, modulus)`` of the first eligible sub-progression of
    a + dZ, mod 2d for even d and mod 4d for odd d, that misses ``prime``."""
    if d % 2 == 0:
        candidates, new_d = [a, a + d], 2 * d
    else:
        candidates = sorted((a + j * d) % (4 * d) for j in range(4))
        new_d = 4 * d
    for residue in candidates:
        if gcd(residue, new_d) == 1 and prime % new_d != residue % new_d:
            return residue % new_d, new_d
    raise AssertionError(f"no refinement of {a}+{d}Z avoids {prime}")


def certificate_json(cert) -> str:
    """The canonical certificate text as ``json.dumps`` writes it: every
    integer field as a decimal string (``Decimal`` converts ints of any size,
    past the interpreter's 4300-digit limit too), the text fields as they
    are, ``checks`` as a list, then a newline."""
    payload = {name: str(Decimal(getattr(cert, name)))
               for name in ("a", "d", "k", "c", "m", "prime", "h_value")}
    payload.update(h_source=cert.h_source, mode=cert.mode,
                   checks=list(cert.checks))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def is_decimal_integer(text: str) -> bool:
    """Whether ``text`` is an optional '-' then ASCII digits, by regex."""
    return re.fullmatch(r"-?[0-9]+", text) is not None
