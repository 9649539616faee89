"""Constructive certified primes in eligible arithmetic progressions.

The engine rests on two exact ingredients.  First, a primality criterion
by windowed coprimality: if ``2 <= x < p_{k+1}**2`` and x is coprime to the
product of the first k primes, then x is prime (any proper factorization
would need a prime below p_{k+1} twice over).  Second, runs of integers
sharing a factor with that product have length at most ``h(k) - 1``, so any
``h(k)`` consecutive integers contain one coprime to it.  Mapping integers
onto a progression with a coprimality-preserving affine map turns the run
bound into: whenever ``(p_{k+1}**2 - 2) / (h(k) + 1) >= d``, the progression
``a + dZ`` contains a certified prime below ``p_{k+1}**2``, found by a short
scan.  Everything a certificate claims is independently re-checkable.
"""

from __future__ import annotations

import json
import re as _re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, gcd, inf, log, prod
from typing import TYPE_CHECKING

from .arith import (_COPRIME_BLOCK, _decimal_to_int, first_primes,
                    int_to_decimal, is_prime, nth_prime, primorial)
# default_h_table stays bound for the benchmark's tracer (perfbench/tracing.py)
from .cover import (MODE_CW, MODE_UNCONDITIONAL, MODES,  # noqa: F401
                    ComputePolicy, KnownHTable, default_h_table, h_of)
from .errors import BudgetExceeded, JacobsthalError, NotProvable, OutOfRange
from .progressions import EligibleAP, coprime_iso

if TYPE_CHECKING:  # bound imports it when it builds a row
    from fractions import Fraction

HSOURCE_CW = "cw"

# Conditional quadratic bound on h(n), verified by computation for
# 50 <= n <= 10000 (natural logarithm).
CW_COEFFICIENT = 0.27749612254
CW_MIN_K = 50
CW_MAX_K = 10000

CHECK_NAMES = (
    "eligible",
    "congruences",
    "equation",
    "range",
    "preimage-coprime",
    "image-coprime",
    "h-consistent",
    "bound",
    "primality",
)

_DECIMAL_INT = _re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class BoundRow:
    """One row of the provability table: with ``h_value`` consecutive
    integers always containing one coprime to the first k primes, every
    eligible progression with ``d <= value`` gets a certified prime."""

    k: int
    next_prime: int
    h_value: int
    h_source: str
    value: Fraction

    @property
    def text(self) -> str:
        return render_thousandths(self.value)


@dataclass(frozen=True)
class PrimeCertificate:
    """Self-contained proof that ``prime`` is prime and lies in a + dZ.

    The clauses: c solves the coprimality congruences for the first k
    primes, ``prime = c + d*m`` with m coprime to the k-primorial, and
    ``2 <= prime < p_{k+1}**2`` — so primality follows from the windowed
    criterion alone.  ``h_value``/``h_source``/``mode`` document why the
    scan window had to contain such an element.
    """

    a: int
    d: int
    k: int
    c: int
    m: int
    prime: int
    h_value: int
    h_source: str
    mode: str
    checks: tuple[str, ...] = ()


@dataclass(frozen=True)
class CertificateCheck:
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def render_thousandths(value: Fraction) -> str:
    """Exact 3-decimal rendering, rounding halves away from zero."""
    sign = "-" if value < 0 else ""
    n, den = abs(value.numerator), value.denominator
    scaled = (2000 * n + den) // (2 * den)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def cw_upper(n: int) -> int:
    """Integer upper bound on h(n) from the conditional quadratic formula,
    valid only for ``50 <= n <= 10000``."""
    if not CW_MIN_K <= n <= CW_MAX_K:
        raise OutOfRange(
            f"the conditional bound holds for {CW_MIN_K} <= n <= {CW_MAX_K}, "
            f"got {n}")
    # Exact in double precision: on 50..10000 the real value stays 4.8e-5 or
    # more from an integer (closest at n = 7361), over 300 times the float
    # error (6.4e-8 measured, about 1.5e-7 bounded for five roundings).
    return ceil(CW_COEFFICIENT * n * n * log(n))


def _h_at(k: int, table: KnownHTable, mode: str,
          policy: ComputePolicy | None) -> tuple[int, str]:
    """``(h, source)`` for index k under ``mode``: the exact h(k), or the
    conditional formula in cw mode.  find_prime's walk, ``bound`` and
    verify's h-consistent clause all read the bound from here."""
    if mode == MODE_UNCONDITIONAL:
        return h_of(k, table, policy)
    if mode == MODE_CW:
        return cw_upper(k), HSOURCE_CW
    raise ValueError(f"unknown mode {mode!r}")


def bound(k: int, table: KnownHTable, *,
          mode: str = MODE_UNCONDITIONAL,
          policy: ComputePolicy | None = None) -> BoundRow:
    """The exact rational ``(p_{k+1}**2 - 2) / (h + 1)`` for index k, using
    the exact h(k) in unconditional mode or the conditional formula in cw
    mode."""
    from fractions import Fraction
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    h_value, h_source = _h_at(k, table, mode, policy)
    p_next = nth_prime(k + 1)
    return BoundRow(k, p_next, h_value, h_source,
                    Fraction(p_next * p_next - 2, h_value + 1))


def bound_table(ks, table: KnownHTable, *,
                mode: str = MODE_UNCONDITIONAL,
                policy: ComputePolicy | None = None) -> list[BoundRow]:
    return [bound(k, table, mode=mode, policy=policy) for k in ks]


def _least_row(d: float, table: KnownHTable, mode: str,
               policy: ComputePolicy) -> tuple[int, int, str]:
    """``(k, h, source)`` at the least k whose bound certifies d.  The table
    keeps the walk up the k until its next ``set``: a sentinel, then one
    ``(reach, k, h, source)`` per k, reach the largest d certified so far."""
    derived = table._derived  # read once: a set() from here on orphans it
    key = policy.max_compute_k if mode == MODE_UNCONDITIONAL else mode
    walk = derived.get(key)
    if walk is None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        ks = range(CW_MIN_K, CW_MAX_K + 1) if mode == MODE_CW else sorted(
            set(table.ks()).union(range(1, policy.max_compute_k + 1)))
        walk = derived.setdefault(key, (ks, [(0,)], threading.Lock()))
    ks, rows, lock = walk
    with lock:
        while rows[-1][0] < d and len(rows) <= len(ks):
            k = ks[len(rows) - 1]
            h_value, h_source = _h_at(k, table, mode, policy)
            p_next = nth_prime(k + 1)  # largest d: (p_{k+1}^2 - 2) // (h + 1)
            rows.append((max(rows[-1][0], (p_next * p_next - 2)
                             // (h_value + 1)), k, h_value, h_source))
    if rows[-1][0] < d:
        raise NotProvable(f"no available bound reaches d = {d} (largest "
                          f"provable: {rows[-1][0]})",
                          max_provable_d=rows[-1][0])
    return rows[bisect_left(rows, (d,))][1:]


def min_k_for(d: int, table: KnownHTable, *,
              mode: str = MODE_UNCONDITIONAL,
              policy: ComputePolicy | None = None) -> int:
    """Smallest k whose available bound certifies modulus d, scanning k
    ascending over tabulated/computable values (unconditional) or the
    conditional validity range (cw)."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if policy is None:
        policy = ComputePolicy()
    return _least_row(d, table, mode, policy)[0]


def find_prime(ap: EligibleAP, table: KnownHTable, *,
               mode: str = MODE_UNCONDITIONAL,
               policy: ComputePolicy | None = None) -> PrimeCertificate:
    """Produce a verified prime certificate for an eligible progression.

    Deterministic: picks the minimal usable k, builds the canonical
    coprimality-preserving map ``m -> c + d*m``, and scans the elements x
    of a + dZ in ``[2, p_{k+1}**2 - 1]`` upward for the first whose
    preimage m is coprime to the k-primorial.  Each of its primes that does
    not divide d divides c, so it divides m exactly when it divides x, and
    none that divides d divides x: so the small x takes the primorial gcd,
    and the one test on m covers only the primes that divide d.
    """
    if policy is None:
        policy = ComputePolicy()
    k, h_value, h_source = _least_row(ap.d, table, mode, policy)
    c = coprime_iso(ap, first_primes(k)).c
    p_next = nth_prime(k + 1)
    modulus = primorial(k)
    shared = gcd(modulus, ap.d)
    for x in range(2 + (ap.a - 2) % ap.d, p_next * p_next, ap.d):
        if gcd(x, modulus) == 1 and gcd(m := (x - c) // ap.d, shared) == 1:
            cert = PrimeCertificate(ap.a, ap.d, k, c, m, x,
                                    h_value, h_source, mode, CHECK_NAMES)
            check = verify_certificate(cert, table, policy=policy)
            if not check.ok:  # engine bug or poisoned table — never emit
                raise JacobsthalError(
                    f"internal: produced certificate failed verification: "
                    f"{check.failures}")
            return cert
    raise JacobsthalError(
        f"internal: scan window for {ap} exhausted; h({k}) = {h_value} "
        f"({h_source}) must be wrong")


def verify_certificate(cert: PrimeCertificate, table: KnownHTable, *,
                       policy: ComputePolicy | None = None) -> CertificateCheck:
    """Re-check every clause of a certificate from scratch.

    Returns the failures instead of raising, so hostile or corrupted
    certificates are reported, not crashed on.  The stored ``checks`` field
    is informational and deliberately ignored here.
    """
    if policy is None:
        policy = ComputePolicy()
    failures: list[str] = []
    if cert.mode not in MODES:
        return CertificateCheck((f"unknown mode {cert.mode!r}",))
    if cert.k < 1 or cert.k > 100_000:
        return CertificateCheck((f"index k = {cert.k} out of range",))
    if cert.d < 1 or not 0 <= cert.a < cert.d or gcd(cert.a, cert.d) != 1:
        return CertificateCheck(
            ("eligible: a + dZ is not an eligible progression",))
    qs = first_primes(cert.k)
    # block products, shared by the three clauses; the first one is kept
    products = [primorial(min(cert.k, _COPRIME_BLOCK))]
    if cert.c % cert.d != cert.a:
        failures.append("congruences: c does not lie in a + dZ")
    q = _first_missing_factor(cert.c, cert.d, qs, products)
    if q is not None:
        failures.append(f"congruences: c not divisible by {q}")
    if cert.prime != cert.c + cert.d * cert.m:
        failures.append("equation: prime != c + d*m")
    p_next = nth_prime(cert.k + 1)
    if not 2 <= cert.prime < p_next * p_next:
        failures.append("range: prime outside [2, p_{k+1}^2 - 1]")
    if _shares_a_prime(cert.m, qs, products):
        failures.append("preimage-coprime: gcd(m, k-primorial) > 1")
    if _shares_a_prime(cert.prime, qs, products):
        failures.append("image-coprime: gcd(prime, k-primorial) > 1")
    failures.extend(_h_consistency(cert, table, policy))
    # (p_{k+1}^2 - 2)/(h + 1) < d in integers; h + 1 <= 0 never certifies
    below = cert.h_value + 1
    if below <= 0 or p_next * p_next - 2 < cert.d * below:
        failures.append("bound: (p_{k+1}^2 - 2)/(h + 1) < d")
    try:
        if not is_prime(cert.prime):
            failures.append("primality: independent test rejects prime")
    except BudgetExceeded:  # only past 3.3e24, far outside the range clause
        failures.append("primality: prime exceeds the deterministic test's "
                        "range")
    return CertificateCheck(tuple(failures))


def _block_product(qs: tuple[int, ...], products: list[int],
                   start: int) -> int:
    """The product of the block of ``qs`` from ``start`` on.  ``products``
    holds the blocks before it, and a block is multiplied out on first use,
    so a verify forms each block product at most once, and only those its
    clauses read."""
    index = start // _COPRIME_BLOCK
    if index == len(products):
        products.append(prod(qs[start:start + _COPRIME_BLOCK]))
    return products[index]


def _first_missing_factor(c: int, d: int, qs: tuple[int, ...],
                          products: list[int]) -> int | None:
    """The first prime of ``qs`` that divides neither c nor d, or None.  A
    prime divides c*d exactly when it divides c or d, so a block of primes
    whose product divides c*d holds none: one remainder per block.  The
    scan is a loop, not a generator expression over ``r``: that would make
    ``r`` a cell, one more garbage-collected object allocated per call."""
    cd = c * d
    for start in range(0, len(qs), _COPRIME_BLOCK):
        r = cd % _block_product(qs, products, start)
        if r:
            for q in qs[start:start + _COPRIME_BLOCK]:
                if r % q:
                    return q
    return None


def _shares_a_prime(n: int, qs: tuple[int, ...], products: list[int]) -> bool:
    """``gcd(n, prod(qs)) > 1`` for ascending primes ``qs``, taken a block
    at a time and stopping at the first block with a common factor or past
    ``|n|`` (no larger prime divides a nonzero n).  So a forged k costs
    no more than the primes up to ``|n|``, not a product of all k."""
    size = abs(n)
    for start in range(0, len(qs), _COPRIME_BLOCK):
        if start and qs[start - 1] >= size:
            return False
        if gcd(n, _block_product(qs, products, start)) > 1:
            return True
    return False


def _h_consistency(cert: PrimeCertificate, table: KnownHTable,
                   policy: ComputePolicy) -> list[str]:
    if cert.h_value < 1:
        return [f"h-consistent: impossible h_value {cert.h_value}"]
    cw = cert.mode == MODE_CW
    if cw != (cert.h_source == HSOURCE_CW):
        return ["h-consistent: cw mode requires the cw source" if cw else
                "h-consistent: unconditional mode with conditional source"]
    try:
        expected, source = _h_at(cert.k, table, cert.mode, policy)
    except OutOfRange:
        return [f"h-consistent: k = {cert.k} outside the conditional range"]
    except JacobsthalError as exc:
        return [f"h-consistent: cannot confirm h({cert.k}) here ({exc})"]
    if expected != cert.h_value:
        named = (f"conditional bound for k = {cert.k} is" if cw
                 else f"h({cert.k}) =")
        return [f"h-consistent: {named} {expected}, certificate says "
                f"{cert.h_value}"]
    if source != cert.h_source:
        return [f"h-consistent: h({cert.k}) comes from {source}, "
                f"certificate says {cert.h_source}"]
    return []


def _refined(ap: EligibleAP, prime: int) -> EligibleAP:
    """Shrink a progression to an eligible sub-progression excluding a prime
    already found in it.

    Even d: split modulo 2d; both halves stay eligible (a must be odd) and
    exactly one contains the prime.  Odd d: of the four residues mod 4d that
    reduce to a, exactly the two odd ones are eligible, and the (odd) prime
    sits in at most one of them.
    """
    d = ap.d
    if d % 2 == 0:
        candidates = [ap.a, ap.a + d]
        new_d = 2 * d
    else:
        candidates = sorted((ap.a + j * d) % (4 * d) for j in range(4))
        new_d = 4 * d
    for residue in candidates:
        if gcd(residue, new_d) != 1:
            continue
        if prime % new_d != residue % new_d:
            return EligibleAP(residue % new_d, new_d)
    raise JacobsthalError(
        f"internal: no eligible refinement of {ap} avoiding {prime}")


def prime_stream(ap: EligibleAP, count: int, table: KnownHTable, *,
                 mode: str = MODE_UNCONDITIONAL,
                 policy: ComputePolicy | None = None) -> list[PrimeCertificate]:
    """Certify ``count`` distinct primes in the progression by repeatedly
    refining it away from the primes already emitted.

    If a refinement outgrows every available bound, :class:`NotProvable`
    is raised carrying the certificates emitted so far.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    certificates: list[PrimeCertificate] = []
    current = ap
    while len(certificates) < count:
        try:
            cert = find_prime(current, table, mode=mode, policy=policy)
        except NotProvable as exc:
            raise NotProvable(
                f"stream stopped after {len(certificates)} of {count}: {exc}",
                max_provable_d=exc.max_provable_d,
                certificates=certificates) from exc
        certificates.append(cert)
        if len(certificates) < count:
            current = _refined(current, cert.prime)
    return certificates


def max_provable_d(table: KnownHTable, *,
                   mode: str = MODE_UNCONDITIONAL) -> tuple[int, int | None]:
    """Largest modulus any available bound certifies, with the index used.

    Unconditional mode scans the table as-is; cw mode scans the whole
    conditional validity range.  Returns ``(0, None)`` for an empty table.
    """
    policy = ComputePolicy(max_compute_k=0)
    try:  # no bound reaches inf: this walks to the end
        _least_row(inf, table, mode, policy)
    except NotProvable as exc:
        best = exc.max_provable_d
    return best, (_least_row(best, table, mode, policy)[0] if best else None)


# --- serialization -----------------------------------------------------------

_INT_FIELDS = ("a", "d", "k", "c", "m", "prime", "h_value")
_STR_FIELDS = ("h_source", "mode")

# A certificate field may have at most this many digits, which keeps
# parsing a hostile file cheap.
_FIELD_MAX_DIGITS = 60_000


def certificate_to_json(cert: PrimeCertificate) -> str:
    """Canonical JSON form: integers as decimal strings (c routinely
    exceeds machine width), keys sorted, newline-terminated."""
    payload = {name: int_to_decimal(getattr(cert, name))
               for name in _INT_FIELDS}
    payload.update({name: getattr(cert, name) for name in _STR_FIELDS})
    payload["checks"] = list(cert.checks)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def certificate_from_json(text: str) -> PrimeCertificate:
    try:
        data = json.loads(text)
    except ValueError as exc:  # also a bare number past the digit limit
        raise JacobsthalError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise JacobsthalError("certificate must be a JSON object")
    expected = set(_INT_FIELDS) | set(_STR_FIELDS) | {"checks"}
    if set(data) != expected:
        raise JacobsthalError(
            f"certificate fields must be exactly {sorted(expected)}")
    values: dict[str, object] = {}
    for name in _INT_FIELDS:
        raw = data[name]
        if not isinstance(raw, str) or not _DECIMAL_INT.fullmatch(raw):
            raise JacobsthalError(f"field {name!r} must be a decimal string")
        if len(raw.lstrip("-")) > _FIELD_MAX_DIGITS:
            raise JacobsthalError(
                f"field {name!r} has more than {_FIELD_MAX_DIGITS} digits")
        values[name] = _decimal_to_int(raw)
    for name in _STR_FIELDS:
        if not isinstance(data[name], str):
            raise JacobsthalError(f"field {name!r} must be a string")
        values[name] = data[name]
    checks = data["checks"]
    if (not isinstance(checks, list)
            or any(not isinstance(c, str) for c in checks)):
        raise JacobsthalError("field 'checks' must be a list of strings")
    values["checks"] = tuple(checks)
    return PrimeCertificate(**values)  # type: ignore[arg-type]
