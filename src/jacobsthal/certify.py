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
The bound of each k, and the walk over them, live in ``bounds``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from math import gcd, prod
from typing import NamedTuple

from . import bounds
from .arith import (_COPRIME_BLOCK, _PIECE_DIGITS, _decimal_to_int,
                    decimal_excerpt, first_primes, int_to_decimal, is_decimal,
                    is_prime, nth_prime, primorial)
# bound, min_k_for, default_h_table, h_of and coprime_iso stay bound for
# perfbench/tracing.py's tracer
from .bounds import HSOURCE_CW, _least_row, bound, min_k_for  # noqa: F401
from .cover import (MODE_CW, MODE_UNCONDITIONAL, MODES,  # noqa: F401
                    KnownHTable, default_h_table, h_of)
from .errors import BudgetExceeded, JacobsthalError, NotProvable, OutOfRange
from .progressions import (EligibleAP, _coprime_factor,  # noqa: F401
                           coprime_iso)

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


class CertificateCheck(NamedTuple):
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


_PASSED = CertificateCheck()  # what every passing verify returns: immutable


def find_prime(ap: EligibleAP, table: KnownHTable, *,
               mode: str = MODE_UNCONDITIONAL) -> PrimeCertificate:
    """Produce a verified prime certificate for an eligible progression.

    Deterministic: picks the minimal usable k, builds the canonical
    coprimality-preserving map ``m -> c + d*m``, and takes the least
    element x of a + dZ in ``[2, p_{k+1}**2 - 1]`` whose preimage m is
    coprime to the k-primorial.  By the window criterion an x there is
    coprime to the first k primes exactly when it is a prime above p_k.  A
    prime that does not divide d divides c, so it divides m only when it
    divides x; and d stays below p_{k+1}, so every prime of d is among the
    first k.  So the scan runs from p_{k+1} and tests x, then ``gcd(m, d)``.
    A table keeps ``(k, h, source, p_{k+1}, f, f⁻¹ mod d)`` per mode and d.
    """
    derived = table._derived  # read once: a set() from here on orphans it
    record = derived.get((mode, ap.d))
    if record is None:  # a d past every bound raises here and keeps none
        row = _least_row(ap.d, table, mode)
        record = derived[mode, ap.d] = (row.k, row.h_value, row.h_source,
                                        row.next_prime,
                                        *_coprime_factor(ap.d, row.k))
    k, h_value, h_source, p_next, f, f_inv = record
    c = f * (ap.a * f_inv % ap.d)
    for x in range(p_next + (ap.a - p_next) % ap.d, p_next * p_next, ap.d):
        if is_prime(x) and gcd(m := (x - c) // ap.d, ap.d) == 1:
            cert = PrimeCertificate(ap.a, ap.d, k, c, m, x,
                                    h_value, h_source, mode, CHECK_NAMES)
            check = verify_certificate(cert, table)
            if not check.ok:  # engine bug or poisoned table — never emit
                raise JacobsthalError(
                    f"internal: produced certificate failed verification: "
                    f"{check.failures}")
            return cert
    raise JacobsthalError(
        f"internal: scan window for {ap} exhausted; h({k}) = {h_value} "
        f"({h_source}) must be wrong")


def verify_certificate(cert: PrimeCertificate,
                       table: KnownHTable) -> CertificateCheck:
    """Re-check every clause of a certificate from scratch.

    Returns the failures instead of raising, so hostile or corrupted
    certificates are reported, not crashed on.  The stored ``checks`` field
    is informational and deliberately ignored here.
    """
    a, d, k, c, m, prime = cert.a, cert.d, cert.k, cert.c, cert.m, cert.prime
    if cert.mode not in MODES:
        return CertificateCheck((f"unknown mode {cert.mode!r}",))
    if k < 1 or k > 100_000:
        return CertificateCheck(
            (f"index k = {decimal_excerpt(k)} out of range",))
    if d < 1 or not 0 <= a < d or gcd(a, d) != 1:
        return CertificateCheck(
            ("eligible: a + dZ is not an eligible progression",))
    missing, m_shares, prime_shares = _prime_clauses(k, c * d, m, prime)
    failures: list[str] = []
    if c % d != a:
        failures.append("congruences: c does not lie in a + dZ")
    if missing is not None:
        failures.append(f"congruences: c not divisible by {missing}")
    if prime != c + d * m:
        failures.append("equation: prime != c + d*m")
    p_next = nth_prime(k + 1)
    if not 2 <= prime < p_next * p_next:
        failures.append("range: prime outside [2, p_{k+1}^2 - 1]")
    if m_shares:
        failures.append("preimage-coprime: gcd(m, k-primorial) > 1")
    if prime_shares:
        failures.append("image-coprime: gcd(prime, k-primorial) > 1")
    if h_failure := _h_consistency(cert, table):
        failures.append(h_failure)
    # (p_{k+1}^2 - 2)/(h + 1) < d in integers; h + 1 <= 0 never certifies
    below = cert.h_value + 1
    if below <= 0 or p_next * p_next - 2 < d * below:
        failures.append("bound: (p_{k+1}^2 - 2)/(h + 1) < d")
    try:
        if not is_prime(prime):
            failures.append("primality: independent test rejects prime")
    except BudgetExceeded:  # only past 3.3e24, far outside the range clause
        failures.append("primality: prime exceeds the deterministic test's "
                        "range")
    return CertificateCheck(tuple(failures)) if failures else _PASSED


def _prime_clauses(k: int, cd: int, m: int,
                   prime: int) -> tuple[int | None, bool, bool]:
    """One walk over the first k primes, 64 at a time, answers the clauses
    that read them: the first prime dividing neither c nor d (None when each
    block's product divides cd = c*d), whether m shares one, whether the
    prime does.  Each closes at its first failing block, the last two also
    once the primes passed reach |m| or |prime|, and the walk ends when all
    have; block 0, the kept primorial, answers alone at k <= 64 unless c*d
    misses a prime.  Loops: a generator would allocate one more object."""
    block = primorial(min(k, _COPRIME_BLOCK))  # block 0's, kept
    if k <= _COPRIME_BLOCK and not cd % block:  # one block, none missing
        return None, gcd(m, block) > 1, gcd(prime, block) > 1
    qs = first_primes(k)
    m_size, prime_size = abs(m), abs(prime)
    missing, m_shares, prime_shares = None, False, False
    m_open = prime_open = True
    for start in range(0, len(qs), _COPRIME_BLOCK):
        if start:  # no prime at or past |n| divides a nonzero n
            m_open = not m_shares and qs[start - 1] < m_size
            prime_open = not prime_shares and qs[start - 1] < prime_size
            if missing is not None and not m_open and not prime_open:
                break
            block = prod(qs[start:start + _COPRIME_BLOCK])
        if missing is None and (r := cd % block):
            for q in qs[start:start + _COPRIME_BLOCK]:
                if r % q:
                    missing = q
                    break
        if m_open and gcd(m, block) > 1:
            m_shares = True
        if prime_open and gcd(prime, block) > 1:
            prime_shares = True
    return missing, m_shares, prime_shares


def _h_consistency(cert: PrimeCertificate, table: KnownHTable) -> str | None:
    if cert.h_value < 1:
        return ("h-consistent: impossible h_value "
                f"{decimal_excerpt(cert.h_value)}")
    cw = cert.mode == MODE_CW
    if cw != (cert.h_source == HSOURCE_CW):
        return ("h-consistent: cw mode requires the cw source" if cw else
                "h-consistent: unconditional mode with conditional source")
    try:  # the one lookup the walk's rows read too
        expected, source = bounds._h_at(cert.k, table, cert.mode)
    except OutOfRange:
        return f"h-consistent: k = {cert.k} outside the conditional range"
    except JacobsthalError as exc:
        return f"h-consistent: cannot confirm h({cert.k}) here ({exc})"
    if expected != cert.h_value:
        named = (f"conditional bound for k = {cert.k} is" if cw
                 else f"h({cert.k}) =")
        return (f"h-consistent: {named} {expected}, certificate says "
                f"{decimal_excerpt(cert.h_value)}")
    if source != cert.h_source:
        return (f"h-consistent: h({cert.k}) comes from {source}, "
                f"certificate says {cert.h_source}")
    return None


def _refined(ap: EligibleAP, prime: int) -> EligibleAP:
    """Shrink a progression to an eligible sub-progression excluding a prime
    already found in it.

    Even d: split modulo 2d; both halves stay eligible (a must be odd) and
    exactly one contains the prime.  Odd d: of the four residues mod 4d that
    reduce to a, exactly the two odd ones are eligible, and the (odd) prime
    sits in at most one of them.  Each residue tried is a + j*d, coprime to
    d, so it is coprime to the new modulus exactly when it is odd.
    """
    new_d = ap.d * (2 if ap.d % 2 == 0 else 4)
    for residue in range(ap.a, new_d, ap.d):
        if residue % 2 and residue != prime % new_d:
            return EligibleAP(residue, new_d)
    raise JacobsthalError(
        f"internal: no eligible refinement of {ap} avoiding {prime}")


def prime_stream(ap: EligibleAP, count: int, table: KnownHTable, *,
                 mode: str = MODE_UNCONDITIONAL) -> list[PrimeCertificate]:
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
            cert = find_prime(current, table, mode=mode)
        except NotProvable as exc:
            raise NotProvable(
                f"stream stopped after {len(certificates)} of {count}: {exc}",
                max_provable_d=exc.max_provable_d,
                certificates=certificates) from exc
        certificates.append(cert)
        if len(certificates) < count:
            current = _refined(current, cert.prime)
    return certificates


# --- serialization -----------------------------------------------------------

_INT_FIELDS = ("a", "d", "k", "c", "m", "prime", "h_value")
_STR_FIELDS = ("h_source", "mode")
_FIELDS = frozenset(_INT_FIELDS + _STR_FIELDS + ("checks",))

# A certificate field may have at most this many digits, which keeps
# parsing a hostile file cheap.
_FIELD_MAX_DIGITS = 60_000


def certificate_to_json(cert: PrimeCertificate) -> str:
    """Canonical JSON form: integers as decimal strings (c routinely
    exceeds machine width), keys sorted, two-space indent,
    newline-terminated.  The text is byte for byte what
    ``json.dumps(payload, sort_keys=True, indent=2)`` writes, formatted in
    one pass: with an indent, json runs its pure-Python encoder, several
    times slower.  Strings are escaped by json's own ASCII escaper."""
    a, c, d, h_value, k, m, prime = map(int_to_decimal, (
        cert.a, cert.c, cert.d, cert.h_value, cert.k, cert.m, cert.prime))
    checks = ("[\n    " + ",\n    ".join(map(_json_string, cert.checks))
              + "\n  ]" if cert.checks else "[]")
    return (f'{{\n  "a": "{a}",\n  "c": "{c}",\n  "checks": {checks},\n'
            f'  "d": "{d}",\n  "h_source": {_json_string(cert.h_source)},\n'
            f'  "h_value": "{h_value}",\n  "k": "{k}",\n  "m": "{m}",\n'
            f'  "mode": {_json_string(cert.mode)},\n'
            f'  "prime": "{prime}"\n}}\n')


def _unrepeated(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, refusing a field json would overwrite."""
    values = dict(pairs)
    if len(values) != len(pairs):  # walk the pairs to name the repeat
        seen = set()
        for name, _ in pairs:
            if name in seen:  # at most 40 characters of a hostile name
                raise JacobsthalError(
                    f"certificate repeats the field {name[:40]!r}")
            seen.add(name)
    return values


_DECODER = json.JSONDecoder(object_pairs_hook=_unrepeated)


def _json_value(text: str) -> object:
    """A certificate file's JSON value, in which no object repeats a field."""
    try:
        if text.startswith("\ufeff"):  # json.loads says why it refuses it
            json.loads(text)
        return _DECODER.decode(text)
    except ValueError as exc:  # also a bare number past the digit limit
        raise JacobsthalError(f"certificate is not valid JSON: {exc}") from exc


# The layout certificate_to_json writes when no string needs an escape,
# compiled on first use: a process that reads no certificate pays nothing.
_layout = None


def _compile_layout():
    global _layout
    chars = r'[ !#-\[\]-~]*'  # printable ASCII but '"' and '\': no escapes
    num = r'"(-?[0-9]+)"'  # [0-9]: \d would take any script's digits
    _layout = re.compile(
        rf'\{{\n  "a": {num},\n  "c": {num},\n'
        rf'  "checks": \[(?:\n    "({chars}(?:",\n    "{chars})*)"\n  )?\],\n'
        rf'  "d": {num},\n  "h_source": "({chars})",\n  "h_value": {num},\n'
        rf'  "k": {num},\n  "m": {num},\n  "mode": "({chars})",\n'
        rf'  "prime": {num}\n\}}\n')
    return _layout


def certificate_from_json(text: str) -> PrimeCertificate:
    """The certificate a text holds.  The layout certificate_to_json writes
    is read directly; any other text goes through json and
    ``_certificate_from_data``, with the same checks and the same record."""
    match = (_layout or _compile_layout()).fullmatch(text)
    if match is None:
        return _certificate_from_data(_json_value(text))
    a, c, checks, d, h_source, h_value, k, m, mode, prime = match.groups()
    raws = (a, d, k, c, m, prime, h_value)  # in _INT_FIELDS order
    to_int = int
    if len(text) > _PIECE_DIGITS:  # only then can a field be longer
        for name, raw in zip(_INT_FIELDS, raws):
            if len(raw) - (raw[0] == "-") > _FIELD_MAX_DIGITS:
                raise _too_many_digits(name)
        to_int = _decimal_to_int
    return PrimeCertificate(*map(to_int, raws), h_source, mode,
                            () if checks is None else
                            tuple(checks.split('",\n    "')))


def _too_many_digits(name: str) -> JacobsthalError:
    return JacobsthalError(
        f"field {name!r} has more than {_FIELD_MAX_DIGITS} digits")


def _certificate_from_data(data: object) -> PrimeCertificate:
    """The certificate a decoded JSON value holds, every field checked: for
    ``certificate_from_json``, and for each item of a file ``verify`` read."""
    if not isinstance(data, dict):
        raise JacobsthalError("certificate must be a JSON object")
    if data.keys() != _FIELDS:
        raise JacobsthalError(
            f"certificate fields must be exactly {sorted(_FIELDS)}")
    values: list[object] = []  # in field order: positional is cheaper
    for name in _INT_FIELDS:
        raw = data[name]
        if not (isinstance(raw, str) and is_decimal(raw)):
            raise JacobsthalError(f"field {name!r} must be a decimal string")
        if len(raw) - (raw[0] == "-") > _FIELD_MAX_DIGITS:
            raise _too_many_digits(name)
        values.append(_decimal_to_int(raw))
    for name in _STR_FIELDS:
        if not isinstance(data[name], str):
            raise JacobsthalError(f"field {name!r} must be a string")
        values.append(data[name])
    checks = data["checks"]
    if (not isinstance(checks, list)
            or any(not isinstance(c, str) for c in checks)):
        raise JacobsthalError("field 'checks' must be a list of strings")
    return PrimeCertificate(*values, tuple(checks))  # type: ignore[arg-type]
