"""Arithmetic progressions and coprimality-preserving maps onto them.

The map ``n -> c + d*n`` is an order isomorphism from the integers onto the
progression ``(c mod d) + dZ``.  With c ≡ a (mod d), a coprime to d, and
c ≡ 0 modulo each prime of S not dividing d, a prime q of S not dividing d
divides n exactly when it divides c + d*n, and a q dividing d divides no
image (each is ≡ a mod q).  So coprime inputs land on coprime images, but
not conversely: for d = 2 and S = {2}, the even 0 lands on the odd 1.
That choice of c is a two-modulus CRT solution in closed form, done in
:func:`_coprime_factor` for :func:`coprime_iso` and ``find_prime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

# crt_solve and is_prime stay bound here for the benchmark's tracer
# (perfbench/tracing.py)
from .arith import (crt_solve, decimal_excerpt, is_prime,  # noqa: F401
                    primorial, validated_primes)
from .errors import NotEligible


@dataclass(frozen=True)
class EligibleAP:
    """Normalized progression a + dZ with ``0 <= a < d`` and ``gcd(a, d) = 1``.

    ``a == 0`` only occurs for d = 1 (the whole line).  Use
    :func:`make_eligible` to normalize arbitrary residues first.
    """

    a: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"modulus must be >= 1, got {self.d}")
        if not 0 <= self.a < self.d:
            raise ValueError(
                f"residue {self.a} not normalized for modulus {self.d}")
        if gcd(self.a, self.d) != 1:
            raise NotEligible(
                f"gcd({decimal_excerpt(self.a)}, {decimal_excerpt(self.d)}) "
                "> 1: the progression contains at most one prime and is out "
                "of scope")

    def __str__(self) -> str:
        return f"{self.a}+{self.d}Z"


def make_eligible(a: int, d: int) -> EligibleAP:
    """Normalize ``a`` modulo ``d`` and validate eligibility.

    >>> str(make_eligible(9, 7))
    '2+7Z'
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    return EligibleAP(a % d, d)


@dataclass(frozen=True)
class ApIso:
    """The affine map ``n -> c + d*n`` onto the progression (c mod d) + dZ.

    :func:`coprime_iso` picks c so that the map preserves coprimality to a
    given prime set; a directly constructed map need not.
    """

    c: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"modulus must be >= 1, got {self.d}")

    def __call__(self, n: int) -> int:
        return self.c + self.d * n


def coprime_iso(ap: EligibleAP, primes) -> ApIso:
    """Construct the canonical map onto ``ap`` preserving coprimality to
    ``primes``: c is the least nonnegative solution of ``c ≡ a (mod d)`` and
    ``c ≡ 0 (mod q)`` for every q in ``primes`` not dividing d.

    >>> coprime_iso(make_eligible(1, 3), (2, 3)).c
    4
    """
    ps = validated_primes(primes)
    f, f_inv = _coprime_factor(ap.d, len(ps), prod(ps))
    return ApIso(f * (ap.a * f_inv % ap.d), ap.d)


def _coprime_factor(d: int, k: int,
                    product: int | None = None) -> tuple[int, int]:
    """``(f, f⁻¹ mod d)``, f the product of the first k primes (or of the
    primes of ``product``) that do not divide d: c ≡ 0 modulo each is c ≡ 0
    modulo f, coprime to d, so ``c = f * (a * f⁻¹ mod d)``; 0 when d = 1."""
    product = product or primorial(k)
    f = product // gcd(product, d)
    return f, pow(f, -1, d)
