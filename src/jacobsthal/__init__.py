"""Jacobsthal function computations and certified primes in arithmetic
progressions.

The pieces, bottom up: `arith` (primes, CRT, factoring), `gaps` (the
ordinary Jacobsthal function g(n)), `cover` (exact covering searches, the
primorial function h(k), and the known-value table), `progressions`
(eligible progressions and coprimality-preserving maps), `certify`
(provability bounds and self-contained prime certificates), `cli`.
"""

from .arith import (Factorization, crt_solve, factorize, first_primes,
                    is_prime, nth_prime, primes_upto, primorial)
from .certify import (MODE_CW, MODE_UNCONDITIONAL, BoundRow, CertificateCheck,
                      PrimeCertificate, bound, bound_table,
                      certificate_from_json, certificate_to_json, cw_upper,
                      find_prime, max_provable_d, min_k_for, prime_stream,
                      render_thousandths, verify_certificate)
from .cover import (ComputePolicy, CoverAssignment, CoverWitness, HEntry,
                    KnownHTable, SearchBudget, coverable, default_h_table,
                    elementary_lower_witness, h_of, least_witness,
                    load_h_table, max_cover_length, verify_cover,
                    witness_integer)
from .errors import (BudgetExceeded, JacobsthalError, NonCoprimeModuli,
                     NotEligible, NotInProgression, NotProvable, OutOfRange,
                     TableParseError, TableValidationError, Unavailable)
from .gaps import GapScanResult, g_of
from .progressions import ApIso, EligibleAP, coprime_iso, make_eligible

__version__ = "0.1.0"

__all__ = [
    "ApIso", "BoundRow", "BudgetExceeded", "CertificateCheck",
    "ComputePolicy", "CoverAssignment", "CoverWitness", "EligibleAP",
    "Factorization", "GapScanResult", "HEntry", "JacobsthalError",
    "KnownHTable", "MODE_CW", "MODE_UNCONDITIONAL", "NonCoprimeModuli",
    "NotEligible", "NotInProgression", "NotProvable", "OutOfRange",
    "PrimeCertificate", "SearchBudget", "TableParseError",
    "TableValidationError", "Unavailable", "bound", "bound_table",
    "certificate_from_json", "certificate_to_json", "coprime_iso",
    "coverable", "crt_solve", "cw_upper", "default_h_table",
    "elementary_lower_witness", "factorize", "find_prime", "first_primes",
    "g_of", "h_of", "is_prime", "least_witness", "load_h_table",
    "make_eligible", "max_cover_length", "max_provable_d", "min_k_for",
    "nth_prime", "prime_stream", "primes_upto", "primorial",
    "render_thousandths", "verify_certificate",
    "verify_cover", "witness_integer", "__version__",
]
