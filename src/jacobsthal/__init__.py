"""Jacobsthal function computations and certified primes in arithmetic
progressions.

The pieces, bottom up: `arith` (primes, CRT, factoring), `gaps` (the
ordinary Jacobsthal function g(n)), `cover` (exact covering searches, the
primorial function h(k), and the known-value table), `bounds` (the
provability bound of each index and the walk over them), `progressions`
(eligible progressions and coprimality-preserving maps), `certify`
(self-contained prime certificates), `cli`.

Each top-level name below loads its module on first use.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "arith": "Factorization crt_solve factorize first_primes is_prime "
             "nth_prime primes_upto primorial",
    "bounds": "BoundRow bound bound_table cw_upper max_provable_d min_k_for",
    "certify": "CertificateCheck PrimeCertificate certificate_from_json "
               "certificate_to_json find_prime prime_stream "
               "verify_certificate",
    "cover": "MODE_CW MODE_UNCONDITIONAL CoverAssignment CoverWitness "
             "HEntry KnownHTable SearchBudget coverable default_h_table "
             "elementary_lower_witness h_of least_witness load_h_table "
             "max_cover_length verify_cover witness_integer",
    "errors": "BudgetExceeded JacobsthalError NonCoprimeModuli NotEligible "
              "NotProvable OutOfRange TableParseError TableValidationError "
              "Unavailable",
    "gaps": "GapScanResult g_of",
    "progressions": "ApIso EligibleAP coprime_iso make_eligible",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    # the first use imports the name's module and binds the name here; the
    # builtin __import__, unlike importlib, shows in -X importtime reports
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
