"""Exception types shared across the package."""


class JacobsthalError(Exception):
    """Base class for domain errors raised by this package."""


class NonCoprimeModuli(JacobsthalError):
    """CRT moduli share a common factor, so no unique solution exists."""


class NotEligible(JacobsthalError):
    """The residue and modulus of an arithmetic progression are not coprime."""


class BudgetExceeded(JacobsthalError):
    """A node, time, or size limit was reached before an exact answer.

    Deliberately distinct from a negative result: callers must never
    conflate "ran out of budget" with "no solution exists".
    """


class Unavailable(JacobsthalError):
    """A requested value is neither tabulated nor computable under the
    compute cap."""


class OutOfRange(JacobsthalError):
    """Input falls outside the validity range of a formula or bound."""


class TableParseError(JacobsthalError):
    """A value-table file is malformed."""


class TableValidationError(JacobsthalError):
    """A value-table entry violates a structural invariant."""


class NotProvable(JacobsthalError):
    """No available bound certifies a prime for the requested modulus.

    ``max_provable_d`` is the largest modulus the available values do
    certify; ``certificates`` carries any results emitted before the
    failure (used by streaming searches).
    """

    def __init__(self, message, max_provable_d=None, certificates=()):
        super().__init__(message)
        self.max_provable_d = max_provable_d
        self.certificates = tuple(certificates)
