"""Exception hierarchy shared by every module.

Two broad classes matter for the command line front end: `MalformedInput`
(unparseable or type-invalid data, exit code 1) and `DomainError`
(well-formed data violating a mathematical precondition, exit code 2).
Everything else is a bug.
"""

from __future__ import annotations


class AdictropError(Exception):
    """Base class for all library errors."""

    kind = "error"

    def payload(self) -> dict:
        """Machine-readable form used by the CLI error channel."""
        return {"kind": self.kind, "message": str(self)}


class MalformedInput(AdictropError):
    """Input that could not be parsed or fails type-level validation."""

    kind = "malformed-input"


class MalformedEmbedding(MalformedInput, ValueError):
    """Embedding generators or stratum indices that do not fit the fan."""


class DomainError(AdictropError):
    """Well-formed input that violates a mathematical precondition."""

    kind = "domain-error"


class EmptyPolyhedron(DomainError):
    kind = "empty-polyhedron"


class NotPointed(DomainError):
    kind = "not-pointed"


class NotAdmissible(DomainError):
    kind = "not-admissible"


class NotAFan(DomainError):
    kind = "not-a-fan"


class SupportMismatch(DomainError):
    kind = "support-mismatch"


class NotARefinement(DomainError):
    kind = "not-a-refinement"


class FamilyNotSupported(DomainError):
    kind = "family-not-supported"


class DenominatorMismatch(DomainError):
    kind = "denominator-mismatch"


class ZeroPolynomial(DomainError):
    kind = "zero-polynomial"


class NonRationalPoint(DomainError):
    kind = "non-rational-point"


class ExponentOutsideSublattice(DomainError):
    kind = "exponent-outside-sublattice"


class BasisNotAsserted(DomainError, ValueError):
    """Several generators without `tropical_basis_asserted`."""

    kind = "basis-not-asserted"


class NotACover(DomainError):
    kind = "not-a-cover"


class EmbeddingMismatch(DomainError):
    kind = "embedding-mismatch"


class UnverifiedBasis(UserWarning):
    """Warning: initial forms of an asserted, non-principal generating set.

    Whether such a set is a tropical basis is not decidable here; results
    are tagged rather than rejected.
    """
