"""Exception types shared across the package."""


class ReflextError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(ReflextError):
    """Scalars from Q(sqrt(m)) and Q(sqrt(m')) with m != m' were combined."""


class ParseError(ReflextError):
    """A scalar string or representation file does not match the grammar."""


class AmbientMismatch(ReflextError):
    """Subspaces of different ambient dimensions were combined."""


class SingularMatrix(ReflextError):
    """Inverse of a singular matrix was requested (or a reflection has eigenvalue 0)."""


class EmptyGeneratorList(ReflextError):
    """A representation or intertwiner computation received no generators."""


class LengthMismatch(ReflextError):
    """Generator lists of different lengths were paired."""


class NotRankOne(ReflextError):
    """Candidate reflection matrix M has rank(M - I) != 1."""


class NotDiagonalizable(ReflextError):
    """Candidate reflection is a nontrivial unipotent transvection (eigenvalue 1)."""


class BadDegree(ReflextError):
    """Exterior-power degree outside 0..n."""


class NotABasis(ReflextError):
    """Supplied vectors do not form a basis of the ambient space."""


class DependentAlphas(ReflextError):
    """Reflection vectors expected to be independent are dependent."""


class NotConnected(ReflextError):
    """Operation requires a connected graph."""


class SizeMismatch(ReflextError):
    """Move-sequence endpoints have different cardinalities."""


class HypothesisViolated(ReflextError):
    """Deletion-lemma hypothesis fails: some outside vertex has exactly one neighbor inside."""


class SubsetTooSmall(ReflextError):
    """Deletion lemma needs a subset with at least two vertices."""


class NotSpanning(ReflextError):
    """Reflection vectors do not span the ambient space."""


class UnknownEntry(ReflextError):
    """No catalog entry with the requested name."""


class InternalError(ReflextError):
    """An internal consistency check failed; this is a bug, never a property of the input."""


class SchemaViolation(InternalError):
    """An emitted document breaks its schema; ``path`` lists the keys and indices to the fault."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list = []

    def __str__(self) -> str:
        return f"{self.args[0]} (at {self.path})"
