"""Exception hierarchy for cliffrep.

Input errors (bad grammar, wrong ring, contract violations) derive from
InputError so the CLI can map them to exit code 3 uniformly.
"""


class CliffrepError(Exception):
    """Base class for all package errors."""


class InputError(CliffrepError):
    """Caller-supplied data violates a precondition or grammar."""


class FieldError(InputError):
    """Bad field specification (non-prime modulus, unsupported kind)."""


class RingMismatch(InputError):
    """Operands belong to different polynomial rings."""


class UnknownVariable(InputError):
    """A variable name is not part of the ring."""


class ExponentOverflow(InputError):
    """A monomial exponent exceeded the 16-bit per-variable cap."""


class ParseError(InputError):
    """Polynomial text failed to parse; carries a column position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at column {position})")
        self.position = position


class CoefficientNotInField(ParseError):
    """A literal coefficient cannot be interpreted in the target field."""


class NonLinearEntry(InputError):
    """A matrix entry is not homogeneous of degree 1 in the fiber variables."""

    def __init__(self, row, col, message=None):
        self.position = (row, col)
        super().__init__(message or
                         f"entry ({row},{col}) is not linear in the fiber variables")


class ShapeMismatch(InputError):
    """Matrix shapes are incompatible."""


class NotHomogeneous(InputError):
    """A form is not homogeneous of the required fiber degree."""


class MatrixFactorizationError(InputError):
    """A claimed matrix factorization fails phi*psi = psi*phi = f*I."""


class RotationMismatch(InputError):
    """A cyclic factor chain has a rotation product differing from f*I."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"cyclic rotation {index} does not equal f*I")


class DivisionFails(CliffrepError):
    """det(M) is not a unit multiple of f^r; the pencil is degenerate."""


class InternalInconsistency(CliffrepError):
    """An invariant the program guarantees failed; should be impossible.

    Raised, e.g., for a passing relation with d not dividing t, or a
    constructor's output that fails its own relation.
    """


class NondiagonalInput(InputError):
    """A quadratic form with cross terms was passed to the diagonal constructor."""


class GammaConstructionError(InputError):
    """No anticommuting generator pair exists within the search bounds."""


class UnsupportedBase(InputError):
    """Operation requires a plain coefficient field (no base variables)."""


class BadPrime(InputError):
    """Reduction of a rational pencil modulo p kills its determinant."""


class SampleBudgetSpent(InputError):
    """Corank sampling found no point on f = 0 within its budget."""
