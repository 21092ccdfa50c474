"""Exception hierarchy.

Two families: MaxAlgebraError covers genuine errors (bad dimensions, violated
preconditions, exactness limits), NegativeAnswer covers well-posed questions
whose mathematical answer is "no" (no scaling exists, star diverges, ...).
The CLI maps the families to distinct exit codes.
"""


class MaxAlgebraError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(MaxAlgebraError):
    """Operand shapes are incompatible."""


class ModeError(MaxAlgebraError):
    """Operands disagree on semiring domain or arithmetic mode."""


class ExactnessError(ModeError):
    """The requested result is not representable in exact mode.

    Carries no data beyond the message; callers that can degrade to float
    arithmetic catch this and retry.
    """


class UndefinedDivisionError(MaxAlgebraError):
    """Entrywise division hit a positive numerator over a zero denominator."""


class NoConstraintError(MaxAlgebraError):
    """A residual is unbounded because a column of the left factor is zero."""


class ZeroDiagonalError(MaxAlgebraError):
    """A diagonal entry required to be nonzero is zero."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"zero diagonal entry at index {index}")


class PatternViolationError(MaxAlgebraError):
    """Zero patterns of a problem instance are not nested as required."""


class NotIrreducibleError(MaxAlgebraError):
    """The matrix digraph is not strongly connected."""


class NotNormalizedError(MaxAlgebraError):
    """The maximum cycle geometric mean is not the semiring unit."""


class AcyclicMatrixError(MaxAlgebraError):
    """The matrix digraph has no cycle, so the spectral object is undefined."""


class AcyclicNodeError(MaxAlgebraError):
    """A node lies on no cycle, so cyclicity is undefined."""


class NotAnFpScalingError(MaxAlgebraError):
    """The supplied vector does not scale the matrix below the unit."""


class IterationBudgetError(MaxAlgebraError):
    """An iteration budget was exhausted before the sought pattern appeared."""


class SizeLimitError(MaxAlgebraError):
    """Input exceeds the size guard of an intentionally exhaustive routine."""


class WitnessNotFoundError(MaxAlgebraError):
    """No witness cycle exists within the stated node sets."""


class CertificationError(MaxAlgebraError):
    """An internal result failed its own certificate; indicates a bug."""


class ParseError(MaxAlgebraError):
    """A matrix file or CLI argument could not be parsed."""


class NegativeAnswer(Exception):
    """Base class for negative mathematical answers (not errors).

    ``witness`` is the cycle that certifies the answer, where one exists.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NoScalingError(NegativeAnswer):
    """No diagonal scaling with the requested property exists.

    ``witness`` is a cycle certifying impossibility where the theory
    provides one.
    """


class DivergenceError(NegativeAnswer):
    """The Kleene star diverges; ``witness`` is a cycle of weight above one."""


class HadamardFailsError(NegativeAnswer):
    """The cycle test on moduli fails; ``witness`` breaks the inequality."""


class NotCommutingError(NegativeAnswer):
    """The two matrices do not commute."""


class InapplicableError(NegativeAnswer):
    """The requested bound does not apply to this instance."""
