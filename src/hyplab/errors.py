"""Exception types shared across the library.

The CLI maps these onto its exit-code table, so every failure mode that a
subcommand can hit has a distinct class here; a failure that no routine
can raise gets no class.
"""


class HyplabError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(HyplabError, ValueError):
    """Malformed or out-of-schema input: bad JSON, non-finite numbers, bad literals."""


class DimensionMismatch(HyplabError, ValueError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(HyplabError, ValueError):
    """Members of an operator family disagree in shape."""


class ZeroDivisor(HyplabError):
    """A bicomplex value with a (numerically) vanishing idempotent component
    was asked for its inverse."""


class NotStrictlyPositive(HyplabError):
    """A strictly positive hyperbolic value was required."""


class EmptySet(HyplabError):
    """Supremum or infimum of an empty collection."""


class NoConvergence(HyplabError):
    """A numerical kernel did not converge: LAPACK's SVD driver failed.

    Attributes:
        iterations: iterations performed before giving up; the SVD kernel
            reports none, so it is 0.
    """

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class NotConverged(HyplabError):
    """A series did not meet its tolerance within the term cap.

    Attributes:
        report: the partially filled SeriesReport at the point of failure.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotInRange(HyplabError):
    """The right-hand side is not in the range of the operator."""


class NotSurjective(HyplabError):
    """The operator is not surjective: some component is row-rank deficient."""


class PreconditionViolated(HyplabError):
    """A stated precondition of a verification routine does not hold."""


class HypothesisFailed(HyplabError):
    """The sampled premise of a covering/scaling check does not hold."""
