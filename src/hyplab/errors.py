"""Exception types shared across the library, each with its CLI exit code.

Every failure mode that a subcommand can hit has a distinct class here,
and the class's ``exit_code`` is the one the CLI exits with when it is
raised: 2 for invalid input (the default), 3 for numerical
non-convergence, 4 for a violated precondition.  A failure that no
routine can raise gets no class.
"""


class HyplabError(Exception):
    """Base class for all library-specific errors; ``exit_code`` is the
    CLI's exit code for one, 2 (invalid input) unless a subclass says otherwise."""

    exit_code = 2


class InvalidInput(HyplabError, ValueError):
    """Malformed or out-of-schema input: bad JSON, non-finite numbers, bad literals."""


class DimensionMismatch(HyplabError, ValueError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(HyplabError, ValueError):
    """Members of an operator family disagree in shape."""


class NoConvergence(HyplabError):
    """A numerical kernel did not converge: LAPACK's SVD driver failed."""

    exit_code = 3


class NotConverged(HyplabError):
    """A series did not meet its tolerance within the term cap.

    Attributes:
        report: the partially filled SeriesReport at the point of failure.
    """

    exit_code = 3

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ZeroDivisor(HyplabError):
    """A bicomplex value with a (numerically) vanishing idempotent component
    was asked for its inverse."""

    exit_code = 4


class NotInRange(HyplabError):
    """The right-hand side is not in the range of the operator."""

    exit_code = 4


class NotSurjective(HyplabError):
    """The operator is not surjective: some component is row-rank deficient."""

    exit_code = 4


class PreconditionViolated(HyplabError):
    """A stated precondition of a verification routine does not hold."""

    exit_code = 4


class HypothesisFailed(HyplabError):
    """The sampled premise of a covering/scaling check does not hold."""

    exit_code = 4
