"""Exception types shared across the package.

Every error raised on a violated contract is a subclass of ValueError or
RuntimeError so callers can stay coarse when they do not care which rule
was broken.
"""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class ZeroVectorError(ValueError):
    """A nonzero vector was required."""


class NonPrimitiveError(ValueError):
    """Vector coordinates share a factor, so no unimodular mate exists."""


class RankDeficientError(ValueError):
    """Lattice generators are linearly dependent."""


class EmptyShapeError(ValueError):
    """A pattern shape with no cells."""


class EmptySampleError(ValueError):
    """A sample window with no cells."""


class EmptyResultError(ValueError):
    """An operation produced an empty domain."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no support to work with."""


class NonIntegerCoefficientsError(ValueError):
    """Integer coefficients were required."""


class V0NotInSupportError(ValueError):
    """The chosen base exponent is not in the polynomial support."""


class WindowTooSmallError(ValueError):
    """The evaluation window shrank to nothing mid-search."""


class VerificationFailedError(RuntimeError):
    """A candidate passed on the sample but failed re-verification."""


class InfeasibleError(RuntimeError):
    """The decomposition system has no solution on this window."""

    def __init__(self, message, equations=None):
        super().__init__(message)
        self.equations = list(equations or [])


class DegenerateDirectionError(ValueError):
    """A direction with zero extent in both axes."""


class ZeroAreaError(ValueError):
    """Collinear directions span no parallelogram."""


class ParallelDirectionsError(ValueError):
    """Two directions were required to be non-parallel."""


class BlockTooSmallError(ValueError):
    """Block dimensions fall below the polynomial's extent."""


class NotPrimeError(ValueError):
    """A prime cluster size was required."""


class NonSquarefreeRadicandError(ValueError):
    """sqrt() radicands must be squarefree in the text grammar."""


class ConfigSyntaxError(ValueError):
    """Malformed configuration, polynomial or tile text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (near token {position})"
        super().__init__(message)
        self.position = position
