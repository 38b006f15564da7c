"""Exception types raised by srskit.

Every library error derives from :class:`SrskitError`, so callers (and the
CLI) can distinguish data problems from programming bugs.
"""


class SrskitError(Exception):
    """Base class for all srskit errors."""


class ZeroColumnError(SrskitError):
    """A column has exactly zero l2-norm and cannot be normalized."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column} has zero norm")


class EmptySketchError(SrskitError):
    """A sketch with zero columns was passed where columns are required."""


class ParseError(SrskitError):
    """A CSV file contains a field that cannot be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ShapeError(SrskitError):
    """Matrix dimensions are inconsistent (ragged rows, mismatched shapes)."""


class TooManySamplesError(SrskitError):
    """More distinct samples requested than columns available."""


class NotNormalizedError(SrskitError):
    """Input columns are not unit-norm where unit norm is required."""


class ZeroMatrixError(SrskitError):
    """All columns have zero norm; norm-proportional sampling is undefined."""


class RankDeficientKError(SrskitError):
    """Requested singular-vector count exceeds the numerical rank."""


class BadTargetDimError(SrskitError):
    """Embedding target dimension is invalid for the requested kind."""


class ArcOverlapError(SrskitError):
    """Arc clusters overlap each other or the antipodal image of the other."""


class BadArcLengthsError(SrskitError):
    """Arc lengths violate tau1 > 0, tau2 > 0, tau1 + tau2 < pi."""


class BadDimsError(SrskitError):
    """Subspace dimensions or populations are inconsistent."""


class BadBetaError(SrskitError):
    """beta is below the admissible minimum for the requested bound."""


class BadParamsError(SrskitError):
    """Bound parameters are incomplete or out of range."""
