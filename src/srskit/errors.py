"""Exception types raised by srskit, and its two argument rules.

Every srskit error derives from :class:`SrskitError`, so callers (and the
CLI) can tell bad input from programming bugs.  A bad argument value is an
:class:`ArgumentError`, a ``ValueError`` too: every count that must be >= 1
goes through ``check_count`` and every seed through ``check_seed``.
"""


class SrskitError(Exception):
    """Base class for all srskit errors."""


class InternalError(RuntimeError):
    """A value that checked inputs cannot produce, such as a non-finite
    screen entry: a bug in srskit, not bad input, so not an SrskitError."""


class ArgumentError(SrskitError, ValueError):
    """An argument value is out of its range or names nothing known."""


def check_count(name: str, value) -> None:
    """Raise ArgumentError unless the count ``value`` is >= 1."""
    if value < 1:
        raise ArgumentError(f"{name} must be >= 1")


def check_seed(seed) -> None:
    """Raise ArgumentError unless ``seed`` is one numpy takes: >= 0."""
    if seed < 0:
        raise ArgumentError("seed must be a non-negative integer")


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
