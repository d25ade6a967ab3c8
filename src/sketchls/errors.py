"""Exception types shared across the package."""


class SketchLSError(Exception):
    """Base class for all sketchls errors."""


class InvalidInputError(SketchLSError, ValueError):
    """An input value lies outside its domain (a non-finite entry, an impossible shape).

    Also a ValueError, so callers that catch ValueError keep working.
    """


class DimensionMismatchError(SketchLSError):
    """Operand shapes are incompatible."""


class RankDeficientError(SketchLSError):
    """Matrix is numerically rank deficient (s_min <= rank_tol * s_max)."""


class RankDeficientSketchError(RankDeficientError):
    """The compressed matrix SA lost full column rank."""


class InvalidWeightsError(SketchLSError):
    """Sampling probabilities are nonpositive or do not sum to one."""


class InvalidSketchSizeError(SketchLSError):
    """Sketch size m is too small for the requested formula."""


class DegenerateNoiseError(SketchLSError):
    """Null-space noise vector vanished during synthetic generation."""


class NotSpdError(SketchLSError):
    """Covariance matrix is not symmetric positive definite."""


class UndefinedBoundError(SketchLSError):
    """A closed-form bound is not defined for the given parameters."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class DataFormatError(SketchLSError):
    """Parse failure in a dataset or config file, with location info."""

    def __init__(self, reason: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", field {column}" if column is not None else "") + ")"
        super().__init__(reason + loc)
        self.reason = reason
        self.line = line
        self.column = column


class LabelOutOfRangeError(DataFormatError):
    """A one-hot label falls outside [0, k)."""


class ConfigError(SketchLSError):
    """Invalid or incomplete experiment configuration."""
