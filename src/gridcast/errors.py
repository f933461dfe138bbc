"""Exception types shared across the package.

Every error raised deliberately by gridcast derives from GridcastError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""


class GridcastError(Exception):
    """Base class for all errors raised by this package."""


# --- ingestion ---------------------------------------------------------

class MissingColumnError(GridcastError):
    """A required column is absent from a CSV header."""


class EmptyFileError(GridcastError):
    """A CSV file contains no data rows."""


class MalformedTimestampError(GridcastError):
    """More than half of a meter file's timestamps failed to parse."""


class BoundaryMissingError(GridcastError):
    """A weather field is missing at the first or last day, so a gap
    cannot be interpolated."""


class AllMissingError(GridcastError):
    """A weather field has no observed values at all."""


class EmptyIntersectionError(GridcastError):
    """Two meter streams share no timestamps."""


class NoOverlapError(GridcastError):
    """Meter and weather data cover disjoint date ranges."""


# --- preprocessing and modeling ----------------------------------------

class EmptyInputError(GridcastError):
    """An operation received zero rows."""


class DimensionMismatchError(GridcastError):
    """Column count does not match fitted scaler parameters."""


class TooFewRowsError(GridcastError):
    """Not enough rows to split into non-degenerate slices."""


class SeriesTooShortError(GridcastError):
    """A series is too short for the requested window or lag."""


class ShapeMismatchError(GridcastError):
    """An array has the wrong shape for the receiving layer or model."""


class LengthMismatchError(GridcastError):
    """Two paired vectors differ in length."""


class NoCachedForwardError(GridcastError):
    """backward() was called before a train-mode forward() cached its
    inputs; an eval-mode forward caches nothing."""


class DivergedLossError(GridcastError):
    """Training loss became NaN or infinite."""


class ScalerNotFittedError(GridcastError):
    """A prediction helper was called without fitted scaler parameters."""


class ZeroVarianceError(GridcastError):
    """A metric that divides by variance received a constant vector."""


class CorruptArtifactError(GridcastError):
    """A stored artifact (model, scalers or report) exists but cannot be
    read; the message names the file."""


class InvalidConfigError(GridcastError):
    """A configuration value is missing, unknown, or out of range."""


class PipelineError(GridcastError):
    """A pipeline stage failed; the message carries the stage label."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
