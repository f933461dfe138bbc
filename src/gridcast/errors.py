"""Exception types shared across the package, grouped by what fixes them.

Every error raised deliberately by gridcast derives from GridcastError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
The CLI exits 2 on InvalidConfigError and 1 on every other one. Each
class below names what has to change for the run to succeed: the config,
an input file, the length of the series, the training settings, a stored
artifact, or (for ShapeError) the calling code. The message says where.
"""


class GridcastError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(GridcastError):
    """A configuration value is missing, unknown, or out of range."""


class DataError(GridcastError):
    """An input file is wrong as a whole: a missing column or header, no
    data rows, mostly unreadable timestamps, a weather field that cannot
    be filled, streams or date ranges that do not meet, or watts that
    overflow. Fix the named file or pick files that belong together."""


class SeriesTooShortError(GridcastError):
    """The series has too few rows for the requested split, the LSTM's
    24-step window or a lag; supply more data or move split_ratio."""


class DivergedLossError(GridcastError):
    """Training loss became NaN or infinite; lower train.learning_rate or
    check the input data for extreme values."""


class CorruptArtifactError(GridcastError):
    """A stored artifact (model, scalers or report) exists but cannot be
    read; the message names the file."""


class ShapeError(GridcastError):
    """A caller passed an array of the wrong shape, length, emptiness or
    order (meter records not sorted by time) or an argument outside its
    choices (an unknown stream kind), or called a method out of order
    (backward before a train-mode forward, a prediction without a fitted
    scaler, a frame built from weather not yet interpolated or without
    a day for one of its rows). This is a bug in the calling code, not in
    the user's data."""


class ZeroVarianceError(GridcastError):
    """A metric that divides by variance received a constant vector."""


class PipelineError(GridcastError):
    """A pipeline stage failed; the message carries the stage label."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
