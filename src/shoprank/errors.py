"""Exception hierarchy shared across the package."""


class ShoprankError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(ShoprankError):
    """A file or matrix is missing required columns, or columns disagree."""


class DuplicateKeyError(ShoprankError):
    """A key that must be unique (product_id, pair key) occurred twice."""


class ParseError(ShoprankError):
    """A field in an input file could not be parsed; carries the row number."""


class ReferentialError(ShoprankError):
    """A reference (e.g. product_id) does not resolve against the catalog."""


class ConfigurationError(ShoprankError):
    """A configuration value is out of range or infeasible."""


class IncompleteInputError(ShoprankError):
    """Required companion data (e.g. probability vectors) is missing for a pair."""


class DegenerateTrainingError(ShoprankError):
    """Training data admits no model (e.g. a single target class)."""


class ValidationError(ShoprankError):
    """A value violates a documented invariant (non-finite score, bad label...)."""


class FormatError(ShoprankError):
    """A persisted artifact (model file, token cache) is corrupt or mismatched."""


class MissingKeyError(ShoprankError):
    """A lookup key (product_id in a token cache) is unknown."""


class WorkerError(ShoprankError):
    """A worker process running part of a command died before returning its result."""


class StageError(ShoprankError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.stage, self.cause)
