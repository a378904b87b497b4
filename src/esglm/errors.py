"""Exception hierarchy shared across the pipeline.

Three families map onto the CLI exit codes: configuration/usage problems
(exit 1), data problems (exit 2), and numeric failures (exit 3).
"""


class EsglmError(Exception):
    exit_code = 1


class ConfigError(EsglmError):
    """Bad configuration or command usage."""

    exit_code = 1


class InvalidConfig(ConfigError):
    pass


class DataError(EsglmError):
    """Malformed, missing, or inconsistent input data."""

    exit_code = 2


class InvalidInput(DataError):
    pass


class InvalidId(DataError):
    pass


class ParseError(DataError):
    pass


class DuplicateError(DataError):
    pass


class EmptyDataset(DataError):
    pass


class EmptyDocument(DataError):
    pass


class EmptyBatch(DataError):
    pass


class EmptySplit(DataError):
    pass


class StratificationError(DataError):
    pass


class CheckpointError(DataError):
    pass


class NotACheckpoint(CheckpointError):
    pass


class UnsupportedVersion(CheckpointError):
    pass


class CorruptCheckpoint(CheckpointError):
    pass


class CheckpointMismatch(CheckpointError):
    pass


class NumericError(EsglmError):
    """Non-finite values or irrecoverable numeric breakdown."""

    exit_code = 3


class ShapeError(NumericError):
    pass
