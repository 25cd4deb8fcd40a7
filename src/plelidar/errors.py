"""Exception hierarchy shared by all plelidar modules."""


class PlelidarError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(PlelidarError):
    """A file does not conform to its on-disk format."""


class DataError(PlelidarError):
    """File parses but its content violates a data invariant."""


class MissingDataError(PlelidarError):
    """A required file or directory is absent."""


class ConfigError(PlelidarError):
    """A configuration value is out of range or inconsistent."""


class EmptyIndexError(PlelidarError):
    """A spatial index was requested over an empty point set."""


class ShapeError(PlelidarError):
    """Array dimensions do not match what an operation requires."""


class EmptyResultError(PlelidarError):
    """A pipeline stage produced no output where some was required."""
