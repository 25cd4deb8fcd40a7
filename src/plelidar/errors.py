"""Exception hierarchy shared by all plelidar modules: one class per exit code."""


class PlelidarError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PlelidarError):
    """A configuration value is out of range or inconsistent: exit 2."""


class DataError(PlelidarError):
    """An input is missing, malformed, or violates a data invariant: exit 3."""


class EmptyResultError(PlelidarError):
    """A pipeline stage produced no output where some was required: exit 4."""
