"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
data problems exit 2, numeric failures exit 3.
"""


class NliAttnError(Exception):
    """Base class for all package errors."""


class DimensionError(NliAttnError):
    """Operand shapes are incompatible for the requested operation."""


class InvalidInputError(NliAttnError):
    """Input violates an operation's precondition (e.g. a sequence with no rows)."""


class UsageError(NliAttnError):
    """API misuse, e.g. calling backward on a non-scalar."""


class ConfigError(NliAttnError):
    """Bad configuration value, unknown key, or incompatible artifacts."""


class DataError(NliAttnError):
    """Malformed corpus or label data; message carries the offending location."""


class IntegrityError(NliAttnError):
    """Checkpoint file is corrupt or inconsistent with its manifest."""


class NumericError(NliAttnError):
    """Non-finite value encountered where finite numbers are required."""
