"""Exception hierarchy shared by every module in the package.

Errors are typed so callers can distinguish bad parameters from degenerate
data from unreadable input files. Each type carries the exit code the CLI
returns for it in ``exit_code``: 1 usage, 2 data, 3 degenerate sample,
4 numeric domain.
"""

from __future__ import annotations

__all__ = [
    "TverskyCIError",
    "InvalidParameterError",
    "DegenerateSampleError",
    "DataError",
    "UsageError",
]


class TverskyCIError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TverskyCIError, ValueError):
    """A numeric argument is outside its domain (weights, levels, seeds, ...)."""

    exit_code = 4


class DegenerateSampleError(TverskyCIError):
    """The data cannot support the requested estimate.

    Raised when a sample has no true positives (the index is 0/0 and the
    variance formula divides by the true-positive rate), when a metric's
    denominator is empty, or when a resampling run is dominated by
    degenerate draws.
    """

    exit_code = 3


class DataError(TverskyCIError):
    """An input file is missing, empty, malformed, or mixes record modes.

    Parse failures carry the offending 1-based line number in the message;
    rows are never skipped silently.
    """

    exit_code = 2


class UsageError(TverskyCIError):
    """Command-line flags conflict or a required flag is missing."""

    exit_code = 1
