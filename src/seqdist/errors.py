"""Exception types shared across the package, and the one check of an
integer parameter."""

import math


class SeqdistError(Exception):
    """Base class for package-specific errors."""


class InvalidSpecError(SeqdistError, ValueError):
    """A sequence description is malformed or a parameter is out of range."""


class IndexOutOfRangeError(SeqdistError, IndexError):
    """Evaluation past the end of a finite value table."""


class ResourceLimitError(SeqdistError):
    """A requested horizon exceeds the configured maximum."""


class WindowTooLongError(SeqdistError, ValueError):
    """Window length exceeds the observed horizon."""


class DegenerateEpsilonError(SeqdistError, ValueError):
    """Clustering radius too large to separate anything within the bound."""


class NotSimplyDistributedError(SeqdistError):
    """A simple-sum estimate was requested for a prefix that failed the
    simply-distributed check."""


class ValueOutOfBoundsError(SeqdistError, ValueError):
    """A prefix value lies outside the partition being applied."""


class OverweightError(SeqdistError, ValueError):
    """Known weights already exhaust (or exceed) total mass 1."""


def whole(value, what: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as an int, or InvalidSpecError unless it is a whole number
    in [low, high]."""
    # Range first, so that inf and nan fail it before int() sees them.
    if not (low <= value <= high and value < math.inf) or int(value) != value:
        span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise InvalidSpecError(f"{what} must be an integer {span}, got {value!r}")
    return int(value)
