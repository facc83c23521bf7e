"""Exception types shared across the package, and the guards for scalar bounds and types."""

import math
import sys

__all__ = [
    "PhotonBoxError",
    "InvalidTime",
    "InvalidStep",
    "InvalidState",
    "InvalidPrecision",
    "InvalidMixture",
    "NoElapsedTime",
    "ConfigError",
    "RangeError",
]


class PhotonBoxError(Exception):
    """Base class for every error raised by this package."""


class InvalidTime(PhotonBoxError):
    """An elapsed time is negative or not finite."""


class InvalidStep(PhotonBoxError):
    """An integration step is unusable for the requested interval."""


class InvalidState(PhotonBoxError):
    """A Gaussian state violates its structural or uncertainty invariants."""


class InvalidPrecision(PhotonBoxError):
    """A measurement device precision is out of the supported range."""


class InvalidMixture(PhotonBoxError):
    """A mass mixture is empty, unnormalized, or carries bad weights."""


class NoElapsedTime(PhotonBoxError):
    """A clock-based denominator vanishes, so the ratio is undefined."""


class ConfigError(PhotonBoxError):
    """A config value (workspace or config file) is invalid, or an argument has the wrong kind."""


class RangeError(PhotonBoxError):
    """A sweep range is empty, reversed, or otherwise unusable."""


# The lowest finite float: as the ``low`` of _require, a bound that only refuses nan and ±inf.
_ANY_FINITE = -sys.float_info.max


def _require(error: type, name: str, value, low, high=math.inf, strict: bool = False) -> None:
    """Raise ``error`` unless ``value`` is finite, at most ``high`` and at least ``low``.

    With ``strict`` it must exceed ``low``; a ``low`` of ``_ANY_FINITE`` asks
    only that it be finite.  No comparison converts ``value`` to a float, so
    an int past the float range fails its bound, not with an OverflowError;
    a value that cannot be compared is refused as not a number.
    """
    try:
        if (low < value if strict else low <= value) and value <= min(high, sys.float_info.max):
            return
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    if high < math.inf:
        raise error(f"{name} must be between {low} and {high}, got {value!r}")
    if low == _ANY_FINITE:
        raise error(f"{name} must be finite, got {value!r}")
    raise error(f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}")


def _require_type(error: type, name: str, value, kind, what: str) -> None:
    """Raise ``error`` unless ``value`` is a ``kind``, and not a bool; ``what`` names ``kind``."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return
    raise error(f"{name} must be {what}, got {value!r}")
