"""Exception types shared across the package, and the one guard for scalar bounds."""

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
    """A configuration value (workspace or config file) is invalid."""


class RangeError(PhotonBoxError):
    """A sweep range is empty, reversed, or otherwise unusable."""


def _require(error: type, name: str, value, low, high=math.inf, strict: bool = False) -> None:
    """Raise ``error`` unless ``value`` is finite, at most ``high`` and at least ``low``.

    With ``strict`` it must exceed ``low``.  No comparison converts ``value``
    to a float, so an int past the float range fails its bound, not with an
    OverflowError.
    """
    if (low < value if strict else low <= value) and value <= min(high, sys.float_info.max):
        return
    if high < math.inf:
        raise error(f"{name} must be between {low} and {high}, got {value!r}")
    raise error(f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}")
