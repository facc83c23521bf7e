"""Exception types shared across the package."""

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
