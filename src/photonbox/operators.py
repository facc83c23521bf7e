"""Exact commutator algebra for operators affine in the initial canonical set.

Every observable handled by the engine is a real affine combination

    X = a_q * q(0) + a_p * p(0) + a_cl * qcl(0) + a_1 * 1 + a_m * m,

where q(0) and p(0) are the box center-of-mass position and momentum at the
final measurement, qcl(0) is the internal clock reading at that instant, and
m is the photon mass, treated as a classical parameter (one number per
mixture component).  The only nonvanishing commutator among the generators
is the canonical one, fixed by the sign convention [p, q] = -i*hbar, so that

    [q(0), p(0)] = i*hbar.

Every commutator in this algebra is therefore i*hbar times a real scalar,
which is what :func:`commutator` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigError, _require, _require_type

__all__ = [
    "PhysConstants",
    "FreeFall",
    "Harmonic",
    "Potential",
    "BoxParams",
    "OperatorCoeffs",
    "INITIAL_POSITION",
    "INITIAL_MOMENTUM",
    "INITIAL_CLOCK",
    "IDENTITY",
    "MASS",
    "commutator",
    "mean_of",
]


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants in the engine's dimensionless unit system.

    ``hbar`` and ``c`` are finite and > 0, ``g`` finite and >= 0; a bad
    value raises ConfigError.  ``g = 0`` switches the gravitational clock
    coupling off entirely (useful for decoupling checks).  ``c**2`` must
    be > 0 and finite (about 1.6e-162 <= c <= about 1.3e154): every clock
    coupling divides by it, and dE = c**2*dm.
    """

    hbar: float = 1.0
    c: float = 1.0
    g: float = 1.0

    def __post_init__(self) -> None:
        _require(ConfigError, "hbar", self.hbar, 0, strict=True)
        _require(ConfigError, "c", self.c, 0, strict=True)
        _require(ConfigError, "g", self.g, 0)
        c2 = self.c * self.c
        if c2 == 0:
            raise ConfigError(f"c**2 must not underflow to 0, got c={self.c!r}")
        if c2 == math.inf:
            raise ConfigError(f"c**2 must not overflow, got c={self.c!r}")


@dataclass(frozen=True)
class FreeFall:
    """Gravity only: no restoring force acts on the box."""


@dataclass(frozen=True)
class Harmonic:
    """Box suspended from a spring with spring constant ``k`` (finite and > 0)."""

    k: float

    def __post_init__(self) -> None:
        _require(ConfigError, "k", self.k, 0, strict=True)


Potential = FreeFall | Harmonic


@dataclass(frozen=True)
class BoxParams:
    """Box mass, photon mass, and the suspension potential.

    ``M`` is finite and > 0, and ``m`` finite, >= 0 and < M; a bad value
    raises ConfigError.  The photon mass must in fact stay well below
    the box mass for the measurement analysis to make sense.
    """

    M: float
    m: float
    potential: Potential = field(default_factory=FreeFall)

    def __post_init__(self) -> None:
        _require(ConfigError, "M", self.M, 0, strict=True)
        _require(ConfigError, "m", self.m, 0)
        if self.m >= self.M:
            raise ConfigError("m must be < M")
        _require_type(ConfigError, "potential", self.potential, Potential, "FreeFall or Harmonic")

    @property
    def spring_k(self) -> float:
        """Spring constant of the suspension; zero in free fall."""
        return self.potential.k if isinstance(self.potential, Harmonic) else 0.0

    @property
    def omega(self) -> float:
        """Angular frequency sqrt(k/M) of the suspension; zero in free fall."""
        return math.sqrt(self.spring_k / self.M)


@dataclass(frozen=True)
class OperatorCoeffs:
    """Coefficients of an operator over {q(0), p(0), qcl(0), 1, m}.

    The fields are, in order, the five columns of a frame row (see
    :func:`~photonbox.dynamics.closed_form_grid`), so ``OperatorCoeffs(*row)``
    names one row.  Instances are immutable; all arithmetic goes through the
    free functions in this module.
    """

    a_q: float = 0.0
    a_p: float = 0.0
    a_cl: float = 0.0
    a_1: float = 0.0
    a_m: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")


# The five generators of the algebra.
INITIAL_POSITION = OperatorCoeffs(a_q=1.0)
INITIAL_MOMENTUM = OperatorCoeffs(a_p=1.0)
INITIAL_CLOCK = OperatorCoeffs(a_cl=1.0)
IDENTITY = OperatorCoeffs(a_1=1.0)
MASS = OperatorCoeffs(a_m=1.0)


def commutator(x: OperatorCoeffs, y: OperatorCoeffs) -> float:
    """Commutator of two affine operators.

    Parameters
    ----------
    x, y : OperatorCoeffs
        Operators in the affine representation.

    Returns
    -------
    float
        chi such that [X, Y] = i*hbar*chi.  The clock reading, the identity
        and the mass parameter are central, so only the canonical pair
        contributes: chi = a_q(X)*a_p(Y) - a_p(X)*a_q(Y).
    """
    return x.a_q * y.a_p - x.a_p * y.a_q


def mean_of(x: OperatorCoeffs, mu: Sequence[float], m: float) -> float:
    """Expectation value of X in a state with the given first moments.

    Parameters
    ----------
    x : OperatorCoeffs
        Operator in the affine representation.
    mu : sequence of three floats
        Means (mu_q, mu_p, mu_cl) of the initial position, momentum, and
        clock reading.
    m : float
        Photon mass parameter for this component.

    Returns
    -------
    float
        a_q*mu_q + a_p*mu_p + a_cl*mu_cl + a_1 + a_m*m.
    """
    mu_q, mu_p, mu_cl = mu
    return x.a_q * mu_q + x.a_p * mu_p + x.a_cl * mu_cl + x.a_1 + x.a_m * m
