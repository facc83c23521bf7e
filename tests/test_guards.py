"""Every scalar bound in the package: the error it raises and its exact text.

Each guard refuses nan, +inf, -inf and a value just past its bound with one
error type and one message; a non-strict bound accepts its own limit, and a
strict one refuses it.  A value of the wrong type that passes its bounds is
refused with a text of its own.  A measurement is refused as it is built,
not later when the state is prepared from it.
"""

import math

import pytest

from photonbox import (
    BoxParams,
    ConfigError,
    Harmonic,
    InvalidMixture,
    InvalidPrecision,
    InvalidStep,
    InvalidTime,
    MassMixture,
    Measurement,
    NumericOptions,
    OracleConfig,
    PhysConstants,
    RangeError,
    Route,
    Scenario,
    evolve_closed,
    mass_uncertainty,
    prepare_post_measurement_state,
    sweep,
    verify,
)

CONSTS = PhysConstants()
BOX = BoxParams(M=1000.0, m=1.0)
SCENARIO = Scenario(CONSTS, BOX, Measurement(Route.P, 0.5), t_emit=2.0)
FRAME = evolve_closed(CONSTS, BOX, 2.0)
BELOW_ZERO = -5e-324
BELOW_FLOOR = math.nextafter(1e-12, 0.0)

# name: (call with the guarded value, error type, text before ", got ...",
#        the bound's limit, values past the bound, whether the limit passes)
GUARDS = {
    "PhysConstants.hbar": (
        lambda v: PhysConstants(hbar=v), ConfigError, "hbar must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "PhysConstants.c": (
        lambda v: PhysConstants(c=v), ConfigError, "c must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "PhysConstants.g": (
        lambda v: PhysConstants(g=v), ConfigError, "g must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "Harmonic.k": (
        lambda v: Harmonic(k=v), ConfigError, "k must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "BoxParams.M": (
        lambda v: BoxParams(M=v, m=0.0), ConfigError, "M must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "BoxParams.m": (
        lambda v: BoxParams(M=1000.0, m=v), ConfigError, "m must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "NumericOptions.step": (
        lambda v: NumericOptions(step=v), InvalidStep, "step must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "OracleConfig.scale": (
        lambda v: OracleConfig(scale=v), ConfigError, "scale must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "OracleConfig.step": (
        lambda v: OracleConfig(step=v), ConfigError, "step must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "OracleConfig.n": (
        lambda v: OracleConfig(n=v, buffer=1), ConfigError, "n must be between 16 and 2048",
        16, [15, 2049], True,
    ),
    "Scenario.t_emit": (
        lambda v: Scenario(CONSTS, BOX, SCENARIO.measurement, t_emit=v), InvalidTime,
        "t_emit must be finite and >= 0", 0.0, [BELOW_ZERO], True,
    ),
    "verify.tol": (
        lambda v: verify(SCENARIO, grid=2, tol=v), RangeError, "tol must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "verify.oracle_tol": (
        lambda v: verify(SCENARIO, grid=2, oracle_tol=v), RangeError,
        "oracle_tol must be finite and >= 0", 0.0, [BELOW_ZERO], True,
    ),
    "verify.grid": (
        lambda v: verify(SCENARIO, grid=v), RangeError, "grid must be between 2 and 1000000",
        2, [1, 1000001], True,
    ),
    "sweep.steps": (
        lambda v: sweep(SCENARIO, 0.5, 4.0, v), RangeError,
        "steps must be between 2 and 1000000", 2, [1, 1000001], True,
    ),
    "prepare_post_measurement_state.device_dx": (
        lambda v: prepare_post_measurement_state(Route.P, v, 0.0, CONSTS), InvalidPrecision,
        "device_dx must be finite and >= 1e-12", 1e-12, [BELOW_FLOOR], True,
    ),
    "prepare_post_measurement_state.device_dcl": (
        lambda v: prepare_post_measurement_state(Route.P, 0.5, v, CONSTS), InvalidPrecision,
        "device_dcl must be finite and >= 0", 0.0, [BELOW_ZERO], True,
    ),
    "mass_uncertainty.dx": (
        lambda v: mass_uncertainty(FRAME, 2.0, Route.P, v, BOX), InvalidPrecision,
        "dx must be finite and >= 0", 0.0, [BELOW_ZERO], True,
    ),
    "MassMixture.weight": (
        lambda v: MassMixture(((v, 1.0),)), InvalidMixture, "weight must be finite and > 0",
        0.0, [BELOW_ZERO], False,
    ),
    "MassMixture.mass": (
        lambda v: MassMixture(((1.0, v),)), InvalidMixture, "mass must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "Measurement.device_dx": (
        lambda v: Measurement(Route.P, device_dx=v), InvalidPrecision,
        "device_dx must be finite and >= 1e-12", 1e-12, [BELOW_FLOOR, 0.0], True,
    ),
    "Measurement.device_dcl": (
        lambda v: Measurement(Route.P, 0.5, device_dcl=v), InvalidPrecision,
        "device_dcl must be finite and >= 0", 0.0, [BELOW_ZERO, -1.0], True,
    ),
}

# name: (call with the guarded value, error type, text before ", got ...",
#        values of the wrong type that pass the bounds)
TYPES = {
    "OracleConfig.n": (lambda v: OracleConfig(n=v), ConfigError, "n must be an integer", [60.5]),
    "OracleConfig.buffer": (
        lambda v: OracleConfig(buffer=v), ConfigError, "buffer must be an integer",
        [2.5, math.nan, True],
    ),
    "Measurement.route": (
        lambda v: Measurement(v, 0.5), ConfigError, "route must be a Route", ["p"],
    ),
}

REFUSED = [
    pytest.param(call, error, text, value, id=f"{name}-{value!r}")
    for name, (call, error, text, _, past, _) in GUARDS.items()
    for value in (math.nan, math.inf, -math.inf, *past)
] + [
    pytest.param(call, error, text, value, id=f"{name}-{value!r}")
    for name, (call, error, text, values) in TYPES.items()
    for value in values
]


@pytest.mark.parametrize("call, error, text, value", REFUSED)
def test_guard_refuses_with_its_text(call, error, text, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{text}, got {value!r}"


@pytest.mark.parametrize("name", GUARDS)
def test_guard_limit(name):
    call, error, text, limit, _, passes = GUARDS[name]
    if passes:
        call(limit)
    else:
        with pytest.raises(error) as info:
            call(limit)
        assert str(info.value) == f"{text}, got {limit!r}"


def test_integer_beyond_float_range_is_refused_by_its_bound():
    # Nothing converts the value to a float, so no OverflowError escapes.
    with pytest.raises(ConfigError, match=r"^hbar must be finite and > 0, got 1000"):
        PhysConstants(hbar=10**400)
