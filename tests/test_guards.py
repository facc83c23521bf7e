"""Every scalar bound and type guard in the package: the error it raises and its exact text.

Each guard refuses nan, +inf, -inf and a value just past its bound with one
error type and one message; a non-strict bound accepts its own limit, and a
strict one refuses it.  A value that is not a number, such as "1", None or
an array, is refused by the same guard with the text "<name> must be a
number".  A value of the wrong type, such as a string for an enum member or
None for a scenario part, is refused with a text of its own.
A measurement is refused as it is built, not later when the state is
prepared from it.
"""

import ast
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import photonbox
from photonbox import (
    BoxParams,
    ConfigError,
    Denominator,
    Harmonic,
    InvalidMixture,
    InvalidPrecision,
    InvalidStep,
    InvalidTime,
    MassMixture,
    Measurement,
    NumericOptions,
    OracleConfig,
    Pair,
    PhysConstants,
    RangeError,
    Route,
    Scenario,
    check_bound,
    commutator_closed,
    evolve_closed,
    mass_uncertainty,
    photon_inference,
    prepare_post_measurement_state,
    propagate_state,
    sweep,
    time_energy_diagnostic,
    verify,
)

CONSTS = PhysConstants()
BOX = BoxParams(M=1000.0, m=1.0)
SCENARIO = Scenario(CONSTS, BOX, Measurement(Route.P, 0.5), t_emit=2.0)
FRAME = evolve_closed(CONSTS, BOX, 2.0)
STATE = prepare_post_measurement_state(Route.P, 0.5, 0.0, CONSTS)
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
    "OracleConfig.buffer": (
        lambda v: OracleConfig(buffer=v), ConfigError, "buffer must be finite and >= 1",
        1, [0], True,
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
    "sweep.t_min": (
        lambda v: sweep(SCENARIO, v, 4.0, 2), RangeError, "t_min must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "sweep.t_max": (
        lambda v: sweep(SCENARIO, 0.5, v, 2), RangeError, "t_max must be finite and > 0.5",
        0.5, [0.25], False,
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
    # chi has no bound but finiteness: its limit is the lowest finite float.
    "check_bound.chi": (
        lambda v: check_bound(STATE, v, Pair.P_QCL, CONSTS), ConfigError, "chi must be finite",
        -sys.float_info.max, [], True,
    ),
    "propagate_state.m": (
        lambda v: propagate_state(FRAME, STATE, v), ConfigError, "m must be finite and >= 0",
        0.0, [BELOW_ZERO], True,
    ),
    "time_energy_diagnostic.m": (
        lambda v: time_energy_diagnostic(STATE, 0.0, CONSTS, BOX, v, Denominator.MEAN_CLOCK_RATE),
        ConfigError, "m must be finite and >= 0", 0.0, [BELOW_ZERO], True,
    ),
}

# name: (call with the guarded value, error type, text before ", got ...",
#        values of the wrong type that pass the bounds)
TYPES = {
    "OracleConfig.n": (lambda v: OracleConfig(n=v), ConfigError, "n must be an integer", [60.5]),
    "OracleConfig.buffer": (
        lambda v: OracleConfig(buffer=v), ConfigError, "buffer must be an integer", [2.5, True],
    ),
    "Measurement.route": (
        lambda v: Measurement(v, 0.5), ConfigError, "route must be a Route", ["p"],
    ),
    "sweep.steps": (
        lambda v: sweep(SCENARIO, 0.5, 4.0, v), RangeError, "steps must be an integer", [2.5],
    ),
    "verify.grid": (lambda v: verify(SCENARIO, grid=v), RangeError, "grid must be an integer", [3.0]),
    "commutator_closed.pair": (
        lambda v: commutator_closed(v, CONSTS, BOX, 2.0), ConfigError, "pair must be a Pair",
        ["p_qcl"],
    ),
    "check_bound.pair": (
        lambda v: check_bound(STATE, 2.0, v, CONSTS), ConfigError, "pair must be a Pair",
        ["p_qcl"],
    ),
    "mass_uncertainty.route": (
        lambda v: mass_uncertainty(FRAME, 2.0, v, 0.5, BOX), ConfigError,
        "route must be a Route", ["p"],
    ),
    "prepare_post_measurement_state.route": (
        lambda v: prepare_post_measurement_state(v, 0.5, 0.0, CONSTS), ConfigError,
        "route must be a Route", ["p"],
    ),
    "photon_inference.route": (
        lambda v: photon_inference(CONSTS, BOX, STATE, v, 2.0), ConfigError,
        "route must be a Route", ["p"],
    ),
    "time_energy_diagnostic.denominator": (
        lambda v: time_energy_diagnostic(STATE, 0.0, CONSTS, BOX, 1.0, v), ConfigError,
        "denominator must be a Denominator", ["mean_clock"],
    ),
    "BoxParams.potential": (
        lambda v: BoxParams(M=1000.0, m=1.0, potential=v), ConfigError,
        "potential must be FreeFall or Harmonic", [None],
    ),
    **{
        f"Scenario.{part}": (
            lambda v, part=part: replace(SCENARIO, **{part: v}), ConfigError,
            f"{part} must be {kind}", [None],
        )
        for part, kind in (
            ("constants", "a PhysConstants"),
            ("box", "a BoxParams"),
            ("measurement", "a Measurement"),
            ("numeric", "a NumericOptions"),
            ("oracle", "an OracleConfig"),
        )
    },
}

REFUSED = [
    pytest.param(call, error, text, value, id=f"{name}-{value!r}")
    for name, (call, error, text, _, past, _) in GUARDS.items()
    for value in (math.nan, math.inf, -math.inf, *past)
] + [
    pytest.param(call, error, f"{field} must be a number", value, id=f"{name}-{value!r}")
    for name, (call, error, text, *_) in GUARDS.items()
    for field in text.split()[:1]
    for value in ("1", None, np.array([1.0, 2.0]))
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


def test_a_speed_of_light_whose_square_underflows_is_refused():
    # Every clock coupling divides by c**2, which rounds to 0 below about 1.6e-162.
    smallest = 1.5717277847026288e-162
    below = math.nextafter(smallest, 0.0)
    assert smallest * smallest > 0.0
    assert below * below == 0.0
    PhysConstants(c=smallest)
    with pytest.raises(ConfigError) as info:
        PhysConstants(c=below)
    assert str(info.value) == f"c**2 must not underflow to 0, got c={below!r}"


def test_a_speed_of_light_whose_square_overflows_is_refused():
    # dE = c**2*dm, and every clock coupling divides by c**2, which is inf above about 1.3e154.
    largest = 1.3407807929942596e154
    above = math.nextafter(largest, math.inf)
    assert math.isfinite(largest * largest)
    assert above * above == math.inf
    PhysConstants(c=largest)
    with pytest.raises(ConfigError) as info:
        PhysConstants(c=above)
    assert str(info.value) == f"c**2 must not overflow, got c={above!r}"


def test_every_guard_in_the_package_has_a_row():
    # The literal name given to each _require or _require_type call is the
    # last part of a GUARDS or TYPES key, so a new guard cannot go untested.
    covered = {key.rsplit(".", 1)[-1] for key in (*GUARDS, *TYPES)}
    guards = ("_require", "_require_type")
    names = set()
    for path in Path(photonbox.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in guards:
                args = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "name")]
                names |= {a.value for a in args if isinstance(a, ast.Constant)}
    assert "t_emit" in names and "oracle" in names  # the walk reaches both guards
    assert names - covered == set()
