"""The time contract shared by every entry point that takes backward times.

A grid is a 1-D array of numbers, and every time must be finite and >= 0;
the integrated routes and the oracle also need the grid ascending.  The
first fault in grid order names the error, and a time that is both bad and
a descent is reported as bad.  A single-time view wraps its t as [t], so an
array t is refused as a grid of one more axis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonbox import (
    BoxParams,
    Harmonic,
    InvalidStep,
    InvalidTime,
    OracleConfig,
    Pair,
    PhysConstants,
    Route,
    build_workspace,
    closed_form_grid,
    commutator_closed,
    commutator_ode_grid,
    evolve_closed,
    evolve_numeric_grid,
    infer_grid,
    mass_uncertainty,
    oracle_evolve,
    oracle_evolve_grid,
    photon_inference,
    prepare_post_measurement_state,
)

CONSTS = PhysConstants(hbar=1.0, c=1.0, g=1.0)
BOX = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
WORKSPACE = build_workspace(OracleConfig(n=16, buffer=6), CONSTS)
FRAME = evolve_closed(CONSTS, BOX, 2.0)
STATE = prepare_post_measurement_state(Route.P, 0.5, 0.0, CONSTS)

# Each entry point as a call on a grid, and whether it needs the grid
# ascending.  mass_uncertainty takes one time, so it is called on each in
# grid order.
ROUTES = {
    "closed_form_grid": (lambda ts: closed_form_grid(CONSTS, BOX, ts), False),
    "evolve_numeric_grid": (lambda ts: evolve_numeric_grid(CONSTS, BOX, ts), True),
    "commutator_ode_grid": (lambda ts: commutator_ode_grid(CONSTS, BOX, ts), True),
    "oracle_evolve_grid": (lambda ts: oracle_evolve_grid(WORKSPACE, CONSTS, BOX, ts), True),
    "mass_uncertainty": (
        lambda ts: [mass_uncertainty(FRAME, t, Route.P, 0.5, BOX) for t in ts],
        False,
    ),
}

UNSORTED = "grid times must be sorted ascending"


def bad(t):
    return f"elapsed time must be finite and >= 0, got {t!r}"


def not_a_grid(what):
    return f"a time grid must be a 1-D array of numbers, got {what}"


# Grid, then the error text for a route that needs it ascending and for
# one that does not (None: the grid is accepted).
CASES = {
    "negative": ((0.5, -1.0), bad(-1.0), bad(-1.0)),
    "nan": ((0.0, math.nan), bad(math.nan), bad(math.nan)),
    "inf": ((0.5, math.inf), bad(math.inf), bad(math.inf)),
    "-inf": ((0.5, -math.inf), bad(-math.inf), bad(-math.inf)),
    "unsorted": ((1.0, 0.5), UNSORTED, None),
    "unsorted_before_nan": ((1.0, 0.5, math.nan), UNSORTED, bad(math.nan)),
    "nan_before_unsorted": ((1.0, math.nan, 0.5), bad(math.nan), bad(math.nan)),
    # An int past the float range reads as the infinity of its sign.
    "huge_int": ((10**400,), bad(math.inf), bad(math.inf)),
    "-huge_int": ((1.0, -10**400), bad(-math.inf), bad(-math.inf)),
}
# A grid that is not a 1-D array of numbers, and the text every grid route
# raises on it.  mass_uncertainty takes one time, so these are no grids to it.
NOT_GRIDS = {
    "scalar": (1.0, not_a_grid("shape () of float64")),
    "2-D": ([[1.0, 2.0], [3.0, 4.0]], not_a_grid("shape (2, 2) of float64")),
    "string": (["a"], not_a_grid("shape (1,) of <U1")),
    "ragged": ([[1.0, 2.0], [3.0]], not_a_grid("a ragged nesting")),
}
GRID_CALLS = {
    **{route: call for route, (call, _) in ROUTES.items() if route != "mass_uncertainty"},
    "infer_grid": lambda ts: infer_grid(CONSTS, BOX, STATE, ts),
}

# Each single-time view as a call on one time t.
VIEWS = {
    "evolve_closed": lambda t: evolve_closed(CONSTS, BOX, t),
    "commutator_closed": lambda t: commutator_closed(Pair.P_QCL, CONSTS, BOX, t),
    "photon_inference": lambda t: photon_inference(CONSTS, BOX, STATE, Route.P, t),
    "oracle_evolve": lambda t: oracle_evolve(WORKSPACE, CONSTS, BOX, t),
    "mass_uncertainty": lambda t: mass_uncertainty(FRAME, t, Route.P, 0.5, BOX),
}


def time_fault(route, ts):
    """The InvalidTime text the route raises on ts, or None if it raises none.

    A step fault is checked only after the times, so it counts as none.
    """
    call, _ = ROUTES[route]
    try:
        call(ts)
    except InvalidTime as exc:
        return str(exc)
    except InvalidStep:
        pass
    return None


def reference_fault(ts, ascending):
    """The first fault in grid order, by a plain loop over the times."""
    prev = 0.0
    for t in ts:
        if not math.isfinite(t) or t < 0:
            return bad(t)
        if ascending and t < prev:
            return UNSORTED
        prev = t
    return None


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("route", ROUTES)
def test_time_contract(route, case):
    ts, if_ascending, otherwise = CASES[case]
    expected = if_ascending if ROUTES[route][1] else otherwise
    assert time_fault(route, ts) == expected


@pytest.mark.parametrize("case", NOT_GRIDS)
@pytest.mark.parametrize("route", GRID_CALLS)
def test_grid_must_be_1d_numbers(route, case):
    ts, text = NOT_GRIDS[case]
    with pytest.raises(InvalidTime) as info:
        GRID_CALLS[route](ts)
    assert str(info.value) == text


@pytest.mark.parametrize("view", VIEWS)
def test_single_time_view_refuses_an_array_t(view):
    with pytest.raises(InvalidTime) as info:
        VIEWS[view](np.array([1.0, 2.0]))
    assert str(info.value) == not_a_grid("shape (1, 2) of float64")


@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
@pytest.mark.parametrize("view", VIEWS)
def test_single_time_view_reads_a_huge_int_as_infinity(view, sign):
    with pytest.raises(InvalidTime) as info:
        VIEWS[view](sign * 10**400)
    assert str(info.value) == bad(sign * math.inf)


TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-2.0, max_value=3.0),
)


@settings(max_examples=150, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), ts=st.lists(TIMES, max_size=6))
def test_property_first_fault_in_grid_order(route, ts):
    assert time_fault(route, ts) == reference_fault(ts, ROUTES[route][1])
