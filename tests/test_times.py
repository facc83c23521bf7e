"""The time contract shared by every entry point that takes backward times.

Every time must be finite and >= 0; the integrated routes and the oracle
also need the grid ascending.  The first fault in grid order names the
error, and a time that is both bad and a descent is reported as bad.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from photonbox import (
    BoxParams,
    Harmonic,
    InvalidStep,
    InvalidTime,
    OracleConfig,
    PhysConstants,
    Route,
    build_workspace,
    closed_form_grid,
    commutator_ode_grid,
    evolve_closed,
    evolve_numeric_grid,
    mass_uncertainty,
    oracle_evolve_grid,
)

CONSTS = PhysConstants(hbar=1.0, c=1.0, g=1.0)
BOX = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
WORKSPACE = build_workspace(OracleConfig(n=16, buffer=6), CONSTS)
FRAME = evolve_closed(CONSTS, BOX, 2.0)

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


TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-2.0, max_value=3.0),
)


@settings(max_examples=150, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), ts=st.lists(TIMES, max_size=6))
def test_property_first_fault_in_grid_order(route, ts):
    assert time_fault(route, ts) == reference_fault(ts, ROUTES[route][1])
