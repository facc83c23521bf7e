"""A derandomized fuzz over the README's input contract.

Constants, masses, the spring constant, the device precisions and the
emission time are drawn log-uniformly across about 600 decades.  On every
draw, each entry point must return or refuse with a ``PhotonBoxError``: a
numpy warning or any other exception fails the test.
"""

import warnings

from hypothesis import given, settings, strategies as st

from photonbox import (
    BoxParams,
    FreeFall,
    Harmonic,
    Measurement,
    OracleConfig,
    PhotonBoxError,
    PhysConstants,
    Route,
    Scenario,
    photon_inference,
    run_scenario,
    sweep,
    verify,
)


def decades(low: float, high: float):
    """10**e for e drawn uniformly from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


POSITIVE = decades(-300.0, 300.0)
NON_NEGATIVE = st.just(0.0) | POSITIVE


@st.composite
def scenario_parts(draw):
    """The arguments of one Scenario; building it may refuse them."""
    M = draw(POSITIVE)
    m = draw(st.just(0.0) | decades(-300.0, -0.5).map(lambda r: M * r))  # m < M; may underflow to 0
    potential = draw(st.just(FreeFall()) | st.builds(Harmonic, POSITIVE))
    return (
        dict(hbar=draw(POSITIVE), c=draw(POSITIVE), g=draw(NON_NEGATIVE)),
        dict(M=M, m=m, potential=potential),
        (draw(st.sampled_from(Route)), draw(decades(-12.0, 300.0)), draw(NON_NEGATIVE)),
        draw(NON_NEGATIVE),
    )


def returns_or_refuses(call) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except PhotonBoxError:
            pass


@settings(max_examples=600, deadline=None, derandomize=True)
@given(scenario_parts())
def test_every_entry_point_returns_or_refuses(parts):
    consts, box, measurement, t = parts
    try:
        s = Scenario(
            PhysConstants(**consts), BoxParams(**box), Measurement(*measurement), t,
            oracle=OracleConfig(n=16, buffer=2),
        )
    except PhotonBoxError:
        return
    route = s.measurement.route
    returns_or_refuses(lambda: run_scenario(s))
    returns_or_refuses(lambda: sweep(s, 0.0, t, 3))
    returns_or_refuses(lambda: photon_inference(s.constants, s.box, s.initial_state(), route, t))
    returns_or_refuses(lambda: verify(s, grid=3))
    returns_or_refuses(lambda: verify(s, grid=3, use_oracle=True))
