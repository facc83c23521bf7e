"""Operator algebra: affine coefficients, commutators, parameter guards."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from photonbox import (
    IDENTITY,
    INITIAL_CLOCK,
    INITIAL_MOMENTUM,
    INITIAL_POSITION,
    MASS,
    BoxParams,
    ConfigError,
    FreeFall,
    Harmonic,
    OperatorCoeffs,
    PhysConstants,
    commutator,
    mean_of,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def coeffs_strategy():
    return st.builds(
        OperatorCoeffs, a_q=finite, a_p=finite, a_cl=finite, a_1=finite, a_m=finite
    )


# ---------------------------------------------------------------------------
# canonical pairs
# ---------------------------------------------------------------------------


def test_canonical_commutator_q_p():
    # [q(0), p(0)] = +i hbar in the backward-time sign convention
    assert commutator(INITIAL_POSITION, INITIAL_MOMENTUM) == 1.0


def test_canonical_commutator_p_q():
    assert commutator(INITIAL_MOMENTUM, INITIAL_POSITION) == -1.0


@pytest.mark.parametrize("central", [INITIAL_CLOCK, IDENTITY, MASS])
def test_central_elements_commute_with_everything(central):
    for other in (INITIAL_POSITION, INITIAL_MOMENTUM, INITIAL_CLOCK, IDENTITY, MASS):
        assert commutator(central, other) == 0.0
        assert commutator(other, central) == 0.0


def test_commutator_frozen_example():
    # X = 2q + 3p, Y = p - q: chi = 2*1 - 3*(-1) = 5
    x = OperatorCoeffs(a_q=2.0, a_p=3.0)
    y = OperatorCoeffs(a_q=-1.0, a_p=1.0)
    assert commutator(x, y) == 5.0


def test_commutator_bilinearity_dict_oracle():
    # expand [2q+3p, p-q] by hand over the canonical table
    table = {("q", "p"): 1.0, ("p", "q"): -1.0}
    x = {"q": 2.0, "p": 3.0}
    y = {"q": -1.0, "p": 1.0}
    expected = sum(
        cx * cy * table.get((kx, ky), 0.0) for kx, cx in x.items() for ky, cy in y.items()
    )
    got = commutator(OperatorCoeffs(a_q=2.0, a_p=3.0), OperatorCoeffs(a_q=-1.0, a_p=1.0))
    assert got == expected == 5.0


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


@given(coeffs_strategy(), coeffs_strategy())
def test_commutator_antisymmetry(x, y):
    assert commutator(x, y) == -commutator(y, x)


@given(coeffs_strategy(), coeffs_strategy(), coeffs_strategy(), finite, finite)
def test_commutator_bilinearity(x, y, z, a, b):
    combo = OperatorCoeffs(
        *(a * u + b * v for u, v in zip(dataclasses.astuple(x), dataclasses.astuple(y)))
    )
    lhs = commutator(combo, z)
    rhs = a * commutator(x, z) + b * commutator(y, z)
    # roundoff is relative to the intermediate products, not the result
    def mag(op):
        return max(abs(op.a_q), abs(op.a_p))

    scale = max(1.0, (abs(a) * mag(x) + abs(b) * mag(y)) * mag(z))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(coeffs_strategy())
def test_self_commutator_vanishes(x):
    assert commutator(x, x) == 0.0


def test_mean_of_affine_expansion():
    x = OperatorCoeffs(a_q=2.0, a_p=-1.0, a_cl=0.5, a_1=3.0, a_m=4.0)
    mu = (1.0, 2.0, 3.0)
    # 2*1 - 1*2 + 0.5*3 + 3 + 4*0.25
    assert mean_of(x, mu, 0.25) == 5.5


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_constants_reject_nonpositive_hbar():
    with pytest.raises(ConfigError):
        PhysConstants(hbar=0.0, c=1.0, g=1.0)


def test_constants_reject_nonpositive_c():
    with pytest.raises(ConfigError):
        PhysConstants(hbar=1.0, c=-1.0, g=1.0)


def test_constants_accept_zero_gravity():
    assert PhysConstants(hbar=1.0, c=1.0, g=0.0).g == 0.0


def test_constants_reject_negative_gravity():
    with pytest.raises(ConfigError):
        PhysConstants(hbar=1.0, c=1.0, g=-9.8)


def test_box_rejects_nonpositive_mass():
    with pytest.raises(ConfigError):
        BoxParams(M=0.0, m=0.0)


def test_box_rejects_photon_mass_at_box_mass():
    with pytest.raises(ConfigError):
        BoxParams(M=1.0, m=1.0)


def test_box_accepts_zero_photon_mass():
    assert BoxParams(M=10.0, m=0.0).m == 0.0


def test_harmonic_requires_positive_stiffness():
    with pytest.raises(ConfigError):
        Harmonic(k=0.0)


def test_box_spring_and_frequency():
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
    assert box.spring_k == 1000.0
    assert box.omega == 1.0
    free = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    assert free.spring_k == 0.0
    assert free.omega == 0.0


def test_coeffs_reject_nonfinite():
    with pytest.raises(ConfigError):
        OperatorCoeffs(a_q=math.nan)
