"""Backward-time frames: closed forms, RK4 transfer maps, commutator ODEs."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from photonbox import (
    BoxParams,
    FreeFall,
    Harmonic,
    InvalidStep,
    InvalidTime,
    NumericOptions,
    OperatorCoeffs,
    Pair,
    PhysConstants,
    closed_form_grid,
    commutator,
    commutator_closed,
    commutator_ode_grid,
    evolve_closed,
    evolve_numeric_grid,
)
from photonbox.dynamics import (
    _chi_generator,
    _frame_generator,
    _leg_increment,
    _leg_steps,
    _rk4_grid,
    _rk4_step,
)
from photonbox.oracle import _phi

from exact_rk4 import chi_generator, frame_grid, oracle_phi, rk4_grid

# Rows and columns of a (3, 5) frame.
Q, P, QCL = range(3)
A_Q, A_P, A_CL, A_1, A_M = range(5)


def frame_dev(a, b):
    return float(np.abs(a - b).max())


def chi(x, y):
    """chi of [X, Y] for two frame rows, through the operator algebra."""
    return commutator(OperatorCoeffs(*x), OperatorCoeffs(*y))


def numeric_frame(consts, box, t, opts):
    return evolve_numeric_grid(consts, box, [t], opts)[0]


# ---------------------------------------------------------------------------
# closed forms, frozen coefficients
# ---------------------------------------------------------------------------


def test_free_fall_frame_at_t2(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    assert fr[Q, A_Q] == 1.0
    assert fr[Q, A_P] == 0.002
    assert fr[Q, A_M] == -0.002
    assert fr[Q, A_CL] == 0.0 and fr[Q, A_1] == 0.0
    assert fr[P, A_P] == 1.0
    assert fr[P, A_M] == -2.0
    assert fr[P, A_Q] == 0.0
    assert fr[QCL, A_CL] == 1.0
    assert fr[QCL, A_1] == 2.0
    assert fr[QCL, A_Q] == -2.0
    assert fr[QCL, A_P] == -0.002
    assert fr[QCL, A_M] == pytest.approx(8.0 / 6000.0, rel=1e-15)


def test_harmonic_frame_at_quarter_period(consts, ho_box):
    t = math.pi / 2
    fr = evolve_closed(consts, ho_box, t)
    assert abs(fr[Q, A_Q]) < 1e-15
    assert fr[Q, A_P] == pytest.approx(1e-3, rel=1e-14)
    assert fr[Q, A_M] == pytest.approx(-1e-3, rel=1e-14)
    assert fr[P, A_Q] == pytest.approx(-1000.0, rel=1e-14)
    assert abs(fr[P, A_P]) < 1e-13
    assert fr[P, A_M] == pytest.approx(-1.0, rel=1e-14)
    assert fr[QCL, A_CL] == 1.0
    assert fr[QCL, A_1] == pytest.approx(t, rel=1e-15)
    assert fr[QCL, A_Q] == pytest.approx(-1.0, rel=1e-14)
    assert fr[QCL, A_P] == pytest.approx(-1e-3, rel=1e-14)
    assert fr[QCL, A_M] == pytest.approx((t - 1.0) / 1000.0, rel=1e-12)


def test_frame_at_zero_is_identity(consts, ff_box, ho_box):
    for box in (ff_box, ho_box):
        fr = evolve_closed(consts, box, 0.0)
        assert fr[Q, A_Q] == 1.0 and fr[Q, A_P] == 0.0 and fr[Q, A_M] == 0.0
        assert fr[P, A_P] == 1.0 and fr[P, A_Q] == 0.0 and fr[P, A_M] == 0.0
        assert fr[QCL, A_CL] == 1.0 and fr[QCL, A_1] == 0.0 and fr[QCL, A_Q] == 0.0


def test_negative_time_rejected(consts, ff_box):
    with pytest.raises(InvalidTime):
        evolve_closed(consts, ff_box, -0.5)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def test_free_fall_commutators_grow(consts, ff_box):
    for t in (0.5, 1.0, 2.0, 3.0):
        assert commutator_closed(Pair.P_QCL, consts, ff_box, t) == t
        assert commutator_closed(Pair.Q_QCL, consts, ff_box, t) == t * t / 2000.0


def test_harmonic_commutators_oscillate(consts, ho_box):
    for t in (0.5, 1.0, 2.0, math.pi):
        assert commutator_closed(Pair.P_QCL, consts, ho_box, t) == math.sin(t)
        expected = 2.0 * math.sin(t / 2.0) ** 2 / 1000.0  # (1 - cos t)/1000
        assert commutator_closed(Pair.Q_QCL, consts, ho_box, t) == expected


def test_commutators_vanish_at_zero(consts, ff_box, ho_box):
    for box in (ff_box, ho_box):
        for pair in Pair:
            assert commutator_closed(pair, consts, box, 0.0) == 0.0


def test_frame_commutator_matches_closed(consts, ff_box, ho_box):
    # chi computed from the frame coefficients agrees with the closed form
    for box in (ff_box, ho_box):
        for t in (0.3, 1.7, 2.9):
            fr = evolve_closed(consts, box, t)
            for pair, row in ((Pair.P_QCL, P), (Pair.Q_QCL, Q)):
                direct = chi(fr[row], fr[QCL])
                closed = commutator_closed(pair, consts, box, t)
                assert direct == pytest.approx(closed, rel=1e-14, abs=1e-18)


def test_symplectic_invariant_preserved(consts, ff_box, ho_box):
    # [Q(t), P(t)] = i hbar at all times
    for box in (ff_box, ho_box):
        for t in (0.0, 0.5, 2.0, 5.0):
            fr = evolve_closed(consts, box, t)
            assert chi(fr[Q], fr[P]) == pytest.approx(1.0, rel=1e-13)


def test_zero_gravity_decouples_clock(ff_box, ho_box):
    consts0 = PhysConstants(hbar=1.0, c=1.0, g=0.0)
    for box in (ff_box, ho_box):
        for t in (0.5, 2.0):
            fr = evolve_closed(consts0, box, t)
            assert fr[QCL, A_Q] == 0.0 and fr[QCL, A_P] == 0.0 and fr[QCL, A_M] == 0.0
            assert commutator_closed(Pair.P_QCL, consts0, box, t) == 0.0
            assert commutator_closed(Pair.Q_QCL, consts0, box, t) == 0.0


def test_harmonic_tends_to_free_fall_for_soft_spring(consts, ff_box):
    # P row deviates by ~k*t (spring impulse); Q row by ~(omega t)^2 / 2
    t = 1.0
    ff = evolve_closed(consts, ff_box, t)
    for k in (1e-6, 1e-8):
        soft = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=k))
        fr = evolve_closed(consts, soft, t)
        assert frame_dev(fr, ff) <= 2.0 * k * t + 1e-15
    # quadratic smallness of the Q row
    soft = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1e-4))
    fr = evolve_closed(consts, soft, t)
    q_dev = float(np.abs(fr[Q] - ff[Q]).max())
    assert q_dev <= 2.0 * (soft.omega * t) ** 2


def mp_closed_form(consts, box, t):
    """Frame and chis at the float t and omega, as 50-digit textbook forms."""
    with mpmath.workdps(50):
        w, t, g, M, k = map(mpmath.mpf, (box.omega, t, consts.g, box.M, box.spring_k))
        g_c2 = g / mpmath.mpf(consts.c) ** 2
        cw = mpmath.cos(w * t)
        s = mpmath.sin(w * t) / w
        c = (1 - cw) / w**2
        d = (t - s) / w**2
        frame = [
            [cw, s / M, 0, 0, -g * c / M],
            [-k * s, cw, 0, 0, -g * s],
            [-g_c2 * s, -g_c2 * c / M, 1, t, g * g_c2 * d / M],
        ]
        return frame, [g_c2 * s, g_c2 * c / M]


# w*t across the series threshold and up to 3, short of the zero of sin at pi
ACCURACY_WT = np.concatenate([np.geomspace(1e-10, 3.0, 120), [0.2499, 0.25, 0.2501]])


@pytest.mark.parametrize(
    "consts, M, t",
    [(PhysConstants(), 1000.0, 2.0), (PhysConstants(hbar=1.0, c=3.0, g=9.81), 0.7, 0.37)],
    ids=["unit", "odd"],
)
def test_closed_forms_accurate_from_soft_to_stiff(consts, M, t):
    # Every coefficient that is not a constant 0 or 1, relative to its own size.
    for wt in ACCURACY_WT:
        box = BoxParams(M=M, m=0.0, potential=Harmonic(k=M * (wt / t) ** 2))
        frames, chis = closed_form_grid(consts, box, [t])
        ref_frame, ref_chis = mp_closed_form(consts, box, t)
        pairs = [(frames[0, i, j], ref_frame[i][j]) for i in range(3) for j in (A_Q, A_P, A_M)]
        pairs += list(zip(chis[0], ref_chis))
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-13 * abs(ref), (wt, got, float(ref))


@settings(max_examples=100, deadline=None)
@given(
    log_wt=st.floats(-15.0, -7.0),
    log_M=st.floats(-1.0, 4.0),
    t=st.floats(1e-3, 1e3),
    g=st.floats(0.1, 10.0),
    c=st.floats(1.0, 3.0),
)
def test_property_soft_spring_frames_are_free_fall(log_wt, log_M, t, g, c):
    # Below w*t = 1e-7 a spring's frames differ from free fall's by (w*t)**2
    # relative; the only entry with no free-fall counterpart is P.a_q = -k*t,
    # whose share of [Q, P] = a_q(Q)*a_p(P) - a_p(Q)*a_q(P) is (w*t)**2 too.
    consts = PhysConstants(hbar=1.0, c=c, g=g)
    M = 10.0**log_M
    soft = BoxParams(M=M, m=0.0, potential=Harmonic(k=M * (10.0**log_wt / t) ** 2))
    free = BoxParams(M=M, m=0.0, potential=FreeFall())
    (frame,), chis = closed_form_grid(consts, soft, [t])
    (free_frame,), free_chis = closed_form_grid(consts, free, [t])
    assert abs(frame[P, A_Q] * frame[Q, A_P]) <= 1e-13
    frame[P, A_Q] = free_frame[P, A_Q]
    np.testing.assert_allclose(frame, free_frame, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(chis, free_chis, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------


def test_numeric_matches_closed_free_fall(consts, ff_box):
    fr_n = numeric_frame(consts, ff_box, 2.0, NumericOptions(step=1e-3))
    fr_c = evolve_closed(consts, ff_box, 2.0)
    assert frame_dev(fr_n, fr_c) < 1e-12


def test_numeric_matches_closed_harmonic(consts, ho_box):
    fr_n = numeric_frame(consts, ho_box, 3.0, NumericOptions(step=1e-3))
    fr_c = evolve_closed(consts, ho_box, 3.0)
    assert frame_dev(fr_n, fr_c) < 1e-10


def test_numeric_grid_is_continuation(consts, ho_box):
    # frames emitted along one integration must agree with the closed forms at every grid time
    ts = [0.0, 0.7, 1.4, 2.8]
    frames = evolve_numeric_grid(consts, ho_box, ts, NumericOptions(step=1e-3))
    assert frames.shape == (4, 3, 5)
    ref, _ = closed_form_grid(consts, ho_box, ts)
    assert np.abs(frames - ref).max() < 1e-10


def test_ode_commutators_match_closed(consts, ff_box, ho_box):
    opts = NumericOptions(step=1e-3)
    for box in (ff_box, ho_box):
        ode = commutator_ode_grid(consts, box, [2.0], opts)[0]
        for got, pair in zip(ode, Pair):
            want = commutator_closed(pair, consts, box, 2.0)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_ode_commutator_grid_shape(consts, ff_box):
    ts = [0.0, 1.0, 2.0]
    out = commutator_ode_grid(consts, ff_box, ts, NumericOptions(step=1e-3))
    assert out.shape == (3, 2)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
    assert out[2, 0] == pytest.approx(2.0, rel=1e-12)


def test_nonpositive_step_rejected():
    with pytest.raises(InvalidStep):
        NumericOptions(step=0.0)


def test_rk4_order_four(consts, ho_box):
    # halving the step cuts the error by ~2^4
    t = 3.0
    ref = evolve_closed(consts, ho_box, t)
    err_h = frame_dev(numeric_frame(consts, ho_box, t, NumericOptions(step=0.05)), ref)
    err_h2 = frame_dev(numeric_frame(consts, ho_box, t, NumericOptions(step=0.025)), ref)
    assert 12.8 <= err_h / err_h2 <= 19.2


def test_free_fall_transfer_group_property(consts, ff_box):
    # evolving to t1+t2 equals composing the affine maps for t1 and t2
    def transfer(t):
        m = np.eye(5)
        m[:3] = evolve_closed(consts, ff_box, t)
        return m

    t1, t2 = 0.8, 1.7
    composed = transfer(t2) @ transfer(t1)
    direct = transfer(t1 + t2)
    assert np.max(np.abs(composed - direct)) < 1e-12


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

CONSTS = PhysConstants(hbar=1.0, c=1.0, g=1.0)
FF = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
HO = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))

times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(times)
def test_property_symplectic_free_fall(t):
    fr = evolve_closed(CONSTS, FF, t)
    assert abs(chi(fr[Q], fr[P]) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(times, st.floats(min_value=1.0, max_value=1e4, allow_nan=False))
def test_property_symplectic_harmonic(t, k):
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=k))
    fr = evolve_closed(CONSTS, box, t)
    assert abs(chi(fr[Q], fr[P]) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(times)
def test_property_chi_consistency(t):
    fr = evolve_closed(CONSTS, HO, t)
    assert chi(fr[P], fr[QCL]) == pytest.approx(
        commutator_closed(Pair.P_QCL, CONSTS, HO, t), rel=1e-12, abs=1e-15
    )


# The folded power and the exact reference's n steps are the same polynomial
# in h*K, so they differ by the fold's rounding alone.  The leg map carries
# its increment over I, whose rounding turns the phase by about eps*w*h a
# step, so the deviation grows as eps*w*t: with w*t up to about 250 here,
# some 1e-13 of max(1, the largest |entry|).  The bound was fixed before any
# run; the worst over 20000 draws of these ranges was 2.3e-13 (a stiff
# spring's frames and Phi, w*t = 88).
LEG_BOUND = 1e-11


@settings(max_examples=80, deadline=None)
@given(
    M=st.floats(1.0, 1e4),
    k=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    g=st.floats(0.1, 3.0),
    c=st.floats(1.0, 3.0),
    t=st.floats(1e-3, 4.0),
    n=st.integers(1, 5000),
)
def test_leg_map_matches_stepping(M, k, g, c, t, n):
    # One leg of n steps, then a second leg of the same length, which reuses
    # the cached map; the reference takes the n steps of each leg exactly.
    box = BoxParams(M=M, m=0.5, potential=Harmonic(k=k) if k else FreeFall())
    assume(t / n * box.omega <= 1.0)  # inside RK4's stable region
    consts = PhysConstants(hbar=1.0, c=c, g=g)
    step = t / (n - 0.5)  # ceil(t / step) is n, clear of rounding
    ts = [t, 2.0 * t]
    y0 = np.array([0.0, 0.0, 1.0])
    frames = frame_grid(consts, box, ts, step)
    for got, want in (
        (_rk4_grid(_frame_generator(consts, box), np.eye(5), ts, step, "numeric.step"), frames),
        (
            _rk4_grid(_chi_generator(consts, box), y0, ts, step, "numeric.step"),
            rk4_grid(chi_generator(consts, box), y0, ts, step),
        ),
        (_phi(consts, box, ts, step), oracle_phi(frames, box.m)),
    ):
        want = want.astype(float)
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= LEG_BOUND * scale


def rk4_grid_per_leg(K, y0, ts, step, label):
    """The leg loop as _rk4_grid ran it before it stacked its builds: one map
    per exact leg length, built alone and cached in a dict, and y = y + F @ y."""
    maps = {}
    out = np.empty((len(ts), *y0.shape))
    y = y0
    t_prev = 0.0
    for i, t in enumerate(map(float, ts)):
        dt = t - t_prev
        if dt > 0:
            if dt not in maps:
                n = _leg_steps(step, t_prev, t, label)
                maps[dt] = _leg_increment(_rk4_step(K, dt / n), n)
            y = y + maps[dt] @ y
        out[i] = y
        t_prev = t
    return out


def oracle_generator(consts, box):
    """The 4 x 4 K over (Q, P, Qcl, I) of photonbox.oracle.oracle_evolve_grid."""
    return np.array(
        [
            [0.0, 1.0 / box.M, 0.0, 0.0],
            [-box.spring_k, 0.0, 0.0, -box.m * consts.g],
            [-consts.g / (consts.c * consts.c), 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


GENERATORS = {
    "K3": (_chi_generator, np.array([0.0, 0.0, 1.0])),
    "K4": (oracle_generator, np.eye(4)),
    "K5": (_frame_generator, np.eye(5)),
}
# Repeated times, and legs of 1, 2, 498 and 2500 steps at step 1e-3.
MIXED_GRID = [0.0, 0.0, 1e-4, 1.5e-3, 2.5e-3, 0.5, 0.5, 3.0]


@pytest.mark.parametrize("size", sorted(GENERATORS))
@pytest.mark.parametrize(
    "ts, step",
    [
        (np.linspace(0.0, 2.0, 100), 1e-3),
        (np.linspace(0.0, 3.7, 100), 1e-3),
        (np.linspace(0.0, 4.0, 100), 0.3),
        (np.array(MIXED_GRID), 1e-3),
        (np.array([0.0, 1e-3, 0.5, 2.0]), 1e-300),  # step counts past int64
    ],
    ids=["linspace-2", "linspace-3.7", "linspace-step-0.3", "mixed", "step-1e-300"],
)
def test_rk4_grid_matches_the_per_leg_loop_bit_for_bit(consts, ff_box, ho_box, size, ts, step):
    # Stacking the builds of the maps that share a step count, and writing
    # y + F y through a scratch buffer, changes no bit of the result.
    generator, y0 = GENERATORS[size]
    for box in (ff_box, ho_box):
        K = generator(consts, box)
        want = rk4_grid_per_leg(K, y0, ts, step, "numeric.step")
        assert np.array_equal(_rk4_grid(K, y0, ts, step, "numeric.step"), want)


def test_rk4_grid_names_the_first_leg_whose_step_count_overflows(consts, ho_box):
    # The first leg takes about 1e297 steps, which a float still counts; the
    # second, 2e310, does not, and the message names that leg's two times, not
    # those of the shorter third leg, which overflows too.
    ts = np.array([0.0, 1e-3, 2e10, 3e10])
    with pytest.raises(InvalidStep) as err:
        _rk4_grid(_frame_generator(consts, ho_box), np.eye(5), ts, 1e-300, "numeric.step")
    assert str(err.value) == (
        "numeric.step 1e-300 is too small for the leg from t=0.001 to t=20000000000.0:"
        " its step count overflows"
    )


# A leg map formed as I + (a small increment) loses the spring's (h*w)**2/2
# against the 1 at a small step, and its power carries that loss n-fold; the
# leg maps are built on their increments over I, so the step may go down to
# 1e-300, from a soft spring (w*T of 1e-6) to a stiff one.  The bound,
# relative to max(1, |ref|), was fixed before any run.
SMALL_STEP_BOUND = 1e-11


@settings(max_examples=60, deadline=None)
@given(
    log_step=st.floats(-300.0, -5.0),
    log_k=st.floats(-2.0, 4.0),
    log_M=st.floats(1.0, 4.0),
    wT=st.floats(1e-6, 4.0),
)
def test_numeric_routes_match_closed_forms_at_any_small_step(log_step, log_k, log_M, wT):
    box = BoxParams(M=10.0**log_M, m=1.0, potential=Harmonic(k=10.0**log_k))
    ts = np.linspace(0.0, wT / box.omega, 5)
    opts = NumericOptions(step=10.0**log_step)
    closed, chis = closed_form_grid(CONSTS, box, ts)
    for got, ref in (
        (evolve_numeric_grid(CONSTS, box, ts, opts), closed),
        (commutator_ode_grid(CONSTS, box, ts, opts), chis),
    ):
        assert np.all(np.abs(got - ref) <= SMALL_STEP_BOUND * np.maximum(1.0, np.abs(ref)))
