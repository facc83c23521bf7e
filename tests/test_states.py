"""Gaussian propagation, bound checks, inference, mixtures, diagnostics."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from photonbox import (
    BOUND_SLACK,
    BoxParams,
    Denominator,
    FreeFall,
    GaussianState,
    Harmonic,
    InferenceReport,
    InvalidMixture,
    InvalidPrecision,
    InvalidState,
    InvalidTime,
    MassMixture,
    Measurement,
    NoElapsedTime,
    Pair,
    PhysConstants,
    Route,
    Scenario,
    check_bound,
    commutator_closed,
    evolve_closed,
    infer_grid,
    mass_uncertainty,
    mixture_statistics,
    photon_inference,
    prepare_post_measurement_state,
    propagate_state,
    run_scenario,
    time_energy_diagnostic,
)
from photonbox.states import _covariance


def state(sigma, mu=(0.0, 0.0, 0.0)):
    return GaussianState(mu=np.asarray(mu, dtype=float), sigma=np.asarray(sigma, dtype=float))


# ---------------------------------------------------------------------------
# GaussianState validation
# ---------------------------------------------------------------------------


def test_state_rejects_bad_shapes():
    with pytest.raises(InvalidState):
        GaussianState(mu=np.zeros(2), sigma=np.eye(3))
    with pytest.raises(InvalidState):
        GaussianState(mu=np.zeros(3), sigma=np.eye(2))


def test_state_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = math.inf
    with pytest.raises(InvalidState):
        GaussianState(mu=np.zeros(3), sigma=bad)


def test_state_rejects_moments_that_are_not_numbers():
    with pytest.raises(InvalidState) as info:
        GaussianState(mu=["a", "b", "c"], sigma=np.eye(3))
    assert type(info.value) is InvalidState
    assert str(info.value) == "mu and sigma must be arrays of numbers"


def test_state_rejects_asymmetric_sigma():
    sigma = np.eye(3)
    sigma[0, 1] = 0.5
    with pytest.raises(InvalidState, match=r"^sigma must be symmetric$"):
        state(sigma)


def test_state_rejects_negative_eigenvalue():
    # Refused as it is built, so check_bound and the diagnostic never see it.
    with pytest.raises(InvalidState) as info:
        GaussianState(np.zeros(3), np.diag([1, -0.1, 0]))
    assert str(info.value) == "sigma must be positive semidefinite, min eig -0.1"


def test_state_rejects_negative_clock_variance():
    # Within the semidefiniteness tolerance 1e-10, so only the clock check sees it.
    with pytest.raises(InvalidState) as info:
        GaussianState(np.zeros(3), np.diag([1.0, 1.0, -1e-12]))
    assert str(info.value) == "clock variance must be >= 0"


def test_state_refuses_an_asymmetry_that_overflows():
    # sigma[0, 1] - sigma[1, 0] overflows to -inf, without a warning.
    with pytest.raises(InvalidState) as info:
        GaussianState(np.zeros(3), [[1e308, -1e308, 0], [1e308, 1e308, 0], [0, 0, 0]])
    assert str(info.value) == "sigma must be symmetric"


def numpy_structure_check(mu, sigma):
    """The structure check as whole-array numpy calls: the refusal's text, or None."""
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        return "moments must be finite"
    scale = max(1.0, float(np.abs(sigma).max()))
    with np.errstate(over="ignore"):  # an overflowing difference reads inf, and is refused
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            return "sigma must be symmetric"
    min_eig = float(np.linalg.eigvalsh(sigma).min())
    if min_eig < -1e-10 * scale:
        return f"sigma must be positive semidefinite, min eig {min_eig}"
    if sigma[2, 2] < 0:
        return "clock variance must be >= 0"
    return None


ZERO = st.sampled_from([0.0, -0.0])
ENTRY = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 included
# Diagonal entries that often repeat, and that fall on either side of the
# clock check within the semidefiniteness tolerance.
DIAGONAL_ENTRY = ZERO | st.sampled_from([1.0, 0.25, -0.5, -1e-12, -5e-324]) | ENTRY
RARELY = st.sampled_from([True, False, False])
OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


@st.composite
def psd_sigma(draw):
    """A coupled positive semidefinite covariance, R R^T for a drawn 3x3 root R."""
    root = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))).reshape(3, 3)
    root *= 2.0 ** draw(st.integers(-150, 150))
    return root @ root.T


@st.composite
def moments(draw):
    """mu and sigma: diagonal, coupled PSD, symmetric or arbitrary; maybe asymmetric or not finite."""
    kind = draw(st.sampled_from(["diagonal", "diagonal", "psd", "symmetric", "arbitrary"]))
    if kind == "diagonal":
        sigma = np.diag(draw(st.lists(DIAGONAL_ENTRY, min_size=3, max_size=3)))
        for ij in OFF_DIAGONAL:
            sigma[ij] = draw(ZERO)
    elif kind == "psd":
        sigma = draw(psd_sigma())
    else:
        sigma = np.array(draw(st.lists(ENTRY, min_size=9, max_size=9))).reshape(3, 3)
        if kind == "symmetric":
            sigma = np.triu(sigma) + np.triu(sigma, 1).T
    scale = max(1.0, float(np.abs(sigma).max()))
    for i in range(3):
        if draw(RARELY):  # near the semidefiniteness threshold
            sigma[i, i] = -draw(st.floats(0.5, 2.0)) * 1e-10 * scale
    if draw(RARELY):  # one off-diagonal entry, within or beyond the symmetry tolerance
        with np.errstate(over="ignore"):
            sigma[draw(st.sampled_from(OFF_DIAGONAL))] += draw(st.floats(0.0, 3.0)) * 1e-10 * scale
    mu = np.array(draw(st.lists(ENTRY, min_size=3, max_size=3)))
    if draw(RARELY):  # one moment not finite
        flat = draw(st.sampled_from([mu, sigma.reshape(-1)]))
        flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return mu, sigma


@settings(max_examples=500, deadline=None, derandomize=True)
@given(moments())
def test_structure_check_matches_the_numpy_reference(mu_sigma):
    mu, sigma = mu_sigma
    try:
        GaussianState(mu, sigma)
        got = None
    except InvalidState as error:
        got = str(error)
    want = numpy_structure_check(mu, sigma)
    nonzero = np.abs(sigma[sigma != 0])
    diagonal = not sigma[~np.eye(3, dtype=bool)].any()
    if not (diagonal and np.isfinite(sigma).all() and ((nonzero < 1e-140) | (nonzero > 1e140)).any()):
        assert got == want
        return
    # eigvalsh rescales a matrix with entries beyond about 1e+-140, and may
    # then misread a diagonal entry by an ulp, or as 0; the check reads the
    # entries themselves.  Away from the threshold, the verdicts agree.
    entries = np.diagonal(sigma).tolist()
    threshold = -1e-10 * max(1.0, *map(abs, entries))
    assume(not math.isclose(min(entries), threshold, rel_tol=1e-12))
    prefix = "sigma must be positive semidefinite, min eig "
    assert (got and got.split(", min eig ")[0]) == (want and want.split(", min eig ")[0])
    if got is not None and got.startswith(prefix):
        assert got == prefix + repr(min(entries))


@pytest.mark.parametrize("ij", OFF_DIAGONAL, ids=str)
def test_any_one_off_diagonal_entry_couples_the_covariance(ij):
    # Within the symmetry tolerance, an entry below the diagonal moves the
    # smallest eigenvalue off -0.5 (eigvalsh reads the lower triangle only).
    sigma = np.diag([-0.5, -0.5, -0.5])
    sigma[ij] = 1e-11
    with pytest.raises(InvalidState) as info:
        GaussianState(np.zeros(3), sigma)
    assert str(info.value) == numpy_structure_check(np.zeros(3), sigma)


def test_validate_rejects_sub_heisenberg():
    # dq*dp = 0.4 < hbar/2; a singular block whose products overflow; and one
    # whose correlation rounds to just past 1.
    for block in ([0.16, 0.0, 1.0], [1e200, 1e200, 1e200], [2.0, 2.0000000000000004, 2.0]):
        sigma = np.zeros((3, 3))
        sigma[0, 0], sigma[0, 1], sigma[1, 1] = block
        sigma[1, 0] = sigma[0, 1]
        with pytest.raises(InvalidState, match=r"^q/p uncertainty product below hbar\*\*2/4: "):
            state(sigma).validate(hbar=1.0)


# A spread m*2**e with a 17-bit m: every variance (from 1e-300 to 1e300) and
# every covariance r*dq*dp with r = k/2**17 is then exact in floating point.
# Arbitrary float entries would not do: when |r| is within an ulp of 1, the
# exact determinant is a rounding residue near eps*sigma_qq*sigma_pp, which
# no floating-point evaluation resolves.
SPREADS = st.builds(math.ldexp, st.integers(2**16, 2**17 - 1), st.integers(-514, 481))


@given(SPREADS, SPREADS, st.integers(-(2**17), 2**17), st.none() | st.floats(-1e-11, 1e-11))
def test_validate_decides_on_the_exact_determinant(dq, dp, k, nudge):
    # hbar is 1, or within 1e-11 of the value at which the state saturates it.
    r = k / 2**17
    root = dq * dp * math.sqrt(1.0 - r * r)
    hbar = 1.0 if nudge is None or root == 0.0 else 2.0 * root * (1.0 + nudge)
    sigma = np.diag([dq * dq, dp * dp, 0.0])
    sigma[0, 1] = sigma[1, 0] = r * dq * dp
    det = Fraction(sigma[0, 0]) * Fraction(sigma[1, 1]) - Fraction(sigma[0, 1]) ** 2
    bound = Fraction(hbar) ** 2 / 4
    if det < bound * (1 - Fraction(2, 10**12)):
        with pytest.raises(InvalidState):
            state(sigma).validate(hbar)
    elif det >= bound:
        state(sigma).validate(hbar)


def test_validate_accepts_saturating_state():
    sigma = np.diag([0.25, 1.0, 0.0])
    state(sigma).validate(hbar=1.0)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagation_matches_hand_expansion(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    st0 = state(np.diag([1.0, 0.25, 0.0]))
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)

    # means: mu_X = a_q mu_q + a_p mu_p + a_cl mu_cl + a_1 + a_m m
    # frame rows Q, P, Qcl; columns a_q, a_p, a_cl, a_1, a_m
    assert st.mu[0] == pytest.approx(fr[0, 4] * 1.0, rel=1e-15)
    assert st.mu[1] == pytest.approx(fr[1, 4] * 1.0, rel=1e-15)
    assert st.mu[2] == pytest.approx(fr[2, 3] + fr[2, 4] * 1.0, rel=1e-15)

    # covariance: sigma_t = S sigma0 S^T with S the coefficient matrix
    s_mat = fr[:, :3]
    expected = s_mat @ st0.sigma @ s_mat.T
    assert np.max(np.abs(st.sigma - expected)) < 1e-14


def test_propagation_reference_spreads(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, ff_box, 2.0)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    dq, dp, dqcl = st.spreads
    assert dp == 0.5
    assert dq == pytest.approx(math.sqrt(1.0 + 0.25 * 4e-6), rel=1e-15)
    assert dqcl == 2.0000002499999843
    assert dqcl == pytest.approx(math.sqrt(4.000001), rel=1e-15)


def test_propagation_rejects_invalid_initial(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 1.0)
    with pytest.raises(InvalidState):
        propagate_state(fr, state(np.diag([0.01, 0.01, 0.0])), 1.0, hbar=consts.hbar)


def test_overflowing_moments_are_refused(consts):
    # p*t/M overflows for M = 1e-300 at t = 1e3.
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, BoxParams(M=1e-300, m=1e-301), 1e3)
    for call in (
        lambda: propagate_state(fr, st0, 1e-301),
        lambda: mixture_statistics(fr, MassMixture(((1.0, 1e-301),)), st0),
    ):
        with pytest.raises(InvalidState) as info:
            call()
        assert str(info.value) == "propagated moments are not finite"


# infer_grid takes its spreads from the diagonal of S Sigma S^T alone, summed
# elementwise; hbar/2 rounds to 0 here, so that any covariance validates.
TINY_HBAR = 5e-324
HALF_MAX = np.finfo(float).max / 2  # exact: a power-of-two scaling


@pytest.mark.parametrize(
    "over, ts, first",
    [(True, [0.0, 4.000000000000001, 2.0, 4.0], "4.000000000000001"), (False, [0.0, 1.0, 4.0, 2.0], None)],
    ids=["above", "below"],
)
def test_grid_refuses_exactly_where_twice_a_variance_overflows(over, ts, first):
    # Free fall with g = 0: Q(t) = q + p*t/M, so var_Q = 1 + (t*v)*t with v the
    # momentum variance.  With M = 1 and v = DBL_MAX/32, var_Q at t = 4 is
    # DBL_MAX/2 exactly (1 is below half its ulp), and 2*var_Q still finite;
    # one ulp more in v and 2*var_Q overflows at t = 4 and just past it.
    v = HALF_MAX / 16.0
    if over:
        v = math.nextafter(v, math.inf)
    s0 = state(np.diag([1.0, v, 1.0]))
    consts, box = PhysConstants(hbar=1.0, c=1.0, g=0.0), BoxParams(M=1.0, m=0.5)
    if over:
        with pytest.raises(InvalidState) as info:
            infer_grid(consts, box, s0, ts)
        assert str(info.value) == f"propagated moments are not finite at t={first}"
    else:
        _, rows = infer_grid(consts, box, s0, ts)
        assert rows["dq"][2] == math.sqrt(HALF_MAX) and np.isfinite(rows["dq"]).all()


GRID_BOXES = st.builds(
    BoxParams,
    M=st.floats(100.0, 1e4),
    m=st.floats(0.0, 10.0),
    potential=st.one_of(st.builds(FreeFall), st.builds(Harmonic, k=st.floats(0.1, 1e3))),
)
GRID_TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(psd_sigma(), GRID_BOXES, GRID_TIMES, st.floats(1.0, 10.0))
def test_grid_spreads_of_a_coupled_state_match_the_whole_covariance(sigma, box, ts, c):
    # Each variance is a sum of nine products S_Xk*Sigma_kj*S_Xj.  Any order of
    # its multiplications and additions, fused or not, rounds it within
    # gamma_6 = 6u (u = eps/2) of the exact sum, relative to A_X, the sum of the
    # nine products' magnitudes (Higham, Accuracy and Stability, 3.1), so the
    # two routes' variances differ by at most 6 eps*A_X.  The square roots add
    # a relative u each, at most 3 eps*A_X in d1**2 - d2**2; so the bound below
    # is 10 eps*A_X (a few ulps of the variance where nothing cancels), plus
    # 1e-300 for products that round in the subnormal range.
    consts = PhysConstants(hbar=TINY_HBAR, c=c, g=1.0)
    frames, rows = infer_grid(consts, box, state(sigma), ts)
    eps = np.finfo(float).eps
    for frame, row in zip(frames, rows):
        whole = np.sqrt(np.maximum(np.diagonal(_covariance(frame, sigma)), 0.0))
        S = np.abs(frame[:, :3])
        scale = ((S @ np.abs(sigma)) * S).sum(axis=1)  # A_X for each row X
        for d1, d2, a in zip((row["dq"], row["dp"], row["dqcl"]), whole, scale):
            assert abs(d1 - d2) * (d1 + d2) <= 10 * eps * a + 1e-300


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1e100), min_size=3, max_size=3), GRID_BOXES, GRID_TIMES)
def test_grid_spreads_of_a_diagonal_state_are_a_fixed_order_sum(diagonal, box, ts):
    consts = PhysConstants(hbar=TINY_HBAR, c=3.0, g=1.0)
    frames, rows = infer_grid(consts, box, state(np.diag(diagonal)), ts)
    for frame, row in zip(frames, rows):
        for x, name in enumerate(("dq", "dp", "dqcl")):
            s = frame[x, :3].tolist()
            terms = [(s[j] * diagonal[j]) * s[j] for j in range(3) if diagonal[j]]
            var = terms[0] if terms else 0.0
            for term in terms[1:]:
                var += term
            assert row[name] == math.sqrt(max(var, 0.0)), name


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


def test_check_bound_reference(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, ff_box, 2.0)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    chi = commutator_closed(Pair.P_QCL, consts, ff_box, 2.0)
    res = check_bound(st, chi, Pair.P_QCL, consts)
    assert res.dx == 0.5
    assert res.bound == 1.0
    assert res.product == pytest.approx(0.5 * math.sqrt(4.000001), rel=1e-15)
    assert res.ok


def test_check_bound_flags_violation(consts, ff_box):
    # fabricated sub-bound moments must fail the check
    chi = commutator_closed(Pair.P_QCL, consts, ff_box, 2.0)
    st = state(np.diag([1.0, 0.25, 0.25]))
    res = check_bound(st, chi, Pair.P_QCL, consts)
    assert res.product == 0.25
    assert res.bound == 1.0
    assert not res.ok


# ---------------------------------------------------------------------------
# mass inference
# ---------------------------------------------------------------------------


def test_mass_uncertainty_via_p(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    est = mass_uncertainty(fr, 2.0, Route.P, 0.5, ff_box)
    # |a_m| = g*t = 2, dm = 0.5/2
    assert est.dm == 0.25
    assert est.valid and not est.degenerate


def test_mass_uncertainty_via_q(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    est = mass_uncertainty(fr, 2.0, Route.Q, 1.0, ff_box)
    # |a_m| = g*t^2/(2M) = 0.002
    assert est.dm == pytest.approx(500.0, rel=1e-12)


def test_mass_uncertainty_harmonic_quarter_period(consts, ho_box):
    t = math.pi / 2
    fr = evolve_closed(consts, ho_box, t)
    est = mass_uncertainty(fr, t, Route.Q, 1.0, ho_box)
    # |a_m| = (g/k)(1 - cos wt) = 1e-3
    assert est.dm == pytest.approx(1000.0, rel=1e-12)
    assert est.valid and not est.degenerate


def test_mass_degenerate_at_zero_time(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 0.0)
    for route in Route:
        est = mass_uncertainty(fr, 0.0, route, 0.5, ff_box)
        assert est.degenerate
        assert est.dm == math.inf


def test_mass_degenerate_at_revival(consts, ho_box):
    t = 2.0 * math.pi
    fr = evolve_closed(consts, ho_box, t)
    for route in Route:
        est = mass_uncertainty(fr, t, route, 0.5, ho_box)
        assert est.degenerate
        assert est.dm == math.inf


def test_mass_uncertainty_rejects_bad_input(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    for dx in (-0.5, math.nan, math.inf):
        with pytest.raises(InvalidPrecision):
            mass_uncertainty(fr, 2.0, Route.P, dx, ff_box)
    for t in (-2.0, math.nan, math.inf):
        with pytest.raises(InvalidTime):
            mass_uncertainty(fr, t, Route.P, 0.5, ff_box)


def test_mass_uncertainty_overflows_to_inf_without_a_warning(consts, ff_box):
    # dx/|a_m| = 1e308/0.5 overflows: the spread reads inf, as it must.
    fr = evolve_closed(consts, ff_box, 0.5)
    est = mass_uncertainty(fr, 0.5, Route.P, 1e308, ff_box)
    assert (est.dm, est.valid, est.degenerate) == (math.inf, True, False)


def test_back_action_validity_window(consts):
    # heavy photon on a stiff spring exits the linear-response window
    box = BoxParams(M=10.0, m=5.0, potential=Harmonic(k=10.0))
    fr = evolve_closed(consts, box, 2.0)
    est = mass_uncertainty(fr, 2.0, Route.P, 0.1, box)
    assert not est.valid


def test_free_fall_stays_valid_where_the_window_underflows(consts):
    # 0.1*M rounds to 0 at M = 1e-323, so w*t*m < 0.1*M alone would read
    # false even at w = 0; free fall is valid at every t.
    box = BoxParams(M=1e-323, m=0.0)
    fr = evolve_closed(consts, box, 1e-320)
    est = mass_uncertainty(fr, 1e-320, Route.P, 0.5, box)
    assert est.valid and est.degenerate


# ---------------------------------------------------------------------------
# end-to-end inference
# ---------------------------------------------------------------------------


def test_inference_reference_scenario(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    rep = photon_inference(consts, ff_box, st0, Route.P, 2.0)
    assert rep.dm == 0.25
    assert rep.dE == 0.25
    assert rep.dT == 2.0000002499999843
    assert rep.product == 0.5000000624999961
    assert rep.bound == 0.5
    assert rep.ok and rep.valid and not rep.degenerate


def test_inference_via_q(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.Q, 1.0, 0.0, consts)
    rep = photon_inference(consts, ff_box, st0, Route.Q, 2.0)
    assert rep.dm == pytest.approx(500.0002499999375, rel=1e-14)
    assert rep.product == pytest.approx(1000.0006249999296, rel=1e-14)
    assert rep.ok


def test_inference_harmonic_quarter_period(consts, ho_box):
    # the propagated dq collapses onto the initial dp scale
    st0 = prepare_post_measurement_state(Route.Q, 1.0, 0.0, consts)
    rep = photon_inference(consts, ho_box, st0, Route.Q, math.pi / 2)
    assert rep.dm == pytest.approx(0.5, rel=1e-12)
    assert rep.product == pytest.approx(0.5000000624999962, rel=1e-14)
    assert rep.ok


def test_inference_degenerate_at_zero_time(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    rep = photon_inference(consts, ff_box, st0, Route.P, 0.0)
    assert rep.degenerate
    assert rep.dm == math.inf and rep.dE == math.inf and rep.product == math.inf
    assert rep.dT == 0.0


def test_report_builds_positionally_and_sets_ok_itself():
    rep = InferenceReport(Route.P, 2.0, 0.25, 0.25, 2.0, 0.5, 0.5, True, False)
    assert (rep.route, rep.t, rep.dm, rep.dE, rep.dT, rep.product, rep.bound) == (
        Route.P, 2.0, 0.25, 0.25, 2.0, 0.5, 0.5,
    )
    assert rep.ok is True and rep.valid is True and rep.degenerate is False
    with pytest.raises(TypeError):  # ok follows from the product and the bound
        InferenceReport(Route.P, 2.0, 0.25, 0.25, 2.0, 0.5, 0.5, True, True, False)


def test_report_ok_holds_down_to_the_slack_and_no_further():
    edge = 0.5 * (1.0 - BOUND_SLACK)
    at = InferenceReport(Route.Q, 1.0, 1.0, edge, 1.0, edge, 0.5, True, False)
    assert at.ok
    below = replace(at, product=np.nextafter(edge, 0.0))
    assert not below.ok
    assert replace(below, product=edge) == at
    assert hash(replace(below, product=edge)) == hash(at)


def test_report_replace_recomputes_ok(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    rep = photon_inference(consts, ff_box, st0, Route.P, 2.0)
    assert rep.ok
    assert not replace(rep, product=0.0).ok
    assert replace(rep, product=0.0, bound=0.0).ok


@pytest.mark.parametrize("route, dx", [(Route.P, 0.5), (Route.Q, 1.0)])
@pytest.mark.parametrize("t", [0.0, 2.0])
def test_run_reports_as_photon_inference(consts, ho_box, route, dx, t):
    s = Scenario(consts, ho_box, Measurement(route, dx), t_emit=t)
    assert photon_inference(consts, ho_box, s.initial_state(), route, t) == run_scenario(s).report


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------


def test_prepare_via_p(consts):
    st = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    assert np.all(st.mu == 0.0)
    assert st.sigma[1, 1] == 0.25
    assert st.sigma[0, 0] == 1.0
    assert st.sigma[2, 2] == 0.0


def test_prepare_via_q(consts):
    st = prepare_post_measurement_state(Route.Q, 0.1, 0.2, consts)
    assert st.sigma[0, 0] == pytest.approx(0.01, rel=1e-15)
    assert st.sigma[1, 1] == pytest.approx(25.0, rel=1e-15)
    assert st.sigma[2, 2] == pytest.approx(0.04, rel=1e-15)


def test_prepare_saturates_heisenberg(consts):
    st = prepare_post_measurement_state(Route.P, 0.3, 0.0, consts)
    dq, dp, _ = st.spreads
    assert dq * dp == pytest.approx(consts.hbar / 2.0, rel=1e-15)
    st.validate(hbar=consts.hbar)


def test_prepare_rejects_tiny_precision(consts):
    with pytest.raises(InvalidPrecision):
        prepare_post_measurement_state(Route.P, 1e-13, 0.0, consts)


def test_prepare_rejects_negative_clock_precision(consts):
    with pytest.raises(InvalidPrecision):
        prepare_post_measurement_state(Route.P, 0.5, -0.1, consts)


@pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
def test_prepare_refuses_a_conjugate_variance_that_overflows(route):
    # hbar/(2*dx) = 5e311 overflows, on the conjugate of either route.
    with pytest.raises(InvalidState) as info:
        prepare_post_measurement_state(route, 1e-12, 0.0, PhysConstants(hbar=1e300))
    assert str(info.value) == "moments must be finite"


def test_prepare_refuses_a_clock_variance_that_overflows(consts):
    with pytest.raises(InvalidState) as info:
        prepare_post_measurement_state(Route.P, 0.5, 1e200, consts)
    assert str(info.value) == "moments must be finite"


# ---------------------------------------------------------------------------
# mass mixtures
# ---------------------------------------------------------------------------


def test_mixture_single_component_matches_pure(consts, ff_box):
    fr = evolve_closed(consts, ff_box, 2.0)
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    mix = MassMixture(components=((1.0, 1.0),))
    mm = mixture_statistics(fr, mix, st0)
    pure = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    assert np.allclose(mm.mean, pure.mu, rtol=1e-14, atol=0.0)
    assert np.allclose(mm.spread, pure.spreads, rtol=1e-14, atol=0.0)


def test_mixture_two_point_adds_mass_variance(consts, ff_box):
    # masses mbar +/- delta add (a_m * delta)^2 to each observable variance
    fr = evolve_closed(consts, ff_box, 2.0)
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    delta = 0.1
    mix = MassMixture(components=((0.5, 1.0 - delta), (0.5, 1.0 + delta)))
    mm = mixture_statistics(fr, mix, st0)
    base = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    for i, a_m in enumerate(fr[:, 4]):
        expected = math.sqrt(base.spreads[i] ** 2 + (a_m * delta) ** 2)
        assert mm.spread[i] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(mm.mean, base.mu, rtol=1e-13, atol=1e-18)


@pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
def test_mixture_of_identical_components_is_the_pure_state(ff_box, t):
    # The clock mean grows as t while its spread stays 1e-3, so the variance
    # must not be a difference of second moments, which cancels.
    consts0 = PhysConstants(hbar=1.0, c=1.0, g=0.0)
    st0 = prepare_post_measurement_state(Route.P, 0.5, 1e-3, consts0)
    fr = evolve_closed(consts0, ff_box, t)
    mm = mixture_statistics(fr, MassMixture(((0.5, 1.0), (0.5, 1.0))), st0)
    pure = propagate_state(fr, st0, 1.0).spreads
    assert np.all(np.abs(mm.spread - pure) <= 4 * np.spacing(pure))


def test_mixture_refuses_an_overflowing_total_variance(consts):
    # The component means differ by about 1e160, so their spread squared overflows.
    box = BoxParams(M=1e161, m=1e160)
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    mixture = MassMixture(((0.5, 0.0), (0.5, 1e160)))
    with pytest.raises(InvalidState) as info:
        mixture_statistics(evolve_closed(consts, box, 1.0), mixture, st0)
    assert str(info.value) == "propagated moments are not finite"


def test_mixture_rejects_bad_weights():
    with pytest.raises(InvalidMixture):
        MassMixture(components=())
    with pytest.raises(InvalidMixture):
        MassMixture(components=((0.5, 1.0), (0.4, 2.0)))
    with pytest.raises(InvalidMixture):
        MassMixture(components=((-0.5, 1.0), (1.5, 2.0)))
    with pytest.raises(InvalidMixture):
        MassMixture(components=((1.0, -1.0),))


def test_mixture_rejects_a_component_that_is_not_a_pair():
    with pytest.raises(InvalidMixture) as info:
        MassMixture(((1.0,),))
    assert type(info.value) is InvalidMixture
    assert str(info.value) == "components must be (weight, mass) pairs, got ((1.0,),)"


def test_mixture_rejects_components_that_are_not_iterable():
    with pytest.raises(InvalidMixture) as info:
        MassMixture(None)
    assert type(info.value) is InvalidMixture
    assert str(info.value) == "components must be (weight, mass) pairs, got None"


# ---------------------------------------------------------------------------
# time-energy diagnostic
# ---------------------------------------------------------------------------


def test_diagnostic_reference_golden(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, ff_box, 2.0)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    d = time_energy_diagnostic(st, 2.0, consts, ff_box, 1.0)
    assert d.dH == pytest.approx(1.0000000156249997, rel=1e-13)
    assert d.dqcl == 2.0000002499999843
    assert d.denom == pytest.approx(2.001333333333333, rel=1e-14)
    assert d.lhs == pytest.approx(0.9993339180129853, rel=1e-13)
    assert d.bound == 0.5


def test_diagnostic_rate_denominator(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, ff_box, 2.0)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    d = time_energy_diagnostic(
        st, 2.0, consts, ff_box, 1.0, denominator=Denominator.MEAN_CLOCK_RATE
    )
    # 1 - (g/c^2) mu_q with mu_q = -0.002
    assert d.denom == pytest.approx(1.002, rel=1e-14)
    assert d.lhs == pytest.approx(1.9960082647205466, rel=1e-13)


def test_diagnostic_raises_with_no_elapsed_time(consts, ff_box):
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
    fr = evolve_closed(consts, ff_box, 0.0)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    with pytest.raises(NoElapsedTime):
        time_energy_diagnostic(st, 0.0, consts, ff_box, 1.0)


def test_diagnostic_refuses_an_overflowing_energy_variance(consts):
    # The state is finite, but grad^T Sigma grad is about 1e720.
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1e10))
    st = state(np.diag([1e300, 1e300, 1.0]), mu=(1e200, 1e200, 1.0))
    with pytest.raises(InvalidState, match=r"^energy variance is not finite at t=2\.0$"):
        time_energy_diagnostic(st, 2.0, consts, box, 1.0)


def test_diagnostic_variance_against_quadrature(consts, ho_box):
    # Gauss-Hermite quadrature over the (q, p) marginal reproduces Var(H)
    st0 = prepare_post_measurement_state(Route.P, 0.4, 0.1, consts)
    fr = evolve_closed(consts, ho_box, 1.3)
    st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
    d = time_energy_diagnostic(st, 1.3, consts, ho_box, 1.0)

    cov = st.sigma[:2, :2]
    mu = st.mu[:2]
    chol = np.linalg.cholesky(cov)
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    weights = weights / weights.sum()

    def hamiltonian(q, p):
        k = ho_box.spring_k
        return p * p / (2.0 * ho_box.M) + 1.0 * consts.g * q + 0.5 * k * q * q

    e1 = e2 = 0.0
    for zi, wi in zip(nodes, weights):
        for zj, wj in zip(nodes, weights):
            q, p = mu + chol @ np.array([zi, zj])
            h = hamiltonian(q, p)
            e1 += wi * wj * h
            e2 += wi * wj * h * h
    var = e2 - e1 * e1
    assert d.dH == pytest.approx(math.sqrt(var), rel=1e-9)


def test_diagnostic_time_independent_without_gravity(ff_box):
    consts0 = PhysConstants(hbar=1.0, c=1.0, g=0.0)
    st0 = prepare_post_measurement_state(Route.P, 0.5, 0.3, consts0)
    values = []
    for t in (1.0, 3.0):
        fr = evolve_closed(consts0, ff_box, t)
        st = propagate_state(fr, st0, 1.0, hbar=consts0.hbar)
        d = time_energy_diagnostic(
            st, t, consts0, ff_box, 1.0, denominator=Denominator.MEAN_CLOCK_RATE
        )
        assert d.denom == 1.0
        values.append(d.lhs)
    assert values[0] == pytest.approx(values[1], rel=1e-13)


# ---------------------------------------------------------------------------
# randomized bound sweep
# ---------------------------------------------------------------------------


def test_bound_holds_for_random_states(consts):
    rng = np.random.default_rng(20260822)
    boxes = [
        BoxParams(M=1000.0, m=1.0, potential=FreeFall()),
        BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0)),
        BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=250.0)),
    ]
    for _ in range(200):
        box = boxes[rng.integers(len(boxes))]
        t = float(rng.uniform(0.0, 5.0))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(-1.5, 1.5)
        u = rng.uniform(1.0, 10.0)
        c_rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        block = u * 0.5 * c_rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ c_rot.T
        sigma = np.zeros((3, 3))
        sigma[:2, :2] = 0.5 * (block + block.T)
        sigma[2, 2] = rng.uniform(0.0, 4.0)
        st0 = state(sigma)
        fr = evolve_closed(consts, box, t)
        st = propagate_state(fr, st0, 1.0, hbar=consts.hbar)
        for pair in Pair:
            chi = commutator_closed(pair, consts, box, t)
            assert check_bound(st, chi, pair, consts).ok
