"""Truncated number-basis cross-check of the coefficient dynamics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from photonbox import (
    BoxParams,
    ConfigError,
    FreeFall,
    Harmonic,
    InvalidTime,
    OracleConfig,
    OracleWorkspace,
    Pair,
    PhysConstants,
    build_workspace,
    commutator_closed,
    oracle_commutator,
    oracle_evolve,
    oracle_evolve_grid,
)
from photonbox.dynamics import _rk4_grid, _rk4_step
from photonbox.oracle import _oracle_frames


@pytest.fixture(scope="module")
def consts():
    return PhysConstants(hbar=1.0, c=1.0, g=1.0)


@pytest.fixture(scope="module")
def workspace(consts):
    return build_workspace(OracleConfig(n=40, buffer=6, step=1e-3), consts)


def restricted(ws, mat):
    r = ws.config.n - ws.config.buffer
    return mat[:r, :r]


def reference_evolve(ws, consts, box, t):
    """Per-time reference: separate Q and P stepped from t = 0 to t, one RK4
    stage at a time, with Qcl from one composite Simpson sum over the nodes,
    a quadrature the oracle does not use."""
    n = ws.config.n
    eye = np.eye(n, dtype=complex)
    if t == 0:
        return ws.q0.copy(), ws.p0.copy(), np.zeros_like(eye)
    steps = max(2, math.ceil(t / ws.config.step - 1e-12))
    if steps % 2:
        steps += 1
    h = t / steps
    M, k = box.M, box.spring_k
    mg_eye = (box.m * consts.g) * eye
    q, p = ws.q0.copy(), ws.p0.copy()
    simpson = q.copy()
    for i in range(1, steps + 1):
        k1q = p / M
        k1p = -mg_eye - k * q
        q2 = q + 0.5 * h * k1q
        p2 = p + 0.5 * h * k1p
        k2q = p2 / M
        k2p = -mg_eye - k * q2
        q3 = q + 0.5 * h * k2q
        p3 = p + 0.5 * h * k2p
        k3q = p3 / M
        k3p = -mg_eye - k * q3
        q4 = q + h * k3q
        p4 = p + h * k3p
        k4q = p4 / M
        k4p = -mg_eye - k * q4
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        simpson += (1.0 if i == steps else (4.0 if i % 2 else 2.0)) * q
    qcl = t * eye - (consts.g / consts.c**2) * (h / 3.0) * simpson
    return q, p, qcl


def oracle_generator(consts, box):
    """K of (Q, P, Qcl, I)' = K (Q, P, Qcl, I), entry by entry."""
    return np.array(
        [
            [0.0, 1.0 / box.M, 0.0, 0.0],
            [-box.spring_k, 0.0, 0.0, -box.m * consts.g],
            [-consts.g / consts.c**2, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def leg_steps(ws, dt):
    """The oracle's step count for a leg: the fewest steps within the step."""
    return max(1, math.ceil(dt / ws.config.step - 1e-12))


def dense_reference_grid(ws, consts, box, ts):
    """Grid reference that steps every entry of the n x n matrices.

    The same one-step map and step counts as oracle_evolve_grid, applied one
    step at a time to the dense (4, n, n) state (Q, P, Qcl and the identity,
    which carries the m*g and clock sources).  That one steps only the
    entries that can leave zero, and folds each leg's steps into one power
    of the map, so the two differ by rounding alone.  Returns (q, p, qcl)
    per grid time.
    """
    n_dim = ws.config.n
    K = oracle_generator(consts, box)
    zero = np.zeros((n_dim, n_dim))
    y = np.stack((ws.q0, ws.p0, zero, np.eye(n_dim))).astype(complex).reshape(4, -1)
    a = y.view(np.float64)

    def dense(row):
        return row.view(complex).reshape(n_dim, n_dim)

    frames = []
    t_prev = 0.0
    for t in ts:
        dt = t - t_prev
        if dt > 0:
            steps = leg_steps(ws, dt)
            E = _rk4_step(K, dt / steps)
            for _ in range(steps):
                a = a + E @ a
        frames.append(tuple(dense(row) for row in a[:3]))
        t_prev = t
    return frames


def stage_reference_grid(ws, consts, box, ts):
    """Grid reference that steps every entry one RK4 stage at a time.

    The stacked in-place loop over the dense (3, n, n) state of Q, P and Qcl,
    with four derivative evaluations per step and the same step counts as
    oracle_evolve_grid.  Returns (q, p, qcl) per grid time.
    """
    n_dim = ws.config.n
    M, k, mg = box.M, box.spring_k, box.m * consts.g
    g_c2 = consts.g / (consts.c * consts.c)
    y = np.stack((ws.q0, ws.p0, np.zeros((n_dim, n_dim), dtype=complex)))
    yr = y.view(np.float64)
    k1, k2, k3, k4, scratch = (np.empty_like(yr) for _ in range(5))
    diag = 2 * n_dim + 2  # stride of the real diagonal in the float view

    def derivative(state, out):
        np.divide(state[1], M, out=out[0])
        np.multiply(state[0], -k, out=out[1])
        np.multiply(state[0], -g_c2, out=out[2])
        force = out[1].reshape(-1)[::diag]
        force -= mg
        clock = out[2].reshape(-1)[::diag]
        clock += 1.0

    frames = []
    t_prev = 0.0
    for t in ts:
        dt = t - t_prev
        if dt > 0:
            steps = leg_steps(ws, dt)
            h = dt / steps
            for _ in range(steps):
                derivative(yr, k1)
                np.multiply(k1, 0.5 * h, out=scratch)
                scratch += yr
                derivative(scratch, k2)
                np.multiply(k2, 0.5 * h, out=scratch)
                scratch += yr
                derivative(scratch, k3)
                np.multiply(k3, h, out=scratch)
                scratch += yr
                derivative(scratch, k4)
                k2 += k3
                k2 *= 2.0
                k1 += k2
                k1 += k4
                k1 *= h / 6.0
                yr += k1
        frames.append(tuple(y.copy()))
        t_prev = t
    return frames


# The folded leg map, the iterated one-step map and the four stages are the
# same polynomial in h*K, summed in a different order, so they differ by
# rounding alone; this bound, relative to max(1, max |entry|), was fixed before
# any run (the worst seen, over times up to 4, was 9.0e-14).
STAGE_BOUND = 1e-11


def assert_matches_dense(ws, consts, box, ts):
    frames = oracle_evolve_grid(ws, consts, box, ts)
    assert frames.shape == (len(ts), 3, ws.config.n, ws.config.n)
    stepped = dense_reference_grid(ws, consts, box, ts)
    staged = stage_reference_grid(ws, consts, box, ts)
    for fr, want_stepped, want_staged in zip(frames, stepped, staged):
        for got, *refs in zip(fr, want_stepped, want_staged):
            for ref in refs:
                scale = max(1.0, float(np.abs(ref).max()))
                assert np.abs(got - ref).max() <= STAGE_BOUND * scale


# ---------------------------------------------------------------------------
# workspace construction
# ---------------------------------------------------------------------------


def test_ccr_block_within_tolerance(consts):
    ws = build_workspace(OracleConfig(n=60, buffer=8), consts)
    comm = (ws.q0 @ ws.p0 - ws.p0 @ ws.q0) / (1j * 1.0)
    r = ws.config.n - ws.config.buffer
    dev = np.max(np.abs(comm[:r, :r] - np.eye(r)))
    assert dev < 1e-10


def test_small_workspace_builds(consts):
    ws = build_workspace(OracleConfig(n=16, buffer=2), consts)
    assert ws.q0.shape == (16, 16)


def test_config_guards():
    with pytest.raises(ConfigError):
        OracleConfig(n=8)
    with pytest.raises(ConfigError):
        OracleConfig(n=2049)
    assert OracleConfig(n=2048).n == 2048  # the cap itself; nothing is allocated
    with pytest.raises(ConfigError):
        OracleConfig(buffer=0)
    with pytest.raises(ConfigError):
        OracleConfig(n=16, buffer=8)
    with pytest.raises(ConfigError):
        OracleConfig(scale=0.0)
    with pytest.raises(ConfigError):
        OracleConfig(step=-1.0)


def test_operators_hermitian(workspace):
    for mat in (workspace.q0, workspace.p0):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_zero_time_returns_initial_operators(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    fr = oracle_evolve(workspace, consts, box, 0.0)
    assert fr.shape == (3, workspace.config.n, workspace.config.n)
    assert np.array_equal(fr[0], workspace.q0)
    assert np.array_equal(fr[1], workspace.p0)
    assert np.all(fr[2] == 0.0)


def test_negative_time_rejected(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    with pytest.raises(InvalidTime):
        oracle_evolve(workspace, consts, box, -1.0)


def test_step_exceeding_time_is_one_step(workspace, consts):
    # A target time below the step is reached in one step, as on the numeric
    # route.  Free fall is polynomial in t, so that step is exact up to rounding.
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    fr = oracle_evolve(workspace, consts, box, 1e-4)
    for got, want in zip(fr, reference_evolve(workspace, consts, box, 1e-4)):
        assert np.max(np.abs(restricted(workspace, got - want))) < 1e-12


def test_free_fall_matrices_match_closed_form(workspace, consts):
    # Q(t) = q0 + t/M p0 - g t^2/(2M) m, P(t) = p0 - g t m
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    fr = oracle_evolve(workspace, consts, box, 1.0)
    eye = np.eye(workspace.config.n)
    want_q = workspace.q0 + workspace.p0 / 1000.0 - 0.0005 * eye
    want_p = workspace.p0 - 1.0 * eye
    assert np.max(np.abs(restricted(workspace, fr[0] - want_q))) < 1e-9
    assert np.max(np.abs(restricted(workspace, fr[1] - want_p))) < 1e-9


def test_evolved_operators_stay_hermitian(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
    fr = oracle_evolve(workspace, consts, box, 1.0)
    for mat in fr:
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


def test_clock_reduces_to_time_without_gravity(workspace):
    consts0 = PhysConstants(hbar=1.0, c=1.0, g=0.0)
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    fr = oracle_evolve(workspace, consts0, box, 1.5)
    dev = np.max(np.abs(restricted(workspace, fr[2] - 1.5 * np.eye(workspace.config.n))))
    assert dev < 1e-10


# ---------------------------------------------------------------------------
# grid evolution
# ---------------------------------------------------------------------------


# Uneven, with t = 0, a repeated time and a leg whose step count is odd
# (0.2505 / 1e-3 rounds up to 251).
GRID = (0.0, 0.2505, 0.2505, 0.6, 1.25)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_grid_matches_per_time_reference(workspace, consts, potential):
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    frames = oracle_evolve_grid(workspace, consts, box, GRID)
    assert frames.shape == (len(GRID), 3, workspace.config.n, workspace.config.n)
    # The legs place their nodes differently from one pass out of t = 0, and
    # the reference takes Qcl by Simpson's rule, not as a fourth RK4 state,
    # so the two differ by truncation errors of order step**4, not only by
    # rounding; 1e-9 absolute is far above both and was fixed in advance.
    for t, fr in zip(GRID, frames):
        want = reference_evolve(workspace, consts, box, t)
        for got, ref in zip(fr, want):
            assert np.max(np.abs(restricted(workspace, got - ref))) < 1e-9


# Compared at STAGE_BOUND, not bit for bit: the dense loop applies the map
# once per step, while the grid folds each leg into one power of it.
@pytest.mark.parametrize("n", [16, 40, 60])
@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_grid_matches_dense_loop_bit_for_bit(consts, n, potential):
    ws = build_workspace(OracleConfig(n=n, buffer=6, step=1e-3), consts)
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    assert_matches_dense(ws, consts, box, GRID)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_grid_matches_dense_loop_in_a_rotated_basis(consts, potential):
    # Conjugating by a real orthogonal matrix keeps q0, p0 Hermitian and
    # canonical but fills every entry, so no band may be assumed.
    ws = build_workspace(OracleConfig(n=20, buffer=6, step=1e-3), consts)
    rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((20, 20)))
    rotated = OracleWorkspace(
        q0=rot @ ws.q0 @ rot.T, p0=rot @ ws.p0 @ rot.T, config=ws.config, hbar=ws.hbar
    )
    assert np.all(rotated.q0 != 0) and np.all(rotated.p0 != 0)
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    assert_matches_dense(rotated, consts, box, GRID)


@settings(max_examples=30, deadline=None)
@given(
    M=st.floats(20.0, 1e4),  # above the largest m
    m=st.floats(0.1, 10.0),
    g=st.floats(0.1, 3.0),
    k=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    step=st.sampled_from([1e-3, 1e-2]),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(sorted),
)
def test_grid_matches_dense_loop_property(M, m, g, k, step, ts):
    assume(ts[-1] >= step)
    consts = PhysConstants(hbar=1.0, c=1.0, g=g)
    ws = build_workspace(OracleConfig(n=16, buffer=6, step=step), consts)
    box = BoxParams(M=M, m=m, potential=Harmonic(k=k) if k else FreeFall())
    assert_matches_dense(ws, consts, box, ts)


# verify forms each oracle time's frame only when it reaches that time, and
# oracle_evolve_grid stacks the same frames.  Both must equal, bit for bit,
# the frames of one np.tensordot over the whole grid, the form the pinned
# oracle digits were taken from.  In the number basis each entry of a frame
# has one nonzero term per real or imaginary part, so any summation order
# gives the same bits; the rotated basis fills every entry, so there the
# order of the products' sums is checked too.
@pytest.mark.parametrize("basis", ["number", "rotated"])
@pytest.mark.parametrize("grid", ["verify", "uneven"])
@pytest.mark.parametrize("n", [16, 33, 60, 257])
@pytest.mark.parametrize(
    "potential",
    [FreeFall(), Harmonic(k=1000.0), Harmonic(k=3.7)],
    ids=["free", "k1000", "k3.7"],
)
def test_grid_is_the_stack_of_the_frames_verify_commutes(consts, n, potential, grid, basis):
    ws = build_workspace(OracleConfig(n=n, buffer=6, step=1e-3), consts)
    if basis == "rotated":
        rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
        ws = OracleWorkspace(
            q0=rot @ ws.q0 @ rot.T, p0=rot @ ws.p0 @ rot.T, config=ws.config, hbar=ws.hbar
        )
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    # verify's oracle grid at t_emit 2: five times up to min(2, 4/w).
    ts = np.linspace(0.0, min(2.0, 4.0 / (box.omega or 1.0)), 5) if grid == "verify" else GRID
    stack = oracle_evolve_grid(ws, consts, box, ts)
    assert stack.dtype == complex and stack.shape == (len(ts), 3, n, n)
    assert stack.tobytes() == np.stack(list(_oracle_frames(ws, consts, box, ts))).tobytes()
    phi = _rk4_grid(oracle_generator(consts, box), np.eye(4), ts, ws.config.step, "oracle.step")
    initial = np.stack([ws.q0, ws.p0, np.eye(n)])
    assert stack.tobytes() == np.tensordot(phi[:, :3, [0, 1, 3]], initial, axes=1).tobytes()


def test_empty_grid_gives_an_empty_stack(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    frames = oracle_evolve_grid(workspace, consts, box, [])
    n = workspace.config.n
    assert frames.dtype == complex and frames.shape == (0, 3, n, n)


def test_frames_check_the_grid_before_the_first_frame(workspace, consts):
    # The grid is checked when the frames are asked for, not when the first
    # is read, so verify fails before it commutes anything.
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    with pytest.raises(InvalidTime, match="sorted ascending"):
        _oracle_frames(workspace, consts, box, (1.0, 0.5))


@pytest.mark.parametrize(
    "ts", [(-1.0,), (0.0, math.nan), (0.5, math.inf), (1.0, 0.5)], ids=str
)
def test_grid_rejects_bad_times(workspace, consts, ts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    with pytest.raises(InvalidTime):
        oracle_evolve_grid(workspace, consts, box, ts)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_grid_step_exceeding_horizon_is_one_step_per_leg(workspace, consts, potential):
    # Every leg and the whole horizon are shorter than the step: each leg is
    # one step, and the frames still match the per-time reference.
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    ts = (0.0, 5e-4, 6e-4)
    frames = oracle_evolve_grid(workspace, consts, box, ts)
    assert frames.shape == (3, 3, workspace.config.n, workspace.config.n)
    for t, fr in zip(ts, frames):
        for got, want in zip(fr, reference_evolve(workspace, consts, box, t)):
            assert np.max(np.abs(restricted(workspace, got - want))) < 1e-12


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def block_dev(ws, chi, ref):
    """max |chi - ref*I| over the restricted block."""
    r = ws.config.n - ws.config.buffer
    return float(np.abs(chi[:r, :r] - ref * np.eye(r)).max())


def expectation(chi, probe):
    return complex(probe.conj() @ (chi @ probe))


def test_commutator_block_matches_closed_free_fall(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    q, p, qcl = oracle_evolve(workspace, consts, box, 1.0)
    ref = commutator_closed(Pair.P_QCL, consts, box, 1.0)
    chi = oracle_commutator(workspace, p, qcl)
    assert block_dev(workspace, chi, ref) < 1e-6
    probe_chi = chi[0, 0]  # the vacuum expectation value
    assert probe_chi.real == pytest.approx(1.0, abs=1e-6)
    assert abs(probe_chi.imag) < 1e-6


def test_commutator_block_matches_closed_harmonic(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
    t = math.pi / 2
    q, p, qcl = oracle_evolve(workspace, consts, box, t)
    ref = commutator_closed(Pair.Q_QCL, consts, box, t)
    chi = oracle_commutator(workspace, q, qcl)
    assert block_dev(workspace, chi, ref) < 1e-6
    # A coherent state of amplitude 1/2, whose weight near the edge is
    # negligible, as a probe other than the vacuum.
    amps = np.empty(workspace.config.n)
    amps[0] = 1.0
    for j in range(1, len(amps)):
        amps[j] = amps[j - 1] * 0.5 / math.sqrt(j)
    coherent = (amps / np.linalg.norm(amps)).astype(complex)
    assert expectation(chi, coherent).real == pytest.approx(1e-3, abs=1e-6)


def test_probe_without_reference_skips_block(workspace):
    chi = oracle_commutator(workspace, workspace.q0, workspace.p0)
    assert chi[0, 0].real == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_commutator_of_a_stack_matches_per_matrix_calls(workspace, consts, potential):
    # [P, Qcl] and [Q, Qcl] at every grid time in one broadcast call against
    # one call per matrix pair (verify takes one time's pair per call).
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    frames = oracle_evolve_grid(workspace, consts, box, GRID)
    chi = oracle_commutator(workspace, frames[:, 1::-1], frames[:, 2:])
    n = workspace.config.n
    assert chi.shape == (len(GRID), 2, n, n)
    for got, (q, p, qcl) in zip(chi, frames):
        assert np.array_equal(got[0], oracle_commutator(workspace, p, qcl))
        assert np.array_equal(got[1], oracle_commutator(workspace, q, qcl))
