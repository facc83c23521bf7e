"""Truncated number-basis cross-check of the coefficient dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    dynamics,
    oracle,
    oracle_commutator,
    oracle_evolve,
    oracle_evolve_grid,
)
from photonbox.oracle import _band_commutator, _dense, _frames, _number_bands, _phi

from exact_rk4 import frame_grid, oracle_phi


@pytest.fixture(scope="module")
def consts():
    return PhysConstants(hbar=1.0, c=1.0, g=1.0)


@pytest.fixture(scope="module")
def workspace(consts):
    return build_workspace(OracleConfig(n=40, buffer=6, step=1e-3), consts)


def restricted(ws, mat):
    r = ws.config.n - ws.config.buffer
    return mat[:r, :r]


# _phi folds each leg's n steps into one power of the one-step map, built in
# about 2*log2(n) small float products; the exact reference forms the same
# power at 50 digits, so the two differ by that rounding alone, a few eps of
# an entry's scale per product: about 1e-14 for legs of up to 5000 steps.
# The bound, 1e-13 relative to each entry's largest magnitude over the grid,
# was set from that estimate before the comparison ran; an entry that is 0
# over the whole grid must be 0.  The worst seen is 1.4e-15, over these
# cases and 3000 draws in the property test's ranges.
PHI_BOUND = 1e-13


def assert_phi_matches(consts, box, ts, step):
    got = _phi(consts, box, ts, step)
    want = oracle_phi(frame_grid(consts, box, ts, step), box.m)
    assert got.shape == want.shape == (len(ts), 3, 3)
    dev = np.abs(got - want)
    bad = ~(dev <= PHI_BOUND * np.abs(want).max(axis=0))
    assert not bad.any(), f"Phi is off the reference at {np.argwhere(bad)[0]} by {dev[bad][0]!r}"


def verify_grid(box, t_emit=2.0):
    """verify's oracle grid: five times up to min(t_emit, 4/w)."""
    return np.linspace(0.0, min(t_emit, 4.0 / (box.omega or 1.0)), 5)


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


# w = 5000: one step over a leg of 1e-4 (w*h = 0.5) and two steps differ by
# about 1e-4 relative, far above PHI_BOUND, so the reference tells the step
# counts apart.
STIFF = Harmonic(k=2.5e10)


def test_step_exceeding_time_is_one_step(workspace, consts):
    # A target time below the step is reached in one step, as on the numeric
    # route.  Free fall is polynomial in t, so that step is exact up to rounding.
    for potential in (FreeFall(), STIFF):
        box = BoxParams(M=1000.0, m=1.0, potential=potential)
        assert_phi_matches(consts, box, (1e-4,), workspace.config.step)


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
# verify's oracle grid of the step-0.3 CLI pins, whose four legs take 2, 2, 3
# and 2 steps of at most 0.3.
MIXED_LEGS = np.linspace(0.0, 2.4000000000012, 5)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "harmonic"]
)
def test_grid_matches_per_time_reference(workspace, consts, potential):
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    assert_phi_matches(consts, box, GRID, workspace.config.step)


@pytest.mark.parametrize("grid", ["verify", "mixed-step-0.3"])
@pytest.mark.parametrize(
    "potential",
    [FreeFall(), Harmonic(k=1000.0), Harmonic(k=3.7)],
    ids=["free", "k1000", "k3.7"],
)
def test_phi_matches_the_exact_reference(consts, potential, grid):
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    if grid == "verify":
        assert_phi_matches(consts, box, verify_grid(box), 1e-3)
    else:
        assert_phi_matches(consts, box, MIXED_LEGS, 0.3)


# verify's oracle grid for a drawn t_emit, with up to three more times inside
# it: uneven legs, and repeats where a fraction is 0 or 1.  The grid spans at
# most w*t = 4 in five even steps, so each entry's largest magnitude over it
# is of the order of that entry's amplitude; at a lone time near a zero of
# sin(w*t) the entry would be rounding noise against its own size.
@settings(max_examples=30, deadline=None)
@given(
    M=st.floats(20.0, 1e4),  # above the largest m
    m=st.floats(0.1, 10.0),
    g=st.floats(0.1, 3.0),
    c=st.floats(1.0, 3.0),
    k=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    step=st.sampled_from([1e-3, 1e-2]),
    t_emit=st.floats(1e-3, 4.0),
    fractions=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=3),
)
def test_phi_matches_the_exact_reference_property(M, m, g, c, k, step, t_emit, fractions):
    consts = PhysConstants(hbar=1.0, c=c, g=g)
    box = BoxParams(M=M, m=m, potential=Harmonic(k=k) if k else FreeFall())
    ts = verify_grid(box, t_emit)
    assert_phi_matches(consts, box, np.sort(np.append(ts, ts[-1] * np.array(fractions))), step)


def faulty_generator(i, j):
    """oracle._rk4_grid with K[i, j] times 1 + 1e-12."""
    def rk4_grid(K, *args):
        K = K.copy()
        K[i, j] *= 1.0 + 1e-12
        return dynamics._rk4_grid(K, *args)
    return rk4_grid


@pytest.mark.parametrize(
    "potential",
    [FreeFall(), Harmonic(k=1000.0), Harmonic(k=3.7)],
    ids=["free", "k1000", "k3.7"],
)
def test_a_relative_fault_of_1e_12_in_phis_generator_fails(consts, potential, monkeypatch):
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    ts = verify_grid(box)
    generators = []

    def recording(K, *args):
        generators.append(K)
        return dynamics._rk4_grid(K, *args)

    monkeypatch.setattr(oracle, "_rk4_grid", recording)
    assert_phi_matches(consts, box, ts, 1e-3)
    (K,) = generators
    entries = list(zip(*np.nonzero(K)))
    assert len(entries) == (4 if isinstance(potential, FreeFall) else 5)
    survivors = []
    for i, j in entries:
        monkeypatch.setattr(oracle, "_rk4_grid", faulty_generator(i, j))
        try:
            assert_phi_matches(consts, box, ts, 1e-3)
        except AssertionError:
            continue
        survivors.append((i, j))
    assert not survivors


def faulty_step(term):
    """dynamics._rk4_step with its h*K (term 1) or (h*K)**2/2 (term 2) times 1 + 1e-12."""
    def rk4_step(K, h):
        hk = h * K
        hk2 = hk @ hk
        hk3 = hk2 @ hk
        terms = [hk, hk2 / 2.0, hk3 / 6.0, hk3 @ hk / 24.0]
        terms[term - 1] = terms[term - 1] * (1.0 + 1e-12)
        return sum(terms)
    return rk4_step


@pytest.mark.parametrize("term", [1, 2])
def test_a_relative_fault_of_1e_12_in_the_step_map_fails(consts, term, monkeypatch):
    box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))
    assert_phi_matches(consts, box, MIXED_LEGS, 0.3)
    monkeypatch.setattr(dynamics, "_rk4_step", faulty_step(term))
    with pytest.raises(AssertionError, match="Phi is off the reference"):
        assert_phi_matches(consts, box, MIXED_LEGS, 0.3)


# The dense grid is Phi's block applied to (q0, p0, I) by one np.tensordot,
# in any basis; in the number basis verify forms the same frames as their
# three diagonals.  Each real or imaginary part of a frame entry has one
# nonzero term there, so the diagonals of the dense frames must be verify's
# frames bit for bit, signed zeros included, and every other dense entry 0.
@pytest.mark.parametrize("basis", ["number", "rotated"])
@pytest.mark.parametrize("grid", ["verify", "uneven"])
@pytest.mark.parametrize("n", [16, 33, 60, 257])
@pytest.mark.parametrize(
    "potential",
    [FreeFall(), Harmonic(k=1000.0), Harmonic(k=3.7)],
    ids=["free", "k1000", "k3.7"],
)
def test_grid_is_the_stack_of_the_frames_verify_commutes(consts, n, potential, grid, basis):
    config = OracleConfig(n=n, buffer=6, step=1e-3)
    ws = build_workspace(config, consts)
    if basis == "rotated":
        rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
        ws = OracleWorkspace(
            q0=rot @ ws.q0 @ rot.T, p0=rot @ ws.p0 @ rot.T, config=ws.config, hbar=ws.hbar
        )
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    ts = verify_grid(box) if grid == "verify" else GRID
    stack = oracle_evolve_grid(ws, consts, box, ts)
    assert stack.dtype == complex and stack.shape == (len(ts), 3, n, n)
    phi = _phi(consts, box, ts, config.step)
    initial = np.stack([ws.q0, ws.p0, np.eye(n)])
    assert stack.tobytes() == np.tensordot(phi, initial, axes=1).tobytes()
    if basis == "number":
        bands = _frames(phi, _number_bands(config, consts))
        assert bands.dtype == complex and bands.shape == (len(ts), 3, 3, n)
        for k in (-1, 0, 1):  # band k + 1 holds entries [i, i + k]
            band = bands[..., k + 1, max(0, -k) : n - max(0, k)]
            assert band.tobytes() == np.diagonal(stack, k, axis1=-2, axis2=-1).tobytes()
        assert not bands[..., 0, 0].any() and not bands[..., 2, -1].any()  # outside
        assert np.array_equal(_dense(bands), stack)


# Each real or imaginary part of an entry of A @ B is a sum of at most six
# real products (three terms, each two products), so either route computes
# it within gamma_6 * (|A| |B|)_ij of the exact sum (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.5; a fused multiply-add only lowers
# the error).  The difference AB - BA and the division by hbar (the dense
# route multiplies by 1/hbar, two roundings) add at most 3u of
# M = (|A| |B| + |B| |A|)/hbar, so each route is within about 9u * M of the
# exact commutator and the two within 18u * M.  The test takes 10 * eps = 20u;
# the worst seen over these cases is 1.0u * M.
COMMUTATOR_BOUND = 10 * np.finfo(float).eps


@pytest.mark.parametrize("n", [16, 33, 60, 257])
@pytest.mark.parametrize(
    "potential",
    [FreeFall(), Harmonic(k=1000.0), Harmonic(k=3.7)],
    ids=["free", "k1000", "k3.7"],
)
def test_banded_commutators_match_the_dense_products(consts, n, potential):
    config = OracleConfig(n=n, buffer=6, step=1e-3)
    ws = build_workspace(config, consts)
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    ts = verify_grid(box)
    bands = _frames(_phi(consts, box, ts, config.step), _number_bands(config, consts))
    chi = _band_commutator(bands[:, 1::-1], bands[:, 2:], consts.hbar)
    assert chi.dtype == complex and chi.shape == (len(ts), 2, 5, n)
    frames = oracle_evolve_grid(ws, consts, box, ts)
    a, b = frames[:, 1::-1], frames[:, 2:]
    want = oracle_commutator(ws, a, b)
    scale = (np.abs(a) @ np.abs(b) + np.abs(b) @ np.abs(a)) / consts.hbar
    got = _dense(chi)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= COMMUTATOR_BOUND * scale)


# The number-basis matrices as build_workspace formed them densely, entry by
# entry.  p0's subdiagonal is lower - raise_op, (0+0j) - (x-0j) = -x+0j; a
# band written as -x would give -x-0j, which the bytes tell apart.
@pytest.mark.parametrize("n", [16, 33, 60, 257])
@pytest.mark.parametrize(
    "hbar, scale", [(1.0, 1.0), (1.0, 0.37), (1.054571817e-34, 2.3e-17)], ids=str
)
def test_workspace_is_the_dense_ladder_arithmetic_bit_for_bit(n, hbar, scale):
    ws = build_workspace(OracleConfig(n=n, buffer=6, scale=scale), PhysConstants(hbar=hbar))
    lower = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
    raise_op = lower.conj().T
    sqrt2 = math.sqrt(2.0)
    q0 = scale * (lower + raise_op) / sqrt2
    p0 = (hbar / scale) * (lower - raise_op) / (1j * sqrt2)
    assert ws.q0.tobytes() == q0.tobytes()
    assert ws.p0.tobytes() == p0.tobytes()


def test_empty_grid_gives_an_empty_stack(workspace, consts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    frames = oracle_evolve_grid(workspace, consts, box, [])
    n = workspace.config.n
    assert frames.dtype == complex and frames.shape == (0, 3, n, n)


def test_frames_check_the_grid_before_the_first_frame(workspace, consts):
    # Phi checks the grid before any frame is formed from it, so verify fails
    # before it commutes anything.
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    with pytest.raises(InvalidTime, match="sorted ascending"):
        _phi(consts, box, (1.0, 0.5), workspace.config.step)


@pytest.mark.parametrize(
    "ts", [(-1.0,), (0.0, math.nan), (0.5, math.inf), (1.0, 0.5)], ids=str
)
def test_grid_rejects_bad_times(workspace, consts, ts):
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    with pytest.raises(InvalidTime):
        oracle_evolve_grid(workspace, consts, box, ts)


@pytest.mark.parametrize(
    "potential", [FreeFall(), Harmonic(k=1000.0), STIFF], ids=["free", "harmonic", "stiff"]
)
def test_grid_step_exceeding_horizon_is_one_step_per_leg(workspace, consts, potential):
    # Every leg and the whole horizon are shorter than the step: each leg is
    # one step, as in the reference, which the stiff spring tells from two.
    box = BoxParams(M=1000.0, m=1.0, potential=potential)
    assert_phi_matches(consts, box, (0.0, 5e-4, 6e-4), workspace.config.step)


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
