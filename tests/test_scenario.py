"""End-to-end scenario runs, sweeps, and verification reports."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from photonbox import (
    BoxParams,
    FreeFall,
    Harmonic,
    InvalidTime,
    Measurement,
    NumericOptions,
    OracleConfig,
    PhysConstants,
    RangeError,
    Route,
    Scenario,
    photon_inference,
    run_scenario,
    sweep,
    verify,
)
from photonbox import dynamics


def make_scenario(t_emit=2.0, potential=None, route=Route.P, device_dx=0.5, oracle=OracleConfig()):
    return Scenario(
        constants=PhysConstants(hbar=1.0, c=1.0, g=1.0),
        box=BoxParams(M=1000.0, m=1.0, potential=potential or FreeFall()),
        measurement=Measurement(route=route, device_dx=device_dx, device_dcl=0.0),
        t_emit=t_emit,
        numeric=NumericOptions(step=1e-3),
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reference_scenario():
    result = run_scenario(make_scenario())
    assert result.dp == 0.5
    assert result.dq == pytest.approx(1.000000499999875, rel=1e-15)
    assert result.dqcl == 2.0000002499999843
    assert result.chi_p_qcl == 2.0
    assert result.chi_q_qcl == 0.002
    rep = result.report
    assert rep.dm == 0.25
    assert rep.dE == 0.25
    assert rep.dT == 2.0000002499999843
    assert rep.product == 0.5000000624999961
    assert rep.bound == 0.5
    assert rep.ok and rep.valid and not rep.degenerate
    assert result.check_p.ok and result.check_q.ok


def test_run_zero_emission_time_is_degenerate():
    result = run_scenario(make_scenario(t_emit=0.0))
    assert result.report.degenerate
    assert result.report.dm == math.inf


def test_run_harmonic_route_q():
    s = make_scenario(t_emit=math.pi / 2, potential=Harmonic(k=1000.0), route=Route.Q, device_dx=1.0)
    result = run_scenario(s)
    assert result.report.dm == pytest.approx(0.5, rel=1e-12)
    assert result.report.ok


def test_run_soft_spring_route_q_reaches_free_fall():
    # At k=1e-14 the spring turns 6e-9 rad in t=2, so route q must resolve
    # the photon mass as in free fall, not read a_m = 0 as degenerate.
    soft = run_scenario(make_scenario(potential=Harmonic(k=1e-14), route=Route.Q)).report
    free = run_scenario(make_scenario(route=Route.Q)).report
    assert not soft.degenerate
    assert soft.dm == pytest.approx(250.002, rel=1e-6)
    assert soft.dm == pytest.approx(free.dm, rel=1e-14)


def test_run_reports_where_only_the_means_overflow():
    # m*g*t = 1e309 overflows the mean of P, but nothing reported reads a
    # mean: dm = dp/(g*t) = 5e-151 and dT = g*t*dq = 1e150 are finite.
    s = Scenario(PhysConstants(g=1e150), BoxParams(M=1e160, m=1e159), Measurement(Route.P, 0.5), t_emit=1.0)
    rep = run_scenario(s).report
    assert (rep.dm, rep.dE, rep.dT, rep.product) == (5e-151, 5e-151, 1e150, 0.5)
    assert rep.product == rep.bound == 0.5 and rep.ok and not rep.degenerate
    assert photon_inference(s.constants, s.box, s.initial_state(), Route.P, 1.0) == rep
    assert sweep(s, 0.5, 1.0, 3)[-1].prod_p == 0.5


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the clock coefficient's square underflows")
def test_run_keeps_a_saturated_bound_whose_clock_coefficient_underflows():
    # The clock coefficient is about -1e-312 and the true dT about 5e-301, so
    # dE*dT = hbar/2 exactly.  Its square underflows to 0 in the covariance:
    # run reports dqcl = 0, product = 0 and ok = false, and check_p reads
    # product = 0 against bound = 5e-313.
    s = Scenario(PhysConstants(c=1e150, g=1e-12), BoxParams(M=1000.0, m=1.0), Measurement(Route.P, 1e-12),
                 t_emit=1.0)
    result = run_scenario(s)
    assert result.report.ok
    assert result.check_p.ok


def test_an_overflowing_validity_window_reads_invalid_without_a_warning():
    # w*t*m = 1e-5 * 1e295 * 1e19 overflows: the window reads as exceeded.
    box = BoxParams(M=1e20, m=1e19, potential=Harmonic(k=1e10))
    s = Scenario(PhysConstants(), box, Measurement(Route.P, 0.5), t_emit=1e295)
    assert not run_scenario(s).report.valid
    assert sweep(s, 0.0, 1e295, 3).valid.tolist() == [True, False, False]
    assert not photon_inference(s.constants, box, s.initial_state(), Route.P, 1e295).valid


@pytest.mark.parametrize("potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "spring"])
@pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
def test_run_builds_its_diagonal_state_without_eigvalsh(monkeypatch, potential, route):
    def no_eigvalsh(a):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    s = make_scenario(potential=potential, route=route)
    assert run_scenario(s).report.route is route


def test_negative_emission_time_rejected():
    with pytest.raises(InvalidTime):
        make_scenario(t_emit=-1.0)


def test_run_is_deterministic():
    a = run_scenario(make_scenario())
    b = run_scenario(make_scenario())
    assert a.report == b.report
    assert a.dq == b.dq and a.dqcl == b.dqcl


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_and_consistency():
    s = make_scenario()
    rows = sweep(s, 0.5, 4.0, 8)
    assert len(rows) == 8
    assert rows[0].t == 0.5 and rows[-1].t == 4.0
    # each row agrees with an independent single run at that time
    for row in (rows[0], rows[3], rows[7]):
        single = run_scenario(make_scenario(t_emit=row.t))
        assert row.dp == single.dp
        assert row.dqcl == single.dqcl
        assert row.dm_p == single.report.dm
        assert row.prod_p == single.report.product
        assert row.chi_p_qcl == single.chi_p_qcl
        assert row.bound_ET == 0.5


def bits(x):
    """A float by its bits, so that equal means bit for bit; a bool as itself."""
    return x if type(x) is bool else struct.pack("<d", x)


@pytest.mark.parametrize("potential", [FreeFall(), Harmonic(k=1000.0)], ids=["free", "spring"])
@pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
def test_single_runs_equal_the_sweep_records_bit_for_bit(potential, route):
    # 0 to 4*pi in quarter periods of the spring (w = 1): t = 0 is degenerate
    # on both routes, and so are the spring's half periods on route p and its
    # full periods on route q.
    rows = sweep(make_scenario(potential=potential, route=route), 0.0, 4 * math.pi, 9)
    r = route.value
    for row in rows.tolist():
        rec = dict(zip(rows.dtype.names, row))
        s = make_scenario(t_emit=rec["t"], potential=potential, route=route)
        result = run_scenario(s)
        inferred = photon_inference(s.constants, s.box, s.initial_state(), route, rec["t"])
        assert result.report.route is inferred.route is route
        for rep in (result.report, inferred):
            got = [rep.t, rep.dm, rep.dE, rep.dT, rep.product, rep.bound, rep.valid, rep.degenerate]
            want = [rec[name] for name in ("t", f"dm_{r}", f"dE_{r}", "dT", f"prod_{r}", "bound_ET",
                                           "valid", f"degenerate_{r}")]
            assert list(map(bits, got)) == list(map(bits, want))
        got = [result.chi_p_qcl, result.chi_q_qcl, result.dq, result.dp, result.dqcl]
        assert list(map(bits, got)) == list(map(bits, row[1:6]))
    assert rows.degenerate_p[0] and rows.degenerate_q[0]


def test_sweep_mass_resolution_scaling():
    # free fall via P: dm * t = dx / g is exact at all rows
    rows = sweep(make_scenario(), 0.5, 4.0, 8)
    for row in rows:
        assert row.dm_p * row.t == pytest.approx(0.5, rel=1e-12)


def test_sweep_contains_both_routes():
    rows = sweep(make_scenario(), 1.0, 2.0, 2)
    for row in rows:
        # via Q resolution is worse than via P at these times by t/2M scaling
        assert row.dm_q > row.dm_p


def test_sweep_revival_row_degenerate():
    s = make_scenario(t_emit=2.0, potential=Harmonic(k=1000.0))
    rows = sweep(s, math.pi, 3.0 * math.pi, 3)
    mid = rows[1]
    assert mid.degenerate_p and mid.degenerate_q
    assert mid.dm_p == math.inf and mid.dm_q == math.inf
    assert mid.prod_p == math.inf
    # at the half period only the momentum route loses the mass signal
    outer = rows[0]
    assert outer.degenerate_p
    assert not outer.degenerate_q
    assert outer.dm_q == pytest.approx(500.0, rel=1e-12)


def test_sweep_range_guards():
    s = make_scenario()
    with pytest.raises(RangeError):
        sweep(s, 2.0, 1.0, 8)
    with pytest.raises(RangeError):
        sweep(s, -1.0, 1.0, 8)
    with pytest.raises(RangeError):
        sweep(s, 0.0, 1.0, 1)
    with pytest.raises(RangeError):
        sweep(s, 0.0, math.inf, 8)


def test_sweep_deterministic():
    a = sweep(make_scenario(), 0.5, 4.0, 8)
    b = sweep(make_scenario(), 0.5, 4.0, 8)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_default_grid():
    rep = verify(make_scenario(), grid=50)
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert "frame_closed_vs_rk4" in names
    assert "chi_closed_vs_ode" in names
    assert "symplectic_closed" in names


def test_verify_passes_harmonic():
    rep = verify(make_scenario(potential=Harmonic(k=1000.0), t_emit=3.0), grid=50)
    assert rep.all_passed


@pytest.mark.parametrize("k", [1e-14, 1e-10, 1e-6])
def test_verify_passes_soft_spring(k):
    # Up to t=20 these springs turn 6e-8 to 6e-4 rad: the closed forms must
    # hold their digits there, where 1 - cos(wt) rounds away.
    report = verify(make_scenario(t_emit=20.0, potential=Harmonic(k=k)))
    assert report.all_passed, [(c.name, c.max_dev) for c in report.checks if not c.passed]


def test_verify_reports_failure_at_unreachable_tolerance():
    # RK4 is exact for free fall, so a spring supplies a real truncation error
    rep = verify(make_scenario(potential=Harmonic(k=1000.0)), grid=20, tol=1e-16)
    assert not rep.all_passed
    failed = [c for c in rep.checks if not c.passed]
    assert failed
    # deviations are honest: reported max_dev exceeds the tolerance
    for c in failed:
        assert c.max_dev > c.tol


def test_verify_with_oracle_checks():
    s = make_scenario(oracle=OracleConfig(n=24, buffer=4, step=1e-3))
    rep = verify(s, grid=20, use_oracle=True)
    names = [c.name for c in rep.checks]
    assert "oracle_block_p_qcl" in names
    assert "oracle_probe_q_qcl" in names
    assert rep.all_passed


# Peak traced memory of verify(use_oracle=True), in dense complex n x n
# matrices of 16*n**2 bytes.  The check forms and commutes one grid time at a
# time, so it holds the workspace's q0 and p0, the oracle's (3, n, n) basis,
# one time's frame, its two commutators with their product temporary, and the
# last time's two until they are replaced: 14.0 matrices at n = 256.  Holding
# all five frames at once read 23.0, and commuting all five as one stack 37.0.
ORACLE_PEAK_MATRICES = 16


def test_verify_oracle_memory_is_bounded_by_one_time_of_commutators():
    n = 256
    s = make_scenario(oracle=OracleConfig(n=n))
    verify(s, use_oracle=True)  # any one-time allocation stays out of the peak
    tracemalloc.start()
    try:
        assert verify(s, use_oracle=True).all_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ORACLE_PEAK_MATRICES * 16 * n * n


@pytest.mark.parametrize("fault", [False, True], ids=["true_map", "no_hg2_term"])
def test_verify_catches_a_fault_in_the_shared_step_map(monkeypatch, fault):
    # The numeric route and the oracle both step with dynamics._rk4_step, so
    # a wrong map must fail a check of each.  Drop the (h*K)**2 / 2 term of
    # the step.  It takes a spring: in free fall K is nilpotent, and the
    # oracle's [P, Qcl] block does not see the fault.
    true_step = dynamics._rk4_step

    def no_hg2_term(K, h):
        hk = h * K
        return true_step(K, h) - hk @ hk / 2.0

    if fault:
        monkeypatch.setattr(dynamics, "_rk4_step", no_hg2_term)
    s = make_scenario(
        potential=Harmonic(k=1000.0), oracle=OracleConfig(n=24, buffer=4, step=1e-3)
    )
    passed = {c.name: c.passed for c in verify(s, grid=20, use_oracle=True).checks}
    if fault:
        assert not passed["frame_closed_vs_rk4"]
        assert not passed["oracle_block_p_qcl"]
    else:
        assert all(passed.values())
