"""The array core against a 50-digit reference taken from the equations of motion.

The equations of motion of :mod:`photonbox.dynamics` are y' = K y over
y = (q, p, qcl, 1, m), where K has five nonzero entries: 1/M, -k, -g,
-g/c**2 and 1.  The reference frame at t is the top three rows of
F(t) = expm(K t), from ``mpmath.expm`` at 50 digits.  Each clock chi is a
2x2 minor of F, the spreads come from Sigma(t) = S Sigma_0 S^T with S the
q, p, qcl columns of F, and the mass rule is the README's: dm = dX/|a_m|,
dE = c**2*dm, dT = dqcl, degenerate (dm = inf) where |a_m| < 1e-12, valid
where w*t*m < 0.1*M or in free fall.  Of photonbox it reads only the
scenario's numbers and its initial state.

Every value of `sweep` and `run_scenario` must lie within ``BOUND`` of the
reference, relative to that quantity's scale: its largest magnitude over
the grid (for a run, over ``RUN_GRID`` times from 0 to t_emit).  dm, dE and
the products are compared through |a_m| = dX/dm, because near a revival dm
inherits the conditioning of a_m.  Flags must match, except a degenerate
flag where the reference |a_m| lies within the bound of DEGENERACY_ATOL.
The mutation harness shows that a relative fault of 1e-12 in any one
varying frame coefficient or chi of the closed forms fails this.

`verify` has a scalar reference: the per-frame deviation loop over frames
held as tuples of rows, fed by the 50-digit reference rounded to float and,
for the integrated routes, by the exact RK4 reference of ``exact_rk4``:
the same legs, step counts and step map as `verify`'s, taken at 50 digits
from the same K and rounded to float.  Every ``max_dev`` must agree within
``DEV_BOUND``, and every verdict must be the same unless the reference's
deviation lies within ``DEV_BOUND`` of the tolerance.
"""

import dataclasses
import math
import random
from decimal import Decimal, localcontext
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from photonbox import (
    BOUND_SLACK,
    BoxParams,
    FreeFall,
    Harmonic,
    InvalidTime,
    Measurement,
    NumericOptions,
    OracleConfig,
    PhysConstants,
    Route,
    Scenario,
    build_workspace,
    dynamics,
    oracle_evolve_grid,
    run_scenario,
    states,
    sweep,
    verify,
)

from exact_rk4 import chi_generator, frame_generator, frame_grid, rk4_grid

DEGENERACY_ATOL = 1e-12
SI = dict(hbar=1.054571817e-34, c=299792458.0, g=9.81)

# The unmutated engine's worst over the four families below is 7.1e-15 of a
# quantity's scale (a_m on the revival grids), and a relative fault of 1e-12
# in a coefficient moves it by 1e-12 of the scale where it is near its largest.
BOUND = 1e-13
RUN_GRID = 33


# ---------------------------------------------------------------------------
# 50-digit reference
# ---------------------------------------------------------------------------


def reference(s, t_min, t_max, steps):
    """The reference at np.linspace(t_min, t_max, steps), rounded to float.

    F(t_min) and the step map expm(K h) come from ``mpmath.expm``; the steps
    and all that follows run in 50-digit decimals, which halves this module's
    run time against the same loop in mpf.  The P/Q axis of ``chi``, ``dx``
    and ``a_m`` runs route p, then q.
    """
    with mpmath.workdps(50):
        K = mpmath.matrix(frame_generator(s.constants, s.box).astype(str).tolist())
        M, k = map(mpmath.mpf, (s.box.M, s.box.spring_k))
        h = (mpmath.mpf(t_max) - t_min) / (steps - 1)
        F = decimals(mpmath.expm(K * t_min) if t_min else mpmath.eye(5))[:3]
        step = decimals(mpmath.expm(K * h))
        h, w = Decimal(str(h)), Decimal(str(mpmath.sqrt(k / M)))
    sigma0 = np.array([[Decimal(v) for v in row] for row in s.initial_state().sigma.tolist()])
    rows = []
    with localcontext() as ctx:
        ctx.prec = 50
        for i in range(steps):
            t, S = Decimal(t_min) + i * h, F[:, :3]
            variances = ((S @ sigma0) * S).sum(axis=1)  # the diagonal of S Sigma_0 S^T
            rows.append(
                [t, *F.flat]
                # chi of [P, Qcl] and of [Q, Qcl]
                + [F[r, 0] * F[2, 1] - F[r, 1] * F[2, 0] for r in (1, 0)]
                + [variances[r].sqrt() for r in (1, 0, 2)]  # dp, dq, dqcl
                + [abs(F[1, 4]), abs(F[0, 4])]
                + [w == 0 or w * t * Decimal(s.box.m) < Decimal(s.box.M) / 10]  # valid
            )
            F = F @ step
    a = np.array(rows, dtype=float)
    return SimpleNamespace(
        t=a[:, 0],
        frames=a[:, 1:16].reshape(-1, 3, 5),
        chi=a[:, 16:18],
        dx=a[:, 18:20],
        dqcl=a[:, 20],
        a_m=a[:, 21:23],
        valid=a[:, 23] == 1.0,
    )


def decimals(A):
    """An mpmath matrix as an object array of Decimals, with the working precision's digits."""
    return np.array([[Decimal(str(x)) for x in row] for row in A.tolist()])


def scale(values):
    """A quantity's scale: its largest magnitude over the grid (axis 0)."""
    return np.abs(values).max(axis=0)


def assert_close(name, got, want, size):
    dev = np.abs(np.asarray(got, dtype=float) - want)
    bad = ~(dev <= BOUND * size)  # nan is bad
    assert not bad.any(), f"{name} is off the reference at {np.argwhere(bad)[0]} by {dev[bad][0]!r}"


def assert_inference(s, ref, got, routes="pq", at=slice(None)):
    """SWEEP_DTYPE columns ``got`` of ``routes`` at the reference's times [at]."""
    columns = {
        "t": ref.t,
        "chi_p_qcl": ref.chi[:, 0],
        "chi_q_qcl": ref.chi[:, 1],
        "dp": ref.dx[:, 0],
        "dq": ref.dx[:, 1],
        "dqcl": ref.dqcl,
        "dT": ref.dqcl,
    }
    for name, want in columns.items():
        assert_close(name, got[name], want[at], scale(want))
    assert_close("bound_ET", got["bound_ET"], s.constants.hbar / 2.0, s.constants.hbar / 2.0)
    assert np.all(got["valid"] == ref.valid[at])
    for route in routes:
        i = "pq".index(route)
        a_m, dx = ref.a_m[:, i], np.asarray(got[("dp", "dq")[i]])  # the engine's dX, checked above
        degenerate = np.asarray(got[f"degenerate_{route}"])
        near = np.abs(a_m - DEGENERACY_ATOL) <= BOUND * scale(a_m)
        assert np.all((degenerate == (a_m < DEGENERACY_ATOL)[at]) | near[at]), f"degenerate_{route}"
        c2dx = s.constants.c ** 2 * dx
        for name, numerator in (("dm", dx), ("dE", c2dx), ("prod", c2dx * np.asarray(got["dT"]))):
            value = np.asarray(got[f"{name}_{route}"])  # inf exactly where degenerate
            assert np.array_equal(value == np.inf, degenerate), f"{name}_{route} vs degenerate"
            a_m_got = np.where(degenerate, a_m[at], numerator / value)
            assert_close(f"{name}_{route} as |a_m|", a_m_got, a_m[at], scale(a_m))


def assert_run(s, ref, got):
    """Every field of ``got``, a run at the reference's last time."""
    rep, hbar = got.report, s.constants.hbar
    assert rep.route is s.measurement.route
    r = rep.route.value
    columns = {
        "t": rep.t,
        "chi_p_qcl": got.chi_p_qcl,
        "chi_q_qcl": got.chi_q_qcl,
        "dq": got.dq,
        "dp": got.dp,
        "dqcl": got.dqcl,
        "dT": rep.dT,
        "bound_ET": rep.bound,
        "valid": rep.valid,
        f"dm_{r}": rep.dm,
        f"dE_{r}": rep.dE,
        f"prod_{r}": rep.product,
        f"degenerate_{r}": rep.degenerate,
    }
    assert_inference(s, ref, columns, r, at=-1)
    assert got.frame.shape == (3, 5)
    assert_close("frame", got.frame, ref.frames[-1], scale(ref.frames))
    i = "pq".index(r)  # product c**2*dX*dT/|a_m| >= hbar/2, less the slack
    floor = hbar / 2.0 * ref.a_m[-1, i] * (1.0 - BOUND_SLACK)
    assert rep.ok == (rep.degenerate or s.constants.c ** 2 * ref.dx[-1, i] * ref.dqcl[-1] >= floor)
    for i, check in enumerate((got.check_p, got.check_q)):
        dx, bound = ref.dx[:, i], hbar * np.abs(ref.chi[:, i]) / 2.0
        wants = {
            "dx": dx,
            "dy": ref.dqcl,
            "product": dx * ref.dqcl,
            "bound": bound,
        }
        for name, want in wants.items():
            assert_close(f"check_{'pq'[i]}.{name}", getattr(check, name), want[-1], scale(want))
        assert check.ok == (dx[-1] * ref.dqcl[-1] >= bound[-1] * (1.0 - BOUND_SLACK))


def assert_sweep_matches(s, t_min, t_max, steps):
    rows = sweep(s, t_min, t_max, steps)
    assert len(rows) == steps
    assert_inference(s, reference(s, t_min, t_max, steps), rows)
    return rows


def assert_run_matches(s):
    assert_run(s, reference(s, 0.0, s.t_emit, RUN_GRID), run_scenario(s))


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------


def scenario(rng, consts, M, potential, route, dx=None, t_emit=1.0):
    """A scenario with a random photon mass, clock spread and (unless given) device_dx."""
    if dx is None:
        dx = 10 ** rng.uniform(-1, 0.5)
    return Scenario(
        constants=consts,
        box=BoxParams(M=M, m=rng.uniform(0.0, 0.01 * M), potential=potential),
        measurement=Measurement(route=Route(route), device_dx=dx, device_dcl=rng.uniform(0.0, 0.5)),
        t_emit=t_emit,
    )


def unit_consts(rng):
    return PhysConstants(
        hbar=rng.uniform(0.5, 2.0), c=rng.uniform(1.0, 3.0), g=rng.uniform(0.5, 2.0)
    )


SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
def test_free_fall_sweep_and_run(seed):
    rng = random.Random(f"free:{seed}")
    for route in "pq":
        s = scenario(rng, unit_consts(rng), 10 ** rng.uniform(2, 4), FreeFall(), route)
        t_min = 0.0 if seed % 2 == 0 else rng.uniform(0.1, 1.0)
        assert_sweep_matches(s, t_min, t_min + rng.uniform(2.0, 6.0), 257)
        for t in (0.0, rng.uniform(0.1, 6.0)):
            assert_run_matches(dataclasses.replace(s, t_emit=t))


@pytest.mark.parametrize("seed", SEEDS)
def test_harmonic_sweep_on_revivals(seed):
    # A grid of periods * 64 + 1 points lands on every revival, where sin and
    # 1 - cos are rounding noise and the routes go degenerate.
    rng = random.Random(f"revival:{seed}")
    for route in "pq":
        M = 10 ** rng.uniform(2, 4)
        w = rng.uniform(0.5, 5.0)
        s = scenario(rng, unit_consts(rng), M, Harmonic(k=M * w * w), route)
        periods = rng.choice((2, 4, 5, 8))
        t_max = periods * 2.0 * math.pi / w
        rows = assert_sweep_matches(s, 0.0, t_max, periods * 64 + 1)
        assert any(r.degenerate_p for r in rows[64::64])
        for t in (2.0 * math.pi / w, rng.uniform(0.5, 4.0)):
            assert_run_matches(dataclasses.replace(s, t_emit=t))


@pytest.mark.parametrize("seed", SEEDS)
def test_soft_spring_sweep_and_run(seed):
    # M = 1000 with w*t in [5e-3, 5e-2]: the box moves a hundredth of a period.
    rng = random.Random(f"soft:{seed}")
    for route in "pq":
        t = rng.uniform(0.5, 4.0)
        w = 10 ** rng.uniform(math.log10(5e-3), math.log10(5e-2)) / t
        s = scenario(rng, unit_consts(rng), 1000.0, Harmonic(k=1000.0 * w * w), route, t_emit=t)
        assert_sweep_matches(s, 0.0, t, 129)
        assert_run_matches(s)


@pytest.mark.parametrize("seed", SEEDS)
def test_si_units_sweep_and_run(seed):
    rng = random.Random(f"si:{seed}")
    consts = PhysConstants(**SI)
    for route, potential in (("p", FreeFall()), ("q", Harmonic(k=rng.uniform(1.0, 100.0)))):
        # route p pins a momentum, route q a position
        dx = 10 ** rng.uniform(-11, -8) if route == "p" else 10 ** rng.uniform(-10, -6)
        M = rng.uniform(0.5, 2.0)
        s = scenario(rng, consts, M, potential, route, dx, t_emit=rng.uniform(0.5, 4.0))
        assert_sweep_matches(s, 0.0, 4.0, 129)
        assert_run_matches(s)


def test_overflow_names_coefficient_and_first_time():
    s = scenario(random.Random(0), PhysConstants(), 1000.0, FreeFall(), "p", 0.5, t_emit=1e300)
    with pytest.raises(InvalidTime, match=r"Q\.a_m is not finite at t=1e\+300"):
        run_scenario(s)
    with pytest.raises(InvalidTime, match=r"Q\.a_m is not finite at t=2\.5e\+299"):
        sweep(s, 0.0, 1e300, 5)


# ---------------------------------------------------------------------------
# mutation harness
# ---------------------------------------------------------------------------


def mutant(which, index):
    """closed_form_grid with frames (which 0) or chis (which 1) [..., *index] times 1 + 1e-12."""
    def closed_form_grid(*args):
        arrays = dynamics.closed_form_grid(*args)
        arrays[which][(..., *index)] *= 1.0 + 1e-12
        return arrays
    return closed_form_grid


# One scenario per family, at t_emit 2, where no varying coefficient is near
# a zero; the revival spring is at w*t = 2*pi + 1.
MUTATION_FAMILIES = {
    family: scenario(random.Random(f"mutant:{family}"), consts, M, potential, route, dx, t_emit=2.0)
    for family, consts, M, potential, route, dx in (
        ("free", PhysConstants(), 1000.0, FreeFall(), "p", None),
        ("revival", PhysConstants(), 1000.0, Harmonic(k=250.0 * (2 * math.pi + 1) ** 2), "q", None),
        ("soft", PhysConstants(), 1000.0, Harmonic(k=0.1), "q", None),  # w*t = 0.02
        ("si", PhysConstants(**SI), 1.0, Harmonic(k=2.0), "q", 1e-8),
    )
}


@pytest.mark.parametrize("family", MUTATION_FAMILIES)
def test_a_relative_fault_of_1e_12_in_any_varying_coefficient_fails(family, monkeypatch):
    s = MUTATION_FAMILIES[family]
    ref = reference(s, 0.0, s.t_emit, RUN_GRID)

    def assert_matches():
        assert_inference(s, ref, sweep(s, 0.0, s.t_emit, RUN_GRID))
        assert_run(s, ref, run_scenario(s))

    assert_matches()
    varying = [(0, (i, j)) for i, j in np.ndindex(3, 5) if np.ptp(ref.frames[:, i, j]) > 0]
    assert len(varying) == (7 if family == "free" else 10)
    survivors = []
    for which, index in varying + [(1, (0,)), (1, (1,))]:
        monkeypatch.setattr(states, "closed_form_grid", mutant(which, index))
        try:
            assert_matches()
        except AssertionError:
            continue
        survivors.append((("frames", "chis")[which], index))
    assert not survivors


# ---------------------------------------------------------------------------
# verify: scalar deviation reference
# ---------------------------------------------------------------------------

def ref_unit_floor_dev(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def ref_frame_dev(numeric, closed):
    dev = 0.0
    for num_row, ref_row in zip(numeric, closed):  # rows Q, P, Qcl
        for value, ref in zip(num_row, ref_row):  # a_q, a_p, a_cl, a_1, a_m
            dev = max(dev, ref_unit_floor_dev(value, ref))
    return dev


def ref_commutator(x, y):
    """chi of [X, Y] for two rows (a_q, a_p, a_cl, a_1, a_m)."""
    return x[0] * y[1] - x[1] * y[0]


def ref_verify(s, grid=100, tol=1e-9, use_oracle=False, oracle_tol=1e-6):
    """(name, max_dev, tol, passed) per check, computed one frame at a time."""
    consts, box = s.constants, s.box
    T = s.t_emit if s.t_emit > 0 else 4.0
    ts = [float(t) for t in np.linspace(0.0, T, grid)]

    # frames as tuples of rows (Q, P, Qcl)
    exact = reference(s, 0.0, T, grid)
    closed = [tuple(frame.tolist()) for frame in exact.frames]
    chi_closed = exact.chi.tolist()
    # the integrated routes as the exact RK4 reference rounds them to float
    step = s.numeric.step
    numeric = [tuple(f.tolist()) for f in frame_grid(consts, box, ts, step)[:, :3].astype(float)]
    chi_ode = rk4_grid(chi_generator(consts, box), [0.0, 0.0, 1.0], ts, step)[:, :2].astype(float)

    frame_dev = max(ref_frame_dev(n, c) for n, c in zip(numeric, closed))
    ode_dev = max(
        max(
            ref_unit_floor_dev(float(ode[0]), ref[0]),
            ref_unit_floor_dev(float(ode[1]), ref[1]),
        )
        for ode, ref in zip(chi_ode, chi_closed)
    )
    algebra_dev = rk4_algebra_dev = sympl_closed_dev = sympl_rk4_dev = 0.0
    for (q_c, p_c, qcl_c), (q_n, p_n, qcl_n), ref in zip(closed, numeric, chi_closed):
        algebra_dev = max(
            algebra_dev,
            ref_unit_floor_dev(ref_commutator(p_c, qcl_c), ref[0]),
            ref_unit_floor_dev(ref_commutator(q_c, qcl_c), ref[1]),
        )
        rk4_algebra_dev = max(
            rk4_algebra_dev,
            ref_unit_floor_dev(ref_commutator(p_n, qcl_n), ref[0]),
            ref_unit_floor_dev(ref_commutator(q_n, qcl_n), ref[1]),
        )
        sympl_closed_dev = max(sympl_closed_dev, abs(ref_commutator(q_c, p_c) - 1.0))
        sympl_rk4_dev = max(sympl_rk4_dev, abs(ref_commutator(q_n, p_n) - 1.0))
    checks = [
        ("frame_closed_vs_rk4", frame_dev, tol),
        ("chi_closed_vs_ode", ode_dev, tol),
        ("chi_frames_vs_closed", algebra_dev, tol),
        ("chi_rk4_frames_vs_closed", rk4_algebra_dev, tol),
        ("symplectic_closed", sympl_closed_dev, tol),
        ("symplectic_rk4", sympl_rk4_dev, tol),
    ]

    if use_oracle:
        ws = build_workspace(s.oracle, consts)
        if isinstance(box.potential, Harmonic):
            T_o = min(T, 4.0 / box.omega)
        else:
            T_o = min(T, 4.0)
        ts_o = [float(t) for t in np.linspace(0.0, T_o, 5)]
        r = ws.config.n - ws.config.buffer
        # The probe as a vacuum expectation value, not as verify reads it (an entry)
        vacuum = np.zeros(ws.config.n, dtype=complex)
        vacuum[0] = 1.0
        block_p = block_q = probe_p = probe_q = 0.0
        chis = reference(s, 0.0, T_o, 5).chi.tolist()
        for (ref_p, ref_q), frame in zip(chis, oracle_evolve_grid(ws, consts, box, ts_o)):
            q, p, qcl = frame
            devs = []
            for a, ref in ((p, ref_p), (q, ref_q)):
                chi = (a @ qcl - qcl @ a) / (1j * consts.hbar)
                block_dev = float(np.abs(chi[:r, :r] - ref * np.eye(r)).max())
                probe_chi = complex(vacuum.conj() @ (chi @ vacuum))
                scale = max(1.0, abs(ref))
                devs.append((block_dev / scale, abs(probe_chi - ref) / scale))
            (blk_p, prb_p), (blk_q, prb_q) = devs
            block_p, block_q = max(block_p, blk_p), max(block_q, blk_q)
            probe_p, probe_q = max(probe_p, prb_p), max(probe_q, prb_q)
        checks += [
            ("oracle_block_p_qcl", block_p, oracle_tol),
            ("oracle_block_q_qcl", block_q, oracle_tol),
            ("oracle_probe_p_qcl", probe_p, oracle_tol),
            ("oracle_probe_q_qcl", probe_q, oracle_tol),
        ]
    return [(name, dev, tol, dev <= tol) for name, dev, tol in checks]


# The exact RK4 reference leaves only verify's own rounding of its folded
# legs, about eps times a frame's largest entry, sqrt(k*M) up to about 3e3
# here, which max(1, |ref|) measures absolutely where an entry passes zero.
# The worst max_dev difference over these cases is 1.2e-13, in
# frame_closed_vs_rk4 of a k = 2100 spring (100 points, step 1e-3); of the
# oracle lines, whose reference commutes oracle_evolve_grid's dense frames
# where verify commutes their diagonals, 2.2e-16.  Over 1150 further draws
# in these ranges the worst was 7.2e-13, in frame_closed_vs_rk4 at k = 5200.
DEV_BOUND = 1e-12


def assert_verify_matches(s, **kwargs):
    got = verify(s, **kwargs).checks
    ref = ref_verify(s, **kwargs)
    assert [(c.name, c.tol) for c in got] == [(name, tol) for name, _, tol, _ in ref]
    assert all(type(c.tol) is float for c in got)
    for c, (name, dev, tol, passed) in zip(got, ref):
        assert c.max_dev == dev or abs(c.max_dev - dev) <= DEV_BOUND, name
        assert c.passed == passed or abs(dev - tol) <= DEV_BOUND, name
    return got


def verify_cases(rng, s):
    """Grids of 2, 3 and 100 points at several steps and tolerances, each up to the
    scenario's t_emit and up to a drawn one."""
    for grid in (2, 3, 100):
        step = rng.choice((1e-3, 0.01, 0.05))
        tol = rng.choice((1e-9, 1e-12, 1e-15))
        yield dataclasses.replace(s, numeric=NumericOptions(step=step)), dict(grid=grid, tol=tol)
        t_max = rng.uniform(0.5, 4.0)
        yield dataclasses.replace(s, t_emit=t_max), dict(grid=grid, tol=tol)


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_free_fall_and_harmonic(seed):
    rng = random.Random(f"verify:{seed}")
    verdicts = set()
    for route, potential in (("p", FreeFall()), ("q", Harmonic(k=10 ** rng.uniform(2, 4)))):
        t_emit = 0.0 if seed == 0 and route == "p" else rng.uniform(0.5, 4.0)
        s = scenario(rng, unit_consts(rng), 1000.0, potential, route, t_emit=t_emit)
        for case, kwargs in verify_cases(rng, s):
            verdicts.update(c.passed for c in assert_verify_matches(case, **kwargs))
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_soft_spring(seed):
    # M = 1000 with w*t in [5e-3, 5e-2], as in test_soft_spring_sweep_and_run
    rng = random.Random(f"verify-soft:{seed}")
    t = rng.uniform(0.5, 4.0)
    w = 10 ** rng.uniform(math.log10(5e-3), math.log10(5e-2)) / t
    s = scenario(rng, unit_consts(rng), 1000.0, Harmonic(k=1000.0 * w * w), "q", t_emit=t)
    for case, kwargs in verify_cases(rng, s):
        assert_verify_matches(case, **kwargs)


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_si_units(seed):
    rng = random.Random(f"verify-si:{seed}")
    consts = PhysConstants(**SI)
    for route, potential in (("p", FreeFall()), ("q", Harmonic(k=rng.uniform(1.0, 100.0)))):
        dx = 10 ** rng.uniform(-11, -8) if route == "p" else 10 ** rng.uniform(-10, -6)
        s = scenario(rng, consts, rng.uniform(0.5, 2.0), potential, route, dx, rng.uniform(0.5, 4.0))
        for case, kwargs in verify_cases(rng, s):
            assert_verify_matches(case, **kwargs)


@pytest.mark.parametrize("potential", [FreeFall(), Harmonic(k=1000.0)], ids=("free", "harmonic"))
def test_verify_oracle(potential):
    rng = random.Random("verify-oracle")
    s = scenario(rng, PhysConstants(), 1000.0, potential, "p", t_emit=rng.uniform(0.5, 2.0))
    s = dataclasses.replace(s, oracle=OracleConfig(n=24, buffer=4))
    got = assert_verify_matches(s, grid=20, use_oracle=True)
    assert [c.name for c in got][6:] == [
        "oracle_block_p_qcl",
        "oracle_block_q_qcl",
        "oracle_probe_p_qcl",
        "oracle_probe_q_qcl",
    ]
