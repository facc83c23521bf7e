"""The array-valued core against the scalar per-time pipeline it replaced.

The reference below is the loop `sweep` and `run_scenario` ran one time at
a time before both became views of one array evaluation: scalar
``math.sin``/``math.cos`` closed forms, one 3x3 propagation per time and
the mass rule per route.  It calls nothing from photonbox's evaluation
path (no ``closed_form_grid``, ``evolve_closed``, ``propagate_state`` or
``mass_uncertainty``), and the core must reproduce it bit for bit: the
arithmetic and its order are unchanged, and ``np.sin``/``np.cos`` agree
with ``math.sin``/``math.cos`` on every value these grids produce.

`verify` has a scalar reference too: the per-frame, per-coefficient
deviation loop over frames held as tuples of rows, one scalar
a_q(X)*a_p(Y) - a_p(X)*a_q(Y) per pair and frame, and running maxima over
the oracle times, fed by the same scalar closed forms and by its own RK4
loop, which takes one step at a time.  `verify` folds each leg's steps into
one power of the step map, so the two differ by rounding: every ``max_dev``
must agree within ``DEV_BOUND``, and every verdict must be the same unless
the reference's deviation lies within ``DEV_BOUND`` of the tolerance.
"""

import dataclasses
import math
import random

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
    Route,
    SWEEP_DTYPE,
    Scenario,
    build_workspace,
    oracle_evolve_grid,
    run_scenario,
    sweep,
    verify,
)

DEGENERACY_ATOL = 1e-12
SI = dict(hbar=1.054571817e-34, c=299792458.0, g=9.81)


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------


def ref_kernels(w, t):
    """cos(wt), sin(wt)/w, (1 - cos(wt))/w**2, (t - sin(wt)/w)/w**2; at w = 0 their limits."""
    x = w * t
    if w == 0.0:
        return 1.0, t, t * t / 2.0, t * t * t / 6.0
    s = math.sin(x) / w
    h = math.sin(0.5 * x) / w
    if x < 0.25:
        series = 1.0 / 6652800.0  # 6*(x - sin x)/x**3 in x**2, by Horner
        for a in (-1.0 / 60480.0, 1.0 / 840.0, -1.0 / 20.0, 1.0):
            series = series * (x * x) + a
        d = t * t * t / 6.0 * series
    else:
        d = (t - s) / (w * w)
    return math.cos(x), s, 2.0 * h * h, d


def ref_frame(consts, box, t):
    """Rows Q, P, Qcl of (a_q, a_p, a_cl, a_1, a_m) at backward time t."""
    g = consts.g
    c2 = consts.c * consts.c
    M = box.M
    cw, s, c, d = ref_kernels(box.omega, t)
    return [
        [cw, s / M, 0.0, 0.0, -g * c / M],
        [-box.spring_k * s, cw, 0.0, 0.0, -g * s],
        [-(g / c2) * s, -(g / c2) * c / M, 1.0, t, g * g * d / (M * c2)],
    ]


def ref_chi(consts, box, t):
    """(chi_p_qcl, chi_q_qcl) at backward time t."""
    c2 = consts.c * consts.c
    _, s, c, _ = ref_kernels(box.omega, t)
    return consts.g * s / c2, consts.g * c / (box.M * c2)


def ref_propagate(rows, state0, m):
    """Means and covariance of Q, P, Qcl: mean_of per row, S Sigma S^T."""
    mu_q, mu_p, mu_cl = state0.mu
    mu = [r[0] * mu_q + r[1] * mu_p + r[2] * mu_cl + r[3] + r[4] * m for r in rows]
    S = np.array([r[:3] for r in rows])
    sigma = S @ state0.sigma @ S.T
    sigma = 0.5 * (sigma + sigma.T)
    return mu, sigma


def ref_mass(a_m, dx, t, box):
    """(dm, valid, degenerate) for one measured spread."""
    coeff = abs(a_m)
    degenerate = coeff < DEGENERACY_ATOL
    dm = math.inf if degenerate else dx / coeff
    if isinstance(box.potential, Harmonic):
        valid = box.omega * t * box.m < 0.1 * box.M
    else:
        valid = True
    return dm, valid, degenerate


def ref_point(s, t):
    """Everything the core evaluates at one time, from the scalar pipeline."""
    consts, box = s.constants, s.box
    c2 = consts.c * consts.c
    rows = ref_frame(consts, box, t)
    mu, sigma = ref_propagate(rows, s.initial_state(), box.m)
    dq, dp, dqcl = (float(v) for v in np.sqrt(np.maximum(np.diag(sigma), 0.0)))
    out = {"rows": rows, "mu": mu, "sigma": sigma, "dq": dq, "dp": dp, "dqcl": dqcl}
    out["chi_p"], out["chi_q"] = ref_chi(consts, box, t)
    for route, row, dx in (("p", rows[1], dp), ("q", rows[0], dq)):
        dm, valid, degenerate = ref_mass(row[4], dx, t, box)
        dE = math.inf if degenerate else c2 * dm
        out[route] = dict(
            dm=dm,
            dE=dE,
            product=math.inf if degenerate else dE * dqcl,
            valid=valid,
            degenerate=degenerate,
        )
    return out


def ref_sweep(s, t_min, t_max, steps):
    """The sweep as tuples of Python floats and bools, one per time, in SWEEP_DTYPE's field order."""
    rows = []
    for t in np.linspace(t_min, t_max, steps):
        t = float(t)
        r = ref_point(s, t)
        p, q = r["p"], r["q"]
        row = dict(
            t=t,
            chi_p_qcl=r["chi_p"],
            chi_q_qcl=r["chi_q"],
            dq=r["dq"],
            dp=r["dp"],
            dqcl=r["dqcl"],
            dm_p=p["dm"],
            dm_q=q["dm"],
            dE_p=p["dE"],
            dE_q=q["dE"],
            dT=r["dqcl"],
            prod_p=p["product"],
            prod_q=q["product"],
            bound_ET=s.constants.hbar / 2.0,
            valid=p["valid"],
            degenerate_p=p["degenerate"],
            degenerate_q=q["degenerate"],
        )
        assert tuple(row) == SWEEP_DTYPE.names
        rows.append(tuple(row.values()))
    return rows


# ---------------------------------------------------------------------------
# bitwise comparison
# ---------------------------------------------------------------------------


def bits(value):
    """A float's exact bit pattern (so -0.0 != 0.0 and nan == nan); bools as is."""
    if isinstance(value, bool):
        return value
    assert type(value) is float, type(value)
    return value.hex()


def row_bits(row):
    return tuple(bits(v) for v in tuple(row))


def assert_sweep_matches(s, t_min, t_max, steps):
    got = sweep(s, t_min, t_max, steps)
    ref = ref_sweep(s, t_min, t_max, steps)
    assert len(got) == len(ref) == steps
    for i, (g, r) in enumerate(zip(got.tolist(), ref)):
        assert row_bits(g) == row_bits(r), f"row {i} (t={r[0]!r})"


def assert_run_matches(s):
    got = run_scenario(s)
    ref = ref_point(s, s.t_emit)
    route = ref[s.measurement.route.value]
    rep = got.report
    assert rep.route is s.measurement.route
    assert bits(rep.t) == bits(float(s.t_emit))
    for name in ("dm", "dE", "product"):
        assert bits(getattr(rep, name)) == bits(route[name]), name
    assert bits(rep.dT) == bits(ref["dqcl"])
    assert bits(rep.bound) == bits(s.constants.hbar / 2.0)
    assert (rep.valid, rep.degenerate) == (route["valid"], route["degenerate"])
    for name in ("dq", "dp", "dqcl"):
        assert bits(getattr(got, name)) == bits(ref[name]), name
    assert bits(got.chi_p_qcl) == bits(ref["chi_p"])
    assert bits(got.chi_q_qcl) == bits(ref["chi_q"])
    assert got.frame.shape == (3, 5)
    frame = [[bits(v) for v in row] for row in got.frame.tolist()]
    assert frame == [[bits(v) for v in row] for row in ref["rows"]]
    pairs = ((got.check_p, ref["dp"], ref["chi_p"]), (got.check_q, ref["dq"], ref["chi_q"]))
    for check, dx, chi in pairs:
        assert (bits(check.dx), bits(check.dy)) == (bits(dx), bits(ref["dqcl"]))
        assert bits(check.product) == bits(dx * ref["dqcl"])
        assert bits(check.bound) == bits(s.constants.hbar * abs(chi) / 2.0)


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
        assert_sweep_matches(s, 0.0, t_max, periods * 64 + 1)
        rows = sweep(s, 0.0, t_max, periods * 64 + 1)
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


def ref_rk4_grid(G, src, y, ts, step):
    """y' = G y + src from y at t = 0: one affine RK4 map per leg, applied
    once per step."""
    eye = np.eye(G.shape[0])
    out = []
    t_prev = 0.0
    for t in ts:
        dt = t - t_prev
        if dt > 0:
            n = max(1, math.ceil(dt / step - 1e-12))
            h = dt / n
            hg = h * G
            hg2 = hg @ hg
            hg3 = hg2 @ hg
            hg4 = hg3 @ hg
            R = eye + hg + hg2 / 2.0 + hg3 / 6.0 + hg4 / 24.0
            r = h * ((eye + hg / 2.0 + hg2 / 6.0 + hg3 / 24.0) @ src)
            for _ in range(n):
                y = R @ y + r
        out.append(y)
        t_prev = t
    return out


def ref_verify(s, grid=100, tol=1e-9, use_oracle=False, oracle_tol=1e-6):
    """(name, max_dev, tol, passed) per check, computed one frame at a time."""
    consts, box = s.constants, s.box
    g = consts.g
    c2 = consts.c * consts.c
    T = s.t_emit if s.t_emit > 0 else 4.0
    ts = [float(t) for t in np.linspace(0.0, T, grid)]

    # frames as tuples of rows (Q, P, Qcl)
    closed = [tuple(ref_frame(consts, box, t)) for t in ts]
    chi_closed = [ref_chi(consts, box, t) for t in ts]
    G = np.array([[0.0, 1.0 / box.M, 0.0], [-box.spring_k, 0.0, 0.0], [-g / c2, 0.0, 0.0]])
    src = np.zeros((3, 5))
    src[1, 4] = -g
    src[2, 3] = 1.0
    rows = ref_rk4_grid(G, src, np.eye(3, 5), ts, s.numeric.step)
    numeric = [tuple(r.tolist()) for r in rows]
    G = np.array([[0.0, -box.spring_k], [1.0 / box.M, 0.0]])
    chi_ode = ref_rk4_grid(G, np.array([g / c2, 0.0]), np.zeros(2), ts, s.numeric.step)

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
        for t, frame in zip(ts_o, oracle_evolve_grid(ws, consts, box, ts_o)):
            q, p, qcl = frame
            ref_p, ref_q = ref_chi(consts, box, t)
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


# Stepping one step at a time accumulates about steps * eps of rounding: with
# at most 4000 steps here (t_emit 4 at step 1e-3) about 5e-13 relative, which
# this bound doubles.  The folded legs accumulate far less.  The worst max_dev
# difference seen over these cases was 2.4e-13.
DEV_BOUND = 1e-12


def assert_verify_matches(s, **kwargs):
    got = verify(s, **kwargs).checks
    ref = ref_verify(s, **kwargs)
    assert [(c.name, bits(c.tol)) for c in got] == [(name, bits(tol)) for name, _, tol, _ in ref]
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
