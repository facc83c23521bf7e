"""Acceptance gate: nine pass/fail criteria, printed one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import json
import math
import pathlib
import time

import numpy as np
import pytest

from photonbox import (
    BoxParams,
    FreeFall,
    GaussianState,
    Harmonic,
    Measurement,
    NumericOptions,
    OracleConfig,
    Pair,
    PhysConstants,
    Route,
    Scenario,
    build_workspace,
    check_bound,
    commutator_closed,
    evolve_closed,
    evolve_numeric_grid,
    mass_uncertainty,
    oracle_commutator,
    oracle_evolve,
    photon_inference,
    prepare_post_measurement_state,
    propagate_state,
    sweep,
    verify,
)
from photonbox.cli import main as cli_main

DATA = pathlib.Path(__file__).parent / "data"
CONSTS = PhysConstants(hbar=1.0, c=1.0, g=1.0)
FF_BOX = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
HO_BOX = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))

@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def frame_dev(a, b):
    return float(np.abs(a - b).max())


def test_criterion_1_free_fall_commutator_closed_forms():
    with criterion(1, "free-fall commutator closed forms, machine precision"):
        probes = (0.5, 1.0, 2.0, 4.0)
        commutator_closed(Pair.P_QCL, CONSTS, FF_BOX, 1.0)  # warm
        start = time.perf_counter()
        values = [
            (
                commutator_closed(Pair.P_QCL, CONSTS, FF_BOX, t),
                commutator_closed(Pair.Q_QCL, CONSTS, FF_BOX, t),
            )
            for t in probes
        ]
        elapsed = time.perf_counter() - start
        for t, (chi_p, chi_q) in zip(probes, values):
            assert chi_p == t
            assert chi_q == t * t / 2000.0
        assert elapsed < 1e-3


def test_criterion_2_harmonic_commutator_closed_forms():
    with criterion(2, "harmonic commutator closed forms, zero at the revival"):
        probes = (math.pi / 4, math.pi / 2, math.pi, 2.0 * math.pi)
        for t in probes:
            chi_p = commutator_closed(Pair.P_QCL, CONSTS, HO_BOX, t)
            chi_q = commutator_closed(Pair.Q_QCL, CONSTS, HO_BOX, t)
            assert chi_p == math.sin(t)
            assert chi_q == 2.0 * math.sin(t / 2.0) ** 2 / 1000.0  # (1 - cos t)/1000
        # the full-period row is zero to machine precision
        revival = 2.0 * math.pi
        assert abs(commutator_closed(Pair.P_QCL, CONSTS, HO_BOX, revival)) < 1e-15
        assert abs(commutator_closed(Pair.Q_QCL, CONSTS, HO_BOX, revival)) < 1e-30


def test_criterion_3_three_way_agreement_and_convergence_order():
    with criterion(3, "closed vs RK4 vs commutator integration, 4th order"):
        start = time.perf_counter()
        for box in (FF_BOX, HO_BOX):
            s = Scenario(
                constants=CONSTS,
                box=box,
                measurement=Measurement(route=Route.P, device_dx=0.5, device_dcl=0.0),
                t_emit=4.0,
                numeric=NumericOptions(step=1e-3),
            )
            report = verify(s, grid=100, tol=1e-9)
            assert report.all_passed, [c.name for c in report.checks if not c.passed]
        # step halving cuts the frame error by ~2^4
        ref = evolve_closed(CONSTS, HO_BOX, 3.0)
        err_h, err_h2 = (
            frame_dev(evolve_numeric_grid(CONSTS, HO_BOX, [3.0], NumericOptions(step=h))[0], ref)
            for h in (0.05, 0.025)
        )
        assert 12.8 <= err_h / err_h2 <= 19.2
        assert time.perf_counter() - start < 1.0


def test_criterion_4_matrix_oracle_agreement():
    with criterion(4, "truncated-basis matrix commutators match the engine"):
        start = time.perf_counter()
        ws = build_workspace(OracleConfig(n=60, buffer=8, step=1e-3), CONSTS)
        for box in (FF_BOX, HO_BOX):
            for t in (0.5, 1.0, 2.0, 3.0, 4.0):
                q, p, qcl = oracle_evolve(ws, CONSTS, box, t)
                for pair, mat in ((Pair.P_QCL, p), (Pair.Q_QCL, q)):
                    ref = commutator_closed(pair, CONSTS, box, t)
                    chi = oracle_commutator(ws, mat, qcl)
                    r = ws.config.n - ws.config.buffer
                    assert np.abs(chi[:r, :r] - ref * np.eye(r)).max() < 1e-6
                    probe_chi = ws.vacuum.conj() @ (chi @ ws.vacuum)
                    assert abs(probe_chi - ref) < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_5_randomized_bound_suite():
    with criterion(5, "1000 randomized scenarios, zero bound violations"):
        rng = np.random.default_rng(8128)
        boxes = (FF_BOX, HO_BOX)
        start = time.perf_counter()
        violations = 0
        checked_pairs = checked_products = 0
        for _ in range(1000):
            box = boxes[int(rng.integers(2))]
            t = float(rng.uniform(1e-3, 4.0))
            route = Route.P if rng.integers(2) else Route.Q

            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(-1.5, 1.5)
            u = rng.uniform(1.0, 10.0)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            block = u * 0.5 * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
            sigma = np.zeros((3, 3))
            sigma[:2, :2] = 0.5 * (block + block.T)
            sigma[2, 2] = rng.uniform(0.0, 1.0)
            st0 = GaussianState(mu=np.zeros(3), sigma=sigma)

            fr = evolve_closed(CONSTS, box, t)
            st = propagate_state(fr, st0, box.m, hbar=CONSTS.hbar)
            for pair in Pair:
                chi = commutator_closed(pair, CONSTS, box, t)
                if not check_bound(st, chi, pair, CONSTS).ok:
                    violations += 1
                checked_pairs += 1

            device = prepare_post_measurement_state(
                route, float(rng.uniform(0.05, 5.0)), 0.0, CONSTS
            )
            rep = photon_inference(CONSTS, box, device, route, t)
            if not rep.degenerate:
                checked_products += 1
                if not rep.product >= rep.bound * (1.0 - 1e-9):
                    violations += 1
        elapsed = time.perf_counter() - start
        assert checked_pairs == 2000
        assert checked_products > 900
        assert violations == 0
        assert elapsed < 5.0


def test_criterion_6_saturation_of_the_product_bound():
    with criterion(6, "infimum of dE*dT over minimum-uncertainty states is hbar/2"):
        t = 2.0
        best = math.inf
        for dp in np.logspace(-2.0, 2.0, 201):
            sigma = np.diag([(0.5 / dp) ** 2, dp * dp, 0.0])
            st0 = GaussianState(mu=np.zeros(3), sigma=sigma)
            fr = evolve_closed(CONSTS, FF_BOX, t)
            st = propagate_state(fr, st0, FF_BOX.m, hbar=CONSTS.hbar)
            est = mass_uncertainty(fr, t, Route.P, float(st.spreads[1]), FF_BOX)
            product = CONSTS.c**2 * est.dm * float(st.spreads[2])
            best = min(best, product)
        assert best >= 0.5 * (1.0 - 1e-9)
        assert best - 0.5 < 1e-6


def test_criterion_7_mass_relation_identities():
    with criterion(7, "mass-spread coefficients and the soft-spring limit"):
        g = CONSTS.g
        dx = 0.7
        for t in np.linspace(0.1, 3.9, 20):
            t = float(t)
            est_p = mass_uncertainty(evolve_closed(CONSTS, FF_BOX, t), t, Route.P, dx, FF_BOX)
            est_q = mass_uncertainty(evolve_closed(CONSTS, FF_BOX, t), t, Route.Q, dx, FF_BOX)
            assert est_p.dm == pytest.approx(dx / (g * t), rel=1e-13)
            assert est_q.dm == pytest.approx(2.0 * FF_BOX.M * dx / (g * t * t), rel=1e-13)

            fr = evolve_closed(CONSTS, HO_BOX, t)
            w = HO_BOX.omega
            k = HO_BOX.spring_k
            got_p = mass_uncertainty(fr, t, Route.P, dx, HO_BOX).dm
            got_q = mass_uncertainty(fr, t, Route.Q, dx, HO_BOX).dm
            assert got_p == pytest.approx(w * dx / (g * abs(math.sin(w * t))), rel=1e-13)
            assert got_q == pytest.approx(k * dx / (g * (1.0 - math.cos(w * t))), rel=1e-13)

        # quartering the stiffness quarters the deviation from free fall
        t = 1.0
        ff_dm = mass_uncertainty(evolve_closed(CONSTS, FF_BOX, t), t, Route.P, dx, FF_BOX).dm
        errors = []
        for k in (4.0, 1.0, 0.25):
            soft = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=k))
            dm = mass_uncertainty(evolve_closed(CONSTS, soft, t), t, Route.P, dx, soft).dm
            errors.append(abs(dm - ff_dm) / ff_dm)
        assert 3.6 <= errors[0] / errors[1] <= 4.4
        assert 3.6 <= errors[1] / errors[2] <= 4.4


def test_criterion_8_fine_structure_of_the_sweep():
    with criterion(8, "sweep trades dE against dT at a fixed product floor"):
        s = Scenario(
            constants=CONSTS,
            box=FF_BOX,
            measurement=Measurement(route=Route.P, device_dx=0.5, device_dcl=0.0),
            t_emit=4.0,
            numeric=NumericOptions(step=1e-3),
        )
        rows = sweep(s, 0.25, 4.0, 40)
        products = [row.dm_p * row.t for row in rows]
        for value in products:
            assert value == pytest.approx(products[0], rel=1e-12)
        for earlier, later in zip(rows, rows[1:]):
            assert later.dT > earlier.dT
        for row in rows:
            assert row.prod_p >= 0.5 * (1.0 - 1e-9)


def test_criterion_9_cli_golden_files(tmp_path):
    with criterion(9, "CLI golden CSV and exit-code contract"):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "sweep",
                "--config",
                str(DATA / "reference_config.json"),
                "--t-min",
                "0.5",
                "--t-max",
                "4.0",
                "--steps",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (DATA / "reference_sweep.csv").read_bytes()

        assert cli_main(["verify", "--config", str(DATA / "reference_config.json")]) == 0
        # RK4 is exact for free fall, so the unreachable tolerance is shown on
        # a spring, whose truncation error alone (about 8e-15 on the frames at
        # the default step) exceeds 1e-15.
        doc = json.loads((DATA / "reference_config.json").read_text())
        doc["box"]["potential"] = {"type": "harmonic", "k": 1000.0}
        spring = tmp_path / "spring.json"
        spring.write_text(json.dumps(doc))
        assert cli_main(["verify", "--config", str(spring), "--tol", "1e-15"]) == 2
        bad = tmp_path / "bad.json"
        doc = json.loads((DATA / "reference_config.json").read_text())
        doc["box"]["M"] = -1.0
        bad.write_text(json.dumps(doc))
        assert cli_main(["verify", "--config", str(bad)]) == 1
        assert cli_main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
