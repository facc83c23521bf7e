"""End-to-end scenarios: single runs, measurement-time sweeps, verification.

A :class:`Scenario` bundles the physics (constants, box, measurement device,
emission time) with numeric settings.  Everything here is deterministic:
identical scenario values produce bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import (
    NumericOptions,
    Pair,
    closed_form_grid,
    commutator_ode_grid,
    evolve_numeric_grid,
)
from .errors import ConfigError, InvalidPrecision, InvalidTime, RangeError, _require
from .operators import BoxParams, PhysConstants
from .oracle import OracleConfig, build_workspace, oracle_commutator, oracle_evolve_grid
from .states import (
    MIN_DEVICE_PRECISION,
    BoundCheck,
    GaussianState,
    InferenceReport,
    Route,
    infer_grid,
    prepare_post_measurement_state,
)

__all__ = [
    "Measurement",
    "Scenario",
    "RunResult",
    "SweepRow",
    "CheckResult",
    "VerificationReport",
    "run_scenario",
    "sweep",
    "verify",
]


# Largest sweep or verify grid: each grid time holds a (3, 5) frame and a few
# dozen scalars, so the cap keeps one call below about 2 GB.
MAX_GRID = 10**6


@dataclass(frozen=True)
class Measurement:
    """Final measurement: route, device precision, and clock read-off spread.

    A ``route`` not a :class:`Route` raises ConfigError.  ``device_dx`` is
    finite and >= ``MIN_DEVICE_PRECISION`` (1e-12, an absolute floor in every
    unit system), and ``device_dcl`` finite and >= 0, or InvalidPrecision.
    """

    route: Route
    device_dx: float
    device_dcl: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.route, Route):
            raise ConfigError(f"route must be a Route, got {self.route!r}")
        _require(InvalidPrecision, "device_dx", self.device_dx, MIN_DEVICE_PRECISION)
        _require(InvalidPrecision, "device_dcl", self.device_dcl, 0)


@dataclass(frozen=True)
class Scenario:
    """Full description of one delayed-measurement experiment."""

    constants: PhysConstants
    box: BoxParams
    measurement: Measurement
    t_emit: float
    numeric: NumericOptions = NumericOptions()
    oracle: OracleConfig = OracleConfig()

    def __post_init__(self) -> None:
        _require(InvalidTime, "t_emit", self.t_emit, 0)

    def initial_state(self) -> GaussianState:
        return prepare_post_measurement_state(
            self.measurement.route,
            self.measurement.device_dx,
            self.measurement.device_dcl,
            self.constants,
        )


@dataclass(frozen=True)
class RunResult:
    """Inference report plus the frame and commutator summary behind it.

    ``frame`` is the (3, 5) frame at t_emit, as from
    :func:`~photonbox.dynamics.evolve_closed`.
    """

    report: InferenceReport
    frame: np.ndarray
    chi_p_qcl: float
    chi_q_qcl: float
    dq: float
    dp: float
    dqcl: float
    check_p: BoundCheck
    check_q: BoundCheck


class SweepRow(NamedTuple):
    """One measurement time in a sweep: a tuple whose fields are the CSV columns, in order."""

    t: float
    chi_p_qcl: float
    chi_q_qcl: float
    dq: float
    dp: float
    dqcl: float
    dm_p: float
    dm_q: float
    dE_p: float
    dE_q: float
    dT: float
    prod_p: float
    prod_q: float
    bound_ET: float
    valid: bool
    degenerate_p: bool
    degenerate_q: bool


@dataclass(frozen=True)
class CheckResult:
    """One verification check with its worst deviation and tolerance."""

    name: str
    max_dev: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_scenario(s: Scenario) -> RunResult:
    """Run one scenario end to end.

    Prepares the post-measurement state, propagates it to the emission
    time, evaluates both clock commutators and their Robertson bounds, and
    infers the photon energy/arrival-time spreads along the scenario's
    measurement route.  The single-time case of :func:`infer_grid`.
    """
    grid = infer_grid(s.constants, s.box, s.initial_state(), [s.t_emit])
    chi_p, chi_q = grid.chi[0].tolist()
    dq, dp, dqcl = grid.spreads[0].tolist()
    return RunResult(
        report=grid.report(0, s.measurement.route),
        frame=grid.frames[0],
        chi_p_qcl=chi_p,
        chi_q_qcl=chi_q,
        dq=dq,
        dp=dp,
        dqcl=dqcl,
        check_p=grid.check(0, Pair.P_QCL),
        check_q=grid.check(0, Pair.Q_QCL),
    )


def sweep(s: Scenario, t_min: float, t_max: float, steps: int) -> list[SweepRow]:
    """Sweep the emission time over a uniform grid.

    Both inference routes are evaluated from the same propagated state at
    every grid point, so their columns stay directly comparable.  One
    :func:`infer_grid` evaluation covers the whole grid.

    Raises
    ------
    RangeError
        If the range is not 0 <= t_min < t_max with 2 <= steps <= MAX_GRID.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise RangeError("sweep range must be finite")
    if t_min < 0 or t_max <= t_min:
        raise RangeError(f"need 0 <= t_min < t_max, got [{t_min!r}, {t_max!r}]")
    _require(RangeError, "steps", steps, 2, MAX_GRID)
    grid = infer_grid(s.constants, s.box, s.initial_state(), np.linspace(t_min, t_max, steps))
    dq, dp, dqcl = grid.spreads.T.tolist()
    chi_p, chi_q = grid.chi.T.tolist()
    dm_p, dm_q = grid.dm.T.tolist()
    dE_p, dE_q = grid.dE.T.tolist()
    prod_p, prod_q = grid.product.T.tolist()
    deg_p, deg_q = grid.degenerate.T.tolist()
    columns = (
        grid.t.tolist(), chi_p, chi_q, dq, dp, dqcl, dm_p, dm_q, dE_p, dE_q, dqcl,
        prod_p, prod_q, itertools.repeat(grid.hbar / 2.0), grid.valid.tolist(), deg_p, deg_q,
    )
    return list(map(SweepRow._make, zip(*columns)))


def _chi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """chi of [X, Y] for coefficient rows stacked along the last axis.

    The array form of :func:`~photonbox.operators.commutator`: only the
    canonical pair contributes, chi = a_q(X)*a_p(Y) - a_p(X)*a_q(Y).
    """
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _max_rel_dev(diff: np.ndarray, ref: np.ndarray) -> float:
    """Largest |value - ref| relative to max(1, |ref|), given diff = value - ref."""
    return float((np.abs(diff) / np.maximum(1.0, np.abs(ref))).max())


def verify(
    s: Scenario,
    grid: int = 100,
    tol: float = 1e-9,
    use_oracle: bool = False,
    oracle_tol: float = 1e-6,
) -> VerificationReport:
    """Cross-check the closed forms against the independent routes.

    Runs, over a uniform time grid from 0 to the scenario's t_emit (or to 4
    if that is zero):

    * closed-form frames against the fourth-order coefficient integration,
    * closed-form commutators against the commutator-equation integration,
    * commutators recomputed from the frames (both routes) against the
      closed forms,
    * the symplectic invariant chi(Q, P) = 1 on both frame routes,

    and, when ``use_oracle`` is set, the truncated-Fock matrix commutators
    (restricted block and its vacuum entry) against the engine's chi at five
    evenly spaced times, integrated in one pass by
    :func:`~photonbox.oracle.oracle_evolve_grid` and commuted as one stack.
    All deviations are measured relative to max(1, |ref|).

    Raises
    ------
    RangeError
        If ``grid`` is not between 2 and MAX_GRID, or ``tol`` or
        ``oracle_tol`` is negative or not finite (an infinite tolerance would
        pass every check).
    """
    _require(RangeError, "grid", grid, 2, MAX_GRID)
    _require(RangeError, "tol", tol, 0)
    _require(RangeError, "oracle_tol", oracle_tol, 0)
    consts, box = s.constants, s.box
    T = s.t_emit if s.t_emit > 0 else 4.0
    ts = np.linspace(0.0, T, grid)

    def clock_chis(frames: np.ndarray) -> np.ndarray:
        # [P, Qcl] and [Q, Qcl], in the column order of closed_form_grid's chis
        return _chi(frames[:, [1, 0]], frames[:, 2:])

    def symplectic_chi(frames: np.ndarray) -> np.ndarray:
        return _chi(frames[:, 0], frames[:, 1])  # [Q, P]; 1 for any unitary evolution

    closed, chis = closed_form_grid(consts, box, ts)
    # A step too long for a stiff spring makes the integration blow up; its
    # checks then read inf or nan and fail, without numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        numeric = evolve_numeric_grid(consts, box, ts, s.numeric)
        chi_ode = commutator_ode_grid(consts, box, ts, s.numeric)
        table = [
            ("frame_closed_vs_rk4", _max_rel_dev(numeric - closed, closed), tol),
            ("chi_closed_vs_ode", _max_rel_dev(chi_ode - chis, chis), tol),
            ("chi_frames_vs_closed", _max_rel_dev(clock_chis(closed) - chis, chis), tol),
            ("chi_rk4_frames_vs_closed", _max_rel_dev(clock_chis(numeric) - chis, chis), tol),
            ("symplectic_closed", _max_rel_dev(symplectic_chi(closed) - 1.0, 1.0), tol),
            ("symplectic_rk4", _max_rel_dev(symplectic_chi(numeric) - 1.0, 1.0), tol),
        ]

    if use_oracle:
        ws = build_workspace(s.oracle, consts)
        # Truncation is only trustworthy for moderate phase advance, so the
        # oracle grid stays within w*t <= 4 (harmonic) or t <= 4 (free fall).
        T_o = min(T, 4.0 / (box.omega or 1.0))
        ts_o = np.linspace(0.0, T_o, 5)
        refs = closed_form_grid(consts, box, ts_o)[1]
        # A scale far from the oracle's natural length overflows the matrix
        # products the same way; those checks then read inf or nan and fail.
        with np.errstate(over="ignore", invalid="ignore"):
            frames = oracle_evolve_grid(ws, consts, box, ts_o)
            # [P, Qcl] and [Q, Qcl] at each time, in the column order of refs
            chi = oracle_commutator(ws, frames[:, 1::-1], frames[:, 2:])
            probe_dev = chi[..., 0, 0] - refs  # a new array, taken before the block is edited
            r = s.oracle.n - s.oracle.buffer
            block = chi[..., :r, :r]
            block -= refs[..., None, None] * np.eye(r)
            block_dev = np.abs(block).max(axis=(-2, -1))
            for kind, diff in (("block", block_dev), ("probe", probe_dev)):
                for j, pair in enumerate(("p_qcl", "q_qcl")):
                    dev = _max_rel_dev(diff[:, j], refs[:, j])
                    table.append((f"oracle_{kind}_{pair}", dev, oracle_tol))
    return VerificationReport(
        checks=tuple(CheckResult(name, dev, tol, dev <= tol) for name, dev, tol in table)
    )
