"""End-to-end scenarios: single runs, measurement-time sweeps, verification.

A :class:`Scenario` bundles the physics (constants, box, measurement device,
emission time) with numeric settings.  Everything here is deterministic:
identical scenario values produce bit-identical results.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _PQ_ROWS,
    NumericOptions,
    Pair,
    closed_form_grid,
    commutator_ode_grid,
    evolve_numeric_grid,
)
from .errors import ConfigError, InvalidPrecision, InvalidTime, RangeError, _require, _require_type
from .operators import BoxParams, PhysConstants
from .oracle import OracleConfig, _oracle_frames, build_workspace, oracle_commutator
from .states import (
    MIN_DEVICE_PRECISION,
    SWEEP_DTYPE,
    BoundCheck,
    GaussianState,
    InferenceReport,
    Route,
    _report,
    _robertson,
    infer_grid,
    prepare_post_measurement_state,
)

__all__ = [
    "Measurement",
    "Scenario",
    "RunResult",
    "CheckResult",
    "VerificationReport",
    "run_scenario",
    "sweep",
    "verify",
]


# Largest sweep or verify grid: each grid time holds a (3, 5) frame and a few
# dozen scalars (the sweep CSV is written a block at a time), so the cap keeps
# one CLI call below about 1 GB.
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
        _require_type(ConfigError, "route", self.route, Route, "a Route")
        _require(InvalidPrecision, "device_dx", self.device_dx, MIN_DEVICE_PRECISION)
        _require(InvalidPrecision, "device_dcl", self.device_dcl, 0)


@dataclass(frozen=True)
class Scenario:
    """One delayed-measurement experiment in full; a part not of its class raises ConfigError."""

    constants: PhysConstants
    box: BoxParams
    measurement: Measurement
    t_emit: float
    numeric: NumericOptions = NumericOptions()
    oracle: OracleConfig = OracleConfig()

    def __post_init__(self) -> None:
        _require_type(ConfigError, "constants", self.constants, PhysConstants, "a PhysConstants")
        _require_type(ConfigError, "box", self.box, BoxParams, "a BoxParams")
        _require_type(ConfigError, "measurement", self.measurement, Measurement, "a Measurement")
        _require(InvalidTime, "t_emit", self.t_emit, 0)
        _require_type(ConfigError, "numeric", self.numeric, NumericOptions, "a NumericOptions")
        _require_type(ConfigError, "oracle", self.oracle, OracleConfig, "an OracleConfig")

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
    frames, rows = infer_grid(s.constants, s.box, s.initial_state(), [s.t_emit])
    row = rows[0].item()
    chi_p, chi_q, dq, dp, dqcl = row[1:6]
    hbar = s.constants.hbar
    checks = _robertson(dp, dqcl, chi_p, hbar), _robertson(dq, dqcl, chi_q, hbar)
    return RunResult(_report(row, s.measurement.route), frames[0], *row[1:6], *checks)


def sweep(s: Scenario, t_min: float, t_max: float, steps: int) -> np.recarray:
    """Sweep the emission time over a uniform grid.

    Both inference routes are evaluated from the same propagated state at
    every grid point, so their columns stay directly comparable.  Returns the
    ``SWEEP_DTYPE`` records of one :func:`infer_grid` call as a read-only
    record array: ``rows[i].dm_p`` is one cell and ``rows.dm_p`` a column.

    Raises
    ------
    RangeError
        If the range is not 0 <= t_min < t_max, finite, with an integer 2 <= steps <= MAX_GRID.
    """
    _require(RangeError, "t_min", t_min, 0)
    _require(RangeError, "t_max", t_max, t_min, strict=True)
    _require(RangeError, "steps", steps, 2, MAX_GRID)
    _require_type(RangeError, "steps", steps, numbers.Integral, "an integer")
    ts = np.linspace(t_min, t_max, steps)
    return infer_grid(s.constants, s.box, s.initial_state(), ts)[1].view(np.recarray)


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
    evenly spaced times.  The oracle's propagator is integrated across them
    in one pass, and each time's (3, n, n) frame is formed only when that
    time is commuted, so one time's frame and commutators are held at once,
    never the (5, 3, n, n) stack of
    :func:`~photonbox.oracle.oracle_evolve_grid`.
    All deviations are measured relative to max(1, |ref|).

    Raises
    ------
    RangeError
        If ``grid`` is not an integer from 2 to MAX_GRID, or ``tol`` or
        ``oracle_tol`` is negative or not finite (an infinite tolerance would
        pass every check).
    """
    _require(RangeError, "grid", grid, 2, MAX_GRID)
    _require_type(RangeError, "grid", grid, numbers.Integral, "an integer")
    _require(RangeError, "tol", tol, 0)
    _require(RangeError, "oracle_tol", oracle_tol, 0)
    consts, box = s.constants, s.box
    T = s.t_emit if s.t_emit > 0 else 4.0
    ts = np.linspace(0.0, T, grid)

    def clock_chis(frames: np.ndarray) -> np.ndarray:
        return _chi(frames[:, _PQ_ROWS], frames[:, 2:])

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
        ts_o = np.linspace(0.0, min(T, 4.0 / (box.omega or 1.0)), 5)
        refs = closed_form_grid(consts, box, ts_o)[1]
        # A scale far from the oracle's natural length overflows the matrix
        # products the same way; those checks then read inf or nan and fail.
        with np.errstate(over="ignore", invalid="ignore"):
            r = s.oracle.n - s.oracle.buffer
            diag = np.arange(r)
            probe_dev = np.empty(refs.shape, complex)
            block_dev = np.empty(refs.shape)
            # One time's (3, n, n) frame and (2, n, n) commutators at a time.
            for i, frame in enumerate(_oracle_frames(ws, consts, box, ts_o)):
                chi = oracle_commutator(ws, frame[_PQ_ROWS], frame[2:])
                probe_dev[i] = chi[:, 0, 0] - refs[i]  # taken before the block is edited
                block = chi[:, :r, :r]
                block[:, diag, diag] -= refs[i, :, None]  # chi * I, on the diagonal alone
                block_dev[i] = np.abs(block).max(axis=(-2, -1))
            for kind, diff in (("block", block_dev), ("probe", probe_dev)):
                for j, pair in enumerate(Pair):
                    dev = _max_rel_dev(diff[:, j], refs[:, j])
                    table.append((f"oracle_{kind}_{pair.value}", dev, oracle_tol))
    return VerificationReport(
        checks=tuple(CheckResult(name, dev, tol, dev <= tol) for name, dev, tol in table)
    )
