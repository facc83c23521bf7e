"""Independent truncated-Fock-basis check of the commutator engine.

The coefficient engine never touches a Hilbert space; this module does, on
purpose.  It builds explicit position and momentum matrices from ladder
operators in a truncated number basis, integrates the same backward-time
equations of motion as honest matrix ODEs, assembles the clock matrix by
quadrature, and evaluates commutators by actual matrix multiplication.
The equations of motion are linear and act entry by entry, so each
classical fourth-order step is one affine map, shared with the numeric
coefficient route, applied to only the entries it can reach (those of q0
and p0 that are nonzero, and the diagonal); the frames it returns, and
every commutator, are dense.
Away from the truncation corner the matrix commutators must reproduce the
engine's chi values, which is what the scenario-level verification uses.

Truncation contaminates the last basis states, so all block comparisons
are restricted to the leading (n - buffer) x (n - buffer) block, and probe
expectation values use vectors with negligible weight near the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import _check_grid, _rk4_maps
from .errors import ConfigError, InvalidStep
from .operators import BoxParams, PhysConstants

__all__ = [
    "OracleConfig",
    "OracleWorkspace",
    "OracleFrame",
    "OracleCommutator",
    "build_workspace",
    "oracle_evolve",
    "oracle_evolve_grid",
    "oracle_commutator",
]

_COHERENT_AMPLITUDE = 0.5


@dataclass(frozen=True)
class OracleConfig:
    """Truncation size, edge buffer, length scale, and ODE step."""

    n: int = 60
    buffer: int = 8
    scale: float = 1.0
    step: float = 1e-3

    def __post_init__(self) -> None:
        if self.n < 16:
            raise ConfigError(f"n must be >= 16, got {self.n}")
        if self.buffer < 1:
            raise ConfigError(f"buffer must be >= 1, got {self.buffer}")
        if self.n <= 2 * self.buffer:
            raise ConfigError(f"n must exceed 2*buffer, got n={self.n}, buffer={self.buffer}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be finite and > 0, got {self.scale!r}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step must be finite and > 0, got {self.step!r}")


@dataclass(frozen=True)
class OracleWorkspace:
    """Position/momentum matrices, probe vectors, and their configuration."""

    q0: np.ndarray
    p0: np.ndarray
    vacuum: np.ndarray
    coherent: np.ndarray
    config: OracleConfig
    hbar: float


@dataclass(frozen=True)
class OracleFrame:
    """Matrix-valued Q(t), P(t), Qcl(t) at backward time t."""

    t: float
    q: np.ndarray
    p: np.ndarray
    qcl: np.ndarray


@dataclass(frozen=True)
class OracleCommutator:
    """Probe expectation of a matrix commutator, in the chi convention.

    ``probe_chi`` is <probe| [A, B] |probe> / (i*hbar), which for an exact
    canonical pair is the engine's real chi.  ``block_dev`` (when a
    reference was supplied) is the max deviation of the restricted block of
    [A, B]/(i*hbar) from chi_ref times the identity.
    """

    probe_chi: complex
    block_dev: float | None


def build_workspace(config: OracleConfig, consts: PhysConstants) -> OracleWorkspace:
    """Build ladder-operator matrices and probe vectors.

    Q0 = scale*(a + a^dag)/sqrt(2) and P0 = (hbar/scale)*(a - a^dag)/(i*sqrt(2)),
    so that [Q0, P0] = i*hbar exactly except in the last diagonal entry.
    The restricted commutator block is self-checked against the identity
    before the workspace is returned.

    Raises
    ------
    ConfigError
        If the configuration is unusable or the self-check fails.
    """
    n = config.n
    lower = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
    raise_op = lower.conj().T
    sqrt2 = math.sqrt(2.0)
    q0 = config.scale * (lower + raise_op) / sqrt2
    p0 = (consts.hbar / config.scale) * (lower - raise_op) / (1j * sqrt2)

    vacuum = np.zeros(n, dtype=complex)
    vacuum[0] = 1.0
    amps = np.empty(n)
    amps[0] = 1.0
    for j in range(1, n):
        amps[j] = amps[j - 1] * _COHERENT_AMPLITUDE / math.sqrt(j)
    coherent = (amps / np.linalg.norm(amps)).astype(complex)

    r = n - config.buffer
    ccr = (q0 @ p0 - p0 @ q0) / (1j * consts.hbar)
    dev = float(np.abs(ccr[:r, :r] - np.eye(r)).max())
    if dev > 1e-10:
        raise ConfigError(f"restricted canonical commutator off by {dev}")
    return OracleWorkspace(
        q0=q0, p0=p0, vacuum=vacuum, coherent=coherent, config=config, hbar=consts.hbar
    )


def oracle_evolve_grid(
    workspace: OracleWorkspace,
    consts: PhysConstants,
    box: BoxParams,
    ts: Sequence[float],
) -> list[OracleFrame]:
    """Matrix frames at an ascending grid of backward times, in one pass.

    Q and P follow dQ/dt = P/M, dP/dt = -m*g*I - k*Q, integrated once from
    t = 0 across the grid by classical fourth-order steps.  The system is
    linear with constant coefficients and acts entry by entry, so each step
    is the affine map (Q, P) <- R (Q, P) + r*I of ``dynamics._rk4_maps``,
    applied as one 3 x 3 matrix product to every stepped entry at once.
    Only the entries it can reach are stepped: those where q0 or p0 is
    nonzero, and the diagonal.  The rest stay exactly 0, and each frame is
    scattered back into dense n x n matrices, equal bit for bit to stepping
    every entry.  The clock matrix at each grid time is then

        Qcl(t) = t*I - (g/c**2) * integral of Q over [0, t]

    where the integral is a running sum of one composite Simpson quadrature
    per leg between consecutive grid times, over that leg's ODE nodes.  Each
    leg takes an even number of equal steps, at least 2 and each no longer
    than the configured step, so its panels pair up and it ends on its grid
    time.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or the grid is not ascending.
    InvalidStep
        If the configured step exceeds the last grid time while that is
        positive.
    """
    ts = [float(t) for t in ts]
    _check_grid(ts)
    cfg = workspace.config
    if ts and 0 < ts[-1] < cfg.step:
        raise InvalidStep(
            f"oracle.step {cfg.step!r} exceeds target time {ts[-1]!r} (the oracle horizon)"
        )
    n_dim = cfg.n
    eye = np.eye(n_dim)
    G = np.array([[0.0, 1.0 / box.M], [-box.spring_k, 0.0]])
    src = np.array([0.0, -box.m * consts.g])
    g_c2 = consts.g / (consts.c * consts.c)

    # The live entries' flat indices, diagonal first, gather Q and P into
    # rows 0 and 1 of a (3, L) complex state.  The map is real, so it acts on
    # the float64 view, real and imaginary parts side by side; there row 2
    # carries the source: 1 at the real diagonal [0:2n:2], 0 elsewhere.
    off_diagonal = (workspace.q0 != 0) | (workspace.p0 != 0)
    np.fill_diagonal(off_diagonal, False)
    live = np.concatenate((np.arange(n_dim) * (n_dim + 1), np.flatnonzero(off_diagonal)))
    y = np.zeros((3, len(live)), dtype=complex)
    y[0] = workspace.q0.reshape(-1)[live]
    y[1] = workspace.p0.reshape(-1)[live]
    y[2, :n_dim] = 1.0
    a = y.view(np.float64)
    b = np.empty_like(a)  # ping-pong partner of a; each pair of steps ends in a
    integral = np.zeros_like(a[0])  # of Q over [0, t]

    def dense(entries: np.ndarray) -> np.ndarray:
        mat = np.zeros(n_dim * n_dim, dtype=complex)
        mat[live] = entries.view(complex)
        return mat.reshape(n_dim, n_dim)

    frames = []
    t_prev = 0.0
    for t in ts:
        dt = t - t_prev
        if dt > 0:
            steps = max(2, math.ceil(dt / cfg.step - 1e-12))
            steps += steps % 2
            h = dt / steps
            R, r = _rk4_maps(G, src, h)
            step_map = np.eye(3)
            step_map[:2, :2] = R
            step_map[:2, 2] = r
            # Simpson's first node, and sums over the odd and interior even ones
            first, odd, even = a[0].copy(), np.zeros_like(a[0]), np.zeros_like(a[0])
            for i in range(2, steps + 1, 2):
                np.matmul(step_map, a, out=b)
                odd += b[0]
                np.matmul(step_map, b, out=a)
                if i < steps:
                    even += a[0]
            integral += (h / 3.0) * (first + 4.0 * odd + 2.0 * even + a[0])
        qcl = t * eye - g_c2 * dense(integral)
        frames.append(OracleFrame(t=t, q=dense(a[0]), p=dense(a[1]), qcl=qcl))
        t_prev = t
    return frames


def oracle_evolve(
    workspace: OracleWorkspace,
    consts: PhysConstants,
    box: BoxParams,
    t: float,
) -> OracleFrame:
    """Integrate the matrix equations of motion to backward time t.

    The single-time view of :func:`oracle_evolve_grid`; at t = 0 it returns
    the initial matrices and a zero clock matrix.

    Raises
    ------
    InvalidTime
        If t is negative or not finite.
    InvalidStep
        If the configured step exceeds a positive target time.
    """
    return oracle_evolve_grid(workspace, consts, box, [t])[0]


def oracle_commutator(
    workspace: OracleWorkspace,
    a: np.ndarray,
    b: np.ndarray,
    probe: np.ndarray,
    chi_ref: float | None = None,
) -> OracleCommutator:
    """Evaluate [A, B] by matrix multiplication, in the chi convention.

    Parameters
    ----------
    workspace : OracleWorkspace
        Supplies hbar and the restricted-block size.
    a, b : ndarray
        Matrices to commute.
    probe : ndarray
        Normalized state vector for the expectation value.
    chi_ref : float, optional
        Engine value to compare the restricted block against; when given,
        ``block_dev`` reports max |[A, B]/(i*hbar) - chi_ref*I| over the
        leading (n - buffer) block.
    """
    chi_mat = (a @ b - b @ a) / (1j * workspace.hbar)
    probe_chi = complex(probe.conj() @ (chi_mat @ probe))
    block_dev = None
    if chi_ref is not None:
        r = workspace.config.n - workspace.config.buffer
        block = chi_mat[:r, :r]
        block_dev = float(np.abs(block - chi_ref * np.eye(r)).max())
    return OracleCommutator(probe_chi=probe_chi, block_dev=block_dev)
