"""Independent truncated-Fock-basis check of the commutator engine.

The coefficient engine never touches a Hilbert space; this module does, on
purpose.  It builds explicit position and momentum matrices from ladder
operators in a truncated number basis, integrates the same backward-time
equations of motion, the clock matrix's among them, as honest matrix ODEs,
and evaluates commutators by actual matrix multiplication.  The equations
of motion are linear with scalar coefficients, so the oracle writes them
down itself as one 4 x 4 homogeneous system over (Q, P, Qcl, I), integrates
its propagator Phi(t) from the identity with the numeric coefficient route's
leg loop, one power of the one-step map per leg between grid times, and
applies Phi(t) to the initial matrices (q0, p0, 0, I).  Like the engine,
the oracle speaks in arrays: a grid of N times gives one dense (N, 3, n, n)
stack of Q, P and Qcl, and a commutator is the dense matrix [A, B]/(i*hbar),
over stacks of any shape.  Away from the truncation corner these matrices
must reproduce the engine's chi values, which is what the scenario-level
verification uses; it takes the same frames one grid time at a time, so it
never holds the stack.

Truncation contaminates the last basis states, so all block comparisons
are restricted to the leading (n - buffer) x (n - buffer) block, and the
probe is the vacuum entry [0, 0] of the commutator stack: the vacuum has
no weight near the edge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dynamics import _rk4_grid
from .errors import ConfigError, _require, _require_type
from .operators import BoxParams, PhysConstants

__all__ = [
    "OracleConfig",
    "OracleWorkspace",
    "build_workspace",
    "oracle_evolve",
    "oracle_evolve_grid",
    "oracle_commutator",
]


MAX_N = 2048


@dataclass(frozen=True)
class OracleConfig:
    """Truncation size and edge buffer (integers), length scale, and ODE step.

    ``n`` is capped at :data:`MAX_N`: each n x n complex matrix takes 16*n**2
    bytes, 64 MiB at the cap.  A ``verify`` check holds about 14 at its peak,
    since it forms each grid time's frame only when it commutes that time:
    the workspace's q0 and p0, the (3, n, n) basis the frames are formed
    from, one time's frame, its two commutators with their product
    temporary, and the last time's two until they are replaced.
    """

    n: int = 60
    buffer: int = 8
    scale: float = 1.0
    step: float = 1e-3

    def __post_init__(self) -> None:
        _require(ConfigError, "n", self.n, 16, MAX_N)
        _require(ConfigError, "buffer", self.buffer, 1)
        if self.n <= 2 * self.buffer:
            raise ConfigError(f"n must exceed 2*buffer, got n={self.n}, buffer={self.buffer}")
        _require(ConfigError, "scale", self.scale, 0, strict=True)
        _require(ConfigError, "step", self.step, 0, strict=True)
        _require_type(ConfigError, "n", self.n, numbers.Integral, "an integer")
        _require_type(ConfigError, "buffer", self.buffer, numbers.Integral, "an integer")


@dataclass(frozen=True)
class OracleWorkspace:
    """Position/momentum matrices and their configuration."""

    q0: np.ndarray
    p0: np.ndarray
    config: OracleConfig
    hbar: float


def build_workspace(config: OracleConfig, consts: PhysConstants) -> OracleWorkspace:
    """Build the position and momentum matrices from ladder operators.

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
    r = n - config.buffer
    # A scale so extreme that hbar/scale overflows fills P0 with inf and nan;
    # the deviation then reads nan, which only `dev <= 1e-10` rejects.
    with np.errstate(all="ignore"):
        q0 = config.scale * (lower + raise_op) / sqrt2
        p0 = (consts.hbar / config.scale) * (lower - raise_op) / (1j * sqrt2)
        ccr = (q0 @ p0 - p0 @ q0) / (1j * consts.hbar)
        dev = float(np.abs(ccr[:r, :r] - np.eye(r)).max())
    if not dev <= 1e-10:
        raise ConfigError(
            f"oracle.scale {config.scale!r} leaves the restricted canonical commutator"
            f" off by {dev}"
        )
    return OracleWorkspace(q0=q0, p0=p0, config=config, hbar=consts.hbar)


def _oracle_frames(
    workspace: OracleWorkspace, consts: PhysConstants, box: BoxParams, ts: Sequence[float]
) -> Iterator[np.ndarray]:
    """The (3, n, n) frames of :func:`oracle_evolve_grid`, one grid time at a time.

    Phi is integrated across the whole grid when this is called, so a bad
    grid or step raises here.  Each frame is formed only when the iterator
    reaches its time, so a caller that takes them in turn, as ``verify``
    does, holds one time's frame, not the (len(ts), 3, n, n) stack.
    """
    K = np.array(
        [
            [0.0, 1.0 / box.M, 0.0, 0.0],
            [-box.spring_k, 0.0, 0.0, -box.m * consts.g],
            [-consts.g / (consts.c * consts.c), 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    phi = _rk4_grid(K, np.eye(4), ts, workspace.config.step, "oracle.step")
    # One (3, 3) x (3, n*n) product per time, the operands that
    # np.tensordot(..., axes=1) hands to np.dot, without its per-call setup.
    basis = np.stack([workspace.q0, workspace.p0, np.eye(workspace.config.n)]).reshape(3, -1)
    return (np.dot(f[:3, [0, 1, 3]], basis).reshape(3, *workspace.q0.shape) for f in phi)


def oracle_evolve_grid(
    workspace: OracleWorkspace,
    consts: PhysConstants,
    box: BoxParams,
    ts: Sequence[float],
) -> np.ndarray:
    """Matrix frames at an ascending grid of backward times, in one pass.

    Returns a complex array of shape (len(ts), 3, n, n): the matrices Q(t),
    P(t) and Qcl(t) at each grid time, in the row order of
    :func:`~photonbox.dynamics.closed_form_grid`'s frames.  An empty grid
    gives a (0, 3, n, n) array.

    The matrices follow

        dQ/dt = P/M,    dP/dt = -m*g*I - k*Q,    dQcl/dt = I - (g/c**2)*Q,

    from q0, p0 and Qcl = 0 at t = 0: with the constant I carried as a fourth
    matrix of zero derivative, one homogeneous system (Q, P, Qcl, I)' =
    K (Q, P, Qcl, I) with a 4 x 4 K written down here, not taken from the
    engine.  Its propagator Phi(t), the 4 x 4 solution of Phi' = K Phi from
    the identity, is integrated once across the grid by
    ``dynamics._rk4_grid``, the numeric route's RK4 leg loop (a leg shorter
    than the step is one step), which also checks the grid.  Each frame is
    Phi(t) applied to the initial matrices (q0, p0, 0, I), and this stack
    holds the frames that ``verify`` forms and commutes one time at a time.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or the grid is not ascending.
    InvalidStep
        If the configured step is so small that a leg's step count overflows
        a float.
    """
    n = workspace.config.n
    return np.fromiter(_oracle_frames(workspace, consts, box, ts), np.dtype((complex, (3, n, n))))


def oracle_evolve(
    workspace: OracleWorkspace,
    consts: PhysConstants,
    box: BoxParams,
    t: float,
) -> np.ndarray:
    """Integrate the matrix equations of motion to backward time t.

    The single-time view of :func:`oracle_evolve_grid`: one (3, n, n) frame
    of Q, P and Qcl.  At t = 0 it holds the initial matrices and a zero
    clock matrix.

    Raises
    ------
    InvalidTime, InvalidStep
        As in :func:`oracle_evolve_grid`.
    """
    return oracle_evolve_grid(workspace, consts, box, [t])[0]


def oracle_commutator(workspace: OracleWorkspace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chi matrix [A, B]/(i*hbar), by matrix multiplication.

    ``a`` and ``b`` are matrices or stacks of them, broadcast as by
    ``np.matmul``; for an exact canonical pair the result is the engine's
    real chi times the identity.  ``workspace`` supplies hbar.
    """
    chi = (a @ b).astype(complex, copy=False)
    chi -= b @ a
    chi /= 1j * workspace.hbar
    return chi
