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
applies Phi(t) to the initial matrices (q0, p0, 0, I).

The public functions take q0 and p0 in any basis and speak in dense arrays:
a grid of N times gives one (N, 3, n, n) stack of Q, P and Qcl, and a
commutator is the dense matrix [A, B]/(i*hbar), over stacks of any shape.
The scenario-level verification takes the number basis, where q0 and p0
are tridiagonal, so every frame is too and a commutator of two frames has
five diagonals.  It holds them as diagonals, bit for bit the diagonals of
the dense frames, and multiplies them elementwise in real arithmetic in one
fixed order: O(n) work and memory per grid time, and no BLAS call, so its
digits do not depend on the BLAS kernel.  Only this module knows that band
layout.  Away from the truncation corner the commutators must reproduce the
engine's chi values.

Truncation contaminates the last basis states, so all block comparisons
are restricted to the leading (n - buffer) x (n - buffer) block, and the
probe is the vacuum entry [0, 0] of the commutator: the vacuum has no
weight near the edge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import _PQ_ROWS, _rk4_grid
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


# Largest truncation size.  The dense API holds n x n complex matrices of
# 16*n**2 bytes, 64 MiB each at the cap; verify holds diagonals only, about
# 7.5 kB per basis state at its peak.
MAX_N = 2048


@dataclass(frozen=True)
class OracleConfig:
    """Truncation size and edge buffer (integers), length scale, and ODE step.

    ``n`` is capped at :data:`MAX_N`.  A ``verify`` check holds no n x n
    matrix: its frames and commutators are diagonals, so its memory and work
    grow as n.  The dense API holds each n x n complex matrix in 16*n**2
    bytes, 64 MiB at the cap: :func:`build_workspace` two, and
    :func:`oracle_evolve_grid` three per grid time.
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


def _number_bands(config: OracleConfig, consts: PhysConstants) -> np.ndarray:
    """The diagonals of q0, p0 and I in the number basis, self-checked.

    Returns a complex (3, 3, n) array, one (3, n) band per matrix (see
    :func:`_band_product` for the layout).  Each entry is formed by the
    arithmetic :func:`build_workspace` documents, from the operands its dense
    matrix entry has, so the dense q0 and p0 are these bands scattered.

    Raises
    ------
    ConfigError
        If the restricted block of [q0, p0]/(i*hbar) is off the identity by
        more than 1e-10.
    """
    n = config.n
    lower = np.zeros((3, n), complex)
    lower[2, :-1] = np.sqrt(np.arange(1.0, n))  # a, on the superdiagonal
    # a^dag = conj(a)^T: a's entries on the subdiagonal, and, as in the dense
    # conjugate, every imaginary part -0.0.
    raise_op = np.zeros((3, n), complex)
    raise_op[0, 1:] = lower[2, :-1]
    raise_op = raise_op.conj()
    eye = np.zeros((3, n), complex)
    eye[1] = 1.0
    sqrt2 = math.sqrt(2.0)
    # A scale so extreme that hbar/scale overflows fills p0 with inf and nan;
    # the deviation then reads nan, which only `dev <= 1e-10` rejects.
    with np.errstate(all="ignore"):
        q0 = config.scale * (lower + raise_op) / sqrt2
        p0 = (consts.hbar / config.scale) * (lower - raise_op) / (1j * sqrt2)
        ccr = _band_commutator(q0, p0, consts.hbar)
        dev = float(_block_dev(ccr, 1.0, n - config.buffer))
    if not dev <= 1e-10:
        raise ConfigError(
            f"oracle.scale {config.scale!r} leaves the restricted canonical commutator"
            f" off by {dev}"
        )
    return np.stack([q0, p0, eye])


def _band_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The five diagonals of a @ b for tridiagonal a and b, as real and imaginary parts.

    A tridiagonal matrix M is held as its (..., 3, n) diagonals, row by row:
    entry [k, i] is M[i, i + k - 1], and 0 where that column lies outside
    the matrix.  A product of two has five, [k, i] = (a @ b)[i, i + k - 2].
    Each entry sums its three terms in the order of the inner index, in real
    arithmetic, so its bits depend on no BLAS kernel and on no fused
    multiply-add that numpy's complex multiply may use (Golub & Van Loan,
    *Matrix Computations*, 1.2).
    """
    n = a.shape[-1]
    # rows[..., d, k, i] is b[i + d - 1, i + k - 2], b's diagonal k - d in its
    # row i + d - 1, or 0 where that row lies outside.
    rows = np.zeros(b.shape[:-2] + (3, 5, n), complex)
    rows[..., 0, 0:3, 1:] = b[..., :-1]
    rows[..., 1, 1:4, :] = b
    rows[..., 2, 2:5, :-1] = b[..., 1:]
    a = a[..., :, None, :]
    re = a.real * rows.real - a.imag * rows.imag
    im = a.real * rows.imag + a.imag * rows.real
    return (
        re[..., 0, :, :] + re[..., 1, :, :] + re[..., 2, :, :],
        im[..., 0, :, :] + im[..., 1, :, :] + im[..., 2, :, :],
    )


def _band_commutator(a: np.ndarray, b: np.ndarray, hbar: float) -> np.ndarray:
    """[A, B]/(i*hbar) as five diagonals, for tridiagonal A and B as diagonals.

    The banded :func:`oracle_commutator`: A and B are complex (..., 3, n)
    diagonals that broadcast over their leading axes, and the result is a
    complex (..., 5, n) array.
    """
    ab_re, ab_im = _band_product(a, b)
    ba_re, ba_im = _band_product(b, a)
    chi = np.empty(ab_re.shape, complex)
    chi.real = (ab_im - ba_im) / hbar  # [A, B]/(i*hbar) = -i*[A, B]/hbar
    chi.imag = (ba_re - ab_re) / hbar
    return chi


def _block_dev(chi: np.ndarray, ref: float | np.ndarray, r: int) -> np.ndarray:
    """max |chi - ref*I| over the leading r x r block, for chi as five diagonals.

    ``ref`` broadcasts against chi's leading axes; every entry off the five
    diagonals is 0 in both.
    """
    rows = np.arange(r)
    cols = rows + np.arange(-2, 3)[:, None]
    dev = chi[..., :r].copy()
    dev[..., 2, :] -= np.asarray(ref)[..., None]  # chi * I, on the diagonal alone
    return np.abs(dev[..., (cols >= 0) & (cols < r)]).max(axis=-1)


def _dense(bands: np.ndarray) -> np.ndarray:
    """The (..., n, n) matrices of (..., m, n) diagonals centred on the main one."""
    m, n = bands.shape[-2:]
    out = np.zeros(bands.shape[:-2] + (n, n), bands.dtype)
    for k in range(m):
        d = k - m // 2
        rows = np.arange(max(0, -d), min(n, n - d))
        out[..., rows, rows + d] = bands[..., k, rows]
    return out


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
    q0, p0 = _dense(_number_bands(config, consts)[:2])
    return OracleWorkspace(q0=q0, p0=p0, config=config, hbar=consts.hbar)


def _phi(consts: PhysConstants, box: BoxParams, ts: Sequence[float], step: float) -> np.ndarray:
    """Phi(t)'s rows for Q, P, Qcl and columns for q0, p0, I: (len(ts), 3, 3).

    The propagator of the oracle's own 4 x 4 system, integrated once across
    the grid, so a bad grid or step raises here.
    """
    K = np.array(
        [
            [0.0, 1.0 / box.M, 0.0, 0.0],
            [-box.spring_k, 0.0, 0.0, -box.m * consts.g],
            [-consts.g / (consts.c * consts.c), 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    return _rk4_grid(K, np.eye(4), ts, step, "oracle.step")[:, :3, [0, 1, 3]]


def _frames(coeffs: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Each time's (3, 3) block of Phi applied to the (3, ...) initial q0, p0, I.

    In the number basis every real or imaginary part of a frame entry has
    one nonzero term, so the frames of diagonals and of dense matrices agree
    bit for bit on the diagonals.
    """
    return np.tensordot(coeffs, initial, axes=1)


def _clock_devs(
    config: OracleConfig,
    consts: PhysConstants,
    box: BoxParams,
    ts: Sequence[float],
    refs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """How far [P, Qcl] and [Q, Qcl] lie from ``refs`` * I at each grid time.

    ``refs`` is (len(ts), 2), chi of the two pairs.  Returns the largest
    |chi - ref*I| over the restricted block, and the vacuum entry
    chi[0, 0] - ref, each (len(ts), 2).  The frames and commutators are held
    as diagonals in the number basis, so no n x n matrix is formed.

    Raises
    ------
    ConfigError, InvalidTime, InvalidStep
        As :func:`build_workspace` and :func:`oracle_evolve_grid`.
    """
    initial = _number_bands(config, consts)  # its self-check first, as in build_workspace
    bands = _frames(_phi(consts, box, ts, config.step), initial)
    chi = _band_commutator(bands[:, _PQ_ROWS], bands[:, 2:], consts.hbar)
    return _block_dev(chi, refs, config.n - config.buffer), chi[..., 2, 0] - refs


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
    K (Q, P, Qcl, I) with a 4 x 4 K written down in this module, not taken
    from the engine.  Its propagator Phi(t), the 4 x 4 solution of Phi' = K Phi from
    the identity, is integrated once across the grid by
    ``dynamics._rk4_grid``, the numeric route's RK4 leg loop (a leg shorter
    than the step is one step), which also checks the grid.  Each frame is
    Phi(t) applied to the initial matrices (q0, p0, 0, I).  In the number
    basis its diagonals are, bit for bit, the frames that ``verify``
    commutes as diagonals.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or the grid is not ascending.
    InvalidStep
        If the configured step is so small that a leg's step count overflows
        a float.
    """
    n = workspace.config.n
    initial = np.stack([workspace.q0, workspace.p0, np.eye(n)])
    return _frames(_phi(consts, box, ts, workspace.config.step), initial)


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
