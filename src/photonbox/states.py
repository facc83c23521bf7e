"""Gaussian states, uncertainty bounds, and photon energy/arrival inference.

A Gaussian state collects the first and second moments of the fluctuations
of (q, p, qcl).  Propagation is exact: along a (3, 5) frame (see
:mod:`photonbox.dynamics`) the coefficients of q(0), p(0), qcl(0) form a
linear map S, means transport affinely, and the covariance transports as
S Sigma S^T.  On top of that this module implements

* the Robertson bound check dX*dY >= hbar*|chi|/2 for the clock pairs,
* the photon mass spread inferred from a box measurement, dm = dX/|a_m|,
  which converts to the energy spread dE = c**2*dm,
* the arrival-time spread dT, read off as the clock spread at emission,
* post-measurement state preparation at the device precision limit,
* classical mass mixtures and their effect on the propagated moments, and
* an energy/time ratio diagnostic (reported, never asserted).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Pair, _times, closed_form_grid
from .errors import InvalidMixture, InvalidPrecision, InvalidState, NoElapsedTime, _require
from .operators import BoxParams, PhysConstants

__all__ = [
    "Route",
    "Denominator",
    "GaussianState",
    "MassMixture",
    "MassEstimate",
    "BoundCheck",
    "InferenceReport",
    "InferenceGrid",
    "MixtureMoments",
    "TimeEnergyDiagnostic",
    "BOUND_SLACK",
    "DEGENERACY_ATOL",
    "MIN_DEVICE_PRECISION",
    "infer_grid",
    "propagate_state",
    "check_bound",
    "mass_uncertainty",
    "photon_inference",
    "prepare_post_measurement_state",
    "mixture_statistics",
    "time_energy_diagnostic",
]

# Relative slack applied to every bound comparison, so that states which
# saturate an uncertainty relation are not rejected by rounding.
BOUND_SLACK = 1e-9

# Mass coefficients smaller than this (in the engine's dimensionless units)
# count as vanished: the measurement carries no mass information there.
# sin(w*t) evaluated at the floating-point representation of a full period
# is of order 1e-16, so revival rows are flagged while neighbors are not.
DEGENERACY_ATOL = 1e-12

# Device precisions below this are rejected rather than fed into the
# conjugate-spread formula hbar/(2*dx).
MIN_DEVICE_PRECISION = 1e-12


class Route(enum.Enum):
    """Which box observable the final measurement pins down."""

    P = "p"
    Q = "q"


class Denominator(enum.Enum):
    """Denominator choice for the energy/time diagnostic ratio."""

    MEAN_CLOCK = "mean_clock"
    MEAN_CLOCK_RATE = "mean_clock_rate"


def _spreads(sigma: np.ndarray) -> np.ndarray:
    """Standard deviations from the diagonal of one or a stack of covariances."""
    return np.sqrt(np.maximum(np.diagonal(sigma, axis1=-2, axis2=-1), 0.0))


@dataclass(frozen=True)
class GaussianState:
    """First and second moments over (q, p, qcl).

    ``mu`` has shape (3,), ``sigma`` shape (3, 3).  For an initial state
    these refer to the t = 0 operators; a propagated state holds the
    moments of Q(t), P(t), Qcl(t).  Treat instances as read-only.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.shape != (3,):
            raise InvalidState(f"mu must have shape (3,), got {mu.shape}")
        if sigma.shape != (3, 3):
            raise InvalidState(f"sigma must have shape (3, 3), got {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidState("moments must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def spreads(self) -> np.ndarray:
        """Standard deviations (dq, dp, dqcl)."""
        return _spreads(self.sigma)

    def validate(self, hbar: float | None = None) -> None:
        """Check the structural invariants, and quantum validity if hbar given.

        Raises
        ------
        InvalidState
            If sigma is not symmetric positive semidefinite, or (with hbar)
            if the q/p block violates sigma_qq*sigma_pp - sigma_qp**2 >=
            hbar**2/4.
        """
        sigma = self.sigma
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            raise InvalidState("sigma must be symmetric")
        min_eig = float(np.linalg.eigvalsh(sigma).min())
        if min_eig < -1e-10 * scale:
            raise InvalidState(f"sigma must be positive semidefinite, min eig {min_eig}")
        if sigma[2, 2] < 0:
            raise InvalidState("clock variance must be >= 0")
        if hbar is not None:
            subdet = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
            if subdet < (hbar * hbar / 4.0) * (1.0 - 1e-12):
                raise InvalidState(
                    f"q/p uncertainty product below hbar**2/4: {subdet} < {hbar * hbar / 4.0}"
                )


@dataclass(frozen=True)
class MassMixture:
    """Classical mixture of photon masses, as (weight, m) components."""

    components: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), float(m)) for w, m in self.components)
        if not comps:
            raise InvalidMixture("mixture must have at least one component")
        total = 0.0
        for w, m in comps:
            _require(InvalidMixture, "weight", w, 0, strict=True)
            _require(InvalidMixture, "mass", m, 0)
            total += w
        if abs(total - 1.0) > 1e-12:
            raise InvalidMixture(f"weights must sum to 1 within 1e-12, got {total}")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class MassEstimate:
    """Photon mass spread read off from one measured box observable."""

    dm: float
    valid: bool
    degenerate: bool


@dataclass(frozen=True)
class BoundCheck:
    """One Robertson bound comparison for a clock pair."""

    dx: float
    dy: float
    product: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class InferenceReport:
    """Photon energy and arrival-time spreads inferred from one route."""

    route: Route
    t: float
    dm: float
    dE: float
    dT: float
    product: float
    bound: float
    valid: bool
    degenerate: bool

    @property
    def ok(self) -> bool:
        """Whether the energy/time product clears the bound (with slack)."""
        return self.product >= self.bound * (1.0 - BOUND_SLACK)


@dataclass(frozen=True)
class MixtureMoments:
    """Total means and spreads of (Q, P, Qcl) under a mass mixture."""

    mean: np.ndarray
    spread: np.ndarray


@dataclass(frozen=True)
class TimeEnergyDiagnostic:
    """Energy/time ratio diagnostic; reported, never asserted."""

    dH: float
    dqcl: float
    denom: float
    lhs: float
    bound: float


def _propagate(
    frames: np.ndarray, state0: GaussianState, m: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means (..., 3) and covariances (..., 3, 3) of Q, P, Qcl along frames (..., 3, 5).

    ``m`` broadcasts against the means.  A moment that overflows comes out
    inf or nan, without numpy warnings; callers check.
    """
    mu_q, mu_p, mu_cl = state0.mu.tolist()
    a = frames
    S = frames[..., :3]
    with np.errstate(all="ignore"):
        # mean_of(X) for every row X, term by term in mean_of's order
        mu_t = a[..., 0] * mu_q + a[..., 1] * mu_p + a[..., 2] * mu_cl + a[..., 3] + a[..., 4] * m
        sigma_t = S @ state0.sigma @ S.swapaxes(-1, -2)
        sigma_t = 0.5 * (sigma_t + sigma_t.swapaxes(-1, -2))
    return mu_t, sigma_t


def _mass_rule(
    a_m: np.ndarray, dx: np.ndarray, ts: np.ndarray, box: BoxParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dm = dX/|a_m| and the degeneracy flag per entry, the validity flag per t.

    Where |a_m| < DEGENERACY_ATOL the measurement carries no mass
    information: dm is ``inf`` and the row is degenerate.  The harmonic
    analysis is valid for w*t < 0.1*M/m; free fall is always valid.
    """
    coeff = np.abs(a_m)
    degenerate = coeff < DEGENERACY_ATOL
    dm = np.full(np.shape(coeff), math.inf)
    np.divide(dx, coeff, out=dm, where=~degenerate)
    # Free fall has w = 0 and is valid even where 0.1*M underflows to 0.
    valid = (box.omega * ts * box.m < 0.1 * box.M) | (box.omega == 0.0)
    return dm, degenerate, valid


# Array columns of the two inference routes, and of the two clock pairs.
_ROUTES = (Route.P, Route.Q)
_PAIRS = (Pair.P_QCL, Pair.Q_QCL)


@dataclass(frozen=True)
class InferenceGrid:
    """Both inference routes on a grid of emission times, as arrays.

    Route columns are (P, Q) and pair columns (P_QCL, Q_QCL).  ``spreads``
    holds (dq, dp, dqcl); the arrival-time spread is dT = dqcl.  On a
    degenerate entry (no mass information) dm, dE and product are ``inf``.
    The methods give one time's report and bound check as the single-time
    functions return them.
    """

    t: np.ndarray  # (N,)
    frames: np.ndarray  # (N, 3, 5), as from closed_form_grid
    chi: np.ndarray  # (N, 2)
    spreads: np.ndarray  # (N, 3)
    dm: np.ndarray  # (N, 2)
    dE: np.ndarray  # (N, 2)
    product: np.ndarray  # (N, 2)
    degenerate: np.ndarray  # (N, 2)
    valid: np.ndarray  # (N,)
    hbar: float

    def report(self, i: int, route: Route) -> InferenceReport:
        j = _ROUTES.index(route)
        return InferenceReport(
            route=route,
            t=float(self.t[i]),
            dm=float(self.dm[i, j]),
            dE=float(self.dE[i, j]),
            dT=float(self.spreads[i, 2]),
            product=float(self.product[i, j]),
            bound=self.hbar / 2.0,
            valid=bool(self.valid[i]),
            degenerate=bool(self.degenerate[i, j]),
        )

    def check(self, i: int, pair: Pair) -> BoundCheck:
        """:func:`check_bound` for one clock pair at time index i."""
        dq, dp, dqcl = self.spreads[i].tolist()
        dx = dp if pair is Pair.P_QCL else dq
        return _robertson(dx, dqcl, float(self.chi[i, _PAIRS.index(pair)]), self.hbar)


def infer_grid(
    consts: PhysConstants,
    box: BoxParams,
    state0: GaussianState,
    ts: Sequence[float] | np.ndarray,
) -> InferenceGrid:
    """Evaluate frames, commutators, spreads and both routes' inference at once.

    ``state0`` is validated once, against the quantum uncertainty
    invariant.  Every time is propagated by one batched S Sigma S^T, and
    the measured box spread of each route converts into dm = dX/|a_m| and
    dE = c**2*dm, reported next to the product dE*dT and the bound hbar/2.

    Raises
    ------
    InvalidState
        If ``state0`` is invalid, or a propagated moment overflows.
    InvalidTime
        From :func:`~photonbox.dynamics.closed_form_grid`.
    """
    state0.validate(consts.hbar)
    t = np.asarray(ts, dtype=float)
    frames, chi = closed_form_grid(consts, box, t)
    mu, sigma = _propagate(frames, state0, box.m)
    # The means are unused here, but an overflowing mean still raises.
    with np.errstate(all="ignore"):
        all_finite = math.isfinite(mu.sum() + sigma.sum())
    if not all_finite:  # the sum of finite values may still overflow; then look closer
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(sigma).all(axis=(1, 2))
        if not finite.all():
            bad_t = float(t[np.argmin(finite)])
            raise InvalidState(f"propagated moments are not finite at t={bad_t!r}")
    spreads = _spreads(sigma)
    # Route P measures P(t) (row 1, spread dp); route Q measures Q(t) (row 0, dq).
    dm, degenerate, valid = _mass_rule(frames[:, 1::-1, 4], spreads[:, 1::-1], t, box)
    with np.errstate(all="ignore"):
        dE = consts.c * consts.c * dm
        product = dE * spreads[:, 2:]
    dE[degenerate] = math.inf
    product[degenerate] = math.inf
    return InferenceGrid(
        t=t,
        frames=frames,
        chi=chi,
        spreads=spreads,
        dm=dm,
        dE=dE,
        product=product,
        degenerate=degenerate,
        valid=valid,
        hbar=consts.hbar,
    )


def propagate_state(
    frame: np.ndarray,
    state0: GaussianState,
    m: float,
    hbar: float | None = None,
) -> GaussianState:
    """Propagate a t = 0 Gaussian state along a Heisenberg frame.

    Parameters
    ----------
    frame : ndarray, shape (3, 5)
        Frame at the target backward time, as from
        :func:`~photonbox.dynamics.evolve_closed`.
    state0 : GaussianState
        Moments of the initial operators.
    m : float
        Photon mass for the mean transport (variances do not depend on it).
    hbar : float, optional
        When given, the initial state must also satisfy the quantum
        uncertainty invariant.

    Returns
    -------
    GaussianState
        Moments of Q(t), P(t), Qcl(t): mu_X = mean_of(X) and
        Sigma(t) = S Sigma(0) S^T with S the frame's first three columns.

    Raises
    ------
    InvalidState
        If ``state0`` is invalid, or a propagated moment overflows.
    """
    state0.validate(hbar)
    mu_t, sigma_t = _propagate(frame, state0, m)
    return GaussianState(mu=mu_t, sigma=sigma_t)


def check_bound(
    state_t: GaussianState,
    chi: float,
    pair: Pair,
    consts: PhysConstants,
) -> BoundCheck:
    """Robertson bound dX*dY >= hbar*|chi|/2 for one clock pair.

    ``state_t`` must hold the propagated moments at the same time the
    commutator chi was evaluated.  The comparison carries a relative slack of
    ``BOUND_SLACK`` so saturating states pass.
    """
    spreads = state_t.spreads
    dx = float(spreads[1] if pair is Pair.P_QCL else spreads[0])
    return _robertson(dx, float(spreads[2]), chi, consts.hbar)


def _robertson(dx: float, dy: float, chi: float, hbar: float) -> BoundCheck:
    product = dx * dy
    bound = hbar * abs(chi) / 2.0
    return BoundCheck(
        dx=dx,
        dy=dy,
        product=product,
        bound=bound,
        ok=product >= bound * (1.0 - BOUND_SLACK),
    )


def mass_uncertainty(
    frame: np.ndarray,
    t: float,
    route: Route,
    dx: float,
    box: BoxParams,
) -> MassEstimate:
    """Photon mass spread from a measured box spread.

    ``frame`` is the (3, 5) frame at backward time t, as from
    :func:`~photonbox.dynamics.evolve_closed`.  The measured observable X(t)
    carries the photon mass through its a_m coefficient, so a spread dX
    translates into dm = dX/|a_m(X(t))|.  For free fall this reproduces
    dm = dP/(g*t) on the momentum route and dm = 2*M*dQ/(g*t**2) on the
    position route; for the harmonic suspension the same rule yields the
    spring-constant forms with 2*sin(w*t/2)**2 and sin(w*t), which reach
    the free-fall forms as w*t -> 0.

    When |a_m| has vanished (t = 0, or a full period of the suspension)
    the measurement carries no mass information: ``dm`` is returned as
    ``inf`` and ``degenerate`` is set.

    The ``valid`` flag reports the side condition w*t < 0.1*M/m under
    which the harmonic analysis is trustworthy; free fall is always valid.

    Raises
    ------
    InvalidTime
        If t is negative or not finite.
    InvalidPrecision
        If dx is negative or not finite.
    """
    t = _times(t)
    _require(InvalidPrecision, "dx", dx, 0)
    a_m = frame[1 if route is Route.P else 0, 4]  # P(t) or Q(t), coefficient of m
    dm, degenerate, valid = _mass_rule(np.array(a_m), np.array(dx), t, box)
    return MassEstimate(dm=float(dm), valid=bool(valid), degenerate=bool(degenerate))


def photon_inference(
    consts: PhysConstants,
    box: BoxParams,
    state0: GaussianState,
    route: Route,
    t: float,
) -> InferenceReport:
    """Infer the photon energy and arrival-time spreads for one route.

    Propagates the post-measurement state back to the emission time t,
    reads the arrival-time spread off the clock, dT = dQcl(t), converts the
    measured box spread into dm and dE = c**2*dm, and reports the product
    dE*dT next to the bound hbar/2.  On a degenerate frame (no mass
    information) dm, dE, and the product are all ``inf``.  The single-time,
    single-route view of :func:`infer_grid`.
    """
    return infer_grid(consts, box, state0, [t]).report(0, route)


def prepare_post_measurement_state(
    route: Route,
    device_dx: float,
    device_dcl: float,
    consts: PhysConstants,
) -> GaussianState:
    """Gaussian state right after the final box measurement.

    The measured observable is pinned to the device precision and its
    conjugate is spread to the matching minimum-uncertainty width
    hbar/(2*device_dx).  The clock reading is independent of both, with
    spread ``device_dcl``.

    Raises
    ------
    InvalidPrecision
        If device_dx is below ``MIN_DEVICE_PRECISION`` (the conjugate
        spread would diverge) or device_dcl is negative.
    """
    _require(InvalidPrecision, "device_dx", device_dx, MIN_DEVICE_PRECISION)
    _require(InvalidPrecision, "device_dcl", device_dcl, 0)
    conjugate = consts.hbar / (2.0 * device_dx)
    if route is Route.P:
        dq0, dp0 = conjugate, device_dx
    else:
        dq0, dp0 = device_dx, conjugate
    sigma = np.diag([dq0 * dq0, dp0 * dp0, device_dcl * device_dcl])
    return GaussianState(mu=np.zeros(3), sigma=sigma)


def mixture_statistics(
    frame: np.ndarray,
    mixture: MassMixture,
    state0: GaussianState,
) -> MixtureMoments:
    """Total moments of (Q, P, Qcl) under a classical mass mixture.

    ``frame`` is a (3, 5) frame, as from
    :func:`~photonbox.dynamics.evolve_closed`.  Each component shares the
    quantum state but carries its own mass, so the component variances
    coincide and only the component means differ:

        total mean = sum_i w_i mu_i,
        total var  = sum_i w_i (var + mu_i**2) - (total mean)**2.
    """
    state0.validate()
    weights, masses = np.array(mixture.components).T
    mu_i, sigma = _propagate(frame, state0, masses[:, None])  # (K, 3) means, one covariance
    mean = weights @ mu_i
    second = weights @ (np.diagonal(sigma) + mu_i**2)
    var = second - mean**2
    return MixtureMoments(mean=mean, spread=np.sqrt(np.maximum(var, 0.0)))


def time_energy_diagnostic(
    state_t: GaussianState,
    t: float,
    consts: PhysConstants,
    box: BoxParams,
    m: float,
    denominator: Denominator = Denominator.MEAN_CLOCK,
) -> TimeEnergyDiagnostic:
    """Energy/time ratio diagnostic dH*dqcl/denom, reported next to hbar/2.

    ``state_t`` holds the propagated moments at backward time t, as from
    :func:`propagate_state`; t itself only names the time in the error.
    dH is the Gaussian spread of H = p**2/(2M) + m*g*q + V(q) in the
    propagated state, computed from the classical moment formula

        var H = grad^T Sigma grad + tr((A Sigma)**2)/2,

    with grad the gradient and A the Hessian of H at the mean.  The
    denominator is either the mean clock reading (default) or the mean
    clock rate 1 - (g/c**2)*mu_q.  Nothing is asserted about the ratio;
    callers decide what to make of it.

    Raises
    ------
    NoElapsedTime
        If the selected denominator vanishes.
    """
    mu = state_t.mu
    sigma = state_t.sigma
    k = box.spring_k
    grad = np.array([m * consts.g + k * mu[0], mu[1] / box.M, 0.0])
    hess = np.diag([k, 1.0 / box.M, 0.0])
    hs = hess @ sigma
    var_h = float(grad @ sigma @ grad + 0.5 * np.trace(hs @ hs))
    dH = math.sqrt(max(var_h, 0.0))
    dqcl = float(state_t.spreads[2])
    if denominator is Denominator.MEAN_CLOCK:
        denom = float(mu[2])
    else:
        denom = 1.0 - (consts.g / (consts.c * consts.c)) * float(mu[0])
    if denom == 0.0:
        raise NoElapsedTime(f"diagnostic denominator vanishes at t={t}")
    return TimeEnergyDiagnostic(
        dH=dH,
        dqcl=dqcl,
        denom=denom,
        lhs=dH * dqcl / denom,
        bound=consts.hbar / 2.0,
    )
