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
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import _PQ_ROWS, Pair, _column, _times, closed_form_grid
from .errors import ConfigError, InvalidMixture, InvalidPrecision, InvalidState, NoElapsedTime
from .errors import _ANY_FINITE, _require, _require_type
from .operators import BoxParams, PhysConstants

__all__ = [
    "Route",
    "Denominator",
    "GaussianState",
    "MassMixture",
    "MassEstimate",
    "BoundCheck",
    "InferenceReport",
    "MixtureMoments",
    "TimeEnergyDiagnostic",
    "BOUND_SLACK",
    "DEGENERACY_ATOL",
    "MIN_DEVICE_PRECISION",
    "SWEEP_DTYPE",
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


def _clears(product: float, bound: float) -> bool:
    """The verdict of every bound comparison: ``product`` reaches ``bound``, less the slack."""
    return product >= bound * (1.0 - BOUND_SLACK)


# Mass coefficients smaller than this (in the engine's dimensionless units)
# count as vanished: the measurement carries no mass information there.
# sin(w*t) evaluated at the floating-point representation of a full period
# is of order 1e-16, so revival rows are flagged while neighbors are not.
DEGENERACY_ATOL = 1e-12

# Device precisions below this are rejected rather than fed into the
# conjugate-spread formula hbar/(2*dx).
MIN_DEVICE_PRECISION = 1e-12


# One emission time, as infer_grid reports it; the fields are the sweep CSV's columns, in order.
SWEEP_DTYPE = np.dtype(
    [(name, float) for name in (
        "t", "chi_p_qcl", "chi_q_qcl", "dq", "dp", "dqcl", "dm_p", "dm_q",
        "dE_p", "dE_q", "dT", "prod_p", "prod_q", "bound_ET",
    )]
    + [(name, bool) for name in ("valid", "degenerate_p", "degenerate_q")]
)
# The same record as two blocks, its 14 floats and its 3 flags.
_BLOCKS = np.dtype([("floats", float, (14,)), ("flags", bool, (3,))])


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
    moments of Q(t), P(t), Qcl(t).  Treat instances as read-only.  Building
    one checks its structure: finite, symmetric PSD, clock variance >= 0.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        try:
            mu = np.asarray(self.mu, dtype=float)
            sigma = np.asarray(self.sigma, dtype=float)
        except (TypeError, ValueError):  # an entry that is not a number, or a ragged nesting
            raise InvalidState("mu and sigma must be arrays of numbers") from None
        if mu.shape != (3,):
            raise InvalidState(f"mu must have shape (3,), got {mu.shape}")
        if sigma.shape != (3, 3):
            raise InvalidState(f"sigma must have shape (3, 3), got {sigma.shape}")
        # The twelve moments as Python floats: their arithmetic overflows to inf without warning.
        q, qp, qc, pq, p, pc, cq, cp, c = entries = sigma.ravel().tolist()
        if not all(map(math.isfinite, mu.tolist() + entries)):
            raise InvalidState("moments must be finite")
        scale = max(1.0, *map(abs, entries))
        if max(abs(qp - pq), abs(qc - cq), abs(pc - cp)) > 1e-10 * scale:
            raise InvalidState("sigma must be symmetric")
        if qp or qc or pq or pc or cq or cp:  # coupled
            min_eig = float(np.linalg.eigvalsh(sigma).min())
        else:  # diagonal: its eigenvalues are its entries
            min_eig = min(q, p, c)
        if min_eig < -1e-10 * scale:
            raise InvalidState(f"sigma must be positive semidefinite, min eig {min_eig}")
        if c < 0:
            raise InvalidState("clock variance must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def spreads(self) -> np.ndarray:
        """Standard deviations (dq, dp, dqcl)."""
        return _spreads(self.sigma)

    def validate(self, hbar: float | None = None) -> None:
        """Check the q/p block against hbar, if given; the structure was checked when built.

        Raises
        ------
        InvalidState
            If sigma_qq*sigma_pp - sigma_qp**2 < hbar**2/4 (relative slack 1e-12),
            compared through its square root dq*dp*sqrt(1 - r**2), which cannot overflow.
        """
        if hbar is not None:
            (q, qp), (_, p) = self.sigma[:2, :2].tolist()
            dqdp = math.sqrt(max(q, 0.0)) * math.sqrt(max(p, 0.0))
            root = dqdp * math.sqrt(1.0 - min(abs(qp) / dqdp, 1.0) ** 2) if dqdp else 0.0
            if root < hbar / 2.0 * (1.0 - 5e-13):  # the determinant's slack 1e-12, square-rooted
                raise InvalidState(
                    f"q/p uncertainty product below hbar**2/4: {root * root} < {hbar * hbar / 4}"
                )


@dataclass(frozen=True)
class MassMixture:
    """Classical mixture of photon masses, as (weight, m) components."""

    components: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        try:
            pairs = [(w, m) for w, m in self.components]
        except (TypeError, ValueError):  # not an iterable of pairs
            raise InvalidMixture(
                f"components must be (weight, mass) pairs, got {self.components!r}"
            ) from None
        comps = []
        for w, m in pairs:  # guarded before float() can read a string
            _require(InvalidMixture, "weight", w, 0, strict=True)
            _require(InvalidMixture, "mass", m, 0)
            comps.append((float(w), float(m)))
        if not comps:
            raise InvalidMixture("mixture must have at least one component")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise InvalidMixture(f"weights must sum to 1 within 1e-12, got {total}")
        object.__setattr__(self, "components", tuple(comps))


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
    ok: bool = field(init=False)  # set from the others: the product clears the bound (with slack)
    valid: bool
    degenerate: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", _clears(self.product, self.bound))


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


def _covariance(frame: np.ndarray, sigma0: np.ndarray) -> np.ndarray:
    """Covariance S Sigma S^T (3, 3) of Q, P, Qcl along one frame (3, 5).

    The whole matrix, for :func:`propagate_state` and :func:`mixture_statistics`;
    :func:`infer_grid` reads only its diagonal, from :func:`_grid_spreads`.
    An entry that overflows raises InvalidState, without numpy warnings.
    """
    S = frame[:, :3]
    with np.errstate(all="ignore"):
        sigma_t = S @ sigma0 @ S.T
        sigma_t = 0.5 * (sigma_t + sigma_t.T)
    if not np.isfinite(sigma_t).all():
        raise InvalidState("propagated moments are not finite")
    return sigma_t


def _grid_spreads(frames: np.ndarray, sigma0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Spreads (N, 3) of Q, P, Qcl along frames (N, 3, 5): the root diagonal of S Sigma S^T.

    var_X = sum_j (sum_k S_Xk*Sigma_kj)*S_Xj, elementwise in that order with no
    BLAS, as a kernel without fused multiply-adds rounds the stacked product.
    Wherever 2*var overflows, as (Sigma + Sigma^T)/2 would, raises InvalidState
    naming the first such t in ``ts``.  Call it with numpy's warnings off.
    """
    cols = frames[:, :, :3].T.copy()  # cols[k][X] is S_Xk at every time
    sigma = sigma0.tolist()
    # At one time (run) each numpy call costs more than its arithmetic, so the
    # terms are summed in place, under the caller's errstate.
    var = None
    for j in range(3):
        u = None
        for k in range(3):
            if sigma[k][j]:  # a term whose Sigma entry is 0 is exactly 0, as S is finite
                term = cols[k] * sigma[k][j]
                if u is None:
                    u = term
                else:
                    u += term
        if u is not None:
            u *= cols[j]
            if var is None:
                var = u
            else:
                var += u
    if var is None:  # Sigma is 0, and so is every variance
        var = np.zeros_like(cols[0])
    twice = var + var  # (Sigma + Sigma^T)/2 overflows exactly where this does
    if not math.isfinite(twice.sum()):  # the sum of finite values may still overflow; then look closer
        finite = np.isfinite(twice).all(axis=0)
        if not finite.all():
            raise InvalidState(f"propagated moments are not finite at t={float(ts[np.argmin(finite)])!r}")
    return np.sqrt(np.maximum(var, 0.0, out=var), out=var).T


def _propagate(
    a: np.ndarray, state0: GaussianState, m: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means of Q, P, Qcl along one frame (3, 5), broadcast over ``m``, and their covariance."""
    mu_q, mu_p, mu_cl = state0.mu.tolist()
    with np.errstate(all="ignore"):  # mean_of(X) for every row X, term by term in mean_of's order
        mu_t = a[..., 0] * mu_q + a[..., 1] * mu_p + a[..., 2] * mu_cl + a[..., 3] + a[..., 4] * m
    if not np.isfinite(mu_t).all():
        raise InvalidState("propagated moments are not finite")
    return mu_t, _covariance(a, state0.sigma)


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


def infer_grid(
    consts: PhysConstants,
    box: BoxParams,
    state0: GaussianState,
    ts: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate frames, commutators, spreads and both routes' inference at once.

    ``state0`` is checked once, against the quantum uncertainty invariant.
    Only the variances move to every time, as the diagonal of S Sigma S^T
    summed elementwise in one fixed order, with no BLAS call, so their
    digits do not depend on the BLAS kernel (nothing here reads a mean or a
    covariance).  The measured box spread of each route converts into
    dm = dX/|a_m| and dE = c**2*dm, next to the product dE*dT and the bound
    hbar/2.  Returns the (N, 3, 5) frames and one read-only ``SWEEP_DTYPE``
    record per time; a degenerate entry (no mass information) has inf dm,
    dE and product.

    Raises
    ------
    InvalidState
        If ``state0`` breaks that invariant, or twice a propagated variance
        overflows; the message names the first such t.
    InvalidTime
        From :func:`~photonbox.dynamics.closed_form_grid`.
    """
    state0.validate(consts.hbar)
    frames, chi = closed_form_grid(consts, box, ts)
    t = np.asarray(ts, dtype=float)  # a grid closed_form_grid has checked
    with np.errstate(all="ignore"):  # variances, dm, dE, the product and w*t*m may overflow to inf
        spreads = _grid_spreads(frames, state0.sigma, t)
        dm, degenerate, valid = _mass_rule(frames[:, _PQ_ROWS, 4], spreads[:, _PQ_ROWS], t, box)
        dE = consts.c * consts.c * dm
        product = dE * spreads[:, 2:]
    product[degenerate] = math.inf  # inf*0 is nan where dT = 0
    rows = np.empty(len(t), SWEEP_DTYPE)
    floats, flags = (rows.view(_BLOCKS)[block] for block in _BLOCKS.names)
    floats[:, 0], floats[:, 1:3], floats[:, 3:6] = t, chi, spreads  # in SWEEP_DTYPE's order
    floats[:, 6:8], floats[:, 8:10], floats[:, 10] = dm, dE, spreads[:, 2]
    floats[:, 11:13], floats[:, 13] = product, consts.hbar / 2.0
    flags[:, 0], flags[:, 1:] = valid, degenerate
    rows.flags.writeable = False
    return frames, rows


# The record fields of an InferenceReport after its route, for each route.
_REPORT_FIELDS = {
    route: operator.itemgetter(*(
        SWEEP_DTYPE.names.index(name.format(route.value))
        for name in ("t", "dm_{}", "dE_{}", "dT", "prod_{}", "bound_ET", "valid", "degenerate_{}")
    ))
    for route in Route
}


def _report(row: tuple, route: Route) -> InferenceReport:
    """One route's report from one ``SWEEP_DTYPE`` record, as ``rows[i].item()`` gives it."""
    _column(Route, route)  # refuses anything but a Route
    return InferenceReport(route, *_REPORT_FIELDS[route](row))


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
        Photon mass for the mean transport (variances do not depend on it),
        finite and >= 0.
    hbar : float, optional
        When given, the initial state must also satisfy the quantum
        uncertainty invariant (see :meth:`GaussianState.validate`).

    Returns
    -------
    GaussianState
        Moments of Q(t), P(t), Qcl(t): mu_X = mean_of(X) and
        Sigma(t) = S Sigma(0) S^T with S the frame's first three columns.

    Raises
    ------
    ConfigError
        If ``m`` is not a finite number >= 0.
    InvalidState
        If ``state0`` breaks that invariant, or a propagated moment overflows.
    """
    _require(ConfigError, "m", m, 0)
    state0.validate(hbar)
    return GaussianState(*_propagate(frame, state0, m))


def check_bound(
    state_t: GaussianState,
    chi: float,
    pair: Pair,
    consts: PhysConstants,
) -> BoundCheck:
    """Robertson bound dX*dY >= hbar*|chi|/2 for one clock pair.

    ``state_t`` must hold the propagated moments at the same time the
    commutator chi was evaluated, and chi must be a finite number, or
    ConfigError.  The comparison carries a relative slack of ``BOUND_SLACK``
    so saturating states pass.
    """
    _require(ConfigError, "chi", chi, _ANY_FINITE)
    spreads = state_t.spreads
    dx = float(spreads[_PQ_ROWS][_column(Pair, pair)])
    return _robertson(dx, float(spreads[2]), chi, consts.hbar)


def _robertson(dx: float, dy: float, chi: float, hbar: float) -> BoundCheck:
    product = dx * dy
    bound = hbar * abs(chi) / 2.0
    return BoundCheck(
        dx=dx,
        dy=dy,
        product=product,
        bound=bound,
        ok=_clears(product, bound),
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
    t = _times([t])[0]
    _require(InvalidPrecision, "dx", dx, 0)
    a_m = frame[_PQ_ROWS, 4][_column(Route, route)]  # of the row the route measures
    with np.errstate(all="ignore"):  # dm and w*t*m may overflow to inf
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
    return _report(infer_grid(consts, box, state0, [t])[1][0].item(), route)


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
    dq0, dp0 = consts.hbar / (2.0 * device_dx), device_dx  # route P pins p
    if _column(Route, route):  # route Q pins q
        dq0, dp0 = dp0, dq0
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
    coincide and only the component means differ (InvalidState if a moment overflows):

        total mean = sum_i w_i mu_i,
        total var  = var + sum_i w_i (mu_i - total mean)**2, centered so as not to cancel.
    """
    weights, masses = np.array(mixture.components).T
    mu_i, sigma = _propagate(frame, state0, masses[:, None])  # (K, 3) means, one covariance
    with np.errstate(all="ignore"):
        mean = weights @ mu_i
        var = np.diagonal(sigma) + weights @ (mu_i - mean) ** 2
    if not np.isfinite(var).all():
        raise InvalidState("propagated moments are not finite")
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
    :func:`propagate_state`; t itself only names the time in the errors.
    dH is the Gaussian spread of H = p**2/(2M) + m*g*q + V(q) in the
    propagated state, computed from the classical moment formula

        var H = grad^T Sigma grad + tr((A Sigma)**2)/2,

    with grad the gradient and A the Hessian of H at the mean.  The
    denominator is either the mean clock reading (default) or the mean
    clock rate 1 - (g/c**2)*mu_q.  Nothing is asserted about the ratio;
    callers decide what to make of it.

    Raises
    ------
    ConfigError, NoElapsedTime, InvalidState
        If ``denominator`` is not a :class:`Denominator` or ``m`` not a finite number >= 0,
        or the denominator vanishes, or var H overflows.
    """
    _require_type(ConfigError, "denominator", denominator, Denominator, "a Denominator")
    _require(ConfigError, "m", m, 0)
    mu, sigma = state_t.mu, state_t.sigma
    k = box.spring_k
    with np.errstate(all="ignore"):
        grad = np.array([m * consts.g + k * mu[0], mu[1] / box.M, 0.0])
        hess = np.diag([k, 1.0 / box.M, 0.0])
        hs = hess @ sigma
        var_h = float(grad @ sigma @ grad + 0.5 * np.trace(hs @ hs))
    if not math.isfinite(var_h):
        raise InvalidState(f"energy variance is not finite at t={t}")
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
