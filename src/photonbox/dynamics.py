"""Backward-time Heisenberg propagation of the box and clock observables.

Time runs backward from the final box measurement: t = 0 is the instant the
box is weighed (or located), and t grows toward the earlier moment at which
the photon escaped.  In this convention the equations of motion are

    dq/dt   = p/M,
    dp/dt   = -m*g - V'(q),
    dqcl/dt = 1 - (g/c**2)*q,

with V'(q) = 0 for a freely falling box and V'(q) = k*q for a harmonic
suspension.  The clock variable qcl is kinematic: it has no conjugate
momentum and exerts no back-action on the box.

Because the equations are linear, the propagated operators stay affine in
the initial set {q(0), p(0), qcl(0), 1, m}.  A frame is the (3, 5) array of
their coefficients: rows Q(t), P(t), Qcl(t), columns the coefficients of
q(0), p(0), qcl(0), 1 and m, in the field order of
:class:`~photonbox.operators.OperatorCoeffs`.  A grid of N times gives an
(N, 3, 5) array of frames and an (N, 2) array of the two clock commutators.
The columns of the P/Q axis (:class:`Pair`, :class:`~photonbox.states.Route`)
run P then Q: column 0 is P(t), frame row 1, so ``frames[:, _PQ_ROWS]`` are
their rows and :func:`_column` gives a member's column.  Two independent
routes compute both:

* closed form (:func:`closed_form_grid`, with :func:`evolve_closed` and
  :func:`commutator_closed` as its single-time views): one table over
  cos(w*t) and its integrals, w = sqrt(k/M), so free fall is w = 0; and
* fixed-step classical fourth-order integration (:func:`evolve_numeric_grid`
  and :func:`commutator_ode_grid`), each leg between grid times folded into
  one power of the step map.

A grid is a 1-D array of numbers, and every grid time must be finite and
>= 0; the integrated routes and the oracle also need the grid ascending,
which their shared leg loop :func:`_rk4_grid` checks.
The first fault in grid order names the InvalidTime error; an int past the
float range reads as the infinity of its sign.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidStep, InvalidTime, _require, _require_type
from .operators import BoxParams, PhysConstants

__all__ = [
    "Pair",
    "NumericOptions",
    "closed_form_grid",
    "evolve_closed",
    "evolve_numeric_grid",
    "commutator_closed",
    "commutator_ode_grid",
]


class Pair(enum.Enum):
    """Which clock commutator to evaluate."""

    P_QCL = "p_qcl"
    Q_QCL = "q_qcl"


# Row and column names of a (3, 5) frame coefficient block, in array order;
# the numeric route uses the same slots.
_OPERATORS = ("Q", "P", "Qcl")
_COEFFS = ("a_q", "a_p", "a_cl", "a_1", "a_m")
_FRAME_NAMES = [f"{op}.{c}" for op in _OPERATORS for c in _COEFFS]
_CHI_NAMES = [f"chi_{pair.value}" for pair in Pair]
_SLOT_ONE = 3
_SLOT_M = 4
_PQ_ROWS = slice(1, None, -1)


def _column(kind: type[enum.Enum], value: enum.Enum) -> int:
    """The P/Q column of ``value``, a member of ``kind``; anything else raises ConfigError."""
    if not isinstance(value, kind):  # only a miss pays for the guard call
        _require_type(ConfigError, kind.__name__.lower(), value, kind, f"a {kind.__name__}")
    return kind._member_names_.index(value._name_)


@dataclass(frozen=True)
class NumericOptions:
    """Settings for the fixed-step fourth-order integrator.

    ``step`` is an upper bound on the step size; each integration interval
    is divided evenly so the last node lands exactly on the target time.
    """

    step: float = 1e-3

    def __post_init__(self) -> None:
        _require(InvalidStep, "step", self.step, 0, strict=True)


def _float(x) -> float:
    """``x`` as a float, an int past the float range as the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _times(ts: Sequence[float] | np.ndarray | float, ascending: bool = False) -> np.ndarray:
    """``ts`` as a float array held to the time contract above, ascending if asked."""
    t = None
    try:
        t = np.asarray(ts)
        if t.ndim == 1 and t.dtype == object:  # Python objects, such as an int past the float range
            t = np.array([_float(x) for x in t])
        elif t.ndim == 1 and t.dtype.kind in "biuf":  # bools or numbers
            t = t.astype(float, copy=False)
    except (TypeError, ValueError):  # a ragged nesting, or an entry that is not a number
        pass
    if t is None or t.ndim != 1 or t.dtype != float:
        shape = "a ragged nesting" if t is None else f"shape {t.shape} of {t.dtype}"
        raise InvalidTime(f"a time grid must be a 1-D array of numbers, got {shape}")
    fault = ~(np.isfinite(t) & (t >= 0))
    if ascending:
        fault[1:] |= t[1:] < t[:-1]
    if fault.any():  # the first fault names the error; a bad time that descends is bad
        first = float(t.flat[np.argmax(fault)])
        if math.isfinite(first) and first >= 0:
            raise InvalidTime("grid times must be sorted ascending")
        raise InvalidTime(f"elapsed time must be finite and >= 0, got {first!r}")
    return t


def _check_finite(ts: np.ndarray, frames: np.ndarray, chis: np.ndarray) -> None:
    """Raise InvalidTime naming the first non-finite coefficient and its t."""
    if math.isfinite(frames.sum() + chis.sum()):
        return  # the sum of finite values may still overflow; then look closer
    for values, names in ((frames.reshape(len(ts), -1), _FRAME_NAMES), (chis, _CHI_NAMES)):
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvalidTime(
                f"closed-form {names[j]} is not finite at t={float(ts[i])!r}: "
                f"got {float(values[i, j])!r}"
            )


_SERIES_X = 0.25
_SERIES = (1.0 / 6652800.0, -1.0 / 60480.0, 1.0 / 840.0, -1.0 / 20.0, 1.0)


def _kernels(w: float, t: np.ndarray) -> tuple[np.ndarray | float, ...]:
    """cos(wt) and its three integrals over t, each free of cancellation.

    Returns cos(wt), sin(wt)/w, (1 - cos(wt))/w**2 as 2*(sin(wt/2)/w)**2, and
    (t - sin(wt)/w)/w**2.  Below wt = ``_SERIES_X`` that subtraction would
    lose over 1e-14 relative, so the last is then t**3/6 times the series
    ``_SERIES`` of 6*(x - sin x)/x**3 in x**2 (highest power first), which
    truncates below 1e-15 there.  At w = 0 the four are their limits 1, t,
    t**2/2 and t**3/6, the free-fall kernels.
    """
    if w == 0.0:
        return 1.0, t, t * t / 2.0, t * t * t / 6.0
    x = w * t
    s = np.sin(x) / w
    h = np.sin(0.5 * x) / w
    d = (t - s) / (w * w)
    small = x < _SERIES_X
    if small.any():
        d = np.where(small, t * t * t / 6.0 * np.polyval(_SERIES, x * x), d)
    return np.cos(x), s, 2.0 * h * h, d


def closed_form_grid(
    consts: PhysConstants, box: BoxParams, ts: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form frames and clock commutators on a grid of backward times.

    Parameters
    ----------
    consts : PhysConstants
        Physical constants.
    box : BoxParams
        Box mass, photon mass, and suspension potential.
    ts : array_like of float
        Elapsed backward times, each finite and >= 0.

    Returns
    -------
    frames : ndarray, shape (N, 3, 5)
        Rows Q(t), P(t), Qcl(t); columns the coefficients of q(0), p(0),
        qcl(0), 1 and m.  At t = 0 the frame is the identity.
    chis : ndarray, shape (N, 2)
        chi of [P(t), Qcl(t)] and of [Q(t), Qcl(t)].  Both vanish at t = 0
        and grow with the elapsed time; for the harmonic suspension they
        oscillate and return to zero at every full period of the box.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or if a coefficient or
        commutator overflows; the message names it and the first t at
        which it is not finite.
    """
    t = _times(ts)
    g = consts.g
    c2 = consts.c * consts.c
    M = box.M
    frames = np.zeros((len(t), 3, 5))
    chis = np.empty((len(t), 2))
    Q, P, Qcl = frames.transpose(1, 2, 0)  # rows as (5, N) views: Q[j] is column j
    with np.errstate(all="ignore"):
        cw, s, c, d = _kernels(box.omega, t)
        Q[0], Q[1], Q[4] = cw, s / M, -g * c / M
        P[0], P[1], P[4] = -box.spring_k * s, cw, -g * s
        Qcl[0], Qcl[1], Qcl[2], Qcl[3] = -(g / c2) * s, -(g / c2) * c / M, 1.0, t
        Qcl[4] = g * g * d / (M * c2)
        chis[:, 0], chis[:, 1] = g * s / c2, g * c / (M * c2)
        _check_finite(t, frames, chis)
    return frames, chis


def evolve_closed(consts: PhysConstants, box: BoxParams, t: float) -> np.ndarray:
    """Closed-form Heisenberg frame at backward time t.

    The single-time case of :func:`closed_form_grid`.

    Parameters
    ----------
    consts : PhysConstants
        Physical constants.
    box : BoxParams
        Box mass, photon mass, and suspension potential.
    t : float
        Elapsed backward time, >= 0.

    Returns
    -------
    ndarray, shape (3, 5)
        Q(t), P(t), Qcl(t) as affine combinations of the initial set, laid
        out as one frame of :func:`closed_form_grid`.  At t = 0 the frame
        is the identity.
    """
    frames, _ = closed_form_grid(consts, box, [t])
    return frames[0]


def commutator_closed(
    pair: Pair, consts: PhysConstants, box: BoxParams, t: float
) -> float:
    """Closed-form clock commutator at backward time t.

    The single-time case of :func:`closed_form_grid`.

    Parameters
    ----------
    pair : Pair
        P_QCL for [P(t), Qcl(t)], Q_QCL for [Q(t), Qcl(t)].
    consts, box, t
        As in :func:`evolve_closed`.

    Returns
    -------
    float
        chi with [X(t), Qcl(t)] = i*hbar*chi.
    """
    _, chis = closed_form_grid(consts, box, [t])
    return float(chis[0, _column(Pair, pair)])


# =============================================================================
# numeric route
# =============================================================================
#
# Both coefficient systems, and the oracle's matrix equations of motion
# (photonbox.oracle), are linear with constant coefficients; with their
# constants carried as state rows of zero derivative, each is homogeneous,
# y' = K y.  The four stages of a classical fourth-order step then combine
# exactly into y <- y + E y, E = hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24, and
# the n equal steps of a leg between grid times into y <- y + F y, with
# I + F = (I + E)^n built by repeated squaring in O(log n) small products,
# so a leg costs about the same at any step.  F is carried as the increment
# over I, (I + E)(I + F) = I + (E + F + EF), so at a small step a stiff
# spring's (h*w)^2/2 is never rounded away against the 1 of I.  A fault in
# _rk4_step is shared by both routes and the oracle: verify shows one as a
# failed check of each (the closed forms share nothing with it).


def _rk4_step(K: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """E, with I + E the fourth-order step of y' = K y over h.

    An h of shape (G, 1, 1) gives a (G, *K.shape) stack, one E per step.
    """
    hk = h * K
    hk2 = hk @ hk
    hk3 = hk2 @ hk
    return hk + hk2 / 2.0 + hk3 / 6.0 + hk3 @ hk / 24.0


def _leg_increment(E: np.ndarray, n: int) -> np.ndarray:
    """F, with I + F = (I + E)**n for n >= 1, never forming I + E; E may be a stack."""
    F = None
    while True:
        if n & 1:
            F = E if F is None else E + F + E @ F
        n >>= 1
        if not n:
            return F
        E = 2.0 * E + E @ E


def _frame_generator(consts: PhysConstants, box: BoxParams) -> np.ndarray:
    """K over the rows (Q, P, Qcl, 1, m) of a frame extended by its constants."""
    g = consts.g
    c2 = consts.c * consts.c
    K = np.zeros((5, 5))
    K[0, 1] = 1.0 / box.M
    K[1, 0] = -box.spring_k
    K[1, _SLOT_M] = -g
    K[2, 0] = -g / c2
    K[2, _SLOT_ONE] = 1.0
    return K


def _chi_generator(consts: PhysConstants, box: BoxParams) -> np.ndarray:
    """K over (chi_p, chi_q, 1)."""
    g_c2 = consts.g / (consts.c * consts.c)
    return np.array([[0.0, -box.spring_k, g_c2], [1.0 / box.M, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _leg_steps(step: float, t0: float, t1: float, label: str) -> int:
    """The fewest equal steps, each no longer than ``step``, that span [t0, t1]."""
    ratio = (t1 - t0) / step
    if not math.isfinite(ratio):
        raise InvalidStep(
            f"{label} {step!r} is too small for the leg from t={t0!r} to t={t1!r}:"
            " its step count overflows"
        )
    return max(1, math.ceil(ratio - 1e-12))


def _rk4_grid(
    K: np.ndarray, y0: np.ndarray, ts: Sequence[float], step: float, label: str
) -> np.ndarray:
    """Integrate y' = K y from y0 at t = 0 across an ascending grid ``ts``.

    This is the one place where an integrated route, numeric or oracle,
    checks its grid: :func:`_times` holds ``ts`` to the time contract and
    requires it ascending before any leg's step count is taken.

    Returns shape (len(ts), *y0.shape): y at each grid time.  Each leg between
    consecutive grid times takes n equal steps no longer than ``step``,
    applied at once as y + F y with I + F the n-th power of the one-step map
    (see the comment above :func:`_rk4_step`).  There is one map per distinct
    leg length, and the maps that share a step count n are built as one
    stack, so a uniform grid, whose leg lengths differ only in their last
    bits, takes one stacked build.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or the grid is not ascending.
    InvalidStep
        If a leg's step count overflows a float; the message names ``label``
        and the first such leg in grid order.
    """
    ts = _times(ts, ascending=True).tolist()
    counts: dict[float, int] = {}  # leg length -> step count, in grid order
    for t_prev, t in zip([0.0, *ts], ts):
        dt = t - t_prev
        if dt > 0 and dt not in counts:
            counts[dt] = _leg_steps(step, t_prev, t, label)
    legs: dict[int, list[float]] = {}
    for dt, n in counts.items():
        legs.setdefault(n, []).append(dt)
    maps: dict[float, np.ndarray] = {}
    for n, dts in legs.items():
        h = np.array([dt / n for dt in dts])[:, None, None]  # a Python int n may pass int64
        maps.update(zip(dts, _leg_increment(_rk4_step(K, h), n)))
    out = np.empty((len(ts), *y0.shape))
    scratch = np.empty(y0.shape)
    y = y0
    for i, (t_prev, t) in enumerate(zip([0.0, *ts], ts)):
        dt = t - t_prev
        if dt > 0:
            maps[dt].dot(y, out=scratch)
            np.add(y, scratch, out=out[i])
        else:
            out[i] = y
        y = out[i]
    return out


def evolve_numeric_grid(
    consts: PhysConstants,
    box: BoxParams,
    ts: Sequence[float],
    opts: NumericOptions = NumericOptions(),
) -> np.ndarray:
    """Numeric Heisenberg frames at an ascending grid of backward times.

    Integrates the coefficient equations

        aQ' = aP/M,    aP' = -g*e_m - k*aQ,    aQcl' = e_1 - (g/c**2)*aQ

    once from the identity frame at t = 0, emitting a frame at each grid
    time.  Each leg between grid times takes equal steps no longer than
    ``opts.step``, applied at once as a power of the one-step map, so a leg
    costs O(log steps) small matrix products.  The result has shape
    (len(ts), 3, 5), laid out like the frames of :func:`closed_form_grid`.
    Free-fall coefficients are cubic polynomials in t, so the result is
    exact there up to rounding; for the harmonic case the global error
    scales as step**4.

    Raises
    ------
    InvalidTime
        If a time is negative or not finite, or the grid is not ascending;
        :func:`_rk4_grid` checks the grid.
    InvalidStep
        If the step is so small that a leg's step count overflows a float.
    """
    K = _frame_generator(consts, box)
    return _rk4_grid(K, np.eye(5), ts, opts.step, "numeric.step")[:, :3]


def commutator_ode_grid(
    consts: PhysConstants,
    box: BoxParams,
    ts: Sequence[float],
    opts: NumericOptions = NumericOptions(),
) -> np.ndarray:
    """Both clock commutators on an ascending time grid, by integration.

    Returns an array of shape (len(ts), 2) holding (chi_p_qcl, chi_q_qcl)
    per grid time, laid out like the commutators of
    :func:`closed_form_grid`, obtained by integrating

        chi_p' = g/c**2 - k*chi_q,    chi_q' = chi_p/M

    from chi_p = chi_q = 0 at t = 0, one leg map per leg as in
    :func:`evolve_numeric_grid`.  Independent of the closed forms; the two
    routes should agree to the integrator's accuracy.

    Raises
    ------
    InvalidTime, InvalidStep
        As in :func:`evolve_numeric_grid`, from the grid check and the leg
        loop of :func:`_rk4_grid`.
    """
    y0 = np.array([0.0, 0.0, 1.0])
    return _rk4_grid(_chi_generator(consts, box), y0, ts, opts.step, "numeric.step")[:, :2]
