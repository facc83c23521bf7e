"""A 50-digit reference for the engine's fourth-order integration.

The numeric route and the oracle integrate y' = K y from t = 0 across an
ascending grid.  Each leg between grid times takes the fewest equal steps no
longer than the step, n = max(1, ceil(dt/step - 1e-12)) on the float leg
length dt, and each step applies R = I + hK + (hK)**2/2 + (hK)**3/6 +
(hK)**4/24 with h = dt/n.  This module applies the same R**n, formed by
repeated squaring, in 50-digit decimals: the engine's integration without
its rounding, so the two differ by float rounding alone, while both carry
RK4's truncation error.

K is written here from the scenario's numbers: over (q, p, qcl, 1, m) for
the frames, and over (chi_p, chi_q, 1) for the clock commutators.  The
oracle's propagator Phi is the frame system on its invariant columns q, p,
qcl and 1 + m*e_m: with the photon mass a number, the constant I carries the
m*g force, so K restricted to them is the oracle's 4 x 4 system.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

DIGITS = 50


def decimal_array(values):
    """An array of floats as an object array of the Decimals they are exactly."""
    values = np.asarray(values, dtype=float)
    return np.array([Decimal(x) for x in values.flat], dtype=object).reshape(values.shape)


def frame_generator(consts, box):
    """K over (q, p, qcl, 1, m): q' = p/M, p' = -k*q - g*m, qcl' = 1 - (g/c**2)*q."""
    g, c, M, k = decimal_array([consts.g, consts.c, box.M, box.spring_k])
    K = decimal_array(np.zeros((5, 5)))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        K[0, 1] = 1 / M
        K[1, 0] = -k
        K[1, 4] = -g
        K[2, 0] = -g / (c * c)
        K[2, 3] = Decimal(1)
    return K


def chi_generator(consts, box):
    """K over (chi_p, chi_q, 1): chi_p' = g/c**2 - k*chi_q, chi_q' = chi_p/M."""
    g, c, M, k = decimal_array([consts.g, consts.c, box.M, box.spring_k])
    K = decimal_array(np.zeros((3, 3)))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        K[0, 1] = -k
        K[0, 2] = g / (c * c)
        K[1, 0] = 1 / M
    return K


def rk4_grid(K, y0, ts, step):
    """y at each time of ``ts``, an object array (len(ts), *y0.shape) of Decimals.

    ``y0`` (floats) is y at t = 0.  A leg's map R**n is built once per leg
    length.
    """
    y = decimal_array(y0)
    eye = decimal_array(np.eye(len(K)))
    maps, out, t_prev = {}, [], 0.0
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for t in map(float, ts):
            dt = t - t_prev
            if dt > 0:
                if dt not in maps:
                    n = max(1, math.ceil(dt / step - 1e-12))
                    hK = K * (Decimal(dt) / n)
                    hK2 = hK.dot(hK)
                    hK3 = hK2.dot(hK)
                    R = eye + hK + hK2 / 2 + hK3 / 6 + hK3.dot(hK) / 24
                    maps[dt] = np.linalg.matrix_power(R, n)  # by repeated squaring
                y = maps[dt].dot(y)
            out.append(y)
            t_prev = t
    return np.array(out, dtype=object).reshape(len(out), *y.shape)


def frame_grid(consts, box, ts, step):
    """The frame system's propagator from the identity, (len(ts), 5, 5) Decimals."""
    return rk4_grid(frame_generator(consts, box), np.eye(5), ts, step)


def oracle_phi(frames, m):
    """Phi's rows Q, P, Qcl on the columns q0, p0 and I of a ``frame_grid``, as floats.

    The column of I is that of 1 + m*e_m; the result is (len(ts), 3, 3),
    laid out as ``photonbox.oracle._phi``'s.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        one = frames[..., 3] + Decimal(float(m)) * frames[..., 4]
    return np.stack([frames[..., 0], frames[..., 1], one], axis=-1)[:, :3].astype(float)
