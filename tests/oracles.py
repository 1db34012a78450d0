"""Test oracles: scalar re-implementations the tests compare the package
against.

The loop twins update one face at a time and interpolate each table value
by value (``_interp_scalar``: floor, clip, ``t0 + frac * (t1 - t0)``), the
scalar arithmetic of ``tables.locate``/``tables.lookup`` in the same
operation order, so the numpy kernels in ``visclab.kernels`` must match
them bit for bit.  They take the kernels' trailing ``work`` argument and
ignore it.  Imported by the tests as ``oracles``, like ``conftest``.
"""

from __future__ import annotations

import math

import numpy as np

from visclab.domain import Grid


def _interp_scalar(tab, lo, inv, u):
    s = (u - lo) * inv
    k = math.floor(s)
    if k < 0.0:
        k = 0.0
    elif k > tab.shape[0] - 2.0:
        k = tab.shape[0] - 2.0
    ki = np.int64(k)
    frac = s - k
    return tab[ki] + frac * (tab[ki + 1] - tab[ki])


def _visc_step_1d_loops(u, dt, h, eps, lo, inv, eop, eom, btab, out, work):
    n = u.shape[0]
    epsh = eps / h
    lam = dt / h
    fprev = 0.0
    for i in range(n + 1):
        ul = u[i - 1] if i > 0 else 0.0
        ur = u[i] if i < n else 0.0
        conv = _interp_scalar(eop, lo, inv, ul) + _interp_scalar(eom, lo, inv, ur)
        bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
        f = conv - epsh * bm * (ur - ul)
        if i > 0:
            out[i - 1] = u[i - 1] - lam * (f - fprev)
        fprev = f
    return out


def _visc_step_2d_loops(u, dt, hx, hy, eps, lo, inv,
                        eopx, eomx, eopy, eomy, btab, out, work):
    nx, ny = u.shape
    lamx = dt / hx
    lamy = dt / hy
    ehx = eps / hx
    ehy = eps / hy
    for j in range(ny):
        fprev = 0.0
        for i in range(nx + 1):
            ul = u[i - 1, j] if i > 0 else 0.0
            ur = u[i, j] if i < nx else 0.0
            conv = _interp_scalar(eopx, lo, inv, ul) + _interp_scalar(eomx, lo, inv, ur)
            bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
            f = conv - ehx * bm * (ur - ul)
            if i > 0:
                out[i - 1, j] = u[i - 1, j] - lamx * (f - fprev)
            fprev = f
    for i in range(nx):
        fprev = 0.0
        for j in range(ny + 1):
            ul = u[i, j - 1] if j > 0 else 0.0
            ur = u[i, j] if j < ny else 0.0
            conv = _interp_scalar(eopy, lo, inv, ul) + _interp_scalar(eomy, lo, inv, ur)
            bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
            f = conv - ehy * bm * (ur - ul)
            if j > 0:
                out[i, j - 1] = out[i, j - 1] - lamy * (f - fprev)
            fprev = f
    return out


def _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f):
    fl = _interp_scalar(ftab, lo, inv, ul)
    fr = _interp_scalar(ftab, lo, inv, ur)
    if ul <= ur:
        g = min(fl, fr)
        for c in range(crit_y.shape[0]):
            cy = crit_y[c]
            if ul < cy and cy < ur:
                cf = crit_f[c]
                if cf < g:
                    g = cf
        return g
    g = max(fl, fr)
    for c in range(crit_y.shape[0]):
        cy = crit_y[c]
        if ur < cy and cy < ul:
            cf = crit_f[c]
            if cf > g:
                g = cf
    return g


def _godunov_step_1d_loops(u, dt, h, lo, inv, ftab, crit_y, crit_f, out, work):
    n = u.shape[0]
    lam = dt / h
    fprev = 0.0
    for i in range(n + 1):
        ul = u[i - 1] if i > 0 else 0.0
        ur = u[i] if i < n else 0.0
        f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
        if i > 0:
            out[i - 1] = u[i - 1] - lam * (f - fprev)
        fprev = f
    return out


def _godunov_sweep_2d_loops(u, dt, h, axis, lo, inv, ftab, crit_y, crit_f,
                            out, work):
    nx, ny = u.shape
    lam = dt / h
    if axis == 0:
        for j in range(ny):
            fprev = 0.0
            for i in range(nx + 1):
                ul = u[i - 1, j] if i > 0 else 0.0
                ur = u[i, j] if i < nx else 0.0
                f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
                if i > 0:
                    out[i - 1, j] = u[i - 1, j] - lam * (f - fprev)
                fprev = f
    else:
        for i in range(nx):
            fprev = 0.0
            for j in range(ny + 1):
                ul = u[i, j - 1] if j > 0 else 0.0
                ur = u[i, j] if j < ny else 0.0
                f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
                if j > 0:
                    out[i, j - 1] = u[i, j - 1] - lam * (f - fprev)
                fprev = f
    return out


LOOPS = {
    "visc_step_1d": _visc_step_1d_loops,
    "visc_step_2d": _visc_step_2d_loops,
    "godunov_step_1d": _godunov_step_1d_loops,
    "godunov_sweep_2d": _godunov_sweep_2d_loops,
}


def shock_position(field_values: np.ndarray, grid: Grid, level: float) -> float:
    """Rightmost downward crossing of ``level`` in a 1-D profile.

    Robust against an upstream boundary fan: the shock is the last place the
    profile falls through the level.
    """
    u = field_values
    x = grid.centers(0)
    above = np.nonzero(u >= level)[0]
    if above.size == 0:
        return float(x[0])
    i = int(above[-1])
    if i == u.shape[0] - 1:
        return float(x[-1])
    u0, u1 = u[i], u[i + 1]
    frac = (u0 - level) / (u0 - u1) if u0 != u1 else 0.5
    return float(x[i] + frac * (x[i + 1] - x[i]))
