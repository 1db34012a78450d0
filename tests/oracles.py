"""Test oracles: scalar re-implementations and reference computations the
tests compare the package against.

The loop twins update one face at a time and interpolate each table value
by value (``_interp_scalar``: floor, clip, ``t0 + frac * (t1 - t0)``), the
scalar arithmetic of ``tables.locate``/``tables.lookup`` in the same
operation order, so the numpy kernels in ``visclab.kernels`` must match
them bit for bit.  They take the tables as arguments, and a trailing
``work`` argument that they ignore.  Each twin computes its face fluxes
with one scalar face function, ``_visc_face_scalar`` or
``_godunov_face_scalar``; the flux property tests (consistency,
monotonicity, boundary mass balance) run on those two, so they test the
face arithmetic the kernels run.

Below them sit the oracles for what no command computes: the exact Riemann
solution of a convex flux preset (``riemann_exact``), the whole entropy
production ``d/dt eta(u) + div q(u)`` that the package's split A + M must
approach (``entropy_production_total``), one pair's split with both parts
held whole, whose norms the package's per-member split must match bit for
bit (``split_production``), and the total variation of a field
(``total_variation``).  Imported by the tests as ``oracles``, like
``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from visclab import tables
from visclab.compactness import _along, _centered_space, _pad
from visclab.domain import (EntropyPair, Field, FieldTrajectory, FluxSpec,
                            Grid, ViscositySpec)
from visclab.norms import SpaceTimeField, h_minus_one_norm, measure_norm


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


def _visc_face_scalar(ul, ur, eh, lo, inv, eop, eom, btab):
    """The viscous face flux: Engquist-Osher ``eop(ul) + eom(ur)`` minus
    ``eh * B((ul + ur) / 2) * (ur - ul)``, with ``eh = eps / h``."""
    conv = _interp_scalar(eop, lo, inv, ul) + _interp_scalar(eom, lo, inv, ur)
    bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
    return conv - eh * bm * (ur - ul)


def _visc_step_1d_loops(u, dt, h, eps, lo, inv, eop, eom, btab, out, work):
    n = u.shape[0]
    epsh = eps / h
    lam = dt / h
    fprev = 0.0
    for i in range(n + 1):
        ul = u[i - 1] if i > 0 else 0.0
        ur = u[i] if i < n else 0.0
        f = _visc_face_scalar(ul, ur, epsh, lo, inv, eop, eom, btab)
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
            f = _visc_face_scalar(ul, ur, ehx, lo, inv, eopx, eomx, btab)
            if i > 0:
                out[i - 1, j] = u[i - 1, j] - lamx * (f - fprev)
            fprev = f
    for i in range(nx):
        fprev = 0.0
        for j in range(ny + 1):
            ul = u[i, j - 1] if j > 0 else 0.0
            ur = u[i, j] if j < ny else 0.0
            f = _visc_face_scalar(ul, ur, ehy, lo, inv, eopy, eomy, btab)
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


# ---------------------------------------------------------------------------
# exact Riemann solutions


@dataclass(frozen=True)
class _ConvexRiemann:
    uL: float
    uR: float
    wave: str               # shock | rarefaction | constant
    speeds: tuple[float, ...]
    fp: object = None
    fp_inv: object = None

    def __call__(self, xi: float) -> float:
        if self.wave == "constant":
            return self.uL
        if self.wave == "shock":
            return self.uL if xi < self.speeds[0] else self.uR
        sL, sR = self.speeds
        if xi <= sL:
            return self.uL
        if xi >= sR:
            return self.uR
        return float(self.fp_inv(xi))


_FP_INVERSES = {
    "burgers": lambda xi: xi,
    "arctan": lambda xi: np.tan(xi),
}


def riemann_exact(uL: float, uR: float, flux: FluxSpec,
                  axis: int = 0) -> _ConvexRiemann:
    """Self-similar solution of the Riemann problem for a convex flux preset:
    ``linear`` or one with an inverse of f' in ``_FP_INVERSES``."""
    comp = flux.components[axis]
    if comp.name != "linear" and comp.name not in _FP_INVERSES:
        raise ValueError(f"flux preset {comp.name!r} is not known to be "
                         "convex; exact Riemann solution unsupported")
    if uL == uR:
        return _ConvexRiemann(uL, uR, "constant", ())
    f = lambda u: float(np.asarray(comp.f(u)))
    fp = lambda u: float(np.asarray(comp.fp(u)))
    if uL > uR:
        s = (f(uL) - f(uR)) / (uL - uR)
        return _ConvexRiemann(uL, uR, "shock", (s,))
    if comp.name == "linear":
        a = fp(0.0)
        return _ConvexRiemann(uL, uR, "shock", (a,))
    return _ConvexRiemann(uL, uR, "rarefaction", (fp(uL), fp(uR)),
                          fp=fp, fp_inv=_FP_INVERSES[comp.name])


# ---------------------------------------------------------------------------
# entropy production and total variation


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Centered in the interior, one-sided at the first and last snapshots."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    return out


def entropy_production_total(traj: FieldTrajectory,
                             pair: EntropyPair) -> SpaceTimeField:
    """Discrete field d/dt eta(u) + sum_j d/dx_j q_j(u) on the snapshot lattice."""
    if traj.num_snapshots < 3:
        raise ValueError("need at least 3 snapshots for the production field")
    steps = np.diff(traj.times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    dt = float(steps[0])
    grid = traj.grid
    eta_u = np.asarray(pair.eta(traj.values), dtype=np.float64)
    total = _time_derivative(eta_u, dt)
    for axis in range(grid.dim):
        q_u = tables.interp(pair.lattice, pair.q[axis], traj.values)
        q_ghost = float(tables.interp(pair.lattice, pair.q[axis], 0.0)[0])
        total += _centered_space(q_u, axis + 1, grid.spacing[axis], q_ghost)
    return SpaceTimeField(grid, traj.times, total)


@dataclass(frozen=True)
class EntropyProductionSplit:
    eps: float
    divergence_part: SpaceTimeField   # flux-form, vanishes in the dual norm
    dissipation_part: SpaceTimeField  # signed, bounded in total mass
    h1_norm_A: float
    measure_norm_M: float


def split_production(traj: FieldTrajectory, pair: EntropyPair,
                     visc: ViscositySpec, eps: float) -> EntropyProductionSplit:
    """One pair's split on the whole field, both parts held whole.

    A = eps sum_j D_j(B(face mean) D_j eta(u)) in flux form, with B read at
    every face mean, and M = -eps sum_j B(u) (centered gradient)^2 eta''(u),
    each element in the operation order of
    ``compactness.decompose_production``; the norms are ``h_minus_one_norm``
    of A and ``measure_norm`` of M.
    """
    grid = traj.grid
    u = traj.values
    eta_u = np.asarray(pair.eta(u), dtype=np.float64)
    eta_ghost = float(np.asarray(pair.eta(0.0)))
    b_of_u = np.asarray(visc.B(u), dtype=np.float64)
    A = np.zeros_like(u)
    M = np.zeros_like(u)
    for axis, h in enumerate(grid.spacing):
        ax = axis + 1
        u_ext = _pad(u, ax, 0.0)
        eta_ext = _pad(eta_u, ax, eta_ghost)
        lo, hi = _along(u.ndim, ax, None, -1), _along(u.ndim, ax, 1, None)
        ul, ur = u_ext[lo], u_ext[hi]
        el, er = eta_ext[lo], eta_ext[hi]
        face = np.asarray(visc.B(0.5 * (ul + ur)), dtype=np.float64) * (er - el) / h
        A += eps * (face[hi] - face[lo]) / h
        gc = _centered_space(u, ax, h, 0.0)
        M += b_of_u * gc * gc
    M *= -eps
    M *= np.asarray(pair.etapp(u), dtype=np.float64)
    fa = SpaceTimeField(grid, traj.times, A)
    fm = SpaceTimeField(grid, traj.times, M)
    return EntropyProductionSplit(eps, fa, fm, h_minus_one_norm(fa),
                                  measure_norm(fm))


def total_variation(field: Field) -> float:
    """Sum over axes of |one-sided differences| * cell volume / spacing."""
    v = field.values
    grid = field.grid
    cell = grid.cell_volume
    tv = 0.0
    for axis in range(grid.dim):
        d = np.abs(np.diff(v, axis=axis))
        tv += float(np.sum(d)) * cell / grid.spacing[axis]
    return tv
