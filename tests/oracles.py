"""Test oracles: scalar re-implementations and reference computations the
tests compare the package against.

The loop twins, one per scheme like the kernels in ``visclab.kernels``,
step a state of any dimension line by line and face by face
(``_sweep``), and interpolate each table value by value
(``_interp_scalar``: floor, clip, ``t0 + frac * (t1 - t0)``), the scalar
arithmetic of ``tables.locate``/``tables.lookup`` in the same operation
order, so the kernels must match them bit for bit:
``_visc_step_loops`` steps every axis of one member's state,
``_godunov_step_loops`` one axis.  They take the tables as arguments.
Each twin computes its face fluxes with one scalar face function,
``_visc_face_scalar`` or ``_godunov_face_scalar``; the flux property tests
(consistency, monotonicity, boundary mass balance) run on those two, so
they test the face arithmetic the kernels run.

``march_alone`` marches one member with a plain time loop, step by step,
the reference a batched march must match for each of its members.

Below them sit the oracles for what no command computes: the exact Riemann
solution of a convex flux preset (``riemann_exact``), the error of a
marched Gaussian against its free-space solution (``gaussian_error``), the
companion entropy fluxes q tabulated with their ODE self-check
(``entropy_flux_tables``), the whole entropy production
``d/dt eta(u) + div q(u)`` that the package's split A + M must approach
(``entropy_production_total``), one pair's split with both parts held
whole, whose norms the package's per-member split must match bit for bit
(``split_production``), and the total variation of an array of cell
values (``total_variation``).

Last come the whole-array forms of what the package computes slab by slab
or block by block, which it must match bit for bit: the dual norm with
every sine transform and the quotient on the whole array
(``dual_norm_whole``) and the gradient energy from whole-field gradients
(``grad_energy_whole``).  Imported by the tests as ``oracles``, like
``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from visclab import norms, tables
from visclab.compactness import _along
from visclab.domain import (EntropyPair, FieldTrajectory, FluxSpec, Grid,
                            ViscositySpec, make_flux, make_viscosity)
from visclab.norms import h_minus_one_norm, measure_norm
from visclab.viscous import StepError, integrate, snapshot_times


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


def _sweep(u, base, out, axis, lam, face):
    """``out = base - lam * (F_right - F_left)`` cell by cell along every
    line of ``axis``, with the face flux ``F = face(ul, ur)`` of the cells of
    ``u`` on either side and a zero ghost cell at either end of each line."""
    u, base, out = (np.moveaxis(a, axis, -1) for a in (u, base, out))
    n = u.shape[-1]
    for idx in np.ndindex(u.shape[:-1]):
        line, prev, new = u[idx], base[idx], out[idx]
        fprev = 0.0
        for i in range(n + 1):
            f = face(line[i - 1] if i > 0 else 0.0, line[i] if i < n else 0.0)
            if i > 0:
                new[i - 1] = prev[i - 1] - lam * (f - fprev)
            fprev = f


def _visc_step_loops(u, dt, spacing, eps, lo, inv, eo, btab, out):
    """The viscous step of a state of any dimension: axis 0 from ``u`` into
    ``out``, then each later axis from ``out``, every face flux from ``u``.
    Axis ``ax`` has spacing ``spacing[ax]`` and Engquist-Osher tables
    ``eo[ax] = (eop, eom)``."""
    base = u
    for axis, (h, (eop, eom)) in enumerate(zip(spacing, eo)):
        eh = eps / h
        _sweep(u, base, out, axis, dt / h, lambda ul, ur: _visc_face_scalar(
            ul, ur, eh, lo, inv, eop, eom, btab))
        base = out
    return out


def _godunov_step_loops(u, dt, h, axis, lo, inv, ftab, crit_y, crit_f, out):
    """The Godunov step along ``axis`` of a state of any dimension."""
    _sweep(u, u, out, axis, dt / h, lambda ul, ur: _godunov_face_scalar(
        ul, ur, lo, inv, ftab, crit_y, crit_f))
    return out


def steps_loop(t, target, dt_base):
    """The steps of one snapshot interval as a plain loop: each
    ``min(dt_base, target - t)``, added to ``t`` one at a time until ``t``
    is within 1e-13 (relative) of ``target``.  Returns ``(clock, steps)``:
    ``t`` before the first step and after each, and the steps."""
    short = target - 1e-13 * max(1.0, target)
    clock, steps = [t], []
    while t < short:
        dt = min(dt_base, target - t)
        t += dt
        clock.append(t)
        steps.append(dt)
    return clock, steps


def march_alone(u0, times, advance, dt_base, sup_bound):
    """One member's march as a plain loop: steps of ``min(dt_base, target -
    t)`` until ``t`` is within 1e-13 (relative) of each snapshot time, and
    the guard ``max |u| <= sup_bound + 1e-8`` before the first step and
    after every step.  ``advance(u, (dt,))`` steps ``u``, a batch of one,
    in place.

    Returns ``(snapshots, steps, max_abs_seen)``, or raises ``StepError``
    with the failing step and time.
    """
    u = np.array(u0, dtype=np.float64)
    snaps, t, steps = [u.copy()], 0.0, 0
    limit = sup_bound + 1e-8

    def guard(u):
        m = float(np.max(np.abs(u)))
        if not m <= limit:
            raise StepError(f"discrete maximum principle violated: |u| = {m}"
                            f" > {sup_bound} at step {steps}, t = {t}",
                            step=steps, time=t)
        return m

    seen = guard(u)
    for target in np.asarray(times, dtype=np.float64)[1:].tolist():
        while t < target - 1e-13 * max(1.0, target):
            dt = min(dt_base, target - t)
            advance(u, (dt,))
            t += dt
            steps += 1
            seen = max(seen, guard(u))
        t = target
        snaps.append(u.copy())
    return np.stack(snaps), steps, seen


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


def gaussian_error(n: int, a: float, eps: float, T: float, sigma0: float,
                   c: float) -> float:
    """Max error at ``T`` of the march on ``n`` cells of [0, 1] of a Gaussian
    of width ``sigma0`` at ``c``, under the flux ``a u`` and constant B,
    against its free-space solution; the boundary stays far enough away for
    its influence to be negligible."""
    g = Grid((n,), (0.0,), (1.0,), T)
    f = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": a})
    v = make_viscosity("constant", (-1.0, 1.0))
    x = g.centers(0)
    u0 = np.exp(-((x - c) ** 2) / (2 * sigma0**2))
    traj = integrate(g, u0, f, v, eps, 0.4, snapshot_times(T, 2),
                     sup_bound=1.0)
    s2 = sigma0**2 + 2 * eps * T
    exact = sigma0 / math.sqrt(s2) * np.exp(-((x - c - a * T) ** 2) / (2 * s2))
    return float(np.abs(traj.values[-1] - exact).max())


# ---------------------------------------------------------------------------
# entropy production and total variation


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Centered in the interior, one-sided at the first and last snapshots."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    return out


def entropy_flux_tables(pair: EntropyPair, flux: FluxSpec,
                        tol: float) -> tuple[tuple[np.ndarray, ...], float, float]:
    """The companion fluxes q_j' = eta' f_j' of ``pair``, tabulated on
    ``flux.lattice`` and anchored at q_j(0) = 0, with the worst residual of
    their ODE check across the components and its allowance:
    ``(q, residual, allowance)``."""
    lattice = flux.lattice
    nodes = lattice.nodes()
    qs = []
    worst_res = 0.0
    worst_allow = 0.0
    du = (lattice.hi - lattice.lo) / (lattice.n - 1)
    for comp in flux.components:
        integrand = lambda s, c=comp: np.asarray(pair.etap(s)) * np.asarray(c.fp(s))
        q = tables.cumulative_table(integrand, lattice, tol)
        qs.append(q)
        # centered-difference check of q' = eta' f'; the tolerance has to
        # include the finite-difference truncation of the table itself
        w = np.asarray(integrand(nodes), dtype=np.float64)
        qprime = (q[2:] - q[:-2]) / (2.0 * du)
        res = float(np.max(np.abs(qprime - w[1:-1])))
        d2w = np.abs(w[2:] - 2.0 * w[1:-1] + w[:-2])
        allow = tol + 0.5 * float(np.max(d2w)) if d2w.size else tol
        worst_res = max(worst_res, res)
        worst_allow = max(worst_allow, allow)
    return tuple(qs), worst_res, worst_allow


def _pad(values: np.ndarray, axis: int, ghost: float) -> np.ndarray:
    """``values`` with a ghost cell of value ``ghost`` at either end of
    ``axis``."""
    ext_shape = list(values.shape)
    ext_shape[axis] += 2
    ext = np.full(ext_shape, ghost, dtype=np.float64)
    ext[_along(values.ndim, axis, 1, -1)] = values
    return ext


def _centered_space(values: np.ndarray, axis: int, h: float,
                    ghost: float) -> np.ndarray:
    """(v_{i+1} - v_{i-1}) / 2h on the padded copy of ``values``: the
    stencil the package forms without one, in the same operation order."""
    ext = _pad(values, axis, ghost)
    return (ext[_along(values.ndim, axis, 2, None)]
            - ext[_along(values.ndim, axis, None, -2)]) / (2.0 * h)


def entropy_production_total(traj: FieldTrajectory, pair: EntropyPair,
                             flux: FluxSpec, tol: float) -> np.ndarray:
    """Discrete field d/dt eta(u) + sum_j d/dx_j q_j(u) on the snapshot
    lattice, with q from ``entropy_flux_tables(pair, flux, tol)``."""
    if traj.num_snapshots < 3:
        raise ValueError("need at least 3 snapshots for the production field")
    steps = np.diff(traj.times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    dt = float(steps[0])
    grid = traj.grid
    eta_u = np.asarray(pair.eta(traj.values), dtype=np.float64)
    total = _time_derivative(eta_u, dt)
    qs, _res, _allow = entropy_flux_tables(pair, flux, tol)
    for axis in range(grid.dim):
        q_u = tables.interp(flux.lattice, qs[axis], traj.values)
        q_ghost = float(tables.interp(flux.lattice, qs[axis], 0.0)[0])
        total += _centered_space(q_u, axis + 1, grid.spacing[axis], q_ghost)
    return total


@dataclass(frozen=True)
class EntropyProductionSplit:
    eps: float
    divergence_part: np.ndarray   # flux-form, vanishes in the dual norm
    dissipation_part: np.ndarray  # signed, bounded in total mass
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
    return EntropyProductionSplit(
        eps, A, M, h_minus_one_norm(A, traj.times, grid.spacing),
        measure_norm(M, traj.times, grid.cell_volume))


def total_variation(values: np.ndarray, spacing: tuple[float, ...]) -> float:
    """Sum over axes of |one-sided differences| * cell volume / spacing of
    the cell values ``values`` on a grid of ``spacing``."""
    cell = math.prod(spacing)
    tv = 0.0
    for axis, h in enumerate(spacing):
        d = np.abs(np.diff(values, axis=axis))
        tv += float(np.sum(d)) * cell / h
    return tv


def _node_whole(x: np.ndarray, axis: int):
    """Orthonormal DST-I along ``axis`` of the whole array: one product
    with the sine matrix, arguments reduced modulo 2(n+1)."""
    n = x.shape[axis]
    k = np.arange(1, n + 1)
    turns = np.outer(k, k) % (2 * (n + 1))
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(turns * (np.pi / (n + 1)))
    return np.moveaxis(np.tensordot(sines, x, axes=(1, axis)), 0, axis), k


def _cell_whole(x: np.ndarray, axis: int):
    """Orthonormal DST-II along ``axis`` of the whole array by Makhoul's
    algorithm: the reordered sequence, one ``rfft``, one twiddle, real parts
    then imaginary parts, written over the reordered sequence."""
    n = x.shape[axis]
    half = (n + 1) // 2
    bins = np.arange(n // 2 + 1)
    v = np.empty_like(x)
    xl, vl = np.moveaxis(x, axis, -1), np.moveaxis(v, axis, -1)
    vl[..., :half] = xl[..., 0::2]
    np.negative(xl[..., 1::2][..., ::-1], out=vl[..., half:])
    zl = np.moveaxis(np.fft.rfft(v, axis=axis), axis, -1)
    zl *= (np.sqrt(np.where(bins == 0, 1.0, 2.0) / n)
           * np.exp(-0.5j * np.pi / n * bins))
    vl[..., :bins.size] = zl.real
    vl[..., bins.size:] = zl.imag[..., 1:half]
    return v, np.concatenate((n - bins, np.arange(1, half)))


def dual_norm_whole(g: np.ndarray, spacings, kinds) -> float:
    """``norms.dirichlet_dual_norm`` with each axis's transform run on the
    whole array into a new one, in axis order, then Lambda summed over the
    axes in order, ``(ghat / Lambda) * ghat`` on the whole array and one
    sum."""
    g = np.asarray(g, dtype=np.float64)
    coef, evs = g, []
    for axis, (n, h, kind) in enumerate(zip(g.shape, spacings, kinds)):
        # stencil eigenvalues of modes 1..n, 4 sin^2(theta/2) / h^2, with
        # the zero face at sample n of a cell axis and n + 1 of a node axis
        m = n if kind == "cell" else n + 1
        k = np.arange(1, n + 1, dtype=np.float64)
        ev = (2.0 * np.sin(k * (0.5 * np.pi / m)) / h) ** 2
        coef, modes = {"cell": _cell_whole, "node": _node_whole}[kind](coef,
                                                                       axis)
        shape = [1] * g.ndim
        shape[axis] = -1
        evs.append(ev[modes - 1].reshape(shape))
    lam = 0.0
    for ev in evs[:-1]:
        lam = lam + ev
    q = lam + evs[-1]
    np.divide(coef, q, out=q)
    q *= coef
    return float(np.sqrt(q.sum() * float(np.prod(spacings))))


def grad_energy_whole(traj: FieldTrajectory) -> float:
    """``compactness.grad_energy_lhs`` from whole-field centered gradients."""
    w = norms.time_weights(traj.times)
    grid = traj.grid
    total = 0.0
    for axis in range(grid.dim):
        g = _centered_space(traj.values, axis + 1, grid.spacing[axis], 0.0)
        per_snap = np.sum(g * g, axis=tuple(range(1, g.ndim))) * grid.cell_volume
        total += float(np.sum(per_snap * w))
    return traj.epsilon * total
