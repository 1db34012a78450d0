"""Explicit finite-volume solver for the viscous balance law.

Scheme: Engquist-Osher upwind convection plus flux-form centered diffusion
with the face viscosity evaluated at the arithmetic mean of the adjacent
cells.  Both ingredients are monotone under the time-step bound below, which
is what gives the discrete maximum principle.  Boundary faces see a ghost
value of zero for both fluxes (homogeneous Dirichlet).
"""

from __future__ import annotations

import numpy as np

from . import kernels, tables
from .domain import FieldTrajectory, FluxSpec, Grid, ViscositySpec, _check_range

MAX_PRINCIPLE_HARD = 1e-8


class StepError(RuntimeError):
    """Hard failure of a time step (maximum-principle violation)."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


def stable_dt(grid: Grid, flux: FluxSpec, visc: ViscositySpec, eps: float,
              cfl: float) -> float:
    """Explicit-stability step: cfl * min(h/|f'| , h^2/(2 d eps sup B))."""
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    hmin = min(grid.spacing)
    candidates = []
    if flux.lipschitz_bound > 0.0:
        candidates.append(hmin / flux.lipschitz_bound)
    if eps > 0.0 and visc.upper_bound > 0.0:
        candidates.append(hmin**2 / (2.0 * grid.dim * eps * visc.upper_bound))
    if not candidates:
        return cfl * grid.time_horizon
    return cfl * min(candidates)


def convective_face_flux(uL: float, uR: float, flux: FluxSpec, axis: int = 0) -> float:
    """Engquist-Osher flux from the tabulated one-sided integrals of f'."""
    _check_range(float(uL), flux.lattice)
    _check_range(float(uR), flux.lattice)
    tab = flux.tables[axis]
    return float(tables.interp(flux.lattice, tab.eo_plus, uL)
                 + tables.interp(flux.lattice, tab.eo_minus, uR))


def diffusive_face_flux(uL: float, uR: float, visc: ViscositySpec, eps: float,
                        h: float) -> float:
    """eps * B((uL+uR)/2) * (uR-uL)/h, the flux form of the viscous term."""
    if h <= 0:
        raise ValueError("spacing must be positive")
    bm = float(np.asarray(visc.B(0.5 * (uL + uR))))
    return eps * bm * (uR - uL) / h


def _make_advance(grid: Grid, flux: FluxSpec, visc: ViscositySpec, eps: float,
                  integrator: str):
    """The member's update ``advance(u, dt) -> new u``, set up once per march
    together with the kernel's step plan, which tabulates the slopes of the
    tables and judges once whether the B table is flat (then every step
    reads B as one scalar)."""
    lat = flux.lattice
    tabs = flux.tables
    eo = tuple(t for tab in tabs[:grid.dim] for t in (tab.eo_plus,
                                                      tab.eo_minus))
    name = f"visc_step_{grid.dim}d"
    args = grid.spacing + (eps, lat.lo, lat.inv_spacing) + eo + (visc.table,)
    kernel = kernels.get_kernel(name)
    work = kernels.workspace(name, grid.cells, eo + (visc.table,))

    # two output buffers per march, taken in turn: a step never writes into
    # the state it reads, and march keeps only copies of the states it stores
    outs = (np.empty(grid.cells), np.empty(grid.cells))

    def euler(u, dt):
        out = outs[0] if u is not outs[0] else outs[1]
        kernel(u, dt, *args, out, work)
        return out

    if integrator == "euler":
        return euler
    if integrator == "heun":
        return lambda u, dt: 0.5 * (u + euler(euler(u, dt), dt))
    raise ValueError(f"unknown integrator {integrator!r}")


def march(grid: Grid, u0: np.ndarray, times: np.ndarray, advance,
          dt_base: float, eps: float, sup_bound: float) -> FieldTrajectory:
    """Apply ``advance(u, dt)`` in steps of at most ``dt_base``, landing
    exactly on each snapshot time; fails hard once |u| exceeds ``sup_bound``."""
    u = np.array(u0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    snaps = [u.copy()]
    t = 0.0
    steps = 0
    limit = sup_bound + MAX_PRINCIPLE_HARD
    absu = np.empty_like(u)  # the guard's |u|, written in place every step
    max_seen = float(np.maximum.reduce(np.abs(u, out=absu), axis=None))
    # written so that a NaN maximum fails too, the initial state's included
    if not max_seen <= limit:
        raise _violation(max_seen, sup_bound, steps, t)
    # Python floats: numpy scalars would slow every step of the loop
    for target in times[1:].tolist():
        while t < target - 1e-13 * max(1.0, target):
            dt = min(dt_base, target - t)
            u = advance(u, dt)
            t += dt
            steps += 1
            m = float(np.maximum.reduce(np.abs(u, out=absu), axis=None))
            if not m <= limit:
                raise _violation(m, sup_bound, steps, t)
            if m > max_seen:
                max_seen = m
        t = target
        snaps.append(u.copy())
    return FieldTrajectory(grid, times, np.stack(snaps), epsilon=eps,
                           dt=dt_base, steps_taken=steps,
                           max_abs_seen=max_seen)


def _violation(m: float, sup_bound: float, step: int, t: float) -> StepError:
    return StepError(f"discrete maximum principle violated: |u| = {m} > "
                     f"{sup_bound} at step {step}, t = {t}", step=step, time=t)


def integrate(grid: Grid, u0: np.ndarray, flux: FluxSpec, visc: ViscositySpec,
              eps: float, cfl: float, snapshot_times: np.ndarray,
              integrator: str = "euler",
              sup_bound: float | None = None) -> FieldTrajectory:
    """March to the horizon, landing exactly on each snapshot time."""
    if sup_bound is None:
        sup_bound = float(np.max(np.abs(u0)))
    return march(grid, u0, snapshot_times,
                 _make_advance(grid, flux, visc, eps, integrator),
                 stable_dt(grid, flux, visc, eps, cfl), eps, sup_bound)


def snapshot_times(time_horizon: float, intervals: int) -> np.ndarray:
    return np.linspace(0.0, time_horizon, intervals + 1)
