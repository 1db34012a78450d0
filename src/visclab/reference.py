"""Inviscid reference solution: Godunov scheme plus exact Riemann oracles.

The boundary condition feeds a ghost value of zero through the same monotone
flux, the standard discrete realization of the boundary entropy condition on
a bounded domain.  In two dimensions the scheme is Strang splitting of 1-D
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, tables
from .domain import FieldTrajectory, FluxSpec, Grid, ViscositySpec, _check_range
from .viscous import march, stable_dt


def godunov_face_flux(uL: float, uR: float, flux: FluxSpec, axis: int = 0) -> float:
    """Exact-Riemann (Godunov) flux of the tabulated flux function.

    min of f over [uL, uR] when uL <= uR, max over [uR, uL] otherwise; the
    interior extremum candidates are the table nodes where f' changes sign.
    """
    _check_range(float(uL), flux.lattice)
    _check_range(float(uR), flux.lattice)
    tab = flux.tables[axis]
    lat = flux.lattice
    fl = float(tables.interp(lat, tab.f, uL))
    fr = float(tables.interp(lat, tab.f, uR))
    if uL <= uR:
        g = min(fl, fr)
        for cy, cf in zip(tab.crit_y, tab.crit_f):
            if uL < cy < uR:
                g = min(g, float(cf))
        return g
    g = max(fl, fr)
    for cy, cf in zip(tab.crit_y, tab.crit_f):
        if uR < cy < uL:
            g = max(g, float(cf))
    return g


def solve_reference(grid: Grid, flux: FluxSpec, visc: ViscositySpec,
                    u0: np.ndarray, cfl: float,
                    snapshot_times: np.ndarray) -> FieldTrajectory:
    """Entropy-solution candidate on the same snapshot lattice, epsilon = 0."""
    lat = flux.lattice
    if grid.dim == 1:
        k1 = kernels.get_kernel("godunov_step_1d")
        tab = flux.tables[0]
        work = kernels.workspace("godunov_step_1d", grid.cells, (tab.f,))
        h = grid.spacing[0]

        def advance(u, dt):
            out = np.empty_like(u)
            k1(u, dt, h, lat.lo, lat.inv_spacing, tab.f, tab.crit_y,
               tab.crit_f, out, work)
            return out
    else:
        k2 = kernels.get_kernel("godunov_sweep_2d")
        tx, ty = flux.tables[0], flux.tables[1]
        work = kernels.workspace("godunov_sweep_2d", grid.cells, (tx.f, ty.f))
        hx, hy = grid.spacing

        def advance(u, dt):
            # Strang: half sweep in x, full sweep in y, half sweep in x
            out = np.empty_like(u)
            k2(u, 0.5 * dt, hx, 0, lat.lo, lat.inv_spacing, tx.f,
               tx.crit_y, tx.crit_f, out, work)
            u2 = np.empty_like(u)
            k2(out, dt, hy, 1, lat.lo, lat.inv_spacing, ty.f,
               ty.crit_y, ty.crit_f, u2, work)
            k2(u2, 0.5 * dt, hx, 0, lat.lo, lat.inv_spacing, tx.f,
               tx.crit_y, tx.crit_f, out, work)
            return out

    return march(grid, u0, snapshot_times, advance,
                 stable_dt(grid, flux, visc, eps=0.0, cfl=cfl), 0.0,
                 float(np.max(np.abs(u0))))


@dataclass(frozen=True)
class RiemannSolution:
    uL: float
    uR: float
    wave: str               # shock | rarefaction | constant
    speeds: tuple[float, ...]

    def __call__(self, xi: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class _ConvexRiemann(RiemannSolution):
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


def riemann_exact(uL: float, uR: float, flux: FluxSpec, axis: int = 0) -> RiemannSolution:
    """Self-similar solution of the Riemann problem for a convex flux preset."""
    comp = flux.components[axis]
    nodes = flux.lattice.nodes()
    fpp = np.asarray(comp.fpp(nodes), dtype=np.float64)
    if np.min(fpp) < -1e-12:
        raise ValueError(f"flux preset {comp.name!r} is not convex on I; "
                         "exact Riemann solution unsupported")
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
    inv = _FP_INVERSES.get(comp.name)
    if inv is None:
        raise ValueError(f"no rarefaction inverse registered for {comp.name!r}")
    return _ConvexRiemann(uL, uR, "rarefaction", (fp(uL), fp(uR)),
                          fp=fp, fp_inv=inv)

