"""Inviscid reference solution: Godunov scheme plus exact Riemann oracles.

The boundary condition feeds a ghost value of zero through the same monotone
flux, the standard discrete realization of the boundary entropy condition on
a bounded domain.  In two dimensions the scheme is Strang splitting of 1-D
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .domain import FieldTrajectory, FluxSpec, Grid, ViscositySpec
from .viscous import march, stable_dt


def solve_reference(grid: Grid, flux: FluxSpec, visc: ViscositySpec,
                    u0: np.ndarray, cfl: float,
                    snapshot_times: np.ndarray) -> FieldTrajectory:
    """Entropy-solution candidate on the same snapshot lattice, epsilon = 0."""
    lat = flux.lattice
    if grid.dim == 1:
        k1 = kernels.get_kernel("godunov_step_1d")
        plan = kernels.godunov_plan(grid.cells, grid.spacing[0], lat,
                                    flux.tables[0])

        def advance(u, dt):
            return k1(u, dt, np.empty_like(u), plan)
    else:
        k2 = kernels.get_kernel("godunov_sweep_2d")
        hx, hy = grid.spacing
        px = kernels.godunov_plan(grid.cells, hx, lat, flux.tables[0])
        py = kernels.godunov_plan(grid.cells, hy, lat, flux.tables[1], axis=1)

        def advance(u, dt):
            # Strang: half sweep in x, full sweep in y, half sweep in x
            out = np.empty_like(u)
            k2(u, 0.5 * dt, out, px)
            u2 = k2(out, dt, np.empty_like(u), py)
            return k2(u2, 0.5 * dt, out, px)

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

