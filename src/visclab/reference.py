"""Inviscid reference solution: the Godunov scheme.

The boundary condition feeds a ghost value of zero through the same monotone
flux, the standard discrete realization of the boundary entropy condition on
a bounded domain.  In two dimensions the scheme is Strang splitting of 1-D
sweeps.
"""

from __future__ import annotations

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
