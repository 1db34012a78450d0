"""Inviscid reference solution: the Godunov scheme.

The boundary condition feeds a ghost value of zero through the same monotone
flux, the standard discrete realization of the boundary entropy condition on
a bounded domain.  In d dimensions a step is Strang splitting of the 1-D
Godunov step over the grid's axes: half steps along axes 0..d-2, a full step
along the last axis, then the half steps again in reverse order.  In 1-D
that is one Godunov step, in 2-D a half step in x, a full step in y and a
half step in x.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .domain import FieldTrajectory, FluxSpec, Grid, ViscositySpec
from .viscous import lone, march, stable_dt

# the name the step is looked up under, one per dimension
KERNEL_NAMES = {1: "godunov_step_1d", 2: "godunov_sweep_2d"}


def solve_reference(grid: Grid, flux: FluxSpec, visc: ViscositySpec,
                    u0: np.ndarray, cfl: float,
                    snapshot_times: np.ndarray) -> FieldTrajectory:
    """Entropy-solution candidate on the same snapshot lattice, epsilon = 0,
    marched as a batch of one."""
    step = kernels.get_kernel(KERNEL_NAMES[grid.dim])
    # axis 0 of the march's state is the batch's
    *halves, last = [
        kernels.godunov_plan(h, flux.lattice, tab, axis + 1)
        for axis, (h, tab) in enumerate(zip(grid.spacing, flux.tables))]
    plans = (*halves, last, *halves[::-1])

    def advance(u, steps):
        # in place: a step reads the state into its padded copy first
        (dt,) = steps
        half = 0.5 * dt
        for plan in plans:
            step(u, dt if plan is last else half, u, plan)

    return lone(march(grid, np.asarray(u0)[None], snapshot_times, advance,
                      (stable_dt(grid, flux, visc, eps=0.0, cfl=cfl),),
                      (0.0,), float(np.max(np.abs(u0)))))
