"""Discrete functional norms over the space-time cylinder.

Space axes carry cell-centered samples with a homogeneous Dirichlet condition
at the domain faces (ghost reflection, so the face value is exactly zero);
the time axis carries node samples whose first and last entries lie on the
cylinder boundary.  The negative-order norm is computed through the dual
characterization: solve the Poisson problem -Lap phi = g with zero boundary
values on every face of the cylinder and return the energy norm of phi.  The
structured stencil diagonalizes in discrete sine bases, so the solve is exact
(a direct method) and costs one forward and one inverse fast transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, idst

from .domain import Field, Grid


@dataclass(frozen=True)
class SpaceTimeField:
    """A scalar field sampled on the snapshot lattice of a trajectory."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # (num_times, *cells)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (t.size,) + self.grid.cells:
            raise ValueError("space-time field shape mismatch")
        if not np.all(np.isfinite(v)):
            raise ValueError("space-time field has non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def time_weights(self) -> np.ndarray:
        """Trapezoid weights over the snapshot times (they sum to T)."""
        t = self.times
        w = np.zeros_like(t)
        w[:-1] += 0.5 * np.diff(t)
        w[1:] += 0.5 * np.diff(t)
        return w


def lp_norm(stf: SpaceTimeField, p) -> float:
    """Riemann-sum norm with cell volumes; trapezoid weights in time."""
    v = stf.values
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(v)))
    if p not in (1, 2):
        raise ValueError("only p in {1, 2, inf} is supported")
    cell = stf.grid.cell_volume
    w = stf.time_weights()
    per_snap = np.sum(np.abs(v) ** p, axis=tuple(range(1, v.ndim))) * cell
    total = float(np.sum(per_snap * w))
    return total if p == 1 else float(np.sqrt(total))


def measure_norm(stf: SpaceTimeField) -> float:
    """Total-mass surrogate: the L1 norm bounds the measure norm."""
    return lp_norm(stf, 1)


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


# ---------------------------------------------------------------------------
# Dirichlet Poisson solve in sine bases


def _eigenvalues(n: int, h: float, kind: str) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=np.float64)
    if kind == "cell":
        return (2.0 - 2.0 * np.cos(k * np.pi / n)) / h**2
    if kind == "node":
        return (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2
    raise ValueError(f"unknown axis kind {kind!r}")


_DST_TYPE = {"cell": 2, "node": 1}


def dirichlet_poisson_solve(g: np.ndarray, spacings, kinds) -> np.ndarray:
    """Exact solve of the 2d+1-point Dirichlet Laplacian on a box lattice.

    ``kinds[j]`` is 'cell' for cell-centered axes (zero at the half-spacing
    face) or 'node' for node axes (zero one spacing beyond the end samples).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != len(spacings) or g.ndim != len(kinds):
        raise ValueError("spacings/kinds arity must match array rank")
    coef = g
    lam = None
    for axis, (h, kind) in enumerate(zip(spacings, kinds)):
        coef = dst(coef, type=_DST_TYPE[kind], norm="ortho", axis=axis)
        ev = _eigenvalues(g.shape[axis], h, kind)
        shape = [1] * g.ndim
        shape[axis] = g.shape[axis]
        ev = ev.reshape(shape)
        lam = ev if lam is None else lam + ev
    coef = coef / lam
    for axis, (h, kind) in enumerate(zip(spacings, kinds)):
        coef = idst(coef, type=_DST_TYPE[kind], norm="ortho", axis=axis)
    return coef


def dirichlet_grad_norm(phi: np.ndarray, spacings, kinds) -> float:
    """Discrete H1_0 seminorm matching the stencil energy identity.

    Includes the boundary faces: for cell axes the zero face sits half a
    spacing outside the end samples, for node axes one full spacing outside.
    ``sum(g * phi) * cellvol`` equals the square of this norm when
    ``-Lap phi = g``.
    """
    phi = np.asarray(phi, dtype=np.float64)
    cellvol = float(np.prod(spacings))
    total = 0.0
    for axis, (h, kind) in enumerate(zip(spacings, kinds)):
        d = np.diff(phi, axis=axis)
        s = float(np.sum(d * d))
        first = np.take(phi, 0, axis=axis)
        last = np.take(phi, -1, axis=axis)
        if kind == "cell":
            s += 2.0 * float(np.sum(first * first) + np.sum(last * last))
        else:
            s += float(np.sum(first * first) + np.sum(last * last))
        total += s / h**2
    return float(np.sqrt(total * cellvol))


def dirichlet_dual_norm(g: np.ndarray, spacings, kinds) -> float:
    """Energy norm of the Poisson solution; the dual-norm characterization."""
    phi = dirichlet_poisson_solve(g, spacings, kinds)
    return dirichlet_grad_norm(phi, spacings, kinds)


def h_minus_one_norm(stf: SpaceTimeField) -> float:
    """Negative-order Sobolev norm of a space-time residual field.

    The first and last snapshots lie on the cylinder boundary, where the test
    functions vanish, so only interior time slices enter the solve.
    """
    if stf.times.size < 3:
        raise ValueError("need at least 3 snapshots for the space-time solve")
    steps = np.diff(stf.times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    dt = float(steps[0])
    interior = stf.values[1:-1]
    # reorder to (space..., time) so axis kinds read (cell..., node)
    arr = np.moveaxis(interior, 0, -1)
    spacings = tuple(stf.grid.spacing) + (dt,)
    kinds = ("cell",) * stf.grid.dim + ("node",)
    return dirichlet_dual_norm(arr, spacings, kinds)
