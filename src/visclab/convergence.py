"""Distances to the reference solution and rate fits across the ladder."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import FieldTrajectory
from .norms import (mass_of_snapshots, snapshot_blocks, snapshot_l1,
                    time_weights)


def l1_distance(a: FieldTrajectory, b: FieldTrajectory) -> float:
    """Space-time L1 norm of the difference of two matched trajectories."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("trajectories have different snapshot times")
    # per-snapshot sums of |a - b| block by block, so the difference is
    # never held whole: the value measure_norm gives on the whole of it
    sums = np.empty(a.times.size)
    for blk in snapshot_blocks(a.values):
        diff = a.values[blk] - b.values[blk]
        if not np.all(np.isfinite(diff)):
            raise ValueError("space-time field has non-finite entries")
        sums[blk] = snapshot_l1(diff)
    return mass_of_snapshots(sums, a.grid.cell_volume, time_weights(a.times))


@dataclass(frozen=True)
class RateFit:
    rate: float
    residual: float     # max |log error - fitted line| over the points
    exact: bool = False # some error was zero: exact-convergence sentinel


def fit_rate(pairs) -> RateFit:
    """Least-squares slope of log(error) against log(eps)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 ladder points for a rate fit")
    eps = np.array([p[0] for p in pairs], dtype=np.float64)
    err = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(err <= 0.0):
        return RateFit(math.inf, 0.0, exact=True)
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return RateFit(float(slope), resid)


@dataclass(frozen=True)
class ConvergenceReport:
    epsilons: tuple[float, ...]
    errors_vs_reference: tuple[float, ...]
    cauchy_pairs: tuple[tuple[float, float], ...]  # (eps_k, d(u_k, u_{k+1}))
    cauchy_fit: RateFit | None


def build_convergence_report(trajs: Iterable[FieldTrajectory],
                             reference: FieldTrajectory) -> ConvergenceReport:
    """Distances of the ladder ``trajs`` to the reference and between
    neighbours, taking the members in turn: an iterator that loads each one
    keeps at most two of them alive."""
    eps, errors, cauchy = [], [], []
    prev = None
    for traj in trajs:
        eps.append(traj.epsilon)
        errors.append(l1_distance(traj, reference))
        if prev is not None:
            cauchy.append((prev.epsilon, l1_distance(prev, traj)))
        prev = traj
    cauchy_fit = fit_rate(cauchy) if len(cauchy) >= 3 else None
    return ConvergenceReport(tuple(eps), tuple(errors), tuple(cauchy),
                             cauchy_fit)
