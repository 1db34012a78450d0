"""Distances to the reference solution and rate fits across the ladder."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import FieldTrajectory
from .norms import finite, mass_of_snapshots, snapshot_blocks, time_weights


def _check_matched(a: FieldTrajectory, b: FieldTrajectory) -> None:
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("trajectories have different snapshot times")


def _l1_sums(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Per-snapshot sums of ``|a - b|`` over the cells of a block of
    snapshots, ``snapshot_l1`` of the difference; ``|a - b|`` is formed in
    ``out`` (which may be ``a``) when given.  A snapshot's sum does not
    depend on the block, so sums taken block by block are those of the
    whole difference."""
    diff = finite(np.subtract(a, b, out=out))
    return np.sum(np.abs(diff, out=diff), axis=tuple(range(1, diff.ndim)))


def l1_distance(a: FieldTrajectory, b: FieldTrajectory) -> float:
    """Space-time L1 norm of the difference of two matched trajectories."""
    _check_matched(a, b)
    # block by block, so the difference is never held whole: the value
    # measure_norm gives on the whole of it
    sums = np.empty(a.times.size)
    for blk in snapshot_blocks(a.values):
        sums[blk] = _l1_sums(a.values[blk], b.values[blk])
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


def build_convergence_report(members: Iterable,
                             reference: FieldTrajectory) -> ConvergenceReport:
    """Distances of the ladder ``members`` (each an ``io.StoredTrajectory``,
    in ladder order) to the reference and between neighbours: for each, its
    ``l1_distance`` to the reference and to the member before it.

    The members are read in blocks of whole snapshots, a member's next to
    the same block of the member before it (read again), into two buffers
    of the rows of one block, where each difference is then formed: the
    walk holds the reference and one block of each of two members.
    Per-snapshot sums do not depend on the block, so every distance is that
    of the whole trajectories.
    """
    blocks = snapshot_blocks(reference.values)
    bufs = [np.empty((blocks[0].stop,) + reference.grid.cells) for _ in "ab"]
    # the cell volume and time weights of the space-time integral
    measure = (reference.grid.cell_volume, time_weights(reference.times))
    eps, errors, gaps = [], [], []
    prev = None
    for member in members:
        _check_matched(member.header, reference)
        sums = np.zeros((2, reference.times.size))
        for blk in blocks:
            cur = member.read(blk, bufs[0])
            if prev is not None:
                old = prev.read(blk, bufs[1])
                sums[1, blk] = _l1_sums(old, cur, old)
            sums[0, blk] = _l1_sums(cur, reference.values[blk], cur)
        eps.append(member.header.epsilon)
        errors.append(mass_of_snapshots(sums[0], *measure))
        gaps.append(mass_of_snapshots(sums[1], *measure))
        prev = member
    cauchy = list(zip(eps, gaps[1:]))
    cauchy_fit = fit_rate(cauchy) if len(cauchy) >= 3 else None
    return ConvergenceReport(tuple(eps), tuple(errors), tuple(cauchy),
                             cauchy_fit)
