"""Explicit finite-volume solver for the viscous balance law.

Scheme: Engquist-Osher upwind convection plus flux-form centered diffusion
with the face viscosity evaluated at the arithmetic mean of the adjacent
cells.  Both ingredients are monotone under the time-step bound below, which
is what gives the discrete maximum principle.  Boundary faces see a ghost
value of zero for both fluxes (homogeneous Dirichlet).

The members of a ladder march in batches (``integrate_batch``): one
batched step per time step for every member still short of the next
snapshot, each member with its own step, so that each gets the values of
its lone march (``integrate``) bit for bit.  The reference marches through
the same loop as a batch of one.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .domain import FieldTrajectory, FluxSpec, Grid, ViscositySpec

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


def _make_advance(grid: Grid, flux: FluxSpec, visc: ViscositySpec, eps):
    """The forward-Euler update ``advance(u, dt)`` of the batch of members
    with viscosities ``eps``, set up once per march together with the
    kernel's step plans, which tabulate the slopes of the tables and judge
    once whether the B table is flat (then every step reads B as one scalar).

    ``u`` holds the states of the batch's leading members and is updated in
    place: the kernel reads it into its plan's bordered state first.
    """
    kernel = kernels.get_kernel(f"visc_step_{grid.dim}d")
    plans = kernels.visc_plan(grid.cells, grid.spacing, eps, flux.lattice,
                              flux.tables, visc.table)

    def euler(u, dt):
        return kernel(u, dt, u, plans[len(u) - 1])

    return euler


def _steps(t: float, target: float, dt_base: float):
    """The steps from ``t`` to the snapshot time ``target``, each
    ``min(dt_base, target - t)`` until ``t`` is within 1e-13 (relative) of
    ``target``: ``(clock, last)``, ``clock[j]`` the time after ``j`` steps
    (``clock[0] = t``) and ``last`` the last step.  Only the last can be
    shorter than ``dt_base``: it lands on ``target``.

    The clock is ``t`` plus one ``dt_base`` after another, summed in that
    order by ``np.add.accumulate``: the sums of a loop adding the steps one
    at a time, as a march adds them.
    """
    short = target - 1e-13 * max(1.0, target)
    n = int((target - t) / dt_base) + 2 if t < short else 0
    while True:
        clock = np.full(n + 2, dt_base)
        clock[0] = t
        np.add.accumulate(clock, out=clock)
        # a full step follows clock[j] while clock[j] < short and
        # min(dt_base, target - clock[j]) is dt_base; the first j where
        # that fails is the count of full steps, if the clock reaches it
        full = (clock[:-1] < short) & (target - clock[:-1] >= dt_base)
        j = int(full.argmin())
        if not full[j]:
            break
        n *= 2
    last = dt_base
    if clock[j] < short:
        # the landing step, after which the clock is within 1e-13 of target
        last = target - float(clock[j])
        clock[j + 1] = clock[j] + last
        j += 1
    return clock[:j + 1], last


def _column(dts: list[float], ndim: int):
    """``dt`` of the members stepping: a float for one, else a column."""
    if len(dts) == 1:
        return dts[0]
    return np.array(dts).reshape((-1,) + (1,) * ndim)


def march(grid: Grid, u0: np.ndarray, times: np.ndarray, advance, dt_base,
          eps, sup_bound: float) -> list:
    """March a batch of members in lockstep, landing each exactly on every
    snapshot time; a member fails once its |u| exceeds ``sup_bound``.

    ``u0`` stacks the members' initial states, ``(members, *cells)``; member
    ``m`` steps by at most ``dt_base[m]``, which must not fall along the
    batch.  ``advance(u, dt)`` steps the leading ``k`` members, ``u`` their
    states ``(k, *cells)`` and ``dt`` a float for one member, else each
    member's step: the tuple ``dt_base[:k]``, the same tuple object on every
    full step of ``k`` members, or a column ``(k, 1, ...)`` on a landing
    step.  It updates ``u`` in place or returns the new states, and it
    leaves a member whose state is all zero at zero.

    Each member takes the steps its lone march would take, so its values,
    step count and peak |u| are those of marching it alone.  Within each
    snapshot interval the members still short of the snapshot are a leading
    run of the batch: a larger step reaches the snapshot in no more steps
    (IEEE addition is monotone), so only the leading members step.

    The bound is checked once per snapshot interval: each step folds |u|
    into a running maximum, cell by cell, and the interval's end reduces
    it.  If a member broke the bound (a NaN counts), the whole batch is set
    back to the interval's start and marches the interval again, checking
    every step, so a member fails at its lone march's step with its lone
    march's ``StepError``; its state is set to zero, which every step leaves
    zero, and the others march on.  Numpy's overflow and invalid-value
    warnings are silenced while the interval runs unchecked, since a member
    that broke the bound may step on to inf or NaN.

    Returns each member's ``FieldTrajectory``, or its ``StepError``.
    """
    u = np.array(u0, dtype=np.float64)
    dt_base = [float(d) for d in dt_base]
    if any(b < a for a, b in zip(dt_base, dt_base[1:])):
        raise ValueError("a batch's steps must not fall along it")
    times = np.asarray(times, dtype=np.float64)
    members, ndim = u.shape[0], u.ndim - 1
    snaps = [np.empty((times.size,) + u.shape[1:]) for _ in range(members)]
    limit = sup_bound + MAX_PRINCIPLE_HARD
    axes = tuple(range(1, u.ndim))
    absu = np.empty_like(u)  # |u|, written in place every step
    high = np.empty_like(u)  # the largest |u| of each cell in the interval
    lead = [u[:k] for k in range(members + 1)]  # the leading k members
    full = [dt_base[0]] + [tuple(dt_base[:k]) for k in range(2, members + 1)]
    done = [0] * members  # steps before the current interval
    outcome = [None] * members
    t = 0.0

    def fail(m, peak, taken, at):
        outcome[m] = _violation(peak, sup_bound, taken, at)
        u[m] = 0.0

    def interval(clocks, last, checked):
        """March every member ``m`` through ``len(clocks[m]) - 1`` steps, the
        last of them ``last[m]``; ``checked`` checks every step, else each
        step folds |u| into ``high``."""
        sizes = [len(c) - 1 for c in clocks]
        count = list(sizes)  # a member that fails stops counting
        i = 0
        while True:
            k = next((m + 1 for m in reversed(range(members))
                      if count[m] > i), 0)
            if not k:
                return
            # steps i .. land - 1 are full steps of every member stepping;
            # at step land one or more members land on the snapshot
            land = min(c for c in count[:k] if c > i) - 1
            rows, work, top, base = lead[k], absu[:k], high[:k], full[k - 1]
            for i in range(i, land + 1):
                dt = base if i < land else _column(
                    [last[m] if i == sizes[m] - 1 else d
                     for m, d in enumerate(dt_base[:k])], ndim)
                new = advance(rows, dt)
                if new is not rows:
                    rows[...] = new
                np.abs(rows, work)
                if not checked:
                    np.maximum(top, work, out=top)
                    continue
                peaks = np.maximum.reduce(work, axis=axes).tolist()
                for m, peak in enumerate(peaks):
                    if not peak <= limit:
                        fail(m, peak, done[m] + i + 1,
                             float(clocks[m][i + 1]))
                        count[m] = 0
                    elif peak > seen[m]:
                        seen[m] = peak
            i = land + 1

    # written so that a NaN maximum fails too, the initial state's included
    seen = np.maximum.reduce(np.abs(u, out=absu), axis=axes).tolist()
    for m, peak in enumerate(seen):
        snaps[m][0] = u[m]
        if not peak <= limit:
            fail(m, peak, 0, t)
    # Python floats: numpy scalars would slow every step of the loop
    for snap, target in enumerate(times[1:].tolist(), 1):
        clocks, last = zip(*(_steps(t, target, d) if outcome[m] is None
                             else ((t,), d) for m, d in enumerate(dt_base)))
        high.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            interval(clocks, last, False)
        peaks = np.maximum.reduce(high, axis=axes).tolist()
        if all(peak <= limit for peak in peaks):
            for m, peak in enumerate(peaks):
                if peak > seen[m]:
                    seen[m] = peak
        else:
            # back to the interval's start, to march it checking every step
            for m in range(members):
                u[m] = snaps[m][snap - 1] if outcome[m] is None else 0.0
            interval(clocks, last, True)
        t = target
        for m in range(members):
            if outcome[m] is None:
                done[m] += len(clocks[m]) - 1
                snaps[m][snap] = u[m]
    return [out if out is not None else FieldTrajectory(
        grid, times, snaps[m], epsilon=eps[m], dt=dt_base[m],
        steps_taken=done[m], max_abs_seen=seen[m])
        for m, out in enumerate(outcome)]


def _violation(m: float, sup_bound: float, step: int, t: float) -> StepError:
    return StepError(f"discrete maximum principle violated: |u| = {m} > "
                     f"{sup_bound} at step {step}, t = {t}", step=step, time=t)


def lone(outcomes: list) -> FieldTrajectory:
    """The trajectory of a batch of one; raises its ``StepError``."""
    (out,) = outcomes
    if isinstance(out, StepError):
        raise out
    return out


def integrate_batch(grid: Grid, u0: np.ndarray, flux: FluxSpec,
                    visc: ViscositySpec, eps, cfl: float,
                    snapshot_times: np.ndarray, *, sup_bound: float) -> list:
    """March the members with the strictly decreasing viscosities ``eps``
    from their initial states ``u0``, ``(members, *cells)``, to the horizon
    with forward Euler, in lockstep (see ``march``)."""
    return march(grid, u0, snapshot_times,
                 _make_advance(grid, flux, visc, eps),
                 [stable_dt(grid, flux, visc, e, cfl) for e in eps], eps,
                 sup_bound)


def integrate(grid: Grid, u0: np.ndarray, flux: FluxSpec, visc: ViscositySpec,
              eps: float, cfl: float, snapshot_times: np.ndarray, *,
              sup_bound: float) -> FieldTrajectory:
    """March one member to the horizon with forward Euler, landing exactly on
    each snapshot time; fails hard once |u| exceeds ``sup_bound``."""
    return lone(integrate_batch(grid, np.asarray(u0)[None], flux, visc,
                                (eps,), cfl, snapshot_times,
                                sup_bound=sup_bound))


def snapshot_times(time_horizon: float, intervals: int) -> np.ndarray:
    return np.linspace(0.0, time_horizon, intervals + 1)
