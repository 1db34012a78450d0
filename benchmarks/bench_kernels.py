#!/usr/bin/env python3
"""Time the hot update kernels, the numpy step of each, as a run calls them.

The kernels run on the shipped scenarios (400 cells in 1-D, 128x128 in 2-D):
their tables and the mollified initial states of the ladder's members, set
up through the same calls a run makes, with the step plans built up front by
``visc_plan`` or ``godunov_plan`` as a march does (the viscous ones from the
B table, so a flat table takes the scalar path).  As in a march, each step
writes the members' states in place.

The viscous step marches a batch of members.  The shipped 1-D ladder is one
batch of four, and its step runs here with 4, 3, 2 and 1 members still
stepping (column ``members``), the leading members of the batch with each
member's own stable dt, as a march calls it between two snapshots; every
128x128 member is a batch of one.  ``dt`` is the tuple of the members'
steps, and each count of members runs in both kinds of step a march makes
(column ``dt``): a full step, whose tuple is the plan's own steps, so it
multiplies by the plan's ``dt / h``, and a landing step, whose tuple is
another (the last member's step halved), so it makes its ``dt / h`` on the
call.  Each is timed with the scenario's own constant B (column
``B/axis``: ``constant``) and with a gaussian B on the same lattice, which
reads the table at every face midpoint.  ``visc_step`` and
``godunov_step`` run under their per-dimension names, the Godunov step,
whose ``dt`` is a float, once along each axis of the state (``B/axis``:
``x``, and in 2-D also ``y``, the sweeps of a Strang step).

Each of ``--rounds`` rounds times every row for ``--steps`` calls, the rows
taken in turn so that drift of the machine's speed reaches all of them; the
table gives the median µs per call over the rounds, its interquartile
range, and the median µs per member-step (a call divided by its members).
Next to it: the minor page faults per call (``resource.getrusage``) and the
tracemalloc peak of one call, in state sizes (what a step allocates beyond
its plan).  The ``control`` row runs the same code as the 1-D one-member
constant-B full step, in every round next to it; the gap between their medians is
this machine's noise floor, printed below the table: a difference between
two rows smaller than that floor is not resolved.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--steps K] [--rounds N]
"""

import argparse
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from visclab import kernels
from visclab.config import build_scenario
from visclab.domain import make_viscosity
from visclab.harness import build_runtime
from visclab.mollify import make_kernel, mollify
from visclab.viscous import stable_dt

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_calls(name):
    """``(kernel name, B preset or axis, members, dt form, state, dt, step
    plan)`` rows: the viscous step of the scenario's ladder as one batch (a
    batch of one per member when the state is 2-D) at each count of members
    still stepping, as a full and as a landing step, then the Godunov step
    along each axis."""
    cfg = build_scenario((SCENARIOS / name).read_text())
    specs = build_runtime(cfg)
    grid, flux = specs.grid, specs.flux
    members = len(cfg.ladder) if grid.dim == 1 else 1
    rungs = list(zip(cfg.ladder, cfg.mollifier_widths))[:members]
    u = np.stack([mollify(specs.init_data,
                          make_kernel(width, grid.spacing)).values
                  for _eps, width in rungs])
    eps = [e for e, _w in rungs]
    lat = flux.lattice
    gauss = make_viscosity("gaussian", (lat.lo, lat.hi), {"r": 1.0})
    rows = []
    for visc in (specs.visc, gauss):
        dts = [stable_dt(grid, flux, visc, e, cfg.cfl) for e in eps]
        plans = kernels.visc_plan(grid.cells, grid.spacing, eps, dts, lat,
                                  flux.tables, visc.table)
        for k in range(members, 0, -1):
            forms = {"full": tuple(dts[:k]),
                     "landing": (*dts[:k - 1], 0.5 * dts[k - 1])}
            for form, dt in forms.items():
                rows.append((f"visc_step_{grid.dim}d", visc.name, k, form,
                             u[:k], dt, plans[k - 1]))
    dt0 = stable_dt(grid, flux, specs.visc, 0.0, cfg.cfl)
    kname = "godunov_step_1d" if grid.dim == 1 else "godunov_sweep_2d"
    for axis, (h, tab) in enumerate(zip(grid.spacing, flux.tables)):
        rows.append((kname, "xy"[axis], 1, "float", u[0], dt0,
                     kernels.godunov_plan(h, lat, tab, axis)))
    return rows


def bench(fn, u, dt, plan, steps):
    """(seconds, minor page faults) per call, stepping a copy of ``u`` in
    place as a march does."""
    u = u.copy()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(steps):
        fn(u, dt, u, plan)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / steps, faults / steps


def peak_states(fn, u, dt, plan):
    """tracemalloc peak of one call in place, in state sizes."""
    u = u.copy()
    tracemalloc.start()
    try:
        fn(u, dt, u, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / u.nbytes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)

    cases = []
    for scenario in ("burgers1d.cfg", "burgers2d.cfg"):
        for kname, preset, k, form, u, dt, plan in scenario_calls(scenario):
            fn = kernels.get_kernel(kname)
            fn(u.copy(), dt, np.empty_like(u), plan)  # first touch
            cases.append((kname, preset, k, form, u, dt, plan, fn))
            if (kname, preset, k, form) == ("visc_step_1d", "constant", 1,
                                            "full"):
                twin = len(cases) - 1
                cases.append((kname, "control", k, form, u, dt, plan, fn))
    samples = [[] for _ in cases]
    for _ in range(args.rounds):
        for case, got in zip(cases, samples):
            *_, u, dt, plan, fn = case
            got.append(bench(fn, u, dt, plan, args.steps))

    print(f"{'kernel':<18} {'B/axis':<9} {'members':>7} {'dt':<7} "
          f"{'cells':>8} {'median (us)':>12} {'IQR (us)':>9} "
          f"{'us/member':>10} {'faults/call':>12} {'peak (states)':>14}")
    medians = []
    for (kname, preset, k, form, u, dt, plan, fn), got in zip(cases,
                                                              samples):
        us = np.array([t for t, _ in got]) * 1e6
        q1, med, q3 = np.percentile(us, [25, 50, 75])
        medians.append(med)
        faults = float(np.median([f for _, f in got]))
        # a viscous step's state has the member axis first
        cells = "x".join(map(str, u.shape[kname.startswith("visc"):]))
        print(f"{kname:<18} {preset:<9} {k:>7} {form:<7} {cells:>8} "
              f"{med:12.1f} {q3 - q1:9.1f} {med / k:10.1f} {faults:12.1f} "
              f"{peak_states(fn, u, dt, plan):14.2f}")
    floor = abs(medians[twin + 1] / medians[twin] - 1.0)
    print(f"\nnoise floor: the control row's median is {floor:.1%} from its "
          f"twin's (same code, same state); differences below it are not "
          f"resolved")


if __name__ == "__main__":
    main()
