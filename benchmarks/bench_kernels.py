#!/usr/bin/env python3
"""Time the hot update kernels, the numpy step of each.

The kernels run on the shipped scenarios (400 cells in 1-D, 128x128 in 2-D):
their tables and the mollified initial state of the largest-eps member, set
up through the same calls a run makes, with one step plan built up front as a
march does (the viscous one from the B table, so a flat table takes the
scalar path) and a fresh ``out`` per call as the solvers allocate it.  Each
scenario's viscous kernel is timed twice: with its own constant B (``B``
column ``constant``) and with a gaussian B on the same lattice, which reads
the table at every face midpoint.

Each of ``--rounds`` rounds times every row for ``--steps`` calls, the rows
taken in turn so that drift of the machine's speed reaches all of them; the
table gives the median µs per step over the rounds and its interquartile
range (single samples drift by about ±20 % on a shared VM).  Next to it: the
minor page faults per step (``resource.getrusage``; a kernel whose
temporaries make the heap hand pages back and fault them in again shows it
here) and the tracemalloc peak of one call with a preallocated ``out``, in
state sizes (what a step allocates beyond its plan).

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--steps K] [--rounds N]
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
    """``(kernel name, B preset, state, arguments between the state and out,
    tables of the step plan)`` rows."""
    cfg = build_scenario((SCENARIOS / name).read_text())
    specs = build_runtime(cfg)
    grid, flux = specs.grid, specs.flux
    u = mollify(specs.init_data, make_kernel(cfg.mollifier_widths[0],
                                             grid.spacing)).values
    eps = cfg.ladder[0]
    dt0 = stable_dt(grid, flux, specs.visc, 0.0, cfg.cfl)
    lat, tabs = flux.lattice, flux.tables[:grid.dim]
    table = (lat.lo, lat.inv_spacing)
    eo = tuple(t for tab in tabs for t in (tab.eo_plus, tab.eo_minus))
    gauss = make_viscosity("gaussian", (lat.lo, lat.hi), {"r": 1.0})
    rows = []
    for visc in (specs.visc, gauss):
        dt = stable_dt(grid, flux, visc, eps, cfg.cfl)
        call = (dt,) + grid.spacing + (eps,) + table + eo + (visc.table,)
        rows.append((f"visc_step_{grid.dim}d", visc.name, u, call,
                     eo + (visc.table,)))
    f = tabs[0]
    if grid.dim == 1:
        rows.append(("godunov_step_1d", "-", u, (dt0, grid.spacing[0]) + table
                     + (f.f, f.crit_y, f.crit_f), (f.f,)))
    else:
        rows.append(("godunov_sweep_2d", "-", u, (dt0, grid.spacing[0], 0)
                     + table + (f.f, f.crit_y, f.crit_f),
                     tuple(t.f for t in tabs)))
    return rows


def bench(fn, u, args, work, steps):
    """(seconds, minor page faults) per step."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(steps):
        fn(u, *args, np.empty_like(u), work)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / steps, faults / steps


def peak_states(fn, u, args, work):
    """tracemalloc peak of one call into a preallocated ``out``, in state
    sizes."""
    out = np.empty_like(u)
    tracemalloc.start()
    try:
        fn(u, *args, out, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / u.nbytes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()

    cases = []
    for scenario in ("burgers1d.cfg", "burgers2d.cfg"):
        for kname, preset, u, call, tabs in scenario_calls(scenario):
            work = kernels.workspace(kname, u.shape, tabs)
            fn = kernels.get_kernel(kname)
            fn(u, *call, np.empty_like(u), work)  # first touch
            cases.append((kname, preset, u, call, work, fn))
    samples = [[] for _ in cases]
    for _ in range(args.rounds):
        for case, got in zip(cases, samples):
            _k, _p, u, call, work, fn = case
            got.append(bench(fn, u, call, work, args.steps))

    print(f"{'kernel':<18} {'B':<9} {'cells':>8} "
          f"{'median (us)':>12} {'IQR (us)':>9} {'faults/step':>12} "
          f"{'peak (states)':>14}")
    for (kname, preset, u, call, work, fn), got in zip(cases, samples):
        us = np.array([t for t, _ in got]) * 1e6
        q1, med, q3 = np.percentile(us, [25, 50, 75])
        faults = float(np.median([f for _, f in got]))
        cells = "x".join(map(str, u.shape))
        print(f"{kname:<18} {preset:<9} {cells:>8} {med:12.1f} "
              f"{q3 - q1:9.1f} {faults:12.1f} "
              f"{peak_states(fn, u, call, work):14.2f}")


if __name__ == "__main__":
    main()
