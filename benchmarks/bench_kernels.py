#!/usr/bin/env python3
"""Time the hot update kernels, the numpy step of each.

The kernels run on the shipped scenarios (400 cells in 1-D, 128x128 in 2-D):
their tables and the mollified initial state of the largest-eps member, set
up through the same calls a run makes, with one step plan built up front by
``visc_plan`` or ``godunov_plan`` as a march does (the viscous one from the B
table, so a flat table takes the scalar path) and two ``out`` buffers taken
in turn, as ``viscous._make_advance`` hands them to the kernel.
``visc_step`` and ``godunov_step`` run under their per-dimension names, the
Godunov step once along each axis of the state (column ``B/axis``: ``x``,
and in 2-D also ``y``, the sweeps of a Strang step).  Each scenario's
viscous kernel is timed twice: with its own constant B (column ``B/axis``:
``constant``) and with a gaussian B on the same lattice, which reads the
table at every face midpoint.

Only the viscous plan holds buffers, so only the viscous rows should show
no allocation: a run makes tens of thousands of viscous steps and a few
hundred Godunov steps, and the Godunov step allocates its temporaries (its
peak is about five state sizes).  Its rows here are that step in isolation,
taken in turn with the other rows; inside the reference's own march the
same step pays no more page faults than the buffered one it replaced.

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
    """``(kernel name, B preset or axis, state, dt, step plan)`` rows."""
    cfg = build_scenario((SCENARIOS / name).read_text())
    specs = build_runtime(cfg)
    grid, flux = specs.grid, specs.flux
    u = mollify(specs.init_data, make_kernel(cfg.mollifier_widths[0],
                                             grid.spacing)).values
    eps = cfg.ladder[0]
    lat = flux.lattice
    gauss = make_viscosity("gaussian", (lat.lo, lat.hi), {"r": 1.0})
    rows = []
    for visc in (specs.visc, gauss):
        rows.append((f"visc_step_{grid.dim}d", visc.name, u,
                     stable_dt(grid, flux, visc, eps, cfg.cfl),
                     kernels.visc_plan(grid.cells, grid.spacing, eps, lat,
                                       flux.tables, visc.table)))
    dt0 = stable_dt(grid, flux, specs.visc, 0.0, cfg.cfl)
    kname = "godunov_step_1d" if grid.dim == 1 else "godunov_sweep_2d"
    for axis, (h, tab) in enumerate(zip(grid.spacing, flux.tables)):
        rows.append((kname, "xy"[axis], u, dt0,
                     kernels.godunov_plan(h, lat, tab, axis)))
    return rows


def bench(fn, u, dt, plan, steps):
    """(seconds, minor page faults) per step."""
    outs = (np.empty_like(u), np.empty_like(u))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for i in range(steps):
        fn(u, dt, outs[i % 2], plan)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / steps, faults / steps


def peak_states(fn, u, dt, plan):
    """tracemalloc peak of one call into a preallocated ``out``, in state
    sizes."""
    out = np.empty_like(u)
    tracemalloc.start()
    try:
        fn(u, dt, out, plan)
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
        for kname, preset, u, dt, plan in scenario_calls(scenario):
            fn = kernels.get_kernel(kname)
            fn(u, dt, np.empty_like(u), plan)  # first touch
            cases.append((kname, preset, u, dt, plan, fn))
    samples = [[] for _ in cases]
    for _ in range(args.rounds):
        for case, got in zip(cases, samples):
            _k, _p, u, dt, plan, fn = case
            got.append(bench(fn, u, dt, plan, args.steps))

    print(f"{'kernel':<18} {'B/axis':<9} {'cells':>8} "
          f"{'median (us)':>12} {'IQR (us)':>9} {'faults/step':>12} "
          f"{'peak (states)':>14}")
    for (kname, preset, u, dt, plan, fn), got in zip(cases, samples):
        us = np.array([t for t, _ in got]) * 1e6
        q1, med, q3 = np.percentile(us, [25, 50, 75])
        faults = float(np.median([f for _, f in got]))
        cells = "x".join(map(str, u.shape))
        print(f"{kname:<18} {preset:<9} {cells:>8} {med:12.1f} "
              f"{q3 - q1:9.1f} {faults:12.1f} "
              f"{peak_states(fn, u, dt, plan):14.2f}")

if __name__ == "__main__":
    main()
