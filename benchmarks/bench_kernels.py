#!/usr/bin/env python3
"""Time the hot update kernels: numba against the pure-numpy fallback.

The kernels run on the shipped scenarios (400 cells in 1-D, 128x128 in 2-D):
their tables and the mollified initial state of the largest-eps member, set
up through the same calls a run makes, with one workspace built up front as
a march does (the viscous one from the B table, so a flat table takes the
scalar path) and a fresh ``out`` per call as the solvers allocate it.  Each
scenario's viscous kernel is timed twice: with its own constant B (``B``
column ``constant``) and with a gaussian B on the same lattice, which reads
the table at every face midpoint.  Next to the time per step it prints the
minor page faults per step (``resource.getrusage``): a kernel whose
temporaries make the heap hand pages back and fault them in again shows it
here.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--steps K]
"""

import argparse
import resource
import time
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
    B table for the workspace)`` rows."""
    cfg = build_scenario((SCENARIOS / name).read_text())
    specs = build_runtime(cfg)
    grid, flux = specs.grid, specs.flux
    u = mollify(specs.init_data, make_kernel(cfg.mollifier_widths[0],
                                             grid.spacing)).values
    eps = cfg.ladder[0]
    dt0 = stable_dt(grid, flux, specs.visc, 0.0, cfg.cfl)
    lat, tabs = flux.lattice, flux.tables
    table = (lat.lo, lat.inv_spacing)
    gauss = make_viscosity("gaussian", (lat.lo, lat.hi), {"r": 1.0})
    rows = []
    for visc in (specs.visc, gauss):
        dt = stable_dt(grid, flux, visc, eps, cfg.cfl)
        if grid.dim == 1:
            call = ((dt, grid.spacing[0], eps) + table
                    + (tabs[0].eo_plus, tabs[0].eo_minus, visc.table))
        else:
            call = ((dt,) + grid.spacing + (eps,) + table
                    + (tabs[0].eo_plus, tabs[0].eo_minus, tabs[1].eo_plus,
                       tabs[1].eo_minus, visc.table))
        rows.append((f"visc_step_{grid.dim}d", visc.name, u, call, visc.table))
    if grid.dim == 1:
        rows.append(("godunov_step_1d", "-", u, (dt0, grid.spacing[0]) + table
                     + (tabs[0].f, tabs[0].crit_y, tabs[0].crit_f), None))
    else:
        rows.append(("godunov_sweep_2d", "-", u, (dt0, grid.spacing[0], 0)
                     + table + (tabs[0].f, tabs[0].crit_y, tabs[0].crit_f),
                     None))
    return rows


def bench(fn, u, args, work, steps):
    """(seconds, minor page faults) per step."""
    fn(u, *args, np.empty_like(u), work)  # warm up (JIT compile / first touch)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(steps):
        fn(u, *args, np.empty_like(u), work)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / steps, faults / steps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=300)
    args = ap.parse_args()

    backends = ["numpy"]
    if kernels.HAVE_NUMBA:
        backends.append("numba")
    else:
        print("numba not importable; timing the numpy path only")

    rows = []
    for scenario in ("burgers1d.cfg", "burgers2d.cfg"):
        for kname, preset, u, call, btab in scenario_calls(scenario):
            work = kernels.workspace(kname, u.shape, btab)
            per = {b: bench(kernels.KERNELS[b][kname], u, call, work,
                            args.steps) for b in backends}
            rows.append((kname, preset, "x".join(map(str, u.shape)),
                         per["numpy"], per.get("numba")))

    print(f"{'kernel':<18} {'B':<9} {'cells':>8} {'numpy (us)':>11} "
          f"{'faults/step':>12} {'numba (us)':>11} {'faults/step':>12}")
    for name, preset, cells, (tnp, fnp), nb in rows:
        tail = f" {nb[0] * 1e6:11.1f} {nb[1]:12.1f}" if nb else ""
        print(f"{name:<18} {preset:<9} {cells:>8} {tnp * 1e6:11.1f} "
              f"{fnp:12.1f}{tail}")


if __name__ == "__main__":
    main()
