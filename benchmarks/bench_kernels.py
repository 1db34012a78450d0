#!/usr/bin/env python3
"""Time the hot update kernels: numba against the pure-numpy fallback.

The kernels run on the shipped scenarios (400 cells in 1-D, 128x128 in 2-D):
their tables and the mollified initial state of the largest-eps member, set
up through the same calls a run makes, with one workspace built up front as
a march does and a fresh ``out`` per call as the solvers allocate it.  Next to
the time per step it prints the minor page faults per step
(``resource.getrusage``): a kernel whose temporaries make the heap hand pages
back and fault them in again shows it here.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--steps K]
"""

import argparse
import resource
import time
from pathlib import Path

import numpy as np

from visclab import kernels
from visclab.config import build_scenario
from visclab.harness import build_runtime
from visclab.mollify import make_kernel, mollify
from visclab.viscous import stable_dt

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_calls(name):
    """``(kernel name, state, arguments between the state and out)`` pairs."""
    cfg = build_scenario((SCENARIOS / name).read_text())
    specs = build_runtime(cfg)
    grid, flux, visc = specs.grid, specs.flux, specs.visc
    u = mollify(specs.init_data, make_kernel(cfg.mollifier_widths[0],
                                             grid.spacing)).values
    eps = cfg.ladder[0]
    dt = stable_dt(grid, flux, visc, eps, cfg.cfl)
    dt0 = stable_dt(grid, flux, visc, 0.0, cfg.cfl)
    lat, tabs = flux.lattice, flux.tables
    table = (lat.lo, lat.inv_spacing)
    if grid.dim == 1:
        h = grid.spacing[0]
        return [("visc_step_1d", u, (dt, h, eps) + table
                 + (tabs[0].eo_plus, tabs[0].eo_minus, visc.table)),
                ("godunov_step_1d", u, (dt0, h) + table
                 + (tabs[0].f, tabs[0].crit_y, tabs[0].crit_f))]
    hx, hy = grid.spacing
    return [("visc_step_2d", u, (dt, hx, hy, eps) + table
             + (tabs[0].eo_plus, tabs[0].eo_minus, tabs[1].eo_plus,
                tabs[1].eo_minus, visc.table)),
            ("godunov_sweep_2d", u, (dt0, hx, 0) + table
             + (tabs[0].f, tabs[0].crit_y, tabs[0].crit_f))]


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
        for kname, u, call in scenario_calls(scenario):
            work = kernels.workspace(kname, u.shape)
            per = {b: bench(kernels.KERNELS[b][kname], u, call, work,
                            args.steps) for b in backends}
            rows.append((kname, "x".join(map(str, u.shape)), per["numpy"],
                         per.get("numba")))

    print(f"{'kernel':<18} {'cells':>8} {'numpy (us)':>11} {'faults/step':>12} "
          f"{'numba (us)':>11} {'faults/step':>12}")
    for name, cells, (tnp, fnp), nb in rows:
        tail = f" {nb[0] * 1e6:11.1f} {nb[1]:12.1f}" if nb else ""
        print(f"{name:<18} {cells:>8} {tnp * 1e6:11.1f} {fnp:12.1f}{tail}")


if __name__ == "__main__":
    main()
