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

Revision mode (``--rev REV``): the committed ``src/visclab`` of REV is
extracted (``git archive``) into a temporary directory and imported under
another name, next to the working tree's package, in one interpreter.
Each side builds its own runtime and step plans of the full viscous steps
above (both B tables, every count of members), and each round times, in an
order that rotates from round to round, a block of ``--steps`` calls of
REV's ``visc_step``, of the working tree's, and of the working tree's again
on plans of its own (the control), each from the same mollified state.  The
table gives each side's median µs per call with its quartiles, the ratio of
the medians and how many rounds each side won; the control's ratio and
wins are the noise floor of the comparison.  Every block's stepped states
must be the same bytes on all three sides; the mode exits 1 when any
differ, else 0.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--steps K] [--rounds N]
    PYTHONPATH=src python benchmarks/bench_kernels.py --rev REV [--steps K]
        [--rounds N]
"""

import argparse
import importlib
import importlib.util
import io
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
MODULES = ("config", "domain", "harness", "kernels", "mollify", "viscous")


def package_modules(name="visclab"):
    """The modules of the package ``name`` that the benchmark calls."""
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in MODULES})


def load_package(src: Path, name: str):
    """The ``visclab`` package under the source directory ``src``, imported
    as ``name``; its modules import each other relatively, so they load from
    ``src`` too."""
    init = src / "visclab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return package_modules(name)


def scenario_calls(name, v=None):
    """``(kernel name, B preset or axis, members, dt form, state, dt, step
    plan)`` rows: the viscous step of the scenario's ladder as one batch (a
    batch of one per member when the state is 2-D) at each count of members
    still stepping, as a full and as a landing step, then the Godunov step
    along each axis.  ``v`` holds the modules that build them
    (``package_modules``; the working tree's when not given)."""
    v = v or package_modules()
    cfg = v.config.build_scenario((SCENARIOS / name).read_text())
    specs = v.harness.build_runtime(cfg)
    grid, flux = specs.grid, specs.flux
    members = len(cfg.ladder) if grid.dim == 1 else 1
    rungs = list(zip(cfg.ladder, cfg.mollifier_widths))[:members]
    u = np.stack([v.mollify.mollify(specs.init_data,
                                    v.mollify.make_kernel(width, grid.spacing))
                  for _eps, width in rungs])
    eps = [e for e, _w in rungs]
    lat = flux.lattice
    gauss = v.domain.make_viscosity("gaussian", (lat.lo, lat.hi), {"r": 1.0})
    rows = []
    for visc in (specs.visc, gauss):
        dts = [v.viscous.stable_dt(grid, flux, visc, e, cfg.cfl) for e in eps]
        plans = v.kernels.visc_plan(grid.cells, grid.spacing, eps, dts, lat,
                                    flux.tables, visc.table)
        for k in range(members, 0, -1):
            forms = {"full": tuple(dts[:k]),
                     "landing": (*dts[:k - 1], 0.5 * dts[k - 1])}
            for form, dt in forms.items():
                rows.append((f"visc_step_{grid.dim}d", visc.name, k, form,
                             u[:k], dt, plans[k - 1]))
    dt0 = v.viscous.stable_dt(grid, flux, specs.visc, 0.0, cfg.cfl)
    kname = "godunov_step_1d" if grid.dim == 1 else "godunov_sweep_2d"
    for axis, (h, tab) in enumerate(zip(grid.spacing, flux.tables)):
        rows.append((kname, "xy"[axis], 1, "float", u[0], dt0,
                     v.kernels.godunov_plan(h, lat, tab, axis)))
    return rows


def bench(fn, u, dt, plan, steps):
    """(seconds, minor page faults) per call, stepping a copy of ``u`` in
    place as a march does, and the stepped copy."""
    u = u.copy()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(steps):
        fn(u, dt, u, plan)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / steps, faults / steps, u


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


def extract(rev: str, dest: Path) -> Path:
    """The committed ``src`` of ``rev``, extracted under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/visclab"], cwd=ROOT,
        capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def visc_full_steps(v):
    """``(row label, state, dt, plan, visc_step)`` of every full viscous
    step of ``scenario_calls`` on both shipped scenarios, built by the
    modules ``v``."""
    return [(f"{kname} {preset} {k}", u, dt, plan, v.kernels.visc_step)
            for scenario in ("burgers1d.cfg", "burgers2d.cfg")
            for kname, preset, k, form, u, dt, plan
            in scenario_calls(scenario, v)
            if kname.startswith("visc") and form == "full"]


def compare_trees(rev_src: Path, steps: int, rounds: int) -> int:
    """Interleaved blocks of the full viscous steps of the package under
    ``rev_src`` (``rev``), of the working tree's (``work``) and of the
    working tree's on plans of its own (``control``); prints the table and
    returns 1 when any block's stepped states differ between the sides,
    else 0."""
    sides = {"rev": visc_full_steps(load_package(rev_src, "visclab_rev")),
             "work": visc_full_steps(package_modules()),
             "control": visc_full_steps(package_modules())}
    names = list(sides)
    times = {side: [[] for _ in sides[side]] for side in names}
    differ = set()
    for r in range(rounds):
        order = names[r % 3:] + names[:r % 3]
        for i in range(len(sides["work"])):
            states = {}
            for side in order:
                _label, u, dt, plan, fn = sides[side][i]
                t, _faults, states[side] = bench(fn, u, dt, plan, steps)
                times[side][i].append(t * 1e6)
            if len({states[side].tobytes() for side in names}) > 1:
                differ.add(i)

    def stats(us):
        return np.percentile(us, [50, 25, 75])

    print(f"{'kernel, B, members':<28} {'rev (us) [q1, q3]':>24} "
          f"{'work (us) [q1, q3]':>24} {'work/rev':>8} {'work won':>8} "
          f"{'control/work':>12} {'control won':>11} {'bytes':>6}")
    for i, (label, *_rest) in enumerate(sides["work"]):
        rev, work, ctrl = (np.array(times[side][i]) for side in names)
        (mr, r1, r3), (mw, w1, w3) = stats(rev), stats(work)
        print(f"{label:<28} {mr:9.1f} [{r1:6.1f}, {r3:6.1f}] "
              f"{mw:9.1f} [{w1:6.1f}, {w3:6.1f}] {mw / mr:8.3f} "
              f"{int((work < rev).sum()):>5}/{rounds:<2} "
              f"{stats(ctrl)[0] / mw:12.3f} "
              f"{int((ctrl < work).sum()):>8}/{rounds:<2} "
              f"{'DIFFER' if i in differ else 'same':>6}")
    print(f"\n{len(differ)} of {len(sides['work'])} rows step to states "
          f"that differ" if differ else "\nsame bytes: every block's "
          f"stepped states are equal on all three sides")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--rounds", type=int,
                    help="rounds of blocks (default 5, or 20 with --rev)")
    ap.add_argument("--rev", help="a git revision whose viscous step to "
                    "time against the working tree's")
    args = ap.parse_args(argv)
    if args.rev is not None:
        with tempfile.TemporaryDirectory(prefix="bench_kernels_") as tmp:
            return compare_trees(extract(args.rev, Path(tmp)), args.steps,
                                 args.rounds or 20)
    rounds = args.rounds or 5

    kernels = package_modules().kernels
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
    for _ in range(rounds):
        for case, got in zip(cases, samples):
            *_, u, dt, plan, fn = case
            got.append(bench(fn, u, dt, plan, args.steps)[:2])

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
    sys.exit(main())
