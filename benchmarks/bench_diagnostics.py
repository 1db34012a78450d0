#!/usr/bin/env python3
"""Time and transient memory of each diagnostic instrument on a stored run.

Each run directory given (written by ``visclab run``, for example of
scenarios/burgers1d.cfg and scenarios/burgers2d.cfg) is opened the way
``visclab verify`` opens it, and its finest member is loaded.  Every
instrument then runs once untraced, for its wall time and the minor page
faults of the process during the call.  The run is then opened again with
``tracemalloc`` on from the start, and every instrument runs once more, for
the peak of memory it allocates above what was live before the call, and
for that live memory plus the peak: the high-water mark of traced memory
during the call, with the runtime, the finest member and every member's
diagnostics held.  That is what ``visclab verify`` holds, since it loads
one member at a time (the convergence report reads the members in blocks
of snapshots, next to the reference).  The row with the largest live +
peak names the stage that sets the script's high-water mark.  Peaks are
printed in MB and in copies of one space-time field (snapshots x cells x 8
bytes), which is the unit the per-snapshot blocking of ``compactness`` is
judged in.  The last column is the process's peak resident set
(``ru_maxrss``) after the row's untraced calls: it only grows, so the rows
that raise it are those that set the process's peak, which tracemalloc
alone does not show when several stages tie.

The instruments run on the finest member (``decompose_production`` with all
of its entropy pairs in one call, as ``member_diagnostics`` calls it,
``grad_energy_lhs``), on the run's lattice (``synthetic_divcurl``), and on
the stored ladder and reference (``attach_c_field``,
``compensated_D_field``, ``build_convergence_report`` and ``assess``,
whose rows make the calls ``assess`` makes, loading the members they
read).

A second table times ``h_minus_one_norm`` alone on the divergence part ``A``
of each entropy pair of the finest member, as ``decompose_production`` hands
it over, in place, with the buffers its pairs share: the best and the median
of 20 calls in ms, the minor faults per call over those calls, and one
traced peak.

A last table times ``mollify`` of the run's initial data with the kernel of
each mollifier width of the ladder: the best of 5 calls in ms, and the traced
peak in MB and in copies of one state (cells x 8 bytes).

Usage: PYTHONPATH=src python benchmarks/bench_diagnostics.py RUNDIR [RUNDIR ...]
"""

import argparse
import resource
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from visclab import compactness, harness, io
from visclab.compactness import (attach_c_field, build_compensated_quad,
                                 compensated_D_field, decompose_production,
                                 grad_energy_lhs, time_derivative_l1)
from visclab.convergence import build_convergence_report
from visclab.mollify import make_kernel, mollify
from visclab.report import synthetic_divcurl
from visclab.viscous import snapshot_times

MB = 1024.0 * 1024.0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def maxrss_mb():
    """Peak resident set of the process so far, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn):
    """Seconds and minor faults of one untraced call."""
    faults = minor_faults()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0, minor_faults() - faults


def measure(fn):
    """(seconds and minor faults of one untraced call, traced peak in bytes
    of another)."""
    seconds, faults = timed(fn)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, faults, peak


def live_and_peak(fn):
    """(traced bytes live before the call, traced high-water mark during
    it) of one call, with ``tracemalloc`` already running."""
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn()
    return live, tracemalloc.get_traced_memory()[1]


def load_stored(rundir):
    """``(cfg, specs, finest member, member dirs, reference dir)`` of a
    stored run."""
    _manifest, cfg, specs, dirs, refdir = harness._load_run(rundir)
    return cfg, specs, harness._load(cfg, specs, dirs[-1]), dirs, refdir


def instruments(cfg, specs, finest, dirs, refdir):
    """``(name, [calls])`` in the order ``visclab verify`` runs them; a row
    reports the slowest call and the largest peaks."""
    window = harness._weak_window(cfg)
    times = snapshot_times(cfg.time_horizon, cfg.snapshots)
    members = harness._stored_diagnostics(cfg, specs, dirs)
    rows = [("decompose_production",
             [lambda: decompose_production(finest, specs.pairs, specs.visc,
                                           finest.epsilon)]),
            ("time_derivative_l1", [lambda: time_derivative_l1(finest)]),
            ("young_histograms",
             [lambda: harness._young_histograms(cfg, specs, finest)]),
            ("grad_energy_lhs", [lambda: grad_energy_lhs(finest)]),
            ("member_diagnostics",
             [lambda: harness.member_diagnostics(cfg, specs, finest)])]
    load = lambda d: harness._load(cfg, specs, d)
    if cfg.dim == 2:
        quad = build_compensated_quad(specs.flux, cfg.quadrature_tol,
                                      specs.tartar)
        c_field = attach_c_field(quad, finest, window)

        def d_field(d):
            traj = load(d)
            compensated_D_field(traj, quad, c_field, window, traj.values)

        rows.append(("attach_c_field",
                     [lambda: attach_c_field(quad, load(dirs[-1]), window)]))
        rows.append(("compensated_D_field",
                     [lambda d=d: d_field(d) for d in dirs]))
    rows.append(("build_convergence_report",
                 [lambda: build_convergence_report(
                     (io.StoredTrajectory(d, specs.grid, cfg.snapshots)
                      for d in dirs), load(refdir))]))
    rows.append(("synthetic_divcurl",
                 [lambda: synthetic_divcurl(specs.grid, times, window)]))
    rows.append(("assess",
                 [lambda: harness.assess(cfg, specs, members, dirs, refdir)]))
    return rows


def dual_norm_rows(specs, finest, calls=20):
    """``(pair, best ms, median ms, faults per call, peak)`` of
    ``h_minus_one_norm`` on each pair's divergence part of ``finest``.

    The split reuses one A buffer across the pairs, so each pair's A is
    timed when the split hands it to the norm, in pair order, with the
    arguments the split passes: A's interior as ``out``, which the norm
    transforms in place, and the buffer list its pairs share.  Each call
    starts from a copy of the A handed over, restored outside the timing.
    """
    h_minus_one_norm = compactness.h_minus_one_norm
    rows = []

    def timed(*args):
        A, handed = args[0], args[0].copy()
        seconds = []
        faults = minor_faults()
        for _ in range(calls):
            np.copyto(A, handed)
            t0 = time.perf_counter()
            h_minus_one_norm(*args)
            seconds.append(time.perf_counter() - t0)
        faults = (minor_faults() - faults) / calls
        peak = measure(lambda: (np.copyto(A, handed),
                                h_minus_one_norm(*args)))[2]
        rows.append((1e3 * min(seconds), 1e3 * statistics.median(seconds),
                     faults, peak))
        np.copyto(A, handed)
        return h_minus_one_norm(*args)

    with mock.patch.object(compactness, "h_minus_one_norm", timed):
        decompose_production(finest, specs.pairs, specs.visc, finest.epsilon)
    return [(pair.name, *row) for pair, row in zip(specs.pairs, rows)]


def mollify_rows(cfg, specs):
    """``(kernel shape, best ms, largest peak)`` per mollifier width."""
    rows = []
    for width in sorted(set(cfg.mollifier_widths), reverse=True):
        kernel = make_kernel(width, specs.grid.spacing)
        results = [measure(lambda: mollify(specs.init_data, kernel))
                   for _ in range(5)]
        rows.append(("x".join(map(str, kernel.shape)),
                     1e3 * min(s for s, _f, _p in results),
                     max(p for _s, _f, p in results)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("rundirs", nargs="+", type=Path)
    args = ap.parse_args(argv)
    for rundir in args.rundirs:
        stored = load_stored(rundir)
        cfg, specs, finest, dirs, _refdir = stored
        field = finest.values.nbytes
        print(f"{rundir}: {len(dirs)} members, field "
              f"{'x'.join(map(str, finest.values.shape))} = "
              f"{field / MB:.2f} MB")
        rows = instruments(*stored)
        print(f"  maxrss before the rows: {maxrss_mb():.2f} MB")
        times, rss = [], []
        for _name, calls in rows:
            times.append([timed(fn) for fn in calls])
            rss.append(maxrss_mb())
        tracemalloc.start()
        try:
            rows = instruments(*load_stored(rundir))
            traced = [[live_and_peak(fn) for fn in calls]
                      for _name, calls in rows]
        finally:
            tracemalloc.stop()
        print(f"  {'instrument':<24} {'calls':>5} {'s (max)':>9} "
              f"{'faults':>7} {'peak MB':>9} {'fields':>7} "
              f"{'live+peak MB':>13} {'maxrss MB':>10}")
        marks = []
        for (name, calls), timings, spans, after in zip(rows, times, traced,
                                                         rss):
            seconds = max(s for s, _f in timings)
            faults = max(f for _s, f in timings)
            peak = max(high - live for live, high in spans)
            high = max(high for _live, high in spans)
            marks.append((high, name))
            print(f"  {name:<24} {len(calls):>5} {seconds:>9.4f} "
                  f"{faults:>7} {peak / MB:>9.2f} {peak / field:>7.2f} "
                  f"{high / MB:>13.2f} {after:>10.2f}")
        high, name = max(marks)
        print(f"  high-water mark: {name}, live + peak {high / MB:.2f} MB")
        print(f"  {'h_minus_one_norm of A':<22} {'best ms':>9} {'med ms':>7} "
              f"{'faults':>7} {'peak MB':>9} {'fields':>7}")
        for name, best, median, faults, peak in dual_norm_rows(specs,
                                                               finest):
            print(f"  {name:<22} {best:>9.2f} {median:>7.2f} {faults:>7.1f} "
                  f"{peak / MB:>9.2f} {peak / field:>7.2f}")
        state = specs.init_data.nbytes
        print(f"  {'mollify kernel':<22} {'ms':>15} {'peak MB':>9} "
              f"{'states':>7}")
        for shape, ms, peak in mollify_rows(cfg, specs):
            print(f"  {shape:<22} {ms:>15.2f} {peak / MB:>9.2f} "
                  f"{peak / state:>7.2f}")


if __name__ == "__main__":
    main()
