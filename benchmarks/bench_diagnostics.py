#!/usr/bin/env python3
"""Time and transient memory of each diagnostic instrument on a stored run.

Each run directory given (written by ``visclab run``, for example of
scenarios/burgers1d.cfg and scenarios/burgers2d.cfg) is loaded the way
``visclab verify`` loads it.  Every instrument then runs once untraced, for
its wall time and the minor page faults of the process during the call, and
once under ``tracemalloc``, for the peak of memory it allocates above what
was live before the call.  The peak is printed in MB and in copies of one
space-time field (snapshots x cells x 8 bytes), which is the unit the
per-snapshot blocking of ``compactness`` is judged in.

The instruments run on the finest member (``decompose_production`` with all
of its entropy pairs in one call, as ``member_diagnostics`` calls it), and
``assess`` on the whole ladder and the reference.

A second table times ``h_minus_one_norm`` alone on the divergence part ``A``
of each entropy pair of the finest member, as ``decompose_production`` hands
it over: the best and the median of 20 calls in ms, the minor faults per
call over those calls, and one traced peak.

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

from visclab import compactness, harness
from visclab.compactness import (attach_c_field, build_compensated_quad,
                                 compensated_D_field, decompose_production,
                                 time_derivative_l1)
from visclab.mollify import make_kernel, mollify

MB = 1024.0 * 1024.0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(fn):
    """(seconds and minor faults of one untraced call, traced peak in bytes
    of another)."""
    faults = minor_faults()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    faults = minor_faults() - faults
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, faults, peak


def instruments(cfg, specs, trajs, reference):
    """``(name, [calls])``; a row reports the slowest call and largest peak."""
    finest = trajs[-1]
    rows = [("decompose_production",
             [lambda: decompose_production(finest, specs.pairs, specs.visc,
                                           finest.epsilon)]),
            ("time_derivative_l1", [lambda: time_derivative_l1(finest)]),
            ("young_histograms",
             [lambda: harness._young_histograms(cfg, specs, finest)])]
    if cfg.dim == 2:
        bare = build_compensated_quad(specs.flux, cfg.quadrature_tol)
        window = harness._weak_window(cfg)
        quad = attach_c_field(bare, finest, window)
        rows.append(("attach_c_field",
                     [lambda: attach_c_field(bare, finest, window)]))
        rows.append(("compensated_D_field",
                     [lambda: compensated_D_field(finest, quad)]))
    rows.append(("member_diagnostics",
                 [lambda: harness.member_diagnostics(cfg, specs, finest)]))
    members = [harness.member_diagnostics(cfg, specs, t) for t in trajs]
    rows.append(("assess",
                 [lambda: harness.assess(cfg, specs, members, trajs,
                                         reference)]))
    return rows


def dual_norm_rows(specs, finest, calls=20):
    """``(pair, best ms, median ms, faults per call, peak)`` of
    ``h_minus_one_norm`` on each pair's divergence part of ``finest``.

    The split reuses one A buffer across the pairs, so each pair's A is
    timed when the split hands it to the norm, in pair order, with the
    split's dual-norm buffers.
    """
    h_minus_one_norm = compactness.h_minus_one_norm
    rows = []

    def timed(fa, work):
        seconds = []
        faults = minor_faults()
        for _ in range(calls):
            t0 = time.perf_counter()
            h_minus_one_norm(fa, work)
            seconds.append(time.perf_counter() - t0)
        faults = (minor_faults() - faults) / calls
        peak = measure(lambda: h_minus_one_norm(fa, work))[2]
        rows.append((1e3 * min(seconds), 1e3 * statistics.median(seconds),
                     faults, peak))
        return h_minus_one_norm(fa, work)

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
        rows.append(("x".join(map(str, kernel.weights.shape)),
                     1e3 * min(s for s, _f, _p in results),
                     max(p for _s, _f, p in results)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("rundirs", nargs="+", type=Path)
    args = ap.parse_args(argv)
    for rundir in args.rundirs:
        _manifest, cfg, specs, trajs, reference = harness._load_run(rundir)
        field = trajs[-1].values.nbytes
        print(f"{rundir}: {len(trajs)} members, field "
              f"{'x'.join(map(str, trajs[-1].values.shape))} = "
              f"{field / MB:.2f} MB")
        print(f"  {'instrument':<22} {'calls':>5} {'s (max)':>9} "
              f"{'faults':>7} {'peak MB':>9} {'fields':>7}")
        for name, calls in instruments(cfg, specs, trajs, reference):
            results = [measure(fn) for fn in calls]
            seconds = max(s for s, _f, _p in results)
            faults = max(f for _s, f, _p in results)
            peak = max(p for _s, _f, p in results)
            print(f"  {name:<22} {len(calls):>5} {seconds:>9.4f} "
                  f"{faults:>7} {peak / MB:>9.2f} {peak / field:>7.2f}")
        print(f"  {'h_minus_one_norm of A':<22} {'best ms':>9} {'med ms':>7} "
              f"{'faults':>7} {'peak MB':>9} {'fields':>7}")
        for name, best, median, faults, peak in dual_norm_rows(specs,
                                                               trajs[-1]):
            print(f"  {name:<22} {best:>9.2f} {median:>7.2f} {faults:>7.1f} "
                  f"{peak / MB:>9.2f} {peak / field:>7.2f}")
        state = specs.init_data.field.values.nbytes
        print(f"  {'mollify kernel':<22} {'ms':>15} {'peak MB':>9} "
              f"{'states':>7}")
        for shape, ms, peak in mollify_rows(cfg, specs):
            print(f"  {shape:<22} {ms:>15.2f} {peak / MB:>9.2f} "
                  f"{peak / state:>7.2f}")


if __name__ == "__main__":
    main()
