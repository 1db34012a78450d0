#!/usr/bin/env python3
"""Child-process side of the visclab benchmark.

Started by ``perfbench/run.py`` in a fresh interpreter, with ``src`` on
``PYTHONPATH``; it never edits the package, only rebinds names at run time.

    python3 probe.py setup T0_NS CONFIG
        Import ``visclab.cli``, build the scenario and its runtime tables, and
        print one JSON line: the seconds from T0_NS (the parent's
        ``time.monotonic_ns()`` just before it started this interpreter) to
        the end of ``build_runtime``, plus the environment the numbers hold for.

    python3 probe.py trace SPANS_JSON CLI_ARG...
        Run ``visclab.cli.main(CLI_ARG...)`` with every layer boundary wrapped
        in a span, restore every wrapped name, write the spans and counters to
        SPANS_JSON and exit with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def setup_probe(t0_ns: int, config_path: str) -> None:
    import visclab.cli  # noqa: F401  (the import is what is being timed)
    from visclab.config import build_scenario
    from visclab.harness import build_runtime

    with open(config_path) as fh:
        build_runtime(build_scenario(fh.read()))
    elapsed = (time.monotonic_ns() - t0_ns) / 1e9

    import numpy
    import platform
    import scipy
    from visclab import kernels
    print(json.dumps({"setup_s": elapsed,
                      "backend": kernels.active_backend(),
                      "numba_importable": kernels.HAVE_NUMBA,
                      "python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "scipy": scipy.__version__}))


class Tracer:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent_index]``.

    Single-threaded by construction (the benchmark runs ``--jobs 1``), so a
    plain stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.kernel_shapes: dict[str, dict] = {}
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` (or ``owner[attr]`` for a dict) to a traced twin."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        twin = self.wrap(name, original, after)
        if is_dict:
            owner[attr] = twin
        else:
            setattr(owner, attr, twin)
        self._patched.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each name is the original again."""
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return all((owner[attr] if isinstance(owner, dict)
                    else getattr(owner, attr)) is original
                   for owner, attr, original in self._patched)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def install(tr: Tracer) -> None:
    """Wrap each layer where its caller looks it up."""
    import numpy as np
    from visclab import cli, compactness, harness, io, kernels, report

    # entry points, as the CLI sees them
    for attr in ("run_ladder", "verify_run"):
        tr.patch(cli, attr, f"harness.{attr}")
    tr.patch(cli, "format_table", "report.format_table")

    def integrate_done(_args, traj):
        tr.add("viscous.steps", traj.steps_taken)
        tr.counters["viscous.steps_max_member"] = max(
            tr.counters.get("viscous.steps_max_member", 0), traj.steps_taken)

    def estimates_done(_args, rows):
        tr.add("report.estimates_failed", sum(not r.passed for r in rows))

    harness_names = {
        "build_runtime": "harness.build_runtime",
        "solve_member": "harness.solve_member",
        "member_diagnostics": "harness.member_diagnostics",
        "make_kernel": "mollify.make_kernel",
        "mollify": "mollify.mollify",
        "integrate": "viscous.integrate",
        "solve_reference": "reference.solve_reference",
        "decompose_production": "compactness.decompose_production",
        "time_derivative_l1": "compactness.time_derivative_l1",
        "young_histograms": "compactness.young_histograms",
        "dirac_concentration": "compactness.dirac_concentration",
        "flux_identity_gap": "compactness.flux_identity_gap",
        "div_curl_test": "compactness.div_curl_test",
        "build_compensated_quad": "compactness.build_compensated_quad",
        "attach_c_field": "compactness.attach_c_field",
        "compensated_D_field": "compactness.compensated_D_field",
        "tartar_pair_table": "compactness.tartar_pair_table",
        "build_convergence_report": "convergence.build_convergence_report",
        "fit_rate": "convergence.fit_rate",
        "synthetic_divcurl": "report.synthetic_divcurl",
        "evaluate_estimates": "report.evaluate_estimates",
        "grad_energy_lhs": "report.grad_energy_lhs",
        "format_table": "report.format_table",
    }
    after = {
        "integrate": integrate_done,
        "solve_reference": lambda _a, traj: tr.add("reference.steps",
                                                   traj.steps_taken),
        "evaluate_estimates": estimates_done,
    }
    for attr, name in harness_names.items():
        tr.patch(harness, attr, name, after.get(attr))
    tr.patch(report, "div_curl_test", "compactness.div_curl_test")
    tr.patch(compactness, "h_minus_one_norm", "norms.h_minus_one_norm")
    tr.patch(compactness, "measure_norm", "norms.measure_norm")

    # persistence: harness calls these through the module, ``io.<name>``
    def wrote(paths):
        tr.add("io.bytes_written", _file_bytes(paths))

    tr.patch(io, "save_trajectory", "io.save_trajectory",
             lambda _a, files: wrote(files))
    tr.patch(io, "write_csv", "io.write_csv", lambda a, _r: wrote([a[0]]))
    tr.patch(io, "write_manifest", "io.write_manifest",
             lambda a, _r: wrote([a[0]]))
    tr.patch(io, "load_trajectory", "io.load_trajectory",
             lambda a, _r: tr.add("io.bytes_read",
                                  _file_bytes(a[0].iterdir())))
    tr.patch(io, "read_manifest", "io.read_manifest",
             lambda a, _r: tr.add("io.bytes_read",
                                  _file_bytes([a[0] / "manifest.json"])))

    # kernels are looked up in KERNELS by get_kernel at call time
    table = kernels.KERNELS[kernels.active_backend()]
    for kname in list(table):
        def shape(args, _result, kname=kname):
            if kname not in tr.kernel_shapes:
                arrays = [a for a in args if isinstance(a, np.ndarray)]
                tr.kernel_shapes[kname] = {
                    "cells": int(args[0].size),
                    "bytes": int(sum(a.nbytes for a in arrays))}
        tr.patch(table, kname, f"kernels.{kname}", shape)


def trace_probe(spans_path: str, argv: list[str]) -> int:
    from visclab import cli

    tr = Tracer()
    install(tr)
    try:
        code = tr.wrap("cli.main", cli.main)(argv)
    finally:
        restored = tr.restore()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tr.spans, "counters": tr.counters,
                       "kernel_shapes": tr.kernel_shapes,
                       "restored": restored}, fh, separators=(",", ":"))
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        setup_probe(int(argv[1]), argv[2])
        return 0
    if len(argv) >= 3 and argv[0] == "trace":
        return trace_probe(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
