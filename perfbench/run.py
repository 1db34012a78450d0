#!/usr/bin/env python3
"""visclab benchmark: `visclab run` and `visclab verify` timed end to end.

    python3 perfbench/run.py --workload run-1d --seed 0 --seconds 30 --trace 0

Run from the root of a visclab source tree.  Every sample is the real CLI,
``python3 -m visclab ...``, in a fresh interpreter with ``src`` on
``PYTHONPATH``, ``--jobs 1`` and every BLAS/OpenMP thread pool pinned to one
thread.  Nothing under ``src/`` is edited; the traced run rebinds names in a
child process (see ``probe.py``).

Workloads (why each exists is in BENCHMARK.json):
  run-1d     visclab run on scenarios/burgers1d.cfg
  run-2d     visclab run on scenarios/burgers2d.cfg
  verify-2d  visclab verify on a run-2d directory written in untimed set-up

``--seed 0`` feeds the shipped scenario file byte for byte.  Another seed only
moves the initial bump's ``center`` by at most CENTER_JITTER per axis, well
inside the support margin ``build_scenario`` checks; cells, ladder, horizon
and cfl are unchanged, so every step count stays exact.  Generated configs
and run directories live under ``.perfbench_work/`` in the tree.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced invocation next to the untraced ones.  The last line
of stdout is the result JSON; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"

WORKLOADS = {
    "run-1d": ("run", "scenarios/burgers1d.cfg"),
    "run-2d": ("run", "scenarios/burgers2d.cfg"),
    "verify-2d": ("verify", "scenarios/burgers2d.cfg"),
}
CENTER_JITTER = 0.004
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
CALL_TIMEOUT_S = 170.0
CACHED_RUN_DIRS = 16
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
KERNEL_NAMES = ("visc_step_1d", "visc_step_2d", "godunov_step_1d",
                "godunov_sweep_2d")
RESULT_CSVS = ("diagnostics.csv", "convergence.csv", "estimates.csv")


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no result is printed)."""


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in THREAD_PINS:
        env[var] = "1"
    return env


def invoke(argv: list[str], log_stem: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    stdout/stderr go to ``log_stem``.out/.err.  A timer kills a child that
    outlives CALL_TIMEOUT_S; ``wait4`` reaps it either way and gives its
    own rusage.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "visclab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def scenario_text(shipped: str, seed: int) -> str:
    """Seed 0: the shipped file verbatim.  Otherwise jitter ``[initial] center``."""
    if seed == 0:
        return shipped
    rng = random.Random(seed)
    line = re.compile(r"^center\s*=\s*(.+)$", re.MULTILINE)
    m = line.search(shipped)
    if m is None:
        raise BenchError("scenario has no [initial] center line to jitter")
    centers = [float(v) + rng.uniform(-CENTER_JITTER, CENTER_JITTER)
               for v in m.group(1).split(",")]
    new = "center = " + ",".join(f"{c:.6f}" for c in centers)
    return shipped[:m.start()] + new + shipped[m.end():]


def scenario_amplitude(text: str) -> float:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return abs(parser.getfloat("initial", "amplitude", fallback=1.0))


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when correct)


def check_run_dir(outdir: Path, amplitude: float) -> tuple[list[str], dict, float]:
    """Problems, sha256 of every CSV in the run, finest-member L1 error."""
    problems: list[str] = []
    hashes: dict[str, str] = {}
    l1_finest = float("nan")
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        missing = [f for f in manifest["files"] if not (outdir / f).is_file()]
        if missing:
            problems.append(f"manifest lists missing files {missing[:3]}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"manifest.json unreadable: {exc}")
    for name in RESULT_CSVS:
        try:
            with open(outdir / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, csv.Error) as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        if not rows:
            problems.append(f"{name} has no rows")
        elif name == "convergence.csv":
            try:
                finest = min(rows, key=lambda r: float(r["epsilon"]))
                l1_finest = float(finest["l1_error_vs_reference"])
            except (KeyError, ValueError) as exc:
                problems.append(f"convergence.csv unparseable: {exc}")
    metas = sorted(outdir.glob("*/meta.json"))
    if not metas:
        problems.append("no trajectory meta.json")
    for meta_path in metas:
        try:
            seen = float(json.loads(meta_path.read_text())["max_abs_seen"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{meta_path.parent.name}/meta.json unreadable: {exc}")
            continue
        if not seen <= amplitude + 1e-8:
            problems.append(f"{meta_path.parent.name}: max_abs_seen {seen} "
                            f"above amplitude {amplitude}")
    for p in sorted(outdir.rglob("*.csv")):
        hashes[str(p.relative_to(outdir))] = sha256_bytes(p.read_bytes())
    if not (l1_finest > 0.0):
        problems.append(f"finest L1 error {l1_finest} is not positive")
    return problems, hashes, l1_finest


def check_exit(code: int) -> list[str]:
    # 0: every estimate passes; 1: some estimate fails, which both shipped
    # scenarios do by design (1-D dirac; 2-D h1_decay, ut_l1, dirac)
    return [] if code in (0, 1) else [f"exit code {code}"]


def record_hashes(key: str, hashes: dict) -> list[str]:
    """Outputs of one commit on one config must repeat across runs, too."""
    path = WORK / "output_hashes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return [] if known[key] == hashes else ["outputs differ from an "
                                                 "earlier run of this config"]
    known[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)
    return []


# ---------------------------------------------------------------------------
# samples


class Sampler:
    """Runs the workload's CLI invocation and checks each output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.command, scenario = WORKLOADS[workload]
        shipped = (ROOT / scenario).read_text()
        self.config_text = scenario_text(shipped, seed)
        self.amplitude = scenario_amplitude(self.config_text)
        self.src_digest = source_digest()
        self.key = sha256_bytes((self.config_text + self.src_digest).encode())
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "scenario.cfg"
        self.config.write_text(self.config_text)
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict | None = None   # what every sample must repeat
        self.l1_finest = float("nan")
        self.rundir = WORK / "cache" / f"run-2d-{self.key[:20]}"

    def fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{where}: {p}" for p in problems)
        log(f"FAILED {where}: {problems}")

    def cli_args(self, outdir: Path) -> list[str]:
        if self.command == "run":
            return ["run", "--config", str(self.config), "--out", str(outdir),
                    "--jobs", "1"]
        return ["verify", str(self.rundir)]

    def prepare(self) -> None:
        """verify-2d reads a run-2d directory of this commit and config."""
        if self.command != "verify":
            return
        done = self.rundir.with_suffix(".ok")
        if done.exists():
            done.touch()    # most recently used survives _trim_cache
            return
        log("set-up: writing the run-2d directory to verify")
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.parent.mkdir(parents=True, exist_ok=True)
        code, _wall, _rss = invoke(
            [sys.executable, "-m", "visclab", "run", "--config",
             str(self.config), "--out", str(self.rundir), "--jobs", "1"],
            self.dir / "prepare")
        problems, _h, _l1 = check_run_dir(self.rundir, self.amplitude)
        problems = check_exit(code) + problems
        if problems:
            raise BenchError(f"set-up run failed: {problems}")
        done.touch()
        _trim_cache()

    def judge(self, code: int, outdir: Path | None, stdout: bytes,
              where: str) -> None:
        """Check one invocation, and that it repeats the first one's outputs."""
        problems = check_exit(code)
        checked = outdir if self.command == "run" else self.rundir
        found, hashes, self.l1_finest = check_run_dir(checked, self.amplitude)
        problems += found
        if self.command == "verify":
            if b"verdict mismatch" in stdout:
                problems.append("verify reports a verdict mismatch")
            hashes["verify.stdout"] = sha256_bytes(stdout)
        outputs = {"exit": code, "hashes": hashes}
        if self.outputs is None and not problems:
            self.outputs = outputs
        elif self.outputs is not None and outputs != self.outputs:
            problems.append("outputs differ from the first sample")
        if problems:
            self.fail(where, problems)

    def untraced(self, seconds: float) -> None:
        """Closed loop, one invocation at a time, for ``seconds``: another
        sample starts only while the last one would still end in time."""
        start = time.perf_counter()
        while True:
            i = len(self.walls)
            outdir = self.dir / "out"
            shutil.rmtree(outdir, ignore_errors=True)
            stem = self.dir / f"sample{i}"
            code, wall, rss = invoke(
                [sys.executable, "-m", "visclab"] + self.cli_args(outdir), stem)
            self.attempted += 1
            self.walls.append(wall)
            self.rss.append(rss)
            self.judge(code, outdir, Path(f"{stem}.out").read_bytes(),
                       f"sample {i}")
            elapsed = time.perf_counter() - start
            if elapsed + wall > seconds:
                break
        if self.workload == "run-2d" and self.outputs is not None \
                and not self.failed:
            self._donate(outdir)
        if self.outputs is not None:
            found = record_hashes(f"{self.workload}:{self.key}", self.outputs)
            if found:
                self.fail("across runs", found)

    def _donate(self, outdir: Path) -> None:
        """A checked run-2d directory is exactly what verify-2d's set-up
        would write for this config; keep it so that set-up can skip."""
        done = self.rundir.with_suffix(".ok")
        if done.exists():
            return
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.parent.mkdir(parents=True, exist_ok=True)
        outdir.rename(self.rundir)
        done.touch()
        _trim_cache()

    def traced(self) -> tuple[dict, float]:
        """One traced invocation; its outputs must equal the untraced ones."""
        outdir = self.dir / "traced"
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path = self.dir / "spans.json"
        stem = self.dir / "traced_cli"
        code, wall, _rss = invoke(
            [sys.executable, str(PROBE), "trace", str(spans_path)]
            + self.cli_args(outdir), stem)
        self.attempted += 1
        self.judge(code, outdir, Path(f"{stem}.out").read_bytes(), "traced run")
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"traced run left no spans: {exc}") from exc
        if not trace["restored"]:
            self.fail("traced run", ["a wrapped function was not restored"])
        return trace, wall


def _trim_cache() -> None:
    """Keep the CACHED_RUN_DIRS most recently used run-2d directories."""
    marks = sorted((WORK / "cache").glob("*.ok"), key=lambda p: p.stat().st_mtime)
    for mark in marks[:-CACHED_RUN_DIRS]:
        shutil.rmtree(mark.with_suffix(""), ignore_errors=True)
        mark.unlink()


def setup_samples(config: Path, stem: Path,
                  count: int) -> tuple[list[float], dict]:
    """Fresh interpreter -> import visclab.cli + build_scenario + build_runtime."""
    times, env = [], {}
    for i in range(count):
        t0 = time.monotonic_ns()
        code, _wall, _rss = invoke(
            [sys.executable, str(PROBE), "setup", str(t0), str(config)],
            Path(f"{stem}{i}"))
        if code != 0:
            raise BenchError(f"set-up probe exited {code}, see {stem}{i}.err")
        env = json.loads(Path(f"{stem}{i}.out").read_text().splitlines()[-1])
        times.append(env.pop("setup_s"))
    return times, env


def import_times(stem: Path) -> dict[str, float]:
    """Median over fresh interpreters of ``python -X importtime``: the total
    self time of every import, and the cumulative time of two layers."""
    wanted = {"visclab.mollify": "import.mollify.s",
              "visclab.norms": "import.norms.s"}
    samples: dict[str, list[float]] = {"import.total.s": []}
    samples.update({v: [] for v in wanted.values()})
    for i in range(IMPORTTIME_SAMPLES):
        code, _w, _r = invoke([sys.executable, "-X", "importtime", "-c",
                               "import visclab.cli"], Path(f"{stem}{i}"))
        if code != 0:
            raise BenchError(f"import of visclab.cli failed, see {stem}{i}.err")
        total = 0
        found = {}
        for line in Path(f"{stem}{i}.err").read_text().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cumulative_us = int(parts[1])
            except ValueError:
                continue    # the header line
            total += self_us
            name = parts[2].strip()
            if name in wanted:
                found[wanted[name]] = cumulative_us / 1e6
        samples["import.total.s"].append(total / 1e6)
        for metric in wanted.values():
            samples[metric].append(found.get(metric, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(trace: dict, traced_wall: float, untraced_median: float,
                  imports: dict) -> dict:
    spans = trace["spans"]
    counters = trace["counters"]
    dur = [(end - start) / 1e9 for _n, start, end, _p in spans]
    child = [0.0] * len(spans)
    for i, (_n, _s, _e, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    for i, (name, _s, _e, _p) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        if name.startswith("kernels."):
            per_call.setdefault(name, []).append(dur[i])

    def s(name):
        return total.get(name, 0.0)

    m = dict(imports)
    m["harness.build_runtime.calls"] = calls.get("harness.build_runtime", 0)
    m["harness.build_runtime.s"] = s("harness.build_runtime")
    m["harness.member_diagnostics.s"] = s("harness.member_diagnostics")
    m["harness.self.s"] = sum(v for k, v in self_s.items()
                              if k.startswith("harness."))
    members = [dur[i] for i, sp in enumerate(spans) if sp[0] == "viscous.integrate"]
    m["harness.ladder_critical_share"] = (max(members) / sum(members)
                                          if members else 0.0)
    for k in KERNEL_NAMES:
        name = f"kernels.{k}"
        times = sorted(per_call.get(name, []))
        shape = trace["kernel_shapes"].get(k, {"cells": 0, "bytes": 0})
        n = len(times)
        m[f"{name}.calls"] = n
        m[f"{name}.s"] = s(name)
        m[f"{name}.us_p50"] = statistics.median(times) * 1e6 if n else 0.0
        m[f"{name}.us_p99"] = (statistics.quantiles(times, n=100)[98] * 1e6
                               if n > 1 else sum(times) * 1e6)
        m[f"{name}.cell_updates_per_s"] = (n * shape["cells"] / s(name)
                                           if n else 0.0)
        m[f"{name}.bytes_per_call"] = shape["bytes"]
    m["viscous.steps"] = int(counters.get("viscous.steps", 0))
    m["viscous.steps_max_member"] = int(counters.get("viscous.steps_max_member", 0))
    m["viscous.integrate.s"] = s("viscous.integrate")
    m["viscous.integrate.self.s"] = self_s.get("viscous.integrate", 0.0)
    m["reference.solve_reference.s"] = s("reference.solve_reference")
    m["reference.solve_reference.self.s"] = self_s.get("reference.solve_reference", 0.0)
    m["reference.steps"] = int(counters.get("reference.steps", 0))
    m["compactness.decompose_production.calls"] = calls.get(
        "compactness.decompose_production", 0)
    for name in ("compactness.decompose_production", "compactness.young_histograms",
                 "compactness.div_curl_test", "compactness.attach_c_field",
                 "compactness.compensated_D_field", "compactness.time_derivative_l1"):
        m[f"{name}.s"] = s(name)
    m["norms.h_minus_one_norm.calls"] = calls.get("norms.h_minus_one_norm", 0)
    m["norms.h_minus_one_norm.s"] = s("norms.h_minus_one_norm")
    for name in ("mollify.mollify", "convergence.build_convergence_report",
                 "report.evaluate_estimates", "report.synthetic_divcurl",
                 "report.grad_energy_lhs", "io.save_trajectory",
                 "io.load_trajectory"):
        m[f"{name}.s"] = s(name)
    m["report.estimates_failed"] = int(counters.get("report.estimates_failed", 0))
    m["io.bytes_written"] = int(counters.get("io.bytes_written", 0))
    m["io.bytes_read"] = int(counters.get("io.bytes_read", 0))
    m["trace.overhead_frac"] = traced_wall / untraced_median - 1.0
    # the body is cli.main; covered is what its layer spans account for,
    # below the entry point (harness.run_ladder / harness.verify_run)
    root = next(i for i, sp in enumerate(spans) if sp[0] == "cli.main")
    entries = {i for i, sp in enumerate(spans)
               if sp[3] == root and sp[0] in ("harness.run_ladder",
                                              "harness.verify_run")}
    covered = sum(dur[i] for i, sp in enumerate(spans)
                  if (sp[3] == root or sp[3] in entries) and i not in entries)
    m["trace.coverage"] = covered / dur[root]
    return m


def emit(spec_key: str, values: dict, correct: bool, attempted: int,
         failed: int) -> None:
    """Print the result line: every metric BENCHMARK.json lists under spec_key."""
    metrics = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec[spec_key]:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def environment(probe_env: dict, sampler: Sampler, args) -> dict:
    sha = "unknown"     # a source export has no .git; src_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": sampler.src_digest,
            "workload": args.workload, "seed": args.seed,
            "config_sha256": sha256_bytes(sampler.config_text.encode()),
            "jobs": 1, "nproc": len(os.sched_getaffinity(0)),
            "thread_pins": {v: "1" for v in THREAD_PINS}, **probe_env}


def run(args) -> int:
    if not (SRC / "visclab" / "__init__.py").is_file():
        raise BenchError(f"no visclab sources under {SRC}")
    # write bytecode once, so no timed sample pays for compiling it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "visclab")],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    sampler = Sampler(args.workload, args.seed)
    sampler.prepare()
    setup, probe_env = setup_samples(sampler.config, sampler.dir / "setup",
                                     1 if args.trace else SETUP_SAMPLES)
    sampler.untraced(args.seconds)
    wall = statistics.median(sampler.walls)
    env = environment(probe_env, sampler, args)
    env["wall_s_each"] = sampler.walls
    env["setup_s_each"] = setup
    if args.trace:
        imports = import_times(sampler.dir / "importtime")
        trace, traced_wall = sampler.traced()
        values = layer_metrics(trace, traced_wall, wall, imports)
        spec_key = "per_layer"
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(sampler.rss),
            "l1_err_finest": sampler.l1_finest,
            "ok_frac": (sampler.attempted - sampler.failed) / sampler.attempted,
        }
        spec_key = "end_to_end"
    for name in ("out", "traced"):     # run directories are large
        shutil.rmtree(sampler.dir / name, ignore_errors=True)
    for p in sampler.problems:
        log(p)
    print("env " + json.dumps(env, sort_keys=True))
    emit(spec_key, values, sampler.failed == 0, sampler.attempted,
         sampler.failed)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
