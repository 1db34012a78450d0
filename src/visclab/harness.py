"""End-to-end orchestration: run the ladder, verify a run, emit plot data."""

from __future__ import annotations

import datetime
import itertools
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io, kernels, norms, tables
from .compactness import (attach_c_field, build_compensated_quad,
                          compensated_D_field, decompose_production,
                          dirac_concentration, div_curl_test,
                          flux_identity_gap, grad_energy_lhs,
                          tartar_pair_table, time_derivative_l1,
                          young_histograms, young_w1_distance)
from .config import (ScenarioConfig, build_scenario, config_hash, eps_label,
                     render_config)
from .convergence import build_convergence_report, fit_rate
from .domain import FieldTrajectory, Grid, kruzkov_ladder, make_entropy_pair, \
    make_flux, make_viscosity
from .mollify import make_initial_data, make_kernel, mollify
from .report import (EstimateRow, MemberDiagnostics, evaluate_estimates,
                     format_table, overall_verdicts, synthetic_divcurl)
from .reference import solve_reference
# ``integrate`` marches one member alone: ``perfbench/probe.py`` rebinds it
# here, though a run marches its members in batches, by ``integrate_batch``
from .viscous import integrate, integrate_batch, lone, snapshot_times


@dataclass
class RuntimeSpecs:
    grid: Grid
    flux: object
    visc: object
    pairs: list
    init_data: np.ndarray  # the cell values of the unmollified data
    tartar: np.ndarray


def build_runtime(cfg: ScenarioConfig) -> RuntimeSpecs:
    grid = Grid(cfg.cells, cfg.extent_lo, cfg.extent_hi, cfg.time_horizon)
    # identically-zero data leaves the invariant interval degenerate; any
    # interval containing 0 works, every bound below is trivial then
    sup = cfg.sup_u0 if cfg.sup_u0 > 0 else 1.0
    interval = (-sup, sup)
    flux = make_flux(cfg.flux_names, interval, cfg.quadrature_tol,
                     {"a": cfg.flux_a})
    visc = make_viscosity(cfg.visc_name, interval,
                          {"b": cfg.visc_b, "r": cfg.visc_r})
    pairs = [make_entropy_pair("square", flux, cfg.quadrature_tol)]
    pairs += kruzkov_ladder(flux, cfg.kruzkov_count, cfg.kruzkov_delta,
                            cfg.quadrature_tol)
    init = make_initial_data(grid, cfg.init_name, cfg.init_center,
                             cfg.init_width, cfg.init_amplitude,
                             cfg.init_amplitude2, cfg.init_separation)
    tartar = tartar_pair_table(flux, cfg.quadrature_tol)
    return RuntimeSpecs(grid, flux, visc, pairs, init, tartar)


def solve_batch(cfg: ScenarioConfig, specs: RuntimeSpecs,
                rungs: list[tuple[float, float]]) -> list:
    """The members ``rungs``, ``(eps, mollifier width)`` pairs of consecutive
    ladder members, marched in lockstep from their mollified data: each
    member's ``FieldTrajectory``, or the ``StepError`` it failed with."""
    u0 = np.stack([mollify(specs.init_data,
                           make_kernel(width, specs.grid.spacing))
                   for _eps, width in rungs])
    times = snapshot_times(cfg.time_horizon, cfg.snapshots)
    return integrate_batch(specs.grid, u0, specs.flux, specs.visc,
                           [eps for eps, _width in rungs], cfg.cfl, times,
                           sup_bound=cfg.sup_u0)


def solve_member(cfg: ScenarioConfig, specs: RuntimeSpecs, eps: float,
                 width: float) -> FieldTrajectory:
    """One member alone, a batch of one; raises its ``StepError``."""
    return lone(solve_batch(cfg, specs, [(eps, width)]))


def batches(cfg: ScenarioConfig, jobs: int) -> list[list[tuple[float, float]]]:
    """The ladder's ``(eps, width)`` members cut into the runs of
    consecutive members that march together.

    A batch's trajectories fit ``norms.BATCH_BYTES``, and under ``jobs``
    processes it holds at most ``ceil(members / jobs)`` members, so every
    process has work.  In a pool the first member marches alone: it has
    the smallest step, so its march is the longest of the ladder and bounds
    the run's wall time, and batching it would only lengthen that march.
    """
    rungs = list(zip(cfg.ladder, cfg.mollifier_widths))
    trajectory = 8 * (cfg.snapshots + 1) * math.prod(cfg.cells)
    size = max(1, min(norms.BATCH_BYTES // trajectory,
                      -(-len(rungs) // jobs)))
    first = 1 if jobs > 1 else size
    return [rungs[:first]] + [rungs[a:a + size]
                              for a in range(first, len(rungs), size)]


def _young_histograms(cfg: ScenarioConfig, specs: RuntimeSpecs,
                      traj: FieldTrajectory):
    return young_histograms(traj, specs.flux.interval, cfg.young_window_cells,
                            cfg.young_window_snaps, cfg.young_bins)


def member_diagnostics(cfg: ScenarioConfig, specs: RuntimeSpecs,
                       traj: FieldTrajectory) -> MemberDiagnostics:
    m = MemberDiagnostics(eps=traj.epsilon, eps_label=eps_label(traj.epsilon))
    splits = decompose_production(traj, specs.pairs, specs.visc, traj.epsilon)
    for pair, norms in zip(specs.pairs, splits):
        m.entropy[pair.name] = norms
    m.ut_l1 = time_derivative_l1(traj)
    m.young = _young_histograms(cfg, specs, traj)
    m.dirac = dirac_concentration(m.young)
    if specs.grid.dim == 1:
        comp = specs.flux.components[0]
        f_u = np.asarray(comp.f(traj.values), dtype=np.float64)
        g_u = tables.interp(specs.flux.lattice, specs.tartar, traj.values)
        m.divcurl_dev = div_curl_test((traj.values, f_u), (f_u, g_u),
                                      _weak_window(cfg))
    # max |u| without a field of |u|: negation is exact, and abs turns the
    # -0.0 of an all-zero field into the 0.0 that np.abs gives
    m.snapshot_sup = abs(float(max(traj.values.max(), -traj.values.min())))
    m.energy = grad_energy_lhs(traj)
    return m


def _stages(names: list[str], exc: Exception | None = None) -> list[dict]:
    """Manifest stages: each of ``names`` ok, or, given ``exc``, the last
    failed with the error it raised."""
    stages = [{"name": name, "status": "ok"} for name in names]
    if exc is not None:
        stages[-1].update(status="failed", error=str(exc))
    return stages


def _member_dir(outdir: Path, eps: float) -> Path:
    return outdir / f"eps_{eps_label(eps)}"


def _load(cfg: ScenarioConfig, specs: RuntimeSpecs,
          dirpath: Path) -> FieldTrajectory:
    return io.load_trajectory(dirpath, specs.grid, cfg.snapshots)


def _solve_and_diagnose(cfg: ScenarioConfig, specs: RuntimeSpecs | None,
                        outdir: Path, rungs: list, batch: int) -> list:
    """Solve the members ``rungs`` as batch number ``batch``, then diagnose
    and save each in turn, dropping it once saved.  A pool worker passes
    ``specs`` None and builds its own runtime.

    Returns ``(diag, stages)`` of each member: its stages up to the first
    that failed, and ``diag`` None once one has, when nothing of the member
    is kept.  Each ``solve eps=…`` stage records the batch number, and, when
    the member was solved, its steps, dt and peak |u|.
    """
    if specs is None:
        specs = build_runtime(cfg)
    try:
        solved = solve_batch(cfg, specs, rungs)
    except Exception as exc:
        solved = [exc] * len(rungs)
    results = []
    for i, (eps, _width) in enumerate(rungs):
        traj, solved[i] = solved[i], None
        results.append(_diagnose_and_save(cfg, specs, outdir, eps, traj,
                                          batch))
    return results


def _diagnose_and_save(cfg: ScenarioConfig, specs: RuntimeSpecs,
                       outdir: Path, eps: float, traj, batch: int):
    """The stages of one member of a solved batch; ``traj`` is its
    trajectory, or the exception its solve failed with."""
    label = eps_label(eps)
    names = [f"{stage} eps={label}" for stage in ("solve", "diagnose", "save")]
    solve = {"batch": batch}
    done = 1
    try:
        if isinstance(traj, Exception):
            raise traj
        solve.update(steps=traj.steps_taken, dt=traj.dt,
                     max_abs_seen=traj.max_abs_seen)
        done = 2
        diag = member_diagnostics(cfg, specs, traj)
        done = 3
        io.save_trajectory(_member_dir(outdir, eps), traj)
    except Exception as exc:
        shutil.rmtree(_member_dir(outdir, eps), ignore_errors=True)
        diag, stages = None, _stages(names[:done], exc)
    else:
        stages = _stages(names)
    stages[0].update(solve)
    return diag, stages


@dataclass
class RunResult:
    outdir: Path
    manifest: dict
    rows: list
    exit_code: int


def _weak_window(cfg: ScenarioConfig) -> tuple[int, ...]:
    return (cfg.weak_window_snaps,) + (cfg.weak_window_cells,) * cfg.dim


def assess(cfg: ScenarioConfig, specs: RuntimeSpecs,
           members: list[MemberDiagnostics], dirs: list[Path],
           refdir: Path | None):
    """Ladder-wide diagnostics and the estimate table, shared by run, verify
    and plotdata.

    ``members`` are the per-member diagnostics of the members stored in
    ``dirs``, in ladder order; each gains its 2-D compensated quadratic and
    its W1 distance to the reference stored in ``refdir``.  Members are
    loaded one at a time, each member's ``D`` written over its own loaded
    values; the convergence report reads them in blocks of snapshots, next
    to the reference.  Returns the convergence report (None without a
    reference) and the estimate rows.
    """
    if cfg.dim == 2 and dirs:
        quad = build_compensated_quad(specs.flux, cfg.quadrature_tol,
                                      specs.tartar)
        window = _weak_window(cfg)
        c_field = attach_c_field(quad, _load(cfg, specs, dirs[-1]), window)
        for m, d in zip(members, dirs):
            traj = _load(cfg, specs, d)
            dfield = compensated_D_field(traj, quad, c_field, window,
                                         traj.values)
            m.d_mean = float(np.mean(dfield))
            m.d_min = float(np.min(dfield))
            del traj, dfield
    conv = None
    if refdir is not None:
        reference = _load(cfg, specs, refdir)
        ref_hset = _young_histograms(cfg, specs, reference)
        for m in members:
            m.young_w1 = young_w1_distance(m.young, ref_hset)
        if dirs:
            conv = build_convergence_report(
                (io.StoredTrajectory(d, specs.grid, cfg.snapshots)
                 for d in dirs), reference)
        del reference

    rate_fits, ut_fit = {}, None
    if len(members) >= 3:
        for pair in specs.pairs:
            pts = [(m.eps, m.entropy[pair.name][0]) for m in members]
            rate_fits[pair.name] = fit_rate(pts)
        ut_fit = fit_rate([(m.eps, m.ut_l1) for m in members])

    times = snapshot_times(cfg.time_horizon, cfg.snapshots)
    divcurl = synthetic_divcurl(specs.grid, times, _weak_window(cfg))
    rows = evaluate_estimates(cfg, specs, members, conv, divcurl, rate_fits,
                              ut_fit)
    return conv, rows


def run_ladder(cfg: ScenarioConfig, outdir: str | Path | None = None,
               jobs: int = 1, overwrite: bool = False) -> RunResult:
    """Full pipeline: mollify, solve the ladder, solve the reference, run all
    diagnostics, evaluate the estimates, and persist everything.

    The ladder is solved in ``batches(cfg, jobs)``, each batch in a process
    of its own when ``jobs`` is above 1, in a pool of at most one worker
    per batch; ``jobs`` must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    outdir = Path(outdir if outdir is not None else cfg.outdir)
    raw = cfg.raw_text or render_config(cfg)
    digest = config_hash(raw)
    if outdir.exists() and any(outdir.iterdir()):
        # a run of the same config is replaced silently; a run of another
        # config, or anything that is not a run, only with overwrite
        old = (io.read_manifest(outdir).get("config_sha256", "?")
               if (outdir / "manifest.json").exists() else None)
        if old != digest and not overwrite:
            raise RuntimeError(
                (f"{outdir} exists and is not a run directory" if old is None
                 else f"output directory {outdir} holds a run of a different "
                 f"config (hash {old[:12]} != {digest[:12]})")
                + "; pass overwrite to replace it")
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    specs = build_runtime(cfg)
    with open(outdir / "config.resolved.cfg", "w") as fh:
        fh.write(render_config(cfg))

    # a batch is the unit of work, in process and in the pool
    cut = batches(cfg, jobs)
    rungs = [rung for batch in cut for rung in batch]
    if jobs > 1:
        import concurrent.futures  # only a pooled run loads the pool

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(cut))) as pool:
            futures = [pool.submit(_solve_and_diagnose, cfg, None, outdir,
                                   batch, b) for b, batch in enumerate(cut)]
            results = []
            for b, (batch, fut) in enumerate(zip(cut, futures)):
                try:
                    results += fut.result()
                except Exception as exc:
                    # the worker itself failed, a crash or pickling: a
                    # failed solve of each of its members
                    results += [_diagnose_and_save(cfg, specs, outdir, eps,
                                                   exc, b)
                                for eps, _w in batch]
    else:
        # in process, the batches share this run's runtime, one at a time
        results = itertools.chain.from_iterable(
            _solve_and_diagnose(cfg, specs, outdir, batch, b)
            for b, batch in enumerate(cut))

    stages, members, dirs = [], [], []
    for (eps, _w), (diag, member_stages) in zip(rungs, results):
        stages += member_stages
        if diag is not None:
            members.append(diag)
            dirs.append(_member_dir(outdir, eps))
    failures = len(rungs) - len(members)

    refdir = outdir / "reference"
    names, done = ["solve reference", "save reference"], 1
    try:
        reference = solve_reference(
            specs.grid, specs.flux, specs.visc, specs.init_data,
            cfg.cfl, snapshot_times(cfg.time_horizon, cfg.snapshots))
        done = 2
        io.save_trajectory(refdir, reference)
        stages += _stages(names)
    except Exception as exc:
        shutil.rmtree(refdir, ignore_errors=True)
        stages += _stages(names[:done], exc)
        failures += 1
        refdir = None
    reference = None  # assess loads it again; held, it would raise the peak

    def write_manifest(stages, verdicts):
        manifest = {
            "tool": "visclab",
            "version": __version__,
            "backend": kernels.active_backend(),
            "config_sha256": digest,
            "config_text": raw,
            "started": started,
            "finished": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "stages": stages,
            "files": sorted(str(p.relative_to(outdir))
                            for p in outdir.rglob("*") if p.is_file()),
            "estimates": {k: bool(v) for k, v in verdicts.items()},
        }
        io.write_manifest(outdir / "manifest.json", manifest)
        return manifest

    try:
        conv, rows = assess(cfg, specs, members, dirs, refdir)
        _write_reports(outdir, cfg, members, conv, rows)
    except Exception as exc:
        # the run directory keeps the stages recorded so far, so verify
        # names the failure and a new run of this config replaces it
        write_manifest(stages + _stages(["assess"], exc), {})
        raise
    verdicts = overall_verdicts(rows)
    manifest = write_manifest(stages, verdicts)
    if failures:
        code = 2
    elif not all(verdicts.values()):
        code = 1
    else:
        code = 0
    return RunResult(outdir, manifest, rows, code)


def _write_reports(outdir: Path, cfg: ScenarioConfig,
                   members: list[MemberDiagnostics], conv, rows) -> None:
    diag_rows = []
    for m in members:
        for ent_id, (h1, mnorm) in m.entropy.items():
            diag_rows.append((m.eps_label, ent_id, io.fmt(h1), io.fmt(mnorm),
                              io.fmt(m.ut_l1), io.fmt(m.dirac),
                              io.fmt(m.divcurl_dev) if np.isfinite(m.divcurl_dev) else "",
                              io.fmt(m.d_mean) if np.isfinite(m.d_mean) else ""))
    io.write_csv(outdir / "diagnostics.csv",
                 ["epsilon", "entropy_id", "h1_norm_A", "measure_norm_M",
                  "ut_l1", "dirac_metric", "divcurl_dev", "D_mean"], diag_rows)

    conv_rows = []
    if conv is not None:
        cauchy = dict((e, d) for e, d in conv.cauchy_pairs)
        for e, err in zip(conv.epsilons, conv.errors_vs_reference):
            conv_rows.append((eps_label(e), io.fmt(err),
                              io.fmt(cauchy[e]) if e in cauchy else ""))
    io.write_csv(outdir / "convergence.csv",
                 ["epsilon", "l1_error_vs_reference", "cauchy_distance_to_next"],
                 conv_rows)

    est_rows = [(r.estimate, r.detail, r.epsilon, io.fmt(r.lhs), io.fmt(r.rhs),
                 r.op, str(r.passed)) for r in rows]
    io.write_csv(outdir / "estimates.csv",
                 ["estimate", "detail", "epsilon", "lhs", "rhs", "op", "passed"],
                 est_rows)


# ---------------------------------------------------------------------------
# verification and plot data


def _load_run(outdir: Path):
    """The manifest, config and runtime of a stored run, with the
    directories of its stored members (in ladder order) and reference (None
    when absent); no trajectory is loaded."""
    manifest = io.read_manifest(outdir)
    raw = manifest["config_text"]
    if config_hash(raw) != manifest["config_sha256"]:
        raise RuntimeError("manifest config text does not match its hash")
    cfg = build_scenario(raw)
    for rel in manifest["files"]:
        if not (outdir / rel).exists():
            raise FileNotFoundError(f"missing run file {outdir / rel}")
    specs = build_runtime(cfg)
    dirs = [d for d in (_member_dir(outdir, eps) for eps in cfg.ladder)
            if d.exists()]
    refdir = outdir / "reference"
    return manifest, cfg, specs, dirs, refdir if refdir.exists() else None


def _stored_diagnostics(cfg: ScenarioConfig, specs: RuntimeSpecs,
                        dirs: list[Path]) -> list[MemberDiagnostics]:
    """Each stored member's diagnostics, loading one member at a time."""
    return [member_diagnostics(cfg, specs, _load(cfg, specs, d)) for d in dirs]


def verify_run(outdir: str | Path) -> tuple[list[EstimateRow], int, str]:
    """Re-evaluate all pass flags from persisted data; trajectories are
    loaded one member at a time, never re-solved.

    Exits 2 when the verdicts differ from the manifest's, or when the
    manifest records a stage that did not finish ok: the saved data then
    lack what that stage should have produced, so the run fails as a whole
    whatever the remaining members show.
    """
    outdir = Path(outdir)
    manifest, cfg, specs, dirs, refdir = _load_run(outdir)
    members = _stored_diagnostics(cfg, specs, dirs)
    _conv, rows = assess(cfg, specs, members, dirs, refdir)
    verdicts = overall_verdicts(rows)
    stored = manifest.get("estimates", {})
    mismatch = [k for k, v in verdicts.items() if stored.get(k) != v]
    failed = [s["name"] for s in manifest.get("stages", [])
              if s.get("status") != "ok"]
    table = format_table(rows)
    if mismatch:
        table += "\nverdict mismatch vs manifest: " + ", ".join(sorted(mismatch))
    if failed:
        table += "\nstages that failed in the run: " + ", ".join(failed)
    if mismatch or failed:
        return rows, 2, table
    return rows, (0 if all(verdicts.values()) else 1), table


def emit_plotdata(outdir: str | Path, profile_times=None) -> list[Path]:
    """Long-format CSVs: solution profiles and one row per (epsilon, metric)."""
    outdir = Path(outdir)
    manifest, cfg, specs, dirs, refdir = _load_run(outdir)
    plotdir = outdir / "plot"
    plotdir.mkdir(exist_ok=True)
    if profile_times is None:
        T = cfg.time_horizon
        profile_times = [0.0, 0.5 * T, T]
    prof_rows = []
    members = []
    grid = specs.grid
    for d in dirs:
        traj = _load(cfg, specs, d)
        for t in profile_times:
            k = int(np.argmin(np.abs(traj.times - t)))
            # one row per cell, in C order: its center's coordinates, then u
            cells = itertools.product(*(map(io.fmt, grid.centers(ax))
                                        for ax in range(grid.dim)))
            label = (eps_label(traj.epsilon), io.fmt(traj.times[k]))
            for x, u in zip(cells, traj.values[k].ravel()):
                prof_rows.append((*label, *x, io.fmt(u)))
        members.append(member_diagnostics(cfg, specs, traj))
        del traj  # before the next member is loaded
    header = ["epsilon", "t", *"xyz"[:grid.dim], "u"]
    io.write_csv(plotdir / "profiles.csv", header, prof_rows)

    conv, _rows = assess(cfg, specs, members, dirs, refdir)
    metric_rows = []
    for idx, m in enumerate(members):
        vals = {}
        for ent_id, (h1, mnorm) in m.entropy.items():
            vals[f"h1_norm_A[{ent_id}]"] = h1
            vals[f"measure_norm_M[{ent_id}]"] = mnorm
        vals["ut_l1"] = m.ut_l1
        vals["dirac_metric"] = m.dirac
        vals["young_w1"] = m.young_w1
        vals["divcurl_dev"] = m.divcurl_dev
        vals["flux_identity_gap"] = flux_identity_gap(m.young, specs.flux)
        vals["D_mean"] = m.d_mean
        vals["snapshot_sup"] = m.snapshot_sup
        vals["energy"] = m.energy
        vals["l1_error_vs_reference"] = (conv.errors_vs_reference[idx]
                                         if conv is not None else float("nan"))
        for name in sorted(vals):
            metric_rows.append((m.eps_label, name, io.fmt(vals[name])))
    io.write_csv(plotdir / "metrics.csv", ["epsilon", "metric", "value"],
                 metric_rows)
    return [plotdir / "profiles.csv", plotdir / "metrics.csv"]
