"""End-to-end orchestration: run the ladder, verify a run, emit plot data."""

from __future__ import annotations

import concurrent.futures
import datetime
import itertools
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io, kernels, tables
from .compactness import (attach_c_field, build_compensated_quad,
                          compensated_D_field, decompose_production,
                          dirac_concentration, div_curl_test,
                          flux_identity_gap, tartar_pair_table,
                          time_derivative_l1, young_histograms,
                          young_w1_distance)
from .config import ScenarioConfig, build_scenario, config_hash, render_config
from .convergence import build_convergence_report, fit_rate
from .domain import FieldTrajectory, Grid, kruzkov_ladder, make_entropy_pair, \
    make_flux, make_viscosity
from .mollify import make_initial_data, make_kernel, mollify
from .report import (EstimateRow, MemberDiagnostics, evaluate_estimates,
                     format_table, grad_energy_lhs, overall_verdicts,
                     synthetic_divcurl)
from .reference import solve_reference
from .viscous import integrate, snapshot_times


@dataclass
class RuntimeSpecs:
    grid: Grid
    flux: object
    visc: object
    pairs: list
    init_data: object
    tartar: np.ndarray
    sup_bound: float


def eps_label(eps: float) -> str:
    return f"{eps:g}"


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
    return RuntimeSpecs(grid, flux, visc, pairs, init, tartar, cfg.sup_u0)


def solve_member(cfg: ScenarioConfig, specs: RuntimeSpecs, eps: float,
                 width: float) -> FieldTrajectory:
    kern = make_kernel(width, specs.grid.spacing)
    u0eps = mollify(specs.init_data, kern)
    times = snapshot_times(cfg.time_horizon, cfg.snapshots)
    return integrate(specs.grid, u0eps.values, specs.flux, specs.visc, eps,
                     cfg.cfl, times, sup_bound=specs.sup_bound)


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
    m.flux_identity = flux_identity_gap(m.young, specs.flux)
    if specs.grid.dim == 1:
        comp = specs.flux.components[0]
        f_u = np.asarray(comp.f(traj.values), dtype=np.float64)
        g_u = tables.interp(specs.flux.lattice, specs.tartar, traj.values)
        window = (cfg.weak_window_snaps, cfg.weak_window_cells)
        m.divcurl_dev = div_curl_test((traj.values, f_u), (f_u, g_u), window)
    m.snapshot_sup = float(np.max(np.abs(traj.values)))
    m.energy = grad_energy_lhs(traj)
    return m


def _stage(name: str, exc: Exception | None = None) -> dict:
    """A manifest stage: ok, or failed with the error it raised."""
    if exc is None:
        return {"name": name, "status": "ok"}
    return {"name": name, "status": "failed", "error": str(exc)}


def _solve_and_diagnose(cfg: ScenarioConfig, specs: RuntimeSpecs, eps: float,
                        width: float):
    """Solve one member, then diagnose it, each as a stage of its own.

    Returns ``(member, stages)``: ``member`` is ``(traj, diag)``, or None
    when either stage failed; a failed solve leaves no diagnose stage.
    """
    label = eps_label(eps)
    solve, diagnose = f"solve eps={label}", f"diagnose eps={label}"
    try:
        traj = solve_member(cfg, specs, eps, width)
    except Exception as exc:
        return None, [_stage(solve, exc)]
    try:
        diag = member_diagnostics(cfg, specs, traj)
    except Exception as exc:
        return None, [_stage(solve), _stage(diagnose, exc)]
    return (traj, diag), [_stage(solve), _stage(diagnose)]


def _member_worker(args):
    """One member in a pool process, which builds its own runtime."""
    cfg, eps, width = args
    return _solve_and_diagnose(cfg, build_runtime(cfg), eps, width)


@dataclass
class RunResult:
    outdir: Path
    manifest: dict
    rows: list
    exit_code: int


def _weak_window(cfg: ScenarioConfig) -> tuple[int, ...]:
    return (cfg.weak_window_snaps,) + (cfg.weak_window_cells,) * cfg.dim


def assess(cfg: ScenarioConfig, specs: RuntimeSpecs,
           members: list[MemberDiagnostics], trajs: list[FieldTrajectory],
           reference: FieldTrajectory | None):
    """Ladder-wide diagnostics and the estimate table, shared by run, verify
    and plotdata.

    ``members`` are the per-member diagnostics of ``trajs``, in ladder order;
    each gains its 2-D compensated quadratic and its W1 distance to the
    reference.  Returns the convergence report (None without a reference)
    and the estimate rows.
    """
    if cfg.dim == 2 and trajs:
        quad = build_compensated_quad(specs.flux, cfg.quadrature_tol)
        quad = attach_c_field(quad, trajs[-1], _weak_window(cfg))
        for m, traj in zip(members, trajs):
            dfield = compensated_D_field(traj, quad)
            m.d_mean = float(np.mean(dfield.values))
            m.d_min = float(np.min(dfield.values))
            del dfield
    conv = None
    if reference is not None:
        ref_hset = _young_histograms(cfg, specs, reference)
        for m in members:
            m.young_w1 = young_w1_distance(m.young, ref_hset)
        if trajs:
            conv = build_convergence_report(trajs, reference)

    rate_fits, ut_fit = {}, None
    if len(members) >= 3:
        for pair in specs.pairs:
            pts = [(m.eps, m.entropy[pair.name][0]) for m in members]
            rate_fits[pair.name] = fit_rate(pts)
        ut_fit = fit_rate([(m.eps, m.ut_l1) for m in members])

    times = snapshot_times(cfg.time_horizon, cfg.snapshots)
    dc_compact, dc_violation = synthetic_divcurl(specs.grid, times,
                                                 _weak_window(cfg))
    etapp_sup = {p.name: p.etapp_sup for p in specs.pairs}
    rows = evaluate_estimates(cfg, members, conv, specs.sup_bound,
                              specs.visc.lower_bound, specs.visc.upper_bound,
                              specs.grid.volume, etapp_sup,
                              dc_compact, dc_violation, rate_fits, ut_fit)
    return conv, rows


def run_ladder(cfg: ScenarioConfig, outdir: str | Path | None = None,
               jobs: int = 1, overwrite: bool = False) -> RunResult:
    """Full pipeline: mollify, solve the ladder, solve the reference, run all
    diagnostics, evaluate the estimates, and persist everything.

    ``jobs`` members are solved at once, each in a process of its own when
    it is above 1; it must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    outdir = Path(outdir if outdir is not None else cfg.outdir)
    raw = cfg.raw_text or render_config(cfg)
    digest = config_hash(raw)
    if outdir.exists():
        if (outdir / "manifest.json").exists():
            old = io.read_manifest(outdir)
            if old.get("config_sha256") != digest and not overwrite:
                raise RuntimeError(
                    f"output directory {outdir} holds a run of a different "
                    f"config (hash {old.get('config_sha256', '?')[:12]} != "
                    f"{digest[:12]}); pass overwrite to replace it")
            shutil.rmtree(outdir)
        elif any(outdir.iterdir()):
            if not overwrite:
                raise RuntimeError(f"{outdir} exists and is not a run "
                                   "directory; pass overwrite to replace it")
            shutil.rmtree(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    stages = []
    files = []
    specs = build_runtime(cfg)

    resolved = render_config(cfg)
    with open(outdir / "config.resolved.cfg", "w") as fh:
        fh.write(resolved)
    files.append("config.resolved.cfg")

    members: list[MemberDiagnostics] = []
    trajs: dict[float, FieldTrajectory] = {}
    failures = 0
    rungs = list(zip(cfg.ladder, cfg.mollifier_widths))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_member_worker, (cfg, eps, width)):
                       eps for eps, width in rungs}
            results = {}
            for fut in concurrent.futures.as_completed(futures):
                eps = futures[fut]
                try:
                    results[eps] = fut.result()
                except Exception as exc:
                    # the worker itself failed: set-up, pickling or a crash
                    results[eps] = (None, [
                        _stage(f"solve eps={eps_label(eps)}", exc)])
        ordered = [(eps, results[eps]) for eps, _w in rungs]
    else:
        # in process, the members share this run's runtime
        ordered = [(eps, _solve_and_diagnose(cfg, specs, eps, width))
                   for eps, width in rungs]

    for eps, (member, member_stages) in ordered:
        stages.extend(member_stages)
        if member is None:
            failures += 1
            continue
        traj, diag = member
        trajs[eps] = traj
        members.append(diag)
        files.extend(str(Path(p).relative_to(outdir)) for p in
                     io.save_trajectory(outdir / f"eps_{eps_label(eps)}", traj))

    reference = None
    try:
        u0ref = specs.init_data.field.values
        reference = solve_reference(specs.grid, specs.flux, specs.visc, u0ref,
                                    cfg.cfl,
                                    snapshot_times(cfg.time_horizon, cfg.snapshots))
        files.extend(str(Path(p).relative_to(outdir)) for p in
                     io.save_trajectory(outdir / "reference", reference))
        stages.append(_stage("solve reference"))
    except Exception as exc:
        stages.append(_stage("solve reference", exc))
        failures += 1

    ladder_trajs = [trajs[e] for e in cfg.ladder if e in trajs]
    conv, rows = assess(cfg, specs, members, ladder_trajs, reference)

    _write_reports(outdir, cfg, members, conv, rows, files)

    verdicts = overall_verdicts(rows)
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "tool": "visclab",
        "version": __version__,
        "backend": kernels.active_backend(),
        "config_sha256": digest,
        "config_text": raw,
        "started": started,
        "finished": finished,
        "stages": stages,
        "files": sorted(files),
        "estimates": {k: bool(v) for k, v in verdicts.items()},
    }
    io.write_manifest(outdir / "manifest.json", manifest)
    if failures:
        code = 2
    elif not all(verdicts.values()):
        code = 1
    else:
        code = 0
    return RunResult(outdir, manifest, rows, code)


def _write_reports(outdir: Path, cfg: ScenarioConfig,
                   members: list[MemberDiagnostics], conv, rows, files) -> None:
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
    files.append("diagnostics.csv")

    conv_rows = []
    if conv is not None:
        cauchy = dict((e, d) for e, d in conv.cauchy_pairs)
        for e, err in zip(conv.epsilons, conv.errors_vs_reference):
            conv_rows.append((eps_label(e), io.fmt(err),
                              io.fmt(cauchy[e]) if e in cauchy else ""))
    io.write_csv(outdir / "convergence.csv",
                 ["epsilon", "l1_error_vs_reference", "cauchy_distance_to_next"],
                 conv_rows)
    files.append("convergence.csv")

    est_rows = [(r.estimate, r.detail, r.epsilon, io.fmt(r.lhs), io.fmt(r.rhs),
                 r.op, str(r.passed)) for r in rows]
    io.write_csv(outdir / "estimates.csv",
                 ["estimate", "detail", "epsilon", "lhs", "rhs", "op", "passed"],
                 est_rows)
    files.append("estimates.csv")


# ---------------------------------------------------------------------------
# verification and plot data


def _load_run(outdir: Path):
    manifest = io.read_manifest(outdir)
    raw = manifest["config_text"]
    if config_hash(raw) != manifest["config_sha256"]:
        raise RuntimeError("manifest config text does not match its hash")
    cfg = build_scenario(raw)
    for rel in manifest["files"]:
        if not (outdir / rel).exists():
            raise FileNotFoundError(f"missing run file {outdir / rel}")
    specs = build_runtime(cfg)
    trajs = []
    for eps in cfg.ladder:
        d = outdir / f"eps_{eps_label(eps)}"
        if d.exists():
            trajs.append(io.load_trajectory(d, specs.grid))
    refdir = outdir / "reference"
    reference = io.load_trajectory(refdir, specs.grid) if refdir.exists() else None
    return manifest, cfg, specs, trajs, reference


def verify_run(outdir: str | Path) -> tuple[list[EstimateRow], int, str]:
    """Re-evaluate all pass flags from persisted data; trajectories are
    loaded, never re-solved.

    Exits 2 when the verdicts differ from the manifest's, or when the
    manifest records a stage that did not finish ok: the saved data then
    lack what that stage should have produced, so the run fails as a whole
    whatever the remaining members show.
    """
    outdir = Path(outdir)
    manifest, cfg, specs, trajs, reference = _load_run(outdir)
    members = [member_diagnostics(cfg, specs, t) for t in trajs]
    _conv, rows = assess(cfg, specs, members, trajs, reference)
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
    manifest, cfg, specs, trajs, reference = _load_run(outdir)
    plotdir = outdir / "plot"
    plotdir.mkdir(exist_ok=True)
    if profile_times is None:
        T = cfg.time_horizon
        profile_times = [0.0, 0.5 * T, T]
    prof_rows = []
    grid = specs.grid
    for traj in trajs:
        for t in profile_times:
            k = int(np.argmin(np.abs(traj.times - t)))
            # one row per cell, in C order: its center's coordinates, then u
            cells = itertools.product(*(map(io.fmt, grid.centers(ax))
                                        for ax in range(grid.dim)))
            label = (eps_label(traj.epsilon), io.fmt(traj.times[k]))
            for x, u in zip(cells, traj.values[k].ravel()):
                prof_rows.append((*label, *x, io.fmt(u)))
    header = ["epsilon", "t", *"xyz"[:grid.dim], "u"]
    io.write_csv(plotdir / "profiles.csv", header, prof_rows)

    members = [member_diagnostics(cfg, specs, t) for t in trajs]
    conv, _rows = assess(cfg, specs, members, trajs, reference)
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
        vals["flux_identity_gap"] = m.flux_identity
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
