import ast
import csv
import importlib.util
import json
import pathlib
import re
import sys
import time
from collections import Counter

import numpy as np
import pytest

from conftest import SCENARIOS, scipy_modules_loaded, small_config
from visclab import harness
from visclab.cli import main as cli_main
from visclab.config import build_scenario
from visclab.harness import emit_plotdata, run_ladder, verify_run
from visclab.io import CorruptSnapshotError
from visclab.report import ESTIMATE_IDS


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = small_config(cells=100, snapshots=10, epsilons="0.1,0.05,0.025")
    out = tmp_path_factory.mktemp("tiny") / "run"
    result = run_ladder(cfg, outdir=out)
    return cfg, result


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_manifest_counts(tiny_run):
    cfg, result = tiny_run
    man = result.manifest
    assert sorted(man["estimates"].keys()) == sorted(ESTIMATE_IDS)
    assert len(man["estimates"]) == 9
    traj_dirs = {f.split("/")[0] for f in man["files"] if f.startswith("eps_")}
    assert len(traj_dirs) == len(cfg.ladder)
    assert any(f.startswith("reference/") for f in man["files"])
    for f in man["files"]:
        assert (result.outdir / f).exists(), f
    assert all(s["status"] == "ok" for s in man["stages"])


def test_diagnostics_columns(tiny_run):
    cfg, result = tiny_run
    rows = read_csv(result.outdir / "diagnostics.csv")
    assert list(rows[0].keys()) == ["epsilon", "entropy_id", "h1_norm_A",
                                    "measure_norm_M", "ut_l1", "dirac_metric",
                                    "divcurl_dev", "D_mean"]
    # one row per (member, entropy pair)
    assert len(rows) == len(cfg.ladder) * (1 + cfg.kruzkov_count)


def test_determinism_byte_identical(tiny_run, tmp_path):
    cfg, result = tiny_run
    rerun = run_ladder(cfg, outdir=tmp_path / "again")
    for name in ("diagnostics.csv", "convergence.csv", "estimates.csv"):
        assert (result.outdir / name).read_bytes() == \
            (tmp_path / "again" / name).read_bytes(), name
    idx_a = (result.outdir / "eps_0.05" / "index.csv").read_bytes()
    idx_b = (tmp_path / "again" / "eps_0.05" / "index.csv").read_bytes()
    assert idx_a == idx_b


def test_rerun_same_config_is_idempotent(tmp_path):
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    out = tmp_path / "run"
    first = run_ladder(cfg, outdir=out)
    second = run_ladder(cfg, outdir=out)  # same hash: overwrite silently
    assert second.outdir == first.outdir


def test_changed_config_requires_overwrite(tmp_path):
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    out = tmp_path / "run"
    run_ladder(cfg, outdir=out)
    import dataclasses
    changed = dataclasses.replace(cfg, cfl=0.35,
                                  raw_text=cfg.raw_text + "# tweak\n")
    with pytest.raises(RuntimeError, match="overwrite"):
        run_ladder(changed, outdir=out)
    res = run_ladder(changed, outdir=out, overwrite=True)
    assert res.manifest["config_sha256"] != ""


def test_verify_untouched_run(tiny_run):
    cfg, result = tiny_run
    rows, code, table = verify_run(result.outdir)
    assert code == result.exit_code
    verdicts = {r.estimate: True for r in rows}
    for r in rows:
        verdicts[r.estimate] &= r.passed
    assert verdicts == result.manifest["estimates"]


def test_verify_detects_corruption(tiny_run, tmp_path):
    cfg, result = tiny_run
    import shutil
    clone = tmp_path / "clone"
    shutil.copytree(result.outdir, clone)
    victim = clone / "eps_0.05" / "snap_0003.bin"
    data = np.fromfile(victim, dtype="<f8")
    data[7] = 9.0  # outside the recorded min/max range
    data.tofile(victim)
    with pytest.raises(CorruptSnapshotError, match="snap_0003.bin"):
        verify_run(clone)


def test_verify_missing_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no manifest"):
        verify_run(empty)


def test_plotdata_counts(tiny_run):
    cfg, result = tiny_run
    paths = emit_plotdata(result.outdir)
    prof = read_csv(paths[0])
    groups = {(r["epsilon"], r["t"]) for r in prof}
    assert len(groups) == len(cfg.ladder) * 3
    metrics = read_csv(paths[1])
    per_eps = {}
    for r in metrics:
        per_eps.setdefault(r["epsilon"], 0)
        per_eps[r["epsilon"]] += 1
    counts = set(per_eps.values())
    assert len(counts) == 1  # same metric count for every member
    assert len(metrics) == len(cfg.ladder) * counts.pop()
    again = emit_plotdata(result.outdir)
    assert paths[0].read_bytes() == again[0].read_bytes()
    assert paths[1].read_bytes() == again[1].read_bytes()


def test_parallel_jobs_match_serial(tmp_path):
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    a = run_ladder(cfg, outdir=tmp_path / "serial", jobs=1)
    b = run_ladder(cfg, outdir=tmp_path / "parallel", jobs=2)
    for name in ("diagnostics.csv", "convergence.csv", "estimates.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "parallel" / name).read_bytes()


def _broken_diagnostics_run(tmp_path, monkeypatch):
    """A two-member run whose eps = 0.05 diagnostics raise: ``(cfg,
    result)``; ``harness.member_diagnostics`` stays patched."""
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    diagnose = harness.member_diagnostics

    def broken_for_finest(cfg, specs, traj):
        if traj.epsilon == 0.05:
            raise FloatingPointError("instrument failed")
        return diagnose(cfg, specs, traj)

    monkeypatch.setattr(harness, "member_diagnostics", broken_for_finest)
    return cfg, run_ladder(cfg, outdir=tmp_path / "run", jobs=1)


def test_failed_diagnostics_blamed_on_diagnose_stage(tmp_path, monkeypatch):
    # an instrument error is recorded against the member's diagnose stage,
    # not its solve; the member stays out of the assessment and the run
    # exits 2
    cfg, result = _broken_diagnostics_run(tmp_path, monkeypatch)
    stages = {s["name"]: s for s in result.manifest["stages"]}
    assert [s["name"] for s in result.manifest["stages"]] == [
        "solve eps=0.1", "diagnose eps=0.1", "solve eps=0.05",
        "diagnose eps=0.05", "solve reference"]
    assert stages["solve eps=0.05"]["status"] == "ok"
    assert stages["diagnose eps=0.05"] == {"name": "diagnose eps=0.05",
                                           "status": "failed",
                                           "error": "instrument failed"}
    assert all(stages[n]["status"] == "ok" for n in
               ("solve eps=0.1", "diagnose eps=0.1", "solve reference"))
    assert result.exit_code == 2
    assert not any(f.startswith("eps_0.05/") for f in result.manifest["files"])
    assert {r["epsilon"] for r in read_csv(result.outdir / "diagnostics.csv")} \
        == {"0.1"}
    # a pool worker runs the same function and returns the same stages
    member, worker_stages = harness._member_worker((cfg, 0.05, 0.02))
    assert member is None
    assert worker_stages == [stages["solve eps=0.05"],
                             stages["diagnose eps=0.05"]]


def test_verify_fails_run_with_failed_stage(tmp_path, monkeypatch):
    # the run exits 2 on its failed diagnose stage, so verify of its
    # directory does too, though the member it saved reassesses cleanly
    _cfg, result = _broken_diagnostics_run(tmp_path, monkeypatch)
    monkeypatch.undo()
    assert result.exit_code == 2
    _rows, code, table = verify_run(result.outdir)
    assert code == 2
    assert "verdict mismatch" not in table
    assert table.splitlines()[-1] == \
        "stages that failed in the run: diagnose eps=0.05"


def test_jobs_below_one_rejected_before_compute(tmp_path):
    cfgfile = tmp_path / "scenario.cfg"
    cfg = small_config()
    cfgfile.write_text(cfg.raw_text)
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfgfile), "--out",
                      str(tmp_path / "run"), "--jobs", jobs])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="jobs"):
            run_ladder(cfg, outdir=tmp_path / "run", jobs=int(jobs))
        assert not (tmp_path / "run").exists()


def _quadratic_config():
    """A non-flat B table, so the march reads B at every face midpoint; the
    shipped scenarios and the other run-level tests take the flat-table path."""
    return small_config(viscosity="quadratic", cells=60, snapshots=4,
                        epsilons="0.1,0.05", young_window_snaps=5,
                        young_window_cells=6)


def _same_outputs(a, b, members=("eps_0.1", "eps_0.05")):
    for name in ("diagnostics.csv", "convergence.csv", "estimates.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for member in members:
        assert (a / member / "index.csv").read_bytes() == \
            (b / member / "index.csv").read_bytes(), member


def test_determinism_byte_identical_quadratic_viscosity(tmp_path):
    cfg = _quadratic_config()
    run_ladder(cfg, outdir=tmp_path / "first")
    run_ladder(cfg, outdir=tmp_path / "again")
    _same_outputs(tmp_path / "first", tmp_path / "again")


def test_parallel_jobs_match_serial_quadratic_viscosity(tmp_path):
    cfg = _quadratic_config()
    run_ladder(cfg, outdir=tmp_path / "serial", jobs=1)
    run_ladder(cfg, outdir=tmp_path / "parallel", jobs=2)
    _same_outputs(tmp_path / "serial", tmp_path / "parallel")


def test_zero_data_trivially_passes(tmp_path):
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    import dataclasses
    text = cfg.raw_text.replace("amplitude = 1.0", "amplitude = 0.0")
    zero_cfg = build_scenario(text)
    res = run_ladder(zero_cfg, outdir=tmp_path / "zero")
    assert res.exit_code == 0
    assert all(res.manifest["estimates"].values())
    rows = read_csv(res.outdir / "diagnostics.csv")
    assert all(float(r["h1_norm_A"]) == 0.0 for r in rows)
    assert all(float(r["ut_l1"]) == 0.0 for r in rows)


def test_cli_presets_and_run(tmp_path, capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "burgers" in out and "constant" in out and "bump" in out

    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(cfg.raw_text)
    code = cli_main(["run", "--config", str(cfgfile), "--out",
                     str(tmp_path / "cli_run")])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "max_principle" in out
    assert cli_main(["verify", str(tmp_path / "cli_run")]) == code
    assert cli_main(["plotdata", str(tmp_path / "cli_run")]) == 0


def test_cli_run_with_percent_in_directory(tmp_path):
    # a '%' in a value is text, not an interpolation
    outdir = tmp_path / "runs" / "50%"
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6,
                       outdir=str(outdir))
    assert cfg.outdir == str(outdir)
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(cfg.raw_text)
    code = cli_main(["run", "--config", str(cfgfile)])
    assert code in (0, 1)
    assert (outdir / "manifest.json").is_file()
    assert cli_main(["verify", str(outdir)]) == code


def test_cli_has_no_backend_option(tmp_path):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(small_config().raw_text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfgfile), "--out",
                  str(tmp_path / "run"), "--backend", "numpy"])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\ncells = 10\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err or "missing" in err


def test_cli_bad_young_window_rejected_before_solving(tmp_path, capsys):
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.raw_text.replace("young_window_snaps = 5",
                                        "young_window_snaps = 3"))
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "config rejected" in capsys.readouterr().err
    assert not out.exists()


def test_cli_zero_weak_window_rejected_before_solving(tmp_path, capsys):
    # before it was rejected, this config ran every solve and then failed
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.raw_text.replace("weak_window_cells = 5",
                                        "weak_window_cells = 0"))
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "config rejected" in capsys.readouterr().err
    assert not out.exists()


def test_cli_nan_amplitude_rejected_before_solving(tmp_path, capsys):
    # before it was rejected, this config made a run directory and failed
    # in the first solve
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.raw_text.replace("amplitude = 1.0", "amplitude = nan"))
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "config rejected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("cells = 60", "cells = 60.9"), ("snapshots = 4", "snapshots = abc"),
    ("\nb = 1.0", "\nb = 0"),
    ("young_bins = 32", "young_bins = 32\nkruzkov_delta = 0"),
    ("young_bins = 32", "young_bins = 32\nkruzkov_count = -1"),
    ("mollifier_width = 0.02", "mollifier_width = 0.0125"),
    ("cfl = 0.4", "clf = 0.1"), ("[scheme]", "[schem]")])
def test_cli_bad_count_or_bound_rejected_before_solving(tmp_path, capsys, old,
                                                        new):
    # before, 60.9 cells ran as 60 and `abc` ended in a traceback with exit 1;
    # the bounds passed the config and failed in a run directory made for them;
    # a width of 0.0125 on 60 cells (a one-node kernel) ran unmollified
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    assert old in cfg.raw_text
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.raw_text.replace(old, new))
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "config rejected" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_not_utf8_rejected(tmp_path, capsys):
    # before, the UnicodeDecodeError ended in a traceback with exit 1
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe" + small_config().raw_text.encode())
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "cannot read config: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times", ["abc", "0.1,,0.2", "nan", "inf"])
def test_cli_plotdata_rejects_bad_times(tmp_path, capsys, times):
    # before, text ended in a ValueError traceback with exit 1 and nan wrote
    # the t = 0 profile
    with pytest.raises(SystemExit) as exc:
        cli_main(["plotdata", str(tmp_path / "run"), "--times", times])
    assert exc.value.code == 2
    assert "--times: must be comma-separated finite reals" in capsys.readouterr().err


def tiny_2d_text():
    """The shipped 2-D scenario on a 16 x 16 grid, 11 snapshots, 2 members
    (0.2 and 0.1: a matched width of 0.05 would be within one cell)."""
    text = (SCENARIOS / "burgers2d.cfg").read_text()
    for old, new in (("cells = 128,128", "cells = 16,16"),
                     ("time_horizon = 0.25", "time_horizon = 0.05"),
                     ("epsilons = 0.1,0.05,0.025", "epsilons = 0.2,0.1"),
                     ("snapshots = 32", "snapshots = 10"),
                     ("young_bins = 64", "young_bins = 16"),
                     ("weak_window_snaps = 8", "weak_window_snaps = 4")):
        assert old in text
        text = text.replace(old, new)
    return text


def test_cli_run_and_verify_load_no_scipy(tmp_path):
    # scipy is a test dependency only: no command may load any scipy module
    one = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6).raw_text
    cli = "from visclab.cli import main\nmain({!r})"
    for name, text in (("one", one), ("two", tiny_2d_text())):
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(text)
        argv = ["run", "--config", str(cfgfile), "--out", str(tmp_path / name)]
        assert scipy_modules_loaded(cli.format(argv)) == []
        assert (tmp_path / name / "estimates.csv").exists()
    assert scipy_modules_loaded(cli.format(["verify",
                                            str(tmp_path / "two")])) == []


def test_package_imports_only_stdlib_numpy_and_itself():
    # numpy is the one runtime dependency in pyproject.toml: every import in
    # the package, those inside functions included, names the standard
    # library, numpy or visclab itself
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "visclab"
    allowed = set(sys.stdlib_module_names) | {"numpy", "visclab"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] not in allowed]
    assert not offenders


def _load_script(directory, name):
    """A script of the repository, imported from its file, unmodified."""
    path = pathlib.Path(__file__).resolve().parent.parent / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_probe():
    """The benchmark's tracing probe."""
    return _load_script("perfbench", "probe")


def test_benchmark_trace_probe_sees_every_layer(tmp_path):
    # the traced benchmark rebinds harness globals; a harness that stops
    # calling through them would leave these counters at zero
    cfg = small_config(cells=60, snapshots=4, epsilons="0.1,0.05",
                       young_window_snaps=5, young_window_cells=6)
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(cfg.raw_text)
    spans = tmp_path / "spans.json"
    code = _load_probe().trace_probe(
        str(spans), ["run", "--config", str(cfgfile), "--out",
                     str(tmp_path / "run")])
    assert code in (0, 1)
    traced = json.loads(spans.read_text())
    assert traced["restored"] is True
    counters = traced["counters"]
    assert counters.get("viscous.steps", 0) > 0
    assert counters.get("reference.steps", 0) > 0
    # one kernel call per explicit step, each looked up through KERNELS (the
    # scenario integrates with euler)
    calls = Counter(span[0] for span in traced["spans"])
    assert calls["kernels.visc_step_1d"] == counters["viscous.steps"]
    assert calls["kernels.godunov_step_1d"] == counters["reference.steps"]
    # one split per member, one dual norm per member and entropy pair
    members = len(cfg.ladder)
    pairs = len(harness.build_runtime(cfg).pairs)
    assert members == 2 and pairs == 1 + cfg.kruzkov_count
    assert calls["compactness.decompose_production"] == members
    assert calls["norms.h_minus_one_norm"] == members * pairs


def test_benchmark_trace_probe_counts_2d_kernels_by_name(tmp_path):
    # the benchmark's per-layer kernel metrics are keyed by the KERNELS name
    # each solver looks its step up under: the 2-D reference makes three
    # Godunov sweeps per Strang step, the 2-D members one viscous step each
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(tiny_2d_text())
    spans = tmp_path / "spans.json"
    code = _load_probe().trace_probe(
        str(spans), ["run", "--config", str(cfgfile), "--out",
                     str(tmp_path / "run")])
    assert code in (0, 1)
    traced = json.loads(spans.read_text())
    assert traced["restored"] is True
    counters = traced["counters"]
    calls = Counter(span[0] for span in traced["spans"])
    assert counters["reference.steps"] > 0 and counters["viscous.steps"] > 0
    assert calls["kernels.godunov_sweep_2d"] == 3 * counters["reference.steps"]
    assert calls["kernels.visc_step_2d"] == counters["viscous.steps"]
    assert calls["kernels.godunov_step_1d"] == 0
    assert calls["kernels.visc_step_1d"] == 0


def test_bench_diagnostics_runs_on_stored_runs(tiny_run, tmp_path, capsys):
    # every table of the diagnostics benchmark, on a stored 1-D and 2-D run
    cfg, one = tiny_run
    two = run_ladder(build_scenario(tiny_2d_text()), outdir=tmp_path / "two")
    _load_script("benchmarks", "bench_diagnostics").main(
        [str(one.outdir), str(two.outdir)])
    out = capsys.readouterr().out
    assert f"{one.outdir}: 3 members" in out
    assert f"{two.outdir}: 2 members" in out
    # one split per member with all of its pairs, then each pair's dual norm
    assert len(re.findall(r"^  decompose_production\s+1\s", out, re.M)) == 2
    assert out.count("  attach_c_field ") == 1
    for pair in harness.build_runtime(cfg).pairs:
        assert out.count(f"  {pair.name} ") == 2
    assert out.count("  mollify kernel ") == 2


def test_benchmark_setup_probe_records_numpy_kernels(tiny_run, tmp_path,
                                                   capsys):
    cfg, result = tiny_run
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(cfg.raw_text)
    _load_probe().setup_probe(time.monotonic_ns(), str(cfgfile))
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["backend"] == "numpy"
    assert line["numba_importable"] is False
    assert line["setup_s"] > 0
    manifest = json.loads((result.outdir / "manifest.json").read_text())
    assert manifest["backend"] == "numpy"


def test_plotdata_metrics_match_run_diagnostics(run2d):
    _cfg, result = run2d
    emit_plotdata(result.outdir)
    plotted = {(r["epsilon"], r["metric"]): r["value"]
               for r in read_csv(result.outdir / "plot" / "metrics.csv")}
    diag = read_csv(result.outdir / "diagnostics.csv")
    assert diag
    for r in diag:
        assert plotted[(r["epsilon"], "D_mean")] == r["D_mean"]
        assert plotted[(r["epsilon"], "dirac_metric")] == r["dirac_metric"]
