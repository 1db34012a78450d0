import ast
import csv
import gc
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import SCENARIOS, UNNEEDED, modules_loaded, small_config, \
    tiny_config
from visclab import compactness, convergence, harness, io, norms, tables
from visclab.cli import main as cli_main
from visclab.config import build_scenario
from visclab.harness import emit_plotdata, run_ladder, verify_run
from visclab.io import CorruptSnapshotError
from visclab.report import ESTIMATE_IDS


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = small_config()
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


def test_solve_stages_record_each_members_march(tiny_run):
    # a member's solve stage records its batch number and the steps, dt and
    # peak |u| of its march, the values its meta.json stores
    cfg, result = tiny_run
    [batch] = harness.batches(cfg, 1)
    assert [eps for eps, _w in batch] == list(cfg.ladder)
    solves = [s for s in result.manifest["stages"]
              if s["name"].startswith("solve eps=")]
    assert len(solves) == len(cfg.ladder) == 3
    for eps, stage in zip(cfg.ladder, solves):
        label = harness.eps_label(eps)
        meta = json.loads((result.outdir / f"eps_{label}" / "meta.json")
                          .read_text())
        assert stage == {"name": f"solve eps={label}", "status": "ok",
                         "batch": 0, "steps": meta["steps_taken"],
                         "dt": meta["dt"],
                         "max_abs_seen": meta["max_abs_seen"]}
    assert [s["steps"] for s in solves] == sorted(
        (s["steps"] for s in solves), reverse=True)


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
    cfg = tiny_config()
    out = tmp_path / "run"
    first = run_ladder(cfg, outdir=out)
    second = run_ladder(cfg, outdir=out)  # same hash: overwrite silently
    assert second.outdir == first.outdir


def test_directory_that_is_not_a_run_requires_overwrite(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("not a run\n")
    with pytest.raises(RuntimeError, match="not a run directory"):
        run_ladder(cfg, outdir=out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    res = run_ladder(cfg, outdir=out, overwrite=True)
    assert not (out / "notes.txt").exists()
    assert (out / "manifest.json").exists()
    assert "notes.txt" not in res.manifest["files"]


def test_changed_config_requires_overwrite(tmp_path):
    cfg = tiny_config()
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

    def corrupted(name, damage):
        clone = tmp_path / name
        shutil.copytree(result.outdir, clone)
        damage(clone / "eps_0.05")
        return clone

    def out_of_range(member):
        victim = member / "snap_0003.bin"
        data = np.fromfile(victim, dtype="<f8")
        data[7] = 9.0  # outside the recorded min/max range
        data.tofile(victim)

    with pytest.raises(CorruptSnapshotError, match="snap_0003.bin"):
        verify_run(corrupted("range", out_of_range))

    def other_cells(member):
        # the same bytes, described as another grid: before this was
        # checked, verify reassessed the member as if it were intact
        meta = json.loads((member / "meta.json").read_text())
        meta["cells"] = [50, 2]
        (member / "meta.json").write_text(json.dumps(meta))

    with pytest.raises(CorruptSnapshotError,
                       match=r"eps_0.05/meta.json records cells \[50, 2\]"):
        verify_run(corrupted("cells", other_cells))

    def truncated_index(member):
        index = member / "index.csv"
        index.write_text("".join(index.read_text().splitlines(True)[:-1]))

    # before, this failed later, as "last snapshot not within one dt of the
    # horizon", with no file named
    with pytest.raises(CorruptSnapshotError,
                       match=r"eps_0.05/index.csv has 10 rows, expected 11"):
        verify_run(corrupted("index", truncated_index))

    def other_file(member):
        # row 3 names snapshot 2's file, with its min and max: before the
        # names were checked, verify read snap_0002.bin twice and exited as
        # on the intact run, never reading snapshot 3
        index = member / "index.csv"
        rows = read_csv(index)
        rows[3].update(filename="snap_0002.bin", min=rows[2]["min"],
                       max=rows[2]["max"])
        with open(index, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    clone = corrupted("names", other_file)
    with pytest.raises(CorruptSnapshotError,
                       match=r"eps_0.05/snap_0003.bin does not match"):
        verify_run(clone)
    assert cli_main(["verify", str(clone)]) == 2


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


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    # a two-member ladder, one batch in process and two in the pool; then a
    # three-member ladder that a budget of two trajectories cuts into two
    # batches in process, and the pool into two others
    def stamped(outdir):
        # the batches differ by jobs, so each solve stage's batch number
        manifest = json.loads((outdir / "manifest.json").read_text())
        for stage in manifest["stages"]:
            stage.pop("batch", None)
        return {k: v for k, v in manifest.items()
                if k not in ("started", "finished")}

    two = tiny_config()
    three = tiny_config(epsilons="0.1,0.05,0.025")
    cuts = {(1, 2): [[0.1, 0.05]], (2, 2): [[0.1], [0.05]],
            (1, 3): [[0.1, 0.05], [0.025]], (2, 3): [[0.1], [0.05, 0.025]]}
    for cfg in (two, three):
        if cfg is three:
            monkeypatch.setattr(norms, "BATCH_BYTES", 2 * 8 * 5 * 60)
        runs = []
        for jobs in (1, 2):
            assert [[eps for eps, _w in batch] for batch in
                    harness.batches(cfg, jobs)] == cuts[jobs, len(cfg.ladder)]
            runs.append(run_ladder(cfg, outdir=tmp_path / f"{len(cfg.ladder)}"
                                   f"-{jobs}", jobs=jobs))
        a, b = runs
        # pool workers save their own members: every file of the two run
        # directories matches, the manifest but for its timestamps
        files = {p.relative_to(a.outdir) for p in a.outdir.rglob("*")
                 if p.is_file()}
        assert files == {p.relative_to(b.outdir) for p in b.outdir.rglob("*")
                         if p.is_file()}
        assert {str(f) for f in files} == set(a.manifest["files"]) | {
            "manifest.json"}
        for rel in sorted(files - {pathlib.Path("manifest.json")}):
            assert (a.outdir / rel).read_bytes() == \
                (b.outdir / rel).read_bytes(), rel
        assert stamped(a.outdir) == stamped(b.outdir)


def _broken_diagnostics_run(tmp_path, monkeypatch):
    """A two-member run whose eps = 0.05 diagnostics raise: ``(cfg,
    result)``; ``harness.member_diagnostics`` stays patched."""
    cfg = tiny_config()
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
        "solve eps=0.1", "diagnose eps=0.1", "save eps=0.1", "solve eps=0.05",
        "diagnose eps=0.05", "solve reference", "save reference"]
    assert stages["solve eps=0.05"]["status"] == "ok"
    assert stages["diagnose eps=0.05"] == {"name": "diagnose eps=0.05",
                                           "status": "failed",
                                           "error": "instrument failed"}
    assert all(stages[n]["status"] == "ok" for n in
               ("solve eps=0.1", "diagnose eps=0.1", "save eps=0.1",
                "solve reference", "save reference"))
    assert result.exit_code == 2
    assert not any(f.startswith("eps_0.05/") for f in result.manifest["files"])
    assert not (result.outdir / "eps_0.05").exists()
    assert {r["epsilon"] for r in read_csv(result.outdir / "diagnostics.csv")} \
        == {"0.1"}
    # a pool worker runs the same function, returns the same stages and
    # saves nothing either
    worker_out = tmp_path / "worker"
    worker_out.mkdir()
    [(diag, worker_stages)] = harness._solve_and_diagnose(
        cfg, None, worker_out, [(0.05, 0.02)], 0)
    assert diag is None
    assert worker_stages == [stages["solve eps=0.05"],
                             stages["diagnose eps=0.05"]]
    assert not any(worker_out.iterdir())


def test_failed_save_blamed_on_save_stage(tmp_path, monkeypatch):
    # a member whose trajectory cannot be written is recorded against its
    # own save stage, in process as in a pool worker; nothing of it is kept
    # and verify of the run names that stage
    cfg = tiny_config()
    save = io.save_trajectory

    def full_disk_for_finest(dirpath, traj):
        if traj.epsilon == 0.05:
            save(dirpath, traj)  # part of it reaches the disk first
            raise OSError("no space left on device")
        return save(dirpath, traj)

    monkeypatch.setattr(io, "save_trajectory", full_disk_for_finest)
    result = run_ladder(cfg, outdir=tmp_path / "run", jobs=1)
    assert result.exit_code == 2
    failed = {"name": "save eps=0.05", "status": "failed",
              "error": "no space left on device"}
    solve, *rest = result.manifest["stages"][3:6]
    assert (solve["name"], solve["status"]) == ("solve eps=0.05", "ok")
    assert rest == [{"name": "diagnose eps=0.05", "status": "ok"}, failed]
    assert not (result.outdir / "eps_0.05").exists()
    assert not any(f.startswith("eps_0.05/") for f in result.manifest["files"])
    manifest = json.loads((result.outdir / "manifest.json").read_text())
    assert manifest["stages"] == result.manifest["stages"]
    worker_out = tmp_path / "worker"
    worker_out.mkdir()
    [(diag, worker_stages)] = harness._solve_and_diagnose(
        cfg, None, worker_out, [(0.05, cfg.mollifier_widths[1])], 0)
    assert diag is None
    assert worker_stages == result.manifest["stages"][3:6]
    assert not any(worker_out.iterdir())
    monkeypatch.undo()
    _rows, code, table = verify_run(result.outdir)
    assert code == 2
    assert table.splitlines()[-1] == \
        "stages that failed in the run: save eps=0.05"


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


def test_2d_run_whose_every_member_fails_writes_its_manifest(
        tmp_path, monkeypatch, capsys):
    # with no member stored, d2_quad reads "not evaluated" instead of
    # taking the pointwise floor of no member; the run still writes its
    # manifest, and it and verify of its directory exit 2
    def broken(*_args):
        raise RuntimeError("march failed")

    monkeypatch.setattr(harness, "solve_batch", broken)
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(tiny_2d_text())
    out = tmp_path / "run"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "run failed" not in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [{"name": f"solve eps={eps}", "status": "failed",
               "error": "march failed", "batch": 0} for eps in ("0.2", "0.1")]
    assert [s for s in manifest["stages"] if s["status"] != "ok"] == failed
    assert [r["detail"] for r in read_csv(out / "estimates.csv")
            if r["estimate"] == "d2_quad"] == ["not evaluated (ladder too short)"]
    monkeypatch.undo()
    assert cli_main(["verify", str(out)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == \
        "stages that failed in the run: solve eps=0.2, solve eps=0.1"


def test_failed_assessment_writes_its_manifest(tmp_path, monkeypatch,
                                               capsys):
    # an instrument that raises in the ladder-wide assessment fails the run
    # (exit 2), but the run directory keeps a manifest: the stages recorded
    # before it and one failed assess stage; verify names that stage, and a
    # second run of the config replaces the directory without --overwrite
    def broken(*_args):
        raise FloatingPointError("instrument failed")

    monkeypatch.setattr(harness, "synthetic_divcurl", broken)
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text(tiny_config().raw_text)
    out = tmp_path / "run"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "run failed: instrument failed\n"
    manifest = json.loads((out / "manifest.json").read_text())
    *recorded, failed = manifest["stages"]
    assert [s["name"] for s in recorded] == [
        "solve eps=0.1", "diagnose eps=0.1", "save eps=0.1", "solve eps=0.05",
        "diagnose eps=0.05", "save eps=0.05", "solve reference",
        "save reference"]
    assert all(s["status"] == "ok" for s in recorded)
    assert failed == {"name": "assess", "status": "failed",
                      "error": "instrument failed"}
    assert manifest["estimates"] == {}
    monkeypatch.undo()
    assert cli_main(["verify", str(out)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == \
        "stages that failed in the run: assess"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) \
        in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(s["status"] == "ok" for s in manifest["stages"])
    assert "assess" not in {s["name"] for s in manifest["stages"]}


def test_pool_has_one_worker_per_batch(tmp_path, monkeypatch):
    # an in-process stand-in for the pool records the workers asked for and
    # runs each batch at submit, so no process is started
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    cfg = tiny_config()
    result = run_ladder(cfg, outdir=tmp_path / "run", jobs=16)
    assert asked == [len(harness.batches(cfg, 16))] == [2]
    assert result.exit_code in (0, 1)


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
    return tiny_config(viscosity="quadratic")


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
    cfg = tiny_config()
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

    cfg = tiny_config()
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
    cfg = tiny_config(outdir=str(outdir))
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


@pytest.mark.parametrize("old, new", [
    ("cells = 60", "cells = 60.9"), ("snapshots = 4", "snapshots = abc"),
    ("\nb = 1.0", "\nb = 0"),
    ("young_bins = 32", "young_bins = 32\nkruzkov_delta = 0"),
    ("young_bins = 32", "young_bins = 32\nkruzkov_count = -1"),
    ("mollifier_width = 0.02", "mollifier_width = 0.0125"),
    ("cfl = 0.4", "clf = 0.1"), ("[scheme]", "[schem]"),
    ("young_window_snaps = 5", "young_window_snaps = 3"),
    ("weak_window_cells = 5", "weak_window_cells = 0"),
    ("amplitude = 1.0", "amplitude = nan"),
    ("burgers,linear\na = 1.0", "linear,burgers\na = 0.0")])
def test_cli_bad_count_or_bound_rejected_before_solving(tmp_path, capsys, old,
                                                        new):
    # before, 60.9 cells ran as 60 and `abc` ended in a traceback with exit 1;
    # the bounds passed the config and failed in a run directory made for them;
    # a width of 0.0125 on 60 cells (a one-node kernel) ran unmollified; the
    # empty weak window ran every solve and then failed, and the nan amplitude
    # failed in the first solve; a constant first flux on the 2-D config
    # solved every member and the reference, then failed to pick c and left
    # a run directory without a manifest.  Each case edits the 1-D tiny
    # config, or the 2-D one where only that holds ``old``.
    text = next(t for t in (tiny_config().raw_text, tiny_2d_text())
                if old in t)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
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
    # scipy is a test dependency only: no command may load any scipy module,
    # and a --jobs 1 run and verify load none of the other unneeded modules
    one = tiny_config().raw_text
    cli = "from visclab.cli import main\nmain({!r})"
    for name, text in (("one", one), ("two", tiny_2d_text())):
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(text)
        argv = ["run", "--config", str(cfgfile), "--out", str(tmp_path / name)]
        assert modules_loaded(cli.format(argv), UNNEEDED) == []
        assert (tmp_path / name / "estimates.csv").exists()
    assert modules_loaded(cli.format(["verify", str(tmp_path / "two")]),
                          UNNEEDED) == []


def test_package_import_loads_no_module():
    # the package re-exports nothing: each caller imports the module it uses
    assert modules_loaded("import visclab", ["visclab."]) == []


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


def _batched_steps(outdir):
    """One viscous kernel call per batched step: the sum over a run's
    batches of the largest ``steps_taken`` among the batch's members, read
    from their ``meta.json`` and the batch numbers of their solve stages."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    most = Counter()
    for stage in manifest["stages"]:
        if stage["name"].startswith("solve eps="):
            label = stage["name"].removeprefix("solve eps=")
            meta = json.loads((outdir / f"eps_{label}" / "meta.json")
                              .read_text())
            most[stage["batch"]] = max(most[stage["batch"]],
                                       meta["steps_taken"])
    return sum(most.values())


def test_benchmark_trace_probe_sees_every_layer(tmp_path):
    # the traced benchmark rebinds harness globals; a harness that stops
    # calling through them would leave these counters at zero
    cfg = tiny_config()
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
    assert counters.get("reference.steps", 0) > 0
    # one kernel call per batched explicit step, each looked up through
    # KERNELS (the scenario integrates with euler).  The probe counts
    # ``viscous.steps`` through ``harness.integrate``, which a batched solve
    # does not call, so the steps come from the run directory
    calls = Counter(span[0] for span in traced["spans"])
    assert calls["kernels.visc_step_1d"] == _batched_steps(tmp_path / "run") \
        > 0
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
    assert counters["reference.steps"] > 0
    assert calls["kernels.godunov_sweep_2d"] == 3 * counters["reference.steps"]
    assert calls["kernels.visc_step_2d"] == _batched_steps(tmp_path / "run") \
        > 0
    assert calls["kernels.godunov_step_1d"] == 0
    assert calls["kernels.visc_step_1d"] == 0
    # only plotdata writes the flux identity gap, so a run never computes it
    assert calls["compactness.flux_identity_gap"] == 0


def test_commands_hold_one_member_at_a_time(tmp_path, monkeypatch):
    # every trajectory solved or loaded is registered.  When ``run`` splits
    # a member, the live ones are the members of its batch not yet saved,
    # within the batch budget; when ``verify`` or ``plotdata`` splits one,
    # or any command evaluates a compensated quadratic, it is the only one
    # alive, and the convergence walk, which reads the members in blocks of
    # snapshots, holds no whole trajectory but the reference (a trajectory
    # hashes its arrays, so weak references stand in for a WeakSet)
    refs = []
    seen = []

    def register(traj):
        refs.append(weakref.ref(traj))
        return traj

    def registering(fn, batch=False):
        def registered(*args, **kwargs):
            got = fn(*args, **kwargs)
            return [register(t) for t in got] if batch else register(got)
        return registered

    def counted(owner, name):
        fn = getattr(owner, name)

        def count_live(*args, **kwargs):
            gc.collect()
            live = [ref() for ref in refs if ref() is not None]
            seen.append((name, [t.epsilon for t in live],
                         sum(t.values.nbytes for t in live)))
            del live
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, count_live)

    monkeypatch.setattr(harness, "solve_batch",
                        registering(harness.solve_batch, batch=True))
    for owner, name in ((harness, "solve_reference"), (io, "load_trajectory")):
        monkeypatch.setattr(owner, name, registering(getattr(owner, name)))
    for owner, name in ((harness, "decompose_production"),
                        (harness, "compensated_D_field"),
                        (convergence, "_l1_sums")):
        counted(owner, name)
    out = tmp_path / "two"
    cfg = build_scenario(tiny_2d_text())
    members = len(cfg.ladder)
    [batch] = [[eps for eps, _w in b] for b in harness.batches(cfg, 1)]
    assert len(batch) == members == 2
    for command in ("run", "verify", "plotdata"):
        seen.clear()
        {"run": lambda: run_ladder(cfg, outdir=out, jobs=1),
         "verify": lambda: verify_run(out),
         "plotdata": lambda: emit_plotdata(out)}[command]()
        calls = Counter(name for name, _e, _b in seen)
        # one block of snapshots: a distance to the reference per member
        # and one between the neighbours
        assert calls == {"decompose_production": members,
                         "compensated_D_field": members,
                         "_l1_sums": 2 * members - 1}
        most = {name: max(len(e) for m, e, _b in seen if m == name)
                for name in calls}
        split = [(e, b) for m, e, b in seen if m == "decompose_production"]
        if command == "run":
            # the batch's members, each dropped once saved
            assert [e for e, _b in split] == [batch, batch[1:]]
            assert all(b <= norms.BATCH_BYTES for _e, b in split)
            assert most["decompose_production"] == 2
        else:
            assert most["decompose_production"] == 1
        assert most["compensated_D_field"] == 1
        assert {tuple(e) for m, e, _b in seen if m == "_l1_sums"} == {(0.0,)}


def test_walk_distances_match_whole_trajectories(tmp_path, monkeypatch):
    # the convergence walk reads the members in blocks of snapshots (one
    # snapshot, ragged blocks of 4 of 11, one block): every distance is the
    # l1_distance of the whole loaded trajectories, bit for bit
    out = tmp_path / "two"
    cfg = build_scenario(tiny_2d_text())
    run_ladder(cfg, outdir=out)
    specs = harness.build_runtime(cfg)
    dirs = [out / f"eps_{harness.eps_label(e)}" for e in cfg.ladder]
    trajs = [harness._load(cfg, specs, d) for d in dirs]
    reference = harness._load(cfg, specs, out / "reference")
    snapshot = reference.values[0].nbytes
    for per in (1, 4, 11):
        monkeypatch.setattr(norms, "BLOCK_BYTES", per * snapshot)
        assert len(norms.snapshot_blocks(reference.values)) == -(-11 // per)
        conv = convergence.build_convergence_report(
            (io.StoredTrajectory(d, specs.grid, cfg.snapshots) for d in dirs),
            reference)
        assert [e.hex() for e in conv.errors_vs_reference] == \
            [convergence.l1_distance(t, reference).hex() for t in trajs]
        assert [(e, d.hex()) for e, d in conv.cauchy_pairs] == \
            [(a.epsilon, convergence.l1_distance(a, b).hex())
             for a, b in zip(trajs, trajs[1:])]


def test_verify_2d_instruments_hold_a_member_and_a_work_field(tmp_path,
                                                              monkeypatch):
    # in verify of a 48 x 48 run of 33 snapshots, with blocks of one
    # snapshot, the split, each compensated quadratic and the convergence
    # walk allocate at most 1.5 fields above what was live when they were
    # called, which holds the member they read (the reference, for the
    # walk): before, the split held A and the norm's coefficient array, D a
    # field of its own, and the walk two whole members.  (On a 16 x 16 run
    # of 11 snapshots numpy's fixed-size allocations alone are a field.)
    import tracemalloc

    out = tmp_path / "two"
    text = tiny_2d_text()
    for old, new in (("cells = 16,16", "cells = 48,48"),
                     ("snapshots = 10", "snapshots = 32")):
        text = text.replace(old, new)
    cfg = build_scenario(text)
    run_ladder(cfg, outdir=out)
    field = 8 * 33 * 48 * 48
    monkeypatch.setattr(norms, "BLOCK_BYTES", field // 33)
    peaks = []

    def traced(owner, name):
        fn = getattr(owner, name)

        def peak_of(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = fn(*args, **kwargs)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - live))
            return got
        monkeypatch.setattr(owner, name, peak_of)

    for name in ("decompose_production", "compensated_D_field",
                 "build_convergence_report"):
        traced(harness, name)
    tracemalloc.start()
    try:
        verify_run(out)
    finally:
        tracemalloc.stop()
    assert Counter(name for name, _p in peaks) == {
        "decompose_production": 2, "compensated_D_field": 2,
        "build_convergence_report": 1}
    for name, peak in peaks:
        assert peak <= 1.5 * field, (name, peak / field)


def test_f11_table_built_once_per_runtime(tmp_path, monkeypatch):
    # build_runtime tabulates F11 for the 1-D div-curl pair; a 2-D assess
    # hands that table to the compensated quadratic instead of tabulating
    # it again
    built = []
    real = compactness.tartar_pair_table

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(compactness, "tartar_pair_table", counted)
    monkeypatch.setattr(harness, "tartar_pair_table", counted)
    out = tmp_path / "two"
    run_ladder(build_scenario(tiny_2d_text()), outdir=out)
    assert len(built) == 1
    verify_run(out)
    emit_plotdata(out)
    assert len(built) == 3  # one runtime each


@pytest.mark.parametrize("text, tabulated", [
    (lambda: small_config().raw_text, 3),  # Engquist-Osher +/- and F11
    (tiny_2d_text, 5),                     # the same with two axes' +/-
])
def test_runtime_tabulates_only_what_commands_read(monkeypatch, text,
                                                   tabulated):
    # entropy pairs tabulate no companion flux q: nothing a command runs
    # reads one
    built = []
    real = tables.cumulative_table

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(tables, "cumulative_table", counted)
    specs = harness.build_runtime(build_scenario(text()))
    assert len(specs.pairs) > 1
    assert len(built) == tabulated


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


def test_same_bytes_compares_run_directories(tmp_path, capsys):
    # two runs of one config are the same bytes but for the manifest's
    # clock times; one flipped CSV byte is named with its row
    cfg = tiny_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_ladder(cfg, outdir=a)
    run_ladder(cfg, outdir=b)
    same_bytes = _load_script("benchmarks", "same_bytes").main
    assert same_bytes([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "same bytes\n"
    path = b / "eps_0.05" / "index.csv"
    data = bytearray(path.read_bytes())
    row = data.index(b"\n") + 1
    data[row] ^= 1
    path.write_bytes(bytes(data))
    assert same_bytes([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("eps_0.05/index.csv: row 2: ")
    assert lines[1:] == ["1 file(s) differ"]


def test_same_bytes_runs_the_commands_of_a_tree(tmp_path):
    # the revision mode's command half, on the working tree twice: run
    # --jobs 1 and 2, each followed by verify and plotdata, compare equal
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(tiny_config().raw_text)
    tool = _load_script("benchmarks", "same_bytes")
    a, b = (tool.run_commands(tool.ROOT, cfgfile, tmp_path / side)
            for side in "ab")
    assert list(a) == ["tiny_jobs1", "tiny_jobs2"]
    for rundir, commands in a.values():
        assert [cmd for cmd, _code, _out in commands] == \
            ["run", "verify", "plotdata"]
        assert (rundir / "plot" / "metrics.csv").is_file()
        assert "run directory: RUNS/" in commands[0][2]
    assert tool.compare_runs(a, b) == []
    # an exit code and a stdout that differ are named with their command
    commands = b["tiny_jobs2"][1]
    cmd, code, out = commands[1]
    commands[1] = (cmd, code + 1, out + "!")
    assert tool.compare_runs(a, b) == [
        f"tiny_jobs2 verify: exit {code} | {code + 1}",
        "tiny_jobs2 verify: stdout differs"]


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


def test_blas_threads_move_no_output_byte(run1d, tmp_path):
    # plotdata's h1_norm_A values go through the dual norm's 63x63 matrix
    # products over 400 columns, which OpenBLAS splits between threads when
    # it may; the bytes must not depend on how many it may use
    _cfg, result = run1d
    src = str(pathlib.Path(harness.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    metrics = []
    for threads in ("1", "2"):
        rundir = tmp_path / f"threads_{threads}"
        shutil.copytree(result.outdir, rundir,
                        ignore=shutil.ignore_patterns("plot"))
        subprocess.run([sys.executable, "-m", "visclab", "plotdata",
                        str(rundir)], check=True, capture_output=True,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                PYTHONPATH=path))
        metrics.append((rundir / "plot" / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]
