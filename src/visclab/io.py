"""Run-directory persistence: binary snapshots, CSV tables, manifest."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .domain import FieldTrajectory, Grid

SNAPSHOT_DTYPE = "<f8"  # row-major 64-bit reals, little-endian


def fmt(x: float) -> str:
    """Deterministic shortest-roundtrip float formatting for CSV output."""
    return repr(float(x))


def save_trajectory(dirpath: Path, traj: FieldTrajectory) -> list[str]:
    """One binary file per snapshot plus a CSV index (time, file, min, max)."""
    dirpath.mkdir(parents=True, exist_ok=True)
    files = []
    rows = []
    for k in range(traj.num_snapshots):
        name = f"snap_{k:04d}.bin"
        arr = np.ascontiguousarray(traj.values[k], dtype=SNAPSHOT_DTYPE)
        arr.tofile(dirpath / name)
        rows.append((fmt(traj.times[k]), name,
                     fmt(traj.values[k].min()), fmt(traj.values[k].max())))
        files.append(str(dirpath / name))
    index = dirpath / "index.csv"
    with open(index, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "filename", "min", "max"])
        w.writerows(rows)
    files.append(str(index))
    meta = {
        "epsilon": traj.epsilon,
        "dt": traj.dt,
        "steps_taken": traj.steps_taken,
        "max_abs_seen": traj.max_abs_seen,
        "cells": list(traj.grid.cells),
    }
    meta_path = dirpath / "meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    files.append(str(meta_path))
    return files


class CorruptSnapshotError(RuntimeError):
    pass


def load_trajectory(dirpath: Path, grid: Grid) -> FieldTrajectory:
    """Reload a stored trajectory, validating each snapshot against the index."""
    index = dirpath / "index.csv"
    if not index.exists():
        raise FileNotFoundError(f"missing trajectory index {index}")
    with open(dirpath / "meta.json") as fh:
        meta = json.load(fh)
    times = []
    snaps = []
    count = int(np.prod(grid.cells))
    with open(index, newline="") as fh:
        for row in csv.DictReader(fh):
            path = dirpath / row["filename"]
            if not path.exists():
                raise FileNotFoundError(f"missing snapshot file {path}")
            arr = np.fromfile(path, dtype=SNAPSHOT_DTYPE)
            if arr.size != count:
                raise CorruptSnapshotError(
                    f"snapshot file {path} has {arr.size} values, expected {count}")
            arr = arr.reshape(grid.cells)
            if not np.all(np.isfinite(arr)) or \
               float(arr.min()) != float(row["min"]) or \
               float(arr.max()) != float(row["max"]):
                raise CorruptSnapshotError(
                    f"snapshot file {path} does not match its index entry")
            times.append(float(row["time"]))
            snaps.append(arr.astype(np.float64))
    return FieldTrajectory(grid, np.array(times), np.stack(snaps),
                           epsilon=float(meta["epsilon"]), dt=float(meta["dt"]),
                           steps_taken=int(meta["steps_taken"]),
                           max_abs_seen=float(meta["max_abs_seen"]))


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_manifest(path: Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(outdir: Path) -> dict:
    path = outdir / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest in {outdir}")
    with open(path) as fh:
        return json.load(fh)
