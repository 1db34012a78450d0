"""Run-directory persistence: binary snapshots, CSV tables, manifest."""

from __future__ import annotations

import csv
import dataclasses
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


class StoredTrajectory:
    """A trajectory stored by ``save_trajectory``, read in blocks of whole
    snapshots.

    Opening it checks its meta against ``grid``, its index against
    ``snapshots`` time intervals, and its times as a ``FieldTrajectory``
    checks them; ``read`` checks each snapshot file it reads against its
    index entry.  ``load_trajectory`` reads every snapshot through ``read``,
    so a block read makes exactly a load's checks.
    """

    def __init__(self, dirpath: Path, grid: Grid, snapshots: int):
        index = dirpath / "index.csv"
        if not index.exists():
            raise FileNotFoundError(f"missing trajectory index {index}")
        meta_path = dirpath / "meta.json"
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta.get("cells") != list(grid.cells):
            raise CorruptSnapshotError(
                f"{meta_path} records cells {meta.get('cells')}, expected "
                f"{list(grid.cells)}")
        with open(index, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != snapshots + 1:
            raise CorruptSnapshotError(
                f"trajectory index {index} has {len(rows)} rows, expected "
                f"{snapshots + 1}")
        self.dirpath, self.rows = dirpath, rows
        # a trajectory's checks of its times, on a read-only placeholder of
        # its shape (zero strides) that holds no snapshot
        self.header = FieldTrajectory(
            grid, np.array([float(row["time"]) for row in rows]),
            np.broadcast_to(0.0, (len(rows),) + grid.cells),
            epsilon=float(meta["epsilon"]), dt=float(meta["dt"]),
            steps_taken=int(meta["steps_taken"]),
            max_abs_seen=float(meta["max_abs_seen"]))

    def read(self, snaps: slice, out: np.ndarray) -> np.ndarray:
        """The snapshots ``snaps``, each file read straight into its row of
        the front of ``out``.  Snapshot k is the file ``snap_{k:04d}.bin``,
        the one name ``save_trajectory`` writes, and must be named so by
        row k of the index."""
        for k, arr in zip(range(len(self.rows))[snaps], out):
            row, path = self.rows[k], self.dirpath / f"snap_{k:04d}.bin"
            if not path.exists():
                raise FileNotFoundError(f"missing snapshot file {path}")
            size = path.stat().st_size
            if size != arr.nbytes:
                raise CorruptSnapshotError(
                    f"snapshot file {path} has {size} bytes, expected "
                    f"{arr.nbytes}")
            with open(path, "rb") as fh:
                fh.readinto(arr)
            if row["filename"] != path.name or not np.all(np.isfinite(arr)) \
               or float(arr.min()) != float(row["min"]) \
               or float(arr.max()) != float(row["max"]):
                raise CorruptSnapshotError(
                    f"snapshot file {path} does not match its index entry")
        return out[:len(self.rows[snaps])]


def load_trajectory(dirpath: Path, grid: Grid, snapshots: int) -> FieldTrajectory:
    """Reload a stored trajectory of ``snapshots`` time intervals, validating
    it as ``StoredTrajectory`` does.

    Every snapshot file is read straight into its row of one preallocated
    ``(snapshots + 1, *cells)`` array, so a load holds one copy of the field.
    """
    stored = StoredTrajectory(dirpath, grid, snapshots)
    values = stored.read(slice(None), np.empty(stored.header.values.shape,
                                               dtype=SNAPSHOT_DTYPE))
    return dataclasses.replace(stored.header, values=values)


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
