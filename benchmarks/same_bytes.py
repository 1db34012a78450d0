#!/usr/bin/env python3
"""Compare two run directories file by file, byte for byte.

Every file under either directory is compared with the file of the same
relative path under the other; a file that only one side holds differs.
``manifest.json`` is compared as JSON without ``started`` and ``finished``,
the clock times that differ between any two runs.  Each file that differs
is printed with how it differs: for a CSV, its first differing row (row 1
is the header); for the manifest, the keys whose values differ.  Exits 1
when any file differs, else 0.

The dual norm sums through BLAS (``np.dot``), so bytes are comparable only
between runs on one machine with one BLAS.

Usage: python benchmarks/same_bytes.py DIR_A DIR_B
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

CLOCK = ("started", "finished")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _manifest(path: Path) -> dict:
    data = json.loads(path.read_text())
    for key in CLOCK:
        data.pop(key, None)
    return data


def _row(line: bytes | None) -> str:
    return "(none)" if line is None else line.decode(errors="replace")


def difference(a: Path, b: Path, rel: str) -> str | None:
    """How the file ``rel`` differs between run directories ``a`` and
    ``b``, or None when it does not."""
    pa, pb = a / rel, b / rel
    if not (pa.is_file() and pb.is_file()):
        return f"only in {a if pa.is_file() else b}"
    if rel == "manifest.json":
        ma, mb = _manifest(pa), _manifest(pb)
        keys = sorted(k for k in ma.keys() | mb.keys() if ma.get(k) != mb.get(k))
        return f"keys differ: {', '.join(keys)}" if keys else None
    da, db = pa.read_bytes(), pb.read_bytes()
    if da == db:
        return None
    if rel.endswith(".csv"):
        rows = itertools.zip_longest(da.splitlines(), db.splitlines())
        for i, (ra, rb) in enumerate(rows, 1):
            if ra != rb:
                return f"row {i}: {_row(ra)} | {_row(rb)}"
    return "bytes differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, metavar="DIR_A")
    parser.add_argument("dir_b", type=Path, metavar="DIR_B")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    differing = 0
    for rel in sorted(_files(args.dir_a) | _files(args.dir_b)):
        diff = difference(args.dir_a, args.dir_b, rel)
        if diff is not None:
            differing += 1
            print(f"{rel}: {diff}")
    print(f"{differing} file(s) differ" if differing else "same bytes")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
