#!/usr/bin/env python3
"""Compare two run directories, or the runs of two trees, byte for byte.

Directory mode: every file under either directory is compared with the
file of the same relative path under the other; a file that only one side
holds differs.  ``manifest.json`` is compared as JSON without ``started``
and ``finished``, the clock times that differ between any two runs.  Each
file that differs is printed with how it differs: for a CSV, its first
differing row (row 1 is the header); for the manifest, the keys whose
values differ.

Revision mode: the committed files of REV are extracted (``git archive``)
into a temporary directory, and on REV and on the working tree, each
config is run with ``run --jobs 1`` and ``run --jobs 2``, each run followed
by ``verify`` and ``plotdata``.  The commands of one tree and config run as
``visclab.cli.main`` in one interpreter with that tree's ``src`` on
``PYTHONPATH``.  The run directories are compared as in directory mode,
and each command's stdout (its run-directory paths normalized) and exit
code too.  The temporary directory is removed at the end.

Both modes exit 1 when anything differs, else 0.  The dual norm sums
through BLAS (``np.dot``), so bytes are comparable only between runs on
one machine with one BLAS.

Usage: python benchmarks/same_bytes.py DIR_A DIR_B
       python benchmarks/same_bytes.py --rev REV [--config CFG ...]
"""

import argparse
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (ROOT / "scenarios" / "burgers1d.cfg",
             ROOT / "scenarios" / "burgers2d.cfg")
CLOCK = ("started", "finished")
JOBS = (1, 2)

# run in the tree's interpreter: each argv of the JSON list argument through
# the CLI, printing the JSON list of [exit code, stdout] of each
CLI_SESSION = """
import contextlib, io, json, sys
from visclab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


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


def compare_dirs(a: Path, b: Path, label: str = "") -> list[str]:
    """One line for each file that differs between ``a`` and ``b``."""
    return [f"{label}{rel}: {diff}"
            for rel in sorted(_files(a) | _files(b))
            if (diff := difference(a, b, rel)) is not None]


def run_commands(tree: Path, config: Path, work: Path) -> dict:
    """Run ``config`` under ``run --jobs J`` for each J of ``JOBS`` into
    ``work``, each run followed by ``verify`` and ``plotdata``, on the
    package of ``tree``.  Returns ``{name: (rundir, [(command, code,
    stdout)])}`` of each run, its stdout with ``work`` written as
    ``RUNS``."""
    runs, argvs = {}, []
    for jobs in JOBS:
        name = f"{config.stem}_jobs{jobs}"
        rundir = work / name
        runs[name] = rundir
        argvs += [["run", "--config", str(config), "--out", str(rundir),
                   "--jobs", str(jobs)],
                  ["verify", str(rundir)], ["plotdata", str(rundir)]]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CLI_SESSION,
                           json.dumps(argvs)], env=env, cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the commands failed on {tree}:\n{proc.stderr}")
    results = json.loads(proc.stdout.splitlines()[-1])
    commands = [(argv[0], code, out.replace(str(work), "RUNS"))
                for argv, (code, out) in zip(argvs, results)]
    return {name: (rundir, commands[3 * i:3 * i + 3])
            for i, (name, rundir) in enumerate(runs.items())}


def compare_runs(a: dict, b: dict) -> list[str]:
    """One line for each file, stdout and exit code that differs between
    the runs ``a`` and ``b`` of ``run_commands``."""
    lines = []
    for name in a:
        (dir_a, cmds_a), (dir_b, cmds_b) = a[name], b[name]
        lines += compare_dirs(dir_a, dir_b, f"{name}/")
        for (cmd, code_a, out_a), (_cmd, code_b, out_b) in zip(cmds_a, cmds_b):
            if code_a != code_b:
                lines.append(f"{name} {cmd}: exit {code_a} | {code_b}")
            if out_a != out_b:
                lines.append(f"{name} {cmd}: stdout differs")
    return lines


def compare_revision(rev: str, configs: list[Path]) -> list[str]:
    """``compare_runs`` of ``configs`` on ``rev`` and on the working tree."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as scratch:
        scratch = Path(scratch)
        tree = scratch / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        lines = []
        for config in configs:
            config = config.resolve()
            sides = [run_commands(t, config, scratch / side)
                     for t, side in ((tree, "rev"), (ROOT, "work"))]
            lines += compare_runs(*sides)
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", type=Path, nargs="*", metavar="DIR",
                        help="the two run directories of directory mode")
    parser.add_argument("--rev", help="the git revision to compare the "
                        "working tree's runs with")
    parser.add_argument("--config", type=Path, action="append",
                        help="a config to run in revision mode (repeatable; "
                        "default: the shipped scenarios)")
    args = parser.parse_args(argv)
    if args.rev is not None:
        if args.dirs:
            parser.error("--rev takes no run directories")
        lines = compare_revision(args.rev, args.config or list(SCENARIOS))
        noun = "difference(s)"
    else:
        if len(args.dirs) != 2 or args.config:
            parser.error("give two run directories, or --rev")
        for d in args.dirs:
            if not d.is_dir():
                parser.error(f"{d} is not a directory")
        lines = compare_dirs(*args.dirs)
        noun = "file(s) differ"
    for line in lines:
        print(line)
    print(f"{len(lines)} {noun}" if lines else "same bytes")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
