"""Command-line entry point: run, verify, plotdata, presets."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, build_scenario
from .domain import FLUX_PRESETS, VISCOSITY_PRESETS
from .harness import emit_plotdata, run_ladder, verify_run
from .mollify import DATA_PRESETS
from .report import format_table


def _jobs(text: str) -> int:
    """``--jobs``: a whole number of at least 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _times(text: str) -> list[float]:
    """``--times``: comma-separated finite reals."""
    try:
        times = [float(t) for t in text.split(",")]
        if all(map(math.isfinite, times)):
            return times
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be comma-separated finite reals, got {text!r}")


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = build_scenario(text)
    except ConfigError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_ladder(cfg, outdir=args.out, jobs=args.jobs,
                            overwrite=args.overwrite)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(format_table(result.rows))
    print(f"run directory: {result.outdir}")
    return result.exit_code


def _cmd_verify(args) -> int:
    try:
        rows, code, table = verify_run(args.rundir)
    except Exception as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return 2
    print(table)
    return code


def _cmd_plotdata(args) -> int:
    try:
        paths = emit_plotdata(args.rundir, args.times)
    except Exception as exc:
        print(f"plotdata failed: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


def _cmd_presets(_args) -> int:
    print("flux presets:     " + ", ".join(FLUX_PRESETS))
    print("viscosity presets: " + ", ".join(VISCOSITY_PRESETS))
    print("data presets:     " + ", ".join(DATA_PRESETS))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="visclab",
        description="vanishing-viscosity laboratory for scalar conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="override the configured output directory")
    p_run.add_argument("--jobs", type=_jobs, default=1,
                       help="ladder members to solve concurrently")
    p_run.add_argument("--overwrite", action="store_true",
                       help="replace an existing run of a different config")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="re-evaluate pass flags from a run directory")
    p_ver.add_argument("rundir")
    p_ver.set_defaults(fn=_cmd_verify)

    p_plot = sub.add_parser("plotdata", help="emit long-format plotting CSVs")
    p_plot.add_argument("rundir")
    p_plot.add_argument("--times", type=_times, default=None,
                        help="comma-separated profile times (default 0, T/2, T);"
                             " each picks the nearest stored snapshot")
    p_plot.set_defaults(fn=_cmd_plotdata)

    p_pre = sub.add_parser("presets", help="list flux/viscosity/data presets")
    p_pre.set_defaults(fn=_cmd_presets)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
