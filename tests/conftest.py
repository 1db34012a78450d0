import ast
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from visclab.config import build_scenario
from visclab.domain import FieldTrajectory, Grid
from visclab.harness import run_ladder

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


try:
    import _sha256  # noqa: F401
    _HASHLIB = ("_hashlib",)
except ImportError:
    # without CPython's own SHA-256, config_hash falls back to hashlib
    _HASHLIB = ()

# what no --jobs 1 run, verify or bare import needs: scipy is a test
# dependency only, OpenSSL's _hashlib would serve one config digest, the
# process pool serves --jobs > 1, and numpy.polynomial would serve only the
# Gauss-Legendre rule that tables writes out
UNNEEDED = ("scipy", *_HASHLIB, "concurrent.futures", "numpy.polynomial")


def modules_loaded(code, prefixes):
    """The modules whose names start with one of ``prefixes``, loaded after
    running ``code`` in a fresh interpreter, sorted."""
    probe = (code + "\nimport sys\n"
             "print(sorted(m for m in sys.modules"
             f" if m.startswith({tuple(prefixes)!r})))")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def small_config(**overrides):
    """A fast 1-D Burgers config for unit tests."""
    text = f"""
[grid]
dimension = 1
cells = {overrides.get('cells', 100)}
extent = 0,1
time_horizon = {overrides.get('time_horizon', 0.2)}

[flux]
preset = {overrides.get('flux', 'burgers')}
a = {overrides.get('a', 1.0)}

[viscosity]
preset = {overrides.get('viscosity', 'constant')}
b = {overrides.get('b', 1.0)}

[initial]
preset = bump
center = 0.5
width = 0.25
amplitude = 1.0

[ladder]
epsilons = {overrides.get('epsilons', '0.1,0.05,0.025')}
mollifier_width = {overrides.get('mollifier_width', '0.02')}

[scheme]
cfl = 0.4
snapshots = {overrides.get('snapshots', 10)}
young_window_cells = {overrides.get('young_window_cells', 10)}
young_window_snaps = {overrides.get('young_window_snaps', 11)}
young_bins = 32
weak_window_cells = 5
weak_window_snaps = 4

[output]
directory = {overrides.get('outdir', 'runs/small')}
"""
    return build_scenario(text)


def tiny_config(**overrides):
    """``small_config`` at 60 cells, 4 snapshots and two members, with Young
    windows that divide them."""
    return small_config(**{"cells": 60, "snapshots": 4, "epsilons": "0.1,0.05",
                           "young_window_snaps": 5, "young_window_cells": 6,
                           **overrides})


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_traj(values, T=1.0):
    """The epsilon = 0.1 trajectory of ``values`` (time first) on the unit
    cell, sampled evenly over [0, T]."""
    nt, cells = values.shape[0], values.shape[1:]
    g = Grid(cells, (0.0,) * len(cells), (1.0,) * len(cells), T)
    return FieldTrajectory(g, np.linspace(0, T, nt), values, 0.1,
                           dt=T / (nt - 1))


@pytest.fixture(scope="session")
def run1d(tmp_path_factory):
    """Full default 1-D scenario, run once and shared by the acceptance tests."""
    cfg = build_scenario((SCENARIOS / "burgers1d.cfg").read_text())
    out = tmp_path_factory.mktemp("acc1d") / "run"
    return cfg, run_ladder(cfg, outdir=out)


@pytest.fixture(scope="session")
def run2d(tmp_path_factory):
    """Full 2-D scenario for the compensated-quadratic criterion."""
    cfg = build_scenario((SCENARIOS / "burgers2d.cfg").read_text())
    out = tmp_path_factory.mktemp("acc2d") / "run"
    return cfg, run_ladder(cfg, outdir=out)
