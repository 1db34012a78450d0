"""Metamorphic relations: two configs whose exact solutions are images of
each other under a symmetry of the problem must give trajectories and
estimate rows that map across.

M1, the mirror ``x -> 1 - x``, ``u -> -u``.  Burgers has ``f(-u) = f(u)``
and a constant B is even, so the image of a solution is a solution.  The
config edit is the bump's centre ``c -> 1 - c`` and amplitude -1; the
interval I = [-1, 1] is its own image, and the Kruzkov entropy ``|u - k|``
maps to ``|u + k|``, so the row of ``k`` maps to the row of ``-k``.
"""

import re

import numpy as np
import pytest

from conftest import small_config
from visclab import io
from visclab.config import build_scenario
from visclab.harness import build_runtime, run_ladder

# each mirrored snapshot within this of the flipped original (about 1e-14
# is seen)
TRAJ_ATOL = 1e-12
# every row's lhs and rhs but dirac's within this relative distance of its
# image (1.9e-12 is the largest seen, a Kruzkov measure_bound row)
LHS_RTOL = 1e-10


def _mirrored(cfg):
    """``cfg`` with its bump moved to ``1 - c`` and its amplitude negated."""
    text = re.sub(r"center = (\S+)",
                  lambda m: f"center = {1.0 - float(m.group(1))!r}",
                  cfg.raw_text)
    text = re.sub(r"amplitude = (\S+)",
                  lambda m: f"amplitude = {-float(m.group(1))!r}", text)
    return build_scenario(text)


def _mirror_detail(detail):
    """The detail of the row that maps to ``detail``'s: Kruzkov ``k`` to
    ``-k``, printed with as many decimals."""
    def flip(m):
        return f"k={0.0 - float(m.group(1)):+.{len(m.group(2))}f}"

    return re.sub(r"k=([+-]\d+\.(\d+))", flip, detail)


@pytest.fixture(scope="module")
def mirror_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("mirror")
    cfg = small_config()
    image = _mirrored(cfg)
    return (cfg, run_ladder(cfg, base / "original"), image,
            run_ladder(image, base / "mirrored"))


def test_m1_mirror_maps_every_trajectory(mirror_runs):
    cfg, original, image, mirrored = mirror_runs
    assert image.ladder == cfg.ladder and image.sup_u0 == cfg.sup_u0
    grid = build_runtime(cfg).grid
    names = [f"eps_{eps:g}" for eps in cfg.ladder] + ["reference"]
    for name in names:
        a, b = (io.load_trajectory(run.outdir / name, grid, cfg.snapshots)
                for run in (original, mirrored))
        assert np.array_equal(a.times, b.times), name
        assert np.max(np.abs(b.values + a.values[:, ::-1])) <= TRAJ_ATOL, name


def test_m1_mirror_maps_every_row_but_dirac(mirror_runs):
    _cfg, original, _image, mirrored = mirror_runs
    want = {(r.estimate, _mirror_detail(r.detail), r.epsilon): r
            for r in original.rows}
    got = {(r.estimate, r.detail, r.epsilon): r for r in mirrored.rows}
    assert set(got) == set(want)
    assert len(got) == len(mirrored.rows) == len(original.rows)
    for key, row in want.items():
        if key[0] == "dirac":
            continue
        # a convergence row's rhs is the lhs of the row before
        assert (got[key].lhs, got[key].rhs) == pytest.approx(
            (row.lhs, row.rhs), rel=LHS_RTOL, abs=1e-300), key
        assert got[key].passed == row.passed, key

    # Known break (ROADMAP item 23): young_histograms bins u by truncation
    # on equal bins of I, so u = 0 is a bin edge.  The Godunov reference
    # keeps exact zeros ahead of the wave; the members' values there are
    # tiny and positive, sharing the zeros' bin, and mirrored they are tiny
    # and negative, one bin below.  So the W1 distances, both sides of the
    # row, move with the orientation, and the row flips from PASS to FAIL.
    (a,) = [r for r in original.rows if r.estimate == "dirac"]
    (b,) = [r for r in mirrored.rows if r.estimate == "dirac"]
    reason = (f"dirac moves under the mirror: lhs {a.lhs:.6g} <= rhs "
              f"{a.rhs:.6g} becomes lhs {b.lhs:.6g} against rhs {b.rhs:.6g},"
              f" because u = 0 is a histogram bin edge")
    assert (a.lhs, a.rhs) == pytest.approx((0.0224148, 0.0264063),
                                           rel=1e-5), reason
    assert (b.lhs, b.rhs) == pytest.approx((0.0365057, 0.0335369),
                                           rel=1e-5), reason
    assert a.passed and not b.passed, reason
