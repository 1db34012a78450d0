"""Negative controls of the estimate table.

Each estimate row is fed, through ``evaluate_estimates``, an input on which
its estimate is false, and must FAIL there; the same table on a baseline
where every estimate holds must PASS throughout, so each FAIL is the
control's own.  The rows that check the instruments rather than the run
(both ``divcurl`` rows, the ``d2_quad`` pointwise floor) are pinned as the
self-checks they are: the divcurl rows do not see the members at all, and
the floor holds on any field inside the invariant interval.
"""

import dataclasses

import numpy as np
import pytest

from conftest import SCENARIOS, small_config
from visclab.compactness import (attach_c_field, build_compensated_quad,
                                 compensated_D_field)
from visclab.config import build_scenario
from visclab.convergence import ConvergenceReport, RateFit
from visclab.domain import FieldTrajectory, Grid
from visclab.harness import build_runtime
from visclab.report import (D2_POINTWISE_FLOOR, MemberDiagnostics,
                            evaluate_estimates, synthetic_divcurl)
from visclab.viscous import snapshot_times


@pytest.fixture(scope="module")
def rt1():
    cfg = small_config()
    return cfg, build_runtime(cfg)


@pytest.fixture(scope="module")
def rt2():
    cfg = build_scenario((SCENARIOS / "burgers2d.cfg").read_text())
    return cfg, build_runtime(cfg)


def energy_bound(cfg, specs):
    """sup|u0|^2 |Omega| / (2 r): the energy estimate without its slack."""
    return (cfg.sup_u0 ** 2 * specs.grid.volume
            / (2.0 * specs.visc.lower_bound))


def baseline(cfg, specs):
    """Members, convergence report and fits on which every estimate holds."""
    epsilons = (0.1, 0.05, 0.025)
    members = [MemberDiagnostics(
        eps, f"{eps:g}", entropy={p.name: (1.0, 0.0) for p in specs.pairs},
        snapshot_sup=cfg.sup_u0, energy=0.5 * energy_bound(cfg, specs),
        young_w1=w1, d_mean=d, d_min=0.0)
        for eps, w1, d in zip(epsilons, (0.4, 0.2, 0.1), (3e-5, 2e-5, 1e-5))]
    conv = ConvergenceReport(epsilons, (0.3, 0.2, 0.1),
                             ((0.1, 0.1), (0.05, 0.05)), RateFit(1.0, 0.0))
    fits = {p.name: RateFit(1.0, 0.0) for p in specs.pairs}
    return dict(members=members, conv=conv, divcurl=(0.0, 1.0),
                rate_fits=fits, ut_fit=RateFit(0.0, 0.0))


def table(cfg, specs, inputs):
    return evaluate_estimates(cfg, specs, inputs["members"], inputs["conv"],
                              inputs["divcurl"], inputs["rate_fits"],
                              inputs["ut_fit"])


def members_with(inputs, **values):
    return [dataclasses.replace(m, **{k: v[i] for k, v in values.items()})
            for i, m in enumerate(inputs["members"])]


def max_principle(cfg, specs, inputs):
    inputs["members"] = members_with(
        inputs, snapshot_sup=[cfg.sup_u0 + 1e-9] * 3)


def energy(cfg, specs, inputs):
    inputs["members"] = members_with(
        inputs, energy=[2.0 * energy_bound(cfg, specs)] * 3)


def measure_bound(cfg, specs, inputs):
    # twice b_sup sup eta'' sup|u0|^2 |Omega| / (2 r), for every pair
    over = {p.name: (1.0, 2.0 * specs.visc.upper_bound * p.etapp_sup
                     * energy_bound(cfg, specs)) for p in specs.pairs}
    inputs["members"] = members_with(inputs, entropy=[over] * 3)


def h1_decay(cfg, specs, inputs):
    inputs["rate_fits"] = {p.name: RateFit(0.3, 0.2) for p in specs.pairs}


def ut_l1(cfg, specs, inputs):
    inputs["ut_fit"] = RateFit(-0.2, 0.0)


def dirac(cfg, specs, inputs):
    inputs["members"] = members_with(inputs, young_w1=[0.4, 0.3, 0.21])


def convergence(cfg, specs, inputs):
    conv = inputs["conv"]
    inputs["conv"] = dataclasses.replace(
        conv, errors_vs_reference=(0.1, 0.2, 0.3),
        cauchy_fit=RateFit(0.2, 0.0))


def d2_quad(cfg, specs, inputs):
    inputs["members"] = members_with(inputs, d_mean=[1e-5, 2e-5, 3e-5])


@pytest.mark.parametrize("rt", ["rt1", "rt2"])
def test_baseline_passes_every_row(rt, request):
    cfg, specs = request.getfixturevalue(rt)
    rows = table(cfg, specs, baseline(cfg, specs))
    assert [r for r in rows if not r.passed] == []
    assert {r.estimate for r in rows if "not " not in r.detail} == {
        "max_principle", "energy", "h1_decay", "measure_bound", "ut_l1",
        "dirac", "divcurl", "convergence"} | ({"d2_quad"} if cfg.dim == 2
                                              else set())


@pytest.mark.parametrize("rt, control, rows_failing", [
    ("rt1", max_principle, 3),
    ("rt1", energy, 3),
    ("rt1", measure_bound, 3 * 6),
    ("rt1", h1_decay, 2 * 6),
    ("rt1", ut_l1, 1),
    ("rt1", dirac, 1),
    ("rt1", convergence, 3),
    ("rt2", d2_quad, 2),
])
def test_each_row_fails_where_its_estimate_is_false(rt, control,
                                                    rows_failing, request):
    cfg, specs = request.getfixturevalue(rt)
    inputs = baseline(cfg, specs)
    control(cfg, specs, inputs)
    rows = table(cfg, specs, inputs)
    failed = [r for r in rows if not r.passed]
    assert {r.estimate for r in failed} == {control.__name__}
    # every evaluated row of the estimate fails, bar the 2-D floor, which
    # the mean D does not enter
    own = [r for r in rows if r.estimate == control.__name__
           and "floor" not in r.detail]
    assert failed == own and len(failed) == rows_failing


def test_divcurl_rows_do_not_see_the_members(rt1):
    cfg, specs = rt1
    window = (cfg.weak_window_snaps, cfg.weak_window_cells)
    divcurl = synthetic_divcurl(
        specs.grid, snapshot_times(cfg.time_horizon, cfg.snapshots), window)
    tables = []
    for control in (None, max_principle):
        inputs = baseline(cfg, specs)
        if control is not None:
            control(cfg, specs, inputs)
            inputs["members"] = inputs["members"][:1]
        inputs["divcurl"] = divcurl
        tables.append([r for r in table(cfg, specs, inputs)
                       if r.estimate == "divcurl"])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 2 and all(r.passed for r in tables[0])


def test_d2_floor_holds_inside_the_interval(rt2):
    # D(u) = (F11(u) - F11(c)) (F22(u) - F22(c)) - (F12(u) - F12(c))^2 is
    # a Gram determinant of f1' and f2' on [c, u], nonnegative by
    # Cauchy-Schwarz, whatever u and c in I are
    cfg, specs = rt2
    lo, hi = specs.flux.interval
    grid = Grid((16, 16), (0.0, 0.0), (1.0, 1.0), 1.0)
    times = snapshot_times(1.0, 3)
    rng = np.random.default_rng(11)
    field = lambda: FieldTrajectory(
        grid, times, rng.uniform(lo, hi, (times.size, 16, 16)), 0.1)
    quad = attach_c_field(build_compensated_quad(specs.flux,
                                                 cfg.quadrature_tol,
                                                 specs.tartar),
                          field(), (2, 4, 4))
    d_min = [float(np.min(compensated_D_field(field(), quad)))
             for _ in range(3)]
    assert min(d_min) >= D2_POINTWISE_FLOOR
    inputs = baseline(cfg, specs)
    inputs["members"] = members_with(inputs, d_min=d_min)
    (floor,) = [r for r in table(cfg, specs, inputs)
                if r.estimate == "d2_quad" and "floor" in r.detail]
    assert floor.passed
