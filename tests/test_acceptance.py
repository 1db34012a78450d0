"""Acceptance suite: every criterion at its stated tolerance, one test each.

Criteria 1-8 read the default 1-D run (400 cells, horizon 0.5, four-member
epsilon ladder), criterion 9 the 2-D run; criteria 10-11 are standalone
oracle checks.  Each test prints one PASS/FAIL line (visible with -s).
"""

import math

import numpy as np
import pytest

from oracles import shock_position
from visclab.domain import Grid, make_flux, make_viscosity
from visclab.mollify import make_initial_data, make_kernel, mollify
from visclab.convergence import fit_rate
from visclab.norms import dirichlet_dual_norm, total_variation
from visclab.reference import solve_reference
from visclab.viscous import integrate, snapshot_times


def rows_for(result, estimate):
    return [r for r in result.rows if r.estimate == estimate]


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_c01_max_principle(run1d):
    cfg, result = run1d
    rows = rows_for(result, "max_principle")
    assert len(rows) == len(cfg.ladder)
    worst = max(r.lhs for r in rows)
    ok = all(r.passed for r in rows) and all(r.rhs == 1.0 + 1e-10 for r in rows)
    assert report(1, "maximum principle", ok, f"max sup = {worst:.12f}")


def test_c02_energy_estimate(run1d):
    cfg, result = run1d
    rows = rows_for(result, "energy")
    assert len(rows) == len(cfg.ladder)
    assert all(r.rhs == pytest.approx(0.525) for r in rows)
    ok = all(r.passed for r in rows)
    assert report(2, "energy estimate", ok,
                  f"max lhs = {max(r.lhs for r in rows):.4f} <= 0.525")


def test_c03_h1_vanishing(run1d):
    cfg, result = run1d
    rows = rows_for(result, "h1_decay")
    slopes = [r for r in rows if r.detail.endswith("slope")]
    resids = [r for r in rows if r.detail.endswith("residual")]
    assert len(slopes) == 6 and len(resids) == 6  # square + 5 kruzkov entropies
    ok = all(r.passed for r in slopes + resids)
    assert report(3, "dual-norm vanishing of the divergence part", ok,
                  f"min slope = {min(r.lhs for r in slopes):.3f} >= 0.4, "
                  f"max resid = {max(r.lhs for r in resids):.3f} <= 0.15")


def test_c04_measure_bound(run1d):
    cfg, result = run1d
    rows = rows_for(result, "measure_bound")
    assert len(rows) == len(cfg.ladder) * 6
    ok = all(r.passed for r in rows)
    assert report(4, "dissipation measure bound", ok,
                  f"{len(rows)} member/entropy pairs")


def test_c05_time_derivative_uniformity(run1d):
    cfg, result = run1d
    (row,) = rows_for(result, "ut_l1")
    assert row.rhs == pytest.approx(-0.1)
    assert report(5, "time-derivative uniformity", row.passed,
                  f"slope = {row.lhs:.3f} >= -0.1")


def test_c06_vanishing_viscosity_convergence(run1d):
    cfg, result = run1d
    rows = rows_for(result, "convergence")
    decreases = [r for r in rows if r.detail.startswith("error decrease")]
    rates = [r for r in rows if r.detail == "cauchy rate"]
    assert len(decreases) == len(cfg.ladder) - 1 and len(rates) == 1
    ok = all(r.passed for r in decreases + rates)
    assert report(6, "vanishing-viscosity convergence", ok,
                  f"cauchy rate = {rates[0].lhs:.3f} >= 0.3")


def test_c07_young_measure_collapse(run1d):
    # The Young measure of u^eps reduces to the Dirac mass at the entropy
    # solution, so on each fixed space-time window the value distribution
    # of u^eps tends to that of the inviscid limit, which is two-valued on
    # windows the shock crosses.  The instrument is therefore the mean
    # per-window W1 distance between the member's value histograms and the
    # Godunov reference's, normalized by |I|; it must drop by half from the
    # coarsest to the finest member.  The raw windowed variance cannot: the
    # reference's own is 1.1e-3 of |I|^2, above every member's
    # (1.9e-4 to 3.2e-4), so it rises toward the limit as eps shrinks.
    cfg, result = run1d
    (row,) = rows_for(result, "dirac")
    assert row.detail.startswith("W1 to reference") and row.op == "<="
    assert report(7, "value-distribution collapse", row.passed,
                  f"W1 to reference at eps={cfg.ladder[-1]:g} = {row.lhs:.3e} "
                  f"vs 0.5 * W1 at eps={cfg.ladder[0]:g} = {row.rhs:.3e}")


def test_c08_div_curl_detection(run1d):
    cfg, result = run1d
    rows = rows_for(result, "divcurl")
    compact = next(r for r in rows if "compact" in r.detail)
    violation = next(r for r in rows if "violation" in r.detail)
    ok = compact.passed and violation.passed
    assert report(8, "div-curl detection", ok,
                  f"compact = {compact.lhs:.2e} <= 1e-2, "
                  f"violation = {violation.lhs:.3f} >= 0.4")


def test_c09_d2_quadratic(run2d):
    cfg, result = run2d
    rows = rows_for(result, "d2_quad")
    decreases = [r for r in rows if "decrease" in r.detail]
    floor = next(r for r in rows if "floor" in r.detail)
    assert len(decreases) == len(cfg.ladder) - 1
    ok = all(r.passed for r in decreases) and floor.passed
    assert report(9, "compensated quadratic (d=2)", ok,
                  "mean D: " + " > ".join(f"{r.lhs:.3e}" for r in decreases)
                  + f", pointwise min >= {-floor.lhs:.1e}")


def test_c09_2d_known_reds(run2d):
    # The shipped 2-D run fails exactly the six h1_decay slope rows (square
    # 0.055, Kruzkov 0.29-0.33 against >= 0.4) and the ut_l1 slope (-0.109
    # against >= -0.1); every other row passes.  Thresholds stay as stated.
    cfg, result = run2d
    failing = {(r.estimate, r.detail): r.lhs for r in result.rows
               if not r.passed}
    slopes = {(r.estimate, r.detail) for r in rows_for(result, "h1_decay")
              if r.detail.endswith(" slope")}
    assert len(slopes) == 6  # square + 5 kruzkov entropies
    reason = ("the 2-D ladder is diffusion-dominated: no member forms a shock "
              "(each member's steepest u_x only decays, while the Godunov "
              "reference steepens to about -50), so the divergence part and "
              "u_t decay at pre-asymptotic rates; failing rows: "
              + ", ".join(f"{e} {d} = {v:.4g}"
                          for (e, d), v in sorted(failing.items())))
    assert set(failing) == slopes | {("ut_l1", "slope")}, reason
    assert result.exit_code == 1, reason
    report(9, "2-D reds pinned (h1_decay, ut_l1)", True, reason)


# --- criterion 10: solver oracles --------------------------------------------

def test_c10a_heat_decay():
    n, eps, T = 200, 0.1, 1.0
    g = Grid((n,), (0.0,), (1.0,), T)
    f = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.0})
    v = make_viscosity("constant", (-1.0, 1.0))
    traj = integrate(g, np.sin(np.pi * g.centers(0)), f, v, eps, 0.4,
                     snapshot_times(T, 4))
    expect = math.exp(-eps * math.pi**2 * T)
    rel = abs(traj.values[-1].max() - expect) / expect
    assert report(10, "heat-decay amplitude", rel < 0.02,
                  f"relative error {rel:.4f} < 0.02")


def test_c10b_dual_norm_oracle():
    n = 200
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    val = dirichlet_dual_norm(np.sin(np.pi * x), (h,), ("cell",))
    expect = 1.0 / (math.sqrt(2.0) * math.pi)
    rel = abs(val - expect) / expect
    assert report(10, "dual-norm unit solve", rel < 0.01,
                  f"relative error {rel:.6f} < 0.01")


def test_c10c_shock_position():
    n, x0, T = 400, 0.4, 0.5
    g = Grid((n,), (0.0,), (1.0,), T)
    f = make_flux(("burgers",), (-1.0, 1.0), 1e-8)
    v = make_viscosity("constant", (-1.0, 1.0))
    u0 = np.where(g.centers(0) < x0, 1.0, 0.0)
    traj = solve_reference(g, f, v, u0, 0.4, snapshot_times(T, 4))
    err = abs(shock_position(traj.values[-1], g, 0.5) - (x0 + 0.5 * T))
    assert report(10, "shock position", err <= 2.0 / n,
                  f"error {err:.5f} <= {2.0 / n:.5f}")


def test_c10d_diffusion_order():
    eps, T, sigma0, c = 0.02, 0.1, 0.09, 0.5
    errs = []
    for n in (32, 64, 128):
        g = Grid((n,), (0.0,), (1.0,), T)
        f = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.0})
        v = make_viscosity("constant", (-1.0, 1.0))
        x = g.centers(0)
        u0 = np.exp(-((x - c) ** 2) / (2 * sigma0**2))
        traj = integrate(g, u0, f, v, eps, 0.4, snapshot_times(T, 2))
        s2 = sigma0**2 + 2 * eps * T
        exact = sigma0 / math.sqrt(s2) * np.exp(-((x - c) ** 2) / (2 * s2))
        errs.append((1.0 / n, float(np.abs(traj.values[-1] - exact).max())))
    rate = fit_rate(errs).rate
    assert report(10, "pure-diffusion spatial order", rate >= 1.8,
                  f"order {rate:.2f} >= 1.8")


# --- criterion 11: mollifier suite --------------------------------------------

def test_c11_mollifier_suite():
    g = Grid((800,), (0.0,), (1.0,), 1.0)
    h = g.spacing[0]
    data = make_initial_data(g, "box", (0.5,), 0.25, 1.0)
    sup_ok = True
    tv_ok = True
    pts = []
    for width in (0.08, 0.04, 0.02):
        out = mollify(data, make_kernel(width, g.spacing))
        # exact up to the 1e-12 rounding of the kernel mass normalization
        sup_ok &= np.max(np.abs(out.values)) <= data.sup_norm * (1.0 + 1e-12)
        tv_ok &= total_variation(out) <= data.tv * (1.0 + 10.0 * h)
        lap = np.abs(np.diff(out.values, 2)) / h**2
        pts.append((width, float(lap.sum() * h)))
    slope = fit_rate(pts).rate
    ok = sup_ok and tv_ok and slope <= -0.8
    assert report(11, "mollifier bounds", ok,
                  f"sup exact: {sup_ok}, tv bound: {tv_ok}, "
                  f"laplacian slope {slope:.2f} <= -0.8")
