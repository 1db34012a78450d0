"""Estimate evaluation: per-epsilon left/right-hand sides and pass flags.

Estimate ids: max_principle, energy, h1_decay, measure_bound, ut_l1, dirac,
divcurl, d2_quad, convergence.  The divcurl row is an instrument self-test on
the run's own lattice (synthetic compact and violating pairs with known
deviations); the per-member trajectory deviations are reported alongside in
the diagnostics table.

The dirac row checks that the windowed value distributions approach those of
the inviscid reference: the mean per-window W1 distance to the reference's
histograms at the finest member must be at most DIRAC_FACTOR times that at
the coarsest.  The limit's own distribution is not a point mass on windows
a shock crosses, so the raw windowed variance (dirac_metric) cannot shrink
toward zero; it stays a reported diagnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .compactness import YoungHistogramSet, div_curl_test
from .convergence import ConvergenceReport, RateFit

ESTIMATE_IDS = ("max_principle", "energy", "h1_decay", "measure_bound",
                "ut_l1", "dirac", "divcurl", "d2_quad", "convergence")

MAX_PRINCIPLE_TOL = 1e-10
ENERGY_SLACK = 1.05
H1_SLOPE_MIN = 0.4
H1_RESID_MAX = 0.15
UT_SLOPE_MIN = -0.1
DIRAC_FACTOR = 0.5
DIVCURL_COMPACT_MAX = 1e-2
DIVCURL_VIOLATION_MIN = 0.4
D2_POINTWISE_FLOOR = -1e-12
CAUCHY_RATE_MIN = 0.3


@dataclass
class MemberDiagnostics:
    eps: float
    eps_label: str
    entropy: dict = field(default_factory=dict)  # id -> (h1_norm_A, measure_norm_M)
    ut_l1: float = 0.0
    dirac: float = 0.0
    young: YoungHistogramSet | None = None
    young_w1: float = float("nan")  # W1 to the reference's histograms / |I|
    divcurl_dev: float = float("nan")
    d_mean: float = float("nan")
    d_min: float = float("nan")
    snapshot_sup: float = 0.0
    energy: float = 0.0


@dataclass(frozen=True)
class EstimateRow:
    estimate: str
    detail: str
    epsilon: str
    lhs: float
    rhs: float
    op: str
    passed: bool


_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _check(rows, estimate, detail, eps_label, lhs, rhs, op, ok=None):
    """Append the row of ``lhs op rhs``, which passes when the comparison
    holds, or, given ``ok``, when ``ok`` does."""
    if ok is None:
        ok = _OPS[op](lhs, rhs)
    rows.append(EstimateRow(estimate, detail, eps_label, float(lhs),
                            float(rhs), op, bool(ok)))


def synthetic_divcurl(grid, times, window) -> tuple[float, float]:
    """Deviation of the compact and of the violating synthetic pairs."""
    nx = grid.cells[0]
    mode = max(nx // 4, 1)
    x = grid.centers(0)
    s1 = np.sin(2.0 * np.pi * mode * x)
    shape = (times.size,) + grid.cells
    # read-only views: the pair is constant in time and in y, and no
    # space-time array of it is ever stored
    s = np.broadcast_to(s1.reshape((1, nx) + (1,) * (grid.dim - 1)), shape)
    zero = np.broadcast_to(0.0, shape)
    compact = div_curl_test((s, zero), (zero, s), window)
    violation = div_curl_test((s, zero), (s, zero), window)
    return compact, violation


def evaluate_estimates(cfg, specs, members: list[MemberDiagnostics],
                       conv: ConvergenceReport | None,
                       divcurl: tuple[float, float], rate_fits: dict,
                       ut_fit: RateFit | None) -> list[EstimateRow]:
    """Assemble the full estimate table for one run.

    The bounds come from the config ``cfg`` (sup|u0|, the dimension) and
    the runtime ``specs`` (the viscosity bounds, |Omega| and each pair's
    sup eta'').  ``divcurl`` is ``synthetic_divcurl``'s compact and
    violating deviations.  ``rate_fits`` maps each entropy to the fit of
    its ``h1_norm_A`` over the ladder, ``ut_fit`` is the fit of ``ut_l1``;
    both are absent (empty, None) on a ladder too short to fit.
    """
    rows: list[EstimateRow] = []
    sup0, volume = cfg.sup_u0, specs.grid.volume
    r_floor, b_sup = specs.visc.lower_bound, specs.visc.upper_bound
    etapp_sup = {p.name: p.etapp_sup for p in specs.pairs}

    for m in members:
        _check(rows, "max_principle", "snapshot sup", m.eps_label,
               m.snapshot_sup, sup0 + MAX_PRINCIPLE_TOL, "<=")

    energy_rhs = ENERGY_SLACK * sup0 * sup0 * volume / (2.0 * r_floor)
    for m in members:
        _check(rows, "energy", "weighted gradient energy", m.eps_label,
               m.energy, energy_rhs, "<=")

    for ent_id, fitres in rate_fits.items():
        _check(rows, "h1_decay", f"{ent_id} slope", "all",
               fitres.rate, H1_SLOPE_MIN, ">=")
        _check(rows, "h1_decay", f"{ent_id} residual", "all",
               fitres.residual, H1_RESID_MAX, "<=")

    for m in members:
        for ent_id, (_h1, mnorm) in m.entropy.items():
            rhs = ENERGY_SLACK * b_sup * etapp_sup[ent_id] * sup0 * sup0 \
                * volume / (2.0 * r_floor)
            _check(rows, "measure_bound", ent_id, m.eps_label, mnorm, rhs, "<=")

    if ut_fit is not None:
        _check(rows, "ut_l1", "slope", "all", ut_fit.rate, UT_SLOPE_MIN, ">=")

    if conv is not None and len(members) >= 2:
        _check(rows, "dirac", "W1 to reference: finest vs coarsest",
               members[-1].eps_label, members[-1].young_w1,
               DIRAC_FACTOR * members[0].young_w1, "<=")

    compact, violation = divcurl
    _check(rows, "divcurl", "compact synthetic", "-", compact,
           DIVCURL_COMPACT_MAX, "<=")
    _check(rows, "divcurl", "violation synthetic", "-", violation,
           DIVCURL_VIOLATION_MIN, ">=")

    if cfg.dim == 2:
        for a, b in zip(members, members[1:]):
            _check(rows, "d2_quad", f"mean D decrease {a.eps_label}->{b.eps_label}",
                   b.eps_label, b.d_mean, a.d_mean, "<")
        # with no member stored, the row is "not evaluated" like the others
        if members:
            _check(rows, "d2_quad", "pointwise floor", "all",
                   -min(m.d_min for m in members), -D2_POINTWISE_FLOOR, "<=")
    else:
        _check(rows, "d2_quad", "not applicable (d=1)", "-", 0.0, 0.0, "<=")

    if conv is not None:
        for (ea, eb), (err_a, err_b) in zip(
                zip(conv.epsilons, conv.epsilons[1:]),
                zip(conv.errors_vs_reference, conv.errors_vs_reference[1:])):
            _check(rows, "convergence", f"error decrease {ea:g}->{eb:g}",
                   f"{eb:g}", err_b, err_a, "<",
                   err_b < err_a or (err_a == 0.0 and err_b == 0.0))
        if conv.cauchy_fit is not None:
            _check(rows, "convergence", "cauchy rate", "all",
                   conv.cauchy_fit.rate, CAUCHY_RATE_MIN, ">=")
        else:
            _check(rows, "convergence", "cauchy rate (ladder too short for "
                   "a fit)", "-", 0.0, 0.0, "<=")

    present = {r.estimate for r in rows}
    for eid in ESTIMATE_IDS:
        if eid not in present:
            # conv is None with members stored only when the reference is
            # missing, and dirac and convergence read the reference
            why = ("no reference" if conv is None and members
                   and eid in ("dirac", "convergence") else "ladder too short")
            _check(rows, eid, f"not evaluated ({why})", "-", 0.0, 0.0, "<=")
    rows.sort(key=lambda r: ESTIMATE_IDS.index(r.estimate))
    return rows


def overall_verdicts(rows: list[EstimateRow]) -> dict:
    out = {}
    for row in rows:
        out.setdefault(row.estimate, True)
        out[row.estimate] = out[row.estimate] and row.passed
    return out


def format_table(rows: list[EstimateRow]) -> str:
    verdicts = overall_verdicts(rows)
    lines = []
    width = max(len(r.estimate) for r in rows) + 2
    for r in rows:
        lines.append(f"{r.estimate:<{width}} {r.detail:<38} eps={r.epsilon:<10} "
                     f"lhs={r.lhs:.6g} {r.op} rhs={r.rhs:.6g}  "
                     f"{'PASS' if r.passed else 'FAIL'}")
    lines.append("-" * 60)
    for est, ok in verdicts.items():
        lines.append(f"{est:<{width}} overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)
