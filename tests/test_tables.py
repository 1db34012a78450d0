import numpy as np
import pytest

from visclab import tables
from visclab.domain import _flux_component, make_flux, make_viscosity
from visclab.tables import (TableLattice, adaptive_panel_integrals,
                            critical_nodes, cumulative_table, flat_value,
                            interp, locate, lookup, monotone_envelope, slopes)


def test_gauss_legendre_rule_is_numpys():
    # the written-out nodes and weights are numpy's, bit for bit, so every
    # table they fill is unchanged
    x, w = np.polynomial.legendre.leggauss(8)
    assert tables._GL_X.tobytes() == x.tobytes()
    assert tables._GL_W.tobytes() == w.tobytes()


def test_cumulative_matches_cubic():
    lat = TableLattice(-1.0, 1.0, 512)
    tab = cumulative_table(lambda s: s * s, lat, 1e-10)
    nodes = lat.nodes()
    assert np.max(np.abs(tab - nodes**3 / 3.0)) < 1e-10


def test_cumulative_anchored_at_zero():
    # zero lies between nodes; the anchor integral must still make q(0) = 0
    lat = TableLattice(-1.0, 1.0, 4096)
    tab = cumulative_table(lambda s: np.cos(s), lat, 1e-10)
    assert abs(interp(lat, tab, 0.0)[0]) < 1e-7
    assert abs(interp(lat, tab, 0.5)[0] - np.sin(0.5)) < 1e-7


def test_adaptive_handles_kink():
    edges = np.linspace(-1.0, 1.0, 9)  # kink of max(s,0) inside a panel
    panels = adaptive_panel_integrals(lambda s: np.maximum(s, 0.0), edges, 1e-12)
    total = panels.sum()
    assert abs(total - 0.5) < 1e-11
    # panel fully left of zero contributes nothing
    assert abs(panels[0]) < 1e-13


def test_interp_exact_at_nodes_and_ends():
    lat = TableLattice(-2.0, 2.0, 33)
    vals = np.sin(lat.nodes())
    nodes = lat.nodes()
    for k in (0, 7, 16, 32):
        assert interp(lat, vals, nodes[k])[0] == pytest.approx(vals[k], abs=1e-15)
    assert interp(lat, vals, 2.0)[0] == pytest.approx(vals[-1], abs=1e-15)


def test_flat_value_of_flat_tables_only():
    # the one judgement of whether B is one number, read by the viscous
    # step's plan and by the entropy split: node 0 of a flat table, which
    # for the constant preset is B(0); None once any node differs
    for b in (1.0, 0.7):
        visc = make_viscosity("constant", (-1.0, 1.0), {"b": b})
        assert flat_value(visc.table) == float(visc.B(0.0)) == b
    kinked = np.full(9, 0.7)
    kinked[4] += 0.25
    assert flat_value(kinked) is None
    assert flat_value(make_viscosity("gaussian", (-1.0, 1.0)).table) is None


def test_monotone_envelope():
    v = np.array([0.0, 1.0, 1.0 - 1e-17, 2.0])
    up = monotone_envelope(v, increasing=True)
    assert np.all(np.diff(up) >= 0)
    dn = monotone_envelope(-v, increasing=False)
    assert np.all(np.diff(dn) <= 0)


def test_critical_nodes_burgers():
    lat = TableLattice(-1.0, 1.0, 4096)
    nodes = lat.nodes()
    crit_y, crit_f = critical_nodes(lat, nodes.copy(), 0.5 * nodes**2)
    # f' = u changes sign once near zero
    assert 1 <= crit_y.size <= 2
    assert np.all(np.abs(crit_y) < 1e-3)
    assert np.all(crit_f < 1e-6)


def _critical_rule(fprime):
    """Nodes next to a sign change of f' and every node where f' is zero."""
    s = np.sign(fprime)
    change = np.flatnonzero(s[:-1] * s[1:] < 0)
    return sorted(set(change) | set(change + 1) | set(np.flatnonzero(s == 0)))


def test_critical_nodes_zero_speed_keeps_the_run_ends():
    # f' = 0 on every node: a zero inside the run is no candidate, so only
    # the two end nodes remain of 4,096
    flux = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.0})
    crit_y = flux.tables[0].crit_y
    assert crit_y.tolist() == [-1.0, 1.0]
    assert flux.tables[0].crit_f.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("nodes", [4096, 4097])  # 4,097 put a node on 0
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (-0.7, 0.7), (-1.0, 0.5)])
@pytest.mark.parametrize("name", ["burgers", "arctan", "linear"])
def test_critical_nodes_without_zero_runs_unchanged(name, interval, nodes):
    # with no run of three zeros, the critical nodes are those of the rule
    # that counts every zero of f'
    lat = TableLattice(*interval, nodes)
    comp = _flux_component(name, {"a": -0.5}, 1.0)
    fp = np.asarray(comp.fp(lat.nodes()), dtype=np.float64)
    fv = tables.sample_table(comp.f, lat)
    crit_y, crit_f = critical_nodes(lat, fp, fv)
    idx = _critical_rule(fp)
    assert crit_y.tobytes() == lat.nodes()[idx].tobytes()
    assert crit_f.tobytes() == fv[idx].tobytes()


def test_locate_into_buffers_matches_allocating():
    # in range, on nodes, at both ends and outside: the end panels extrapolate
    lat = TableLattice(-1.0, 1.0, 64)
    u = np.array([[-1.5, -1.0, -0.3], [0.0, 0.7, 1.0], [1.2, 0.999, 3.0]])
    top = lat.n - 2.0
    assert lat.panels == (lat.lo, lat.inv_spacing, top)
    k, frac = locate(*lat.panels, u)
    buf = (np.full(u.shape, -7, np.int64), np.full(u.shape, np.nan),
           np.full(u.shape, np.nan))
    kb, fb = locate(lat.lo, lat.inv_spacing, top, u, out=buf)
    assert kb is buf[0] and fb is buf[1]
    assert k.dtype == kb.dtype == np.int64
    assert np.array_equal(k, kb) and np.array_equal(frac, fb)
    assert k.min() == 0 and k.max() == top


def test_lookup_slopes_bit_identical():
    # in range, outside [lo, hi] (the end panels extrapolate) and on every
    # node; locating into buffers and allocating give the same reads
    lat = TableLattice(-1.0, 1.0, 64)
    rng = np.random.default_rng(5)
    tab = np.cumsum(rng.normal(size=lat.n))
    u = np.concatenate([rng.uniform(-1.0, 1.0, 200), lat.nodes(),
                        [-3.0, -1.0 - 1e-9, 1.0 + 1e-9, 2.5]])
    top = lat.n - 2.0
    s = (u - lat.lo) * lat.inv_spacing
    kf = np.minimum(np.maximum(np.floor(s), 0.0), top)
    ki = kf.astype(np.int64)
    expect = tab[ki] + (s - kf) * (tab[ki + 1] - tab[ki])
    for out in (None, (np.empty(u.shape, np.int64), np.empty(u.shape),
                       np.empty(u.shape))):
        k, frac = locate(lat.lo, lat.inv_spacing, top, u, out=out)
        # clipping before truncating gives floor-then-clip's panel and fraction
        assert np.array_equal(k, ki)
        assert np.array_equal(frac.view(np.int64), (s - kf).view(np.int64))
        got = lookup(tab, slopes(tab), (k, frac))
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def _locate_cast_and_subtract(lo, inv, top, u):
    """``locate`` with the int64 panel index subtracted from the scaled
    value, numpy's mixed int64-float64 loop, as it was written before the
    truncation stayed a double."""
    s = (u - lo) * inv
    k = np.minimum(np.maximum(s, 0.0), top).astype(np.int64)
    s -= k
    return k, s


@pytest.mark.parametrize("bounds", [(-1.0, 1.0), (-0.3, 1.7)])
def test_locate_bytes_equal_cast_and_subtract(bounds):
    # inside the lattice, on every node, at hi (the last panel, frac = 1),
    # next to both ends and beyond them
    lat = TableLattice(*bounds, 4096)
    lo, hi = lat.lo, lat.hi
    rng = np.random.default_rng(17)
    u = np.concatenate([
        rng.uniform(lo, hi, 2000), lat.nodes(),
        [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
         np.nextafter(hi, -np.inf), lo - 1e-9, hi + 1e-9, -1e300, 1e300],
        rng.uniform(lo - 3.0, lo, 50), rng.uniform(hi, hi + 3.0, 50)])
    top = lat.n - 2.0
    want_k, want_frac = _locate_cast_and_subtract(lo, lat.inv_spacing, top, u)
    for out in (None, (np.empty(u.shape, np.int64), np.empty(u.shape),
                       np.empty(u.shape))):
        k, frac = locate(lo, lat.inv_spacing, top, u, out=out)
        assert k.dtype == np.int64
        assert k.tobytes() == want_k.tobytes()
        assert frac.tobytes() == want_frac.tobytes()
    at_hi = u == hi
    assert (k[at_hi] == top).all() and (frac[at_hi] == 1.0).all()
