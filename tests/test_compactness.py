import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import entropy_production_total, split_production
from visclab import compactness
from visclab.compactness import (attach_c_field, build_compensated_quad,
                                 choose_c, compensated_D_field,
                                 decompose_production, dirac_concentration,
                                 div_curl_test, flux_identity_gap,
                                 time_derivative_l1, young_histograms,
                                 young_w1_distance)
from visclab.domain import FieldTrajectory, Grid, kruzkov_ladder, \
    make_entropy_pair, make_flux, make_viscosity
from visclab.norms import SpaceTimeField, measure_norm
from visclab.tables import interp
from visclab.viscous import integrate, snapshot_times


def make_traj(values, T=1.0, eps=0.1, extent=1.0):
    nt = values.shape[0]
    cells = values.shape[1:]
    lo = (0.0,) * len(cells)
    hi = (extent,) * len(cells)
    g = Grid(cells, lo, hi, T)
    return FieldTrajectory(g, np.linspace(0, T, nt), values, eps, dt=T / (nt - 1))


@pytest.fixture(scope="module")
def burgers():
    return make_flux(("burgers",), (-1.0, 1.0), 1e-8)


@pytest.fixture(scope="module")
def bconst():
    return make_viscosity("constant", (-1.0, 1.0))


# --- production field --------------------------------------------------------

def test_production_zero_for_steady_zero_flux(burgers, bconst):
    spec = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.0})
    pair = make_entropy_pair("square", spec, 1e-8)
    traj = make_traj(np.tile(0.4 * np.ones(32), (5, 1)))
    field = entropy_production_total(traj, pair)
    # interior cells: steady in time and constant in space
    assert np.max(np.abs(field.values[:, 1:-1])) < 1e-14


def test_production_vanishes_on_smooth_translation():
    # exact traveling profile of the linear equation: eta_t + q_x = 0
    spec = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.5})
    pair = make_entropy_pair("square", spec, 1e-8)
    norms = []
    for n, nt in ((100, 26), (200, 51), (400, 101)):
        g = Grid((n,), (0.0,), (1.0,), 0.4)
        t = np.linspace(0, 0.4, nt)
        x = g.centers(0)
        vals = np.empty((nt, n))
        for k, tk in enumerate(t):
            r = (x - 0.3 - 0.5 * tk) / 0.15
            vals[k] = np.where(np.abs(r) < 1, (1 - np.minimum(np.abs(r), 1) ** 2) ** 3, 0.0)
        traj = FieldTrajectory(g, t, vals, 0.0, dt=0.4 / (nt - 1))
        norms.append(measure_norm(entropy_production_total(traj, pair)))
    assert norms[0] > norms[1] > norms[2]


def test_split_consistency_on_heat_oracle(bconst):
    # T_eta and A + M are discretizations of the same quantity; their gap
    # shrinks under simultaneous refinement
    spec = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.0})
    pair = make_entropy_pair("square", spec, 1e-8)
    eps = 0.1
    gaps = []
    for n, nt in ((50, 9), (100, 17), (200, 33)):
        g = Grid((n,), (0.0,), (1.0,), 0.5)
        t = np.linspace(0, 0.5, nt)
        x = g.centers(0)
        vals = np.exp(-eps * math.pi**2 * t)[:, None] * np.sin(math.pi * x)[None, :]
        traj = FieldTrajectory(g, t, vals, eps, dt=0.5 / (nt - 1))
        total = entropy_production_total(traj, pair)
        split = split_production(traj, pair, bconst, eps)
        gap = SpaceTimeField(g, t, total.values - split.divergence_part.values
                             - split.dissipation_part.values)
        gaps.append(measure_norm(gap))
    assert gaps[0] > gaps[1] > gaps[2]


def test_split_constant_trajectory(bconst, burgers):
    pair = make_entropy_pair("square", burgers, 1e-8)
    traj = make_traj(np.tile(0.3 * np.ones(24), (5, 1)))
    split = split_production(traj, pair, bconst, 0.1)
    assert np.max(np.abs(split.divergence_part.values[:, 1:-1])) < 1e-12
    assert np.max(np.abs(split.dissipation_part.values[:, 1:-1])) < 1e-12


@pytest.mark.parametrize("entropy", ["square", "kruzkov"])
def test_dissipation_part_nonpositive(entropy, burgers):
    visc = make_viscosity("quadratic", (-1.0, 1.0))
    pair = make_entropy_pair(entropy, burgers, 1e-8, k=0.2, delta=1e-3)
    g = Grid((64,), (0.0,), (1.0,), 0.2)
    x = g.centers(0)
    u0 = np.where(np.abs(x - 0.5) < 0.25, (1 - ((x - 0.5) / 0.25) ** 2) ** 3, 0.0)
    traj = integrate(g, u0, burgers, visc, 0.05, 0.4, snapshot_times(0.2, 8),
                     sup_bound=1.0)
    split = split_production(traj, pair, visc, 0.05)
    assert np.max(split.dissipation_part.values) <= 0.0


def test_measure_part_uniform_bound(burgers, bconst):
    pair = make_entropy_pair("square", burgers, 1e-8)
    g = Grid((100,), (0.0,), (1.0,), 0.2)
    x = g.centers(0)
    u0 = np.where(np.abs(x - 0.5) < 0.25, (1 - ((x - 0.5) / 0.25) ** 2) ** 3, 0.0)
    bound = 1.05 * bconst.upper_bound * pair.etapp_sup * 1.0 / (2 * bconst.lower_bound)
    for eps in (0.1, 0.05, 0.025):
        traj = integrate(g, u0, burgers, bconst, eps, 0.4, snapshot_times(0.2, 8),
                         sup_bound=1.0)
        [(_h1_norm_A, measure_norm_M)] = decompose_production(
            traj, [pair], bconst, eps)
        assert measure_norm_M <= bound


def test_time_derivative_heat_oracle():
    # closed-form: (2/pi)(1 - exp(-eps pi^2 T)) for the decaying sine mode
    eps, T = 0.1, 1.0
    g = Grid((200,), (0.0,), (1.0,), T)
    t = np.linspace(0, T, 65)
    vals = np.exp(-eps * math.pi**2 * t)[:, None] * \
        np.sin(math.pi * g.centers(0))[None, :]
    traj = FieldTrajectory(g, t, vals, eps, dt=T / 64)
    expect = (2.0 / math.pi) * (1.0 - math.exp(-eps * math.pi**2 * T))
    assert time_derivative_l1(traj) == pytest.approx(expect, rel=0.03)


def test_time_derivative_steady():
    traj = make_traj(np.tile(np.linspace(-0.5, 0.5, 20), (4, 1)))
    assert time_derivative_l1(traj) == 0.0


# --- windowed value distributions --------------------------------------------

def test_young_constant_point_mass():
    traj = make_traj(np.full((4, 16), 0.25))
    hs = young_histograms(traj, (-1.0, 1.0), 4, 2, 16)
    assert np.allclose(hs.probabilities.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((hs.probabilities > 0).sum(axis=1) == 1)
    assert dirac_concentration(hs) == pytest.approx(0.0, abs=1e-12)


def test_young_checkerboard_half_half():
    i, n = np.meshgrid(np.arange(4), np.arange(16), indexing="ij")
    vals = np.where((i + n) % 2 == 0, 1.0, -1.0)
    traj = make_traj(vals.astype(float))
    hs = young_histograms(traj, (-1.0, 1.0), 4, 2, 64)
    occupied = hs.probabilities > 0
    assert np.all(occupied.sum(axis=1) == 2)
    assert np.all(np.isclose(hs.probabilities[occupied], 0.5))
    # symmetric two-point mass: variance 1, normalized by |I|^2 = 4
    assert dirac_concentration(hs) == pytest.approx(0.25, abs=3 * 2.0 / 64)


def test_young_moments_match_window_means():
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1, 1, size=(6, 24))
    traj = make_traj(vals)
    hs = young_histograms(traj, (-1.0, 1.0), 8, 3, 128)
    raw_means = vals.reshape(2, 3, 3, 8).transpose(0, 2, 1, 3).reshape(6, -1).mean(axis=1)
    assert np.allclose(np.sort(hs.means), np.sort(raw_means), atol=2.0 / 128)


def test_young_rejects_bad_window_and_range():
    traj = make_traj(np.zeros((5, 16)))
    with pytest.raises(ValueError, match="divide"):
        young_histograms(traj, (-1, 1), 3, 5, 8)
    traj2 = make_traj(np.full((5, 16), 1.5))
    with pytest.raises(ValueError, match="invariant interval"):
        young_histograms(traj2, (-1, 1), 4, 5, 8)


def test_dirac_smoothing_contracts():
    i, n = np.meshgrid(np.arange(4), np.arange(32), indexing="ij")
    checker = np.where((i + n) % 2 == 0, 1.0, -1.0).astype(float)
    smooth = np.zeros_like(checker)
    smooth[:, 1:-1] = (checker[:, :-2] + 2 * checker[:, 1:-1] + checker[:, 2:]) / 4
    d_checker = dirac_concentration(young_histograms(make_traj(checker), (-1, 1), 8, 2, 64))
    d_smooth = dirac_concentration(young_histograms(make_traj(smooth), (-1, 1), 8, 2, 64))
    assert d_smooth < d_checker


def test_young_w1_identical_sets_zero():
    rng = np.random.default_rng(4)
    hs = young_histograms(make_traj(rng.uniform(-1, 1, size=(6, 24))),
                          (-1.0, 1.0), 8, 3, 64)
    assert young_w1_distance(hs, hs) == 0.0


@pytest.mark.parametrize("a,b", [(-0.9, 0.7), (0.3, 0.35), (0.5, -0.5)])
def test_young_w1_point_masses(a, b):
    bins = 64
    ha = young_histograms(make_traj(np.full((4, 16), a)), (-1.0, 1.0), 4, 2, bins)
    hb = young_histograms(make_traj(np.full((4, 16), b)), (-1.0, 1.0), 4, 2, bins)
    # the distance is between bin lattices: exact up to one bin width / |I|
    expect = abs(a - b) / 2.0
    assert young_w1_distance(ha, hb) == pytest.approx(expect, abs=1.0 / bins)
    assert young_w1_distance(hb, ha) == young_w1_distance(ha, hb)


def test_young_w1_rejects_mismatch():
    traj = make_traj(np.zeros((4, 16)))
    base = young_histograms(traj, (-1.0, 1.0), 4, 2, 16)
    other_window = young_histograms(traj, (-1.0, 1.0), 8, 2, 16)
    other_lattice = young_histograms(make_traj(np.zeros((4, 32))),
                                     (-1.0, 1.0), 4, 2, 16)
    other_bins = young_histograms(traj, (-1.0, 1.0), 4, 2, 32)
    other_interval = young_histograms(traj, (-2.0, 2.0), 4, 2, 16)
    with pytest.raises(ValueError, match="windows"):
        young_w1_distance(base, other_window)
    with pytest.raises(ValueError, match="windows"):
        young_w1_distance(base, other_lattice)
    with pytest.raises(ValueError, match="bins"):
        young_w1_distance(base, other_bins)
    with pytest.raises(ValueError, match="interval"):
        young_w1_distance(base, other_interval)


def test_flux_identity_gap_definition(burgers):
    traj = make_traj(np.full((4, 16), 0.5))
    hs = young_histograms(traj, (-1, 1), 4, 2, 256)
    assert flux_identity_gap(hs, burgers) == pytest.approx(0.0, abs=1e-4)


# --- div-curl -----------------------------------------------------------------

def test_divcurl_constant_zero():
    c = np.full((8, 32), 0.7)
    z = np.zeros((8, 32))
    dev = div_curl_test((c, z), (c, z), (4, 8))
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_divcurl_orthogonal_pair_compact():
    x = (np.arange(256) + 0.5) / 256
    s = np.tile(np.sin(2 * np.pi * 64 * x), (8, 1))
    z = np.zeros_like(s)
    dev = div_curl_test((s, z), (z, s), (4, 8))
    assert dev <= 1e-2
    # deviation cannot grow as the window grows
    dev_big = div_curl_test((s, z), (z, s), (8, 32))
    assert dev_big <= 1e-2


def test_divcurl_sin_squared_violation():
    x = (np.arange(256) + 0.5) / 256
    s = np.tile(np.sin(2 * np.pi * 64 * x), (8, 1))
    z = np.zeros_like(s)
    dev = div_curl_test((s, z), (s, z), (4, 8))
    assert dev >= 0.4


@pytest.mark.parametrize("shape, window", [((11, 24, 20), (3, 5, 6)),
                                           ((33, 40), (8, 8))])
def test_divcurl_windowed_product_bit_identical(shape, window):
    # G.H is formed one time window at a time (ragged windows in the first
    # case); the deviation is the one the whole product gives
    g1, g2, h1, h2 = np.random.default_rng(7).standard_normal((4,) + shape)
    avg = lambda f: compactness._block_means(f, window)
    whole = float(np.max(np.abs(avg(g1 * h1 + g2 * h2)
                                - (avg(g1) * avg(h1) + avg(g2) * avg(h2)))))
    assert div_curl_test((g1, g2), (h1, h2), window) == whole


def test_divcurl_transient_peak_below_one_field():
    # the whole product G.H would take three fields at once
    g1, g2, h1, h2 = np.random.default_rng(8).standard_normal((4, 33, 64, 64))
    tracemalloc.start()
    try:
        div_curl_test((g1, g2), (h1, h2), (8, 8, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g1.nbytes


def test_divcurl_lattice_mismatch():
    a = np.zeros((4, 16))
    b = np.zeros((4, 8))
    with pytest.raises(ValueError, match="lattice"):
        div_curl_test((a, a), (b, b), (2, 4))


# --- compensated quadratic ------------------------------------------------------

@pytest.fixture(scope="module")
def flux2d():
    return make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8, {"a": 1.0})


def test_compensated_tables_symbolic(flux2d):
    quad = build_compensated_quad(flux2d, 1e-10)
    lat = quad.lattice
    # F11 = u^3/3, F12 = u^2/2, F22 = u for f1 = u^2/2, f2 = u
    for w in (-0.8, -0.2, 0.5, 1.0):
        assert interp(lat, quad.F11, w)[0] == pytest.approx(w**3 / 3, abs=1e-6)
        assert interp(lat, quad.F12, w)[0] == pytest.approx(w**2 / 2, abs=1e-6)
        assert interp(lat, quad.F22, w)[0] == pytest.approx(w, abs=1e-6)
    # D(w=1, c=0) = (1/3)(1) - (1/2)^2 = 1/12
    d = (interp(lat, quad.F11, 1.0)[0] - interp(lat, quad.F11, 0.0)[0]) \
        * (interp(lat, quad.F22, 1.0)[0] - interp(lat, quad.F22, 0.0)[0]) \
        - (interp(lat, quad.F12, 1.0)[0] - interp(lat, quad.F12, 0.0)[0]) ** 2
    assert d == pytest.approx(1.0 / 12.0, abs=1e-5)


def test_cauchy_schwarz_pointwise(flux2d):
    quad = build_compensated_quad(flux2d, 1e-10)
    lat = quad.lattice
    rng = np.random.default_rng(9)
    w = rng.uniform(-1, 1, 500)
    c = rng.uniform(-1, 1, 500)
    d11 = interp(lat, quad.F11, w) - interp(lat, quad.F11, c)
    d22 = interp(lat, quad.F22, w) - interp(lat, quad.F22, c)
    d12 = interp(lat, quad.F12, w) - interp(lat, quad.F12, c)
    assert np.min(d11 * d22 - d12**2) >= -1e-12


def test_choose_c_inverse(flux2d):
    quad = build_compensated_quad(flux2d, 1e-10)
    c, clamped = choose_c(np.array([1.0 / 3.0]), quad)
    assert c[0] == pytest.approx(1.0, abs=1e-5)
    assert clamped == 0
    c0, _ = choose_c(np.array([0.0]), quad)
    assert c0[0] == pytest.approx(0.0, abs=1e-5)
    targets = np.linspace(-0.3, 0.3, 7) ** 3 / 3.0
    cs, _ = choose_c(targets, quad)
    assert np.all(np.diff(cs) > 0)
    c2, clamp2 = choose_c(np.array([-10.0, 0.0, 10.0]), quad)
    assert c2[0] == quad.lattice.lo
    assert c2[1] == pytest.approx(0.0, abs=1e-5)
    assert c2[2] == quad.lattice.hi
    assert clamp2 == 2


def test_compensated_D_constant_field(flux2d):
    vals = np.full((4, 8, 8), 0.4)
    traj = make_traj(vals, T=0.5)
    quad = build_compensated_quad(flux2d, 1e-10)
    quad = attach_c_field(quad, traj, (2, 4, 4))
    field = compensated_D_field(traj, quad)
    assert np.mean(field.values) == pytest.approx(0.0, abs=1e-10)
    assert np.min(field.values) >= -1e-12


def test_compensated_D_requires_2d(flux2d):
    traj = make_traj(np.zeros((4, 8)))
    quad = build_compensated_quad(flux2d, 1e-10)
    with pytest.raises(ValueError, match="d = 2"):
        compensated_D_field(traj, quad)


# --- snapshot blocking -----------------------------------------------------------

def _random_traj(nt, nx, ny, seed):
    rng = np.random.default_rng(seed)
    return make_traj(0.8 * np.sin(rng.uniform(0.0, 6.0, (nt, nx, ny))), T=0.5)


def _member_pairs(flux):
    """The six entropy pairs of a member, as ``build_runtime`` makes them:
    the square entropy and five Kruzkov k across the flux interval."""
    return ([make_entropy_pair("square", flux, 1e-8)]
            + kruzkov_ladder(flux, 5, 1e-3, 1e-8))


def _assert_split_matches_oracle(traj, pairs, visc, eps):
    got = decompose_production(traj, pairs, visc, eps)
    assert len(got) == len(pairs)
    for pair, (h1_norm_A, measure_norm_M) in zip(pairs, got):
        want = split_production(traj, pair, visc, eps)
        assert h1_norm_A.hex() == want.h1_norm_A.hex(), pair.name
        assert measure_norm_M.hex() == want.measure_norm_M.hex(), pair.name


@pytest.mark.parametrize("snaps_per_block", [1, 3])
@pytest.mark.parametrize("entropy", ["square", "kruzkov"])
def test_blocked_instruments_bit_identical(monkeypatch, flux2d, entropy,
                                           snaps_per_block):
    # ragged blocks (11 snapshots) and ragged c-field windows on both axes
    traj = _random_traj(11, 24, 20, seed=4)
    pair = make_entropy_pair(entropy, flux2d, 1e-8, k=0.2, delta=1e-3)
    visc = make_viscosity("quadratic", (-1.0, 1.0))
    quad = build_compensated_quad(flux2d, 1e-10)

    def outputs():
        q = attach_c_field(quad, traj, (3, 5, 6))
        return q.f11_bar, q.c_field, compensated_D_field(traj, q).values

    monkeypatch.setattr(compactness, "BLOCK_BYTES", traj.values.nbytes)
    assert len(compactness._snapshot_blocks(traj.values)) == 1
    whole = outputs()
    monkeypatch.setattr(compactness, "BLOCK_BYTES",
                        snaps_per_block * traj.values[0].nbytes)
    assert len(compactness._snapshot_blocks(traj.values)) == \
        -(-11 // snaps_per_block)
    # the split's norms against the oracle's whole-field split
    _assert_split_matches_oracle(traj, [pair], visc, 0.05)
    blocked = outputs()
    for a, b in zip(whole, blocked):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("snaps_per_block", [None, 3])
@pytest.mark.parametrize("visc_name", ["constant", "quadratic"])
@pytest.mark.parametrize("dim", [1, 2])
def test_member_split_matches_oracle_bit_for_bit(monkeypatch, dim, visc_name,
                                                 snaps_per_block):
    # every pair of a member in one call: the shared dissipation field, the
    # scalar face B of constant viscosity, one A buffer across pairs and
    # per-block snapshot sums give the norms of the whole-field split;
    # ragged blocks when 3 snapshots make a block of 11
    rng = np.random.default_rng(11 + dim)
    shape = (11, 40) if dim == 1 else (11, 24, 20)
    traj = make_traj(0.8 * np.sin(rng.uniform(0.0, 6.0, shape)), T=0.5)
    names = ("burgers",) if dim == 1 else ("burgers", "linear")
    flux = make_flux(names, (-1.0, 1.0), 1e-8, {"a": 1.0})
    visc = make_viscosity(visc_name, (-1.0, 1.0), {"b": 0.7})
    if snaps_per_block is not None:
        monkeypatch.setattr(compactness, "BLOCK_BYTES",
                            snaps_per_block * traj.values[0].nbytes)
        assert len(compactness._snapshot_blocks(traj.values)) == 4
    _assert_split_matches_oracle(traj, _member_pairs(flux), visc, 0.05)


def test_split_rejects_non_finite_dissipation(burgers, bconst):
    # eta'' that overflows leaves M non-finite, as the whole-field check found
    pair = make_entropy_pair("square", burgers, 1e-8)
    bad = dataclasses.replace(pair, etapp=lambda u: np.full_like(u, np.inf))
    traj = make_traj(np.tile(np.linspace(-0.5, 0.5, 24), (5, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        decompose_production(traj, [pair, bad], bconst, 0.1)


def test_split_transient_peak_is_a_few_fields(flux2d):
    # a member's six pairs in one call; unblocked, one pair's split held
    # about 12 copies of the field at once
    traj = _random_traj(33, 64, 64, seed=5)
    pairs = _member_pairs(flux2d)
    assert len(pairs) == 6
    visc = make_viscosity("quadratic", (-1.0, 1.0))
    decompose_production(traj, pairs, visc, 0.05)  # transform set-up
    tracemalloc.start()
    try:
        decompose_production(traj, pairs, visc, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * traj.values.nbytes


def _young_whole_field(traj, lo, hi, window_cells, window_snaps, bins):
    """The histograms binned and counted over the whole field at once."""
    nt = traj.num_snapshots
    v = np.clip(traj.values, lo, hi)
    split = [nt // window_snaps, window_snaps]
    for n in traj.grid.cells:
        split += [n // window_cells, window_cells]
    order = (0, 2, 1, 3) if traj.grid.dim == 1 else (0, 2, 4, 1, 3, 5)
    blocks = v.reshape(split).transpose(order).reshape(
        -1, window_snaps * window_cells ** traj.grid.dim)
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    idx = np.minimum(((blocks - lo) / width).astype(np.int64), bins - 1)
    probs = np.zeros((blocks.shape[0], bins))
    rows = np.repeat(np.arange(blocks.shape[0]), blocks.shape[1])
    np.add.at(probs, (rows, idx.ravel()), 1.0)
    probs /= blocks.shape[1]
    return probs


@pytest.mark.parametrize("shape,cells,snaps", [((12, 40), 8, 4),
                                               ((9, 24, 16), 8, 3)])
def test_young_windowed_counts_match_whole_field(shape, cells, snaps):
    # values on bin edges, on both ends of I and inside the slack beyond them
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1.0, 1.0, shape)
    flat = vals.reshape(-1)
    flat[:40] = np.linspace(-1.0, 1.0, 41)[:40]
    flat[40:44] = (-1.0 - 5e-9, 1.0 + 5e-9, -1.0, 1.0)
    traj = make_traj(vals)
    hs = young_histograms(traj, (-1.0, 1.0), cells, snaps, 20)
    probs = _young_whole_field(traj, -1.0, 1.0, cells, snaps, 20)
    centers = hs.bin_centers
    means = probs @ centers
    assert hs.probabilities.tobytes() == probs.tobytes()
    assert hs.means.tobytes() == means.tobytes()
    assert hs.variances.tobytes() == (probs @ centers**2 - means**2).tobytes()


def test_young_transient_peak_below_two_fields():
    # whole-field binning holds about four copies of the field at once
    traj = _random_traj(33, 64, 64, seed=6)
    young_histograms(traj, (-1.0, 1.0), 8, 11, 64)
    tracemalloc.start()
    try:
        young_histograms(traj, (-1.0, 1.0), 8, 11, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * traj.values.nbytes
