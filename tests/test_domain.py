import numpy as np
import pytest

from oracles import entropy_flux_tables
from visclab import tables
from visclab.domain import (Grid, entropy_pair_from_functions, kruzkov_ladder,
                            make_entropy_pair, make_flux, make_viscosity)


@pytest.fixture(scope="module")
def burgers2():
    return make_flux(("burgers",), (-2.0, 2.0), 1e-8)


@pytest.fixture(scope="module")
def burgers1():
    return make_flux(("burgers",), (-1.0, 1.0), 1e-8)


def test_flux_eval_burgers(burgers2):
    c = burgers2.components[0]
    assert (c.f(2.0), c.fp(2.0)) == pytest.approx((2.0, 2.0))


def test_flux_eval_linear():
    spec = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 0.7})
    c = spec.components[0]
    assert (c.f(0.3), c.fp(0.3)) == pytest.approx((0.21, 0.7))
    assert spec.lipschitz_bound == pytest.approx(0.7)


def test_flux_eval_zero(burgers2):
    c = burgers2.components[0]
    assert (c.f(0.0), c.fp(0.0)) == pytest.approx((0.0, 0.0))


def test_arctan_flux_bounded_derivative():
    spec = make_flux(("arctan",), (-1.0, 1.0), 1e-8)
    assert spec.lipschitz_bound == pytest.approx(np.arctan(1.0))
    assert spec.components[0].fp(0.5) == pytest.approx(np.arctan(0.5))


def test_square_entropy_burgers_cubic(burgers1):
    pair = make_entropy_pair("square", burgers1, 1e-8)
    qs, _res, _allow = entropy_flux_tables(pair, burgers1, 1e-8)
    # independent oracle: integral of s * s from 0 to u is u^3 / 3
    q = tables.interp(burgers1.lattice, qs[0], np.array([1.0, 0.0]))
    assert q[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert q[1] == pytest.approx(0.0, abs=1e-6)


def test_linear_entropy_gives_flux():
    # eta(u) = u makes the companion flux f - f(0)
    spec = make_flux(("arctan",), (-1.0, 1.0), 1e-8)
    ident = lambda u: np.asarray(u, dtype=np.float64)
    pair = entropy_pair_from_functions(
        "identity", ident, lambda u: np.ones_like(np.asarray(u, float)),
        lambda u: np.zeros_like(np.asarray(u, float)), spec, 1e-8)
    qs, _res, _allow = entropy_flux_tables(pair, spec, 1e-8)
    comp = spec.components[0]
    for u in (-0.8, -0.2, 0.4, 1.0):
        expect = float(np.asarray(comp.f(u))) - float(np.asarray(comp.f(0.0)))
        q = tables.interp(spec.lattice, qs[0], u)[0]
        assert q == pytest.approx(expect, abs=1e-6)


def test_square_entropy_linear_flux():
    spec = make_flux(("linear",), (-1.0, 1.0), 1e-8, {"a": 2.0})
    pair = make_entropy_pair("square", spec, 1e-8)
    qs, _res, _allow = entropy_flux_tables(pair, spec, 1e-8)
    # integral of s * 2 from 0 to 1 is 1
    q = tables.interp(spec.lattice, qs[0], 1.0)[0]
    assert q == pytest.approx(1.0, abs=1e-6)


def test_nonconvex_entropy_rejected(burgers1):
    with pytest.raises(ValueError, match="not convex"):
        entropy_pair_from_functions(
            "bad", lambda u: -np.asarray(u, float) ** 2,
            lambda u: -2.0 * np.asarray(u, float),
            lambda u: np.full_like(np.asarray(u, float), -2.0),
            burgers1, 1e-8)


def test_entropy_ode_residual_within_allowance(burgers1):
    for pair in [make_entropy_pair("square", burgers1, 1e-8)] + \
            kruzkov_ladder(burgers1, 5, 1e-3, 1e-8):
        _qs, residual, allowance = entropy_flux_tables(pair, burgers1, 1e-8)
        assert residual <= allowance, pair.name


def test_kruzkov_closure(burgers1):
    # smoothed |u - k| converges pointwise at the smoothing rate
    k = 0.3
    us = np.linspace(-1.0, 1.0, 10)
    for delta in (1e-1, 1e-2, 1e-3):
        pair = make_entropy_pair("kruzkov", burgers1, 1e-8, k=k, delta=delta)
        gap = np.max(np.abs(np.asarray(pair.eta(us)) - np.abs(us - k)))
        assert gap <= delta
        assert np.min(np.asarray(pair.etapp(us))) >= 0.0
    assert pair.etapp_sup == pytest.approx(1e3)


def test_given_curvature_bound_is_kept_and_convexity_still_checked(burgers1):
    # k = 0.3 falls between lattice nodes, where the lattice's largest
    # eta'' stays below the analytic 1/delta the pair carries
    pair = make_entropy_pair("kruzkov", burgers1, 1e-8, k=0.3, delta=1e-3)
    nodes = burgers1.lattice.nodes()
    assert np.max(np.asarray(pair.etapp(nodes))) < 1e3
    assert pair.etapp_sup == 1.0 / 1e-3
    with pytest.raises(ValueError, match="not convex"):
        entropy_pair_from_functions(
            "bad", lambda u: -np.asarray(u, float) ** 2,
            lambda u: -2.0 * np.asarray(u, float),
            lambda u: np.full_like(np.asarray(u, float), -2.0),
            burgers1, 1e-8, etapp_sup=1.0)


def test_kruzkov_ladder_spacing(burgers1):
    pairs = kruzkov_ladder(burgers1, 5, 1e-3, 1e-8)
    assert len(pairs) == 5
    names = [p.name for p in pairs]
    assert names[0] == "kruzkov[k=-1.00]" and names[-1] == "kruzkov[k=+1.00]"


def test_viscosity_presets_bounds():
    i = (-1.0, 1.0)
    const = make_viscosity("constant", i, {"b": 2.0})
    assert const.lower_bound == const.upper_bound == 2.0
    quad = make_viscosity("quadratic", i)
    u = np.linspace(-3, 3, 101)
    b = np.asarray(quad.B(u))
    assert np.all(b >= quad.lower_bound) and np.all(b <= quad.upper_bound)
    gauss = make_viscosity("gaussian", i, {"r": 0.5})
    b = np.asarray(gauss.B(u))
    assert np.all(b >= 0.5) and np.all(b <= 1.5)


def test_grid_geometry():
    g = Grid((4, 8), (0.0, -1.0), (1.0, 1.0), 0.5)
    assert g.spacing == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.volume == pytest.approx(2.0)
    x = g.centers(0)
    assert x[0] > 0.0 and x[-1] < 1.0
