import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import LOOPS
from visclab import kernels
from visclab.domain import make_flux, make_viscosity

# The numpy kernels are checked bit for bit against the explicit-loop twins
# of ``oracles``; ``kind`` names the oracle and keeps the ``-loops`` test ids.
ORACLES = {"loops": LOOPS}
TWINS = list(ORACLES)


def twin(kind, name):
    return ORACLES[kind][name]


@pytest.fixture(scope="module")
def setup():
    flux = make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8, {"a": 0.7})
    visc = make_viscosity("gaussian", (-1.0, 1.0), {"r": 1.0})
    rng = np.random.default_rng(123)
    return flux, visc, rng


@pytest.fixture(scope="module")
def flat_tables():
    """A flat B table (scalar path) and a copy with one node changed (lookup
    path), on the lattice of ``setup``."""
    flat = make_viscosity("constant", (-1.0, 1.0), {"b": 0.7}).table
    kinked = flat.copy()
    kinked[flat.shape[0] // 2] += 0.25
    return {"constant": flat, "kinked": kinked}


FLAT_TABLES = ["constant", "kinked"]


@pytest.mark.parametrize("kind", TWINS)
def test_visc_1d_backends_bit_identical(setup, kind):
    flux, visc, rng = setup
    lat = flux.lattice
    u = rng.uniform(-0.99, 0.99, 200)
    args = (0.4 * (1 / 200) ** 2 / 0.4, 1 / 200, 0.05, lat.lo, lat.inv_spacing,
            flux.tables[0].eo_plus, flux.tables[0].eo_minus, visc.table)
    a = np.empty_like(u)
    b = np.empty_like(u)
    work = kernels.workspace("visc_step_1d", u.shape, args[-3:])
    kernels.visc_step_1d_numpy(u, *args, a, work)
    twin(kind, "visc_step_1d")(u, *args, b, work)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", TWINS)
def test_visc_2d_backends_bit_identical(setup, kind):
    flux, visc, rng = setup
    lat = flux.lattice
    u = rng.uniform(-0.99, 0.99, (24, 40))
    h = 1 / 40
    args = (0.1 * h * h, h, h, 0.03, lat.lo, lat.inv_spacing,
            flux.tables[0].eo_plus, flux.tables[0].eo_minus,
            flux.tables[1].eo_plus, flux.tables[1].eo_minus, visc.table)
    a = np.empty_like(u)
    b = np.empty_like(u)
    work = kernels.workspace("visc_step_2d", u.shape, args[-5:])
    kernels.visc_step_2d_numpy(u, *args, a, work)
    twin(kind, "visc_step_2d")(u, *args, b, work)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", TWINS)
def test_godunov_backends_bit_identical(setup, kind):
    flux, visc, rng = setup
    lat = flux.lattice
    tab = flux.tables[0]
    u = rng.uniform(-0.99, 0.99, 300)
    args = (0.2 / 300, 1 / 300, lat.lo, lat.inv_spacing, tab.f, tab.crit_y,
            tab.crit_f)
    a = np.empty_like(u)
    b = np.empty_like(u)
    work = kernels.workspace("godunov_step_1d", u.shape, (tab.f,))
    kernels.godunov_step_1d_numpy(u, *args, a, work)
    twin(kind, "godunov_step_1d")(u, *args, b, work)
    assert np.array_equal(a, b)
    u2 = rng.uniform(-0.99, 0.99, (20, 30))
    work = kernels.workspace("godunov_sweep_2d", u2.shape, (tab.f, tab.f))
    for axis, h in ((0, 1 / 20), (1, 1 / 30)):
        a2 = np.empty_like(u2)
        b2 = np.empty_like(u2)
        kernels.godunov_sweep_2d_numpy(u2, 0.1 * h, h, axis, lat.lo,
                                       lat.inv_spacing, tab.f, tab.crit_y,
                                       tab.crit_f, a2, work)
        twin(kind, "godunov_sweep_2d")(u2, 0.1 * h, h, axis, lat.lo,
                                       lat.inv_spacing, tab.f, tab.crit_y,
                                       tab.crit_f, b2, work)
        assert np.array_equal(a2, b2)


def _oracle_args(flux, btab, name, shape):
    """Arguments between the state and ``out``, as in the oracle cases above;
    ``btab`` is the B table of the viscous kernels."""
    lat = flux.lattice
    t0, t1 = flux.tables[0], flux.tables[1]
    h = 1 / shape[-1]
    if name == "visc_step_1d":
        return (h * h, h, 0.05, lat.lo, lat.inv_spacing, t0.eo_plus,
                t0.eo_minus, btab)
    if name == "visc_step_2d":
        return (0.1 * h * h, h, h, 0.03, lat.lo, lat.inv_spacing, t0.eo_plus,
                t0.eo_minus, t1.eo_plus, t1.eo_minus, btab)
    return (0.2 * h, h, lat.lo, lat.inv_spacing, t0.f, t0.crit_y, t0.crit_f)


def _work(flux, btab, name, shape):
    """The step plan for the tables ``_oracle_args`` hands kernel ``name``."""
    t0, t1 = flux.tables[0], flux.tables[1]
    tables = {"visc_step_1d": (t0.eo_plus, t0.eo_minus, btab),
              "visc_step_2d": (t0.eo_plus, t0.eo_minus, t1.eo_plus,
                               t1.eo_minus, btab),
              "godunov_step_1d": (t0.f,),
              "godunov_sweep_2d": (t0.f, t0.f)}[name]
    return kernels.workspace(name, shape, tables)


def _step(fn, flux, btab, name, u, work):
    """One call of kernel ``fn``; the 2-D Godunov sweep runs x then y."""
    args = _oracle_args(flux, btab, name, u.shape)
    if name != "godunov_sweep_2d":
        out = np.empty_like(u)
        fn(u, *args, out, work)
        return out
    dt, h, rest = args[0], args[1], args[2:]
    mid, out = np.empty_like(u), np.empty_like(u)
    fn(u, dt, h, 0, *rest, mid, work)
    fn(mid, dt, h, 1, *rest, out, work)
    return out


def _shape(name):
    return (300,) if name.endswith("1d") else (24, 40)


def _check_reuse(kind, name, flux, btab):
    """One workspace, reused over states in either order, gives what a fresh
    one and the loop twin give, and its ghost border stays 0."""
    shape = _shape(name)
    rng = np.random.default_rng(7)
    # a and b vanish near the boundary, like the solvers' states; c does not
    inner = tuple(slice(2, -2) for _ in shape)
    a, b = np.zeros(shape), np.zeros(shape)
    a[inner] = rng.uniform(-0.99, 0.99, a[inner].shape)
    b[inner] = rng.uniform(-0.5, 0.9, b[inner].shape)
    c = rng.uniform(-0.99, 0.99, shape)
    states = {"a": a, "b": b, "c": c}
    numpy_fn = kernels.KERNELS["numpy"][name]
    expect = {}
    for key, u in states.items():
        expect[key] = _step(twin(kind, name), flux, btab, name, u,
                            _work(flux, btab, name, shape))
        fresh = _step(numpy_fn, flux, btab, name, u,
                      _work(flux, btab, name, shape))
        assert np.array_equal(fresh, expect[key])
    for order in ("abc", "bac"):
        work = _work(flux, btab, name, shape)
        for key in order:
            got = _step(numpy_fn, flux, btab, name, states[key], work)
            assert np.array_equal(got, expect[key]), (order, key)
        # the viscous kernels pad every axis, the Godunov step axis 0
        axes = range(len(shape)) if name.startswith("visc") else (0,)
        for pad in (work if name == "godunov_sweep_2d" else (work,)):
            for ax in axes:
                assert not pad.ext.take([0, -1], axis=ax).any()


@pytest.mark.parametrize("kind", TWINS)
@pytest.mark.parametrize("name", list(LOOPS))
def test_reused_workspace_holds_no_stale_state(setup, kind, name):
    flux, visc, _ = setup
    _check_reuse(kind, name, flux, visc.table)


VISC = ["visc_step_1d", "visc_step_2d"]


@pytest.mark.parametrize("kind", TWINS)
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_reused_workspace_holds_no_stale_state_flat_tables(
        setup, flat_tables, table, name, kind):
    flux, _, _ = setup
    _check_reuse(kind, name, flux, flat_tables[table])


@pytest.mark.parametrize("kind", TWINS)
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_visc_backends_bit_identical_flat_tables(setup, flat_tables, table,
                                                 name, kind):
    """A flat table takes the scalar path, one changed node the lookup; both
    match the loop twins, which interpolate the table at every face."""
    flux, _, rng = setup
    btab = flat_tables[table]
    u = rng.uniform(-0.99, 0.99, _shape(name))
    work = _work(flux, btab, name, u.shape)
    assert work.b == (float(btab[0]) if table == "constant" else None)
    a = _step(kernels.KERNELS["numpy"][name], flux, btab, name, u, work)
    b = _step(twin(kind, name), flux, btab, name, u, work)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", TWINS)
@pytest.mark.parametrize("name", VISC)
def test_flat_workspace_handed_another_table_looks_it_up(
        setup, flat_tables, name, kind):
    """The plan's slopes and its scalar B path are keyed on the table objects
    it was built for: handed any other table, B or Engquist-Osher, the kernel
    reads the table it was handed."""
    flux, visc, rng = setup
    u = rng.uniform(-0.99, 0.99, _shape(name))
    flat = flat_tables["constant"]
    work = _work(flux, flat, name, u.shape)
    numpy_fn = kernels.KERNELS["numpy"][name]
    t0, t1 = flux.tables[0], flux.tables[1]
    shifted = replace(t0, eo_plus=t0.eo_plus + 0.125)
    cases = [(flux, btab) for btab in (visc.table, flat_tables["kinked"],
                                       flat + 0.5)]
    cases += [(replace(flux, tables=(t1, t0)), flat),
              (replace(flux, tables=(shifted, t1)), flat)]
    for fx, btab in cases:
        got = _step(numpy_fn, fx, btab, name, u, work)
        expect = _step(twin(kind, name), fx, btab, name, u, work)
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("table", ["gaussian", "constant"])
@pytest.mark.parametrize("name", VISC)
def test_visc_step_table_path_allocation_peak(setup, flat_tables, name,
                                              table):
    """A step writes only into its plan and ``out``: on the B lookup path
    (gaussian) and on the flat-B path alike, its transient peak stays within
    1.5 state sizes (allocating the table reads and the face location per
    call gave 6.4 in 1-D and 7.1 in 2-D, the workspace of face buffers 3.3
    and 5.1)."""
    flux, visc, rng = setup
    btab = visc.table if table == "gaussian" else flat_tables["constant"]
    shape = (400,) if name == "visc_step_1d" else (128, 128)
    u = rng.uniform(-0.99, 0.99, shape)
    work = _work(flux, btab, name, shape)
    fn = kernels.KERNELS["numpy"][name]
    args = _oracle_args(flux, btab, name, shape)
    out = np.empty_like(u)
    fn(u, *args, out, work)
    tracemalloc.start()
    try:
        fn(u, *args, out, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * u.nbytes, peak / u.nbytes


def test_interp_clamps_at_table_ends(setup):
    flux, _, _ = setup
    lat = flux.lattice
    tab = flux.tables[0].f
    from visclab.tables import locate, lookup, slopes
    loc = locate(lat.lo, lat.inv_spacing, tab.shape[0] - 2.0, np.array([lat.hi]))
    v = lookup(tab, slopes(tab), loc)
    assert float(v[0]) == pytest.approx(tab[-1], abs=1e-15)
