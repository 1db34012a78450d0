import copy
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from oracles import LOOPS
from visclab import kernels
from visclab.domain import make_flux, make_viscosity

# The kernels are checked bit for bit against the explicit-loop twins of
# ``oracles``, called with their own signatures and handed the tables each
# kernel's plan is built from.  The one-valued ``oracle`` parameter is that
# table of twins; its ``loops`` id keeps the test ids stable.  The viscous
# kernel steps a batch of members, states ``(k, *cells)``; a single state
# is a batch of one.
ORACLE = pytest.mark.parametrize("oracle", [LOOPS], ids=["loops"])


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


def _lattice(flux):
    return flux.lattice.lo, flux.lattice.inv_spacing


@ORACLE
def test_visc_1d_backends_bit_identical(setup, oracle):
    flux, visc, rng = setup
    t0 = flux.tables[0]
    u = rng.uniform(-0.99, 0.99, 200)
    dt, h, eps = 0.4 * (1 / 200) ** 2 / 0.4, 1 / 200, 0.05
    (plan,) = kernels.visc_plan(u.shape, (h,), (eps,), (dt,), flux.lattice,
                                flux.tables, visc.table)
    a = kernels.visc_step(u[None], (dt,), np.empty((1,) + u.shape), plan)[0]
    b = oracle["visc_step_1d"](u, dt, h, eps, *_lattice(flux), t0.eo_plus,
                               t0.eo_minus, visc.table, np.empty_like(u),
                               None)
    assert np.array_equal(a, b)


@ORACLE
def test_visc_2d_backends_bit_identical(setup, oracle):
    flux, visc, rng = setup
    t0, t1 = flux.tables
    u = rng.uniform(-0.99, 0.99, (24, 40))
    hx, hy = 1 / 24, 1 / 40
    dt, eps = 0.1 * hy * hy, 0.03
    (plan,) = kernels.visc_plan(u.shape, (hx, hy), (eps,), (dt,),
                                flux.lattice, flux.tables, visc.table)
    a = kernels.visc_step(u[None], (dt,), np.empty((1,) + u.shape), plan)[0]
    b = oracle["visc_step_2d"](u, dt, hx, hy, eps, *_lattice(flux),
                               t0.eo_plus, t0.eo_minus, t1.eo_plus,
                               t1.eo_minus, visc.table, np.empty_like(u),
                               None)
    assert np.array_equal(a, b)


@ORACLE
def test_godunov_backends_bit_identical(setup, oracle):
    flux, visc, rng = setup
    tab = flux.tables[0]
    f = (tab.f, tab.crit_y, tab.crit_f)
    u = rng.uniform(-0.99, 0.99, 300)
    dt, h = 0.2 / 300, 1 / 300
    plan = kernels.godunov_plan(h, flux.lattice, tab, 0)
    a = kernels.godunov_step(u, dt, np.empty_like(u), plan)
    b = oracle["godunov_step_1d"](u, dt, h, *_lattice(flux), *f,
                                  np.empty_like(u), None)
    assert np.array_equal(a, b)
    u2 = rng.uniform(-0.99, 0.99, (20, 30))
    for axis, h in ((0, 1 / 20), (1, 1 / 30)):
        plan = kernels.godunov_plan(h, flux.lattice, tab, axis)
        a2 = kernels.godunov_step(u2, 0.1 * h, np.empty_like(u2), plan)
        b2 = oracle["godunov_sweep_2d"](u2, 0.1 * h, h, axis,
                                        *_lattice(flux), *f,
                                        np.empty_like(u2), None)
        assert np.array_equal(a2, b2)


@ORACLE
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_godunov_step_3d_matches_loops_on_every_line(setup, oracle, axis):
    """Along each axis of a 3-D state the Godunov step is the 1-D loop twin
    on every line along that axis, bit for bit."""
    flux, _, rng = setup
    tab = flux.tables[0]
    u = rng.uniform(-0.99, 0.99, (6, 7, 8))
    h = 1 / u.shape[axis]
    dt = 0.2 * h
    plan = kernels.godunov_plan(h, flux.lattice, tab, axis)
    got = kernels.godunov_step(u, dt, np.empty_like(u), plan)
    lines, want = np.moveaxis(u, axis, -1), np.empty_like(u)
    want_lines = np.moveaxis(want, axis, -1)
    for idx in np.ndindex(lines.shape[:-1]):
        oracle["godunov_step_1d"](lines[idx], dt, h, *_lattice(flux), tab.f,
                                  tab.crit_y, tab.crit_f, want_lines[idx],
                                  None)
    assert np.array_equal(got, want)


def _case(oracle, name, flux, btab, shape):
    """Kernel ``name`` on states of ``shape``: ``(new_plan, step, expect)``.

    ``new_plan()`` builds a step plan, ``step(u, plan)`` runs the kernel on
    it and ``expect(u)`` runs the loop twin, handed the tables the plan is
    built from (``btab`` is the B table of the viscous kernel, which steps
    ``u`` as a batch of one).  The viscous plan is built for the step
    ``dt``; its ``step`` and ``expect`` take a last argument ``scale``, and
    step by ``scale * dt``, a landing when ``scale`` is not 1.  The 2-D
    Godunov sweep runs x then y, on a pair of plans.
    """
    lat = flux.lattice
    t0, t1 = flux.tables
    h = 1 / shape[-1]
    twin, kernel, new = oracle[name], kernels.get_kernel(name), np.empty_like
    if name.startswith("visc"):
        dim = len(shape)
        dt, eps = (h * h, 0.05) if dim == 1 else (0.1 * h * h, 0.03)
        spacing = (h,) * dim
        eo = (t0.eo_plus, t0.eo_minus, t1.eo_plus, t1.eo_minus)[:2 * dim]
        return (lambda: kernels.visc_plan(shape, spacing, (eps,), (dt,), lat,
                                          flux.tables, btab)[0],
                lambda u, plan, scale=1.0: kernel(
                    u[None], (scale * dt,), new(u)[None], plan)[0],
                lambda u, scale=1.0: twin(u, scale * dt, *spacing, eps,
                                          *_lattice(flux), *eo, btab, new(u),
                                          None))
    dt, f = 0.2 * h, (t0.f, t0.crit_y, t0.crit_f)
    if name == "godunov_step_1d":
        return (lambda: kernels.godunov_plan(h, lat, t0, 0),
                lambda u, plan: kernel(u, dt, new(u), plan),
                lambda u: twin(u, dt, h, *_lattice(flux), *f, new(u), None))

    def expect(u):
        mid = twin(u, dt, h, 0, *_lattice(flux), *f, new(u), None)
        return twin(mid, dt, h, 1, *_lattice(flux), *f, new(u), None)

    return (lambda: tuple(kernels.godunov_plan(h, lat, t0, axis)
                          for axis in (0, 1)),
            lambda u, plans: kernel(kernel(u, dt, new(u), plans[0]), dt,
                                    new(u), plans[1]),
            expect)


def _shape(name):
    return (300,) if name.endswith("1d") else (24, 40)


def _constants(plan):
    """What a viscous plan holds that no step may change: the members' full
    steps, their ``dt / h``, and each axis's ``eh``, ``beh`` and slopes."""
    return (plan.steps, plan.factors, plan.b_slope,
            *((a.eh, a.beh, a.eop_slope, a.eom_slope) for a in plan.axes))


def _same(x, y):
    """``x`` and ``y`` hold the same values: arrays element by element,
    tuples and lists item by item, anything else by ``==``."""
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return type(x) is type(y) and x == y


def _check_reuse(oracle, name, flux, btab):
    """One plan, reused over states in either order, gives what a fresh one
    and the loop twin give, and a viscous plan also on a landing step.  A
    viscous plan's ghost border stays 0 and its constants (``_constants``)
    stay as built; a Godunov plan holds only constants, and no step changes
    one of them."""
    shape = _shape(name)
    new_plan, step, expect = _case(oracle, name, flux, btab, shape)
    rng = np.random.default_rng(7)
    # a and b vanish near the boundary, like the solvers' states; c does not
    inner = tuple(slice(2, -2) for _ in shape)
    a, b = np.zeros(shape), np.zeros(shape)
    a[inner] = rng.uniform(-0.99, 0.99, a[inner].shape)
    b[inner] = rng.uniform(-0.5, 0.9, b[inner].shape)
    c = rng.uniform(-0.99, 0.99, shape)
    states = {"a": a, "b": b, "c": c}
    want = {key: expect(u) for key, u in states.items()}
    for key, u in states.items():
        assert np.array_equal(step(u, new_plan()), want[key])
    for order in ("abc", "bac"):
        plan = new_plan()
        kept = copy.deepcopy(plan)
        for key in order:
            got = step(states[key], plan)
            assert np.array_equal(got, want[key]), (order, key)
        if name.startswith("visc"):
            # a landing: another tuple of steps than the plan's own
            assert np.array_equal(step(a, plan, 0.5), expect(a, 0.5))
            # the viscous plan pads every cell axis
            for ax in range(len(shape)):
                assert not plan.ext.take([0, -1], axis=ax + 1).any()
            assert _same(_constants(plan), _constants(kept))
            continue
        # the 2-D sweep runs on a pair of Godunov plans
        if name == "godunov_step_1d":
            plan, kept = (plan,), (kept,)
        assert _same(tuple(plan), tuple(kept))


@ORACLE
@pytest.mark.parametrize("name", list(LOOPS))
def test_reused_workspace_holds_no_stale_state(setup, oracle, name):
    flux, visc, _ = setup
    _check_reuse(oracle, name, flux, visc.table)


VISC = ["visc_step_1d", "visc_step_2d"]


@ORACLE
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_reused_workspace_holds_no_stale_state_flat_tables(
        setup, flat_tables, table, name, oracle):
    flux, _, _ = setup
    _check_reuse(oracle, name, flux, flat_tables[table])


@ORACLE
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_visc_backends_bit_identical_flat_tables(setup, flat_tables, table,
                                                 name, oracle):
    """A flat table takes the scalar path, one changed node the lookup; both
    match the loop twins, which interpolate the table at every face."""
    flux, _, rng = setup
    btab = flat_tables[table]
    u = rng.uniform(-0.99, 0.99, _shape(name))
    new_plan, step, expect = _case(oracle, name, flux, btab, u.shape)
    plan = new_plan()
    flat = table == "constant"
    assert (plan.b_slope is None) == flat
    for a in plan.axes:
        assert a.beh == (float(btab[0]) * a.eh if flat else None)
        assert (a.bread is None) == flat
    assert np.array_equal(step(u, plan), expect(u))


# ``f = a u`` has Engquist-Osher tables f+ = max(a, 0) u and f- = min(a, 0)
# u: f- is +0.0 at every node when a > 0, f+ when a < 0, both when a = 0
LINEAR_A = {"a>0": 0.7, "a<0": -0.7, "a=0": 0.0}
ZERO_EO = {"a>0": {"eom"}, "a<0": {"eop"}, "a=0": {"eop", "eom"}}


@pytest.fixture(scope="module")
def linear_fluxes():
    """Per sign of ``a``, a linear flux on the x axis or on the y axis, the
    other axis Burgers; on the lattice of ``setup``."""
    names = {0: ("linear", "burgers"), 1: ("burgers", "linear")}
    return {(sign, axis): make_flux(names[axis], (-1.0, 1.0), 1e-8,
                                    {"a": a})
            for sign, a in LINEAR_A.items() for axis in names}


@ORACLE
@pytest.mark.parametrize("name, axis", [("visc_step_1d", 0),
                                        ("visc_step_2d", 0),
                                        ("visc_step_2d", 1)])
@pytest.mark.parametrize("sign", list(LINEAR_A))
def test_visc_zero_eo_tables_never_read(setup, linear_fluxes, sign, name,
                                        axis, oracle):
    """The plan skips exactly the zero Engquist-Osher tables, the linear
    axis's, and reads each of them as the scalar 0.0; the step matches the
    loop twins, which read those tables at every face, on fresh and on
    reused plans."""
    _, visc, rng = setup
    flux = linear_fluxes[sign, axis]
    u = rng.uniform(-0.99, 0.99, _shape(name))
    new_plan, step, expect = _case(oracle, name, flux, visc.table, u.shape)
    plan = new_plan()
    for ax, a in enumerate(plan.axes):
        zero = ZERO_EO[sign] if ax == axis else set()
        for side, read in (("eop", a.pl), ("eom", a.qr)):
            skipped = side in zero
            assert (getattr(a, side) is None) == skipped
            assert (getattr(a, f"{side}_slope") is None) == skipped
            if skipped:
                assert type(read) is float and read == 0.0
            else:
                assert read.shape == a.flux.shape
    assert np.array_equal(step(u, plan), expect(u))
    _check_reuse(oracle, name, flux, visc.table)


@ORACLE
@pytest.mark.parametrize("name", VISC)
def test_visc_negative_zero_eo_table_is_read(setup, linear_fluxes, name,
                                             oracle):
    """Only +0.0 nodes make a zero table: an f- of -0.0 nodes reads as -0.0
    below the lattice (``0.0 * frac + -0.0`` with ``frac < 0``), so the plan
    reads it like any other table."""
    _, visc, rng = setup
    flux = linear_fluxes["a>0", 0]
    t0 = flux.tables[0]
    negzero = replace(t0, eo_minus=np.full_like(t0.eo_minus, -0.0))
    flux = replace(flux, tables=(negzero,) + flux.tables[1:])
    u = rng.uniform(-0.99, 0.99, _shape(name))
    new_plan, step, expect = _case(oracle, name, flux, visc.table, u.shape)
    plan = new_plan()
    assert plan.axes[0].eom is negzero.eo_minus
    assert np.array_equal(step(u, plan), expect(u))


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
    h = 1 / shape[-1]
    dt = (0.1 * h * h,)
    (plan,) = kernels.visc_plan(shape, (h,) * len(shape), (0.05,), dt,
                                flux.lattice, flux.tables, btab)
    fn = kernels.get_kernel(name)
    u = u[None]
    out = np.empty_like(u)
    fn(u, dt, out, plan)
    peak = traced_peak(lambda: fn(u, dt, out, plan))
    assert peak <= 1.5 * u.nbytes, peak / u.nbytes


def _check_batched_visc(setup, flat_tables, table, name, oracle, runs):
    """Steps a batch of up to three members, each with its own eps, on the
    plans built for the full steps ``a``, by each tuple of steps that
    ``runs(a)`` gives, a fresh state of ``len(dts)`` members each time: each
    member gets its loop twin's step, on the B lookup path (gaussian) and
    the flat-B path, and no step changes the plans' constants."""
    flux, visc, rng = setup
    btab = visc.table if table == "gaussian" else flat_tables["constant"]
    shape = _shape(name)
    spacing = (1 / shape[-1],) * len(shape)
    h = spacing[0]
    eps = (0.05, 0.03, 0.02)
    a = (0.1 * h * h, 0.15 * h * h, 0.17 * h * h)
    t0, t1 = flux.tables
    eo = (t0.eo_plus, t0.eo_minus, t1.eo_plus, t1.eo_minus)[:2 * len(shape)]
    plans = kernels.visc_plan(shape, spacing, eps, a, flux.lattice,
                              flux.tables, btab)
    assert len(plans) == 3
    kept = copy.deepcopy([_constants(plan) for plan in plans])
    kernel = kernels.get_kernel(name)
    for dts in runs(a):
        k = len(dts)
        u = rng.uniform(-0.99, 0.99, (k,) + shape)
        got = kernel(u, dts, np.empty_like(u), plans[k - 1])
        for m in range(k):
            want = oracle[name](u[m], dts[m], *spacing, eps[m],
                                *_lattice(flux), *eo, btab,
                                np.empty(shape), None)
            assert np.array_equal(got[m], want), (dts, m)
    assert _same([_constants(plan) for plan in plans], kept)


@ORACLE
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", ["gaussian", "constant"])
def test_batched_visc_step_matches_loops_row_by_row(setup, flat_tables,
                                                    table, name, oracle):
    """All three members step, the last landing with a shorter dt than its
    full step, then the leading two alone on the plan of two, and then the
    three again."""
    def runs(a):
        landing = a[:2] + (0.4 * a[2],)
        return (landing, a[:2], landing)

    _check_batched_visc(setup, flat_tables, table, name, oracle, runs)


@ORACLE
@pytest.mark.parametrize("name", VISC)
@pytest.mark.parametrize("table", ["gaussian", "constant"])
def test_batched_visc_step_takes_full_steps_as_a_tuple(setup, flat_tables,
                                                       table, name, oracle):
    """The tuple of the members' full steps, the form of a march's full
    steps, gives each member its loop twin's step whether it is the plan's
    own tuple or another one equal to it in value, before and after another
    tuple of steps, and so do the leading two of it on the plan of two."""
    def runs(a):
        equal = tuple(1.0 * d for d in a)
        assert equal == a and equal is not a
        other = tuple(0.5 * d for d in a)
        return (a, equal, other, a, a[:2], a[:2])

    _check_batched_visc(setup, flat_tables, table, name, oracle, runs)


def test_interp_clamps_at_table_ends(setup):
    flux, _, _ = setup
    lat = flux.lattice
    tab = flux.tables[0].f
    from visclab.tables import locate, lookup, slopes
    loc = locate(lat.lo, lat.inv_spacing, tab.shape[0] - 2.0, np.array([lat.hi]))
    v = lookup(tab, slopes(tab), loc)
    assert float(v[0]) == pytest.approx(tab[-1], abs=1e-15)
