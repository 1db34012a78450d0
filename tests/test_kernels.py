import copy
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from oracles import _godunov_step_loops, _visc_step_loops
from visclab import kernels, tables
from visclab.domain import make_flux, make_viscosity

# The kernels are checked bit for bit against the explicit-loop twins of
# ``oracles``, one per scheme for a state of any dimension, handed the tables
# each kernel's plan is built from.  The viscous kernel steps a batch of
# members, states ``(k, *cells)``; a single state is a batch of one.  The
# cases are states of one, two and three dimensions, axis ``ax`` with
# spacing ``1 / shape[ax]``.  Their ids are kept stable: each names the
# scheme's step in the case's dimension (the names of ``kernels.KERNELS``,
# and ``3d`` beyond them) and the oracle, ``loops``.
SHAPES = ((300,), (24, 40), (6, 7, 8))
VISC = [pytest.param(s, id=f"visc_step_{len(s)}d-loops") for s in SHAPES]
GODUNOV = [pytest.param(s, id=f"godunov_{'step' if len(s) == 1 else 'sweep'}"
                                 f"_{len(s)}d-loops") for s in SHAPES]


@pytest.fixture(scope="module")
def setup():
    flux = make_flux(("burgers", "linear", "burgers"), (-1.0, 1.0), 1e-8,
                     {"a": 0.7})
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


def _eo(flux, dim):
    """The Engquist-Osher tables of the first ``dim`` axes, per axis."""
    return tuple((t.eo_plus, t.eo_minus) for t in flux.tables[:dim])


def _case(scheme, flux, btab, shape):
    """The step of ``scheme`` on states of ``shape``: ``(new_plan, step,
    expect)``.

    ``new_plan()`` builds a step plan, ``step(u, plan)`` runs the kernel on
    it and ``expect(u)`` runs the loop twin, handed the tables the plan is
    built from (``btab`` is the B table of the viscous step, which steps
    ``u`` as a batch of one).  The viscous plan is built for the step
    ``dt``; its ``step`` and ``expect`` take a last argument ``scale``, and
    step by ``scale * dt``, a landing when ``scale`` is not 1.  The Godunov
    case steps along every axis in turn, on a tuple of plans, each reading
    the first axis's flux.
    """
    lat, lo_inv = flux.lattice, _lattice(flux)
    spacing = tuple(1 / n for n in shape)
    h = min(spacing)
    if scheme == "visc":
        dt, eps, eo = 0.1 * h * h, 0.03, _eo(flux, len(shape))
        return (lambda: kernels.visc_plan(shape, spacing, (eps,), (dt,), lat,
                                          flux.tables, btab)[0],
                lambda u, plan, scale=1.0: kernels.visc_step(
                    u[None], (scale * dt,), np.empty((1,) + shape), plan)[0],
                lambda u, scale=1.0: _visc_step_loops(
                    u, scale * dt, spacing, eps, *lo_inv, eo, btab,
                    np.empty(shape)))
    dt, t0 = 0.2 * h, flux.tables[0]

    def step(u, plans):
        for plan in plans:
            u = kernels.godunov_step(u, dt, np.empty(shape), plan)
        return u

    def expect(u):
        for axis, hx in enumerate(spacing):
            u = _godunov_step_loops(u, dt, hx, axis, *lo_inv, t0.f,
                                    t0.crit_y, t0.crit_f, np.empty(shape))
        return u

    return (lambda: tuple(kernels.godunov_plan(hx, lat, t0, axis)
                          for axis, hx in enumerate(spacing)),
            step, expect)


@pytest.mark.parametrize("shape", VISC)
def test_visc_backends_bit_identical(setup, shape):
    flux, visc, rng = setup
    u = rng.uniform(-0.99, 0.99, shape)
    new_plan, step, expect = _case("visc", flux, visc.table, shape)
    assert np.array_equal(step(u, new_plan()), expect(u))


def _godunov_axis(setup, shape, axis):
    """The Godunov step along ``axis`` of a random state of ``shape``, by the
    kernel on a fresh plan and by the loop twin."""
    flux, _, rng = setup
    tab = flux.tables[0]
    u = rng.uniform(-0.99, 0.99, shape)
    h = 1 / shape[axis]
    dt = 0.2 * h
    plan = kernels.godunov_plan(h, flux.lattice, tab, axis)
    return (kernels.godunov_step(u, dt, np.empty_like(u), plan),
            _godunov_step_loops(u, dt, h, axis, *_lattice(flux), tab.f,
                                tab.crit_y, tab.crit_f, np.empty_like(u)))


@pytest.mark.parametrize("shape", GODUNOV[:2])
def test_godunov_backends_bit_identical(setup, shape):
    """Along each axis of a 1-D and a 2-D state; the 3-D state has a case
    per axis below."""
    for axis in range(len(shape)):
        assert np.array_equal(*_godunov_axis(setup, shape, axis))


@pytest.mark.parametrize("axis", [0, 1, 2], ids=lambda axis: f"{axis}-loops")
def test_godunov_step_3d_matches_loops_on_every_line(setup, axis):
    assert np.array_equal(*_godunov_axis(setup, SHAPES[2], axis))


def _constants(plan):
    """What a viscous plan holds that no step may change: the members' full
    steps, their ``dt / h``, the stacked Engquist-Osher tables and the
    slopes, and each axis's ``eh`` and ``beh``."""
    return (plan.steps, plan.factors, plan.b_slope, plan.eo, plan.eo_slope,
            *((a.eh, a.beh) for a in plan.axes))


def _same(x, y):
    """``x`` and ``y`` hold the same values: arrays element by element,
    tuples and lists item by item, anything else by ``==``."""
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return type(x) is type(y) and x == y


def _check_reuse(scheme, shape, flux, btab):
    """One plan, reused over states in either order, gives what a fresh one
    and the loop twin give, and a viscous plan also on a landing step.  A
    viscous plan's ghost border stays 0 and its constants (``_constants``)
    stay as built; a Godunov plan holds only constants, and no step changes
    one of them."""
    new_plan, step, expect = _case(scheme, flux, btab, shape)
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
        if scheme == "godunov":
            assert _same(plan, kept)
            continue
        # a landing: another tuple of steps than the plan's own
        assert np.array_equal(step(a, plan, 0.5), expect(a, 0.5))
        # the viscous plan pads every cell axis
        for ax in range(len(shape)):
            assert not plan.ext.take([0, -1], axis=ax + 1).any()
        assert _same(_constants(plan), _constants(kept))


@pytest.mark.parametrize("scheme, shape", [
    pytest.param(scheme, *case.values, id=case.id)
    for scheme, cases in (("godunov", GODUNOV), ("visc", VISC))
    for case in cases])
def test_reused_workspace_holds_no_stale_state(setup, scheme, shape):
    flux, visc, _ = setup
    _check_reuse(scheme, shape, flux, visc.table)


@pytest.mark.parametrize("shape", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_reused_workspace_holds_no_stale_state_flat_tables(
        setup, flat_tables, table, shape):
    flux, _, _ = setup
    _check_reuse("visc", shape, flux, flat_tables[table])


@pytest.mark.parametrize("shape", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_visc_backends_bit_identical_flat_tables(setup, flat_tables, table,
                                                 shape):
    """A flat table takes the scalar path, one changed node the lookup; both
    match the loop twin, which interpolates the table at every face."""
    flux, _, rng = setup
    btab = flat_tables[table]
    u = rng.uniform(-0.99, 0.99, shape)
    new_plan, step, expect = _case("visc", flux, btab, shape)
    plan = new_plan()
    flat = table == "constant"
    assert (plan.b_slope is None) == flat
    for a in plan.axes:
        assert a.beh == (float(btab[0]) * a.eh if flat else None)
        assert (a.bread is None) == flat
    assert np.array_equal(step(u, plan), expect(u))


@pytest.mark.parametrize("shape", VISC)
@pytest.mark.parametrize("table", FLAT_TABLES)
def test_visc_step_locates_and_reads_once(setup, flat_tables, monkeypatch,
                                          table, shape):
    """One ``locate`` and one ``lookup`` read every Engquist-Osher table of a
    step; a non-flat B adds one pair per axis, at the face midpoints."""
    flux, _, rng = setup
    u = rng.uniform(-0.99, 0.99, shape)
    new_plan, step, expect = _case("visc", flux, flat_tables[table], shape)
    plan = new_plan()
    calls = []
    for name in ("locate", "lookup"):
        real = getattr(tables, name)
        monkeypatch.setattr(tables, name, lambda *args, _real=real,
                            _name=name, **kw: calls.append(_name)
                            or _real(*args, **kw))
    got = step(u, plan)
    monkeypatch.undo()
    pairs = 1 if table == "constant" else 1 + len(shape)
    assert calls == ["locate", "lookup"] * pairs
    assert np.array_equal(got, expect(u))


# ``f = a u`` has Engquist-Osher tables f+ = max(a, 0) u and f- = min(a, 0)
# u: f- is +0.0 at every node when a > 0, f+ when a < 0, both when a = 0
LINEAR_A = {"a>0": 0.7, "a<0": -0.7, "a=0": 0.0}
ZERO_EO = {"a>0": {"eom"}, "a<0": {"eop"}, "a=0": {"eop", "eom"}}


@pytest.fixture(scope="module")
def linear_fluxes():
    """Per sign of ``a`` and per axis of a 3-D state, a linear flux on that
    axis and Burgers on the others, on the lattice of ``setup``; a state of
    fewer dimensions reads the leading axes'."""
    return {(sign, axis): make_flux(
                tuple("linear" if ax == axis else "burgers" for ax in range(3)),
                (-1.0, 1.0), 1e-8, {"a": a})
            for sign, a in LINEAR_A.items() for axis in range(3)}


@pytest.mark.parametrize("shape, axis", [
    pytest.param(s, axis, id=f"visc_step_{len(s)}d-{axis}-loops")
    for s in SHAPES for axis in range(len(s))])
@pytest.mark.parametrize("sign", list(LINEAR_A))
def test_visc_zero_eo_tables_never_read(setup, linear_fluxes, sign, shape,
                                        axis):
    """The plan stacks exactly the nonzero Engquist-Osher tables, axis by
    axis, and reads each zero one, the linear axis's, as a 0-d 0.0; the step
    matches the loop twin, which reads those tables at every face, on fresh
    and on reused plans."""
    _, visc, rng = setup
    flux = linear_fluxes[sign, axis]
    u = rng.uniform(-0.99, 0.99, shape)
    new_plan, step, expect = _case("visc", flux, visc.table, shape)
    plan = new_plan()
    stacked = []
    for ax, a in enumerate(plan.axes):
        zero = ZERO_EO[sign] if ax == axis else set()
        tab = flux.tables[ax]
        for side, read, t in (("eop", a.pl, tab.eo_plus),
                              ("eom", a.qr, tab.eo_minus)):
            if side in zero:
                assert read is kernels._ZERO_READ
                assert read.shape == () and read == 0.0
            else:
                # a view of the row of the plan's reads that holds t
                assert read.shape == a.flux.shape
                assert np.shares_memory(read, plan.reads[len(stacked)])
                stacked.append(t)
    assert plan.eo.shape == (len(stacked), flux.lattice.n)
    assert plan.eo.tobytes() == b"".join(t.tobytes() for t in stacked)
    assert plan.reads.shape == plan.scratch.shape == (len(stacked),
                                                      plan.flat.size)
    assert np.array_equal(step(u, plan), expect(u))
    _check_reuse("visc", shape, flux, visc.table)


@pytest.mark.parametrize("shape", VISC)
def test_visc_negative_zero_eo_table_is_read(setup, linear_fluxes, shape):
    """Only +0.0 nodes make a zero table: an f- of -0.0 nodes reads as -0.0
    below the lattice (``0.0 * frac + -0.0`` with ``frac < 0``), so the plan
    reads it like any other table."""
    _, visc, rng = setup
    flux = linear_fluxes["a>0", 0]
    t0 = flux.tables[0]
    negzero = replace(t0, eo_minus=np.full_like(t0.eo_minus, -0.0))
    flux = replace(flux, tables=(negzero,) + flux.tables[1:])
    u = rng.uniform(-0.99, 0.99, shape)
    new_plan, step, expect = _case("visc", flux, visc.table, shape)
    plan = new_plan()
    # axis 0's f+ and f- are the stack's first two rows
    assert plan.eo[1].tobytes() == negzero.eo_minus.tobytes()
    assert np.array_equal(step(u, plan), expect(u))


@pytest.mark.parametrize("table", ["gaussian", "constant"])
@pytest.mark.parametrize("shape", [(400,), (128, 128)],
                         ids=["visc_step_1d", "visc_step_2d"])
def test_visc_step_table_path_allocation_peak(setup, flat_tables, shape,
                                              table):
    """A step writes only into its plan and ``out``: on the B lookup path
    (gaussian) and on the flat-B path alike, its transient peak stays within
    1.5 state sizes (allocating the table reads and the face location per
    call gave 6.4 in 1-D and 7.1 in 2-D, the workspace of face buffers 3.3
    and 5.1), on the states of the shipped 1-D and 2-D runs."""
    flux, visc, rng = setup
    btab = visc.table if table == "gaussian" else flat_tables["constant"]
    u = rng.uniform(-0.99, 0.99, shape)
    h = 1 / shape[-1]
    dt = (0.1 * h * h,)
    (plan,) = kernels.visc_plan(shape, (h,) * len(shape), (0.05,), dt,
                                flux.lattice, flux.tables, btab)
    u = u[None]
    out = np.empty_like(u)
    kernels.visc_step(u, dt, out, plan)
    peak = traced_peak(lambda: kernels.visc_step(u, dt, out, plan))
    assert peak <= 1.5 * u.nbytes, peak / u.nbytes


def _check_batched_visc(setup, flat_tables, table, shape, runs):
    """Steps a batch of up to three members, each with its own eps, on the
    plans built for the full steps ``a``, by each tuple of steps that
    ``runs(a)`` gives, a fresh state of ``len(dts)`` members each time: each
    member gets its loop twin's step, on the B lookup path (gaussian) and
    the flat-B path, and no step changes the plans' constants."""
    flux, visc, rng = setup
    btab = visc.table if table == "gaussian" else flat_tables["constant"]
    spacing = tuple(1 / n for n in shape)
    h = min(spacing)
    eps = (0.05, 0.03, 0.02)
    a = (0.1 * h * h, 0.15 * h * h, 0.17 * h * h)
    eo = _eo(flux, len(shape))
    plans = kernels.visc_plan(shape, spacing, eps, a, flux.lattice,
                              flux.tables, btab)
    assert len(plans) == 3
    kept = copy.deepcopy([_constants(plan) for plan in plans])
    for dts in runs(a):
        k = len(dts)
        u = rng.uniform(-0.99, 0.99, (k,) + shape)
        got = kernels.visc_step(u, dts, np.empty_like(u), plans[k - 1])
        for m in range(k):
            want = _visc_step_loops(u[m], dts[m], spacing, eps[m],
                                    *_lattice(flux), eo, btab,
                                    np.empty(shape))
            assert np.array_equal(got[m], want), (dts, m)
    assert _same([_constants(plan) for plan in plans], kept)


@pytest.mark.parametrize("shape", VISC)
@pytest.mark.parametrize("table", ["gaussian", "constant"])
def test_batched_visc_step_matches_loops_row_by_row(setup, flat_tables,
                                                    table, shape):
    """All three members step, the last landing with a shorter dt than its
    full step, then the leading two alone on the plan of two, and then the
    three again."""
    def runs(a):
        landing = a[:2] + (0.4 * a[2],)
        return (landing, a[:2], landing)

    _check_batched_visc(setup, flat_tables, table, shape, runs)


@pytest.mark.parametrize("shape", VISC)
@pytest.mark.parametrize("table", ["gaussian", "constant"])
def test_batched_visc_step_takes_full_steps_as_a_tuple(setup, flat_tables,
                                                       table, shape):
    """The tuple of the members' full steps, the form of a march's full
    steps, gives each member its loop twin's step whether it is the plan's
    own tuple or another one equal to it in value, before and after another
    tuple of steps, and so do the leading two of it on the plan of two."""
    def runs(a):
        equal = tuple(1.0 * d for d in a)
        assert equal == a and equal is not a
        other = tuple(0.5 * d for d in a)
        return (a, equal, other, a, a[:2], a[:2])

    _check_batched_visc(setup, flat_tables, table, shape, runs)


def test_interp_clamps_at_table_ends(setup):
    flux, _, _ = setup
    lat = flux.lattice
    tab = flux.tables[0].f
    from visclab.tables import locate, lookup, slopes
    loc = locate(lat.lo, lat.inv_spacing, tab.shape[0] - 2.0, np.array([lat.hi]))
    v = lookup(tab, slopes(tab), loc)
    assert float(v[0]) == pytest.approx(tab[-1], abs=1e-15)
