import numpy as np
import pytest

from oracles import (_godunov_face_scalar, _godunov_step_loops,
                     riemann_exact, shock_position)
from visclab.domain import Grid, make_flux, make_viscosity
from visclab.reference import solve_reference
from visclab.viscous import snapshot_times, stable_dt


@pytest.fixture(scope="module")
def burgers():
    return make_flux(("burgers",), (-1.0, 1.0), 1e-8)


def face_flux(ul, ur, flux):
    """The Godunov face flux of the loop twins, which test_kernels pins bit
    for bit to the kernels, from the tables of ``flux``."""
    t = flux.tables[0]
    return _godunov_face_scalar(ul, ur, flux.lattice.lo,
                                flux.lattice.inv_spacing, t.f, t.crit_y,
                                t.crit_f)


def test_godunov_consistency(burgers):
    for c in (-1.0, -0.3, 0.0, 0.5, 1.0):
        assert face_flux(c, c, burgers) == pytest.approx(0.5 * c * c, abs=1e-6)


def test_godunov_burgers_shock_and_fan(burgers):
    assert face_flux(1.0, 0.0, burgers) == pytest.approx(0.5, abs=1e-6)
    assert face_flux(-1.0, 1.0, burgers) == pytest.approx(0.0, abs=1e-6)


def test_godunov_monotone_on_grid(burgers):
    us = np.linspace(-1.0, 1.0, 50)
    F = np.array([[face_flux(a, b, burgers) for b in us] for a in us])
    assert np.all(np.diff(F, axis=0) >= -1e-12)   # nondecreasing in uL
    assert np.all(np.diff(F, axis=1) <= 1e-12)    # nonincreasing in uR


def test_riemann_exact_cases(burgers):
    shock = riemann_exact(1.0, 0.0, burgers)
    assert shock.wave == "shock" and shock.speeds[0] == pytest.approx(0.5)
    assert shock(0.25) == 1.0 and shock(0.75) == 0.0
    fan = riemann_exact(0.0, 1.0, burgers)
    assert fan.wave == "rarefaction"
    assert fan(0.5) == pytest.approx(0.5)
    assert fan(-0.1) == 0.0 and fan(1.2) == 1.0
    const = riemann_exact(0.3, 0.3, burgers)
    assert const(123.0) == 0.3


def test_riemann_rankine_hugoniot_arctan():
    spec = make_flux(("arctan",), (-1.0, 1.0), 1e-8)
    sol = riemann_exact(0.8, -0.4, spec)
    comp = spec.components[0]
    s = (float(np.asarray(comp.f(0.8))) - float(np.asarray(comp.f(-0.4)))) / 1.2
    assert sol.speeds[0] == pytest.approx(s)


def _step_data(grid, x0):
    return np.where(grid.centers(0) < x0, 1.0, 0.0)


def test_shock_position_two_cells(burgers):
    n, x0, T = 200, 0.4, 0.5
    g = Grid((n,), (0.0,), (1.0,), T)
    v = make_viscosity("constant", (-1.0, 1.0))
    traj = solve_reference(g, burgers, v, _step_data(g, x0), 0.4,
                           snapshot_times(T, 4))
    pos = shock_position(traj.values[-1], g, 0.5)
    assert abs(pos - (x0 + 0.5 * T)) <= 2.0 / n


def test_tvd_and_max_principle(burgers):
    # TV including the Dirichlet boundary jumps is what the monotone scheme
    # diminishes; interior-only TV can grow while a boundary fan enters
    n, T = 200, 0.4
    g = Grid((n,), (0.0,), (1.0,), T)
    v = make_viscosity("constant", (-1.0, 1.0))
    traj = solve_reference(g, burgers, v, _step_data(g, 0.4), 0.4,
                           snapshot_times(T, 16))
    def tv_ext(u):
        return float(np.abs(np.diff(np.concatenate(([0.0], u, [0.0])))).sum())
    tvs = [tv_ext(traj.values[k]) for k in range(traj.num_snapshots)]
    assert np.all(np.diff(tvs) <= 1e-12)
    assert traj.max_abs_seen <= 1.0 + 1e-12


def test_rarefaction_l1_rate(burgers):
    # distance to the exact fan shrinks like sqrt(h)
    x0, T = 0.5, 0.4
    errs = []
    for n in (100, 200, 400):
        g = Grid((n,), (0.0,), (1.0,), T)
        v = make_viscosity("constant", (-1.0, 1.0))
        u0 = np.where(g.centers(0) < x0, 0.0, 1.0)
        traj = solve_reference(g, burgers, v, u0, 0.4, snapshot_times(T, 4))
        fan = riemann_exact(0.0, 1.0, burgers)
        exact = np.array([fan((x - x0) / T) for x in g.centers(0)])
        errs.append(np.abs(traj.values[-1] - exact).sum() / n)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1.0 * (1.0 / 400) ** 0.5


def test_zero_data_stays_zero(burgers):
    g = Grid((32, 32), (0.0, 0.0), (1.0, 1.0), 0.2)
    spec = make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8)
    v = make_viscosity("constant", (-1.0, 1.0))
    traj = solve_reference(g, spec, v, np.zeros((32, 32)), 0.4,
                           snapshot_times(0.2, 4))
    assert np.all(traj.values == 0.0)


def test_2d_strang_max_principle():
    g = Grid((48, 48), (0.0, 0.0), (1.0, 1.0), 0.2)
    spec = make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8)
    v = make_viscosity("constant", (-1.0, 1.0))
    xx, yy = g.meshgrid()
    r2 = ((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / 0.25**2
    u0 = np.where(r2 < 1, (1 - np.minimum(r2, 1)) ** 3, 0.0)
    traj = solve_reference(g, spec, v, u0, 0.4, snapshot_times(0.2, 4))
    assert traj.max_abs_seen <= u0.max() + 1e-12


def test_2d_step_is_strang_x_half_y_full_x_half():
    # Burgers along both axes, so the y sweep reads critical nodes too; the
    # axes differ in length and spacing, so a swapped axis would show
    dt = 0.01  # below the stable step (0.4 * 0.08 / sup|f'|), so one step
    g = Grid((12, 10), (0.0, 0.0), (1.0, 0.8), dt)
    spec = make_flux(("burgers", "burgers"), (-1.0, 1.0), 1e-8)
    v = make_viscosity("constant", (-1.0, 1.0))
    xx, yy = g.meshgrid()
    r2 = ((xx - 0.45) ** 2 + (yy - 0.4) ** 2) / 0.3**2
    u0 = np.where(r2 < 1, (1 - np.minimum(r2, 1)) ** 3, 0.0)
    u0[3, 2] = -0.6  # a sign change, so some faces straddle the sonic point
    traj = solve_reference(g, spec, v, u0, 0.4, np.array([0.0, dt]))
    assert traj.steps_taken == 1 and stable_dt(g, spec, v, 0.0, 0.4) > dt

    def sweep(u, tau, axis):
        t = spec.tables[axis]
        return _godunov_step_loops(
            u, tau, g.spacing[axis], axis, spec.lattice.lo,
            spec.lattice.inv_spacing, t.f, t.crit_y, t.crit_f,
            np.empty_like(u))

    want = sweep(sweep(sweep(u0, 0.5 * dt, 0), dt, 1), 0.5 * dt, 0)
    assert traj.values[1].tobytes() == want.tobytes()
