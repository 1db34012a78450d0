import math

import numpy as np
import pytest

from oracles import (_visc_face_scalar, gaussian_error, march_alone,
                     steps_loop)
from visclab import kernels
from visclab.convergence import fit_rate
from visclab.domain import Grid, make_flux, make_viscosity
from visclab.viscous import (StepError, _column, _make_advance, _steps,
                             integrate, integrate_batch, lone, march,
                             snapshot_times, stable_dt)


def specs_1d(flux_name="burgers", interval=(-1.0, 1.0), a=1.0, visc="constant",
             b=1.0):
    f = make_flux((flux_name,), interval, 1e-8, {"a": a})
    v = make_viscosity(visc, interval, {"b": b})
    return f, v


# --- stable_dt -------------------------------------------------------------

def test_stable_dt_combined():
    g = Grid((100,), (0.0,), (1.0,), 1.0)
    f, v = specs_1d("linear", a=1.0)
    dt = stable_dt(g, f, v, eps=0.01, cfl=0.4)
    assert dt == pytest.approx(0.4 * min(0.01, 0.01**2 / (2 * 0.01)))


def test_stable_dt_pure_convection():
    g = Grid((100,), (0.0,), (1.0,), 1.0)
    f, v = specs_1d("linear", a=1.0)
    assert stable_dt(g, f, v, eps=0.0, cfl=0.4) == pytest.approx(0.4 * 0.01)


def test_stable_dt_pure_diffusion():
    g = Grid((100,), (0.0,), (1.0,), 1.0)
    f, v = specs_1d("linear", a=0.0)
    dt = stable_dt(g, f, v, eps=0.01, cfl=0.4)
    assert dt == pytest.approx(0.4 * 0.01**2 / (2 * 0.01))


# --- face fluxes ------------------------------------------------------------
# on the face arithmetic of the loop twins, which test_kernels pins bit for
# bit to the kernels


def face_flux(ul, ur, f, v, eh=0.0):
    """The viscous face flux from the tables of ``f`` and ``v``, with ``eh =
    eps / h``: Engquist-Osher minus ``eh * B((ul + ur) / 2) * (ur - ul)``.
    ``eh = 0`` leaves the Engquist-Osher flux alone."""
    t = f.tables[0]
    return _visc_face_scalar(ul, ur, eh, f.lattice.lo, f.lattice.inv_spacing,
                             t.eo_plus, t.eo_minus, v.table)


def test_eo_consistency():
    f, v = specs_1d()
    for c in (-0.9, -0.3, 0.0, 0.4, 1.0):
        fc = float(np.asarray(f.components[0].f(c)))
        assert face_flux(c, c, f, v) == pytest.approx(fc, abs=1e-7)


def test_eo_burgers_values():
    f, v = specs_1d()
    assert face_flux(1.0, 0.0, f, v) == pytest.approx(0.5, abs=1e-6)
    assert face_flux(-1.0, 1.0, f, v) == pytest.approx(0.0, abs=1e-6)


def test_eo_monotone():
    f, v = specs_1d()
    us = np.linspace(-1, 1, 21)
    for ur in (-0.7, 0.0, 0.7):
        vals = [face_flux(ul, ur, f, v) for ul in us]
        assert np.all(np.diff(vals) >= -1e-12)
    for ul in (-0.7, 0.0, 0.7):
        vals = [face_flux(ul, ur, f, v) for ur in us]
        assert np.all(np.diff(vals) <= 1e-12)


def test_diffusive_flux_values():
    # f = 0, so the face flux is minus the diffusive one,
    # eps * B((ul + ur) / 2) * (ur - ul) / h with B read from its table
    f, v = specs_1d("linear", a=0.0)
    assert -face_flux(0.3, 0.3, f, v, 0.1 / 0.1) == 0.0
    assert -face_flux(0.0, 0.2, f, v, 0.1 / 0.1) == pytest.approx(0.2)
    vq = make_viscosity("quadratic", (-1.0, 1.0))
    assert -face_flux(0.0, 1.0, f, vq, 1.0 / 1.0) == pytest.approx(1.25)


# --- stepping ---------------------------------------------------------------

def _step_grid(g, f, v, eps, steps=1):
    """``g`` with its horizon cut to ``steps`` stable steps, and that step."""
    dt = stable_dt(g, f, v, eps, 0.4)
    return Grid(g.cells, g.lo, g.hi, steps * dt), dt


def test_zero_state_is_fixed_point():
    f, v = specs_1d()
    g, dt = _step_grid(Grid((64,), (0.0,), (1.0,), 1.0), f, v, 0.1)
    out = integrate(g, np.zeros(64), f, v, 0.1, 0.4, np.array([0.0, dt]),
                    sup_bound=0.0)
    assert np.all(out.values[-1] == 0.0)
    assert out.steps_taken == 1


def test_step_mass_balance_telescopes():
    # interior flux differences cancel; mass change equals boundary fluxes
    f, v = specs_1d()
    g, dt = _step_grid(Grid((128,), (0.0,), (1.0,), 1.0), f, v, 0.05)
    h = g.spacing[0]
    x = g.centers(0)
    u = np.where(np.abs(x - 0.5) < 0.2, (1 - ((x - 0.5) / 0.2) ** 2) ** 3, 0.0)
    out = integrate(g, u, f, v, 0.05, 0.4, np.array([0.0, dt]), sup_bound=1.0)
    assert out.steps_taken == 1
    mass_change = (out.values[-1].sum() - u.sum()) * h
    f_left = face_flux(0.0, u[0], f, v, 0.05 / h)
    f_right = face_flux(u[-1], 0.0, f, v, 0.05 / h)
    assert mass_change == pytest.approx(-dt * (f_right - f_left), abs=1e-12)


def test_max_principle_hard_failure():
    g = Grid((64,), (0.0,), (1.0,), 2.5)
    f, v = specs_1d()
    x = g.centers(0)
    u = np.sin(np.pi * x)
    # grossly unstable step must trip the failure
    advance = _make_advance(g, f, v, (0.5,))
    with pytest.raises(StepError, match="maximum principle"):
        lone(march(g, u[None], snapshot_times(2.5, 50), advance, (0.05,),
                   (0.5,), 1.0))


def test_max_principle_guard_rejects_nan():
    # a NaN maximum compares False with the bound; the guard must still fail
    g = Grid((16,), (0.0,), (1.0,), 1.0)
    u = np.zeros((1, 16))

    def advance(u, dt):
        out = u.copy()
        out[0, 3] = np.nan
        return out

    with pytest.raises(StepError, match="maximum principle") as info:
        lone(march(g, u, snapshot_times(1.0, 10), advance, (0.1,), (0.1,),
                   1.0))
    assert info.value.step == 1


def test_max_principle_guard_rejects_nan_initial_state():
    # the guard sees u0 before the first step; without it the NaN would be
    # stepped: its clipped table gathers return values (numpy warns of an
    # invalid value in the cast to a panel index), and no error is raised
    g = Grid((16,), (0.0,), (1.0,), 1.0)
    f, v = specs_1d()
    u0 = np.zeros(16)
    u0[5] = np.nan
    with pytest.raises(StepError, match="maximum principle") as info:
        integrate(g, u0, f, v, 0.1, 0.4, snapshot_times(1.0, 10),
                  sup_bound=1.0)
    assert info.value.step == 0


# --- output buffers ------------------------------------------------------------

def _buffer_case(dim, visc):
    """A grid, specs, a bump on it and a stable dt, in 1-D or 2-D."""
    if dim == 1:
        g = Grid((64,), (0.0,), (1.0,), 0.05)
        f = make_flux(("burgers",), (-1.0, 1.0), 1e-8)
        r2 = ((g.centers(0) - 0.5) / 0.25) ** 2
    else:
        g = Grid((24, 20), (0.0, 0.0), (1.0, 1.0), 0.05)
        f = make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8, {"a": 1.0})
        x, y = g.meshgrid()
        r2 = ((x - 0.5) / 0.25) ** 2 + ((y - 0.45) / 0.25) ** 2
    v = make_viscosity(visc, (-1.0, 1.0))
    u0 = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 3, 0.0)
    return g, f, v, u0, stable_dt(g, f, v, 0.05, 0.4)


def _fresh_euler(g, f, v, eps):
    """The forward-Euler update of a batch with a new output array on every
    kernel call."""
    kernel = kernels.get_kernel(f"visc_step_{g.dim}d")
    plans = kernels.visc_plan(g.cells, g.spacing, eps, f.lattice, f.tables,
                              v.table)
    return lambda u, dt: kernel(u, dt, np.empty_like(u), plans[len(u) - 1])


# per value that ``scheme.integrator`` accepts: the batch update a march
# takes, and its twin that allocates a new output array on every step
UPDATES = {"euler": (_make_advance, _fresh_euler)}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("integrator", list(UPDATES))
def test_advance_steps_only_the_members_it_is_handed(dim, integrator):
    # a march hands the update the rows of its leading members; the update
    # writes their new states into those rows, the same bytes as a step
    # into a fresh array, and leaves the other rows alone
    g, f, v, u0, dt = _buffer_case(dim, "constant")
    eps = (0.05, 0.04, 0.03)
    advance, fresh = (make(g, f, v, eps) for make in UPDATES[integrator])
    u = np.stack([u0, 0.5 * u0, -u0])
    for k in (3, 2, 1, 2):
        before = u.copy()
        step = _column([dt, 1.1 * dt, 0.9 * dt][:k], dim)
        rows = u[:k]
        assert advance(rows, step) is rows
        assert u.tobytes() != before.tobytes()
        assert u[k:].tobytes() == before[k:].tobytes()
        assert rows.tobytes() == fresh(before[:k], step).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("integrator", list(UPDATES))
@pytest.mark.parametrize("visc", ["constant", "quadratic"])
def test_trajectory_equals_fresh_array_stepping(dim, integrator, visc):
    # the reused output buffers and guard buffer change no byte of a march
    g, f, v, u0, dt = _buffer_case(dim, visc)
    times = snapshot_times(g.time_horizon, 5)
    advance, fresh = UPDATES[integrator]
    got, want = (lone(march(g, u0[None], times, make(g, f, v, (0.05,)),
                            (dt,), (0.05,), 1.0))
                 for make in (advance, fresh))
    assert got.steps_taken == want.steps_taken > 5
    assert got.values.tobytes() == want.values.tobytes()
    assert got.max_abs_seen == want.max_abs_seen


def test_march_stores_each_snapshot_of_a_state_updated_in_place():
    # snapshots are written into one preallocated array: an update that
    # changes the state in place leaves the snapshots stored before it alone
    g = Grid((6,), (0.0,), (1.0,), 1.0)

    def halve(u, dt):
        u *= 0.5
        return u

    traj = lone(march(g, np.full((1, 6), 0.8), snapshot_times(1.0, 4), halve,
                      (0.25,), (0.1,), 1.0))
    assert traj.values[:, 0].tolist() == [0.8, 0.4, 0.2, 0.1, 0.05]
    assert traj.values.flags.c_contiguous and traj.steps_taken == 4


def test_heat_decay_oracle():
    # f = 0, B = 1: closed-form decay exp(-eps pi^2 t) of the sine mode
    n, eps, T = 200, 0.1, 1.0
    g = Grid((n,), (0.0,), (1.0,), T)
    f, v = specs_1d("linear", a=0.0)
    u0 = np.sin(np.pi * g.centers(0))
    traj = integrate(g, u0, f, v, eps, 0.4, snapshot_times(T, 8),
                     sup_bound=1.0)
    expect = math.exp(-eps * math.pi**2 * T)
    got = traj.values[-1].max()
    assert abs(got - expect) / expect < 0.02


def test_determinism_bit_identical():
    g = Grid((100,), (0.0,), (1.0,), 0.2)
    f, v = specs_1d()
    x = g.centers(0)
    u0 = np.where(np.abs(x - 0.5) < 0.25, (1 - ((x - 0.5) / 0.25) ** 2) ** 3, 0.0)
    t1 = integrate(g, u0, f, v, 0.05, 0.4, snapshot_times(0.2, 4),
                   sup_bound=1.0)
    t2 = integrate(g, u0, f, v, 0.05, 0.4, snapshot_times(0.2, 4),
                   sup_bound=1.0)
    assert np.array_equal(t1.values, t2.values)


def _bump_on(g, width=0.25):
    x = g.centers(0)
    return np.where(np.abs(x - 0.5) < width,
                    (1 - ((x - 0.5) / width) ** 2) ** 3, 0.0)


def _restrict(fine, factor):
    return fine.reshape(-1, factor).mean(axis=1)


def test_self_convergence_under_refinement():
    # coarse-vs-4x difference bounded by twice the coarse-vs-2x estimate
    T, eps = 0.25, 0.1
    sols = {}
    for n in (100, 200, 400):
        g = Grid((n,), (0.0,), (1.0,), T)
        f, v = specs_1d()
        traj = integrate(g, _bump_on(g), f, v, eps, 0.4, snapshot_times(T, 4),
                         sup_bound=1.0)
        sols[n] = traj.values[-1]
    h = 1.0 / 100
    d2 = np.abs(sols[100] - _restrict(sols[200], 2)).sum() * h
    d4 = np.abs(sols[100] - _restrict(sols[400], 4)).sum() * h
    assert d4 <= 2.0 * d2


def test_advection_diffusion_order():
    # a Gaussian carried by a = 1 as it spreads
    errs = [(1.0 / n, gaussian_error(n, 1.0, 0.02, 0.2, 0.06, 0.35))
            for n in (64, 128, 256)]
    assert fit_rate(errs).rate >= 0.8


def test_energy_bound_small_ladder():
    # weighted gradient energy stays below the initial-mass bound, also for
    # genuinely nonlinear viscosity
    from visclab.report import grad_energy_lhs
    T = 0.2
    g = Grid((100,), (0.0,), (1.0,), T)
    for visc_name in ("constant", "quadratic"):
        f = make_flux(("burgers",), (-1.0, 1.0), 1e-8)
        v = make_viscosity(visc_name, (-1.0, 1.0), {"b": 1.0})
        for eps in (0.1, 0.05):
            traj = integrate(g, _bump_on(g), f, v, eps, 0.4,
                             snapshot_times(T, 8), sup_bound=1.0)
            bound = 1.05 * 1.0 * 1.0 / (2.0 * v.lower_bound)
            assert grad_energy_lhs(traj) <= bound
            assert traj.max_abs_seen <= 1.0 + 1e-10


# --- batches -------------------------------------------------------------------
# a batch marches its members in lockstep; each must be its lone march, bit
# for bit, and the march of a plain time loop


def _bits(traj):
    return (traj.values.view(np.int64).tobytes(), traj.steps_taken, traj.dt,
            traj.max_abs_seen)


def _looped(g, f, v, u0, eps, dt, times, sup_bound=1.0):
    """``march_alone`` of one member, as the bits ``_bits`` compares."""
    values, steps, seen = march_alone(u0[None], times,
                                      _make_advance(g, f, v, (eps,)), dt,
                                      sup_bound)
    return values[:, 0].view(np.int64).tobytes(), steps, dt, seen


def _batch_case(dim):
    """A grid, specs and the initial states of three members: the bump of
    ``_buffer_case``, scaled."""
    g, f, v, u0, _dt = _buffer_case(dim, "constant")
    return g, f, v, np.stack([u0, 0.7 * u0, -0.9 * u0])


@pytest.mark.parametrize("dim, eps", [(1, (0.1, 0.05, 0.02)),
                                      (2, (0.08, 0.04, 0.03)),
                                      (1, (0.05, 0.001, 0.0005))],
                         ids=["1d", "2d", "cfl-limited"])
def test_batch_members_equal_their_lone_marches(dim, eps):
    g, f, v, u0 = _batch_case(dim)
    times = snapshot_times(g.time_horizon, 5)
    batch = integrate_batch(g, u0, f, v, eps, 0.4, times, sup_bound=1.0)
    alone = [integrate(g, u, f, v, e, 0.4, times, sup_bound=1.0)
             for u, e in zip(u0, eps)]
    for u, e, got, want in zip(u0, eps, batch, alone):
        assert got.epsilon == want.epsilon == e
        assert _bits(got) == _bits(want) == _looped(g, f, v, u, e, got.dt,
                                                    times)
    steps = [traj.steps_taken for traj in alone]
    assert steps == sorted(steps, reverse=True) and steps[-1] > 5
    if eps[-1] < 0.01:
        # the two smallest viscosities take the convective step: equal dt,
        # equal step counts, landing together on every snapshot
        assert alone[1].dt == alone[2].dt and steps[1] == steps[2]
    else:
        assert len(set(steps)) == 3


def test_member_failing_in_a_batch_fails_alone():
    # the middle member marches with 3x its stable step and breaks the
    # maximum principle: it raises its lone march's error, at the same step
    # and time, while the others march on to the same bytes as alone
    g, f, v, u0 = _batch_case(1)
    g = Grid(g.cells, g.lo, g.hi, 0.2)
    times = snapshot_times(g.time_horizon, 5)
    eps = (0.1, 0.05, 0.0125)
    dts = [stable_dt(g, f, v, e, 0.4) for e in eps]
    dts[1] *= 3.0
    assert dts == sorted(dts)

    def lone_march(m):
        one = slice(m, m + 1)
        return march(g, u0[one], times, _make_advance(g, f, v, eps[one]),
                     dts[one], eps[one], 1.0)

    batch = march(g, u0, times, _make_advance(g, f, v, eps), dts, eps, 1.0)
    with pytest.raises(StepError, match="maximum principle") as info:
        lone(lone_march(1))
    with pytest.raises(StepError) as looped:
        _looped(g, f, v, u0[1], eps[1], dts[1], times)
    failed = batch[1]
    assert isinstance(failed, StepError)
    assert str(failed) == str(info.value) == str(looped.value)
    assert (failed.step, failed.time) == (info.value.step, info.value.time) \
        == (looped.value.step, looped.value.time)
    assert 0 < failed.step < lone(lone_march(0)).steps_taken
    for m in (0, 2):
        assert _bits(batch[m]) == _bits(lone(lone_march(m))) == _looped(
            g, f, v, u0[m], eps[m], dts[m], times)


def test_batch_steps_must_not_fall():
    # the leading members are the ones still short of a snapshot only while
    # the steps grow along the batch
    g, f, v, u0 = _batch_case(1)
    eps = (0.05, 0.1)
    with pytest.raises(ValueError, match="fall"):
        march(g, u0[:2], snapshot_times(g.time_horizon, 5),
              _make_advance(g, f, v, eps),
              [stable_dt(g, f, v, e, 0.4) for e in eps], eps, 1.0)


def _failing_batch(horizon, snapshots, who):
    """The three members of ``_batch_case(1)`` on ``[0, horizon]`` with
    ``snapshots`` intervals, member ``who`` marching with three times its
    stable step: ``(g, f, v, u0, times, eps, dts)``."""
    g, f, v, u0 = _batch_case(1)
    g = Grid(g.cells, g.lo, g.hi, horizon)
    eps = (0.1, 0.05, 0.0125)
    dts = [stable_dt(g, f, v, e, 0.4) for e in eps]
    dts[who] *= 3.0
    assert dts == sorted(dts)
    return g, f, v, u0, snapshot_times(horizon, snapshots), eps, dts


def test_member_failing_in_a_later_interval_fails_alone():
    # the bound is checked once per snapshot interval; the last member
    # breaks it in the last of ten intervals, which sends the batch back to
    # that interval's start, and the checked replay fails it at its lone
    # march's step and time, while the others keep the bytes of their lone
    # marches
    g, f, v, u0, times, eps, dts = _failing_batch(0.5, 10, 2)
    batch = march(g, u0, times, _make_advance(g, f, v, eps), dts, eps, 1.0)
    with pytest.raises(StepError) as looped:
        _looped(g, f, v, u0[2], eps[2], dts[2], times)
    failed = batch[2]
    assert isinstance(failed, StepError)
    assert (str(failed), failed.step, failed.time) == (
        str(looped.value), looped.value.step, looped.value.time)
    assert failed.time > times[-2]
    for m in (0, 1):
        assert _bits(batch[m]) == _looped(g, f, v, u0[m], eps[m], dts[m],
                                          times)


@pytest.mark.filterwarnings("error")
def test_member_blowing_up_raises_no_warning():
    # in one long snapshot interval the failing member steps on, unchecked,
    # to inf and NaN before the interval's end sends the batch back; numpy's
    # overflow and invalid-value warnings stay silent, and the member still
    # gets its lone march's error
    g, f, v, u0, times, eps, dts = _failing_batch(5.0, 1, 1)
    advance, blown = _make_advance(g, f, v, eps), []

    def watched(u, dt):
        new = advance(u, dt)
        blown.append(not np.isfinite(new).all())
        return new

    batch = march(g, u0, times, watched, dts, eps, 1.0)
    assert any(blown)
    with pytest.raises(StepError) as looped:
        _looped(g, f, v, u0[1], eps[1], dts[1], times)
    assert str(batch[1]) == str(looped.value)
    assert _bits(batch[0]) == _looped(g, f, v, u0[0], eps[0], dts[0], times)


def test_healthy_batch_calls_the_kernel_once_per_batched_step(monkeypatch):
    # a march whose members keep the bound marches no interval twice: the
    # kernel, wrapped in KERNELS as the benchmark's probe wraps it, runs once
    # per batched step, as often as the first member steps (it has the
    # smallest step, so it steps every time); a member that fails makes the
    # batch march its interval again
    calls = []
    kernel = kernels.KERNELS["numpy"]["visc_step_1d"]

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setitem(kernels.KERNELS["numpy"], "visc_step_1d", counted)
    g, f, v, u0 = _batch_case(1)
    times = snapshot_times(g.time_horizon, 5)
    batch = integrate_batch(g, u0, f, v, (0.1, 0.05, 0.02), 0.4, times,
                            sup_bound=1.0)
    steps = [traj.steps_taken for traj in batch]
    assert len(calls) == steps[0] > steps[1] > steps[2]
    assert sum(calls) == sum(steps)
    calls.clear()
    g, f, v, u0, times, eps, dts = _failing_batch(0.2, 5, 1)
    batch = march(g, u0, times, _make_advance(g, f, v, eps), dts, eps, 1.0)
    assert isinstance(batch[1], StepError)
    assert len(calls) > batch[0].steps_taken


def test_step_planner_matches_the_loop():
    # a snapshot interval's steps come from one np.add.accumulate: the same
    # clock and last step as the loop that adds one step at a time, and only
    # the last step is shorter than dt_base
    rng = np.random.default_rng(11)
    cases = [(0.0, 1.0, 0.25),  # lands exactly on full steps
             (0.0, 1.0, 0.1),  # the rounded tenth full step lands
             (0.3, 0.3 + 3 * 0.07 + 1e-12, 0.07),  # a tiny last step
             (0.0, 0.05, 1.0),  # one landing step
             (0.2, 0.9, 1.0),  # one landing step, 0.2 + 0.7 != 0.9
             (1.0 - 1e-14, 1.0, 0.1),  # already within 1e-13: no step
             (0.0, 0.5 / 64, 2.0**-13)]  # a shipped 1-D interval
    for _ in range(200):
        t = rng.uniform(0.0, 2.0)
        cases.append((t, t + rng.uniform(0.0, 1.0),
                      10.0 ** rng.uniform(-3, 0)))
    for t, target, dt in cases:
        clock, last = _steps(t, target, dt)
        want_clock, want_steps = steps_loop(t, target, dt)
        assert clock.tolist() == want_clock, (t, target, dt)
        assert last == (want_steps[-1] if want_steps else dt)
        assert all(s == dt for s in want_steps[:-1])
