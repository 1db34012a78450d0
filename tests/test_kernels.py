import os
import subprocess
import sys

import numpy as np
import pytest

from visclab import kernels
from visclab.domain import make_flux, make_viscosity

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                 reason="numba not installed")

# The numpy kernels are checked bit for bit against the explicit-loop twins,
# run un-jitted as plain Python, and against their numba builds where numba
# imports.
LOOPS = {
    "visc_step_1d": kernels._visc_step_1d_loops,
    "visc_step_2d": kernels._visc_step_2d_loops,
    "godunov_step_1d": kernels._godunov_step_1d_loops,
    "godunov_sweep_2d": kernels._godunov_sweep_2d_loops,
}
TWINS = [pytest.param("loops", id="loops"),
         pytest.param("numba", id="numba", marks=needs_numba)]


def twin(kind, name):
    return LOOPS[name] if kind == "loops" else kernels.KERNELS["numba"][name]


@pytest.fixture(scope="module")
def setup():
    flux = make_flux(("burgers", "linear"), (-1.0, 1.0), 1e-8, {"a": 0.7})
    visc = make_viscosity("gaussian", (-1.0, 1.0), {"r": 1.0})
    rng = np.random.default_rng(123)
    return flux, visc, rng


@pytest.mark.parametrize("kind", TWINS)
def test_visc_1d_backends_bit_identical(setup, kind):
    flux, visc, rng = setup
    lat = flux.lattice
    u = rng.uniform(-0.99, 0.99, 200)
    args = (0.4 * (1 / 200) ** 2 / 0.4, 1 / 200, 0.05, lat.lo, lat.inv_spacing,
            flux.tables[0].eo_plus, flux.tables[0].eo_minus, visc.table)
    a = np.empty_like(u)
    b = np.empty_like(u)
    kernels.visc_step_1d_numpy(u, *args, a)
    twin(kind, "visc_step_1d")(u, *args, b)
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
    kernels.visc_step_2d_numpy(u, *args, a)
    twin(kind, "visc_step_2d")(u, *args, b)
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
    kernels.godunov_step_1d_numpy(u, *args, a)
    twin(kind, "godunov_step_1d")(u, *args, b)
    assert np.array_equal(a, b)
    u2 = rng.uniform(-0.99, 0.99, (20, 30))
    for axis, h in ((0, 1 / 20), (1, 1 / 30)):
        a2 = np.empty_like(u2)
        b2 = np.empty_like(u2)
        kernels.godunov_sweep_2d_numpy(u2, 0.1 * h, h, axis, lat.lo,
                                       lat.inv_spacing, tab.f, tab.crit_y,
                                       tab.crit_f, a2)
        twin(kind, "godunov_sweep_2d")(u2, 0.1 * h, h, axis, lat.lo,
                                       lat.inv_spacing, tab.f, tab.crit_y,
                                       tab.crit_f, b2)
        assert np.array_equal(a2, b2)


def test_env_flag_forces_numpy():
    code = ("import visclab.kernels as k; "
            "print(k.active_backend())")
    env = dict(os.environ, VISCLAB_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


def test_interp_clamps_at_table_ends(setup):
    flux, _, _ = setup
    lat = flux.lattice
    tab = flux.tables[0].f
    from visclab.tables import locate, lookup
    loc = locate(lat.lo, lat.inv_spacing, tab.shape[0] - 2.0, np.array([lat.hi]))
    v = lookup(tab, loc)
    assert float(v[0]) == pytest.approx(tab[-1], abs=1e-15)
