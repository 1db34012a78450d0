import numpy as np
import pytest
from scipy.signal import convolve2d

from conftest import UNNEEDED, modules_loaded
from oracles import total_variation
from visclab.config import build_scenario
from visclab.convergence import fit_rate
from visclab.domain import Grid
from visclab.mollify import (DATA_PRESETS, _convolve_same_2d,
                             make_initial_data, make_kernel, mollify)


def grid1d(n=400):
    return Grid((n,), (0.0,), (1.0,), 1.0)


@pytest.mark.parametrize("width", [0.02, 0.05, 0.1])
def test_kernel_mass_is_one(width):
    k = make_kernel(width, (1.0 / 400,))
    assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(k.weights >= 0.0)


def test_kernel_mass_2d():
    k = make_kernel(0.05, (1.0 / 64, 1.0 / 64))
    assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)


# a width of at most one cell on some axis: the kernel would have one node
# there and leave the data unmollified along it
@pytest.mark.parametrize("width, spacing", [
    (0.0025, (1.0 / 400,)), (0.001, (1.0 / 400,)),
    (0.0078125, (1.0 / 128, 1.0 / 128)), (0.05, (0.02, 0.1))])
def test_kernel_within_one_cell_rejected(width, spacing):
    with pytest.raises(ValueError, match="one cell"):
        make_kernel(width, spacing)


def test_kernel_support_radius():
    h = 1.0 / 400
    k = make_kernel(0.02, (h,))
    half = (k.weights.size - 1) // 2
    assert half * h < 0.02


def test_mollify_zero_is_zero():
    g = grid1d()
    data = make_initial_data(g, "bump", (0.5,), 0.2, 0.0)
    out = mollify(data, make_kernel(0.05, g.spacing))
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("preset,width", [("bump", 0.02), ("bump", 0.08),
                                          ("box", 0.02), ("box", 0.08),
                                          ("twobump", 0.02)])
def test_sup_bound(preset, width):
    g = grid1d()
    data = make_initial_data(g, preset, (0.5,), 0.15, 1.0,
                             amplitude2=-0.5, separation=0.2)
    out = mollify(data, make_kernel(width, g.spacing))
    assert np.max(np.abs(out.values)) <= np.max(np.abs(data.field.values)) + 1e-12


def test_gradient_bound_step_profile():
    # step-like profile on 400 cells, width 0.02; both sides numerical
    g = grid1d(400)
    data = make_initial_data(g, "box", (0.5,), 0.2, 1.0)
    out = mollify(data, make_kernel(0.02, g.spacing))
    h = g.spacing[0]
    tv0 = total_variation(data.field)
    assert total_variation(out) <= tv0 * (1.0 + 10.0 * h)
    assert total_variation(out) <= tv0  # discrete Young inequality is exact here


def test_support_stays_inside():
    g = grid1d(200)
    data = make_initial_data(g, "bump", (0.5,), 0.2, 1.0)
    out = mollify(data, make_kernel(0.05, g.spacing))
    x = g.centers(0)
    outside = (x < 0.2) | (x > 0.8)
    assert np.all(out.values[outside] == 0.0)
    assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_too_wide_kernel_rejected():
    g = grid1d(200)
    data = make_initial_data(g, "bump", (0.5,), 0.45, 1.0)  # margin 0.05
    with pytest.raises(ValueError, match="margin"):
        mollify(data, make_kernel(0.1, g.spacing))


def test_laplacian_scaling_box_data():
    # discrete Laplacian mass grows like 1/width for rough data
    g = grid1d(800)
    h = g.spacing[0]
    data = make_initial_data(g, "box", (0.5,), 0.25, 1.0)
    pts = []
    for width in (0.08, 0.04, 0.02):
        out = mollify(data, make_kernel(width, g.spacing))
        lap = np.abs(np.diff(out.values, 2)) / h**2
        pts.append((width, float(lap.sum() * h)))
    fit = fit_rate(pts)
    assert fit.rate <= -0.8


def test_l1_convergence_to_data():
    g = grid1d(800)
    h = g.spacing[0]
    data = make_initial_data(g, "bump", (0.5,), 0.25, 1.0)
    errs = []
    for width in (0.1, 0.05, 0.025):
        out = mollify(data, make_kernel(width, g.spacing))
        errs.append(float(np.sum(np.abs(out.values - data.field.values)) * h))
    assert errs[0] > errs[1] > errs[2]


def test_2d_mollify_sup_and_support():
    g = Grid((64, 64), (0.0, 0.0), (1.0, 1.0), 1.0)
    data = make_initial_data(g, "bump", (0.5, 0.5), 0.25, 1.0)
    out = mollify(data, make_kernel(0.1, g.spacing))
    assert np.max(np.abs(out.values)) <= 1.0 + 1e-12
    assert out.values[0, :].max() == 0.0 and out.values[:, 0].max() == 0.0


def _scipy_same(u, w):
    return convolve2d(u, w, mode="same", boundary="fill")


# widths of 12.8, 6.4, 3.2 and 1.6 cells: kernels of 25, 13, 7 and 3 cells
# a side, the first three those of the 2-D scenario's ladder
@pytest.mark.parametrize("width", [0.1, 0.05, 0.025, 0.0125])
def test_2d_mollify_bytes_equal_convolve2d(width):
    g = Grid((128, 128), (0.0, 0.0), (1.0, 1.0), 1.0)
    kernel = make_kernel(width, g.spacing)
    for center in ((0.5, 0.5), (0.42, 0.55), (0.37, 0.61)):
        data = make_initial_data(g, "bump", center, 0.25, 1.0)
        out = mollify(data, kernel).values
        assert out.tobytes() == _scipy_same(data.field.values,
                                            kernel.weights).tobytes()
    rough = np.random.default_rng(1).standard_normal((128, 128))
    assert (_convolve_same_2d(rough, kernel.weights).tobytes()
            == _scipy_same(rough, kernel.weights).tobytes())


@pytest.mark.parametrize("shape", [(5, 9), (1, 7), (11, 1), (3, 3)])
def test_convolve_same_2d_bytes_equal_on_signed_data(shape):
    # signed terms cancel, so a change of summation order shows in the
    # last bits; 1 x 7 and 11 x 1 also take the one-row and one-column paths
    rng = np.random.default_rng(sum(shape))
    u = rng.standard_normal((37, 29))
    w = rng.standard_normal(shape)
    assert _convolve_same_2d(u, w).tobytes() == _scipy_same(u, w).tobytes()


def test_cli_import_leaves_scipy_signal_unloaded():
    # no module of visclab imports scipy.signal (or any other scipy module),
    # which is slow to load, nor any other module no command needs
    assert modules_loaded("import visclab.cli", UNNEEDED) == []


def test_2d_mollify_leaves_scipy_signal_unloaded():
    assert modules_loaded(
        "from visclab.domain import Grid\n"
        "from visclab.mollify import make_initial_data, make_kernel, mollify\n"
        "g = Grid((32, 32), (0.0, 0.0), (1.0, 1.0), 1.0)\n"
        "d = make_initial_data(g, 'bump', (0.5, 0.5), 0.25, 1.0)\n"
        "mollify(d, make_kernel(0.1, g.spacing))", ["scipy"]) == []


@pytest.mark.parametrize("preset", DATA_PRESETS)
@pytest.mark.parametrize("dim", [1, 2])
def test_config_and_data_margins_agree(preset, dim):
    # both read the support box of the one helper; twobump's reaches from
    # 0.45 - 0.2 - 0.1 to 0.45 + 0.2 + 0.1 along x, the others' 0.35 to 0.55
    text = (f"[grid]\ndimension = {dim}\ncells = 40\ntime_horizon = 0.1\n"
            "[flux]\npreset = burgers\n[initial]\npreset = " + preset +
            "\ncenter = 0.45\nwidth = 0.1\nseparation = 0.2\n"
            "[ladder]\nepsilons = 0.05\n[scheme]\nyoung_window_cells = 4\n"
            "[output]\ndirectory = runs/x\n")
    cfg = build_scenario(text)
    grid = Grid(cfg.cells, cfg.extent_lo, cfg.extent_hi, cfg.time_horizon)
    data = make_initial_data(grid, preset, cfg.init_center, cfg.init_width,
                             cfg.init_amplitude, cfg.init_amplitude2,
                             cfg.init_separation)
    assert data.support_margin == cfg.support_margin
    assert cfg.support_margin == pytest.approx(0.15 if preset == "twobump"
                                               else 0.35)
