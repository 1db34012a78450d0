import math

import numpy as np
import pytest
from scipy.fft import dst, idst

from conftest import traced_peak
from oracles import dual_norm_whole, total_variation
from visclab import norms
from visclab.domain import Grid
from visclab.mollify import make_initial_data, make_kernel, mollify
from visclab.norms import dirichlet_dual_norm, h_minus_one_norm, measure_norm


def unit_box(nt=65, nx=200, values=None):
    """``(values, times, grid)`` of a field on (0, 1) x (0, 1), ones unless
    ``values`` are given."""
    g = Grid((nx,), (0.0,), (1.0,), 1.0)
    t = np.linspace(0.0, 1.0, nt)
    v = np.ones((nt, nx)) if values is None else values
    return v, t, g


def l1_unit_box(*args):
    v, t, g = unit_box(*args)
    return measure_norm(v, t, g.cell_volume)


def dual_unit_box(*args):
    v, t, g = unit_box(*args)
    return h_minus_one_norm(v, t, g.spacing)


# --- L1 ---------------------------------------------------------------------

def test_lp_zero_field():
    assert l1_unit_box(65, 200, np.zeros((65, 200))) == 0.0


def test_lp_constant_unit_box():
    # trapezoid weights in time make the unit box integrate to exactly one
    assert l1_unit_box() == pytest.approx(1.0, rel=1e-13)


def test_lp_sine():
    # the integral of |sin(pi x)| over (0, 1) is 2 / pi
    g = Grid((200,), (0.0,), (1.0,), 1.0)
    t = np.linspace(0, 1, 65)
    v = np.broadcast_to(np.sin(np.pi * g.centers(0)), (65, 200)).copy()
    assert measure_norm(v, t, g.cell_volume) == pytest.approx(2.0 / math.pi,
                                                              rel=1e-4)


def test_measure_norm_nonpositive_field():
    rng = np.random.default_rng(4)
    v = -np.abs(rng.normal(size=(9, 40)))
    _v, t, g = unit_box(9, 40, v)
    integral = (float(np.sum(v * norms.time_weights(t)[:, None]))
                * g.cell_volume)
    assert measure_norm(v, t, g.cell_volume) == pytest.approx(-integral,
                                                              rel=1e-12)


# --- TV ---------------------------------------------------------------------

def test_tv_constant():
    g = Grid((50,), (0.0,), (1.0,), 1.0)
    assert total_variation(np.full(50, 0.7), g.spacing) == 0.0


def test_tv_single_step():
    g = Grid((50,), (0.0,), (1.0,), 1.0)
    v = np.where(g.centers(0) < 0.5, 0.0, 1.0)
    assert total_variation(v, g.spacing) == pytest.approx(1.0)


def test_tv_mollified_step():
    g = Grid((400,), (0.0,), (1.0,), 1.0)
    data = make_initial_data(g, "box", (0.5,), 0.2, 1.0)
    out = mollify(data, make_kernel(0.03, g.spacing))
    assert total_variation(out, g.spacing) <= (
        total_variation(data, g.spacing) * (1 + 10.0 * g.spacing[0]))


def test_tv_2d_anisotropic():
    g = Grid((4, 4), (0.0, 0.0), (1.0, 1.0), 1.0)
    v = np.zeros((4, 4))
    v[2:, :] = 1.0  # one jump along x across every y-line
    assert total_variation(v, g.spacing) == pytest.approx(1.0)


# --- negative-order norm ----------------------------------------------------

def test_dual_norm_zero():
    assert dual_unit_box(9, 40, np.zeros((9, 40))) == 0.0


def test_dual_norm_sine_oracle():
    # g = sin(pi t / T) sin(pi x) sin(pi y) on (0, T) x (0, 1)^2 is the first
    # eigenfunction, so |g|_{-1}^2 = |g|_2^2 / Lambda = (T / 8) / Lambda
    T = 0.5
    grid = Grid((40, 40), (0.0, 0.0), (1.0, 1.0), T)
    times = np.linspace(0.0, T, 33)
    s = np.sin(np.pi * grid.centers(0))
    g = np.multiply.outer(np.sin(np.pi * times / T), np.outer(s, s))
    lam = (math.pi / T) ** 2 + 2.0 * math.pi**2
    val = h_minus_one_norm(g, times, grid.spacing)
    assert val == pytest.approx(math.sqrt(T / (8.0 * lam)), rel=0.01)


def test_dual_norm_linearity_exact():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(7, 30))
    assert dual_unit_box(7, 30, 2.0 * g) == pytest.approx(
        2.0 * dual_unit_box(7, 30, g), rel=1e-14)


def test_dual_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(9, 25))
    b = rng.normal(size=(9, 25))
    na = dual_unit_box(9, 25, a)
    nb = dual_unit_box(9, 25, b)
    nab = dual_unit_box(9, 25, a + b)
    assert nab <= na + nb + 1e-12
    n3 = dual_unit_box(9, 25, -3.0 * a)
    assert n3 == pytest.approx(3.0 * na, rel=1e-12)


# --- oracle: the Dirichlet Poisson solve the dual norm replaces -------------

def oracle_eigenvalues(n, h, kind):
    """Stencil eigenvalues of sine modes 1..n (zero face at n or n + 1)."""
    m = n if kind == "cell" else n + 1
    return (2.0 * np.sin(np.arange(1, n + 1) * np.pi / (2 * m)) / h) ** 2


def dirichlet_poisson_solve(g, spacings, kinds):
    """Exact solve of -Lap phi = g with scipy's orthonormal DST and its
    inverse (DST-II on cell axes, DST-I on node axes)."""
    coef, lam = np.asarray(g, dtype=np.float64), 0.0
    dst_type = {"cell": 2, "node": 1}
    for axis, (h, kind) in enumerate(zip(spacings, kinds)):
        coef = dst(coef, type=dst_type[kind], norm="ortho", axis=axis)
        shape = [1] * coef.ndim
        shape[axis] = -1
        lam = lam + oracle_eigenvalues(coef.shape[axis], h, kind).reshape(shape)
    coef = coef / lam
    for axis, kind in enumerate(kinds):
        coef = idst(coef, type=dst_type[kind], norm="ortho", axis=axis)
    return coef


def dirichlet_grad_norm(phi, spacings, kinds):
    """Discrete H1_0 seminorm with the boundary faces: the zero face sits half
    a spacing beyond the end samples of a cell axis, one spacing beyond those
    of a node axis."""
    phi = np.asarray(phi, dtype=np.float64)
    total = 0.0
    for axis, (h, kind) in enumerate(zip(spacings, kinds)):
        d = np.diff(phi, axis=axis)
        ends = np.take(phi, 0, axis=axis) ** 2 + np.take(phi, -1, axis=axis) ** 2
        face = 2.0 if kind == "cell" else 1.0
        total += (float(np.sum(d * d)) + face * float(np.sum(ends))) / h**2
    return float(np.sqrt(total * float(np.prod(spacings))))


def oracle_dual_norm(g, spacings, kinds):
    return dirichlet_grad_norm(dirichlet_poisson_solve(g, spacings, kinds),
                               spacings, kinds)


def test_energy_identity_and_duality():
    # <g, phi> = |grad phi|^2 for the solve, and the dual-norm bound holds
    rng = np.random.default_rng(7)
    spacings = (0.05, 0.1)
    kinds = ("cell", "node")
    g = rng.normal(size=(12, 9))
    phi = dirichlet_poisson_solve(g, spacings, kinds)
    energy = dirichlet_grad_norm(phi, spacings, kinds)
    inner = float(np.sum(g * phi)) * spacings[0] * spacings[1]
    assert inner == pytest.approx(energy**2, rel=1e-11)
    gnorm = oracle_dual_norm(g, spacings, kinds)
    for _ in range(5):
        test_fn = rng.normal(size=(12, 9))
        pairing = abs(float(np.sum(g * test_fn))) * spacings[0] * spacings[1]
        bound = gnorm * dirichlet_grad_norm(test_fn, spacings, kinds)
        assert pairing <= bound * (1.0 + 1e-6)


# the oracle's lattices, all on the layout the dual norm serves: the time
# (node) axis first, then cell axes; a short time axis carries cell axes of
# the lengths the transform must handle
SPECTRAL_CASES = [
    (("node", "cell"), (3, 1)), (("node", "cell"), (3, 2)),
    (("node", "cell"), (3, 7)), (("node", "cell"), (3, 8)),
    (("node", "cell"), (3, 400)),
    (("node",), (1,)), (("node",), (2,)), (("node",), (7,)),
    (("node",), (62,)),
    (("node", "cell"), (2, 1)), (("node", "cell"), (1, 2)),
    (("node", "cell"), (9, 12)), (("node", "cell"), (8, 7)),
    (("node", "cell"), (63, 400)),  # the 1-D scenario's interior block
    (("node", "cell", "cell"), (1, 1, 1)), (("node", "cell", "cell"), (2, 3, 2)),
    (("node", "cell", "cell"), (3, 1, 2)), (("node", "cell", "cell"), (5, 2, 7)),
    (("node", "cell", "cell"), (31, 64, 64)),
]


@pytest.mark.parametrize("kinds,shape", SPECTRAL_CASES)
def test_dual_norm_matches_poisson_solve(kinds, shape):
    rng = np.random.default_rng(sum(shape) + len(kinds))
    g = rng.standard_normal(shape)
    spacings = tuple(rng.uniform(0.01, 0.5, size=len(shape)))
    expected = oracle_dual_norm(g, spacings, kinds)
    assert dirichlet_dual_norm(g, spacings) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def sine_mode(n, k, kind):
    """Discrete sine eigenmode k of one axis: cell or node samples."""
    j = np.arange(n)
    if kind == "cell":
        return np.sin(np.pi * k * (2 * j + 1) / (2 * n))
    return np.sin(np.pi * k * (j + 1) / (n + 1))


@pytest.mark.parametrize("kinds,shape,modes", [
    (("node", "cell"), (1, 5), (1, 1)), (("node", "cell"), (1, 8), (1, 8)),
    (("node", "cell"), (1, 400), (1, 1)),
    (("node", "cell"), (1, 400), (1, 237)),
    (("node",), (6,), (1,)), (("node",), (62,), (62,)),
    (("node", "cell"), (4, 9), (2, 5)),
    (("node", "cell", "cell"), (31, 64, 64), (1, 1, 1)),
    (("node", "cell", "cell"), (31, 64, 64), (17, 64, 33)),
])
def test_dual_norm_of_sine_eigenmode(kinds, shape, modes):
    # on an eigenmode, |g|_{-1} = sqrt(cellvol) |g|_2 / sqrt(Lambda)
    spacings = tuple(0.5 / n for n in shape)
    g, lam = np.ones(()), 0.0
    for n, k, h, kind in zip(shape, modes, spacings, kinds):
        g = np.multiply.outer(g, sine_mode(n, k, kind))
        m = n if kind == "cell" else n + 1
        lam += (2.0 * math.sin(k * math.pi / (2 * m)) / h) ** 2
    expected = math.sqrt(math.prod(spacings) / lam) * float(np.sqrt(np.sum(g * g)))
    assert dirichlet_dual_norm(g, spacings) == pytest.approx(
        expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 62, 400])
@pytest.mark.parametrize("kind", ["cell", "node"])
def test_sine_coefficient_maps_are_orthonormal(kind, n):
    # the coefficients of the identity are the transform matrix; its rows
    # are orthonormal and carry each mode number once (node sines taken of
    # unreduced arguments, up to n^2 pi / (n + 1), miss by 2e-14 at n = 400)
    if kind == "node":
        coef = norms._node_coefficients(np.eye(n), np.empty((n, n)),
                                         np.empty(n * n))
        modes = np.arange(1, n + 1)
    else:
        coef = np.eye(n)
        norms._cell_coefficients(coef, 1, np.empty(n * n),
                                 np.empty(n * (n // 2 + 1), np.complex128))
        modes = norms._cell_modes(n)
    assert np.abs(coef @ coef.T - np.eye(n)).max() <= 5e-15
    assert sorted(modes.tolist()) == list(range(1, n + 1))


@pytest.mark.parametrize("shape,spacings", [
    ((4, 5), (0.1,)), ((4,), (0.1, 0.1)),
])
def test_dual_norm_rejects_bad_axes_before_transforming(
        monkeypatch, shape, spacings):
    def no_transform(*_args):
        raise AssertionError("transformed before the axes were checked")
    monkeypatch.setattr(norms, "_node_coefficients", no_transform)
    with pytest.raises(ValueError, match="arity"):
        dirichlet_dual_norm(np.ones(shape), spacings)


@pytest.mark.parametrize("cells", [(40,), (12, 10)])
def test_space_time_norm_orders_axes_time_first(cells):
    # h_minus_one_norm hands over the (time, cells...) block; the oracle
    # solves on the (cells..., time) layout, and the order of the axes must
    # not change the value
    grid = Grid(cells, (0.0,) * len(cells), (1.0,) * len(cells), 1.0)
    times = np.linspace(0.0, 0.3, 9)
    v = np.random.default_rng(len(cells)).standard_normal((9,) + cells)
    interior = np.moveaxis(v[1:-1], 0, -1)
    expected = oracle_dual_norm(interior, tuple(grid.spacing) + (0.3 / 8,),
                                ("cell",) * len(cells) + ("node",))
    assert h_minus_one_norm(v, times, grid.spacing) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("out", [
    np.zeros((9, 12, 10), order="F"), np.zeros((9, 12, 20))[:, :, ::2],
    np.zeros((9, 12, 11)), np.zeros((9, 12, 10), np.float32),
])
def test_dual_norm_rejects_an_unusable_out(out):
    # unchecked, a Fortran-ordered out gives a norm of 0.0: the product
    # goes into a reshaped copy of it
    g = np.random.default_rng(1).standard_normal((9, 12, 10))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        dirichlet_dual_norm(g, (0.1, 0.1, 0.1), out)


def test_shared_buffers_give_each_norm_bit_for_bit():
    # one coefficient array across the arrays of one shape, then another for
    # those of the next: each norm is that of a fresh array
    rng = np.random.default_rng(3)
    out = None
    for shape in [(9, 32, 32)] * 3 + [(9, 12)] * 2 + [(8,)]:
        g = rng.standard_normal(shape)
        spacings = tuple(rng.uniform(0.01, 0.5, size=len(shape)))
        if out is None or out.shape != shape:
            out = np.empty(shape)
        shared = dirichlet_dual_norm(g, spacings, out)
        assert shared.hex() == dirichlet_dual_norm(g, spacings).hex()


def test_shared_buffers_are_not_allocated_again():
    # on the 2-D scenario's interior shape, a call given its coefficient
    # array allocates no array of the size of g: only its slab buffers of
    # about BLOCK_BYTES and numpy's iterator buffers
    g = np.random.default_rng(4).standard_normal((31, 128, 128))
    spacings = (0.1, 1 / 128, 1 / 128)
    out = np.empty(g.shape)
    dirichlet_dual_norm(g, spacings, out)  # transform set-up
    shared = traced_peak(lambda: dirichlet_dual_norm(g, spacings, out))
    assert shared < 0.25 * g.nbytes


@pytest.mark.parametrize("shape", [(31, 128, 128), (63, 400), (31, 24, 76)])
def test_in_place_time_transform_matches_whole_array_product(monkeypatch,
                                                             shape):
    # the DST-I along time over column blocks, written back over its input,
    # gives the bytes of one product over the whole array: on the 2-D and
    # 1-D scenarios' interiors, and with 64-column blocks on 1,824 columns,
    # whose last block takes the 32 left over
    if shape == (31, 24, 76):
        monkeypatch.setattr(norms, "BLOCK_BYTES", 1)
        assert [b - a for a, b in norms._column_blocks(31, 24 * 76)][-2:] \
            == [64, 96]
    n = shape[0]
    g = np.random.default_rng(n).standard_normal(shape)
    k = np.arange(1, n + 1)
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(
        np.outer(k, k) % (2 * (n + 1)) * (np.pi / (n + 1)))
    want = np.dot(sines, g.reshape(n, -1)).reshape(shape)
    x = g.copy()
    got = norms._node_coefficients(x, x, np.empty(x.size))
    assert got is x and x.tobytes() == want.tobytes()


def test_dual_norm_in_place_and_shared_work_bit_for_bit():
    # out may be g itself: each norm is that of a fresh call, and g is
    # overwritten only when it is handed over as out
    rng = np.random.default_rng(5)
    spacings = (0.1, 1 / 24, 1 / 20)
    for _ in range(3):
        g = rng.standard_normal((9, 24, 20))
        want = dirichlet_dual_norm(g, spacings)
        kept = g.copy()
        assert dirichlet_dual_norm(g, spacings, None).hex() == want.hex()
        assert g.tobytes() == kept.tobytes()
        assert dirichlet_dual_norm(g, spacings, g).hex() == want.hex()


SLAB_CASES = [
    (("node", "cell"), (63, 400)),  # the 1-D scenario's interior block
    (("node", "cell"), (9, 12)), (("node", "cell"), (2, 1)),
    (("node", "cell", "cell"), (31, 64, 64)),
    (("node", "cell", "cell"), (11, 24, 20)),
    (("node", "cell", "cell"), (7, 9, 8)),
    (("node", "cell", "cell"), (5, 7, 6)),
    (("node", "cell"), (12, 9)), (("node", "cell"), (10, 7)),
    (("node",), (40,)), (("node",), (9,)),
]


@pytest.mark.parametrize("rows_per_slab", [None, 1, 3])
@pytest.mark.parametrize("kinds,shape", SLAB_CASES)
def test_slab_wise_norm_matches_whole_array_bit_for_bit(monkeypatch, kinds,
                                                        shape, rows_per_slab):
    # the axes after the first and the quotient run slab by slab, in place
    # in the coefficient array; one slab, one row a slab, and ragged slabs
    # of 3 rows all give the bytes of every transform on the whole array,
    # with a fresh array and with one shared across calls
    rng = np.random.default_rng(sum(shape) + len(kinds))
    g = rng.standard_normal(shape)
    spacings = tuple(rng.uniform(0.01, 0.5, size=len(shape)))
    if rows_per_slab is not None:
        monkeypatch.setattr(norms, "BLOCK_BYTES",
                            rows_per_slab * g[0].nbytes)
        assert len(norms.snapshot_blocks(g)) == -(-shape[0] // rows_per_slab)
    want = dual_norm_whole(g, spacings, kinds).hex()
    assert dirichlet_dual_norm(g, spacings).hex() == want
    out = np.empty(shape)
    for _ in range(2):
        assert dirichlet_dual_norm(g, spacings, out).hex() == want


def test_space_time_norm_matches_whole_array_on_a_scenario_shape():
    # h_minus_one_norm as the split calls it, on the 2-D scenario's shape
    grid = Grid((128, 128), (0.0, 0.0), (1.0, 1.0), 0.25)
    times = np.linspace(0.0, 0.25, 33)
    v = np.random.default_rng(12).standard_normal((33, 128, 128))
    want = dual_norm_whole(v[1:-1], (float(np.diff(times)[0]), 1 / 128,
                                     1 / 128), ("node", "cell", "cell"))
    out = np.empty((31, 128, 128))
    for _ in range(2):
        got = h_minus_one_norm(v, times, grid.spacing, out)
        assert got.hex() == want.hex()


def test_dual_norm_mesh_consistency():
    # a fixed smooth source changes by under 2% when the space grid is
    # refined 2x
    times = np.linspace(0.0, 1.0, 33)
    vals = []
    for n in (100, 200):
        grid = Grid((n,), (0.0,), (1.0,), 1.0)
        x = grid.centers(0)
        g = np.multiply.outer(np.sin(np.pi * times),
                              np.sin(2 * np.pi * x) + 0.3 * x * (1 - x))
        vals.append(h_minus_one_norm(g, times, grid.spacing))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_dual_norm_needs_three_snapshots():
    with pytest.raises(ValueError, match="3 snapshots"):
        dual_unit_box(2, 10, np.ones((2, 10)))


def test_dual_norm_needs_uniform_times():
    g = Grid((10,), (0.0,), (1.0,), 1.0)
    times = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniform"):
        h_minus_one_norm(np.ones((4, 10)), times, g.spacing)


def test_space_time_norms_reject_non_finite_entries():
    # any NaN or infinite entry of an interior snapshot leaves either norm
    # non-finite, and the norm is rejected
    for bad in (np.nan, np.inf, -np.inf):
        v = np.ones((4, 10))
        v[2, 3] = bad
        for norm in (l1_unit_box, dual_unit_box):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="non-finite"):
                norm(4, 10, v)
