import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dst, idst

from oracles import total_variation
from visclab import norms
from visclab.domain import Field, Grid
from visclab.mollify import make_initial_data, make_kernel, mollify
from visclab.norms import (SpaceTimeField, dirichlet_dual_norm,
                           h_minus_one_norm, measure_norm)


def stf_unit_box(nt=65, nx=200, values=None):
    g = Grid((nx,), (0.0,), (1.0,), 1.0)
    t = np.linspace(0.0, 1.0, nt)
    v = np.ones((nt, nx)) if values is None else values
    return SpaceTimeField(g, t, v)


# --- L1 ---------------------------------------------------------------------

def test_lp_zero_field():
    s = stf_unit_box(values=np.zeros((65, 200)))
    assert measure_norm(s) == 0.0


def test_lp_constant_unit_box():
    s = stf_unit_box()
    # trapezoid weights in time make the unit box integrate to exactly one
    assert measure_norm(s) == pytest.approx(1.0, rel=1e-13)


def test_lp_sine():
    # the integral of |sin(pi x)| over (0, 1) is 2 / pi
    g = Grid((200,), (0.0,), (1.0,), 1.0)
    t = np.linspace(0, 1, 65)
    v = np.broadcast_to(np.sin(np.pi * g.centers(0)), (65, 200)).copy()
    s = SpaceTimeField(g, t, v)
    assert measure_norm(s) == pytest.approx(2.0 / math.pi, rel=1e-4)


def test_measure_norm_nonpositive_field():
    rng = np.random.default_rng(4)
    v = -np.abs(rng.normal(size=(9, 40)))
    s = stf_unit_box(9, 40, v)
    integral = float(np.sum(v * s.time_weights()[:, None])) * s.grid.cell_volume
    assert measure_norm(s) == pytest.approx(-integral, rel=1e-12)


# --- TV ---------------------------------------------------------------------

def test_tv_constant():
    g = Grid((50,), (0.0,), (1.0,), 1.0)
    assert total_variation(Field(g, np.full(50, 0.7))) == 0.0


def test_tv_single_step():
    g = Grid((50,), (0.0,), (1.0,), 1.0)
    v = np.where(g.centers(0) < 0.5, 0.0, 1.0)
    assert total_variation(Field(g, v)) == pytest.approx(1.0)


def test_tv_mollified_step():
    g = Grid((400,), (0.0,), (1.0,), 1.0)
    data = make_initial_data(g, "box", (0.5,), 0.2, 1.0)
    out = mollify(data, make_kernel(0.03, g.spacing))
    assert total_variation(out) <= (total_variation(data.field)
                                    * (1 + 10.0 * g.spacing[0]))


def test_tv_2d_anisotropic():
    g = Grid((4, 4), (0.0, 0.0), (1.0, 1.0), 1.0)
    v = np.zeros((4, 4))
    v[2:, :] = 1.0  # one jump along x across every y-line
    assert total_variation(Field(g, v)) == pytest.approx(1.0)


# --- negative-order norm ----------------------------------------------------

def test_dual_norm_zero():
    s = stf_unit_box(9, 40, np.zeros((9, 40)))
    assert h_minus_one_norm(s) == 0.0


def test_dual_norm_sine_oracle():
    # pure spatial problem: g = sin(pi x) on (0,1) gives 1/(sqrt(2) pi)
    n = 200
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    val = dirichlet_dual_norm(np.sin(np.pi * x), (h,), ("cell",))
    assert val == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi), rel=0.01)


def test_dual_norm_linearity_exact():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(7, 30))
    s1 = stf_unit_box(7, 30, g)
    s2 = stf_unit_box(7, 30, 2.0 * g)
    assert h_minus_one_norm(s2) == pytest.approx(2.0 * h_minus_one_norm(s1),
                                                 rel=1e-14)


def test_dual_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(9, 25))
    b = rng.normal(size=(9, 25))
    na = h_minus_one_norm(stf_unit_box(9, 25, a))
    nb = h_minus_one_norm(stf_unit_box(9, 25, b))
    nab = h_minus_one_norm(stf_unit_box(9, 25, a + b))
    assert nab <= na + nb + 1e-12
    n3 = h_minus_one_norm(stf_unit_box(9, 25, -3.0 * a))
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


SPECTRAL_CASES = [
    (("cell",), (1,)), (("cell",), (2,)), (("cell",), (7,)),
    (("cell",), (8,)), (("cell",), (400,)),
    (("node",), (1,)), (("node",), (2,)), (("node",), (7,)),
    (("node",), (62,)),
    (("cell", "node"), (1, 2)), (("cell", "node"), (2, 1)),
    (("cell", "node"), (12, 9)), (("cell", "node"), (7, 8)),
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
    assert dirichlet_dual_norm(g, spacings, kinds) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def sine_mode(n, k, kind):
    """Discrete sine eigenmode k of one axis: cell or node samples."""
    j = np.arange(n)
    if kind == "cell":
        return np.sin(np.pi * k * (2 * j + 1) / (2 * n))
    return np.sin(np.pi * k * (j + 1) / (n + 1))


@pytest.mark.parametrize("kinds,shape,modes", [
    (("cell",), (5,), (1,)), (("cell",), (8,), (8,)), (("cell",), (400,), (1,)),
    (("cell",), (400,), (237,)), (("node",), (6,), (1,)), (("node",), (62,), (62,)),
    (("cell", "node"), (9, 4), (5, 2)),
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
    assert dirichlet_dual_norm(g, spacings, kinds) == pytest.approx(
        expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 62, 400])
@pytest.mark.parametrize("kind", ["cell", "node"])
def test_sine_coefficient_maps_are_orthonormal(kind, n):
    # the coefficients of the identity are the transform matrix; its rows
    # are orthonormal and carry each mode number once (node sines taken of
    # unreduced arguments, up to n^2 pi / (n + 1), miss by 2e-14 at n = 400)
    coef, modes = norms._COEFFICIENTS[kind](np.eye(n), 0)
    assert np.abs(coef @ coef.T - np.eye(n)).max() <= 5e-15
    assert sorted(modes.tolist()) == list(range(1, n + 1))


@pytest.mark.parametrize("shape,spacings,kinds", [
    ((4, 5), (0.1, 0.1), ("cell", "edge")),
    ((4, 5), (0.1, 0.1), ("node", "Cell")),
    ((4, 5), (0.1,), ("cell", "cell")),
    ((4, 5), (0.1, 0.1), ("cell",)),
    ((4,), (0.1, 0.1), ("cell", "cell")),
])
def test_dual_norm_rejects_bad_axes_before_transforming(
        monkeypatch, shape, spacings, kinds):
    def no_transform(*_args):
        raise AssertionError("transformed before the axes were checked")
    monkeypatch.setattr(norms, "_COEFFICIENTS",
                        {"cell": no_transform, "node": no_transform})
    with pytest.raises(ValueError, match="axis kind|arity"):
        dirichlet_dual_norm(np.ones(shape), spacings, kinds)


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
    assert h_minus_one_norm(SpaceTimeField(grid, times, v)) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def test_shared_buffers_give_each_norm_bit_for_bit():
    # one set of buffers across arrays of one shape, then of others, a node
    # axis that is not first among them: each norm is that of fresh buffers,
    # and the node product written into a buffer is tensordot's
    rng = np.random.default_rng(3)
    work = norms.DualNormBuffers()
    cases = ([(("node", "cell", "cell"), (9, 32, 32))] * 3
             + [(("node", "cell"), (9, 12))] * 2
             + [(("cell", "node"), (12, 9)), (("node",), (8,))])
    for kinds, shape in cases:
        g = rng.standard_normal(shape)
        spacings = tuple(rng.uniform(0.01, 0.5, size=len(shape)))
        shared = dirichlet_dual_norm(g, spacings, kinds, work)
        assert shared.hex() == dirichlet_dual_norm(g, spacings, kinds).hex()
        if kinds[0] == "node":
            into, _ = norms._node_coefficients(g, 0, work)
            fresh, _ = norms._node_coefficients(g, 0)
            assert into.tobytes() == fresh.tobytes()


def test_shared_buffers_are_not_allocated_again():
    # a later call with the buffers of an earlier one allocates neither of
    # its two arrays of the size of g
    g = np.random.default_rng(4).standard_normal((9, 32, 32))
    spacings, kinds = (0.1, 0.03, 0.03), ("node", "cell", "cell")
    work = norms.DualNormBuffers()
    dirichlet_dual_norm(g, spacings, kinds, work)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fresh = peak(lambda: dirichlet_dual_norm(g, spacings, kinds))
    shared = peak(lambda: dirichlet_dual_norm(g, spacings, kinds, work))
    assert shared <= fresh - 1.9 * g.nbytes


def test_dual_norm_mesh_consistency():
    # a fixed smooth source changes by under 2% when the grid is refined 2x
    vals = []
    for n in (100, 200):
        h = 1.0 / n
        x = (np.arange(n) + 0.5) * h
        vals.append(dirichlet_dual_norm(np.sin(2 * np.pi * x) + 0.3 * x * (1 - x),
                                        (h,), ("cell",)))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_dual_norm_needs_three_snapshots():
    with pytest.raises(ValueError, match="3 snapshots"):
        h_minus_one_norm(stf_unit_box(2, 10, np.ones((2, 10))))


def test_dual_norm_needs_uniform_times():
    g = Grid((10,), (0.0,), (1.0,), 1.0)
    times = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniform"):
        h_minus_one_norm(SpaceTimeField(g, times, np.ones((4, 10))))


def test_space_time_field_rejects_non_finite_entries():
    v = np.ones((4, 10))
    v[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        stf_unit_box(4, 10, v)
