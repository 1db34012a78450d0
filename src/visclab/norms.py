"""Discrete functional norms over the space-time cylinder.

Space axes carry cell-centered samples with a homogeneous Dirichlet condition
at the domain faces (ghost reflection, so the face value is exactly zero);
the time axis carries node samples whose first and last entries lie on the
cylinder boundary.  The negative-order norm is the dual of the discrete
H1_0 energy: ``|g|_{-1}^2 = cellvol * sum(g * phi)`` where ``-Lap phi = g``
with zero values on every face of the cylinder, which by the energy identity
of the stencil is also ``|grad phi|^2``.

No ``phi`` is formed.  The orthonormal sine transforms (DST-II on cell axes,
DST-I on node axes) are orthogonal and diagonalize the stencil, with
eigenvalue ``Lambda_k`` the sum of the axes' eigenvalues, so
``sum(g * phi) = sum(ghat_k**2 / Lambda_k)`` holds exactly and one forward
transform gives the norm:

    |g|_{-1}^2 = cellvol * sum_k ghat_k**2 / Lambda_k

The transforms run on ``numpy.fft``: one length-n ``rfft`` per cell axis
(Makhoul's DST-II) and one product with a small sine matrix on the node
axis.  The value equals that of solving for ``phi`` and taking its gradient
energy up to rounding (below 1e-13 relative on the shipped scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid


@dataclass(frozen=True)
class SpaceTimeField:
    """A scalar field sampled on the snapshot lattice of a trajectory."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # (num_times, *cells)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (t.size,) + self.grid.cells:
            raise ValueError("space-time field shape mismatch")
        if not np.all(np.isfinite(v)):
            raise ValueError("space-time field has non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def time_weights(self) -> np.ndarray:
        """Trapezoid weights over the snapshot times (they sum to T)."""
        t = self.times
        w = np.zeros_like(t)
        w[:-1] += 0.5 * np.diff(t)
        w[1:] += 0.5 * np.diff(t)
        return w


def measure_norm(stf: SpaceTimeField) -> float:
    """Space-time L1 norm: Riemann sum with cell volumes, trapezoid weights
    in time.  As a total-mass surrogate it bounds the measure norm."""
    return mass_of_snapshots(snapshot_l1(stf.values), stf.grid.cell_volume,
                             stf.time_weights())


def snapshot_l1(values: np.ndarray) -> np.ndarray:
    """Sum of ``|values|`` over the cells of each snapshot.  A snapshot's sum
    does not depend on the others in ``values``, so sums taken block by
    block are those of the whole field (the split's oracle tests pin it)."""
    return np.sum(np.abs(values), axis=tuple(range(1, values.ndim)))


def mass_of_snapshots(sums: np.ndarray, cell_volume: float,
                      weights: np.ndarray) -> float:
    """The norm ``measure_norm`` gives from per-snapshot sums of ``|values|``."""
    return float(np.sum(sums * cell_volume * weights))


# ---------------------------------------------------------------------------
# Dirichlet dual norm in sine bases


def _eigenvalues(n: int, h: float, kind: str) -> np.ndarray:
    """Stencil eigenvalues of sine modes 1..n, as ``4 sin^2(theta/2) / h^2``.

    The same values as ``(2 - 2 cos theta) / h^2``, without the cancellation
    that form suffers for the low modes.
    """
    k = np.arange(1, n + 1, dtype=np.float64)
    if kind == "cell":
        return (2.0 * np.sin(k * (0.5 * np.pi / n)) / h) ** 2
    if kind == "node":
        return (2.0 * np.sin(k * (0.5 * np.pi / (n + 1))) / h) ** 2
    raise ValueError(f"unknown axis kind {kind!r}")


class DualNormBuffers:
    """The two real arrays that the dual norms of many arrays of one shape
    write their coefficients and final quotient into, in turn.

    Inside the entropy-production split, fresh arrays had every call fault
    its pages in again (about 2,950 minor faults a call on the 2-D
    scenario's 31 x 128 x 128 interior): freed together, they left a heap
    top above glibc's trim threshold.
    """

    def __init__(self):
        self._real = (np.empty(0), np.empty(0))

    def out_for(self, x: np.ndarray) -> np.ndarray:
        """A buffer of the shape of ``x`` that is not ``x``."""
        a, b = self._real
        if a.shape != x.shape:
            a, b = self._real = np.empty(x.shape), np.empty(x.shape)
        return b if x is a else a


def _node_coefficients(x: np.ndarray, axis: int,
                       work: DualNormBuffers | None = None):
    """Orthonormal DST-I along ``axis``: one product with the sine matrix.

    Node axes are time axes, a few dozen samples long, so the dense matrix is
    small.  Its arguments are reduced modulo 2(n+1) as integers, so every
    sine is evaluated on [0, 2 pi).  Returns the coefficients and their mode
    numbers; on axis 0 they are written into a buffer of ``work``, by the
    product ``tensordot`` would form.
    """
    n = x.shape[axis]
    k = np.arange(1, n + 1)
    turns = np.outer(k, k) % (2 * (n + 1))
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(turns * (np.pi / (n + 1)))
    if work is not None and axis == 0:
        coef = work.out_for(x)
        np.dot(sines, x.reshape(n, -1), out=coef.reshape(n, -1))
        return coef, k
    coef = np.moveaxis(np.tensordot(sines, x, axes=(1, axis)), 0, axis)
    return coef, k


def _cell_coefficients(x: np.ndarray, axis: int,
                       work: DualNormBuffers | None = None):
    """Orthonormal DST-II along ``axis`` by Makhoul's algorithm.

    The DST-II of ``x`` is the DCT-II of ``(-1)^j x_j`` in reverse order.
    That sequence, its even samples first and its odd samples reversed after
    them, goes through one length-n ``rfft``; twiddle ``m`` turns bin ``m``
    into the pair (DCT-II ``m``, minus DCT-II ``n - m``), i.e. the DST-II
    coefficients of modes ``n - m`` and ``m``, up to sign.  Returns the real
    parts (modes n, n-1, ..., n - n//2), then the imaginary parts of bins
    1..(n-1)//2 (modes 1, 2, ...), and their mode numbers.  The coefficients
    overwrite the reordered sequence, so a call holds at most one real and
    one complex array of the size of ``x`` besides ``x``; with ``work`` the
    real one is its buffer.
    """
    n = x.shape[axis]
    half = (n + 1) // 2
    bins = np.arange(n // 2 + 1)
    v = np.empty_like(x) if work is None else work.out_for(x)
    xl, vl = np.moveaxis(x, axis, -1), np.moveaxis(v, axis, -1)
    vl[..., :half] = xl[..., 0::2]
    np.negative(xl[..., 1::2][..., ::-1], out=vl[..., half:])
    zl = np.moveaxis(np.fft.rfft(v, axis=axis), axis, -1)
    zl *= (np.sqrt(np.where(bins == 0, 1.0, 2.0) / n)
           * np.exp(-0.5j * np.pi / n * bins))
    vl[..., :bins.size] = zl.real
    vl[..., bins.size:] = zl.imag[..., 1:half]
    return v, np.concatenate((n - bins, np.arange(1, half)))


_COEFFICIENTS = {"cell": _cell_coefficients, "node": _node_coefficients}


def dirichlet_dual_norm(g: np.ndarray, spacings, kinds,
                        work: DualNormBuffers | None = None) -> float:
    """Dual norm of ``g`` against the discrete H1_0 energy on a box lattice.

    ``kinds[j]`` is 'cell' for cell-centered axes (zero at the half-spacing
    face) or 'node' for node axes (zero one spacing beyond the end samples).
    Returns ``sqrt(cellvol * sum(ghat**2 / Lambda))`` over the orthonormal
    sine coefficients ``ghat`` (see the module docstring).  The transforms
    run in the buffers of ``work``, fresh ones when it is not given.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != len(spacings) or g.ndim != len(kinds):
        raise ValueError("spacings/kinds arity must match array rank")
    evs = [_eigenvalues(n, h, kind)
           for n, h, kind in zip(g.shape, spacings, kinds)]
    work = DualNormBuffers() if work is None else work
    coef = g
    for axis, kind in enumerate(kinds):
        coef, modes = _COEFFICIENTS[kind](coef, axis, work)
        shape = [1] * g.ndim
        shape[axis] = -1
        evs[axis] = evs[axis][modes - 1].reshape(shape)
    # Lambda summed over the axes in order, the last sum written into the
    # buffer that does not hold the coefficients, where ghat**2 / Lambda
    # is then formed as (ghat / Lambda) * ghat
    lam = 0.0
    for ev in evs[:-1]:
        lam = lam + ev
    q = np.add(lam, evs[-1], out=work.out_for(coef))
    np.divide(coef, q, out=q)
    q *= coef
    return float(np.sqrt(q.sum() * float(np.prod(spacings))))


def h_minus_one_norm(stf: SpaceTimeField,
                     work: DualNormBuffers | None = None) -> float:
    """Negative-order Sobolev norm of a space-time residual field.

    The first and last snapshots lie on the cylinder boundary, where the test
    functions vanish, so only interior time slices enter the norm; they are
    handed over as the ``(time, cells...)`` block they are stored as.
    ``work`` lets the norms of many fields of one shape share their buffers.
    """
    if stf.times.size < 3:
        raise ValueError("need at least 3 snapshots for the space-time norm")
    steps = np.diff(stf.times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    dt = float(steps[0])
    spacings = (dt,) + tuple(stf.grid.spacing)
    kinds = ("node",) + ("cell",) * stf.grid.dim
    return dirichlet_dual_norm(stf.values[1:-1], spacings, kinds, work)
