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
    v = stf.values
    cell = stf.grid.cell_volume
    w = stf.time_weights()
    per_snap = np.sum(np.abs(v), axis=tuple(range(1, v.ndim))) * cell
    return float(np.sum(per_snap * w))


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


def _node_coefficients(x: np.ndarray, axis: int):
    """Orthonormal DST-I along ``axis``: one product with the sine matrix.

    Node axes are time axes, a few dozen samples long, so the dense matrix is
    small.  Its arguments are reduced modulo 2(n+1) as integers, so every
    sine is evaluated on [0, 2 pi).  Returns the coefficients and their mode
    numbers.
    """
    n = x.shape[axis]
    k = np.arange(1, n + 1)
    turns = np.outer(k, k) % (2 * (n + 1))
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(turns * (np.pi / (n + 1)))
    coef = np.moveaxis(np.tensordot(sines, x, axes=(1, axis)), 0, axis)
    return coef, k


def _cell_coefficients(x: np.ndarray, axis: int):
    """Orthonormal DST-II along ``axis`` by Makhoul's algorithm.

    The DST-II of ``x`` is the DCT-II of ``(-1)^j x_j`` in reverse order.
    That sequence, its even samples first and its odd samples reversed after
    them, goes through one length-n ``rfft``; twiddle ``m`` turns bin ``m``
    into the pair (DCT-II ``m``, minus DCT-II ``n - m``), i.e. the DST-II
    coefficients of modes ``n - m`` and ``m``, up to sign.  Returns the real
    parts (modes n, n-1, ..., n - n//2), then the imaginary parts of bins
    1..(n-1)//2 (modes 1, 2, ...), and their mode numbers.  The coefficients
    overwrite the reordered sequence, so a call holds at most one real and
    one complex array of the size of ``x`` besides ``x``.
    """
    n = x.shape[axis]
    half = (n + 1) // 2
    bins = np.arange(n // 2 + 1)
    v = np.empty_like(x)
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


def dirichlet_dual_norm(g: np.ndarray, spacings, kinds) -> float:
    """Dual norm of ``g`` against the discrete H1_0 energy on a box lattice.

    ``kinds[j]`` is 'cell' for cell-centered axes (zero at the half-spacing
    face) or 'node' for node axes (zero one spacing beyond the end samples).
    Returns ``sqrt(cellvol * sum(ghat**2 / Lambda))`` over the orthonormal
    sine coefficients ``ghat`` (see the module docstring).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != len(spacings) or g.ndim != len(kinds):
        raise ValueError("spacings/kinds arity must match array rank")
    evs = [_eigenvalues(n, h, kind)
           for n, h, kind in zip(g.shape, spacings, kinds)]
    coef, lam = g, 0.0
    for axis, (ev, kind) in enumerate(zip(evs, kinds)):
        coef, modes = _COEFFICIENTS[kind](coef, axis)
        shape = [1] * g.ndim
        shape[axis] = -1
        lam = lam + ev[modes - 1].reshape(shape)
    np.divide(coef, lam, out=lam)
    lam *= coef
    return float(np.sqrt(lam.sum() * float(np.prod(spacings))))


def h_minus_one_norm(stf: SpaceTimeField) -> float:
    """Negative-order Sobolev norm of a space-time residual field.

    The first and last snapshots lie on the cylinder boundary, where the test
    functions vanish, so only interior time slices enter the norm; they are
    handed over as the ``(time, cells...)`` block they are stored as.
    """
    if stf.times.size < 3:
        raise ValueError("need at least 3 snapshots for the space-time norm")
    steps = np.diff(stf.times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    dt = float(steps[0])
    spacings = (dt,) + tuple(stf.grid.spacing)
    kinds = ("node",) + ("cell",) * stf.grid.dim
    return dirichlet_dual_norm(stf.values[1:-1], spacings, kinds)
