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

import math
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
        return time_weights(self.times)


def time_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights over the snapshot times ``times`` (they sum to T)."""
    t = np.asarray(times, dtype=np.float64)
    w = np.zeros_like(t)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    return w


# Per-snapshot work (elementwise maps and stencils inside one snapshot, and
# the dual norm's transforms along the axes after the first) runs on blocks
# of whole snapshots of about this many bytes, so only one block's
# temporaries are live at a time.  Reductions across snapshots and the
# transform along the first axis still run on the full arrays, so every
# value is the one a single block gives.  At 256 KB a block's dozen or so
# temporaries stay small enough for the heap to reuse their pages, where
# 1 MB blocks had them faulted in afresh (verify of the 2-D scenario: about
# 100k against 225k minor faults), and a 65 x 400 1-D field is still one
# block.
BLOCK_BYTES = 1 << 18


def snapshot_blocks(values: np.ndarray, block_bytes: int) -> list[slice]:
    """Consecutive slices of whole snapshots (rows of axis 0) of ``values``,
    each about ``block_bytes``."""
    n = values.shape[0]
    per = max(1, block_bytes // max(1, values[0].nbytes))
    return [slice(a, min(a + per, n)) for a in range(0, n, per)]


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
    """Named buffers that arrays of many calls are taken from in turn.

    A dual norm takes its field buffer, which holds the coefficients and
    then the quotient, from the ``work`` it is given, so the norms of many
    arrays of one shape share it.  Inside the entropy-production split,
    fresh field arrays had every call fault their pages in again (about
    2,950 minor faults a call on the 2-D scenario's 31 x 128 x 128
    interior): freed, they left a heap top above glibc's trim threshold.
    The two slab buffers of about BLOCK_BYTES that the transforms after the
    first axis work in (the reordered sequences, then the eigenvalue sums,
    and the spectra) serve the slabs of one call only: held between the
    split's norms, they sat on top of its divergence pass and raised its
    peak by half a field copy on a 33 x 64 x 64 field.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An array of ``shape`` on the front of buffer ``name``, which is
        made anew only when it is too small; a ragged last slab takes a
        shorter front of the same buffer."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _node_coefficients(x: np.ndarray, axis: int,
                       work: DualNormBuffers | None = None, out=None):
    """Orthonormal DST-I along ``axis``: one product with the sine matrix.

    Node axes are time axes, a few dozen samples long, so the dense matrix is
    small.  Its arguments are reduced modulo 2(n+1) as integers, so every
    sine is evaluated on [0, 2 pi).  Returns the coefficients and their mode
    numbers.  They go into ``out`` (which may be ``x``) when it is given, and
    into a new array otherwise; on axis 0 ``np.dot`` writes them into a
    separate ``out`` directly, the product ``tensordot`` would form.  The
    product needs none of the buffers of ``work``.
    """
    n = x.shape[axis]
    k = np.arange(1, n + 1)
    turns = np.outer(k, k) % (2 * (n + 1))
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(turns * (np.pi / (n + 1)))
    if out is not None and out is not x and axis == 0:
        np.dot(sines, x.reshape(n, -1), out=out.reshape(n, -1))
        return out, k
    coef = np.moveaxis(np.tensordot(sines, x, axes=(1, axis)), 0, axis)
    if out is None:
        return coef, k
    out[...] = coef
    return out, k


def _cell_modes(n: int) -> np.ndarray:
    """Mode numbers of the DST-II coefficients in the order
    ``_cell_coefficients`` leaves them: n, n-1, ..., n - n//2, then 1, 2,
    ..., (n-1)//2."""
    return np.concatenate((n - np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)))


def _cell_coefficients(x: np.ndarray, axis: int,
                       work: DualNormBuffers | None = None, out=None):
    """Orthonormal DST-II along ``axis`` by Makhoul's algorithm.

    The DST-II of ``x`` is the DCT-II of ``(-1)^j x_j`` in reverse order.
    That sequence, its even samples first and its odd samples reversed after
    them, goes through one length-n ``rfft``; twiddle ``m`` turns bin ``m``
    into the pair (DCT-II ``m``, minus DCT-II ``n - m``), i.e. the DST-II
    coefficients of modes ``n - m`` and ``m``, up to sign.  Returns the real
    parts (modes n, n-1, ..., n - n//2), then the imaginary parts of bins
    1..(n-1)//2 (modes 1, 2, ...), and their mode numbers.

    The coefficients go into ``out`` (which may be ``x``) when it is given,
    and into a new array otherwise.  The reordered sequence goes into
    ``out`` too, or into the slab buffer of ``work`` when ``out`` is ``x``;
    the spectrum goes into the spectrum buffer of ``work`` when it is
    given, and into a new array otherwise.
    """
    n = x.shape[axis]
    half = (n + 1) // 2
    bins = np.arange(n // 2 + 1)
    out = np.empty(x.shape) if out is None else out
    v = work.take("slab", x.shape) if out is x else out
    spectrum = None
    if work is not None:
        spectrum = work.take("spectrum", x.shape[:axis] + (bins.size,)
                             + x.shape[axis + 1:], np.complex128)
    xl, vl = np.moveaxis(x, axis, -1), np.moveaxis(v, axis, -1)
    vl[..., :half] = xl[..., 0::2]
    np.negative(xl[..., 1::2][..., ::-1], out=vl[..., half:])
    zl = np.moveaxis(np.fft.rfft(v, axis=axis, out=spectrum), axis, -1)
    zl *= (np.sqrt(np.where(bins == 0, 1.0, 2.0) / n)
           * np.exp(-0.5j * np.pi / n * bins))
    ol = np.moveaxis(out, axis, -1)
    ol[..., :bins.size] = zl.real
    ol[..., bins.size:] = zl.imag[..., 1:half]
    return out, _cell_modes(n)


_COEFFICIENTS = {"cell": _cell_coefficients, "node": _node_coefficients}
_MODES = {"cell": _cell_modes, "node": lambda n: np.arange(1, n + 1)}


def dirichlet_dual_norm(g: np.ndarray, spacings, kinds,
                        work: DualNormBuffers | None = None) -> float:
    """Dual norm of ``g`` against the discrete H1_0 energy on a box lattice.

    ``kinds[j]`` is 'cell' for cell-centered axes (zero at the half-spacing
    face) or 'node' for node axes (zero one spacing beyond the end samples).
    Returns ``sqrt(cellvol * sum(ghat**2 / Lambda))`` over the orthonormal
    sine coefficients ``ghat`` (see the module docstring).

    The transform along axis 0 mixes every row, so it runs on the whole
    array, into the field buffer of ``work`` (fresh buffers when it is not
    given).  The other axes' transforms and the quotient ``ghat**2 /
    Lambda`` then run on slabs of rows of about BLOCK_BYTES, in place in
    that buffer, and one sum over the whole buffer ends the norm.  Each
    line's transform and each element's quotient do not depend on the other
    rows, so the slabs give the values of the whole-array transforms.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != len(spacings) or g.ndim != len(kinds):
        raise ValueError("spacings/kinds arity must match array rank")
    # each axis's eigenvalues in the order its transform leaves the modes,
    # shaped to broadcast along that axis
    evs = []
    for axis, (n, h, kind) in enumerate(zip(g.shape, spacings, kinds)):
        shape = [1] * g.ndim
        shape[axis] = -1
        ev = _eigenvalues(n, h, kind)
        evs.append(ev[_MODES[kind](n) - 1].reshape(shape))
    work = DualNormBuffers() if work is None else work
    coef, _ = _COEFFICIENTS[kinds[0]](g, 0,
                                      out=work.take("field", g.shape))
    slabs = DualNormBuffers()
    for rows in snapshot_blocks(coef, BLOCK_BYTES):
        x = coef[rows]
        for axis in range(1, g.ndim):
            _COEFFICIENTS[kinds[axis]](x, axis, slabs, x)
        # Lambda summed over the axes in order, the last sum written into
        # the slab buffer, where ghat**2 / Lambda is then formed as
        # (ghat / Lambda) * ghat and written back over ghat
        slab_evs = [evs[0][rows]] + evs[1:]
        lam = 0.0
        for ev in slab_evs[:-1]:
            lam = lam + ev
        q = np.add(lam, slab_evs[-1], out=slabs.take("slab", x.shape))
        np.divide(x, q, out=q)
        np.multiply(q, x, out=x)
    return float(np.sqrt(coef.sum() * float(np.prod(spacings))))


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
