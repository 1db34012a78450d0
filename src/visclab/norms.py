"""Discrete functional norms over the space-time cylinder.

Space axes carry cell-centered samples with a homogeneous Dirichlet condition
at the domain faces (ghost reflection, so the face value is exactly zero);
the time axis carries node samples whose first and last entries lie on the
cylinder boundary.  The negative-order norm is the dual of the discrete
H1_0 energy: ``|g|_{-1}^2 = cellvol * sum(g * phi)`` where ``-Lap phi = g``
with zero values on every face of the cylinder, which by the energy identity
of the stencil is also ``|grad phi|^2``.

No ``phi`` is formed.  The orthonormal sine transforms (DST-I on the time
axis, DST-II on the cell axes) are orthogonal and diagonalize the stencil,
with eigenvalue ``Lambda_k`` the sum of the axes' eigenvalues, so
``sum(g * phi) = sum(ghat_k**2 / Lambda_k)`` holds exactly and one forward
transform gives the norm:

    |g|_{-1}^2 = cellvol * sum_k ghat_k**2 / Lambda_k

The transforms run on ``numpy.fft``: one product with a small sine matrix on
the time axis and one length-n ``rfft`` per cell axis (Makhoul's DST-II).
The value equals that of solving for ``phi`` and taking its gradient energy
up to rounding (below 1e-13 relative on the shipped scenarios).

Per-snapshot work everywhere in the package runs on the blocks of whole
snapshots that ``snapshot_blocks`` cuts, so ``BLOCK_BYTES`` is the one
setting of the block size.
"""

from __future__ import annotations

import numpy as np


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
# temporaries are live at a time; the dual norm's transform along the first
# axis runs on blocks of columns of about this size.  Reductions across
# snapshots still run on the full arrays, so every value is the one a
# single block gives.  At 256 KB a block's dozen or so
# temporaries stay small enough for the heap to reuse their pages, where
# 1 MB blocks had them faulted in afresh (verify of the 2-D scenario: about
# 100k against 225k minor faults), and a 65 x 400 1-D field is still one
# block.
BLOCK_BYTES = 1 << 18

# The trajectories of the ladder members that march together, in bytes (see
# ``harness.batches``).  A batch's step spreads each numpy call over all its
# members, which pays while the step is bound by call overhead: the shipped
# 1-D ladder (4 x 208 KB) is one batch.  A 128x128 member (4.3 MB) is a batch
# of one: there the step is bound by memory traffic, and a step of three
# 128x128 members took 1.80 ms against 1.74 ms for three lone steps.
BATCH_BYTES = 1 << 20


def blocks_of(n: int, width: int) -> list[slice]:
    """Consecutive slices of ``width`` of ``range(n)``; a ragged last block
    keeps what is left."""
    return [slice(a, min(a + width, n)) for a in range(0, n, width)]


def snapshot_blocks(values: np.ndarray) -> list[slice]:
    """Consecutive slices of whole snapshots (rows of axis 0) of ``values``,
    each about BLOCK_BYTES, as it reads when called."""
    return blocks_of(values.shape[0],
                     max(1, BLOCK_BYTES // max(1, values[0].nbytes)))


def finite(x):
    """``x``, a field or a norm (which any NaN or infinite entry of its
    field leaves non-finite), once every entry is checked to be finite."""
    if not np.all(np.isfinite(x)):
        raise ValueError("space-time field has non-finite entries")
    return x


def measure_norm(values: np.ndarray, times: np.ndarray,
                 cell_volume: float) -> float:
    """Space-time L1 norm of ``values`` (time, cells...): Riemann sum with
    cell volumes, trapezoid weights over ``times``.  As a total-mass
    surrogate it bounds the measure norm."""
    return finite(mass_of_snapshots(snapshot_l1(values), cell_volume,
                                    time_weights(times)))


def snapshot_l1(values: np.ndarray) -> np.ndarray:
    """Sum of ``|values|`` over the cells of each snapshot.  A snapshot's sum
    does not depend on the others in ``values``, so sums taken block by
    block are those of the whole field (the split's oracle tests pin it)."""
    return np.sum(np.abs(values), axis=tuple(range(1, values.ndim)))


def mass_of_snapshots(sums: np.ndarray, cell_volume: float,
                      weights: np.ndarray) -> float:
    """The space-time integral of per-snapshot sums over the cells: what
    ``measure_norm`` gives from the sums of ``|values|``."""
    return float(np.sum(sums * cell_volume * weights))


# ---------------------------------------------------------------------------
# Dirichlet dual norm in sine bases


def _eigenvalues(modes: np.ndarray, m: int, h: float) -> np.ndarray:
    """Stencil eigenvalues of sine ``modes`` of an axis whose zero face is
    at sample ``m`` (n on a cell axis, n + 1 on a node axis), as
    ``4 sin^2(theta/2) / h^2``: the same values as ``(2 - 2 cos theta) /
    h^2``, without the cancellation that form suffers for the low modes."""
    return (2.0 * np.sin(modes * (0.5 * np.pi / m)) / h) ** 2


def _column_blocks(n: int, cols: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` column blocks of a ``(n, cols)`` array
    for the DST-I along time: a multiple of 64 columns of about BLOCK_BYTES,
    the columns left over joined to the last block, so none is narrower than
    64 columns unless the array is.  On OpenBLAS 0.3.31 a product over
    blocks whose widths are multiples of 8 gives the bytes of the
    whole-array product (every shipped grid has a multiple of 8 cells); the
    columns past a multiple of 8 can come out an ulp apart, and blocks of 1
    or 7 columns differ by up to 2.2e-15."""
    width = 64 * max(1, BLOCK_BYTES // (512 * n))
    return [(a, a + width if a + 2 * width <= cols else cols)
            for a in range(0, max(cols - width, 0) + 1, width)]


def _node_coefficients(x: np.ndarray, out: np.ndarray,
                       buf: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along axis 0, written into ``out``, which may be
    ``x`` itself: one product with the sine matrix, of modes 1..n in order,
    per block of columns, through the front of the flat buffer ``buf``.  A
    block's product reads only its own columns, so it is written back over
    them.

    The time axis is a few dozen samples long, so the dense matrix is small.
    Its arguments are reduced modulo 2(n+1) as integers, so every sine is
    evaluated on [0, 2 pi).
    """
    n = x.shape[0]
    k = np.arange(1, n + 1)
    turns = np.outer(k, k) % (2 * (n + 1))
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(turns * (np.pi / (n + 1)))
    x2, out2 = x.reshape(n, -1), out.reshape(n, -1)
    for a, b in _column_blocks(n, x2.shape[1]):
        part = buf[:n * (b - a)].reshape(n, b - a)
        np.dot(sines, x2[:, a:b], out=part)
        out2[:, a:b] = part
    return out


def _cell_modes(n: int) -> np.ndarray:
    """Mode numbers of the DST-II coefficients in the order
    ``_cell_coefficients`` leaves them: n, n-1, ..., n - n//2, then 1, 2,
    ..., (n-1)//2."""
    return np.concatenate((n - np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)))


def _cell_coefficients(x: np.ndarray, axis: int, seq: np.ndarray,
                       spectrum: np.ndarray) -> None:
    """Orthonormal DST-II along ``axis`` by Makhoul's algorithm, in place.

    The DST-II of ``x`` is the DCT-II of ``(-1)^j x_j`` in reverse order.
    That sequence, its even samples first and its odd samples reversed after
    them, goes through one length-n ``rfft``; twiddle ``m`` turns bin ``m``
    into the pair (DCT-II ``m``, minus DCT-II ``n - m``), i.e. the DST-II
    coefficients of modes ``n - m`` and ``m``, up to sign.  ``x`` receives
    the real parts (modes n, n-1, ..., n - n//2), then the imaginary parts
    of bins 1..(n-1)//2 (modes 1, 2, ...).  The sequence and its spectrum
    go into the fronts of the flat buffers ``seq`` and ``spectrum``.
    """
    n = x.shape[axis]
    half = (n + 1) // 2
    bins = np.arange(n // 2 + 1)
    v = seq[:x.size].reshape(x.shape)
    z_shape = x.shape[:axis] + (bins.size,) + x.shape[axis + 1:]
    z = spectrum[:x.size // n * bins.size].reshape(z_shape)
    xl, vl = np.moveaxis(x, axis, -1), np.moveaxis(v, axis, -1)
    vl[..., :half] = xl[..., 0::2]
    np.negative(xl[..., 1::2][..., ::-1], out=vl[..., half:])
    zl = np.moveaxis(np.fft.rfft(v, axis=axis, out=z), axis, -1)
    zl *= (np.sqrt(np.where(bins == 0, 1.0, 2.0) / n)
           * np.exp(-0.5j * np.pi / n * bins))
    xl[..., :bins.size] = zl.real
    xl[..., bins.size:] = zl.imag[..., 1:half]


def dirichlet_dual_norm(g: np.ndarray, spacings, out=None) -> float:
    """Dual norm of ``g`` against the discrete H1_0 energy on the space-time
    lattice: axis 0 a node (time) axis, zero one spacing beyond its end
    samples, and every other axis a cell axis, zero at the half-spacing
    face.  Returns ``sqrt(cellvol * sum(ghat**2 / Lambda))`` over the
    orthonormal sine coefficients ``ghat`` (see the module docstring).

    The coefficients go into ``out``: a C-contiguous array of ``g``'s shape,
    a new one when not given, or ``g`` itself, which is then transformed in
    place.  The transform along axis 0 runs on column blocks of about
    BLOCK_BYTES (see ``_column_blocks``); the cell axes' transforms and the
    quotient ``ghat**2 / Lambda`` then run on slabs of rows of about
    BLOCK_BYTES, in place in ``out``, and one sum over it ends the norm.
    Each column's and each line's transform and each element's quotient do
    not depend on the others, so the blocks give the values of the
    whole-array transforms.  The blocks' products and the slabs' reordered
    sequences and spectra take the fronts of two flat buffers, which each
    call makes.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != len(spacings):
        raise ValueError("spacings arity must match array rank")
    # each axis's eigenvalues in the order its transform leaves the modes,
    # shaped to broadcast along that axis
    evs = []
    for axis, (n, h) in enumerate(zip(g.shape, spacings)):
        shape = [1] * g.ndim
        shape[axis] = -1
        modes, m = ((np.arange(1, n + 1), n + 1) if axis == 0
                    else (_cell_modes(n), n))
        evs.append(_eigenvalues(modes, m, h).reshape(shape))
    if out is None:
        out = np.empty(g.shape)
    elif (out.shape != g.shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        # np.dot would write into a reshaped copy of any other array
        raise ValueError("out must be a C-contiguous float64 array of "
                         "g's shape")
    a, b = _column_blocks(len(g), out.size // len(g))[-1]
    blocks = snapshot_blocks(out)
    size = out[blocks[0]].size
    seq = np.empty(max(size, len(g) * (b - a)))
    spectrum = np.empty(max((size // n * (n // 2 + 1) for n in g.shape[1:]),
                            default=0), np.complex128)
    _node_coefficients(g, out, seq)
    for rows in blocks:
        x = out[rows]
        for axis in range(1, g.ndim):
            _cell_coefficients(x, axis, seq, spectrum)
        # Lambda summed over the axes in order, the last sum written into
        # the sequence buffer, where ghat**2 / Lambda is then formed as
        # (ghat / Lambda) * ghat and written back over ghat
        slab_evs = [evs[0][rows]] + evs[1:]
        q = np.add(sum(slab_evs[:-1], 0.0), slab_evs[-1],
                   out=seq[:x.size].reshape(x.shape))
        np.divide(x, q, out=q)
        np.multiply(q, x, out=x)
    return float(np.sqrt(out.sum() * float(np.prod(spacings))))


def h_minus_one_norm(values: np.ndarray, times: np.ndarray, spacing,
                     out=None) -> float:
    """Negative-order Sobolev norm of a space-time residual field ``values``
    (time, cells...), sampled at ``times`` on cells of ``spacing``.

    The first and last snapshots lie on the cylinder boundary, where the test
    functions vanish, so only interior time slices enter the norm; they are
    handed over as the ``(time, cells...)`` block they are stored as, and a
    non-finite entry among them is rejected through the norm it leaves
    non-finite.  ``out``, an array of that block's shape, receives the
    coefficients, so the norms of many fields of one shape can share it;
    it may be the block itself, ``values[1:-1]``, which the norm then
    overwrites.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 3:
        raise ValueError("need at least 3 snapshots for the space-time norm")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14):
        raise ValueError("snapshots must be uniform in time")
    spacings = (float(steps[0]),) + tuple(spacing)
    return finite(dirichlet_dual_norm(values[1:-1], spacings, out))
