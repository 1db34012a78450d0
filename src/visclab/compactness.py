"""Diagnostics for the compactness program.

Instruments: the weighted gradient energy of the energy estimate, the split
of the entropy production into a divergence part (measured in the
negative-order norm) and a signed dissipation part (measured in the
total-mass norm), the time-derivative bound, windowed value histograms
standing in for the parametrized limit measures, a div-curl deviation test,
and the two-dimensional compensated quadratic.

Weak limits have no finite-data counterpart, so coarse space-time window
averages of the finest ladder member stand in for them throughout; window
sizes are configuration knobs and are reported with the outputs.

The compensated quadratic keeps its three flux tables in ``CompensatedQuad``.
Its comparison field c is a plain array on the coarse window lattice:
``attach_c_field`` fixes it from one anchor trajectory, and
``compensated_D_field`` takes it, with its window, next to the tables, so one
set of tables serves any anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .domain import EntropyPair, FieldTrajectory, FluxSpec, ViscositySpec
from .norms import (blocks_of, finite, h_minus_one_norm, mass_of_snapshots,
                    snapshot_blocks, snapshot_l1, time_weights)
# bound here, though no longer called here, for the benchmark's trace probe
# (perfbench/probe.py), which wraps compactness.measure_norm by name
from .norms import measure_norm  # noqa: F401
from .tables import TableLattice


# ---------------------------------------------------------------------------
# entropy production


def _along(ndim: int, axis: int, lo, hi) -> tuple:
    """Index of ``lo:hi`` along ``axis`` and of everything on the others."""
    sl = [slice(None)] * ndim
    sl[axis] = slice(lo, hi)
    return tuple(sl)


def _faces(op, values: np.ndarray, axis: int, ghost: float,
           reach: int = 1) -> np.ndarray:
    """``op(v[i + reach], v[i])`` along ``axis`` of ``values`` bordered by
    one ghost cell of value ``ghost`` at either end, without the bordered
    copy: with ``reach`` 1 the two cells on either side of every face, with
    ``reach`` 2 the two neighbours of every cell, of which ``values`` holds
    at least ``reach`` along ``axis``."""
    nd = values.ndim
    shape = list(values.shape)
    shape[axis] += 2 - reach
    out = np.empty(shape)
    op(values[_along(nd, axis, reach, None)],
       values[_along(nd, axis, None, -reach)],
       out=out[_along(nd, axis, 1, -1)])
    op(values[_along(nd, axis, reach - 1, reach)], ghost,
       out=out[_along(nd, axis, 0, 1)])
    op(ghost, values[_along(nd, axis, -reach, 1 - reach or None)],
       out=out[_along(nd, axis, -1, None)])
    return out


def _centered_space(values: np.ndarray, axis: int, h: float,
                    boundary_value: float) -> np.ndarray:
    """(v_{i+1} - v_{i-1}) / 2h with Dirichlet ghost values outside."""
    out = _faces(np.subtract, values, axis, boundary_value, reach=2)
    out /= 2.0 * h
    return out


def grad_energy_lhs(traj: FieldTrajectory) -> float:
    """sum_j eps * ||d_j u||^2 over the cylinder, centered differences.

    Each snapshot's sum of squares is taken block by block, so only one
    block's gradient is held; a snapshot's sum does not depend on the
    others, so the sums are those of the whole field."""
    u = finite(traj.values)
    w = time_weights(traj.times)
    grid = traj.grid
    per_snap = np.empty(u.shape[0])
    total = 0.0
    for axis in range(grid.dim):
        for blk in snapshot_blocks(u):
            g = _centered_space(u[blk], axis + 1, grid.spacing[axis], 0.0)
            per_snap[blk] = np.sum(g * g, axis=tuple(range(1, g.ndim)))
        total += mass_of_snapshots(per_snap, grid.cell_volume, w)
    return traj.epsilon * total


def decompose_production(traj: FieldTrajectory, pairs: list[EntropyPair],
                         visc: ViscositySpec,
                         eps: float) -> list[tuple[float, float]]:
    """Split each pair's production into divergence and dissipation parts.

    A = eps sum_j D_j(B(face mean) D_j eta(u)) in flux form, M = -eps sum_j
    B(u) (centered gradient)^2 eta''(u).  M is nonpositive for every convex
    entropy because B has a positive floor.  Returns ``(h1_norm_A,
    measure_norm_M)`` of each pair, in the order of ``pairs``.

    What no entropy enters is computed once for all pairs: B at the face
    means when its table is flat (``tables.flat_value``; other presets
    evaluate it per block and pair, so no face field is held), and, one
    block of snapshots at a time, the block's ``-eps sum_j B(u) (centered
    gradient)^2``, from which every pair's M of the block is formed and
    reduced to its per-snapshot sums, so neither it nor M is ever held
    whole.  A then goes pair by pair, in one A buffer, whose interior each
    pair's dual norm transforms in place.
    """
    if eps <= 0:
        raise ValueError("the split is defined for positive viscosity")
    grid = traj.grid
    u = traj.values
    blocks = snapshot_blocks(u)
    sums = np.empty((len(pairs), u.shape[0]))
    mneg = np.empty((blocks[0].stop,) + u.shape[1:])
    for blk in blocks:
        ub = u[blk]
        mneg_blk = mneg[:ub.shape[0]]
        mneg_blk.fill(0.0)
        _dissipation_block(ub, visc, eps, grid.spacing, mneg_blk)
        for i, pair in enumerate(pairs):
            M = mneg_blk * np.asarray(pair.etapp(ub), dtype=np.float64)
            sums[i, blk] = snapshot_l1(finite(M))
    # the block buffer (which its view mneg_blk would keep) and the last M
    # go before A is made, or they would stay live through the A pass
    mneg = mneg_blk = M = None
    weights = time_weights(traj.times)
    b_face = tables.flat_value(visc.table)
    A = np.empty_like(u)
    norms = []
    for i, pair in enumerate(pairs):
        eta_ghost = float(np.asarray(pair.eta(0.0)))
        for blk in blocks:
            _divergence_block(u[blk], pair, visc, b_face, eps, grid.spacing,
                              eta_ghost, A[blk])
        norms.append((h_minus_one_norm(A, traj.times, grid.spacing, A[1:-1]),
                      mass_of_snapshots(sums[i], grid.cell_volume, weights)))
    return norms


def _dissipation_block(u: np.ndarray, visc: ViscositySpec, eps: float,
                       spacing, out: np.ndarray) -> None:
    """-eps sum_j B(u) (centered gradient)^2 of the snapshots ``u``,
    accumulated into the zeroed ``out``."""
    b_of_u = np.asarray(visc.B(u), dtype=np.float64)
    for axis, h in enumerate(spacing):
        gc = _centered_space(u, axis + 1, h, 0.0)
        out += b_of_u * gc * gc
    out *= -eps


def _divergence_block(u: np.ndarray, pair: EntropyPair, visc: ViscositySpec,
                      b_face: float | None, eps: float, spacing,
                      eta_ghost: float, A: np.ndarray) -> None:
    """A of the snapshots ``u``, written into ``A``: the first axis's term
    straight into it and each later one added, so A holds the sum a zeroed
    A accumulates (up to the sign of a zero, which no norm of it sees); B
    at the face means is ``b_face`` when given."""
    eta_u = np.asarray(pair.eta(u), dtype=np.float64)
    for axis, h in enumerate(spacing):
        div = _axis_divergence(u, eta_u, axis + 1, h, visc, b_face,
                               eta_ghost, eps, None if axis else A)
        if axis:
            A += div


def _axis_divergence(u: np.ndarray, eta_u: np.ndarray, ax: int, h: float,
                     visc: ViscositySpec, b_face: float | None,
                     eta_ghost: float, eps: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """eps * (face after - face before) / h along ``ax`` of the face values
    B(face mean) * (eta right - eta left) / h, written into ``out`` when
    given.  Each temporary goes once it is read, the face B before the
    difference is formed, and the rest on return, before the next axis
    allocates its own."""
    b = b_face
    if b is None:
        mean = _faces(np.add, u, ax, 0.0)
        mean *= 0.5
        b = np.asarray(visc.B(mean), dtype=np.float64)
        del mean
    face = _faces(np.subtract, eta_u, ax, eta_ghost)
    face *= b
    del b
    face /= h
    div = np.subtract(face[_along(u.ndim, ax, 1, None)],
                      face[_along(u.ndim, ax, None, -1)], out=out)
    div *= eps
    div /= h
    return div


def time_derivative_l1(traj: FieldTrajectory) -> float:
    """L1 norm over the cylinder of the forward-difference time derivative."""
    if traj.num_snapshots < 2:
        raise ValueError("need at least 2 snapshots")
    d = np.diff(traj.values, axis=0)
    return float(np.sum(np.abs(d, out=d))) * traj.grid.cell_volume


# ---------------------------------------------------------------------------
# windowed value distributions


@dataclass(frozen=True)
class YoungHistogramSet:
    interval: tuple[float, float]
    window: tuple[int, ...]       # snapshots, cells per axis
    bin_edges: np.ndarray
    probabilities: np.ndarray     # (num_windows, bins)
    means: np.ndarray
    variances: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


BIN_SLACK = 1e-8


def young_histograms(traj: FieldTrajectory, interval: tuple[float, float],
                     window_cells: int, window_snaps: int,
                     bins: int) -> YoungHistogramSet:
    """Per space-time window, the normalized histogram of u values over I."""
    grid = traj.grid
    nt = traj.num_snapshots
    if nt % window_snaps != 0:
        raise ValueError(f"window of {window_snaps} snapshots does not divide "
                         f"{nt} snapshots")
    for n in grid.cells:
        if n % window_cells != 0:
            raise ValueError(f"window of {window_cells} cells does not divide "
                             f"{n} cells")
    lo, hi = interval
    v = traj.values
    if v.min() < lo - BIN_SLACK or v.max() > hi + BIN_SLACK:
        raise ValueError("values fall outside the invariant interval; the "
                         "empirical measures require the maximum principle")
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    # One coarse time window at a time: clip its snapshots straight into the
    # window-major layout (X[, Y], t, x[, y]), bin them in place, and count
    # every window's bins with one bincount of row * bins + bin index.  The
    # counts are integers, so the histograms are those of the whole field.
    # ``split`` is (t, X, x[, Y, y]): the coarse axes are its odd axes, the
    # cells within a window its even axes after t.
    coarse = [n // window_cells for n in grid.cells]
    split = [window_snaps] + [m for c in coarse for m in (c, window_cells)]
    order = (*range(1, 2 * grid.dim, 2), 0, *range(2, 2 * grid.dim + 1, 2))
    rows = int(np.prod(coarse))
    size = window_snaps * window_cells ** grid.dim
    # probs first: it outlives the window buffers, and allocated below them
    # it lets the heap hand their pages back (allocated after them it held
    # the 2-D verify's peak RSS about 2 MB higher)
    probs = np.empty((nt // window_snaps * rows, bins))
    scaled = np.empty((rows, size))
    idx = np.empty((rows, size), dtype=np.int64)
    row_offsets = (np.arange(rows) * bins)[:, None]
    for w in range(nt // window_snaps):
        win = v[w * window_snaps:(w + 1) * window_snaps]
        np.clip(win.reshape(split).transpose(order), lo, hi,
                out=scaled.reshape(coarse + split[::2]))
        scaled -= lo
        scaled /= width
        np.copyto(idx, scaled, casting="unsafe")
        np.minimum(idx, bins - 1, out=idx)
        idx += row_offsets
        probs[w * rows:(w + 1) * rows] = np.bincount(
            idx.ravel(), minlength=rows * bins).reshape(rows, bins)
    probs /= size
    centers = 0.5 * (edges[:-1] + edges[1:])
    means = probs @ centers
    variances = probs @ centers**2 - means**2
    return YoungHistogramSet((lo, hi), (window_snaps, window_cells),
                             edges, probs, means, variances)


def dirac_concentration(hset: YoungHistogramSet) -> float:
    """Mean per-window variance, normalized by |I|^2; zero iff point masses."""
    lo, hi = hset.interval
    return float(np.mean(hset.variances)) / (hi - lo) ** 2


def young_w1_distance(hset_a: YoungHistogramSet,
                      hset_b: YoungHistogramSet) -> float:
    """Mean over windows of the W1 distance between two histogram sets.

    Both sets must share interval, windows and bins; the distance is taken
    between the bin-lattice distributions, sum |cdf_a - cdf_b| * bin width,
    and normalized by |I|.  Zero iff every window histogram agrees.
    """
    if hset_a.interval != hset_b.interval:
        raise ValueError("histogram sets cover different intervals")
    if (hset_a.window != hset_b.window
            or hset_a.probabilities.shape[0] != hset_b.probabilities.shape[0]):
        raise ValueError("histogram sets use different windows")
    if not np.array_equal(hset_a.bin_edges, hset_b.bin_edges):
        raise ValueError("histogram sets use different bins")
    lo, hi = hset_a.interval
    width = hset_a.bin_edges[1] - hset_a.bin_edges[0]
    cdf_gap = np.cumsum(hset_a.probabilities - hset_b.probabilities, axis=1)
    per_window = np.sum(np.abs(cdf_gap), axis=1) * width
    return float(np.mean(per_window)) / (hi - lo)


def flux_identity_gap(hset: YoungHistogramSet, flux: FluxSpec,
                      axis: int = 0) -> float:
    """Mean over windows of |<nu, f> - f(<nu, lambda>)|."""
    comp = flux.components[axis]
    f_centers = np.asarray(comp.f(hset.bin_centers), dtype=np.float64)
    nu_f = hset.probabilities @ f_centers
    f_mean = np.asarray(comp.f(hset.means), dtype=np.float64)
    return float(np.mean(np.abs(nu_f - f_mean)))


# ---------------------------------------------------------------------------
# div-curl deviation


def _window_means(of_block, snaps: int,
                  window: tuple[int, ...]) -> np.ndarray:
    """Means over the coarse space-time windows ``window`` of a field of
    ``snaps`` snapshots, whose snapshots ``blk`` ``of_block(blk)`` gives;
    trailing ragged windows keep their own mean.  The field is read one
    coarse time window at a time and reduced to its time mean at once, so
    it is never held whole; the means over each cell axis follow."""
    out = np.concatenate([of_block(blk).mean(axis=0, keepdims=True)
                          for blk in blocks_of(snaps, window[0])])
    for axis, w in enumerate(window[1:], 1):
        out = np.concatenate(
            [out[(slice(None),) * axis + (blk,)].mean(axis=axis, keepdims=True)
             for blk in blocks_of(out.shape[axis], w)], axis=axis)
    return out


def _block_expand(coarse: np.ndarray, window: tuple[int, ...],
                  shape: tuple[int, ...]) -> np.ndarray:
    """Broadcast coarse block values back onto the fine lattice."""
    out = coarse
    for axis, (w, n) in enumerate(zip(window, shape)):
        out = np.repeat(out, w, axis=axis)[_along(out.ndim, axis, 0, n)]
    return out


def div_curl_test(G: tuple[np.ndarray, np.ndarray],
                  H: tuple[np.ndarray, np.ndarray],
                  window: tuple[int, ...]) -> float:
    """max over coarse windows of |avg(G.H) - avg(G).avg(H)|."""
    g1, g2 = G
    h1, h2 = H
    if any(f.shape != g1.shape for f in (g2, h1, h2)):
        raise ValueError("div-curl fields must share one lattice")
    nt = len(g1)
    # G.H one coarse time window at a time, so it is never held whole
    avg_dot = _window_means(lambda blk: g1[blk] * h1[blk] + g2[blk] * h2[blk],
                            nt, window)
    avg = lambda f: _window_means(f.__getitem__, nt, window)
    prod = avg(g1) * avg(h1) + avg(g2) * avg(h2)
    return float(np.max(np.abs(avg_dot - prod)))


# ---------------------------------------------------------------------------
# compensated quadratic (two space dimensions)


@dataclass(frozen=True)
class CompensatedQuad:
    """Tabulated integrals of (f1')^2, f1'f2' and (f2')^2 on the lattice."""

    lattice: TableLattice
    F11: np.ndarray
    F12: np.ndarray
    F22: np.ndarray


def tartar_pair_table(flux: FluxSpec, tol: float) -> np.ndarray:
    """g(lambda) = integral of (f1')^2: the 1-D companion flux to f itself,
    and the ``F11`` table of the compensated quadratic."""
    c1 = flux.components[0]
    return tables.cumulative_table(lambda s: np.asarray(c1.fp(s)) ** 2,
                                   flux.lattice, tol)


def build_compensated_quad(flux: FluxSpec, tol: float,
                           f11: np.ndarray) -> CompensatedQuad:
    """The compensated quadratic's tables; ``f11`` is ``tartar_pair_table(
    flux, tol)``, which the runtime already holds."""
    # in 1-D the second component is the first
    c1, c2 = flux.components[0], flux.components[-1]
    lat = flux.lattice
    F12 = tables.cumulative_table(
        lambda s: np.asarray(c1.fp(s)) * np.asarray(c2.fp(s)), lat, tol)
    F22 = tables.cumulative_table(lambda s: np.asarray(c2.fp(s)) ** 2, lat, tol)
    return CompensatedQuad(lat, f11, F12, F22)


# bisection stops once a target's own bracket is at most this wide
C_TOL = 1e-10


def choose_c(f11_bar: np.ndarray, quad: CompensatedQuad) -> tuple[np.ndarray, int]:
    """Per window, c with F11(c) equal to the window average of F11(u), by
    bisection of the table interpolant.

    Requires F11 strictly increasing on I, i.e. f1' nonzero almost everywhere
    (the genuine-nonlinearity condition).  Targets outside the table range
    are clamped to the interval ends; the count returned is of those beyond
    it by more than 1e-15, more than discretization noise.
    """
    lattice, values = quad.lattice, quad.F11
    if np.min(np.diff(values)) < 0 or float(values[-1] - values[0]) <= 0:
        raise ValueError("F11 must be strictly increasing on I to pick c")
    targets = f11_bar.ravel()
    vlo, vhi = float(values[0]), float(values[-1])
    below = targets <= vlo
    above = ~below & (targets >= vhi)
    a = np.full(targets.shape, lattice.lo)
    b = np.full(targets.shape, lattice.hi)
    active = ~(below | above) & (b - a > C_TOL)
    while active.any():
        mid = 0.5 * (a + b)
        lower = tables.interp(lattice, values, mid) < targets
        a = np.where(active & lower, mid, a)
        b = np.where(active & ~lower, mid, b)
        active &= b - a > C_TOL
    c = 0.5 * (a + b)
    c[below] = lattice.lo
    c[above] = lattice.hi
    clamped = (np.count_nonzero(targets[below] < vlo - 1e-15)
               + np.count_nonzero(targets[above] > vhi + 1e-15))
    return c.reshape(f11_bar.shape), int(clamped)


def attach_c_field(quad: CompensatedQuad, anchor: FieldTrajectory,
                   window: tuple[int, ...]) -> np.ndarray:
    """The comparison field c on the coarse lattice of ``window``, from the
    window averages of F11 over the anchor member, F11(u) formed one coarse
    time window at a time."""
    u = anchor.values
    f11_bar = _window_means(
        lambda blk: tables.interp(quad.lattice, quad.F11, u[blk]), len(u),
        window)
    return choose_c(f11_bar, quad)[0]


def compensated_D_field(traj: FieldTrajectory, quad: CompensatedQuad,
                        c_field: np.ndarray, window: tuple[int, ...],
                        out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise nonnegative quadratic D(u) against ``c_field``, the
    c-field ``attach_c_field`` fixed on the coarse lattice of ``window``,
    written into ``out`` (a new array when not given).  ``out`` may be
    ``traj.values``: each block of snapshots is read before its D is
    written over it."""
    if traj.grid.dim != 2:
        raise ValueError("the compensated quadratic is a d = 2 diagnostic")
    u = traj.values
    D = np.empty_like(u) if out is None else out
    # F11, F22 and F12 as one stack, each block located once; F(c) on the
    # coarse c-field itself, expanded per block onto the cells of the
    # block's snapshots, whose snapshot t lies in coarse time window t //
    # window[0].  Table reads are elementwise, so the values are those of
    # reading F on the expanded c
    stack = np.stack((quad.F11, quad.F22, quad.F12))
    f_c = tables.interp(quad.lattice, stack, c_field)
    for blk in snapshot_blocks(u):
        ub = u[blk]
        rows = np.arange(blk.start, blk.stop) // window[0]
        d11, d22, d12 = reads = tables.interp(quad.lattice, stack, ub)
        for read, fc in zip(reads, f_c):
            read -= _block_expand(fc[rows], (1,) + window[1:], ub.shape)
        finite(np.subtract(d11 * d22, d12 * d12, out=D[blk]))
    return D
