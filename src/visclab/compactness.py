"""Diagnostics for the compactness program.

Instruments: the split of the entropy production into a divergence part
(measured in the negative-order norm) and a signed dissipation part
(measured in the total-mass norm), the time-derivative bound, windowed value
histograms standing in for the parametrized limit measures, a div-curl
deviation test, and the two-dimensional compensated quadratic.

Weak limits have no finite-data counterpart, so coarse space-time window
averages of the finest ladder member stand in for them throughout; window
sizes are configuration knobs and are reported with the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .domain import EntropyPair, FieldTrajectory, FluxSpec, ViscositySpec
from .norms import SpaceTimeField, h_minus_one_norm, measure_norm
from .tables import TableLattice


# ---------------------------------------------------------------------------
# snapshot blocks


# Per-snapshot work (elementwise maps and stencils inside one snapshot) runs
# on blocks of whole snapshots of about this many bytes, written into
# preallocated full-size outputs, so only one block's temporaries are live at
# a time.  Reductions and transforms still run on the full arrays, so every
# value is the one a single block gives.  At 256 KB a block's dozen or so
# temporaries stay small enough for the heap to reuse their pages, where 1 MB
# blocks had them faulted in afresh (verify of the 2-D scenario: about 100k
# against 225k minor faults), and a 65 x 400 1-D field is still one block.
BLOCK_BYTES = 1 << 18


def _snapshot_blocks(values: np.ndarray) -> list[slice]:
    """Consecutive slices of whole snapshots, each about BLOCK_BYTES."""
    n = values.shape[0]
    per = max(1, BLOCK_BYTES // max(1, values[0].nbytes))
    return [slice(a, min(a + per, n)) for a in range(0, n, per)]


# ---------------------------------------------------------------------------
# entropy production


def _along(ndim: int, axis: int, lo, hi) -> tuple:
    """Index of ``lo:hi`` along ``axis`` and of everything on the others."""
    sl = [slice(None)] * ndim
    sl[axis] = slice(lo, hi)
    return tuple(sl)


def _pad(values: np.ndarray, axis: int, ghost: float) -> np.ndarray:
    """``values`` with a ghost cell of value ``ghost`` at either end of
    ``axis``."""
    ext_shape = list(values.shape)
    ext_shape[axis] += 2
    ext = np.full(ext_shape, ghost, dtype=np.float64)
    ext[_along(values.ndim, axis, 1, -1)] = values
    return ext


def _centered_space(values: np.ndarray, axis: int, h: float,
                    boundary_value: float) -> np.ndarray:
    """(v_{i+1} - v_{i-1}) / 2h with Dirichlet ghost values outside."""
    ext = _pad(values, axis, boundary_value)
    return (ext[_along(values.ndim, axis, 2, None)]
            - ext[_along(values.ndim, axis, None, -2)]) / (2.0 * h)


@dataclass(frozen=True)
class EntropyProductionSplit:
    eps: float
    divergence_part: SpaceTimeField   # flux-form, vanishes in the dual norm
    dissipation_part: SpaceTimeField  # signed, bounded in total mass
    h1_norm_A: float
    measure_norm_M: float


def decompose_production(traj: FieldTrajectory, pair: EntropyPair,
                         visc: ViscositySpec, eps: float) -> EntropyProductionSplit:
    """Split the production into divergence and dissipation parts.

    A = eps sum_j D_j(B(face mean) D_j eta(u)) in flux form, M = -eps sum_j
    B(u) (centered gradient)^2 eta''(u).  M is nonpositive for every convex
    entropy because B has a positive floor.
    """
    if eps <= 0:
        raise ValueError("the split is defined for positive viscosity")
    grid = traj.grid
    u = traj.values
    eta_ghost = float(np.asarray(pair.eta(0.0)))
    A = np.zeros_like(u)
    M = np.zeros_like(u)
    for blk in _snapshot_blocks(u):
        _split_block(u[blk], pair, visc, eps, grid.spacing, eta_ghost,
                     A[blk], M[blk])
    fa = SpaceTimeField(grid, traj.times, A)
    fm = SpaceTimeField(grid, traj.times, M)
    return EntropyProductionSplit(eps, fa, fm, h_minus_one_norm(fa),
                                  measure_norm(fm))


def _split_block(u: np.ndarray, pair: EntropyPair, visc: ViscositySpec,
                 eps: float, spacing, eta_ghost: float, A: np.ndarray,
                 M: np.ndarray) -> None:
    """A and M of the snapshots ``u``, accumulated into the zeroed ``A``, ``M``."""
    eta_u = np.asarray(pair.eta(u), dtype=np.float64)
    b_of_u = np.asarray(visc.B(u), dtype=np.float64)
    etapp_u = np.asarray(pair.etapp(u), dtype=np.float64)
    for axis, h in enumerate(spacing):
        ax = axis + 1
        u_ext = _pad(u, ax, 0.0)
        eta_ext = _pad(eta_u, ax, eta_ghost)
        # the left and right side of each face; of a face array, the faces
        # before and after each cell
        lo, hi = _along(u.ndim, ax, None, -1), _along(u.ndim, ax, 1, None)
        ul, ur = u_ext[lo], u_ext[hi]
        el, er = eta_ext[lo], eta_ext[hi]
        face = np.asarray(visc.B(0.5 * (ul + ur)), dtype=np.float64) * (er - el) / h
        A += eps * (face[hi] - face[lo]) / h
        gc = _centered_space(u, ax, h, 0.0)
        M += b_of_u * gc * gc
    # the factors of -eps M eta''(u) in the order that product evaluates them
    M *= -eps
    M *= etapp_u


def time_derivative_l1(traj: FieldTrajectory) -> float:
    """L1 norm over the cylinder of the forward-difference time derivative."""
    if traj.num_snapshots < 2:
        raise ValueError("need at least 2 snapshots")
    diffs = np.abs(np.diff(traj.values, axis=0))
    return float(np.sum(diffs)) * traj.grid.cell_volume


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


def _segments(n: int, w: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` blocks of ``w`` along ``n``; a trailing
    ragged block keeps what is left."""
    stops = list(range(w, n + 1, w))
    if not stops or stops[-1] != n:
        stops.append(n)
    return list(zip([0] + stops[:-1], stops))


def _block_means(arr: np.ndarray, window: tuple[int, ...]) -> np.ndarray:
    """Mean over coarse blocks; trailing ragged blocks keep their own mean."""
    out = arr
    for axis, w in enumerate(window):
        segs = [out[(slice(None),) * axis + (slice(a, b),)].mean(axis=axis,
                                                                  keepdims=True)
                for a, b in _segments(out.shape[axis], w)]
        out = np.concatenate(segs, axis=axis)
    return out


def _block_expand(coarse: np.ndarray, window: tuple[int, ...],
                  shape: tuple[int, ...]) -> np.ndarray:
    """Broadcast coarse block values back onto the fine lattice."""
    out = coarse
    for axis, (w, n) in enumerate(zip(window, shape)):
        reps = np.full(out.shape[axis], w, dtype=np.int64)
        pad = n - int(reps[:-1].sum())
        reps[-1] = pad
        out = np.repeat(out, reps, axis=axis)
    return out


def div_curl_test(G: tuple[np.ndarray, np.ndarray],
                  H: tuple[np.ndarray, np.ndarray],
                  window: tuple[int, ...]) -> float:
    """max over coarse windows of |avg(G.H) - avg(G).avg(H)|."""
    g1, g2 = G
    h1, h2 = H
    if any(f.shape != g1.shape for f in (g2, h1, h2)):
        raise ValueError("div-curl fields must share one lattice")
    # the time means of G.H one coarse time window at a time, so the product
    # is never held whole: each is the mean _block_means takes of the whole
    # product's slice, and a window of one snapshot passes them through
    avg_dot = np.concatenate([
        (g1[a:b] * h1[a:b] + g2[a:b] * h2[a:b]).mean(axis=0, keepdims=True)
        for a, b in _segments(g1.shape[0], window[0])])
    avg_dot = _block_means(avg_dot, (1,) + tuple(window[1:]))
    avg = lambda f: _block_means(f, window)
    prod = avg(g1) * avg(h1) + avg(g2) * avg(h2)
    return float(np.max(np.abs(avg_dot - prod)))


# ---------------------------------------------------------------------------
# compensated quadratic (two space dimensions)


@dataclass(frozen=True)
class CompensatedQuad:
    """Tabulated integrals of (f1')^2, f1'f2', (f2')^2 and the window c-field."""

    lattice: TableLattice
    F11: np.ndarray
    F12: np.ndarray
    F22: np.ndarray
    window: tuple[int, ...] | None = None
    c_field: np.ndarray | None = None       # coarse window lattice
    f11_bar: np.ndarray | None = None
    clamp_count: int = 0


def tartar_pair_table(flux: FluxSpec, tol: float) -> np.ndarray:
    """g(lambda) = integral of (f1')^2: the 1-D companion flux to f itself,
    and the ``F11`` table of the compensated quadratic."""
    c1 = flux.components[0]
    return tables.cumulative_table(lambda s: np.asarray(c1.fp(s)) ** 2,
                                   flux.lattice, tol)


def build_compensated_quad(flux: FluxSpec, tol: float) -> CompensatedQuad:
    # in 1-D the second component is the first
    c1, c2 = flux.components[0], flux.components[-1]
    lat = flux.lattice
    F12 = tables.cumulative_table(
        lambda s: np.asarray(c1.fp(s)) * np.asarray(c2.fp(s)), lat, tol)
    F22 = tables.cumulative_table(lambda s: np.asarray(c2.fp(s)) ** 2, lat, tol)
    return CompensatedQuad(lat, tartar_pair_table(flux, tol), F12, F22)


def _invert_increasing(lattice: TableLattice, values: np.ndarray,
                       targets: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Bisection inverse of a monotone table interpolant at every target.

    Each target is bisected until its own bracket is at most ``tol`` wide.
    Targets outside the table range are clamped to the interval ends; the
    count returned is of those beyond the range by more than 1e-15.
    """
    vlo, vhi = float(values[0]), float(values[-1])
    below = targets <= vlo
    above = ~below & (targets >= vhi)
    a = np.full(targets.shape, lattice.lo)
    b = np.full(targets.shape, lattice.hi)
    active = ~(below | above) & (b - a > tol)
    while active.any():
        mid = 0.5 * (a + b)
        lower = tables.interp(lattice, values, mid) < targets
        a = np.where(active & lower, mid, a)
        b = np.where(active & ~lower, mid, b)
        active &= b - a > tol
    c = 0.5 * (a + b)
    c[below] = lattice.lo
    c[above] = lattice.hi
    clamped = (np.count_nonzero(targets[below] < vlo - 1e-15)
               + np.count_nonzero(targets[above] > vhi + 1e-15))
    return c, int(clamped)


def choose_c(f11_bar: np.ndarray, quad: CompensatedQuad) -> tuple[np.ndarray, int]:
    """Per window, c with F11(c) equal to the window average of F11(u).

    Requires F11 strictly increasing on I, i.e. f1' nonzero almost everywhere
    (the genuine-nonlinearity condition).  Targets that fall outside the
    table range by discretization noise are clamped to the endpoint and
    counted.
    """
    dF = np.diff(quad.F11)
    if np.min(dF) < 0 or float(quad.F11[-1] - quad.F11[0]) <= 0:
        raise ValueError("F11 must be strictly increasing on I to pick c")
    c, clamped = _invert_increasing(quad.lattice, quad.F11, f11_bar.ravel())
    return c.reshape(f11_bar.shape), clamped


def attach_c_field(quad: CompensatedQuad, finest: FieldTrajectory,
                   window: tuple[int, ...]) -> CompensatedQuad:
    """Fix the comparison field c from coarse-window averages of the finest member."""
    u = finest.values
    f11_u = np.empty_like(u)
    for blk in _snapshot_blocks(u):
        f11_u[blk] = tables.interp(quad.lattice, quad.F11, u[blk])
    f11_bar = _block_means(f11_u, window)
    c_field, clamped = choose_c(f11_bar, quad)
    return CompensatedQuad(quad.lattice, quad.F11, quad.F12, quad.F22,
                           window=window, c_field=c_field, f11_bar=f11_bar,
                           clamp_count=clamped)


def compensated_D_field(traj: FieldTrajectory, quad: CompensatedQuad) -> SpaceTimeField:
    """Pointwise nonnegative quadratic D(u) against the window c-field."""
    if traj.grid.dim != 2:
        raise ValueError("the compensated quadratic is a d = 2 diagnostic")
    if quad.c_field is None or quad.window is None:
        raise ValueError("attach_c_field must run before evaluating D")
    lat = quad.lattice
    u = traj.values
    # F(c) on the coarse time lattice, expanded in space only; the snapshot
    # t of u lies in coarse time window t // w
    w = quad.window[0]
    coarse = (quad.c_field.shape[0],) + u.shape[1:]
    c = _block_expand(quad.c_field, (1,) + quad.window[1:], coarse)
    f11_c = tables.interp(lat, quad.F11, c)
    f22_c = tables.interp(lat, quad.F22, c)
    f12_c = tables.interp(lat, quad.F12, c)
    D = np.empty_like(u)
    for blk in _snapshot_blocks(u):
        ub = u[blk]
        rows = np.arange(blk.start, blk.stop) // w
        d11 = tables.interp(lat, quad.F11, ub) - f11_c[rows]
        d22 = tables.interp(lat, quad.F22, ub) - f22_c[rows]
        d12 = tables.interp(lat, quad.F12, ub) - f12_c[rows]
        np.subtract(d11 * d22, d12 * d12, out=D[blk])
    return SpaceTimeField(traj.grid, traj.times, D)

