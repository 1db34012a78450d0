"""Uniform value tables over the invariant interval and the quadrature that fills them.

Every nonlinear scalar function the solvers and instruments read per cell
(the Engquist-Osher flux integrals, face viscosity, the compensated quadratic
integrals) is tabulated once on a shared uniform lattice and evaluated by
linear interpolation afterwards.  Cumulative integrals are computed by an
adaptive composite Gauss-Legendre rule so that every node value carries an
absolute quadrature error below the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TABLE_NODES = 4096

# ``locate``'s clip floor, a 0-d float64 array: a ufunc takes it as it is,
# where it would convert a Python float on every call
_FLOOR = np.zeros(())

# the 8-node Gauss-Legendre rule on [-1, 1]: the bits of
# numpy.polynomial.legendre.leggauss(8), written out so that no command
# loads numpy.polynomial
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])

_MAX_REFINE = 48


@dataclass(frozen=True)
class TableLattice:
    """Uniform sample lattice on [lo, hi] shared by all tabulated functions."""

    lo: float
    hi: float
    n: int = TABLE_NODES

    @property
    def inv_spacing(self) -> float:
        return (self.n - 1) / (self.hi - self.lo)

    @property
    def panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, inv, top)`` of ``locate``, as 0-d float64 arrays that the
        ufuncs take without converting: the last panel's first node is
        nodes - 2."""
        return (np.array(self.lo), np.array(self.inv_spacing),
                np.array(self.n - 2.0))

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def locate(lo: float, inv: float, top: float, u: np.ndarray, out=None):
    """Table panel of each value of ``u``: ``(k, frac)``.

    ``k`` is the panel's first node and ``top`` the last such index;
    ``TableLattice.panels`` gives a lattice's ``(lo, inv, top)``.  Values
    outside [lo, hi] fall in the end panels.  One location serves every
    table on the same lattice, so callers locate a state once and
    ``lookup`` many tables.  ``out``, when given, is ``(k, frac, scratch)``
    of ``u``'s shape (int64, float64, float64) and receives the result;
    ``scratch`` holds the clipped float panel index.

    With ``s = (u - lo) * inv``, the panel index is ``s`` clipped to [0,
    top] and then truncated, which for every finite value is the same ``k``
    as flooring and then clipping, and ``frac = s - k``.  The truncation
    stays a double (``np.trunc``) and ``frac`` subtracts that double: a
    whole number below 2**53 converts to float64 exactly, so these are the
    doubles that subtracting the int64 ``k`` gives, without numpy's mixed
    int64-float64 loop.
    """
    k, s, kf = (None, None, None) if out is None else out
    s = np.subtract(u, lo, out=s)
    s *= inv
    # np.clip, spelled as its two ufuncs: its wrapper dominates on small
    # arrays
    kf = np.maximum(s, _FLOOR, out=kf)
    np.minimum(kf, top, out=kf)
    np.trunc(kf, out=kf)
    if k is None:
        k = kf.astype(np.int64)
    else:
        k[...] = kf
    s -= kf
    return k, s


def slopes(tab: np.ndarray) -> np.ndarray:
    """``tab[k + 1] - tab[k]`` of each panel ``k``, along the last axis of a
    stack of tables: tabulated once, the same subtraction ``lookup`` would
    otherwise make on every read."""
    return tab[..., 1:] - tab[..., :-1]


def flat_value(tab: np.ndarray) -> float | None:
    """Node 0 of ``tab`` when every node equals it (a flat table, such as
    the B table of a constant viscosity), else None."""
    return float(tab[0]) if (tab == tab[0]).all() else None


def lookup(tab: np.ndarray, slope: np.ndarray, loc, out=None,
           scratch=None) -> np.ndarray:
    """``slope[k] * frac + tab[k]``, i.e. ``t0 + frac * (t1 - t0)``, at a
    location from ``locate``; ``slope`` is ``slopes(tab)``.

    ``tab`` is one table or a stack of tables along a leading axis, all on
    one lattice; the result has one row per table, each the location's
    shape, so one location and one call read every table of the stack.
    ``out`` and ``scratch``, when given, are float64 buffers of the
    result's shape: ``out`` receives the result and ``scratch`` the
    ``tab[k]`` gather.  The gathers use ``mode="clip"``: ``k`` is already in
    range, and with the default ``mode="raise"`` numpy gathers into a buffer
    of its own before copying to ``out``.
    """
    k, frac = loc
    out = slope.take(k, axis=-1, out=out, mode="clip")
    # a stack row by row: broadcast over a small stack, the product would
    # go through a buffer of the stack's size that numpy allocates per call
    for row in out if tab.ndim > 1 else (out,):
        row *= frac
    out += tab.take(k, axis=-1, out=scratch, mode="clip")
    return out


def interp(lattice: TableLattice, values: np.ndarray, u) -> np.ndarray:
    """Piecewise-linear table lookup; clamps to the end panels outside [lo, hi].

    ``values`` is one table or a stack of tables on ``lattice``, read as
    ``lookup`` reads them: one row per table.  The same ``locate``/``lookup``
    arithmetic as the kernels in ``kernels`` and the loop twins in
    ``tests/oracles.py``, so all three agree bit for bit.  A scalar ``u``
    reads as an array of one value.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    return lookup(values, slopes(values), locate(*lattice.panels, u))


def _gl_panel(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimate of integral(f) on each [a_i, b_i]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _GL_X[None, :]
    y = f(x.ravel()).reshape(x.shape)
    return half * (y @ _GL_W)


def adaptive_panel_integrals(f, edges: np.ndarray, tol: float) -> np.ndarray:
    """Integral of f over each consecutive panel of ``edges``.

    Panels are bisected until the local Gauss-Legendre error estimate fits
    inside a share of ``tol`` proportional to panel length, so the summed
    absolute error over any node range stays below ``tol``.
    """
    edges = np.asarray(edges, dtype=np.float64)
    n = edges.size - 1
    out = np.zeros(n)
    if n == 0:
        return out
    total = abs(edges[-1] - edges[0])
    if total == 0.0:
        return out
    a = edges[:-1].copy()
    b = edges[1:].copy()
    owner = np.arange(n)
    for _ in range(_MAX_REFINE):
        coarse = _gl_panel(f, a, b)
        mid = 0.5 * (a + b)
        fine = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
        err = np.abs(fine - coarse)
        budget = tol * np.abs(b - a) / total
        done = err <= budget
        np.add.at(out, owner[done], fine[done])
        if done.all():
            break
        a, b, mid, owner = a[~done], b[~done], mid[~done], owner[~done]
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    else:
        # leftover panels are below resolvable width; keep their last estimate
        np.add.at(out, owner, _gl_panel(f, a, b))
    return out


def cumulative_table(f, lattice: TableLattice, tol: float) -> np.ndarray:
    """Node values of u -> integral of f from 0 to u, on the lattice.

    Zero is anchored exactly even when it falls between nodes.
    """
    nodes = lattice.nodes()
    panels = adaptive_panel_integrals(f, nodes, tol)
    cum = np.concatenate([[0.0], np.cumsum(panels)])
    shift = adaptive_panel_integrals(f, np.array([lattice.lo, 0.0]), tol)[0]
    return cum - shift


def sample_table(f, lattice: TableLattice) -> np.ndarray:
    """Node values of a directly evaluable function."""
    return np.asarray(f(lattice.nodes()), dtype=np.float64)


def critical_nodes(lattice: TableLattice, fprime_values: np.ndarray,
                   f_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table nodes adjacent to a sign change of f', and the end nodes of
    each run of nodes where f' is zero, with their f values.

    These are the only interior candidates for the extremum of the
    piecewise-linear interpolant of f over a state interval.  A node inside
    a run of zeros is none: f is constant along the run, so its ends carry
    the run's value.
    """
    s = np.sign(fprime_values)
    change = s[:-1] * s[1:] < 0
    zero = s == 0
    keep = zero.copy()
    keep[1:-1] &= ~(zero[:-2] & zero[2:])
    keep[:-1] |= change
    keep[1:] |= change
    idx = np.flatnonzero(keep)
    return (lattice.nodes()[idx],
            np.asarray(f_values, dtype=np.float64)[idx])


def monotone_envelope(values: np.ndarray, increasing: bool) -> np.ndarray:
    """Clamp cumulative-integral tables of signed integrands to be monotone.

    Quadrature noise of order 1e-17 can break monotonicity of tables whose
    integrand has a fixed sign; monotone tables are what makes the upwind
    flux (and hence the discrete maximum principle) rigorous.
    """
    out = values.copy()
    if increasing:
        np.maximum.accumulate(out, out=out)
    else:
        np.minimum.accumulate(out, out=out)
    return out
