"""Uniform value tables over the invariant interval and the quadrature that fills them.

Every nonlinear scalar function the solvers touch per cell per step (numerical
flux integrals, face viscosity, entropy fluxes, the compensated quadratic
integrals) is tabulated once on a shared uniform lattice and evaluated by
linear interpolation afterwards.  Cumulative integrals are computed by an
adaptive composite Gauss-Legendre rule so that every node value carries an
absolute quadrature error below the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TABLE_NODES = 4096

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)

_MAX_REFINE = 48


@dataclass(frozen=True)
class TableLattice:
    """Uniform sample lattice on [lo, hi] shared by all tabulated functions."""

    lo: float
    hi: float
    n: int = TABLE_NODES

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def inv_spacing(self) -> float:
        return (self.n - 1) / (self.hi - self.lo)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def locate(lo: float, inv: float, top: float, u: np.ndarray, out=None):
    """Table panel of each value of ``u``: ``(k, frac)``.

    ``k`` is the panel's first node and ``top`` the last such index
    (nodes - 2); values outside [lo, hi] fall in the end panels.  One location
    serves every table on the same lattice, so callers locate a state once
    and ``lookup`` many tables.  ``out``, when given, is ``(k, frac, scratch)``
    of ``u``'s shape (int64, float64, float64) and receives the result;
    ``scratch`` holds the clipped float panel index.
    """
    k, s, kf = (None, None, None) if out is None else out
    s = np.subtract(u, lo, out=s)
    s *= inv
    # clip, then truncate: for every finite value the same k as flooring and
    # then clipping.  np.clip, spelled as its two ufuncs: its wrapper
    # dominates on small arrays
    kf = np.maximum(s, 0.0, out=kf)
    np.minimum(kf, top, out=kf)
    if k is None:
        k = kf.astype(np.int64)
    else:
        k[...] = kf
    s -= k
    return k, s


def slopes(tab: np.ndarray) -> np.ndarray:
    """``tab[k + 1] - tab[k]`` of each panel ``k``: tabulated once, the same
    subtraction ``lookup`` would otherwise make on every read."""
    return tab[1:] - tab[:-1]


def lookup(tab: np.ndarray, slope: np.ndarray, loc) -> np.ndarray:
    """``slope[k] * frac + tab[k]``, i.e. ``t0 + frac * (t1 - t0)``, at a
    location from ``locate``; ``slope`` is ``slopes(tab)``."""
    k, frac = loc
    out = slope.take(k)
    out *= frac
    out += tab.take(k)
    return out


def interp(lattice: TableLattice, values: np.ndarray, u) -> np.ndarray:
    """Piecewise-linear table lookup; clamps to the end panels outside [lo, hi].

    The same ``locate``/``lookup`` arithmetic as the kernels in ``kernels``
    and the loop twins in ``tests/oracles.py``, so all three agree bit for
    bit.
    """
    u = np.asarray(u, dtype=np.float64)
    out = lookup(values, slopes(values),
                 locate(lattice.lo, lattice.inv_spacing, lattice.n - 2.0,
                        np.atleast_1d(u)))
    if u.ndim == 0:
        return float(out[0])
    return out


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
    """Table nodes adjacent to a sign change of f', with their f values.

    These are the only interior candidates for the extremum of the
    piecewise-linear interpolant of f over a state interval.
    """
    s = np.sign(fprime_values)
    change = s[:-1] * s[1:] < 0
    zero = s == 0
    idx = set(np.nonzero(change)[0].tolist())
    idx |= set((np.nonzero(change)[0] + 1).tolist())
    idx |= set(np.nonzero(zero)[0].tolist())
    order = sorted(idx)
    nodes = lattice.nodes()
    crit_y = np.array([nodes[i] for i in order], dtype=np.float64)
    crit_f = np.array([f_values[i] for i in order], dtype=np.float64)
    return crit_y, crit_f


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
