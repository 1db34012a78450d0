"""Regularization of compactly supported initial data by mollification.

The initial-data presets are declared here, once: ``DATA_PRESETS`` names
them.  ``within_one_cell`` tells a mollifier width of at most one cell,
whose kernel would have a single node.  The config checks it before any
run, together with the support margin, the distance from a preset's
support to the boundary, which the config alone computes.

Data, kernel and result are plain arrays: ``make_initial_data`` gives the
cell values, ``make_kernel`` the weights, and ``mollify`` the convolution
of the one with the other, by ``np.convolve`` for 1-D data and by
``_convolve_same_2d`` for 2-D data.

The kernel is the standard bump exp(-1/(1-|z|^2)) scaled to a given width and
normalized so its discrete integral is exactly one.  Because the config
requires every mollifier width to be smaller than the support margin, the
convolution never needs a boundary extension rule, the mollified data vanish
on the boundary cells, and the sup and total-variation bounds hold without
correction terms.

The 2-D convolution is numpy only and gives the same doubles as
``scipy.signal.convolve2d(u, w, mode="same", boundary="fill")``, so the 2-D
data of earlier runs are reproduced byte for byte without loading
``scipy.signal``.  That needs scipy's summation order, not just its terms.
With ``P`` the data zero-padded by ``kh//2`` rows and ``kw//2`` columns on
each side, output cell ``(m, n)`` sums the products
``t[j, k] = w[j, k] * P[m + kh-1-j, n + kw-1-k]``: kernel rows ``j`` in
ascending order, and within a row the columns in groups of four, each group
summed on its own as ``((t[k] + t[k+1]) + t[k+2]) + t[k+3]`` before it is added
to the running sum, then the last ``kw % 4`` terms one at a time.  That
grouping is how scipy's compiled multiply-add of one kernel row
(``DOUBLE_onemultadd`` in ``scipy/signal/_sigtools``, scipy 1.17.1) adds its
products; a plain term-by-term sum differs from it in the last bits.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid

DATA_PRESETS = ("bump", "box", "twobump")


def _bump_profile(z2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z2)
    inside = z2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z2[inside]))
    return out


def _kernel_radii(width: float, spacing: tuple[float, ...]) -> tuple[int, ...]:
    """Per axis, the number of kernel nodes on either side of its centre:
    those at offsets ``k h`` with ``0 < k h < width``."""
    return tuple(int(np.ceil(width / h)) - 1 for h in spacing)


def within_one_cell(width: float, spacing: tuple[float, ...]) -> bool:
    """Whether a positive ``width`` is at most one cell on some axis.  The
    kernel then has a single node along that axis and leaves the data
    unmollified there, so ``make_kernel`` and the config reject it."""
    return min(_kernel_radii(width, spacing)) == 0


def make_kernel(width: float, spacing: tuple[float, ...]) -> np.ndarray:
    """The kernel's weights on the grid of ``spacing``: dimensionless, one
    axis per grid axis, summing to 1."""
    if width <= 0:
        raise ValueError("mollifier width must be positive")
    if within_one_cell(width, spacing):
        raise ValueError(f"mollifier width {width:g} is at most one cell "
                         f"(spacing {', '.join(f'{h:g}' for h in spacing)}); "
                         "the kernel would have a single node")
    offsets = [np.arange(-k, k + 1) * h
               for k, h in zip(_kernel_radii(width, spacing), spacing)]
    z2 = sum((o / width) ** 2 for o in np.meshgrid(*offsets, indexing="ij"))
    prof = _bump_profile(z2)
    return prof / prof.sum()


def make_initial_data(grid: Grid, name: str, center: tuple[float, ...],
                      width: float, amplitude: float,
                      amplitude2: float = 0.0,
                      separation: float = 0.0) -> np.ndarray:
    """The cell values of the initial-data presets: C2 'bump', indicator
    'box', and 'twobump'."""
    mesh = grid.meshgrid()

    def bump(c, amp):
        """``amp * (1 - rho^2)^3`` where ``rho``, the distance to ``c`` in
        units of ``width``, is below 1; else 0."""
        rho = np.sqrt(sum(((x - cj) / width) ** 2 for x, cj in zip(mesh, c)))
        return np.where(rho < 1.0, amp * (1.0 - np.minimum(rho, 1.0) ** 2) ** 3,
                        0.0)

    if name == "bump":
        vals = bump(center, amplitude)
    elif name == "box":
        inside = np.ones_like(mesh[0], dtype=bool)
        for x, cj in zip(mesh, center):
            inside &= np.abs(x - cj) <= width
        vals = np.where(inside, amplitude, 0.0)
    elif name == "twobump":
        c1 = (center[0] - separation,) + tuple(center[1:])
        c2 = (center[0] + separation,) + tuple(center[1:])
        vals = bump(c1, amplitude) + bump(c2, amplitude2)
    else:
        raise ValueError(f"unknown initial-data preset {name!r}")
    return vals


def mollify(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zero-filled 'same' convolution of the cell values ``u`` with the
    kernel ``weights`` of ``make_kernel`` on the same grid."""
    if u.ndim == 1:
        return np.convolve(u, weights, mode="same")
    return _convolve_same_2d(u, weights)


def _convolve_same_2d(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-filled 'same' convolution of ``u`` with ``w`` in scipy's order
    (module docstring): one whole-array product per kernel term."""
    M, N = u.shape
    kh, kw = w.shape
    P = np.zeros((M + 2 * (kh // 2), N + 2 * (kw // 2)))
    P[kh // 2:kh // 2 + M, kw // 2:kw // 2 + N] = u
    total = np.zeros((M, N))
    group = np.empty((M, N))
    term = np.empty((M, N))

    def product(j, k, out):
        r, c = kh - 1 - j, kw - 1 - k
        np.multiply(w[j, k], P[r:r + M, c:c + N], out=out)

    grouped = kw - kw % 4
    for j in range(kh):
        for k in range(0, grouped, 4):
            product(j, k, group)
            for q in range(k + 1, k + 4):
                product(j, q, term)
                group += term
            total += group
        for k in range(grouped, kw):
            product(j, k, term)
            total += term
    return total
