"""Hot finite-volume update kernels.

Each kernel exists twice: a vectorized pure-numpy implementation and, when
numba is importable, an ``@njit`` twin compiled from explicit loops.  The
numpy kernels locate each distinct state array on the table lattice once
(``tables.locate``) and read every table from that location
(``tables.lookup``); the loop twins interpolate each table value by value.
Both paths use the same scalar arithmetic (same interpolation formula, same
operation order), so their outputs agree bit for bit; tests assert that
against the loop twins run as plain Python, and against numba where it
imports.

Workspace convention: every kernel takes ``(..., out, work)``.  ``work`` comes
from ``workspace(name, shape)``, built once per march for the state shape and
passed unchanged on every call.  It holds the zero-bordered copy of the state
(only its interior is written, so the ghost cells stay 0) and the buffers its
location is written to, so a numpy step allocates neither: at 128x128,
allocating them on every call makes the heap hand their pages back and fault
them in again each step.  The viscous workspace also holds, per axis, face
buffers for the face midpoints and their location.  The result still goes to
the caller's ``out``.  The loop twins accept ``work`` and ignore it.

Flat viscosity table: ``workspace(name, shape, btab)`` judges the B table once
per march; when every node equals node 0 (``B == b``, the semilinear case) it
records that table, and a numpy viscous kernel handed that same object
(``btab is work.flat``) multiplies ``ur - ul`` by the scalar ``b * eps / h``
instead of locating the face midpoints and reading B there.  That is exact:
the lookup gives ``t0 + frac * (t1 - t0) = b + frac * 0 = b`` for every finite
``frac``, so the old face term ``(b * eps / h) * (ur - ul)`` and the new
``(ur - ul) * (b * eps / h)`` are the same IEEE product.  Any other table,
including one handed to a workspace judged for a flat one, takes the lookup.

Backend selection: numba when available, unless ``VISCLAB_DISABLE_NUMBA`` is
set.  ``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .tables import locate, lookup

try:
    from numba import njit
    HAVE_NUMBA = True
except Exception:  # pragma: no cover - numba missing entirely
    HAVE_NUMBA = False

ENV_FLAG = "VISCLAB_DISABLE_NUMBA"


def numba_enabled() -> bool:
    if not HAVE_NUMBA:
        return False
    return os.environ.get(ENV_FLAG, "").lower() not in ("1", "true", "yes")


def active_backend() -> str:
    return "numba" if numba_enabled() else "numpy"


# ---------------------------------------------------------------------------
# per-march workspace


class Padded(NamedTuple):
    """A zero-bordered copy of the state and the buffers of its location.

    Kernels write only the interior of ``ext``, so its border stays 0 (the
    ghost cells); ``loc`` is the ``out`` of ``tables.locate`` for ``ext``.
    """

    ext: np.ndarray
    loc: tuple


class ViscWork(NamedTuple):
    """``Padded`` plus, per axis, ``(mid, loc)`` buffers of that axis's faces,
    and the B table judged flat (or None)."""

    ext: np.ndarray
    loc: tuple
    faces: tuple
    flat: np.ndarray | None


def _loc_out(shape) -> tuple:
    return np.empty(shape, np.int64), np.empty(shape), np.empty(shape)


def _padded(shape) -> Padded:
    return Padded(np.zeros(shape), _loc_out(shape))


def _visc_work(shape, btab) -> ViscWork:
    pad = _padded(tuple(n + 2 for n in shape))
    faces = []
    for ax in range(len(shape)):
        face = tuple(n + (i == ax) for i, n in enumerate(shape))
        faces.append((np.empty(face), _loc_out(face)))
    flat = btab if btab is not None and (btab == btab[0]).all() else None
    return ViscWork(pad.ext, pad.loc, tuple(faces), flat)


def workspace(name: str, shape, btab=None) -> Padded | ViscWork | tuple:
    """The trailing ``work`` argument of kernel ``name`` for states of ``shape``.

    Build it once per march; every call on a state of that shape reuses it.
    ``btab`` is the B table a viscous kernel will be handed; if it is flat,
    calls with that table skip the B lookup.
    """
    if name in ("visc_step_1d", "visc_step_2d"):
        return _visc_work(shape, btab)
    if name == "godunov_step_1d":
        return _padded((shape[0] + 2,) + shape[1:])
    if name == "godunov_sweep_2d":
        # the y sweep runs the axis-0 step on transposed views
        nx, ny = shape
        return _padded((nx + 2, ny)), _padded((ny + 2, nx))
    raise KeyError(f"unknown kernel {name!r}")


# ---------------------------------------------------------------------------
# numpy implementations
#
# Every table passed to one kernel lies on the same lattice (``lo``, ``inv``
# and the node count), so one location of a state array serves them all.


def _viscous_flux(ext, loc, left, right, face, lo, inv, top, eop, eom,
                  btab, eh, flat):
    """conv(ul, ur) - eh * B((ul + ur) / 2) * (ur - ul) on every face.

    The faces lie between ``ul = ext[left]`` and ``ur = ext[right]``; ``loc``
    locates ``ext`` and ``face = (mid, loc)`` holds face-shaped buffers.  If
    ``flat``, B is the constant ``btab[0]``.
    """
    ul, ur = ext[left], ext[right]
    flux = lookup(eop, loc)[left]
    flux += lookup(eom, loc)[right]
    mid, mloc = face
    if flat:
        du = np.subtract(ur, ul, out=mid)
        du *= float(btab[0]) * eh
        flux -= du
        return flux
    np.add(ul, ur, out=mid)
    mid *= 0.5
    bm = lookup(btab, locate(lo, inv, top, mid, mloc))
    bm *= eh
    bm *= np.subtract(ur, ul, out=mid)
    flux -= bm
    return flux


def visc_step_1d_numpy(u, dt, h, eps, lo, inv, eop, eom, btab, out, work):
    """One forward-Euler step of the viscous balance, zero ghost cells."""
    ext = work.ext
    ext[1:-1] = u
    top = btab.shape[0] - 2.0
    flux = _viscous_flux(ext, locate(lo, inv, top, ext, work.loc), np.s_[:-1],
                         np.s_[1:], work.faces[0], lo, inv, top, eop, eom,
                         btab, eps / h, btab is work.flat)
    d = flux[1:] - flux[:-1]
    d *= dt / h
    np.subtract(u, d, out=out)
    return out


def visc_step_2d_numpy(u, dt, hx, hy, eps, lo, inv,
                       eopx, eomx, eopy, eomy, btab, out, work):
    ext = work.ext
    ext[1:-1, 1:-1] = u
    top = btab.shape[0] - 2.0
    loc = locate(lo, inv, top, ext, work.loc)
    flat = btab is work.flat
    fx = _viscous_flux(ext, loc, np.s_[:-1, 1:-1], np.s_[1:, 1:-1],
                       work.faces[0], lo, inv, top, eopx, eomx, btab,
                       eps / hx, flat)
    fy = _viscous_flux(ext, loc, np.s_[1:-1, :-1], np.s_[1:-1, 1:],
                       work.faces[1], lo, inv, top, eopy, eomy, btab,
                       eps / hy, flat)
    dx = fx[1:, :] - fx[:-1, :]
    dx *= dt / hx
    dy = fy[:, 1:] - fy[:, :-1]
    dy *= dt / hy
    np.subtract(u, dx, out=dx)
    np.subtract(dx, dy, out=out)
    return out


def godunov_step_1d_numpy(u, dt, h, lo, inv, ftab, crit_y, crit_f, out, work):
    """Conservative Godunov step along axis 0, zero ghost cells.

    On a 2-D state each column is updated as an independent 1-D problem.
    """
    ext = work.ext
    ext[1:-1] = u
    f = lookup(ftab, locate(lo, inv, ftab.shape[0] - 2.0, ext, work.loc))
    ul, ur = ext[:-1], ext[1:]
    fl, fr = f[:-1], f[1:]
    gmin = np.minimum(fl, fr)
    gmax = np.maximum(fl, fr)
    for cy, cf in zip(crit_y, crit_f):
        gmin = np.where((ul < cy) & (cy < ur), np.minimum(gmin, cf), gmin)
        gmax = np.where((ur < cy) & (cy < ul), np.maximum(gmax, cf), gmax)
    flux = np.where(ul <= ur, gmin, gmax)
    d = flux[1:] - flux[:-1]
    d *= dt / h
    np.subtract(u, d, out=out)
    return out


def godunov_sweep_2d_numpy(u, dt, h, axis, lo, inv, ftab, crit_y, crit_f,
                           out, work):
    """One conservative Godunov sweep along ``axis`` of a 2-D state."""
    if axis == 0:
        return godunov_step_1d_numpy(u, dt, h, lo, inv, ftab, crit_y, crit_f,
                                     out, work[0])
    godunov_step_1d_numpy(u.T, dt, h, lo, inv, ftab, crit_y, crit_f, out.T,
                          work[1])
    return out


# ---------------------------------------------------------------------------
# loop twins (numba-compiled when available); they take ``work`` and ignore it


def _interp_scalar(tab, lo, inv, u):
    s = (u - lo) * inv
    k = math.floor(s)
    if k < 0.0:
        k = 0.0
    elif k > tab.shape[0] - 2.0:
        k = tab.shape[0] - 2.0
    ki = np.int64(k)
    frac = s - k
    return tab[ki] + frac * (tab[ki + 1] - tab[ki])


def _visc_step_1d_loops(u, dt, h, eps, lo, inv, eop, eom, btab, out, work):
    n = u.shape[0]
    epsh = eps / h
    lam = dt / h
    fprev = 0.0
    for i in range(n + 1):
        ul = u[i - 1] if i > 0 else 0.0
        ur = u[i] if i < n else 0.0
        conv = _interp_scalar(eop, lo, inv, ul) + _interp_scalar(eom, lo, inv, ur)
        bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
        f = conv - epsh * bm * (ur - ul)
        if i > 0:
            out[i - 1] = u[i - 1] - lam * (f - fprev)
        fprev = f
    return out


def _visc_step_2d_loops(u, dt, hx, hy, eps, lo, inv,
                        eopx, eomx, eopy, eomy, btab, out, work):
    nx, ny = u.shape
    lamx = dt / hx
    lamy = dt / hy
    ehx = eps / hx
    ehy = eps / hy
    for j in range(ny):
        fprev = 0.0
        for i in range(nx + 1):
            ul = u[i - 1, j] if i > 0 else 0.0
            ur = u[i, j] if i < nx else 0.0
            conv = _interp_scalar(eopx, lo, inv, ul) + _interp_scalar(eomx, lo, inv, ur)
            bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
            f = conv - ehx * bm * (ur - ul)
            if i > 0:
                out[i - 1, j] = u[i - 1, j] - lamx * (f - fprev)
            fprev = f
    for i in range(nx):
        fprev = 0.0
        for j in range(ny + 1):
            ul = u[i, j - 1] if j > 0 else 0.0
            ur = u[i, j] if j < ny else 0.0
            conv = _interp_scalar(eopy, lo, inv, ul) + _interp_scalar(eomy, lo, inv, ur)
            bm = _interp_scalar(btab, lo, inv, 0.5 * (ul + ur))
            f = conv - ehy * bm * (ur - ul)
            if j > 0:
                out[i, j - 1] = out[i, j - 1] - lamy * (f - fprev)
            fprev = f
    return out


def _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f):
    fl = _interp_scalar(ftab, lo, inv, ul)
    fr = _interp_scalar(ftab, lo, inv, ur)
    if ul <= ur:
        g = min(fl, fr)
        for c in range(crit_y.shape[0]):
            cy = crit_y[c]
            if ul < cy and cy < ur:
                cf = crit_f[c]
                if cf < g:
                    g = cf
        return g
    g = max(fl, fr)
    for c in range(crit_y.shape[0]):
        cy = crit_y[c]
        if ur < cy and cy < ul:
            cf = crit_f[c]
            if cf > g:
                g = cf
    return g


def _godunov_step_1d_loops(u, dt, h, lo, inv, ftab, crit_y, crit_f, out, work):
    n = u.shape[0]
    lam = dt / h
    fprev = 0.0
    for i in range(n + 1):
        ul = u[i - 1] if i > 0 else 0.0
        ur = u[i] if i < n else 0.0
        f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
        if i > 0:
            out[i - 1] = u[i - 1] - lam * (f - fprev)
        fprev = f
    return out


def _godunov_sweep_2d_loops(u, dt, h, axis, lo, inv, ftab, crit_y, crit_f,
                            out, work):
    nx, ny = u.shape
    lam = dt / h
    if axis == 0:
        for j in range(ny):
            fprev = 0.0
            for i in range(nx + 1):
                ul = u[i - 1, j] if i > 0 else 0.0
                ur = u[i, j] if i < nx else 0.0
                f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
                if i > 0:
                    out[i - 1, j] = u[i - 1, j] - lam * (f - fprev)
                fprev = f
    else:
        for i in range(nx):
            fprev = 0.0
            for j in range(ny + 1):
                ul = u[i, j - 1] if j > 0 else 0.0
                ur = u[i, j] if j < ny else 0.0
                f = _godunov_face_scalar(ul, ur, lo, inv, ftab, crit_y, crit_f)
                if j > 0:
                    out[i, j - 1] = u[i, j - 1] - lam * (f - fprev)
                fprev = f
    return out


if HAVE_NUMBA:
    _interp_scalar = njit(cache=True)(_interp_scalar)
    visc_step_1d_numba = njit(cache=True)(_visc_step_1d_loops)
    visc_step_2d_numba = njit(cache=True)(_visc_step_2d_loops)
    _godunov_face_scalar = njit(cache=True)(_godunov_face_scalar)
    godunov_step_1d_numba = njit(cache=True)(_godunov_step_1d_loops)
    godunov_sweep_2d_numba = njit(cache=True)(_godunov_sweep_2d_loops)
else:  # pragma: no cover
    visc_step_1d_numba = None
    visc_step_2d_numba = None
    godunov_step_1d_numba = None
    godunov_sweep_2d_numba = None


KERNELS = {
    "numpy": {
        "visc_step_1d": visc_step_1d_numpy,
        "visc_step_2d": visc_step_2d_numpy,
        "godunov_step_1d": godunov_step_1d_numpy,
        "godunov_sweep_2d": godunov_sweep_2d_numpy,
    },
    "numba": {
        "visc_step_1d": visc_step_1d_numba,
        "visc_step_2d": visc_step_2d_numba,
        "godunov_step_1d": godunov_step_1d_numba,
        "godunov_sweep_2d": godunov_sweep_2d_numba,
    },
}


def get_kernel(name: str, backend: str | None = None):
    b = backend or active_backend()
    if b == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    fn = KERNELS[b][name]
    if fn is None:  # pragma: no cover
        raise RuntimeError(f"kernel {name} unavailable for backend {b}")
    return fn
