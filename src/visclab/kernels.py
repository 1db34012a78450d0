"""Hot finite-volume update kernels.

Each kernel is vectorized numpy.  It locates each distinct state array on
the table lattice once (``tables.locate``) and reads every table from that
location (``tables.lookup``).  The tests check every kernel bit for bit
against an explicit-loop twin in ``tests/oracles.py``, which interpolates
each table value by value with the same scalar arithmetic (same
interpolation formula, same operation order).

Step plan convention: every kernel takes ``(..., out, work)``.  ``work`` is
the kernel's step plan, built by ``workspace(name, shape, tables)`` once per
march for the state shape and the tables the kernel will be handed, and
passed unchanged on every call.  It holds every buffer a step writes
(the zero-bordered copy of the state, whose ghost cells stay 0 because only
its interior is written; the location of the state and of the face
midpoints; the table reads; the face fluxes and the cell differences), every
view the step reads (the interior of the state, the state and the table
reads on either side of each face, the fluxes after and before each cell),
the scalars derived once per march, and the slope table ``tab[1:] -
tab[:-1]`` of each of its tables.  So a step is one fixed sequence of
ufunc calls with ``out=`` into the plan: it allocates nothing and slices
nothing.  A plan holds only arrays, tuples, floats and None.

Reading a table: ``locate`` clips the float panel index to ``[0, nodes - 2]``
and truncates it, the same ``k`` and ``frac`` as flooring and then clipping
for every finite value, and each read is ``slope[k] * frac + tab[k]``
(``tables.lookup``), the same doubles as ``t0 + frac * (t1 - t0)``: the
slope is the same subtraction of the same two nodes, made once per march
instead of on every read.  The gathers use ``take(k, out=buf,
mode="clip")``: ``k`` is already in range, and with the default
``mode="raise"`` numpy gathers into a buffer of its own before copying to
``out``.

The plan's slopes and its flat-B scalar belong to the table objects it was
built for; a kernel handed any other table (an ``is`` check per table)
builds a plan for the tables it was handed, so it still reads those.

Flat viscosity table: the plan judges the B table once per march; when every
node equals node 0 (``B == b``, the semilinear case) it records ``b``, and a
viscous step multiplies ``ur - ul`` by the scalar ``b * eps / h``
instead of locating the face midpoints and reading B there.  That is exact:
the lookup gives ``t0 + frac * (t1 - t0) = b + frac * 0 = b`` for every
finite ``frac``, so the old face term ``(b * eps / h) * (ur - ul)`` and the
new ``(ur - ul) * (b * eps / h)`` are the same IEEE product.

``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tables import slopes

HAVE_NUMBA = False  # perfbench's set-up probe records it


def active_backend() -> str:
    """The kernel implementation every run uses, recorded in the manifest."""
    return "numpy"


# ---------------------------------------------------------------------------
# per-march step plans


def _location(shape) -> tuple:
    """``(k, frac, clipped)``: the buffers of one array's table location."""
    return np.empty(shape, np.int64), np.empty(shape), np.empty(shape)


class Axis(NamedTuple):
    """The faces of one axis of a viscous step.

    ``eop``/``eom`` are that axis's Engquist-Osher tables and ``*_slope``
    their slopes.  ``ul``/``ur`` view the padded state and ``pl``/``qr`` the
    ``eop``/``eom`` reads on the left and right of each face.  ``flux`` and
    ``mid`` are face buffers, ``fr``/``fl`` view ``flux`` after and before
    each cell, and ``diff`` receives their difference.  ``bread`` is the face
    midpoints' location and two buffers of the B read; None when B is flat.
    """

    eop: np.ndarray
    eom: np.ndarray
    eop_slope: np.ndarray
    eom_slope: np.ndarray
    ul: np.ndarray
    ur: np.ndarray
    pl: np.ndarray
    qr: np.ndarray
    flux: np.ndarray
    mid: np.ndarray
    fr: np.ndarray
    fl: np.ndarray
    diff: np.ndarray
    bread: tuple | None


class ViscPlan(NamedTuple):
    """Step plan of a viscous kernel.

    ``ext`` is the zero-bordered state and ``inner`` its interior, the only
    part a step writes, so the ghost cells stay 0.  ``loc`` is the location
    of ``ext``; ``p``, ``q`` and ``scratch`` receive the table reads there,
    one axis after the other.  ``b`` is the value of a flat ``btab``, else
    None and ``b_slope`` holds its slopes.
    """

    ext: np.ndarray
    inner: np.ndarray
    loc: tuple
    p: np.ndarray
    q: np.ndarray
    scratch: np.ndarray
    top: float
    axes: tuple
    btab: np.ndarray
    b: float | None
    b_slope: np.ndarray | None


class GodunovPlan(NamedTuple):
    """Step plan of the axis-0 Godunov step.

    ``ext``, ``inner`` and ``loc`` as in ``ViscPlan``; ``f`` receives the
    ``ftab`` read (``scratch`` its second gather), ``ul``/``ur`` and
    ``fl``/``fr`` view ``ext`` and ``f`` on either side of each face.
    ``gmin``/``gmax`` are the face candidates, ``gmax`` finally the flux,
    with ``gr``/``gl`` its views after and before each cell; ``pick`` and
    ``pick2`` are face masks and ``cand`` a face buffer.
    """

    ftab: np.ndarray
    f_slope: np.ndarray
    ext: np.ndarray
    inner: np.ndarray
    loc: tuple
    f: np.ndarray
    scratch: np.ndarray
    top: float
    ul: np.ndarray
    ur: np.ndarray
    fl: np.ndarray
    fr: np.ndarray
    gmin: np.ndarray
    gmax: np.ndarray
    cand: np.ndarray
    pick: np.ndarray
    pick2: np.ndarray
    gr: np.ndarray
    gl: np.ndarray
    diff: np.ndarray


def _sides(ax: int, ndim: int, lo, hi, inner):
    """Index of ``lo:hi`` along ``ax`` and ``inner`` on every other axis."""
    return tuple(slice(lo, hi) if i == ax else inner for i in range(ndim))


def _visc_plan(shape, eo, btab) -> ViscPlan:
    """``eo`` holds ``(eo_plus, eo_minus)`` of each axis."""
    ndim = len(shape)
    ext = np.zeros(tuple(n + 2 for n in shape))
    interior = slice(1, -1)
    p, q = np.empty(ext.shape), np.empty(ext.shape)
    flat = bool((btab == btab[0]).all())
    axes = []
    for ax, (eop, eom) in enumerate(eo):
        left = _sides(ax, ndim, None, -1, interior)
        right = _sides(ax, ndim, 1, None, interior)
        face = ext[left].shape
        flux = np.empty(face)
        bread = None if flat else _location(face) + (np.empty(face),
                                                     np.empty(face))
        axes.append(Axis(eop, eom, slopes(eop), slopes(eom), ext[left],
                         ext[right], p[left], q[right], flux, np.empty(face),
                         flux[_sides(ax, ndim, 1, None, slice(None))],
                         flux[_sides(ax, ndim, None, -1, slice(None))],
                         np.empty(shape), bread))
    return ViscPlan(ext, ext[(interior,) * ndim], _location(ext.shape), p, q,
                    np.empty(ext.shape), btab.shape[0] - 2.0, tuple(axes),
                    btab, float(btab[0]) if flat else None,
                    None if flat else slopes(btab))


def _godunov_plan(shape, ftab) -> GodunovPlan:
    ext = np.zeros((shape[0] + 2,) + tuple(shape[1:]))
    f = np.empty(ext.shape)
    face = (shape[0] + 1,) + tuple(shape[1:])
    gmax = np.empty(face)
    return GodunovPlan(ftab, slopes(ftab), ext, ext[1:-1],
                       _location(ext.shape), f, np.empty(ext.shape),
                       ftab.shape[0] - 2.0, ext[:-1], ext[1:], f[:-1], f[1:],
                       np.empty(face), gmax, np.empty(face),
                       np.empty(face, bool), np.empty(face, bool), gmax[1:],
                       gmax[:-1], np.empty(shape))


def workspace(name: str, shape, tables) -> ViscPlan | GodunovPlan | tuple:
    """The step plan of kernel ``name`` for states of ``shape``: its trailing
    ``work`` argument.

    ``tables`` are the tables the kernel will be handed, in its argument
    order: ``(eo_plus, eo_minus, btab)`` in 1-D and ``(eo_plus_x, eo_minus_x,
    eo_plus_y, eo_minus_y, btab)`` in 2-D for the viscous kernels, ``(f,)``
    for the Godunov step and ``(f_x, f_y)`` for the 2-D sweep.  Build it once
    per march; every call on a state of that shape reuses it.
    """
    if name == "visc_step_1d":
        eop, eom, btab = tables
        return _visc_plan(shape, ((eop, eom),), btab)
    if name == "visc_step_2d":
        eopx, eomx, eopy, eomy, btab = tables
        return _visc_plan(shape, ((eopx, eomx), (eopy, eomy)), btab)
    if name == "godunov_step_1d":
        return _godunov_plan(shape, tables[0])
    if name == "godunov_sweep_2d":
        # the y sweep runs the axis-0 step on transposed views
        nx, ny = shape
        return _godunov_plan((nx, ny), tables[0]), _godunov_plan((ny, nx),
                                                                 tables[1])
    raise KeyError(f"unknown kernel {name!r}")


# ---------------------------------------------------------------------------
# numpy implementations
#
# Every table passed to one kernel lies on the same lattice (``lo``, ``inv``
# and the node count), so one location of a state array serves them all.
# Each location is ``tables.locate`` and each read ``tables.lookup``, spelled
# out as in-place ufunc calls on the plan's buffers.


def visc_step_1d_numpy(u, dt, h, eps, lo, inv, eop, eom, btab, out, work):
    """One forward-Euler step of the viscous balance, zero ghost cells."""
    a = work.axes[0]
    if eop is not a.eop or eom is not a.eom or btab is not work.btab:
        work = _visc_plan(u.shape, ((eop, eom),), btab)
        a = work.axes[0]
    k, frac, kf = work.loc
    p, q, s = work.p, work.q, work.scratch
    work.inner[...] = u
    np.subtract(work.ext, lo, out=frac)
    frac *= inv
    np.maximum(frac, 0.0, out=kf)
    np.minimum(kf, work.top, out=kf)
    k[...] = kf
    frac -= k
    a.eop_slope.take(k, out=p, mode="clip")
    p *= frac
    p += eop.take(k, out=s, mode="clip")
    a.eom_slope.take(k, out=q, mode="clip")
    q *= frac
    q += eom.take(k, out=s, mode="clip")
    flux = np.add(a.pl, a.qr, out=a.flux)
    eh = eps / h
    if work.b is not None:
        du = np.subtract(a.ur, a.ul, out=a.mid)
        du *= work.b * eh
        flux -= du
    else:
        mid = np.add(a.ul, a.ur, out=a.mid)
        mid *= 0.5
        mk, mfrac, mkf, bm, bs = a.bread
        np.subtract(mid, lo, out=mfrac)
        mfrac *= inv
        np.maximum(mfrac, 0.0, out=mkf)
        np.minimum(mkf, work.top, out=mkf)
        mk[...] = mkf
        mfrac -= mk
        work.b_slope.take(mk, out=bm, mode="clip")
        bm *= mfrac
        bm += btab.take(mk, out=bs, mode="clip")
        bm *= eh
        bm *= np.subtract(a.ur, a.ul, out=mid)
        flux -= bm
    d = np.subtract(a.fr, a.fl, out=a.diff)
    d *= dt / h
    np.subtract(u, d, out=out)
    return out


def visc_step_2d_numpy(u, dt, hx, hy, eps, lo, inv,
                       eopx, eomx, eopy, eomy, btab, out, work):
    ax, ay = work.axes
    if (eopx is not ax.eop or eomx is not ax.eom or eopy is not ay.eop
            or eomy is not ay.eom or btab is not work.btab):
        work = _visc_plan(u.shape, ((eopx, eomx), (eopy, eomy)), btab)
    k, frac, kf = work.loc
    p, q, s = work.p, work.q, work.scratch
    work.inner[...] = u
    np.subtract(work.ext, lo, out=frac)
    frac *= inv
    np.maximum(frac, 0.0, out=kf)
    np.minimum(kf, work.top, out=kf)
    k[...] = kf
    frac -= k
    for a, h in zip(work.axes, (hx, hy)):
        a.eop_slope.take(k, out=p, mode="clip")
        p *= frac
        p += a.eop.take(k, out=s, mode="clip")
        a.eom_slope.take(k, out=q, mode="clip")
        q *= frac
        q += a.eom.take(k, out=s, mode="clip")
        flux = np.add(a.pl, a.qr, out=a.flux)
        eh = eps / h
        if work.b is not None:
            du = np.subtract(a.ur, a.ul, out=a.mid)
            du *= work.b * eh
            flux -= du
        else:
            mid = np.add(a.ul, a.ur, out=a.mid)
            mid *= 0.5
            mk, mfrac, mkf, bm, bs = a.bread
            np.subtract(mid, lo, out=mfrac)
            mfrac *= inv
            np.maximum(mfrac, 0.0, out=mkf)
            np.minimum(mkf, work.top, out=mkf)
            mk[...] = mkf
            mfrac -= mk
            work.b_slope.take(mk, out=bm, mode="clip")
            bm *= mfrac
            bm += btab.take(mk, out=bs, mode="clip")
            bm *= eh
            bm *= np.subtract(a.ur, a.ul, out=mid)
            flux -= bm
        d = np.subtract(a.fr, a.fl, out=a.diff)
        d *= dt / h
    dx, dy = work.axes[0].diff, work.axes[1].diff
    np.subtract(u, dx, out=dx)
    np.subtract(dx, dy, out=out)
    return out


def godunov_step_1d_numpy(u, dt, h, lo, inv, ftab, crit_y, crit_f, out, work):
    """Conservative Godunov step along axis 0, zero ghost cells.

    On a 2-D state each column is updated as an independent 1-D problem.
    """
    if ftab is not work.ftab:
        work = _godunov_plan(u.shape, ftab)
    k, frac, kf = work.loc
    f, ul, ur, gmin, gmax = work.f, work.ul, work.ur, work.gmin, work.gmax
    cand, pick, pick2 = work.cand, work.pick, work.pick2
    work.inner[...] = u
    np.subtract(work.ext, lo, out=frac)
    frac *= inv
    np.maximum(frac, 0.0, out=kf)
    np.minimum(kf, work.top, out=kf)
    k[...] = kf
    frac -= k
    work.f_slope.take(k, out=f, mode="clip")
    f *= frac
    f += ftab.take(k, out=work.scratch, mode="clip")
    np.minimum(work.fl, work.fr, out=gmin)
    np.maximum(work.fl, work.fr, out=gmax)
    for cy, cf in zip(crit_y, crit_f):
        np.less(ul, cy, out=pick)
        pick &= np.less(cy, ur, out=pick2)
        np.copyto(gmin, np.minimum(gmin, cf, out=cand), where=pick)
        np.less(ur, cy, out=pick)
        pick &= np.less(cy, ul, out=pick2)
        np.copyto(gmax, np.maximum(gmax, cf, out=cand), where=pick)
    # the flux: gmin where ul <= ur, else gmax
    np.copyto(gmax, gmin, where=np.less_equal(ul, ur, out=pick))
    d = np.subtract(work.gr, work.gl, out=work.diff)
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


# keyed by ``active_backend()``; ``get_kernel`` looks a kernel up when a
# march is set up, so a rebound entry is the one that runs
KERNELS = {
    "numpy": {
        "visc_step_1d": visc_step_1d_numpy,
        "visc_step_2d": visc_step_2d_numpy,
        "godunov_step_1d": godunov_step_1d_numpy,
        "godunov_sweep_2d": godunov_sweep_2d_numpy,
    },
}


def get_kernel(name: str):
    return KERNELS["numpy"][name]
