"""Hot finite-volume update kernels, one per scheme.

``visc_step(u, dt, out, plan)`` is the explicit viscous step in one or two
dimensions, for a batch of ladder members at once: it runs the same face
update along each axis of its plan, on every member's state.
``godunov_step(u, dt, out, plan)`` is the Godunov step along the one axis
its plan was built for, any axis of a state of any dimension; the reference
composes the axes by Strang splitting.  Each kernel is vectorized numpy.
The tests check every kernel bit for bit against an explicit-loop twin in
``tests/oracles.py``, which interpolates each table value by value with the
same scalar arithmetic (same interpolation formula, same operation order).

Step plans: a kernel's ``plan`` is built once per march by ``visc_plan`` or
``godunov_plan`` and passed unchanged on every call.  The plan is the only
place that holds a step's tables and constants: the tables and their slope
tables ``tab[1:] - tab[:-1]``, the lattice (``lo``, ``inv`` and the last
panel ``top``), the spacing ``h``, each member's ``eps / h`` and flat-B
product ``b * eps / h``, and the Godunov flux's critical nodes.  A kernel
takes no table argument, so it reads only the tables its plan was built
for.  A plan holds only arrays, tuples, numbers and None, but for the
viscous plan's one list, which keeps the factor of a march's full steps
(see Batches).

Only the viscous plan also holds buffers, because only the viscous step is
called often enough for them to pay: every member of a run marches with it
(40,000 batched steps in the shipped 1-D run, 9,600 in the 2-D run), while
the reference makes a few hundred Godunov steps (512 in 1-D, 384 sweeps in
2-D).
The viscous plan holds every buffer a step writes (the zero-bordered copy of
the state, whose ghost cells stay 0 because only its interior is written;
the location of the state and of the face midpoints; the table reads; the
face fluxes and the cell differences) and every view the step reads (the
interior of the state, the state and the table reads on either side of each
face, the fluxes after and before each cell).  So a viscous step is one
fixed sequence of ufunc calls writing into the plan: for one member it
allocates nothing and slices nothing.  (For more, ``u - diff`` is a
row-wise op that numpy buffers, about one state, and so is a landing
step's product with its ``dt / h`` column.)  The Godunov plan holds no
buffer and no view: a Godunov step moves its axis first, pads that axis
with a zero ghost cell at either end, and allocates its temporaries, so
the faces of every line are the leading-axis slices ``[:-1]`` and ``[1:]``
of the padded state.  Each
face and cell gets the same ufuncs in the same order as the loop twin's
arithmetic.

Reading a table: every table of a plan lies on the same lattice, so one
``tables.locate`` of a state array serves them all, and each read is
``tables.lookup`` from that location, ``slope[k] * frac + tab[k]``: the same
doubles as ``t0 + frac * (t1 - t0)``, since the slope is the same
subtraction of the same two nodes, made once per march instead of on every
read.

Flat viscosity table: the plan judges the B table once per march; when every
node equals node 0 (``B == b``, the semilinear case) it records ``b * eps /
h`` of each axis, and a viscous step multiplies ``ur - ul`` by that scalar
instead of locating the face midpoints and reading B there.  That is exact:
the lookup gives ``t0 + frac * (t1 - t0) = b + frac * 0 = b`` for every
finite ``frac``, so the loop twins' face term ``(eps / h * b) * (ur - ul)``
and the kernel's ``(ur - ul) * (b * eps / h)`` are the same IEEE product.

Flat strides: the viscous step runs each axis on the raveled zero-bordered
state, which pads every axis with ghost cells.  Axis ``ax`` is one flat
offset ``s = ext.strides[ax] // 8``, and face ``i`` lies between the cells
``i`` and ``i + s``, so the state, the table reads and the fluxes on either
side of the faces are the 1-D slices ``[:n - s]`` and ``[s:]`` of whole
buffers, and each op is one contiguous loop (views cut to the interior rows
and columns would run it row by row, 128 short loops on a 128x128 state).
The faces between two ghost cells, and in 2-D the faces that wrap from the
end of one row to the start of the next, are computed and never read: the
cell differences fill a full-size buffer, and ``out = u - diff`` reads only
its interior.  Each face and cell that is read gets the same ufuncs in the
same order as the loop twins' arithmetic.

Batches: the state of a viscous step is ``(k, *cells)``, the leading ``k``
members of a batch, and the zero-bordered state is ``(k, *cells + 2)``.  The
member axis has no ghost cells and no faces of its own: raveled, the last
ghost layer of one member meets the first of the next, and the faces between
them lie between two ghost cells, computed and never read like the others.
So every op still runs once over the whole batch.  What differs between
members is a factor: ``eps / h`` and ``b * eps / h`` of each member's
viscosity and ``dt / h`` of each member's step.  With one member these are
floats and the step is the single-member step op for op.  With more, the
plan holds the viscosity factors face by face, each face its member's (a
flat product, as cheap as the scalar one).  ``dt / h`` comes in one of two
forms.  A march's full steps come as one tuple of floats, the same tuple
on every full step: the first call with it makes each axis's ``dt / h``
cell by cell, each cell its member's, keeps it in the plan's ``full`` list
with the tuple, and every later call with that tuple multiplies the cell
differences by it, one flat product.  Any other step, such as a landing on
a snapshot time, comes as a column ``(k, 1, ...)`` that multiplies the cell
differences cut into one row per member; the ghost layers of a row are
multiplied too and never read, and the buffers are allocated zero, so they
hold finite values only.  Either way each cell's difference meets its
member's ``dt / h``, the same IEEE product.  ``visc_plan`` builds
one plan per leading count ``k`` on one set of buffers, as long as the whole
batch's bordered states; the plan of ``k`` members views their first ``k``
rows.  A member whose state is all zero stays zero: every face then sees two
zero states, every face flux is the same number and every difference is
0.

Zero Engquist-Osher tables: the viscous plan also judges each Engquist-Osher
table once per march.  A table whose every node is +0.0 (f- of ``linear``
with a > 0, as on the y axis of the 2-D scenario; f+ with a < 0) is never
read: its read is the scalar 0.0, and the face flux is ``0.0 + qr`` or ``pl
+ 0.0``.  That is exact: the lookup gives ``0.0 * frac + 0.0 = +0.0`` for
every finite ``frac`` (+0.0 + -0.0 is +0.0), the loop twins add that +0.0,
and IEEE addition is commutative, signed zeros included.  A -0.0 node reads
as -0.0 below the lattice, so only +0.0 nodes count.

States that are not finite: a march checks its bound once per snapshot
interval, so a member that breaks it may step on, up to inf or NaN, to the
end of the interval.  Such a step stays in bounds: a NaN value gives a
NaN ``frac`` and an int64 panel index of no meaning (an infinite one, an
infinite ``frac``), and the ``mode="clip"`` gathers clamp any index into
the table, so the step reads only table entries and writes garbage into
that member's cells alone, since no face joins two members.  The march then marches the interval again from its
start, stopping the member at the first step that breaks the bound, so no
value a march keeps comes from such a step.

``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tables

HAVE_NUMBA = False  # perfbench's set-up probe records it


def active_backend() -> str:
    """The kernel implementation every run uses, recorded in the manifest."""
    return "numpy"


# ---------------------------------------------------------------------------
# per-march step plans


def _location(size: int) -> tuple:
    """``(k, frac, scratch)``: the ``out`` of ``tables.locate`` for ``size``
    values."""
    return np.empty(size, np.int64), np.empty(size), np.empty(size)


class Axis(NamedTuple):
    """The faces of one axis of a viscous step, as flat slices.

    ``h`` is the spacing, ``eh`` is ``eps / h`` and ``beh`` is ``b * eps /
    h`` for a flat B table, else None: floats for one member, else the
    factor of each face's member, face by face.  ``eop``/``eom`` are that
    axis's Engquist-Osher tables and ``*_slope`` their slopes; all four are None
    for a table that is never read because every node is +0.0.  ``ul``/``ur``
    view the raveled padded state and ``pl``/``qr`` the ``eop``/``eom`` reads
    on the left and right of each face (the scalar 0.0 for a zero table).
    ``flux`` and ``mid`` are face buffers, ``fr``/``fl`` view ``flux`` after
    and before each cell, and ``diff`` views the part of the plan's cell
    differences that receives ``fr - fl``, which a tuple's flat ``dt / h``
    multiplies, and ``diffs`` what a float or a column ``dt / h``
    multiplies: ``diff`` itself for one member, else the cell differences
    cut into one row per member.  ``bread`` is the face
    midpoints' location and the two buffers of the B read; None when B is
    flat.
    """

    h: float
    eh: float | np.ndarray
    beh: float | np.ndarray | None
    eop: np.ndarray | None
    eom: np.ndarray | None
    eop_slope: np.ndarray | None
    eom_slope: np.ndarray | None
    ul: np.ndarray
    ur: np.ndarray
    pl: np.ndarray | float
    qr: np.ndarray | float
    flux: np.ndarray
    mid: np.ndarray
    fr: np.ndarray
    fl: np.ndarray
    diff: np.ndarray
    diffs: np.ndarray
    bread: tuple | None


class ViscPlan(NamedTuple):
    """Step plan of ``visc_step`` for the states ``(k, *cells)`` of ``k``
    members.

    ``ext`` is the zero-bordered state, ``flat`` the same buffer raveled and
    ``inner`` its interior, the only part a step writes, so the ghost cells
    stay 0.  ``loc`` is the location of ``flat``; ``p``, ``q`` and
    ``scratch`` receive the table reads there, one axis after the other.
    ``dint`` is the interior of the full-size cell differences that each
    axis's ``diff`` writes in turn.  ``b_slope`` holds the slopes of
    ``btab``; None when it is flat.  ``full`` is ``[steps, factors]``: the
    last tuple of the members' steps that a step was called with, and each
    axis's ``dt / h`` of it, as ``diff`` lays out the cells.
    """

    lo: float
    inv: float
    top: float
    ext: np.ndarray
    flat: np.ndarray
    inner: np.ndarray
    loc: tuple
    p: np.ndarray
    q: np.ndarray
    scratch: np.ndarray
    dint: np.ndarray
    axes: tuple
    btab: np.ndarray
    b_slope: np.ndarray | None
    full: list


class GodunovPlan(NamedTuple):
    """Step plan of ``godunov_step`` along ``axis`` of a state: constants
    only.  ``crit`` holds the ``(crit_y, crit_f)`` pairs of ``ftab``."""

    axis: int
    h: float
    lo: float
    inv: float
    top: float
    ftab: np.ndarray
    f_slope: np.ndarray
    crit: tuple


def _is_zero(tab: np.ndarray) -> bool:
    """Every node of ``tab`` is +0.0 (a -0.0 node does not count)."""
    return not (tab.any() or np.signbit(tab).any())


def _per_face(factors: list, size: int, faces: int):
    """Each face's factor: a float for one member; else face ``i`` gets the
    factor of member ``i // size``, whose bordered state holds ``size``
    cells."""
    if len(factors) == 1:
        return factors[0]
    return np.repeat(factors, size)[:faces]


def visc_plan(cells, spacing, eps, lattice, flux_tables,
              btab) -> tuple[ViscPlan, ...]:
    """The step plans of ``visc_step`` for a batch of members on a grid of
    ``cells``, member ``m`` with viscosity ``eps[m]``: plan ``k - 1`` steps
    the leading ``k`` members.

    Axis ``ax`` has spacing ``spacing[ax]`` and reads the Engquist-Osher
    tables of ``flux_tables[ax]`` (a ``domain.FluxTables``); ``btab`` is the
    B table, and every table lies on ``lattice``.
    """
    eps = tuple(eps)
    dim = len(cells)
    # one ghost cell on either side of every cell axis, none on the members'
    ext = np.zeros((len(eps),) + tuple(n + 2 for n in cells))
    size = ext[0].size  # one member's bordered state
    # the cell differences are read in the interior only; face buffers as
    # long as the cells, of which an axis of stride s uses the first n - s
    diff, mid, flux, p, q, scratch = (np.zeros(ext.size) for _ in range(6))
    loc = _location(ext.size)
    bflat = bool((btab == btab[0]).all())
    bbuf = None if bflat else (*_location(ext.size), np.zeros(ext.size),
                               np.zeros(ext.size))
    judged = []
    for stride, h, tab in zip(ext.strides[1:], spacing, flux_tables):
        eop = None if _is_zero(tab.eo_plus) else tab.eo_plus
        eom = None if _is_zero(tab.eo_minus) else tab.eo_minus
        judged.append((stride // ext.itemsize, h, eop, eom,
                       None if eop is None else tables.slopes(eop),
                       None if eom is None else tables.slopes(eom)))
    interior = (slice(None),) + (slice(1, -1),) * dim
    plans = []
    for k in range(1, len(eps) + 1):
        n, shape = k * size, (k,) + ext.shape[1:]
        flat = ext.reshape(-1)[:n]
        axes = []
        for s, h, eop, eom, eop_slope, eom_slope in judged:
            f = n - s  # face i lies between cells i and i + s
            eh = [e / h for e in eps[:k]]
            axes.append(Axis(
                h, _per_face(eh, size, f),
                _per_face([float(btab[0]) * x for x in eh], size, f)
                if bflat else None,
                eop, eom, eop_slope, eom_slope, flat[:f], flat[s:],
                0.0 if eop is None else p[:f], 0.0 if eom is None else q[s:n],
                flux[:f], mid[:f], flux[s:f], flux[:f - s], diff[s:f],
                diff[s:f] if k == 1 else diff[:n].reshape(shape),
                None if bflat else (tuple(b[:f] for b in bbuf[:3]),
                                    bbuf[3][:f], bbuf[4][:f])))
        plans.append(ViscPlan(
            *lattice.panels, ext[:k], flat, ext[:k][interior],
            tuple(b[:n] for b in loc), p[:n], q[:n], scratch[:n],
            diff[:n].reshape(shape)[interior], tuple(axes), btab,
            None if bflat else tables.slopes(btab), [None, None]))
    return tuple(plans)


def _step_factors(n: int, axes: tuple, steps: tuple) -> tuple:
    """Each axis's ``dt / h`` of the cells its ``diff`` views, for the
    members' ``steps`` on ``n`` bordered cells: a float for one member, else
    each cell its member's."""
    size = n // len(steps)
    factors = []
    for a in axes:
        s = n - a.ul.size  # the axis's stride: diff views cells s .. n - s
        per = _per_face([d / a.h for d in steps], size, n - s)
        factors.append(per if len(steps) == 1 else per[s:])
    return tuple(factors)


def godunov_plan(h: float, lattice, flux_table, axis: int) -> GodunovPlan:
    """The step plan of the Godunov step along ``axis``, with spacing ``h``
    and the flux table ``flux_table`` (a ``domain.FluxTables``) on
    ``lattice``."""
    ftab = flux_table.f
    return GodunovPlan(axis, h, *lattice.panels, ftab, tables.slopes(ftab),
                       tuple(zip(flux_table.crit_y, flux_table.crit_f)))


# ---------------------------------------------------------------------------
# kernels


def visc_step(u, dt, out, plan: ViscPlan):
    """One forward-Euler step of the viscous balance for each member of
    ``u``, ``(k, *cells)``, zero ghost cells: ``out = u - diff_x``, then
    ``out -= diff_y`` in 2-D.

    ``dt`` is a float for one member, else each member's step: a tuple of
    floats, whose ``dt / h`` the plan keeps for as long as calls pass that
    same tuple, or a column ``(k, 1, ...)``.  ``out`` may be ``u``: the step
    reads ``u`` into its plan's bordered state before it writes.
    """
    # the plan and its axes unpacked once: locals are the cheapest reads
    lo, inv, top, _ext, flat, inner, loc, p, q, scratch, dint, axes, btab, \
        b_slope, full = plan
    inner[...] = u
    loc = tables.locate(lo, inv, top, flat, out=loc)
    steps = type(dt) is tuple
    if steps:
        if full[0] is not dt:
            full[:] = dt, _step_factors(flat.size, axes, dt)
        factors = full[1]
    src = u
    for ax, (h, eh, beh, eop, eom, eop_slope, eom_slope, ul, ur, pl, qr, flux,
             mid, fr, fl, diff, diffs, bread) in enumerate(axes):
        if eop is not None:
            tables.lookup(eop, eop_slope, loc, out=p, scratch=scratch)
        if eom is not None:
            tables.lookup(eom, eom_slope, loc, out=q, scratch=scratch)
        np.add(pl, qr, flux)
        if bread is None:
            np.subtract(ur, ul, mid)
            mid *= beh
            flux -= mid
        else:
            np.add(ul, ur, mid)
            mid *= 0.5
            mloc, bm, bs = bread
            tables.lookup(btab, b_slope,
                          tables.locate(lo, inv, top, mid, out=mloc),
                          out=bm, scratch=bs)
            bm *= eh
            bm *= np.subtract(ur, ul, mid)
            flux -= bm
        np.subtract(fr, fl, diff)
        if steps:
            diff *= factors[ax]
        else:
            diffs *= dt / h
        src = np.subtract(src, dint, out)
    return out


def godunov_step(u, dt, out, plan: GodunovPlan):
    """Conservative Godunov step along the axis of its plan, zero ghost
    cells: each line along that axis is updated as an independent 1-D
    problem."""
    lines = np.moveaxis(u, plan.axis, 0)
    ext = np.zeros((lines.shape[0] + 2, *lines.shape[1:]))
    ext[1:-1] = lines
    f = tables.lookup(plan.ftab, plan.f_slope,
                      tables.locate(plan.lo, plan.inv, plan.top, ext))
    # face i of each line lies between its cells i and i + 1 of ext
    ul, ur = ext[:-1], ext[1:]
    gmin, gmax = np.minimum(f[:-1], f[1:]), np.maximum(f[:-1], f[1:])
    for cy, cf in plan.crit:
        np.minimum(gmin, cf, out=gmin, where=(ul < cy) & (cy < ur))
        np.maximum(gmax, cf, out=gmax, where=(ur < cy) & (cy < ul))
    # the flux: gmin where ul <= ur, else gmax
    np.copyto(gmax, gmin, where=ul <= ur)
    d = np.subtract(gmax[1:], gmax[:-1], out=gmin[1:])
    d *= dt / plan.h
    return np.subtract(u, np.moveaxis(d, 0, plan.axis), out=out)


# keyed by ``active_backend()``; ``get_kernel`` looks a kernel up when a
# march is set up, so a rebound entry is the one that runs.  Each scheme's
# names map to its one kernel, so each dimension keeps a name of its own
KERNELS = {
    "numpy": {
        "visc_step_1d": visc_step,
        "visc_step_2d": visc_step,
        "godunov_step_1d": godunov_step,
        "godunov_sweep_2d": godunov_step,
    },
}


def get_kernel(name: str):
    return KERNELS["numpy"][name]
