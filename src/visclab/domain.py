"""Grids, trajectories and the flux / viscosity / entropy abstractions.

The invariant interval I = [-sup|u0|, sup|u0|] is fixed when a flux is built;
the discrete maximum principle keeps every solver state inside it, so all
tabulated functions only ever need to be accurate there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .tables import TableLattice, TABLE_NODES


# ---------------------------------------------------------------------------
# grid and trajectories


@dataclass(frozen=True)
class Grid:
    cells: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    time_horizon: float

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        if len(self.lo) != len(self.cells) or len(self.hi) != len(self.cells):
            raise ValueError("extent arity does not match cell arity")
        for n, a, b in zip(self.cells, self.lo, self.hi):
            if n <= 0 or b <= a:
                raise ValueError("cells must be positive and extents nonempty")
        if self.time_horizon <= 0:
            raise ValueError("time horizon must be positive")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / n for n, a, b in zip(self.cells, self.lo, self.hi))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        return math.prod(b - a for a, b in zip(self.lo, self.hi))

    def centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.centers(j) for j in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class FieldTrajectory:
    """Time-indexed grid functions; the central numerical object.

    ``values`` is stacked (num_times, *cells). ``epsilon == 0`` marks the
    inviscid reference.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    epsilon: float
    dt: float = 0.0
    steps_taken: int = 0
    max_abs_seen: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (t.size,) + self.grid.cells:
            raise ValueError("trajectory shape mismatch")
        if t.size < 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and strictly increase")
        slack = self.dt if self.dt > 0 else 1e-9
        if abs(t[-1] - self.grid.time_horizon) > slack + 1e-12:
            raise ValueError("last snapshot not within one dt of the horizon")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def num_snapshots(self) -> int:
        return self.times.size


# ---------------------------------------------------------------------------
# flux


@dataclass(frozen=True)
class FluxTables:
    f: np.ndarray
    eo_plus: np.ndarray   # f(0) + integral of max(f', 0); nondecreasing
    eo_minus: np.ndarray  # integral of min(f', 0); nonincreasing
    crit_y: np.ndarray
    crit_f: np.ndarray


@dataclass(frozen=True)
class FluxComponent:
    name: str
    f: object
    fp: object
    lipschitz: float


@dataclass(frozen=True)
class FluxSpec:
    components: tuple[FluxComponent, ...]
    lattice: TableLattice
    tables: tuple[FluxTables, ...]
    lipschitz_bound: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lattice.lo, self.lattice.hi)


def _flux_component(name: str, params: dict, sup: float) -> FluxComponent:
    """Preset ``name``; ``lipschitz`` bounds |f'| on [-sup, sup]."""
    if name == "burgers":
        return FluxComponent("burgers",
                             lambda u: 0.5 * u * u,
                             lambda u: np.asarray(u, dtype=np.float64) + 0.0,
                             lipschitz=sup)
    if name == "linear":
        a = float(params.get("a", 1.0))
        return FluxComponent("linear",
                             lambda u, a=a: a * np.asarray(u, dtype=np.float64),
                             lambda u, a=a: np.full_like(np.asarray(u, dtype=np.float64), a),
                             lipschitz=abs(a))
    if name == "arctan":
        def f(u):
            u = np.asarray(u, dtype=np.float64)
            return u * np.arctan(u) - 0.5 * np.log1p(u * u)
        return FluxComponent("arctan", f,
                             lambda u: np.arctan(np.asarray(u, dtype=np.float64)),
                             lipschitz=float(np.arctan(sup)))
    raise ValueError(f"unknown flux preset {name!r}")


FLUX_PRESETS = ("burgers", "linear", "arctan")


def make_flux(names: tuple[str, ...] | list[str], interval: tuple[float, float],
              tol: float = 1e-8, params: dict | None = None) -> FluxSpec:
    """Build the per-axis flux components and their shared tables on I."""
    params = params or {}
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("invariant interval must be nonempty")
    lattice = TableLattice(lo, hi, TABLE_NODES)
    comps = []
    tabs = []
    sup = max(abs(lo), abs(hi))
    for name in names:
        comp = _flux_component(name, params, sup)
        fvals = tables.sample_table(comp.f, lattice)
        f0 = float(np.asarray(comp.f(0.0)))
        eo_plus = f0 + tables.monotone_envelope(
            tables.cumulative_table(lambda s, c=comp: np.maximum(c.fp(s), 0.0), lattice, tol),
            increasing=True)
        eo_minus = tables.monotone_envelope(
            tables.cumulative_table(lambda s, c=comp: np.minimum(c.fp(s), 0.0), lattice, tol),
            increasing=False)
        fpvals = np.asarray(comp.fp(lattice.nodes()), dtype=np.float64)
        crit_y, crit_f = tables.critical_nodes(lattice, fpvals, fvals)
        comps.append(comp)
        tabs.append(FluxTables(fvals, eo_plus, eo_minus, crit_y, crit_f))
    lipschitz = max(c.lipschitz for c in comps)
    return FluxSpec(tuple(comps), lattice, tuple(tabs), lipschitz)


# ---------------------------------------------------------------------------
# viscosity


@dataclass(frozen=True)
class ViscositySpec:
    """B, its bounds on I, and its node values on the flux lattice of I,
    which the kernels read at face means."""

    name: str
    B: object
    lower_bound: float
    upper_bound: float
    table: np.ndarray = field(repr=False)


VISCOSITY_PRESETS = ("constant", "quadratic", "gaussian")


def make_viscosity(name: str, interval: tuple[float, float],
                   params: dict | None = None) -> ViscositySpec:
    params = params or {}
    lo, hi = float(interval[0]), float(interval[1])
    m = max(abs(lo), abs(hi))
    if name == "constant":
        b = float(params.get("b", 1.0))
        if b <= 0:
            raise ValueError("constant viscosity must be positive")
        B = lambda u: np.full_like(np.asarray(u, dtype=np.float64), b)
        bounds = (b, b)
    elif name == "quadratic":
        # 1 + u^2 with the argument truncated to I so B stays bounded globally
        def B(u, m=m):
            c = np.clip(np.asarray(u, dtype=np.float64), -m, m)
            return 1.0 + c * c
        bounds = (1.0, 1.0 + m * m)
    elif name == "gaussian":
        r = float(params.get("r", 1.0))
        if r <= 0:
            raise ValueError("gaussian viscosity floor r must be positive")
        B = lambda u, r=r: r + np.exp(-np.asarray(u, dtype=np.float64) ** 2)
        bounds = (r, r + 1.0)
    else:
        raise ValueError(f"unknown viscosity preset {name!r}")
    table = tables.sample_table(B, TableLattice(lo, hi, TABLE_NODES))
    return ViscositySpec(name, B, *bounds, table)


# ---------------------------------------------------------------------------
# entropy pairs


@dataclass(frozen=True)
class EntropyPair:
    """Convex entropy eta with its first and second derivatives.

    The split of the viscous entropy production reads eta, eta'' and
    ``etapp_sup``, the supremum of eta'' on the invariant interval; eta'
    stays a function, for whoever tabulates the companion fluxes
    q_j' = eta' f_j' (the tests' oracle does).
    """

    name: str
    eta: object
    etap: object
    etapp: object
    etapp_sup: float


def _entropy_functions(preset: str, params: dict):
    """``(name, eta, eta', eta'', sup eta'')`` of a preset; the supremum is
    None where the lattice's maximum of eta'' serves."""
    if preset == "square":
        return ("square",
                lambda u: 0.5 * np.asarray(u, dtype=np.float64) ** 2,
                lambda u: np.asarray(u, dtype=np.float64) + 0.0,
                lambda u: np.ones_like(np.asarray(u, dtype=np.float64)), None)
    if preset == "kruzkov":
        k = float(params.get("k", 0.0))
        delta = float(params.get("delta", 1e-3))
        if delta <= 0:
            raise ValueError("kruzkov smoothing width must be positive")
        def eta(u, k=k, d=delta):
            x = np.asarray(u, dtype=np.float64) - k
            return np.sqrt(x * x + d * d) - d
        def etap(u, k=k, d=delta):
            x = np.asarray(u, dtype=np.float64) - k
            return x / np.sqrt(x * x + d * d)
        def etapp(u, k=k, d=delta):
            x = np.asarray(u, dtype=np.float64) - k
            return d * d / np.sqrt(x * x + d * d) ** 3
        # the analytic supremum 1/delta, attained at u = k, which a lattice
        # node need not hit
        digits = int(params.get("digits", 2))
        return (f"kruzkov[k={k:+.{digits}f}]", eta, etap, etapp, 1.0 / delta)
    raise ValueError(f"unknown entropy preset {preset!r}")


def entropy_pair_from_functions(name: str, eta, etap, etapp, flux: FluxSpec,
                                tol: float,
                                etapp_sup: float | None = None) -> EntropyPair:
    """Generic constructor; rejects entropies that fail the convexity check.
    ``etapp_sup`` defaults to the maximum of eta'' on the table lattice."""
    if tol <= 0:
        raise ValueError("quadrature tolerance must be positive")
    curv = np.asarray(etapp(flux.lattice.nodes()), dtype=np.float64)
    if np.min(curv) < -tol:
        raise ValueError(f"entropy {name!r} is not convex on the invariant interval")
    if etapp_sup is None:
        etapp_sup = float(np.max(curv))
    return EntropyPair(name, eta, etap, etapp, etapp_sup)


def make_entropy_pair(preset: str, flux: FluxSpec, tol: float,
                      **params) -> EntropyPair:
    name, eta, etap, etapp, etapp_sup = _entropy_functions(preset, params)
    return entropy_pair_from_functions(name, eta, etap, etapp, flux, tol,
                                       etapp_sup)


def kruzkov_ladder(flux: FluxSpec, count: int, delta: float,
                   tol: float) -> list[EntropyPair]:
    """Smoothed |u - k| entropies for k uniformly spaced over I, each named
    by its k with the fewest decimals, at least 2, that keep the names
    distinct."""
    lo, hi = flux.interval
    ks = np.linspace(lo, hi, count)
    digits = next(d for d in itertools.count(2)
                  if len({f"{k:+.{d}f}" for k in ks}) == ks.size)
    return [make_entropy_pair("kruzkov", flux, tol, k=float(k), delta=delta,
                              digits=digits)
            for k in ks]
