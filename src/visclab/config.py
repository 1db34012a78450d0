"""Scenario configuration: parse, validate, render, hash.

One INI-style text file describes a full experiment.  ``build_scenario`` turns
the text into a validated ``ScenarioConfig`` with defaults filled in;
``render_config`` writes the canonical resolved text back out, and
``build_scenario(render_config(cfg))`` reproduces an identical config.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field

from . import mollify
from .domain import FLUX_PRESETS, VISCOSITY_PRESETS, Grid

__all__ = ["ScenarioConfig", "ConfigError", "build_scenario", "render_config",
           "config_hash", "DEFAULT_CFL", "DEFAULT_TOL"]

DEFAULT_CFL = 0.4
DEFAULT_TOL = 1e-8


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int
    cells: tuple[int, ...]
    extent_lo: tuple[float, ...]
    extent_hi: tuple[float, ...]
    time_horizon: float
    flux_names: tuple[str, ...]
    flux_a: float
    visc_name: str
    visc_b: float
    visc_r: float
    init_name: str
    init_center: tuple[float, ...]
    init_width: float
    init_amplitude: float
    init_amplitude2: float
    init_separation: float
    ladder: tuple[float, ...]
    mollifier_widths: tuple[float, ...]
    cfl: float
    quadrature_tol: float
    integrator: str
    snapshots: int
    kruzkov_count: int
    kruzkov_delta: float
    young_window_cells: int
    young_window_snaps: int
    young_bins: int
    weak_window_cells: int
    weak_window_snaps: int
    outdir: str
    raw_text: str = field(default="", compare=False, repr=False)

    @property
    def sup_u0(self) -> float:
        if self.init_name == "twobump":
            return max(abs(self.init_amplitude), abs(self.init_amplitude2))
        return abs(self.init_amplitude)

    @property
    def support_margin(self) -> float:
        """Distance from the initial-data support to the domain boundary."""
        return mollify.support_margin(self.init_name, self.init_center,
                                      self.init_width, self.init_separation,
                                      self.extent_lo, self.extent_hi)


def _float(text: str, key: str) -> float:
    """One finite real; ``key`` names it in the error."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} = {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} = {text.strip()!r} must be finite")
    return value


def _int(text: str, key: str) -> int:
    """One whole number; ``key`` names it in the error."""
    value = _float(text, key)
    if value != int(value):
        raise ConfigError(f"{key} = {text.strip()!r} is not a whole number")
    return int(value)


def _numbers(text: str, key: str, parse=_float) -> tuple:
    return tuple(parse(tok, key) for tok in text.split(",") if tok.strip() != "")


def _get(parser, section, key, fallback, parse=_float):
    if not parser.has_option(section, key):
        return fallback
    return parse(parser.get(section, key), f"{section}.{key}")


def _require(parser, section, key):
    if not parser.has_option(section, key):
        raise ConfigError(f"missing required key [{section}] {key}")
    return parser.get(section, key)


def _per_axis(values, dim: int):
    """One value given for a per-axis key stands for every axis."""
    return values * dim if len(values) == 1 else values


def build_scenario(config_text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc

    dim = _get(parser, "grid", "dimension", 1, _int)
    if dim not in (1, 2):
        raise ConfigError("grid.dimension must be 1 or 2")
    cells = _per_axis(_numbers(_require(parser, "grid", "cells"), "grid.cells",
                               _int), dim)
    if len(cells) != dim or any(c <= 0 for c in cells):
        raise ConfigError("grid.cells must list one positive count per axis")
    extent_txt = parser.get("grid", "extent", fallback=";".join(["0,1"] * dim))
    pieces = _per_axis([p for p in extent_txt.split(";") if p.strip() != ""],
                       dim)
    if len(pieces) != dim:
        raise ConfigError("grid.extent must give one lo,hi pair per axis")
    lo, hi = [], []
    for p in pieces:
        vals = _numbers(p, "grid.extent")
        if len(vals) != 2 or vals[1] <= vals[0]:
            raise ConfigError("grid.extent pairs must be lo,hi with lo < hi")
        lo.append(vals[0])
        hi.append(vals[1])
    time_horizon = _float(_require(parser, "grid", "time_horizon"),
                          "grid.time_horizon")
    if time_horizon <= 0:
        raise ConfigError("grid.time_horizon must be positive")

    flux_names = _per_axis(tuple(
        t.strip() for t in _require(parser, "flux", "preset").split(",")), dim)
    if len(flux_names) != dim:
        raise ConfigError("flux.preset needs one preset per axis")
    for name in flux_names:
        if name not in FLUX_PRESETS:
            raise ConfigError(f"unknown flux.preset {name!r}")
    flux_a = _get(parser, "flux", "a", 1.0)

    visc_name = parser.get("viscosity", "preset", fallback="constant")
    if visc_name not in VISCOSITY_PRESETS:
        raise ConfigError(f"unknown viscosity.preset {visc_name!r}")
    visc_b = _get(parser, "viscosity", "b", 1.0)
    visc_r = _get(parser, "viscosity", "r", 1.0)
    if visc_name == "constant" and visc_b <= 0:
        raise ConfigError("viscosity.b must be positive under preset = constant")
    if visc_name == "gaussian" and visc_r <= 0:
        raise ConfigError("viscosity.r must be positive under preset = gaussian")

    init_name = _require(parser, "initial", "preset")
    if init_name not in mollify.DATA_PRESETS:
        raise ConfigError(f"unknown initial.preset {init_name!r}")
    center_txt = parser.get("initial", "center", fallback="0.5")
    center = _per_axis(_numbers(center_txt, "initial.center"), dim)
    if len(center) != dim:
        raise ConfigError("initial.center needs one value per axis")
    init_width = _get(parser, "initial", "width", 0.25)
    init_amp = _get(parser, "initial", "amplitude", 1.0)
    init_amp2 = _get(parser, "initial", "amplitude2", -init_amp)
    init_sep = _get(parser, "initial", "separation", 2.0 * init_width)
    if init_width <= 0:
        raise ConfigError("initial.width must be positive")

    ladder = _numbers(_require(parser, "ladder", "epsilons"), "ladder.epsilons")
    if len(ladder) == 0 or any(e <= 0 for e in ladder):
        raise ConfigError("ladder.epsilons must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("epsilon ladder must be strictly decreasing")
    width_txt = parser.get("ladder", "mollifier_width", fallback="match")
    if width_txt.strip() == "match":
        widths = ladder
    else:
        widths = _numbers(width_txt, "ladder.mollifier_width")
        if len(widths) == 1:
            widths = widths * len(ladder)
        if len(widths) != len(ladder) or any(w <= 0 for w in widths):
            raise ConfigError("ladder.mollifier_width must be 'match', one "
                              "positive value, or one per epsilon")
    spacing = Grid(cells, tuple(lo), tuple(hi), time_horizon).spacing
    narrow = [w for w in widths if mollify.within_one_cell(w, spacing)]
    if narrow:
        matched = (" (matched to ladder.epsilons)"
                   if width_txt.strip() == "match" else "")
        raise ConfigError(
            f"ladder.mollifier_width {min(narrow):g}{matched} is at most one "
            f"cell (spacing {max(spacing):g}); its kernel would have a single "
            "node and leave the data unmollified")

    cfl = _get(parser, "scheme", "cfl", DEFAULT_CFL)
    if not 0.0 < cfl < 1.0:
        raise ConfigError("scheme.cfl must lie in (0, 1)")
    tol = _get(parser, "scheme", "quadrature_tol", DEFAULT_TOL)
    if tol <= 0:
        raise ConfigError("scheme.quadrature_tol must be positive")
    integrator = parser.get("scheme", "integrator", fallback="euler")
    if integrator != "euler":
        raise ConfigError("scheme.integrator must be euler")
    snapshots = _get(parser, "scheme", "snapshots", 64, _int)
    if snapshots < 2:
        raise ConfigError("scheme.snapshots must be at least 2")
    kr_count = _get(parser, "scheme", "kruzkov_count", 5, _int)
    if kr_count < 0:
        raise ConfigError(f"scheme.kruzkov_count = {kr_count} must be at least 0")
    kr_delta = _get(parser, "scheme", "kruzkov_delta", 1e-3)
    if kr_delta <= 0:
        raise ConfigError("scheme.kruzkov_delta must be positive")
    yw_cells = _get(parser, "scheme", "young_window_cells", 8, _int)
    yw_snaps = _get(parser, "scheme", "young_window_snaps", 13, _int)
    if yw_cells <= 0 or any(c % yw_cells for c in cells):
        raise ConfigError(f"scheme.young_window_cells = {yw_cells} must divide "
                          f"grid.cells {','.join(map(str, cells))}")
    if yw_snaps <= 0 or (snapshots + 1) % yw_snaps:
        raise ConfigError(f"scheme.young_window_snaps = {yw_snaps} must divide "
                          f"scheme.snapshots + 1 = {snapshots + 1}")
    y_bins = _get(parser, "scheme", "young_bins", 64, _int)
    ww_cells = _get(parser, "scheme", "weak_window_cells", 8, _int)
    ww_snaps = _get(parser, "scheme", "weak_window_snaps", 8, _int)
    # weak windows may be ragged at the far edge, but never empty
    for key, value in (("young_bins", y_bins), ("weak_window_cells", ww_cells),
                       ("weak_window_snaps", ww_snaps)):
        if value < 1:
            raise ConfigError(f"scheme.{key} = {value} must be at least 1")

    outdir = _require(parser, "output", "directory")

    cfg = ScenarioConfig(
        dim=dim, cells=cells, extent_lo=tuple(lo), extent_hi=tuple(hi),
        time_horizon=time_horizon, flux_names=flux_names, flux_a=flux_a,
        visc_name=visc_name, visc_b=visc_b, visc_r=visc_r,
        init_name=init_name, init_center=tuple(center), init_width=init_width,
        init_amplitude=init_amp, init_amplitude2=init_amp2,
        init_separation=init_sep, ladder=tuple(ladder),
        mollifier_widths=tuple(widths), cfl=cfl, quadrature_tol=tol,
        integrator=integrator, snapshots=snapshots, kruzkov_count=kr_count,
        kruzkov_delta=kr_delta, young_window_cells=yw_cells,
        young_window_snaps=yw_snaps, young_bins=y_bins,
        weak_window_cells=ww_cells, weak_window_snaps=ww_snaps,
        outdir=outdir, raw_text=config_text)

    margin = cfg.support_margin
    if margin <= 0:
        raise ConfigError("initial data support reaches the boundary "
                          "(keys: initial.center, initial.width)")
    wmax = max(cfg.mollifier_widths)
    if margin <= wmax:
        raise ConfigError(
            f"initial-data support margin {margin:g} (from initial.center/"
            f"initial.width) must exceed the largest mollifier width {wmax:g} "
            f"(key: ladder.mollifier_width)")
    return cfg


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical resolved text; parsing it back reproduces the config."""
    parser = configparser.ConfigParser()
    parser["grid"] = {
        "dimension": str(cfg.dim),
        "cells": ",".join(str(c) for c in cfg.cells),
        "extent": ";".join(f"{a!r},{b!r}" for a, b in zip(cfg.extent_lo, cfg.extent_hi)),
        "time_horizon": repr(cfg.time_horizon),
    }
    parser["flux"] = {"preset": ",".join(cfg.flux_names), "a": repr(cfg.flux_a)}
    parser["viscosity"] = {"preset": cfg.visc_name, "b": repr(cfg.visc_b),
                           "r": repr(cfg.visc_r)}
    parser["initial"] = {
        "preset": cfg.init_name,
        "center": ",".join(repr(c) for c in cfg.init_center),
        "width": repr(cfg.init_width),
        "amplitude": repr(cfg.init_amplitude),
        "amplitude2": repr(cfg.init_amplitude2),
        "separation": repr(cfg.init_separation),
    }
    parser["ladder"] = {
        "epsilons": ",".join(repr(e) for e in cfg.ladder),
        "mollifier_width": ",".join(repr(w) for w in cfg.mollifier_widths),
    }
    parser["scheme"] = {
        "cfl": repr(cfg.cfl),
        "quadrature_tol": repr(cfg.quadrature_tol),
        "integrator": cfg.integrator,
        "snapshots": str(cfg.snapshots),
        "kruzkov_count": str(cfg.kruzkov_count),
        "kruzkov_delta": repr(cfg.kruzkov_delta),
        "young_window_cells": str(cfg.young_window_cells),
        "young_window_snaps": str(cfg.young_window_snaps),
        "young_bins": str(cfg.young_bins),
        "weak_window_cells": str(cfg.weak_window_cells),
        "weak_window_snaps": str(cfg.weak_window_snaps),
    }
    parser["output"] = {"directory": cfg.outdir}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
