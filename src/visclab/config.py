"""Scenario configuration: parse, validate, render, hash.

One INI-style text file describes a full experiment.  Each key it may set is
declared once, on the ``ScenarioConfig`` field its value fills: section, key,
parser and default.  ``build_scenario`` reads every declared key, rejects any
other, and checks the values; ``render_config`` writes the same keys back out
as the canonical resolved text, and ``build_scenario(render_config(cfg))``
reproduces an identical config.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields

from . import mollify
from .domain import FLUX_PRESETS, VISCOSITY_PRESETS, Grid

__all__ = ["ScenarioConfig", "ConfigError", "build_scenario", "render_config",
           "config_hash"]


class ConfigError(ValueError):
    pass


# A parser reads ``parse(text, name, got)``: the key's text, its
# ``section.key`` name for the error, and the values read before it.

def _float(text: str, key: str, got=None) -> float:
    """One finite real; ``key`` names it in the error."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} = {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} = {text.strip()!r} must be finite")
    return value


def _int(text: str, key: str, got=None) -> int:
    """One whole number; ``key`` names it in the error."""
    value = _float(text, key)
    if value != int(value):
        raise ConfigError(f"{key} = {text.strip()!r} is not a whole number")
    return int(value)


def _text(text: str, key: str, got) -> str:
    return text


def _dimension(text: str, key: str, got) -> int:
    dim = _int(text, key)
    if dim not in (1, 2):
        raise ConfigError("grid.dimension must be 1 or 2")
    return dim


def _list(parse):
    """Comma-separated values read by ``parse``; empty items are skipped."""
    def read(text: str, key: str, got=None) -> tuple:
        return tuple(parse(tok, key) for tok in text.split(",")
                     if tok.strip() != "")
    return read


_reals = _list(_float)


def _names(text: str, key: str, got) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(","))


def _pairs(text: str, key: str, got) -> tuple[tuple[float, ...], ...]:
    """``lo,hi`` pairs separated by ``;``."""
    return tuple(_reals(p, key) for p in text.split(";") if p.strip() != "")


def _per_axis(parse):
    """One value given for a per-axis key stands for every axis."""
    def read(text: str, key: str, got) -> tuple:
        values = parse(text, key, got)
        return values * got["dim"] if len(values) == 1 else values
    return read


def _widths(text: str, key: str, got) -> tuple[float, ...]:
    """``match`` hands over the ladder itself; one width stands for every
    member."""
    if text.strip() == "match":
        return got["ladder"]
    widths = _reals(text, key)
    return widths * len(got["ladder"]) if len(widths) == 1 else widths


def _key(section: str, key: str, parse, default=None):
    """Declare that a field is read from ``[section] key`` by ``parse``.

    ``default`` is the text read when the key is absent, a function of the
    values read before it, or None for a required key."""
    return field(metadata={"key": (section, key, parse, default)})


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int = _key("grid", "dimension", _dimension, "1")
    cells: tuple[int, ...] = _key("grid", "cells", _per_axis(_list(_int)))
    # grid.extent fills extent_lo and extent_hi
    extent_lo: tuple[float, ...] = _key("grid", "extent", _per_axis(_pairs),
                                        "0,1")
    extent_hi: tuple[float, ...]
    time_horizon: float = _key("grid", "time_horizon", _float)
    flux_names: tuple[str, ...] = _key("flux", "preset", _per_axis(_names))
    flux_a: float = _key("flux", "a", _float, "1.0")
    visc_name: str = _key("viscosity", "preset", _text, "constant")
    visc_b: float = _key("viscosity", "b", _float, "1.0")
    visc_r: float = _key("viscosity", "r", _float, "1.0")
    init_name: str = _key("initial", "preset", _text)
    init_center: tuple[float, ...] = _key("initial", "center",
                                          _per_axis(_reals), "0.5")
    init_width: float = _key("initial", "width", _float, "0.25")
    init_amplitude: float = _key("initial", "amplitude", _float, "1.0")
    init_amplitude2: float = _key("initial", "amplitude2", _float,
                                  lambda got: -got["init_amplitude"])
    init_separation: float = _key("initial", "separation", _float,
                                  lambda got: 2.0 * got["init_width"])
    ladder: tuple[float, ...] = _key("ladder", "epsilons", _reals)
    mollifier_widths: tuple[float, ...] = _key("ladder", "mollifier_width",
                                               _widths, "match")
    cfl: float = _key("scheme", "cfl", _float, "0.4")
    quadrature_tol: float = _key("scheme", "quadrature_tol", _float, "1e-8")
    integrator: str = _key("scheme", "integrator", _text, "euler")
    snapshots: int = _key("scheme", "snapshots", _int, "64")
    kruzkov_count: int = _key("scheme", "kruzkov_count", _int, "5")
    kruzkov_delta: float = _key("scheme", "kruzkov_delta", _float, "1e-3")
    young_window_cells: int = _key("scheme", "young_window_cells", _int, "8")
    young_window_snaps: int = _key("scheme", "young_window_snaps", _int, "13")
    young_bins: int = _key("scheme", "young_bins", _int, "64")
    weak_window_cells: int = _key("scheme", "weak_window_cells", _int, "8")
    weak_window_snaps: int = _key("scheme", "weak_window_snaps", _int, "8")
    outdir: str = _key("output", "directory", _text)
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


# (field, section, key, parse, default) of every key a scenario may set, in
# the order of the fields and of the rendered file
DECLARED = tuple((f.name, *f.metadata["key"]) for f in fields(ScenarioConfig)
                 if "key" in f.metadata)


def build_scenario(config_text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    known = {(section, key) for _, section, key, _, _ in DECLARED}
    # [DEFAULT] comes first: once it is empty, a section lists only its own keys
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key [{section}] {key}")

    v = {}  # field -> value, read in declaration order
    for name, section, key, parse, default in DECLARED:
        given = parser.get(section, key, fallback=default)
        if given is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        v[name] = (given(v) if callable(given)
                   else parse(given, f"{section}.{key}", v))

    dim, cells, pairs = v["dim"], v["cells"], v["extent_lo"]
    if len(cells) != dim or any(c <= 0 for c in cells):
        raise ConfigError("grid.cells must list one positive count per axis")
    if len(pairs) != dim:
        raise ConfigError("grid.extent must give one lo,hi pair per axis")
    if any(len(p) != 2 or p[1] <= p[0] for p in pairs):
        raise ConfigError("grid.extent pairs must be lo,hi with lo < hi")
    v["extent_lo"], v["extent_hi"] = zip(*pairs)
    if v["time_horizon"] <= 0:
        raise ConfigError("grid.time_horizon must be positive")

    if len(v["flux_names"]) != dim:
        raise ConfigError("flux.preset needs one preset per axis")
    for name in v["flux_names"]:
        if name not in FLUX_PRESETS:
            raise ConfigError(f"unknown flux.preset {name!r}")

    visc_name = v["visc_name"]
    if visc_name not in VISCOSITY_PRESETS:
        raise ConfigError(f"unknown viscosity.preset {visc_name!r}")
    if visc_name == "constant" and v["visc_b"] <= 0:
        raise ConfigError("viscosity.b must be positive under preset = constant")
    if visc_name == "gaussian" and v["visc_r"] <= 0:
        raise ConfigError("viscosity.r must be positive under preset = gaussian")

    if v["init_name"] not in mollify.DATA_PRESETS:
        raise ConfigError(f"unknown initial.preset {v['init_name']!r}")
    if len(v["init_center"]) != dim:
        raise ConfigError("initial.center needs one value per axis")
    if v["init_width"] <= 0:
        raise ConfigError("initial.width must be positive")

    ladder, widths = v["ladder"], v["mollifier_widths"]
    if len(ladder) == 0 or any(e <= 0 for e in ladder):
        raise ConfigError("ladder.epsilons must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("epsilon ladder must be strictly decreasing")
    if len(widths) != len(ladder) or any(w <= 0 for w in widths):
        raise ConfigError("ladder.mollifier_width must be 'match', one "
                          "positive value, or one per epsilon")
    spacing = Grid(cells, v["extent_lo"], v["extent_hi"],
                   v["time_horizon"]).spacing
    narrow = [w for w in widths if mollify.within_one_cell(w, spacing)]
    if narrow:
        matched = " (matched to ladder.epsilons)" if widths is ladder else ""
        raise ConfigError(
            f"ladder.mollifier_width {min(narrow):g}{matched} is at most one "
            f"cell (spacing {max(spacing):g}); its kernel would have a single "
            "node and leave the data unmollified")

    if not 0.0 < v["cfl"] < 1.0:
        raise ConfigError("scheme.cfl must lie in (0, 1)")
    if v["quadrature_tol"] <= 0:
        raise ConfigError("scheme.quadrature_tol must be positive")
    if v["integrator"] != "euler":
        raise ConfigError("scheme.integrator must be euler")
    snapshots = v["snapshots"]
    if snapshots < 2:
        raise ConfigError("scheme.snapshots must be at least 2")
    if v["kruzkov_count"] < 0:
        raise ConfigError(f"scheme.kruzkov_count = {v['kruzkov_count']} "
                          "must be at least 0")
    if v["kruzkov_delta"] <= 0:
        raise ConfigError("scheme.kruzkov_delta must be positive")
    yw_cells, yw_snaps = v["young_window_cells"], v["young_window_snaps"]
    if yw_cells <= 0 or any(c % yw_cells for c in cells):
        raise ConfigError(f"scheme.young_window_cells = {yw_cells} must divide "
                          f"grid.cells {','.join(map(str, cells))}")
    if yw_snaps <= 0 or (snapshots + 1) % yw_snaps:
        raise ConfigError(f"scheme.young_window_snaps = {yw_snaps} must divide "
                          f"scheme.snapshots + 1 = {snapshots + 1}")
    # weak windows may be ragged at the far edge, but never empty
    for key in ("young_bins", "weak_window_cells", "weak_window_snaps"):
        if v[key] < 1:
            raise ConfigError(f"scheme.{key} = {v[key]} must be at least 1")

    cfg = ScenarioConfig(**v, raw_text=config_text)
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


def _render(value) -> str:
    """Strings as they are, numbers by ``repr``, tuples joined by ``,`` and
    tuples of pairs by ``;``."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        sep = ";" if isinstance(value[0], tuple) else ","
        return sep.join(_render(item) for item in value)
    return repr(value)


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical resolved text; parsing it back reproduces the config."""
    parser = configparser.ConfigParser(interpolation=None)
    for name, section, key, _, _ in DECLARED:
        value = getattr(cfg, name)
        if name == "extent_lo":
            value = tuple(zip(cfg.extent_lo, cfg.extent_hi))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _render(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
