import configparser
import io
import re

import pytest

from conftest import SCENARIOS
from visclab.config import (DECLARED, ConfigError, build_scenario, config_hash,
                            render_config)

MINIMAL = """
[grid]
cells = 50
time_horizon = 0.3
[flux]
preset = burgers
[initial]
preset = bump
[ladder]
epsilons = 0.1,0.05
[scheme]
young_window_cells = 2
[output]
directory = runs/x
"""


def test_minimal_defaults():
    cfg = build_scenario(MINIMAL)
    assert cfg.cfl == 0.4
    assert cfg.quadrature_tol == 1e-8
    assert cfg.dim == 1
    assert cfg.extent_lo == (0.0,) and cfg.extent_hi == (1.0,)
    assert cfg.mollifier_widths == cfg.ladder  # 'match' policy


def test_nondecreasing_ladder_rejected():
    bad = MINIMAL.replace("epsilons = 0.1,0.05", "epsilons = 0.1,0.2")
    with pytest.raises(ConfigError, match="strictly decreasing"):
        build_scenario(bad)


def test_margin_vs_width_names_both_keys():
    bad = MINIMAL + "\n[scratch]\n"
    bad = bad.replace("preset = bump", "preset = bump\ncenter = 0.5\nwidth = 0.45")
    bad = bad.replace("epsilons = 0.1,0.05",
                      "epsilons = 0.1,0.05\nmollifier_width = 0.1")
    with pytest.raises(ConfigError) as err:
        build_scenario(bad)
    msg = str(err.value)
    assert "initial" in msg and "mollifier_width" in msg


def test_missing_key_named():
    bad = MINIMAL.replace("epsilons = 0.1,0.05", "")
    with pytest.raises(ConfigError, match="epsilons"):
        build_scenario(bad)


def test_cfl_range():
    bad = MINIMAL.replace("[scheme]", "[scheme]\ncfl = 1.5")
    with pytest.raises(ConfigError, match="cfl"):
        build_scenario(bad)


def test_round_trip():
    cfg = build_scenario(MINIMAL)
    again = build_scenario(render_config(cfg))
    assert again == cfg
    # and rendering is a fixed point
    assert render_config(again) == render_config(cfg)


def test_percent_in_value_round_trips():
    text = MINIMAL.replace("directory = runs/x", "directory = runs/50%")
    cfg = build_scenario(text)
    assert cfg.outdir == "runs/50%"
    rendered = render_config(cfg)
    assert "directory = runs/50%\n" in rendered
    assert build_scenario(rendered) == cfg


def test_hash_changes_with_any_byte():
    assert config_hash(MINIMAL) != config_hash(MINIMAL + " ")


def test_2d_broadcasting():
    # on 16 cells a width of 0.05 is within one cell, hence the wider ladder
    text = MINIMAL.replace("[grid]", "[grid]\ndimension = 2").replace(
        "cells = 50", "cells = 16").replace("epsilons = 0.1,0.05",
                                            "epsilons = 0.2,0.1")
    cfg = build_scenario(text)
    assert cfg.cells == (16, 16)
    assert cfg.flux_names == ("burgers", "burgers")
    assert cfg.init_center == (0.5, 0.5)


def test_young_window_snaps_must_divide_snapshots():
    # default 64 snapshots: 65 snapshot times, which 7 does not divide
    bad = MINIMAL.replace("[scheme]", "[scheme]\nyoung_window_snaps = 7")
    with pytest.raises(ConfigError, match="young_window_snaps"):
        build_scenario(bad)


def test_young_window_cells_must_divide_cells():
    bad = MINIMAL.replace("young_window_cells = 2", "young_window_cells = 8")
    with pytest.raises(ConfigError, match="young_window_cells"):
        build_scenario(bad)


def test_unknown_flux_preset_rejected():
    bad = MINIMAL.replace("preset = burgers", "preset = burgerz")
    with pytest.raises(ConfigError, match="flux.preset"):
        build_scenario(bad)


def test_unknown_viscosity_preset_rejected():
    bad = MINIMAL.replace("[ladder]", "[viscosity]\npreset = honey\n[ladder]")
    with pytest.raises(ConfigError, match="viscosity.preset"):
        build_scenario(bad)


@pytest.mark.parametrize("key, value", [("weak_window_cells", 0),
                                        ("weak_window_snaps", -1),
                                        ("young_bins", 0)])
def test_window_and_bin_counts_must_be_positive(key, value):
    bad = MINIMAL.replace("[scheme]", f"[scheme]\n{key} = {value}")
    with pytest.raises(ConfigError, match=key):
        build_scenario(bad)


def with_key(section, key, value, base=MINIMAL):
    """``base`` with ``[section] key = value`` set, the section added if absent."""
    parser = configparser.ConfigParser()
    parser.read_string(base)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("section, key", [
    ("grid", "time_horizon"), ("grid", "extent"), ("grid", "cells"),
    ("flux", "a"), ("viscosity", "b"), ("viscosity", "r"),
    ("initial", "center"), ("initial", "width"), ("initial", "amplitude"),
    ("initial", "amplitude2"), ("initial", "separation"),
    ("ladder", "epsilons"), ("ladder", "mollifier_width"),
    ("scheme", "cfl"), ("scheme", "quadrature_tol"),
    ("scheme", "kruzkov_delta")])
@pytest.mark.parametrize("value, reason", [("nan", "must be finite"),
                                           ("inf", "must be finite"),
                                           ("abc", "is not a number")])
def test_real_keys_must_be_finite_numbers(section, key, value, reason):
    with pytest.raises(ConfigError, match=rf"{section}\.{key} = '{value}' {reason}"):
        build_scenario(with_key(section, key, value))


@pytest.mark.parametrize("section, key", [
    ("grid", "dimension"), ("grid", "cells"), ("scheme", "snapshots"),
    ("scheme", "kruzkov_count"), ("scheme", "young_window_cells"),
    ("scheme", "young_window_snaps"), ("scheme", "young_bins"),
    ("scheme", "weak_window_cells"), ("scheme", "weak_window_snaps")])
@pytest.mark.parametrize("value, reason", [("abc", "is not a number"),
                                           ("2.5", "is not a whole number")])
def test_integer_keys_must_be_whole_numbers(section, key, value, reason):
    # before, text ended in a bare ValueError and 2.5 was truncated to 2
    with pytest.raises(ConfigError, match=rf"{section}\.{key} = '{value}' {reason}"):
        build_scenario(with_key(section, key, value))


@pytest.mark.parametrize("preset, section, key, value", [
    ("constant", "viscosity", "b", "0"), ("constant", "viscosity", "b", "-1"),
    ("gaussian", "viscosity", "r", "0"), ("gaussian", "viscosity", "r", "-0.5"),
    ("constant", "scheme", "kruzkov_delta", "0"),
    ("constant", "scheme", "kruzkov_count", "-1"),
    ("constant", "scheme", "integrator", "heun")])
def test_runtime_bounds_rejected_by_config(preset, section, key, value):
    # before, the first six passed the config and failed when the run was set
    # up; forward Euler is the one integrator
    text = with_key("viscosity", "preset", preset, with_key(section, key, value))
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        build_scenario(text)


@pytest.mark.parametrize("key, value, matched", [
    ("mollifier_width", "0.05,0.02", ""),
    ("epsilons", "0.1,0.02", r" \(matched to ladder\.epsilons\)")],
    ids=["given", "match"])
def test_mollifier_width_within_one_cell_rejected(key, value, matched):
    # 50 cells: h = 0.02, so a width of 0.02 gives a kernel of one node;
    # before, that member ran with its data unmollified
    with pytest.raises(ConfigError, match=rf"ladder\.mollifier_width 0\.02"
                                          rf"{matched} is at most one cell"):
        build_scenario(with_key("ladder", key, value))


def test_runtime_bounds_keep_what_runs():
    assert build_scenario(with_key("scheme", "kruzkov_count", "0")).kruzkov_count == 0
    # b is read only under preset = constant, r only under gaussian
    gauss = with_key("viscosity", "preset", "gaussian",
                     with_key("viscosity", "b", "-1"))
    assert build_scenario(gauss).visc_b == -1.0


def test_unknown_data_preset_rejected_first():
    # center 0.2 with the default width 0.25 also reaches the boundary; the
    # unknown preset is the error to report
    bad = MINIMAL.replace("preset = bump", "preset = foo\ncenter = 0.2")
    with pytest.raises(ConfigError, match="unknown initial.preset 'foo'"):
        build_scenario(bad)


# config.resolved.cfg of burgers2d: per-axis tuples, extent pairs, matched widths
BURGERS2D_RESOLVED = """\
[grid]
dimension = 2
cells = 128,128
extent = 0.0,1.0;0.0,1.0
time_horizon = 0.25

[flux]
preset = burgers,linear
a = 1.0

[viscosity]
preset = constant
b = 1.0
r = 1.0

[initial]
preset = bump
center = 0.5,0.5
width = 0.25
amplitude = 1.0
amplitude2 = -1.0
separation = 0.5

[ladder]
epsilons = 0.1,0.05,0.025
mollifier_width = 0.1,0.05,0.025

[scheme]
cfl = 0.3
quadrature_tol = 1e-08
integrator = euler
snapshots = 32
kruzkov_count = 5
kruzkov_delta = 0.001
young_window_cells = 8
young_window_snaps = 11
young_bins = 64
weak_window_cells = 8
weak_window_snaps = 8

[output]
directory = runs/burgers2d

"""


def test_render_pins_resolved_2d_scenario():
    cfg = build_scenario((SCENARIOS / "burgers2d.cfg").read_text())
    assert render_config(cfg) == BURGERS2D_RESOLVED


@pytest.mark.parametrize("old, new, unknown", [
    ("[scheme]", "[scheme]\nclf = 0.1", "[scheme] clf"),
    ("[scheme]", "[schem]", "[schem] young_window_cells"),
    ("[grid]", "[DEFAULT]\ncfl = 0.3\n[grid]", "[DEFAULT] cfl")],
    ids=["key", "section", "default"])
def test_unknown_key_rejected(old, new, unknown):
    # before, a misspelt key or section ran with the defaults
    with pytest.raises(ConfigError, match=rf"^unknown key {re.escape(unknown)}$"):
        build_scenario(MINIMAL.replace(old, new))


def test_readme_lists_every_declared_key():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration file")[1].split("```ini")[1]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(block.split("```")[0])
    listed = {(section, key) for section in parser.sections()
              for key in parser[section]}
    assert listed == {(section, key) for _, section, key, _, _ in DECLARED}
