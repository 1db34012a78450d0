import math

import numpy as np
import pytest

from conftest import make_traj
from visclab import norms
from visclab.convergence import fit_rate, l1_distance
from visclab.norms import measure_norm


def test_l1_identical_is_zero():
    a = make_traj(np.random.default_rng(0).normal(size=(5, 20)))
    assert l1_distance(a, a) == 0.0


def test_l1_constant_offset():
    base = np.zeros((5, 20))
    a = make_traj(base)
    b = make_traj(base + 0.1)
    assert l1_distance(a, b) == pytest.approx(0.1, rel=1e-12)


def test_l1_symmetric():
    rng = np.random.default_rng(1)
    a = make_traj(rng.normal(size=(5, 20)))
    b = make_traj(rng.normal(size=(5, 20)))
    assert l1_distance(a, b) == l1_distance(b, a)


@pytest.mark.parametrize("snaps_per_block", [None, 1, 3])
def test_l1_blocked_matches_measure_norm_bit_for_bit(monkeypatch,
                                                     snaps_per_block):
    # per-snapshot sums of |a - b| block by block (ragged blocks of 3 of 11
    # snapshots) give measure_norm of the whole difference
    rng = np.random.default_rng(2)
    a = make_traj(rng.normal(size=(11, 12, 10)))
    b = make_traj(rng.normal(size=(11, 12, 10)))
    if snaps_per_block is not None:
        monkeypatch.setattr(norms, "BLOCK_BYTES",
                            snaps_per_block * a.values[0].nbytes)
    want = measure_norm(a.values - b.values, a.times, a.grid.cell_volume)
    assert l1_distance(a, b).hex() == want.hex()


def test_l1_rejects_non_finite_difference():
    v = np.zeros((5, 20))
    v[3, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        l1_distance(make_traj(np.zeros((5, 20))), make_traj(v))


def test_l1_lattice_mismatch():
    a = make_traj(np.zeros((5, 20)))
    b = make_traj(np.zeros((5, 10)))
    with pytest.raises(ValueError):
        l1_distance(a, b)
    c = make_traj(np.zeros((6, 20)))
    with pytest.raises(ValueError):
        l1_distance(a, c)


def test_fit_rate_exact_powers():
    eps = [0.1, 0.05, 0.025, 0.0125]
    linear = fit_rate([(e, 3.0 * e) for e in eps])
    assert linear.rate == pytest.approx(1.0, abs=1e-9)
    assert linear.residual < 1e-12
    sqrt = fit_rate([(e, 2.0 * math.sqrt(e)) for e in eps])
    assert sqrt.rate == pytest.approx(0.5, abs=1e-9)


def test_fit_rate_noisy_sqrt():
    rng = np.random.default_rng(42)
    eps = [0.1, 0.05, 0.025, 0.0125]
    pts = [(e, math.sqrt(e) * (1.0 + 0.1 * (2 * rng.random() - 1))) for e in eps]
    fit = fit_rate(pts)
    assert 0.35 <= fit.rate <= 0.65


def test_fit_rate_exact_convergence_sentinel():
    fit = fit_rate([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0)])
    assert fit.exact and math.isinf(fit.rate)


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])
