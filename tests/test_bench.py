from __future__ import annotations

import json
import os

import numpy as np
import pytest

from riskhull import (
    McParams,
    SigmaSpec,
    ZERO_SIGNAL,
    build_hull_table,
    derive_seed,
    efficiency_curve,
    fixed_selector,
    mc_selector_risk,
    oracle_efficiency,
    oracle_risk,
    projection_risk,
    ratio_curve,
    signal_family,
    stem_experiment,
    unit_spec,
    ure_selector,
)
from riskhull.bench import (
    default_a_grid,
    default_n_max,
    write_efficiency_csv,
    write_manifest,
    write_ratio_csv,
    write_stem_csv,
)

FLAT = SigmaSpec.power_law(1.0, 0.0)
INV = SigmaSpec.power_law(1.0, 1.0)


def test_default_n_max():
    assert default_n_max(SigmaSpec.power_law(0.1, 0.0)) == 200
    assert default_n_max(SigmaSpec.power_law(0.1, 1.0)) == 200
    assert default_n_max(SigmaSpec.power_law(0.1, 2.0)) == 100
    assert default_n_max(SigmaSpec.explicit([1.0, 2.0, 3.0])) == 3


def test_default_a_grid():
    grid = default_a_grid()
    assert grid.size == 20
    assert grid[0] == pytest.approx(0.5) and grid[-1] == pytest.approx(500.0)
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# stem experiment
# ---------------------------------------------------------------------------


def test_stem_fixed_selector_reduces_to_fixed_bandwidth_risk():
    spec = SigmaSpec.power_law(0.5, 1.0)
    stem = stem_experiment(spec, ZERO_SIGNAL, fixed_selector(3), 4000, 10, seed=11)
    eps_sq = 0.25
    mean_loss = stem.R_emp * eps_sq
    se = (stem.normalized_loss * eps_sq).std(ddof=1) / np.sqrt(4000)
    assert abs(mean_loss - projection_risk(ZERO_SIGNAL, spec, 3)) < 4.0 * se
    assert np.all(stem.selected_N == 3)


def test_stem_summary_consistency_and_determinism():
    stem = stem_experiment(FLAT, ZERO_SIGNAL, ure_selector(20), 300, 20, seed=5)
    assert stem.R_emp == float(np.mean(stem.normalized_loss))
    assert stem.N_emp == float(np.mean(stem.selected_N))
    again = stem_experiment(FLAT, ZERO_SIGNAL, ure_selector(20), 300, 20, seed=5)
    assert np.array_equal(stem.normalized_loss, again.normalized_loss)
    assert np.array_equal(stem.selected_N, again.selected_N)


def test_stem_rejects_bad_reps():
    with pytest.raises(ValueError):
        stem_experiment(FLAT, ZERO_SIGNAL, ure_selector(5), 0, 5, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo selector risk and efficiency
# ---------------------------------------------------------------------------


def test_mc_selector_risk_oracle_bandwidth():
    mean, se = mc_selector_risk(FLAT, ZERO_SIGNAL, fixed_selector(1), 4000, 5, seed=3)
    assert abs(mean - 1.0) < 4.0 * se


def test_mc_selector_risk_seed_consistency():
    m1, s1 = mc_selector_risk(FLAT, ZERO_SIGNAL, ure_selector(30), 3000, 30, seed=1)
    m2, s2 = mc_selector_risk(FLAT, ZERO_SIGNAL, ure_selector(30), 3000, 30, seed=2)
    assert abs(m1 - m2) < 4.0 * np.hypot(s1, s2)


def test_oracle_efficiency_of_oracle_selector_is_one():
    sig = signal_family(10.0, 6.0, 6.0, 1.0, 30)
    best_n = oracle_risk(sig, INV, 30).argmin_N
    eff = oracle_efficiency(INV, sig, fixed_selector(best_n), 3000, 30, seed=9)
    assert 0.93 < eff < 1.07


# ---------------------------------------------------------------------------
# efficiency curves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit_hull_b1():
    return build_hull_table(unit_spec(INV), 40, McParams(samples=100_000, seed=1))


def test_efficiency_curve_noise_level_invariance(unit_hull_b1):
    grid = [0.5, 5.0, 50.0]
    kw = dict(W=6.0, m=6.0, reps=300, n_max=40, seed=21)
    for method, hull in (("ure", None), ("rhm", unit_hull_b1)):
        lo = efficiency_curve(SigmaSpec.power_law(0.2, 1.0), method, grid, hull=hull, **kw)
        hi = efficiency_curve(SigmaSpec.power_law(2.0, 1.0), method, grid, hull=hull, **kw)
        assert np.array_equal(lo.efficiency, hi.efficiency)
        assert np.array_equal(lo.std_error, hi.std_error)
        assert np.array_equal(lo.oracle_N, hi.oracle_N)
        assert np.array_equal(lo.oracle_risk, hi.oracle_risk)


def test_efficiency_curve_zero_amplitude_matches_zero_signal_run():
    curve = efficiency_curve(INV, "ure", [0.0, 1.0], 6.0, 6.0, 500, 30, seed=17)
    mean, _ = mc_selector_risk(unit_spec(INV), ZERO_SIGNAL, ure_selector(30), 500, 30,
                               seed=derive_seed(17, 0))
    assert curve.efficiency[0] == oracle_risk(ZERO_SIGNAL, unit_spec(INV), 30).min_value / mean


def test_efficiency_curve_oracle_dominance(unit_hull_b1):
    curve = efficiency_curve(INV, "rhm", [0.5, 2.0, 20.0], 6.0, 6.0, 800, 40, seed=13,
                             hull=unit_hull_b1)
    assert np.all(curve.efficiency <= 1.0 + 3.0 * curve.std_error)
    assert np.all(curve.efficiency > 0)


def test_efficiency_curve_requires_unit_hull():
    wrong = build_hull_table(SigmaSpec.power_law(2.0, 1.0), 10, McParams(samples=10_000, seed=1))
    with pytest.raises(ValueError, match="unit_spec"):
        efficiency_curve(SigmaSpec.power_law(2.0, 1.0), "rhm", [1.0], 6.0, 6.0, 10, 10,
                         seed=0, hull=wrong)
    with pytest.raises(ValueError, match="hull"):
        efficiency_curve(INV, "rhm", [1.0], 6.0, 6.0, 10, 10, seed=0)


def test_efficiency_curve_methods_share_observations(unit_hull_b1):
    # Same seed schedule: per-amplitude selector inputs are identical, so a
    # hull table with zero penalty reproduces the URE curve bit for bit.
    import riskhull

    zero_hull = riskhull.HullTable(
        N_max=40,
        U0=np.zeros(40),
        SigmaFourth=np.cumsum(np.arange(1.0, 41.0) ** 4),
        spec_fingerprint=riskhull.fingerprint(unit_spec(INV)),
        mc_samples=10_000,
        seed=0,
        monotonized=True,
    )
    a = efficiency_curve(INV, "ure", [2.0], 6.0, 6.0, 200, 40, seed=3)
    b = efficiency_curve(INV, "rhm", [2.0], 6.0, 6.0, 200, 40, seed=3, hull=zero_hull)
    assert np.array_equal(a.efficiency, b.efficiency)


# ---------------------------------------------------------------------------
# ratio curves
# ---------------------------------------------------------------------------


def test_ratio_curve_values():
    mc = McParams(samples=100_000, seed=1)
    direct = build_hull_table(FLAT, 30, mc)
    inverse = build_hull_table(INV, 30, mc)
    rows_d = ratio_curve(FLAT, direct, 0.1, range(1, 31))
    rows_i = ratio_curve(INV, inverse, 0.1, range(1, 31))
    assert rows_d[0] == (1, 1.0, 1.0)
    # the ill-posed penalty ratio dominates the direct one at small N
    for (_, rho_d, _), (_, rho_i, _) in zip(rows_d[1:], rows_i[1:]):
        assert rho_i > rho_d
    assert all(r >= 1.0 and rt >= 1.0 for _, r, rt in rows_d + rows_i)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_write_stem_csv(tmp_path):
    stem = stem_experiment(FLAT, ZERO_SIGNAL, ure_selector(10), 5, 10, seed=2)
    path = tmp_path / "stem.csv"
    write_stem_csv(stem, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rep,N_selected,normalized_loss"
    assert len(lines) == 6
    rep, n, loss = lines[1].split(",")
    assert rep == "0" and int(n) == stem.selected_N[0]
    assert float(loss) == stem.normalized_loss[0]
    assert os.listdir(tmp_path) == ["stem.csv"]


def test_write_efficiency_csv(tmp_path):
    curve = efficiency_curve(INV, "ure", [1.0, 10.0], 6.0, 6.0, 50, 20, seed=1)
    path = tmp_path / "eff.csv"
    write_efficiency_csv(curve, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,efficiency,std_error,oracle_N,oracle_risk"
    assert len(lines) == 3
    a, eff, se, on, orisk = lines[1].split(",")
    assert float(a) == 1.0 and float(eff) == curve.efficiency[0]
    assert int(on) == curve.oracle_N[0]


def test_write_ratio_csv_and_manifest(tmp_path):
    write_ratio_csv([(1, 1.0, 1.0), (2, 1.5, 1.25)], tmp_path / "ratio.csv")
    assert (tmp_path / "ratio.csv").read_text().splitlines()[1] == "1,1.0,1.0"
    write_manifest({"b": 2, "a": [1, 2]}, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc == {"a": [1, 2], "b": 2}
