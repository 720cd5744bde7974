"""Each benchmark check accepts the program's output and rejects a wrong one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import riskhull as rh  # noqa: E402

SPEC = rh.SigmaSpec.power_law(1.0, 1.0)
N_MAX = 200


@pytest.fixture(scope="module")
def hull_doc():
    """A hull cache document as `riskhull hull` writes it, small enough to build fast."""
    n_max, samples = 5, 1_000_000
    table = rh.build_hull_table(SPEC, n_max, rh.McParams(samples=samples, seed=0))
    doc = {"N_max": n_max, "mc_samples": samples,
           "U0": [float(v) for v in table.U0], "SigmaFourth": [float(v) for v in table.SigmaFourth]}
    return doc, checks.fresh_eta(0, 2_000_000)


def test_hull_check_accepts_the_program_table(hull_doc):
    doc, fresh = hull_doc
    assert checks.check_hull_table(doc, 5, 1_000_000, fresh) == []


def test_hull_check_rejects_u0_scaled_by_1_1(hull_doc):
    doc, fresh = hull_doc
    bad = checks.check_hull_table(dict(doc, U0=[1.1 * u for u in doc["U0"]]), 5, 1_000_000, fresh)
    assert bad and all("defining equation" in b for b in bad)


def test_hull_check_rejects_wrong_sigma_fourth_and_u0_at_one(hull_doc):
    doc, fresh = hull_doc
    s4 = list(doc["SigmaFourth"])
    s4[-1] *= 1 + 1e-10
    assert checks.check_hull_table(dict(doc, SigmaFourth=s4), 5, 1_000_000, fresh)
    u0 = [1e-3] + doc["U0"][1:]
    assert any("U0(1)" in b for b in checks.check_hull_table(dict(doc, U0=u0), 5, 1_000_000, fresh))


def efficiency_rows(method: str, seed: int = 0, reps: int = 200):
    hull = rh.build_hull_table(SPEC, N_MAX, rh.McParams(samples=10_000, seed=seed)) if method == "rhm" else None
    curve = rh.efficiency_curve(SPEC, method, rh.default_a_grid(), 6.0, 6.0, reps, N_MAX, seed, hull=hull)
    return [{"a": float(a), "efficiency": float(e), "std_error": float(s), "oracle_N": int(n),
             "oracle_risk": float(r)}
            for a, e, s, n, r in zip(curve.a_grid, curve.efficiency, curve.std_error,
                                     curve.oracle_N, curve.oracle_risk)]


@pytest.fixture(scope="module")
def ure_rows():
    return efficiency_rows("ure")


def test_oracle_check_accepts_the_program_curve(ure_rows):
    assert checks.check_oracle(ure_rows, 6.0, 6.0, N_MAX, "ure") == []


@pytest.mark.parametrize("index", [0, 9, 19])
def test_oracle_check_rejects_a_risk_perturbed_in_its_last_digits(ure_rows, index):
    rows = [dict(r) for r in ure_rows]
    rows[index]["oracle_risk"] *= 1 + 1e-12
    assert repr(rows[index]["oracle_risk"])[:12] == repr(ure_rows[index]["oracle_risk"])[:12]
    bad = checks.check_oracle(rows, 6.0, 6.0, N_MAX, "ure")
    assert len(bad) == 1 and "oracle_risk" in bad[0]


def test_oracle_check_rejects_a_wrong_oracle_bandwidth(ure_rows):
    rows = [dict(r) for r in ure_rows]
    rows[10]["oracle_N"] += 1
    assert any("oracle_N" in b for b in checks.check_oracle(rows, 6.0, 6.0, N_MAX, "ure"))


def test_efficiency_properties_reject_a_weak_rhm_curve(ure_rows):
    rhm = [dict(r, efficiency=0.9) for r in ure_rows]
    ure = [dict(r, efficiency=0.05) for r in ure_rows]
    ure[-1]["efficiency"] = 0.15
    assert checks.check_efficiency_properties(ure, rhm) == []
    rhm[12]["efficiency"] = 0.34
    assert any("RHM" in b for b in checks.check_efficiency_properties(ure, rhm))
    ure[-1]["efficiency"] = 0.31
    assert any("a=500" in b for b in checks.check_efficiency_properties(ure, rhm))


@pytest.fixture(scope="module")
def selection():
    """Observations, the program's selections and the hull U0 they used."""
    hull = rh.build_hull_table(SPEC, N_MAX, rh.McParams(samples=10_000, seed=3))
    rng = np.random.default_rng(5)
    cases = []
    for a in (1.0, 30.0, 400.0):
        ys = checks.signal(a, 6.0, 6.0, N_MAX) + np.sqrt(checks.sigma_sq(N_MAX)) * rng.standard_normal(N_MAX)
        obs = rh.Observation(ys=ys, n_max=N_MAX, sigma=SPEC, seed=0)
        chosen = {"ure": rh.select_ure(obs, N_MAX).N_selected,
                  "rhm": rh.select_rhm(obs, hull, 1.1, N_MAX).N_selected}
        cases.append((ys, chosen))
    return cases, [float(v) for v in hull.U0]


def test_selection_check_accepts_the_program_choice(selection):
    cases, u0 = selection
    for ys, chosen in cases:
        assert checks.check_selection(ys, chosen, u0, 1.1) == []


@pytest.mark.parametrize("method", ["ure", "rhm"])
@pytest.mark.parametrize("step", [-1, 1])
def test_selection_check_rejects_a_selection_off_by_one(selection, method, step):
    cases, u0 = selection
    for ys, chosen in cases:
        wrong = dict(chosen)
        wrong[method] += step
        if not 1 <= wrong[method] <= N_MAX:
            continue
        bad = checks.check_selection(ys, wrong, u0, 1.1)
        assert len(bad) == 1 and method in bad[0]


def test_estimate_check_rejects_a_cutoff_off_by_one(selection):
    cases, _ = selection
    ys, chosen = cases[1]
    N = chosen["ure"]
    rows = [(k, float(ys[k - 1]) if k <= N else 0.0) for k in range(1, N_MAX + 1)]
    assert checks.check_estimate(ys, N, rows, "est") == []
    assert checks.check_estimate(ys, N + 1, rows, "est")
    assert checks.check_estimate(ys, N - 1, rows, "est")
