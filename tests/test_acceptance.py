"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated tolerance and scale.  Fixed seeds make
each verdict reproducible.  Run with ``pytest -rA tests/test_acceptance.py``
to see all lines (captured output of passing tests shows in the summary).

A note on criterion 4: at the pinned seeds three deep-tail points of its
grid read VIOLATED, (beta = 1, N = 100), (beta = 2, N = 25) and
(beta = 2, N = 100).  They are errors of the S = 10^6 Monte Carlo table
(hull seed 1), not noise of the fresh-sample check.  The exact tail
functional G_N, by inversion along the saddlepoint contour
(``conftest.exact_tail_functional``, checked against the beta = 0
chi-square closed form), puts the table's U0 there 7.7%, 21% and 35%
below the exact root, where the exact G(U0) is 3.21, 23.0 and 5,082
against the bound 1.05.  Those entries rest on 3, 1 and 1 hull samples
at or past the crossing (beta = 2 is saturated from N = 15 on; beta = 1,
N = 100 is not flagged).  The fresh check has Monte Carlo noise of
relative order sqrt(U0 / (S * sigma_1^2)) at the crossing, so it can
also pass a table error: at (beta = 2, N = 10) it reads 0.850 where the
exact G(U0) is 1.10, and at (beta = 2, N = 50), where the table's U0
lies 28% below the exact root, no fresh sample lies at or above U0, so
it reads 0.000 and the point reports ok where the exact G(U0) is 229.3.
The test still runs the full stated grid at its tolerance and reports
the outcome honestly rather than shrinking the grid or loosening the
tolerance.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import riskhull as rh
from conftest import exact_tail_functional

pytestmark = pytest.mark.acceptance

SEED = 0
HULL_SEED = 1
FRESH_SEED = 2
MC_1M = rh.McParams(samples=1_000_000, seed=HULL_SEED)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def stem_runs():
    out = {}
    for name, beta in (("direct", 0.0), ("inverse", 1.0)):
        spec = rh.SigmaSpec.power_law(1.0, beta)
        t0 = time.perf_counter()
        stem = rh.stem_experiment(spec, rh.ZERO_SIGNAL, rh.ure_selector(200), 2000, 200, SEED)
        out[name] = (stem, time.perf_counter() - t0)
    return out


def _efficiency_pair(beta: float, n_max: int):
    spec = rh.SigmaSpec.power_law(1.0, beta)
    grid = rh.default_a_grid()
    t0 = time.perf_counter()
    hull = rh.build_hull_table(rh.unit_spec(spec), n_max, MC_1M)
    ure, rhm = rh.efficiency_curves(spec, ("ure", "rhm"), grid, 6.0, 6.0, 10_000, n_max, SEED,
                                    alpha=1.1, hull=hull)
    return grid, ure, rhm, time.perf_counter() - t0


@pytest.fixture(scope="session")
def curves_beta1():
    return _efficiency_pair(1.0, 200)


@pytest.fixture(scope="session")
def curves_beta2():
    return _efficiency_pair(2.0, 100)


@pytest.fixture(scope="session")
def curves_beta0():
    return _efficiency_pair(0.0, 200)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_stem_direct(stem_runs):
    stem, dt = stem_runs["direct"]
    ok = 1.6 <= stem.N_emp <= 2.4 and 2.5 <= stem.R_emp <= 5.5 and dt < 10.0
    assert report(1, ok, f"direct stem N_emp={stem.N_emp:.3f} (in [1.6, 2.4]), "
                         f"R_emp={stem.R_emp:.3f} (in [2.5, 5.5]), runtime {dt:.1f}s < 10s")


def test_criterion_02_stem_inverse(stem_runs):
    stem, dt = stem_runs["inverse"]
    direct_r = stem_runs["direct"][0].R_emp
    ok = (4.5 <= stem.N_emp <= 7.5 and stem.R_emp >= 200.0
          and stem.R_emp >= 50.0 * direct_r and dt < 30.0)
    assert report(2, ok, f"inverse stem N_emp={stem.N_emp:.3f} (in [4.5, 7.5]), "
                         f"R_emp={stem.R_emp:.1f} (>= 200 and >= 50x direct {direct_r:.2f}), "
                         f"runtime {dt:.1f}s < 30s")


def test_criterion_03_zero_signal_oracle():
    specs = [rh.SigmaSpec.power_law(eps, beta) for eps in (0.1, 1.0, 2.5) for beta in (0.0, 1.0, 2.0)]
    specs.append(rh.SigmaSpec.explicit([0.7, 3.0, 11.0]))
    ok = True
    for spec in specs:
        curve = rh.oracle_risk(rh.ZERO_SIGNAL, spec, 20 if spec.kind == "power-law" else 3)
        want = spec.epsilon**2 if spec.kind == "power-law" else spec.values[0] ** 2
        ok = ok and curve.argmin_N == 1 and curve.min_value == want
    assert report(3, ok, f"oracle at theta=0 returns (N=1, sigma_1^2) exactly for {len(specs)} specs")


def test_criterion_04_hull_defining_equation():
    check_ns = (2, 5, 10, 25, 50, 100)
    t0 = time.perf_counter()
    points = []
    all_ok = True
    for beta in (0.0, 1.0, 2.0):
        spec = rh.SigmaSpec.power_law(1.0, beta)
        table = rh.build_hull_table(spec, 100, MC_1M)
        fresh = rh.eta_checkpoint_samples(spec, check_ns, rh.McParams(samples=1_000_000, seed=FRESH_SEED))
        for row, N in zip(fresh, check_ns):
            u0 = float(table.U0[N - 1])
            upper = rh.tail_functional(row, u0)
            lower = rh.tail_functional(row, 0.95 * u0) if u0 > 0 else None
            ok = upper <= 1.05 and (lower is None or lower > 0.95)
            all_ok = all_ok and ok
            points.append((spec, N, u0, upper, lower, ok))
    dt = time.perf_counter() - t0
    all_ok = all_ok and dt < 60.0
    # the exact G(U0) beside the fresh one (sigma_1 = 1), outside the timed run
    for spec, N, u0, upper, lower, ok in points:
        exact = exact_tail_functional(spec, N, u0)
        print(f"  beta={spec.beta:g} N={N}: G(U0)={upper:.3f} exact G(U0)={exact:.3f} "
              f"G(0.95 U0)={'-' if lower is None else format(lower, '.3f')} {'ok' if ok else 'VIOLATED'}")
    assert report(4, all_ok,
                  f"fresh-sample hull equation on the full grid, runtime {dt:.1f}s < 60s "
                  f"(deep-tail points exceed the 5% resolution of 10^6 samples; see printed grid)")


def test_criterion_05_u0_zero_at_bandwidth_one():
    from scipy.integrate import quad
    from scipy.stats import norm

    integral, _ = quad(lambda x: (x * x - 1.0) * norm.pdf(x), 1.0, np.inf)
    quadrature_ok = abs(2.0 * integral - 2.0 * norm.pdf(1.0)) < 1e-10 and 2.0 * integral < 1.0
    specs = [
        (rh.SigmaSpec.power_law(1.0, 0.0), MC_1M),
        (rh.SigmaSpec.power_law(0.3, 1.0), rh.McParams(samples=100_000, seed=3)),
        (rh.SigmaSpec.power_law(5.0, 2.0), rh.McParams(samples=10_000, seed=4)),
        (rh.SigmaSpec.explicit([2.0, 9.0]), rh.McParams(samples=10_000, seed=5)),
    ]
    ok = quadrature_ok and all(rh.compute_u0(spec, 1, mc) == 0.0 for spec, mc in specs)
    assert report(5, ok, f"U0(1) = 0 for every spec; positive-part mean 2*phi(1) = "
                         f"{2.0 * integral:.4f} < 1 verified by quadrature")


def test_criterion_06_ure_threshold_values():
    ok = True
    for eps in (0.01, 1.0, 123.0, 9088.559950927613):
        ok = ok and rh.ure_threshold(rh.SigmaSpec.power_law(eps, 0.0), 100) == 8
        ok = ok and rh.ure_threshold(rh.SigmaSpec.power_law(eps, 1.0), 100) == 14
    assert report(6, ok, "threshold N_beta = 8 (beta=0, equality case) and 14 (beta=1), "
                         "independent of the noise level")


def test_criterion_07_ratio_curves():
    t0 = time.perf_counter()
    rows = {}
    for name, beta in (("direct", 0.0), ("inverse", 1.0)):
        spec = rh.SigmaSpec.power_law(1.0, beta)
        table = rh.build_hull_table(spec, 100, MC_1M)
        rows[name] = np.array([r[1] for r in rh.ratio_curve(spec, table, 0.1, range(1, 101))])
    dt = time.perf_counter() - t0
    rho_d, rho_i = rows["direct"], rows["inverse"]
    dominates = bool(np.all(rho_i[1:30] > rho_d[1:30]))
    above = bool(np.all(rho_i[2:15] > 1.5))
    decays = rho_d[99] < rho_d[4] and rho_i[99] < rho_i[4]
    ok = dominates and above and decays and dt < 60.0
    assert report(7, ok, f"alpha=0.1 ratios: inverse>direct on [2,30]={dominates}, "
                         f"inverse>1.5 on [3,15]={above} (min {rho_i[2:15].min():.2f}), "
                         f"rho(100)<rho(5) both={decays}, runtime {dt:.1f}s < 60s")


def test_criterion_08_efficiency_beta1(curves_beta1):
    grid, ure, rhm, dt = curves_beta1
    small = grid <= 2.0
    rhm_floor = bool(np.all(rhm.efficiency >= 0.35))
    ure_at_500 = float(ure.efficiency[-1])
    ure_bracket = 0.08 <= ure_at_500 <= 0.30
    separation = bool(np.all(ure.efficiency[small] < 0.1 * rhm.efficiency[small]))
    ok = rhm_floor and ure_bracket and separation and dt < 600.0
    assert report(8, ok, f"beta=1: RHM min={rhm.efficiency.min():.3f} >= 0.35, "
                         f"URE(a=500)={ure_at_500:.3f} in [0.08, 0.30], "
                         f"URE < 0.1*RHM at a<=2: {separation}, runtime {dt:.0f}s < 600s")


def test_criterion_09_efficiency_beta2(curves_beta2):
    _, ure, rhm, dt = curves_beta2
    ure_ok = float(ure.efficiency.max()) <= 0.01
    rhm_ok = float(rhm.efficiency.min()) >= 0.25
    ok = ure_ok and rhm_ok and dt < 600.0
    assert report(9, ok, f"beta=2: URE max={ure.efficiency.max():.2e} <= 0.01, "
                         f"RHM min={rhm.efficiency.min():.3f} >= 0.25, runtime {dt:.0f}s < 600s")


def test_criterion_10_efficiency_beta0(curves_beta0):
    _, ure, rhm, dt = curves_beta0
    stated = bool(np.all(ure.efficiency >= 0.2)) and bool(np.all(rhm.efficiency >= 0.2))
    # Regression goldens frozen from the oracle pre-run at these exact seeds:
    # URE spans [0.42, 0.86], RHM spans [0.62, 0.88] over the default grid.
    frozen = (
        0.38 <= ure.efficiency.min() <= 0.46
        and 0.82 <= ure.efficiency.max() <= 0.90
        and 0.57 <= rhm.efficiency.min() <= 0.66
        and 0.84 <= rhm.efficiency.max() <= 0.92
    )
    ok = stated and frozen
    assert report(10, ok, f"beta=0: all points >= 0.2 (URE min {ure.efficiency.min():.3f}, "
                          f"RHM min {rhm.efficiency.min():.3f}); frozen brackets hold; "
                          f"runtime {dt:.0f}s")


def test_criterion_11_noise_level_invariance():
    grid = [0.5, 2.0, 10.0, 60.0, 200.0, 500.0]
    hull = rh.build_hull_table(rh.SigmaSpec.power_law(1.0, 1.0), 100,
                               rh.McParams(samples=100_000, seed=HULL_SEED))
    identical = True
    for method, h in (("ure", None), ("rhm", hull)):
        lo = rh.efficiency_curve(rh.SigmaSpec.power_law(0.2, 1.0), method, grid, 6.0, 6.0,
                                 400, 100, seed=SEED, alpha=1.1, hull=h)
        hi = rh.efficiency_curve(rh.SigmaSpec.power_law(2.0, 1.0), method, grid, 6.0, 6.0,
                                 400, 100, seed=SEED, alpha=1.1, hull=h)
        identical = identical and all(
            np.array_equal(getattr(lo, f), getattr(hi, f))
            for f in ("a_grid", "efficiency", "std_error", "oracle_N", "oracle_risk")
        )
    assert report(11, identical, "efficiency curves at noise levels 0.2 and 2.0 under coupled "
                                 "seeds are identical coefficientwise (exact)")


def test_criterion_12_ure_unbiasedness():
    reps = 100_000
    n_max = 20
    signals = [rh.ZERO_SIGNAL,
               rh.signal_family(3.0, 6.0, 6.0, 1.0, n_max),
               rh.signal_family(30.0, 6.0, 6.0, 1.0, n_max)]
    specs = [rh.SigmaSpec.power_law(1.0, b) for b in (0.0, 1.0, 2.0)]
    ok = True
    worst = 0.0
    for si, signal in enumerate(signals):
        for pi, spec in enumerate(specs):
            acc = np.zeros(n_max)
            base = rh.derive_seed(SEED, 12, si, pi)
            for r in range(reps):
                obs = rh.simulate(spec, signal, n_max, rh.derive_seed(base, r))
                acc += rh.select_ure(obs, n_max).objective_values
            mean_obj = acc / reps
            sig2 = rh.sigma_values(spec, n_max) ** 2
            th2 = signal.padded(n_max) ** 2
            for N in (1, 5, 20):
                expected = rh.projection_risk(signal, spec, N) - signal.norm_sq
                se = np.sqrt(np.sum(2.0 * sig2[:N] ** 2 + 4.0 * sig2[:N] * th2[:N]) / reps)
                z = abs(mean_obj[N - 1] - expected) / se
                worst = max(worst, z)
                ok = ok and z < 4.0
    assert report(12, ok, f"URE objective mean matches R(theta, N) - ||theta||^2 on the "
                          f"3x3 grid at N in (1, 5, 20), {reps} reps; worst |z| = {worst:.2f} < 4")


def test_criterion_13_thread_count_determinism(tmp_path, cli_env):
    cfg = {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 1.0},
        "experiment": {"kind": "stem", "reps": 300, "n_max": 50, "seed": 5},
        "selector": {"methods": ["ure", "rhm"], "alpha": 1.1},
        "hull": {"samples": 50000, "seed": 1, "cache": "hull.json"},
        "output": {"directory": "out"},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    blobs = {}
    for threads in ("1", "4"):
        out = f"out{threads}"
        cfg_t = dict(cfg, output={"directory": out})
        cfg_t["hull"] = dict(cfg["hull"], cache=f"hull{threads}.json")
        (tmp_path / f"c{threads}.json").write_text(json.dumps(cfg_t))
        res = subprocess.run(
            [sys.executable, "-m", "riskhull", "bench", "--config", f"c{threads}.json",
             "--threads", threads],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env,
        )
        assert res.returncode == 0, res.stderr
        blobs[threads] = {
            "stem_ure": (tmp_path / out / "stem_ure.csv").read_bytes(),
            "stem_rhm": (tmp_path / out / "stem_rhm.csv").read_bytes(),
            "hull": (tmp_path / f"hull{threads}.json").read_bytes(),
        }
    ok = all(blobs["1"][k] == blobs["4"][k] for k in blobs["1"])
    assert report(13, ok, "bench and hull outputs are byte-identical under --threads 1 and 4")
