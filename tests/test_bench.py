from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from riskhull import (
    McParams,
    SigmaSpec,
    Signal,
    ZERO_SIGNAL,
    build_hull_table,
    efficiency_curve,
    efficiency_curves,
    fixed_selector,
    make_observation,
    mc_selector_risk,
    oracle_efficiency,
    oracle_risk,
    project,
    projection_risk,
    ratio_curve,
    rhm_selector,
    rng_for,
    select_rhm,
    select_ure,
    sigma_at,
    signal_family,
    squared_loss,
    stem_experiment,
    unit_spec,
    ure_selector,
)
import riskhull.bench
import riskhull.hull
from riskhull.bench import (
    default_a_grid,
    default_n_max,
    stem_experiments,
    write_efficiency_csv,
    write_manifest,
    write_ratio_csv,
    write_stem_csv,
)
from riskhull.cli import main as cli_main

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


def test_stem_and_efficiency_records_hold_read_only_copies():
    # both records used to keep writable arrays; every curve of one call shared
    # its oracle arrays, and a_grid was a view of the caller's grid
    grid = np.array([1.0, 10.0])
    curves = efficiency_curves(INV, ["ure", "ure"], grid, 6.0, 6.0, 20, 10, seed=0)
    grid[0] = 99.0
    assert [c.a_grid[0] for c in curves] == [1.0, 1.0]
    for field in ("a_grid", "efficiency", "std_error", "oracle_N", "oracle_risk"):
        first, second = (getattr(c, field) for c in curves)
        assert not np.shares_memory(first, second), field
        assert not first.flags.writeable and not second.flags.writeable, field
    assert curves[0].oracle_N.dtype == np.int64
    selected = np.array([2, 3])
    stem = riskhull.bench.StemData(selected_N=selected, normalized_loss=[0.5, 1.5], N_emp=2.5, R_emp=1.0)
    selected[0] = 7
    assert stem.selected_N.tolist() == [2, 3] and stem.selected_N.dtype == np.int64
    for arr in (stem.selected_N, stem.normalized_loss):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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
    mean, _ = mc_selector_risk(unit_spec(INV), ZERO_SIGNAL, ure_selector(30), 500, 30, seed=17)
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


def test_efficiency_curves_match_single_method_calls(unit_hull_b1):
    kw = dict(a_grid=[0.0, 0.5, 5.0, 50.0], W=6.0, m=6.0, reps=130, n_max=40, seed=8,
              alpha=1.1, hull=unit_hull_b1)
    both = efficiency_curves(SigmaSpec.power_law(0.3, 1.0), ("ure", "rhm"), **kw)
    assert [c.method for c in both] == ["ure", "rhm"]
    for curve in both:
        alone = efficiency_curve(SigmaSpec.power_law(0.3, 1.0), curve.method, **kw)
        assert curve.reps == alone.reps
        for field in ("a_grid", "efficiency", "std_error", "oracle_N", "oracle_risk"):
            assert np.array_equal(getattr(curve, field), getattr(alone, field)), field


# glibc's pow, which a float's ** calls, rounds this value's square away from
# the correctly rounded product x * x; every square in an output is the product
POW_MISROUNDS = float.fromhex("0x1.0b99663f450d4p+3")


def test_efficiency_std_error_squares_the_mean_as_a_product(monkeypatch):
    m = POW_MISROUNDS
    row = [m - 3 * math.ulp(m), m + 3 * math.ulp(m)]  # mean m, exactly
    losses = np.array([[row], [row]])  # (amplitudes, selectors, reps)
    monkeypatch.setattr(riskhull.bench, "_replications", lambda *args: (np.zeros(losses.shape, np.int64), losses))
    [curve] = efficiency_curves(INV, ("ure",), [0.5, 5.0], 6.0, 6.0, 2, 40, seed=1)
    assert np.mean(row) == m
    se = np.std(row, ddof=1) / np.sqrt(2)
    assert curve.efficiency.tolist() == [b / m for b in curve.oracle_risk]
    assert curve.std_error.tolist() == [b * se / (m * m) for b in curve.oracle_risk]


def test_stem_normalizes_by_sigma_1_times_sigma_1():
    eps = POW_MISROUNDS
    spec, sel = SigmaSpec.power_law(eps, 1.0), ure_selector(40)
    _, [[losses]] = riskhull.bench._replications(spec, [ZERO_SIGNAL], [sel], 200, 40, 3)
    [stem] = stem_experiments(spec, ZERO_SIGNAL, [sel], 200, 40, 3)
    assert np.array_equal(stem.normalized_loss, losses / (eps * eps))


# ---------------------------------------------------------------------------
# blocked replication engine against the per-replication pipeline
# ---------------------------------------------------------------------------

ENGINE_SPEC = SigmaSpec.power_law(0.7, 1.0)
ENGINE_N_MAX = 30


@pytest.fixture(scope="module")
def engine_hull():
    return build_hull_table(ENGINE_SPEC, ENGINE_N_MAX, McParams(samples=20_000, seed=2))


def _reference_stem(spec, signal, select, reps, n_max, seed):
    """draw -> select -> project -> loss, one replication at a time.

    Replication r draws from numpy's ``rng_for(seed).bit_generator.jumped(r)``.
    """
    selected, losses = [], []
    for r in range(reps):
        xi = np.random.Generator(rng_for(seed).bit_generator.jumped(r)).standard_normal(n_max)
        obs = make_observation(spec, signal, xi, seed)
        N = select(obs)
        selected.append(N)
        losses.append(squared_loss(project(obs, N), signal))
    return np.array(selected), np.array(losses) / sigma_at(spec, 1) ** 2


@pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("signal_name", ["zero", "three", "family", "longer"])
@pytest.mark.parametrize("method", ["ure", "rhm", "fixed"])
def test_engine_matches_reference_loop(engine_hull, reps, signal_name, method):
    n_max = ENGINE_N_MAX
    signal = {
        "zero": ZERO_SIGNAL,
        "three": Signal([4.0, -2.5, 1.0]),
        "family": signal_family(20.0, 6.0, 6.0, 0.7, n_max),
        "longer": signal_family(20.0, 6.0, 2.0, 0.7, n_max + 9),
    }[signal_name]
    selector, select = {
        "ure": (ure_selector(n_max), lambda obs: select_ure(obs, n_max).N_selected),
        "rhm": (rhm_selector(engine_hull, 1.1, n_max),
                lambda obs: select_rhm(obs, engine_hull, 1.1, n_max).N_selected),
        "fixed": (fixed_selector(5), lambda obs: 5),
    }[method]
    stem = stem_experiment(ENGINE_SPEC, signal, selector, reps, n_max, seed=31)
    want_N, want_loss = _reference_stem(ENGINE_SPEC, signal, select, reps, n_max, seed=31)
    assert np.array_equal(stem.selected_N, want_N)
    assert np.array_equal(stem.normalized_loss, want_loss)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("chunk", [5, 48])
def test_engine_rows_do_not_depend_on_block_or_key_chunk(engine_hull, monkeypatch, block, chunk):
    # 130 reps cross several blocks and end in a partial one; each
    # normal_rows call hashes the key once, so splitting a block's draw
    # into calls of ``chunk`` rows re-hashes it mid-block
    monkeypatch.setattr(riskhull.bench, "_REP_BLOCK", block)
    draw = riskhull.bench.normal_rows

    def chunked(seed, first, n, out):
        for i in range(0, len(out), chunk):
            draw(seed, first + i, n, out[i:i + chunk])
        return out

    monkeypatch.setattr(riskhull.bench, "normal_rows", chunked)
    n_max, reps = ENGINE_N_MAX, 130
    signal = signal_family(20.0, 6.0, 2.0, 0.7, n_max + 9)
    selectors = [ure_selector(n_max), rhm_selector(engine_hull, 1.1, n_max)]
    selects = [lambda obs: select_ure(obs, n_max).N_selected,
               lambda obs: select_rhm(obs, engine_hull, 1.1, n_max).N_selected]
    stems = stem_experiments(ENGINE_SPEC, signal, selectors, reps, n_max, seed=31)
    for stem, select in zip(stems, selects):
        want_N, want_loss = _reference_stem(ENGINE_SPEC, signal, select, reps, n_max, seed=31)
        assert np.array_equal(stem.selected_N, want_N)
        assert np.array_equal(stem.normalized_loss, want_loss)


def test_engine_mixed_n_max_selectors_match_solo_runs(engine_hull):
    # the selectors share one energy matrix over the largest N_max
    signal = signal_family(20.0, 6.0, 6.0, 0.7, ENGINE_N_MAX)
    selectors = [ure_selector(30), rhm_selector(engine_hull, 1.1, 30), fixed_selector(5), ure_selector(12)]
    together = stem_experiments(ENGINE_SPEC, signal, selectors, 130, ENGINE_N_MAX, seed=9)
    for selector, stem in zip(selectors, together):
        alone = stem_experiment(ENGINE_SPEC, signal, selector, 130, ENGINE_N_MAX, seed=9)
        assert np.array_equal(stem.selected_N, alone.selected_N)
        assert np.array_equal(stem.normalized_loss, alone.normalized_loss)


def test_engine_checks_selectors_before_any_draw(engine_hull, monkeypatch):
    calls = []
    draw = riskhull.bench.normal_rows
    monkeypatch.setattr(riskhull.bench, "normal_rows", lambda *a: calls.append(a) or draw(*a))
    stale = rhm_selector(engine_hull, 1.1, ENGINE_N_MAX)
    with pytest.raises(ValueError, match="stale"):
        stem_experiment(INV, ZERO_SIGNAL, stale, 70, ENGINE_N_MAX, seed=1)
    with pytest.raises(ValueError, match="N_max"):
        stem_experiment(ENGINE_SPEC, ZERO_SIGNAL, ure_selector(ENGINE_N_MAX + 1), 70, ENGINE_N_MAX, seed=1)
    assert calls == []
    stem_experiment(ENGINE_SPEC, ZERO_SIGNAL, stale, 70, ENGINE_N_MAX, seed=1)
    assert len(calls) == 2  # the wrapper sees the draws of a valid run


@pytest.fixture(scope="module")
def engine_sweep(unit_hull_b1):
    """A 5-point sweep of both methods, its keyword arguments and its serial result."""
    kw = dict(a_grid=[0.0, 0.5, 5.0, 50.0, 500.0], W=6.0, m=6.0, reps=131, n_max=40, seed=6,
              alpha=1.1, hull=unit_hull_b1)
    return kw, efficiency_curves(SigmaSpec.power_law(0.3, 1.0), ("ure", "rhm"), **kw)


@pytest.mark.parametrize("workers", [2, 3, 7])  # 131 reps are 3 blocks; 7 workers are more
def test_engine_workers_do_not_change_efficiency_curves(engine_sweep, workers):
    kw, serial = engine_sweep
    spread = efficiency_curves(SigmaSpec.power_law(0.3, 1.0), ("ure", "rhm"), workers=workers, **kw)
    for curve, alone in zip(spread, serial):
        assert (curve.method, curve.reps) == (alone.method, alone.reps)
        for field in ("a_grid", "efficiency", "std_error", "oracle_N", "oracle_risk"):
            assert np.array_equal(getattr(curve, field), getattr(alone, field)), field


def test_engine_efficiency_columns_are_single_stream_runs(unit_hull_b1):
    # every amplitude and method reads rows 0..reps-1 of the seed's stream
    kw = dict(a_grid=[0.0, 0.5, 5.0, 50.0], W=6.0, m=6.0, reps=130, n_max=40, seed=8)
    spec = SigmaSpec.power_law(0.3, 1.0)
    curves = efficiency_curves(spec, ("ure", "rhm"), hull=unit_hull_b1, **kw)
    for curve, sel in zip(curves, (ure_selector(40), rhm_selector(unit_hull_b1, 1.1, 40))):
        want = [oracle_efficiency(unit_spec(spec), signal_family(a, 6.0, 6.0, 1.0, 40), sel, 130, 40, 8)
                for a in kw["a_grid"]]
        assert curve.efficiency.tolist() == want, curve.method


def _raise_non_finite(*args):
    raise ValueError("observation entries must all be finite")


def _die(*args):
    os._exit(1)


def _efficiency_sweep(monkeypatch, fail):
    monkeypatch.setattr(riskhull.bench, "_REP_BLOCK", 8)  # 20 reps are three blocks, one per worker
    if fail is not None:
        monkeypatch.setattr(riskhull.bench, "_replicate", fail)  # a forked worker inherits it
    efficiency_curves(INV, ("ure",), [0.0, 0.5, 5.0, 50.0, 500.0], 6.0, 6.0, 20, 10, seed=0, workers=3)


def _hull_sweep(monkeypatch, fail):
    # four blocks: the caller draws block 0 and three workers one each of the rest
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", 2_500)
    if fail is not None:
        fill = riskhull.hull._block_rows
        monkeypatch.setattr(riskhull.hull, "_block_rows",
                            lambda spec, N_max, mc, block: fail() if block else fill(spec, N_max, mc, block))
    build_hull_table(INV, 10, McParams(samples=10_000, seed=1), threads=3)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("sweep,fail,raises", [
    (_efficiency_sweep, None, None),
    (_efficiency_sweep, _raise_non_finite, ValueError),
    (_efficiency_sweep, _die, MemoryError),
    (_hull_sweep, None, None),
    (_hull_sweep, _raise_non_finite, ValueError),
    (_hull_sweep, _die, MemoryError),
], ids=["ok", "worker-error", "worker-killed", "hull-ok", "hull-worker-error", "hull-worker-killed"])
def test_engine_workers_leave_no_child_and_no_descriptor(monkeypatch, sweep, fail, raises):
    # the efficiency sweep's replication blocks and the hull build's blocks run on one forked map
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        sweep(monkeypatch, fail)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_rejects_non_finite_observations(workers):
    # sigma_k = k**400 is inf in float64 from k = 6 on, so every observation has an inf entry
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="observation entries must all be finite"):
        efficiency_curves(SigmaSpec.power_law(1.0, 400.0), ("ure",), [0.5, 5.0], 6.0, 6.0, 20, 10,
                          seed=0, workers=workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_engine_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers"):
        efficiency_curves(INV, ("ure",), [1.0, 2.0], 6.0, 6.0, 10, 10, seed=0, workers=0)


def test_engine_does_not_import_numpy_ma(cli_env):
    # np.unique imports numpy.ma lazily (about 1 MB of peak RSS); the
    # replication engine must not pull it in.
    code = (
        "import sys\n"
        "import riskhull as rh\n"
        "spec = rh.SigmaSpec.power_law(1.0, 1.0)\n"
        "rh.efficiency_curve(spec, 'ure', [0.5, 5.0], 6.0, 6.0, 70, 20, seed=1)\n"
        "rh.stem_experiment(spec, rh.ZERO_SIGNAL, rh.ure_selector(20), 70, 20, seed=1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# golden output digests
# ---------------------------------------------------------------------------

# sha256 of the CSVs that `riskhull bench` writes for GOLDEN_CONFIG, under
# riskhull-manifest-v10: replication r at counter offset r of the run's seed,
# as the reference loop above draws it, for every amplitude of an efficiency
# run, the oracle curve's cumulative sums, and the hull of riskhull-hull-v3
# (the float32 Box-Muller draw from SFC64 words); any change to a random stream, the selection, the
# loss or the oracle risk arithmetic moves them.  v9 squares sigma_1 and the
# mean of std_error as products, not with pow; at this config (epsilon 0.5, a
# power of two) no byte moved from v8.  v10 forms sigma_k^2, sigma_k^4 and
# their running sums in one place (sequence_model.sigma_sums); it moves ratio
# bytes only, so no digest here moved from v9.
GOLDEN_CONFIG = {
    "problem": {"kind": "power-law", "epsilon": 0.5, "beta": 1.0},
    "experiment": {"n_max": 60, "reps": 300, "seed": 4, "a_grid": [0.5, 5.0, 50.0]},
    "selector": {"methods": ["ure", "rhm"], "alpha": 1.1},
    "hull": {"samples": 20_000, "seed": 1},
}
GOLDEN_DIGESTS = {
    "efficiency_ure.csv": "ff7f80d7eb8c36e432f2ddcdc7ca74df66495beaa18f2f445e7c6916821211f5",
    "efficiency_rhm.csv": "9de6e9da3634124e2be3aac999e75149fc2a0b552aa290b8e8c20412e694cfef",
    "stem_ure.csv": "bac450fd38755d7a2b1b478fa2ef038489921d0bebe360003eacc7d8802e5286",
    "stem_rhm.csv": "88806ebaa6394742a0318267100fdd8445ca8fcd5c440e0d6e5b84b19c283146",
}


def test_bench_outputs_match_golden_digests(tmp_path, capsys):
    digests = {}
    for kind in ("efficiency", "stem"):
        doc = dict(GOLDEN_CONFIG, experiment=dict(GOLDEN_CONFIG["experiment"], kind=kind),
                   output={"directory": str(tmp_path / kind)})
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["bench", "--config", str(path)]) == 0
        for method in ("ure", "rhm"):
            name = f"{kind}_{method}.csv"
            digests[name] = hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


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
