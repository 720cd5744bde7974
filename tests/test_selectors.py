from __future__ import annotations

import hashlib
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riskhull.sequence_model
from riskhull import (
    HullTable,
    McParams,
    Observation,
    Selector,
    SigmaSpec,
    ZERO_SIGNAL,
    build_hull_table,
    derive_seed,
    fingerprint,
    fixed_selector,
    penalized_objective,
    penalty_ratio,
    projection_risk,
    rhm_penalty,
    rhm_risk,
    rhm_selector,
    select_penalized,
    select_rhm,
    select_ure,
    sigma_values,
    simulate,
    ure_energy,
)
from riskhull.sequence_model import sigma_sums

FLAT = SigmaSpec.power_law(1.0, 0.0)


def _obs(ys, spec=FLAT):
    return Observation(ys=np.asarray(ys, dtype=float), n_max=len(ys), sigma=spec, seed=0)


def _hull(u0_values, spec, monotonized=False):
    n = len(u0_values)
    return HullTable(
        N_max=n,
        U0=np.asarray(u0_values, dtype=float),
        SigmaFourth=np.cumsum(np.ones(n)),
        spec_fingerprint=fingerprint(spec),
        mc_samples=10_000,
        seed=0,
        monotonized=monotonized,
    )


# ---------------------------------------------------------------------------
# penalized objective
# ---------------------------------------------------------------------------


def test_penalized_objective_values():
    assert penalized_objective(_obs([0.0, 0.0]), lambda n: 0.0, 2) == 2.0
    assert penalized_objective(_obs([3.0, 1.0]), lambda n: float(n), 1) == -7.0


def test_penalized_objective_with_sigma_sq_penalty_is_ure():
    obs = _obs([3.0, 1.0, 2.0])
    ure = select_ure(obs, 3)
    for N in (1, 2, 3):
        # pen(N) = sum sigma_k^2 = N for the flat unit spectrum
        assert penalized_objective(obs, lambda n: float(n), N) == ure.objective_values[N - 1]


@pytest.mark.parametrize("spec", [FLAT, SigmaSpec.power_law(0.5, 1.0), SigmaSpec.explicit([2.0, 0.3, 1.7, 4.0, 0.9, 1.1])])
def test_select_penalized_matches_scalar_reference(spec):
    def pen(n):
        return 3.0 * np.log(n) + 0.25 * n

    for seed in range(5):
        obs = simulate(spec, ZERO_SIGNAL, 6, derive_seed(21, seed))
        res = select_penalized(obs, pen, 6)
        ref = np.array([penalized_objective(obs, pen, N) for N in range(1, 7)])
        scale = np.sum(obs.ys**2) + np.sum(sigma_values(spec, 6) ** 2) + pen(6)
        np.testing.assert_allclose(res.objective_values, ref, rtol=0, atol=1e-13 * scale)
        assert res.N_selected == int(np.argmin(ref)) + 1


def test_select_penalized_matches_ure_reduction():
    obs = _obs([5.0, 0.2, 0.1, 4.0])
    res = select_penalized(obs, lambda n: float(n), 4)
    assert res.method == "custom-penalty"
    assert res.N_selected == select_ure(obs, 4).N_selected


# ---------------------------------------------------------------------------
# URE
# ---------------------------------------------------------------------------


def test_select_ure_increment_analysis():
    assert select_ure(_obs([0.5, 0.5, 0.5]), 3).N_selected == 1
    assert select_ure(_obs([10.0, 3.0, 0.1]), 3).N_selected == 2


def test_select_ure_objective_curve():
    res = select_ure(_obs([10.0, 3.0, 0.1]), 3)
    assert res.objective_values.tolist() == [-98.0, -105.0, -103.01]
    assert res.method == "ure"


def test_select_ure_range_checks():
    obs = _obs([1.0, 2.0])
    with pytest.raises(ValueError):
        select_ure(obs, 3)
    with pytest.raises(ValueError):
        select_ure(obs, 0)


# ---------------------------------------------------------------------------
# RHM
# ---------------------------------------------------------------------------


def test_select_rhm_zero_hull_equals_ure():
    obs = _obs([10.0, 3.0, 0.1])
    hull = _hull([0.0, 0.0, 0.0], FLAT)
    rhm = select_rhm(obs, hull, 1.1, 3)
    ure = select_ure(obs, 3)
    assert rhm.N_selected == ure.N_selected
    assert np.array_equal(rhm.objective_values, ure.objective_values)
    assert rhm.method == "rhm"


def test_select_rhm_penalty_pushes_bandwidth_down():
    obs = _obs([10.0, 3.0, 0.1])
    hull = _hull([0.0, 5.0, 5.0], FLAT, monotonized=True)
    assert select_rhm(obs, hull, 1.0, 3).N_selected == 1


def test_select_rhm_rejects_stale_hull():
    obs = _obs([1.0, 2.0, 3.0])
    hull = _hull([0.0, 1.0, 2.0], SigmaSpec.power_law(1.0, 1.0))
    with pytest.raises(ValueError, match="stale"):
        select_rhm(obs, hull, 1.1, 3)


def test_select_rhm_computes_the_fingerprint_once_per_spec(monkeypatch):
    # the digest is kept on the spec instance, not keyed by equality:
    # beta -0.0 and 0.0 give equal specs with different digests
    spec = SigmaSpec.power_law(1.0, 0.0)
    obs, hull = _obs([10.0, 3.0, 0.1], spec), _hull([0.0, 1.0, 2.0], SigmaSpec.power_law(1.0, 0.0))
    digests = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(riskhull.sequence_model, "hashlib",
                        types.SimpleNamespace(sha256=lambda blob: (digests.append(blob), sha256(blob))[1]))
    picks = [select_rhm(obs, hull, 1.1, 3).N_selected for _ in range(3)]
    assert picks == [picks[0]] * 3 and len(digests) <= 1
    negative = SigmaSpec.power_law(1.0, -0.0)
    assert negative == spec and hash(negative) == hash(spec)
    assert repr(spec) == "SigmaSpec(kind='power-law', epsilon=1.0, beta=0.0, values=None)"
    assert fingerprint(negative) != fingerprint(spec)


def test_select_rhm_requires_hull_coverage():
    obs = _obs([1.0, 2.0, 3.0])
    hull = _hull([0.0, 1.0], FLAT)
    with pytest.raises(ValueError):
        select_rhm(obs, hull, 1.1, 3)


def test_rhm_penalty_is_one_computation():
    # rhm_risk, penalty_ratio and the RHM selector add the same penalty and
    # reject a negative, NaN or infinite alpha or a bandwidth past the table
    # with one message
    spec = SigmaSpec.power_law(1.0, 1.0)
    table = build_hull_table(spec, 12, McParams(samples=20_000, seed=8))
    pen = rhm_selector(table, 1.1, 12).pen
    assert not pen.flags.writeable
    assert np.array_equal(pen, rhm_penalty(table, 1.1, 12))
    assert np.array_equal(pen, (1.0 + 1.1) * table.U0)
    for N in range(1, 13):
        assert rhm_risk(ZERO_SIGNAL, spec, table, 1.1, N) == projection_risk(ZERO_SIGNAL, spec, N) + pen[N - 1]
        denom = float(np.sum(sigma_values(spec, N) ** 2))
        assert penalty_ratio(spec, table, 1.1, N)[0] == 1.0 + float(pen[N - 1]) / denom
    for alpha, N in ((-0.5, 3), (1.1, 13), (1.1, 0), (float("nan"), 3), (float("inf"), 3)):
        messages = set()
        for call in (lambda: rhm_risk(ZERO_SIGNAL, spec, table, alpha, N),
                     lambda: penalty_ratio(spec, table, alpha, N),
                     lambda: rhm_selector(table, alpha, N)):
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1, messages


def test_penalty_ordering():
    # pen_rhm(N) - pen_ure(N) = (1 + alpha) U0(N) >= 0, equality iff U0 = 0.
    spec = SigmaSpec.power_law(1.0, 1.0)
    table = build_hull_table(spec, 12, McParams(samples=20_000, seed=8))
    obs = simulate(spec, ZERO_SIGNAL, 12, 1)
    gap = select_rhm(obs, table, 1.1, 12).objective_values - select_ure(obs, 12).objective_values
    assert np.all(gap >= 0)
    assert np.array_equal(gap == 0, table.U0 == 0)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


@given(j=st.integers(-2, 3), seed=st.integers(0, 30))
def test_argmin_scale_invariance_exact(j, seed):
    c = 2.0**j
    spec = SigmaSpec.power_law(1.0, 1.0)
    spec_c = SigmaSpec.power_law(c, 1.0)
    xi = np.random.Generator(np.random.Philox(key=seed)).standard_normal(15)
    from riskhull import make_observation

    obs = make_observation(spec, ZERO_SIGNAL, xi)
    obs_c = make_observation(spec_c, ZERO_SIGNAL, xi)
    assert select_ure(obs, 15).N_selected == select_ure(obs_c, 15).N_selected
    mc = McParams(samples=10_000, seed=5)
    hull, hull_c = build_hull_table(spec, 15, mc), build_hull_table(spec_c, 15, mc)
    assert (
        select_rhm(obs, hull, 1.1, 15).N_selected
        == select_rhm(obs_c, hull_c, 1.1, 15).N_selected
    )


def test_selector_determinism():
    spec = SigmaSpec.power_law(1.0, 1.0)
    obs = simulate(spec, ZERO_SIGNAL, 20, derive_seed(3, 7))
    hull = build_hull_table(spec, 20, McParams(samples=10_000, seed=1))
    a = select_rhm(obs, hull, 1.1, 20)
    b = select_rhm(obs, hull, 1.1, 20)
    assert a.N_selected == b.N_selected
    assert np.array_equal(a.objective_values, b.objective_values)


def test_smallest_minimizer_tie_break():
    # y_k = sigma_k = 1 with pen(N) = -N makes every objective value -N + ...
    # flat at zero: -sum(y^2) + sum(sigma^2) + 0 = 0 for all N.
    obs = _obs([1.0, 1.0, 1.0])
    res = select_penalized(obs, lambda n: 0.0, 3)
    assert res.objective_values.tolist() == [0.0, 0.0, 0.0]
    assert res.N_selected == 1


def test_fixed_selector():
    obs = _obs([1.0, 2.0, 3.0])
    sel = fixed_selector(2)
    assert sel(obs).N_selected == 2
    Y = 10.0 * np.random.default_rng(0).standard_normal((7, 4))
    assert fixed_selector(3).pick(ure_energy(Y[:, :3], sigma_sums(FLAT, 3)[1])).tolist() == [3] * 7
    with pytest.raises(ValueError, match="pen must hold"):
        Selector("custom-penalty", 3, np.zeros(1))  # would broadcast as a constant
    with pytest.raises(ValueError, match="NaN"):  # argmin would pick it
        select_penalized(_obs([1.0] * 10), lambda N: np.nan if N == 7 else 0.0, 10)
    with pytest.raises(ValueError):
        fixed_selector(5)(_obs([1.0]))


@pytest.mark.slow
def test_ure_objective_unbiasedness_quick():
    # E[objective(N)] = R(theta, N) - ||theta||^2 for each N.
    spec = SigmaSpec.power_law(1.0, 1.0)
    from riskhull import signal_family

    sig = signal_family(5.0, 6.0, 6.0, 1.0, 20)
    reps = 20_000
    acc = np.zeros(20)
    for r in range(reps):
        acc += select_ure(simulate(spec, sig, 20, derive_seed(55, r)), 20).objective_values
    mean_obj = acc / reps
    sig2 = np.arange(1.0, 21.0) ** 2
    th2 = sig.coeffs**2
    for N in (1, 5, 20):
        expected = projection_risk(sig, spec, N) - sig.norm_sq
        # Var(objective) = sum_{k<=N} Var(y_k^2) = sum (2 sigma_k^4 + 4 sigma_k^2 theta_k^2)
        se = np.sqrt(np.sum(2.0 * sig2[:N] ** 2 + 4.0 * sig2[:N] * th2[:N]) / reps)
        assert abs(mean_obj[N - 1] - expected) < 4.0 * se
