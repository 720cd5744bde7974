from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskhull import (
    HullTable,
    Observation,
    SigmaSpec,
    Signal,
    ZERO_SIGNAL,
    default_a_grid,
    derive_seed,
    oracle_risk,
    project,
    projection_risk,
    rhm_risk,
    signal_family,
    simulate,
    squared_loss,
    ure_threshold,
)


def _obs(ys, spec=None):
    spec = spec or SigmaSpec.power_law(1.0, 0.0)
    return Observation(ys=np.asarray(ys, dtype=float), n_max=len(ys), sigma=spec, seed=0)


# ---------------------------------------------------------------------------
# projection and loss
# ---------------------------------------------------------------------------


def test_project_truncates():
    obs = _obs([3.0, 1.0, 4.0])
    assert project(obs, 2).coeffs.tolist() == [3.0, 1.0]
    assert project(obs, 0).norm_sq == 0.0
    assert project(obs, 3).coeffs.tolist() == [3.0, 1.0, 4.0]
    with pytest.raises(ValueError):
        project(obs, 4)


def test_squared_loss():
    assert squared_loss(Signal([1.0, 2.0]), Signal([1.0, 2.0])) == 0.0
    assert squared_loss(Signal([0.0]), Signal([3.0, 4.0])) == 25.0
    assert squared_loss(Signal([1.0, 0.0, 2.0]), Signal([0.0, 1.0])) == 6.0


@given(st.lists(st.floats(-50, 50), max_size=8), st.lists(st.floats(-50, 50), max_size=8))
def test_squared_loss_symmetric_nonnegative(xs, ys):
    a, b = Signal(xs), Signal(ys)
    assert squared_loss(a, b) == squared_loss(b, a) >= 0.0


# ---------------------------------------------------------------------------
# risks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda spec: projection_risk(ZERO_SIGNAL, spec, 0),
    lambda spec: oracle_risk(Signal([1.0, 2.0]), spec, 0),
    lambda spec: ure_threshold(spec, 0),
], ids=["projection_risk", "oracle_risk", "ure_threshold"])
def test_bandwidth_zero_is_rejected(call):
    with pytest.raises(ValueError):
        call(SigmaSpec.power_law(1.0, 1.0))


def test_projection_risk_values():
    assert projection_risk(ZERO_SIGNAL, SigmaSpec.power_law(1.0, 1.0), 3) == 14.0
    assert projection_risk(Signal([2.0]), SigmaSpec.power_law(1.0, 0.0), 1) == 1.0
    assert projection_risk(Signal([2.0, 1.0]), SigmaSpec.power_law(1.0, 0.0), 1) == 2.0


@given(
    coeffs=st.lists(st.floats(-20, 20), min_size=0, max_size=10),
    beta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    N=st.integers(1, 12),
)
def test_projection_risk_matches_naive_sum(coeffs, beta, N):
    spec = SigmaSpec.power_law(1.0, beta)
    sig = Signal(coeffs)
    naive = math.fsum(c * c for c in coeffs[N:]) + math.fsum(
        (1.0 * k**beta) ** 2 for k in range(1, N + 1)
    )
    assert projection_risk(sig, spec, N) == pytest.approx(naive, rel=1e-12)


def test_oracle_risk_zero_signal_is_sigma1_sq_exactly():
    for spec in (
        SigmaSpec.power_law(0.1, 0.0),
        SigmaSpec.power_law(2.0, 1.0),
        SigmaSpec.power_law(0.37, 2.0),
        SigmaSpec.explicit([0.5, 3.0, 9.0]),
    ):
        curve = oracle_risk(ZERO_SIGNAL, spec, 3)
        assert curve.argmin_N == 1
        expected = spec.epsilon**2 if spec.kind == "power-law" else spec.values[0] ** 2
        assert curve.min_value == expected


def test_oracle_risk_bias_dominated():
    curve = oracle_risk(Signal([10.0, 10.0]), SigmaSpec.power_law(1.0, 0.0), 5)
    assert curve.argmin_N == 2
    assert curve.min_value == 2.0


def test_oracle_risk_family_golden():
    # Frozen from an independent pure-python fsum scan of the risk curve.
    sig = signal_family(10.0, 6.0, 6.0, 1.0, 50)
    curve = oracle_risk(sig, SigmaSpec.power_law(1.0, 1.0), 50)
    assert curve.argmin_N == 5
    assert curve.min_value == pytest.approx(91.3018135608881, rel=1e-12)


def test_oracle_risk_is_pointwise_projection_risk():
    # signals shorter than, as long as and longer than N_max = 200
    signals = [Signal([3.0, 1.0, 0.5])] + [
        signal_family(a, 6.0, 6.0, 0.5, length)
        for a in (0.5, 20.0, 500.0) for length in (50, 200, 300)]
    for beta in (0.0, 0.5, 1.0, 2.0):
        spec = SigmaSpec.power_law(0.5, beta)
        for sig in signals:
            curve = oracle_risk(sig, spec, 200)
            for N in range(1, 201):
                assert curve.values[N - 1] == projection_risk(sig, spec, N)
            assert curve.min_value == min(curve.values)


@pytest.mark.parametrize("beta,n_max", [(0.0, 200), (1.0, 200), (2.0, 100)])
def test_oracle_risk_matches_fsum_reference(beta, n_max):
    # the efficiency sweep's curves: the default grid, W = m = 6, unit noise
    spec = SigmaSpec.power_law(1.0, beta)
    s2 = [(float(k) ** beta) ** 2 for k in range(1, n_max + 1)]
    for a in default_a_grid():
        sig = signal_family(float(a), 6.0, 6.0, 1.0, n_max)
        c2 = [c * c for c in sig.coeffs.tolist()]
        ref = [math.fsum(c2[N:] + s2[:N]) for N in range(1, n_max + 1)]
        curve = oracle_risk(sig, spec, n_max)
        for value, exact in zip(curve.values.tolist(), ref):
            assert abs(value - exact) <= 1e-15 * exact
        assert curve.argmin_N == 1 + ref.index(min(ref))


def test_oracle_risk_smallest_tie():
    # Flat risk curve: zero signal keeps variance increments positive, so
    # build an explicit tie through the signal tail instead.
    sig = Signal([1.0, 0.0])
    spec = SigmaSpec.explicit([1.0, 1.0])
    curve = oracle_risk(sig, spec, 2)
    # R(1) = 0 + 1 = 1, R(2) = 0 + 2 = 2: argmin 1; now make them tie
    sig2 = Signal([0.0, 1.0])
    curve2 = oracle_risk(sig2, spec, 2)
    assert curve2.values.tolist() == [2.0, 2.0]
    assert curve2.argmin_N == 1


@given(j=st.integers(-2, 3))
def test_scale_equivariance_exact(j):
    c = 2.0**j
    sig = signal_family(3.0, 6.0, 6.0, 1.0, 30)
    sig_c = Signal(c * sig.coeffs)
    spec = SigmaSpec.power_law(1.0, 1.0)
    spec_c = SigmaSpec.power_law(c, 1.0)
    for N in (1, 5, 17):
        assert projection_risk(sig_c, spec_c, N) == c * c * projection_risk(sig, spec, N)
    assert oracle_risk(sig_c, spec_c, 30).argmin_N == oracle_risk(sig, spec, 30).argmin_N


# ---------------------------------------------------------------------------
# hull-penalized risk
# ---------------------------------------------------------------------------


def _toy_hull(u0_values, spec):
    from riskhull import fingerprint

    n = len(u0_values)
    return HullTable(
        N_max=n,
        U0=np.asarray(u0_values, dtype=float),
        SigmaFourth=np.cumsum(np.arange(1, n + 1, dtype=float)),
        spec_fingerprint=fingerprint(spec),
        mc_samples=10_000,
        seed=0,
        monotonized=False,
    )


def test_rhm_risk_zero_hull_reduces_to_projection_risk():
    spec = SigmaSpec.power_law(1.0, 1.0)
    sig = Signal([2.0, 1.0])
    hull = _toy_hull([0.0, 0.0, 0.0], spec)
    for N in (1, 2, 3):
        assert rhm_risk(sig, spec, hull, 1.1, N) == projection_risk(sig, spec, N)


def test_rhm_risk_additive():
    spec = SigmaSpec.power_law(1.0, 0.0)
    hull = _toy_hull([0.0, 3.5, 3.5, 7.0], spec)
    for N, u in ((2, 3.5), (4, 7.0)):
        assert rhm_risk(ZERO_SIGNAL, spec, hull, 1.0, N) == N + 2.0 * u
    with pytest.raises(ValueError):
        rhm_risk(ZERO_SIGNAL, spec, hull, 1.0, 5)


def test_rhm_risk_rejects_hull_of_another_spectrum():
    hull = _toy_hull([0.0, 3.5, 3.5], SigmaSpec.power_law(1.0, 0.0))
    with pytest.raises(ValueError, match="stale"):
        rhm_risk(ZERO_SIGNAL, SigmaSpec.power_law(2.0, 0.0), hull, 1.0, 2)


@pytest.mark.slow
def test_rhm_risk_cross_checked_against_fresh_u0():
    from riskhull import McParams, build_hull_table, compute_u0

    spec = SigmaSpec.power_law(1.0, 1.0)
    mc = McParams(samples=1_000_000, seed=101, monotonize=False)
    hull = build_hull_table(spec, 10, mc)
    fresh = compute_u0(spec, 10, McParams(samples=1_000_000, seed=202))
    via_hull = rhm_risk(ZERO_SIGNAL, spec, hull, 1.1, 10)
    via_fresh = projection_risk(ZERO_SIGNAL, spec, 10) + 2.1 * fresh
    assert via_hull == pytest.approx(via_fresh, rel=0.02)


# ---------------------------------------------------------------------------
# URE threshold
# ---------------------------------------------------------------------------


def test_ure_threshold_paper_values():
    assert ure_threshold(SigmaSpec.power_law(1.0, 0.0), 100) == 8
    assert ure_threshold(SigmaSpec.power_law(0.01, 0.0), 100) == 8
    assert ure_threshold(SigmaSpec.power_law(1.0, 1.0), 100) == 14
    assert ure_threshold(SigmaSpec.power_law(123.0, 1.0), 100) == 14


def test_ure_threshold_beta2_matches_exhaustive_scan():
    spec = SigmaSpec.power_law(1.0, 2.0)
    expected = None
    for N in range(1, 200):
        lhs = math.fsum(float(k) ** 4 for k in range(1, N + 1))
        rhs = 2.0 * math.sqrt(2.0 * math.fsum(float(k) ** 8 for k in range(1, N + 1)))
        if lhs >= rhs:
            expected = N
            break
    assert expected is not None
    assert ure_threshold(spec, 200) == expected


def test_ure_threshold_none_when_out_of_range():
    assert ure_threshold(SigmaSpec.power_law(1.0, 1.0), 5) is None


@given(eps=st.floats(1e-4, 1e4), beta=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
def test_ure_threshold_epsilon_invariant(eps, beta):
    base = ure_threshold(SigmaSpec.power_law(1.0, beta), 200)
    assert ure_threshold(SigmaSpec.power_law(eps, beta), 200) == base


# ---------------------------------------------------------------------------
# Monte Carlo loss/risk consistency
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    "signal,spec,N",
    [
        (ZERO_SIGNAL, SigmaSpec.power_law(1.0, 0.0), 1),
        (signal_family(10.0, 6.0, 6.0, 1.0, 40), SigmaSpec.power_law(1.0, 1.0), 5),
        (Signal([2.0, 1.0, 0.5]), SigmaSpec.explicit([1.0, 2.0, 3.0]), 2),
    ],
)
def test_mc_loss_matches_projection_risk(signal, spec, N):
    reps = 100_000
    n_max = max(N, len(signal), 1)
    losses = np.empty(reps)
    for r in range(reps):
        obs = simulate(spec, signal, n_max, derive_seed(2024, r))
        losses[r] = squared_loss(project(obs, N), signal)
    se = losses.std(ddof=1) / np.sqrt(reps)
    assert abs(losses.mean() - projection_risk(signal, spec, N)) < 4.0 * se
