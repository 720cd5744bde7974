from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskhull import (
    Observation,
    SigmaSpec,
    Signal,
    ZERO_SIGNAL,
    derive_seed,
    fingerprint,
    make_observation,
    rng_for,
    sigma_at,
    sigma_values,
    signal_family,
    simulate,
    spec_from_dict,
    spec_to_dict,
    unit_spec,
)
from riskhull.sequence_model import normal_rows


# ---------------------------------------------------------------------------
# sigma specs
# ---------------------------------------------------------------------------


def test_sigma_at_power_law():
    assert sigma_at(SigmaSpec.power_law(0.1, 1.0), 3) == pytest.approx(0.3)
    assert sigma_at(SigmaSpec.power_law(1.0, 0.0), 17) == 1.0
    assert sigma_at(SigmaSpec.explicit([2.0, 5.0]), 2) == 5.0


def test_sigma_at_explicit_out_of_range():
    spec = SigmaSpec.explicit([2.0, 5.0])
    with pytest.raises(ValueError):
        sigma_at(spec, 3)
    with pytest.raises(ValueError):
        sigma_values(spec, 3)


def test_sigma_at_rejects_bad_index():
    with pytest.raises(ValueError):
        sigma_at(SigmaSpec.power_law(1.0, 1.0), 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SigmaSpec.power_law(0.0, 1.0)
    for beta in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            SigmaSpec.power_law(1.0, beta)
    with pytest.raises(ValueError):
        SigmaSpec.explicit([])
    with pytest.raises(ValueError):
        SigmaSpec.explicit([1.0, -2.0])


@pytest.mark.parametrize("make", [
    lambda: SigmaSpec.explicit(["1.5", True, 2]),
    lambda: SigmaSpec.explicit([1.0, "2"]),
    lambda: SigmaSpec.explicit([np.bool_(True)]),
    lambda: SigmaSpec(kind="explicit", values=(1.0, False)),
    lambda: SigmaSpec.power_law("1", 1.0),
    lambda: SigmaSpec.power_law(True, 1.0),
    lambda: SigmaSpec.power_law(1.0, False),
    lambda: SigmaSpec(kind="power-law", epsilon=1.0, beta="0"),
], ids=["explicit-mixed", "explicit-str", "explicit-np-bool", "explicit-direct-bool",
        "epsilon-str", "epsilon-bool", "beta-bool", "beta-str-direct"])
def test_spec_refuses_strings_and_booleans(make):
    with pytest.raises(ValueError, match="must be a real number"):
        make()


def test_spec_accepts_ints_floats_and_numpy_reals():
    spec = SigmaSpec.explicit([1, 2.5, np.float32(3.5), np.int64(4), np.float64(5.5)])
    assert spec.values == (1.0, 2.5, 3.5, 4.0, 5.5)
    assert all(type(v) is float for v in spec.values)
    spec = SigmaSpec.power_law(np.int32(2), np.float64(1.5))
    assert (spec.epsilon, spec.beta) == (2.0, 1.5)
    assert type(spec.epsilon) is float and type(spec.beta) is float
    assert SigmaSpec(kind="power-law", epsilon=1, beta=0) == SigmaSpec.power_law(1.0, 0.0)


def test_sigma_values_matches_sigma_at():
    # at a non-integer beta, numpy's array pow and libm's scalar pow may round k**beta apart
    for beta in (0.7, 1.5, 2.0, 2.5):
        spec = SigmaSpec.power_law(0.7, beta)
        assert sigma_values(spec, 200).tolist() == [sigma_at(spec, k) for k in range(1, 201)], beta


def test_spec_roundtrip_and_fingerprint():
    for spec in (SigmaSpec.power_law(0.1, 2.0), SigmaSpec.explicit([1.0, 2.5, 7.0])):
        again = spec_from_dict(spec_to_dict(spec))
        assert fingerprint(again) == fingerprint(spec)
    assert fingerprint(SigmaSpec.power_law(1.0, 1.0)) != fingerprint(SigmaSpec.power_law(1.0, 2.0))


def test_unit_spec():
    assert unit_spec(SigmaSpec.power_law(0.25, 2.0)) == SigmaSpec.power_law(1.0, 2.0)
    u = unit_spec(SigmaSpec.explicit([2.0, 5.0]))
    assert u.values == (1.0, 2.5)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


def test_make_observation_forced_noise():
    spec = SigmaSpec.explicit([0.1, 0.2])
    obs = make_observation(spec, Signal([1.0, 2.0]), np.array([1.0, -1.0]))
    assert obs.ys.tolist() == [1.1, 1.8]


def test_make_observation_zero_noise():
    obs = make_observation(SigmaSpec.power_law(3.0, 1.0), ZERO_SIGNAL, np.zeros(4))
    assert obs.ys.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_simulate_deterministic():
    spec = SigmaSpec.power_law(1.0, 1.0)
    sig = signal_family(2.0, 6.0, 6.0, 1.0, 20)
    a = simulate(spec, sig, 20, 123)
    b = simulate(spec, sig, 20, 123)
    assert np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.ys, simulate(spec, sig, 20, 124).ys)


def test_simulate_respects_explicit_bound():
    spec = SigmaSpec.explicit([1.0, 2.0])
    with pytest.raises(ValueError):
        simulate(spec, ZERO_SIGNAL, 3, 0)


def test_observation_validation():
    spec = SigmaSpec.power_law(1.0, 0.0)
    with pytest.raises(ValueError):
        Observation(ys=np.ones(3), n_max=4, sigma=spec, seed=0)
    with pytest.raises(ValueError):
        Observation(ys=np.array([np.inf]), n_max=1, sigma=spec, seed=0)
    with pytest.raises(ValueError):
        Observation(ys=np.ones(0), n_max=0, sigma=spec, seed=0)


@pytest.mark.parametrize("call", [
    lambda: rng_for(-1),
    lambda: derive_seed(-1),
    lambda: simulate(SigmaSpec.power_law(1.0, 0.0), ZERO_SIGNAL, 0, 0),
    lambda: simulate(SigmaSpec.power_law(1.0, 0.0), ZERO_SIGNAL, -1, 0),
], ids=["rng_for-seed", "derive_seed-seed", "simulate-n_max-0", "simulate-n_max-negative"])
def test_negative_seed_and_empty_observation_are_rejected(call):
    # numpy refuses a negative seed or row length, and sigma_values a bandwidth of 0
    with pytest.raises(ValueError):
        call()


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 3) == derive_seed(7, 3)


# The replication streams against numpy's Philox.jumped: seeds of one to
# five 32-bit words, and one derive_seed output (derived seeds, such as
# criterion 12's, are 64-bit).
STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 12345678901234567, 2**128 + 3,
                derive_seed(2024, 3)]


def _jumped(seed, row):
    """Row ``row`` of the stream of ``seed``: numpy's Philox.jumped."""
    return np.random.Generator(rng_for(seed).bit_generator.jumped(row))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    # every row of the stream of seed has the key of rng_for(seed),
    # SeedSequence(seed).generate_state(2), and row r is numpy's jumped(r) of
    # it: rows far past 2**32 too, since the row number is the counter
    key = np.random.SeedSequence(seed).generate_state(2)
    assert np.array_equal(rng_for(seed).bit_generator.state["state"]["key"], key)
    for first in (0, 2**32 - 1, 2**40):
        out = np.empty((3, 5))
        normal_rows(seed, first, 5, out)
        for i in range(3):
            assert np.array_equal(out[i], _jumped(seed, first + i).standard_normal(5)), (first, i)


@pytest.mark.parametrize("n", [1, 7, 200])
def test_normal_rows_match_rng_for(n):
    seed, first, rows = derive_seed(11, 4), 64, 9
    out = np.empty((rows, n))
    assert normal_rows(seed, first, n, out) is out
    for i in range(rows):
        assert np.array_equal(out[i], _jumped(seed, first + i).standard_normal(n))
    # row 0 is the draw of rng_for(seed) itself, the one simulate makes
    assert np.array_equal(normal_rows(seed, 0, n, out[:1])[0], rng_for(seed).standard_normal(n))
    for bad in ((-1, 0), (seed, -1)):
        with pytest.raises(ValueError):
            normal_rows(*bad, n, out)


def test_simulate_draws_match_rng_for_from_four_threads():
    # simulate and normal_rows share one re-keyed generator per thread; four
    # threads drawing at once must each get the draws of fresh generators
    spec = SigmaSpec.power_law(1.0, 0.0)  # sigma = 1 and no signal: ys is the draw itself
    start = threading.Barrier(4)

    def draws(t):
        start.wait(timeout=30)
        bad = []
        for i in range(200):
            seed, n = derive_seed(t, i), 1 + (7 * i + t) % 40
            if not np.array_equal(simulate(spec, ZERO_SIGNAL, n, seed).ys,
                                  rng_for(seed).standard_normal(n)):
                bad.append(("simulate", seed, n))
            out = np.empty((2, n))
            normal_rows(seed, i, n, out)
            if not all(np.array_equal(out[r], _jumped(seed, i + r).standard_normal(n)) for r in range(2)):
                bad.append(("normal_rows", seed, n))
        return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, between a re-key and its draw too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(draws, t) for t in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[], [], [], []]


@pytest.mark.slow
def test_simulate_noise_moments():
    # With theta = 0 and sigma_k = k, ys[k]/k is standard normal; the pooled
    # mean over seeds and indices must vanish to within 4 standard errors.
    spec = SigmaSpec.power_law(1.0, 1.0)
    n_seeds, n_max = 20_000, 50
    k = np.arange(1, n_max + 1, dtype=np.float64)
    acc = np.zeros(n_max)
    for s in range(n_seeds):
        acc += simulate(spec, ZERO_SIGNAL, n_max, derive_seed(99, s)).ys / k
    per_k_mean = acc / n_seeds
    pooled = per_k_mean.mean()
    assert abs(pooled) < 4.0 / np.sqrt(n_seeds * n_max)
    assert np.all(np.abs(per_k_mean) < 4.0 / np.sqrt(n_seeds))


# ---------------------------------------------------------------------------
# signal family
# ---------------------------------------------------------------------------


def test_signal_family_values():
    sig = signal_family(10.0, 6.0, 6.0, 0.1, 10)
    assert sig.coeffs[5] == pytest.approx(0.5)  # (i/W)^m = 1 at i = W
    sig = signal_family(1.0, 6.0, 6.0, 1.0, 12)
    assert sig.coeffs[11] == pytest.approx(1.0 / 65.0)
    assert signal_family(0.0, 3.0, 2.0, 1.0, 5).norm_sq == 0.0


def test_signal_family_validation():
    for a in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            signal_family(a, 6.0, 6.0, 1.0, 5)
    with pytest.raises(ValueError):
        signal_family(1.0, 0.0, 6.0, 1.0, 5)


def test_signal_family_rejects_nan_shape_by_name():
    nan = float("nan")
    for args, name in (((nan, 6.0, 1.0), "W"), ((6.0, nan, 1.0), "m"), ((6.0, 6.0, nan), "epsilon")):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
            signal_family(1.0, *args, 5)
    # an infinite bandwidth is the flat signal a * epsilon
    assert signal_family(2.0, float("inf"), 6.0, 0.5, 4).coeffs.tolist() == [1.0] * 4


@given(
    a=st.floats(0.001, 1000.0),
    W=st.floats(1.0, 50.0),
    m=st.floats(1.0, 8.0),
    eps=st.floats(0.001, 1000.0),
    n=st.integers(2, 200),
)
def test_signal_family_strictly_decreasing(a, W, m, eps, n):
    sig = signal_family(a, W, m, eps, n)
    assert np.all(np.diff(sig.coeffs) < 0)


@given(
    a=st.floats(0.001, 1000.0),
    j=st.integers(-3, 3),
    n=st.integers(1, 64),
)
def test_signal_family_amplitude_scaling_exact(a, j, n):
    # Power-of-two amplitude factors scale the family exactly coefficientwise.
    c = 2.0**j
    base = signal_family(a, 6.0, 6.0, 1.0, n)
    scaled = signal_family(c * a, 6.0, 6.0, 1.0, n)
    assert np.array_equal(scaled.coeffs, c * base.coeffs)


def test_signal_padded_and_norm():
    sig = Signal([3.0, 4.0])
    assert sig.norm_sq == 25.0
    assert sig.padded(4).tolist() == [3.0, 4.0, 0.0, 0.0]
    assert len(ZERO_SIGNAL) == 0
