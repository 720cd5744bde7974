from __future__ import annotations

import dataclasses
import math
import os
import stat
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskhull import (
    HullCacheError,
    HullTable,
    McParams,
    SigmaSpec,
    ZERO_SIGNAL,
    build_hull_table,
    compute_u0,
    eta_checkpoint_samples,
    eta_paths_from_noise,
    eta_samples_at,
    fingerprint,
    gaussian_u0,
    load_hull_table,
    penalty_ratio,
    projection_risk,
    rhm_penalty,
    sample_eta_paths,
    save_hull_table,
    sigma_values,
    tail_functional,
    u1,
    unit_spec,
)
import riskhull.hull
from conftest import exact_tail_functional
from riskhull.hull import atomic_write_text, hull_table_for

B0 = SigmaSpec.power_law(1.0, 0.0)
B1 = SigmaSpec.power_law(1.0, 1.0)
B2 = SigmaSpec.power_law(1.0, 2.0)

MC_SMALL = McParams(samples=10_000, seed=5)


@pytest.fixture(scope="module")
def hull_tables_1m():
    """Monotonized default-scale tables, one per ill-posedness degree."""
    mc = McParams(samples=1_000_000, seed=1)
    return {0: build_hull_table(B0, 100, mc), 1: build_hull_table(B1, 100, mc), 2: build_hull_table(B2, 100, mc)}


# ---------------------------------------------------------------------------
# eta sampling
# ---------------------------------------------------------------------------


def test_eta_kernel_forced_noise():
    xi = np.ones((4, 3))
    assert np.array_equal(eta_paths_from_noise(B1, xi), np.zeros((4, 3)))
    eta = eta_paths_from_noise(SigmaSpec.explicit([1.0]), np.array([[2.0]]))
    assert eta.tolist() == [[3.0]]


def test_eta_kernel_cumulative():
    xi = np.array([[2.0, 0.0]])
    # weights (1, 4): eta_1 = 3, eta_2 = 3 + 4*(-1) = -1
    assert eta_paths_from_noise(B1, xi).tolist() == [[3.0, -1.0]]


# 20,000 samples in blocks of 4,096: five blocks, the last one partial
SMALL_BLOCK = 4_096


def test_sample_eta_paths_shape_and_determinism(monkeypatch):
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", SMALL_BLOCK)
    mc = McParams(samples=20_000, seed=9)
    paths = sample_eta_paths(B1, 6, mc)
    assert paths.shape == (20_000, 6)
    assert np.array_equal(paths, sample_eta_paths(B1, 6, mc))
    # last column of the coupled matrix is exactly the single-column sampler
    assert np.array_equal(paths[:, 5], eta_samples_at(B1, 6, mc))
    # and every block holds that block kernel call's rows
    for b in range(5):
        block = riskhull.hull._fill_paths(B1, 6, mc, b).T.astype(np.float64)
        assert np.array_equal(paths[b * SMALL_BLOCK:(b + 1) * SMALL_BLOCK], block)
    with pytest.raises(ValueError):
        sample_eta_paths(B1, 0, mc)
    with pytest.raises(ValueError):
        eta_samples_at(B1, 0, mc)


def test_eta_checkpoint_samples_match_columns(monkeypatch):
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", SMALL_BLOCK)
    mc = McParams(samples=20_000, seed=4)
    paths = sample_eta_paths(B1, 9, mc)
    chk = eta_checkpoint_samples(B1, [9, 2, 5], mc)
    assert chk.shape == (3, 20_000)
    # checkpoints are rows of the same block kernel, so they match exactly
    for row, N in zip(chk, (2, 5, 9)):
        assert np.array_equal(row, paths[:, N - 1])
    for Ns in ([], [0, 3]):
        with pytest.raises(ValueError):
            eta_checkpoint_samples(B1, Ns, mc)


def _block_squares(N_max, seed=11, block=2):
    """The xi^2 of one full block of the flat spectrum, shape (N_max, 65,536), in float64."""
    x = riskhull.hull._fill_paths(B0, N_max, McParams(samples=10 * 65_536, seed=seed), block).astype(np.float64)
    return np.diff(x, axis=0, prepend=0.0) + 1.0


def test_block_kernel_draws_chi_square_one():
    # 8 rows of 65,536: mean 1, variance 2 (the sample variance has variance
    # (mu_4 - 4) / n = 56 / n), and the survival function erfc(sqrt(t / 2)),
    # each within 4 standard errors
    xi2 = _block_squares(8)
    flat = xi2.ravel()
    n = flat.size
    assert abs(flat.mean() - 1.0) <= 4 * math.sqrt(2.0 / n)
    assert abs(flat.var() - 2.0) <= 4 * math.sqrt(56.0 / n)
    for t in (1.0, 4.0, 9.0, 16.0):
        p = math.erfc(math.sqrt(t / 2))
        assert abs(np.mean(flat > t) - p) <= 4 * math.sqrt(p * (1 - p) / n), t
    # Box-Muller truncates at -2 ln 2^-40 = 55.45 (the float32 differences that
    # recover xi^2 from the cumulative rows round by about 1e-7)
    assert flat.min() >= -1e-6 and flat.max() <= 55.46
    # the two rows of each pair, one radius and one angle, are uncorrelated
    for j in range(4):
        assert abs(np.corrcoef(xi2[2 * j], xi2[2 * j + 1])[0, 1]) <= 4 / math.sqrt(xi2.shape[1]), j


def _block_words(mc, block, pairs, n):
    """The raw words of one block's pairs, one row of n per pair."""
    bits = np.random.SFC64(np.random.SeedSequence(mc.seed, spawn_key=(block,)))
    return bits.random_raw(pairs * n).reshape(pairs, n)


def test_block_kernel_reads_one_raw_word_per_pair_column():
    # pair j of block b is Box-Muller on words j*n .. (j+1)*n - 1 of the block's
    # SFC64 stream, here in float64: the kernel's float32 log, cosine and R^2 - a
    # stay within the float32 tolerances of this float64 form
    mc, n = McParams(samples=10 * 65_536, seed=11), 65_536
    words = _block_words(mc, 2, 3, n)
    r2 = -2.0 * np.log(((words >> 24) + 1) * 2.0**-40)
    theta = 2 * np.pi * (words & 0xFFFFFF) / 2**24
    want = np.stack([r2 * np.cos(theta) ** 2, r2 * np.sin(theta) ** 2], axis=1).reshape(6, n)[:5]
    assert np.allclose(_block_squares(5), want, rtol=1e-5, atol=1e-4)


def test_block_kernel_rows_do_not_depend_on_n_max():
    # an odd N_max drops the last pair's second row and no other
    mc = McParams(samples=200_000, seed=6)
    for b in (0, 3):  # a full block and the short last one
        assert np.array_equal(riskhull.hull._fill_paths(B1, 7, mc, b), riskhull.hull._fill_paths(B1, 200, mc, b)[:7])


def _three_pass_block(spec, N_max, mc, block):
    """The block kernel in three passes over the whole block, in float32: draw every row pair at once,
    centre and weight the whole block, then cumulate row by row."""
    n = min(65_536, mc.samples - block * 65_536)
    words = _block_words(mc, block, -(-N_max // 2), n)
    a = (words & 0xFFFFFF).view(np.int64).astype(np.float32)
    a *= riskhull.hull._ANGLE
    a = np.cos(a) ** 2
    r2 = (words >> 24).view(np.int64).astype(np.float32)
    r2 += np.float32(1.0)
    r2 *= np.float32(2.0**-40)
    r2 = np.log(r2) * np.float32(-2.0)
    a *= r2
    x = np.stack([a, r2 - a], axis=1).reshape(-1, n)[:N_max]  # rows 2j and 2j+1 from pair j
    x -= np.float32(1.0)
    x *= (sigma_values(unit_spec(spec), N_max) ** 2).astype(np.float32)[:, None]
    for i in range(1, N_max):
        np.add(x[i], x[i - 1], out=x[i])
    return x


@pytest.mark.parametrize("spec", [B0, B1, B2], ids=["beta0", "beta1", "beta2"])
def test_block_kernel_matches_the_three_pass_kernel_bit_for_bit(spec):
    # drawing, centring, weighting and cumulating one row at a time makes the
    # same float32 operations on every element, in the same order
    mc = McParams(samples=70_000, seed=4)
    for N_max in (7, 8):
        for b in (0, 1):  # a full block and the short last one
            assert np.array_equal(riskhull.hull._fill_paths(spec, N_max, mc, b),
                                  _three_pass_block(spec, N_max, mc, b)), (N_max, b)


@pytest.mark.slow
def test_eta_moments_flat_spectrum():
    # eta_50 for sigma == 1 has mean 0 and variance 2 * 50.
    mc = McParams(samples=1_000_000, seed=12)
    col = eta_samples_at(B0, 50, mc)
    se = col.std(ddof=1) / math.sqrt(col.size)
    assert abs(col.mean()) < 4.0 * se
    assert abs(col.var(ddof=1) / 100.0 - 1.0) < 0.02


# ---------------------------------------------------------------------------
# tail functional
# ---------------------------------------------------------------------------


def test_tail_functional_examples():
    xs = [-1.0, 0.0, 2.0, 3.0]
    assert tail_functional(xs, 1.0) == 1.25
    assert tail_functional(xs, -10.0) == 1.0  # full-sample mean
    assert tail_functional(xs, 4.0) == 0.0
    with pytest.raises(ValueError):
        tail_functional([], 0.0)


@given(
    xs=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    t=st.floats(-150, 150),
)
def test_tail_functional_matches_naive(xs, t):
    naive = math.fsum(x for x in xs if x >= t) / len(xs)
    assert tail_functional(xs, t) == pytest.approx(naive, rel=1e-12, abs=1e-12)


@given(xs=st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_tail_functional_nonincreasing_on_positive_t(xs):
    ts = sorted({0.01, 1.0, 5.0, 50.0, 150.0} | {abs(x) + 1e-9 for x in xs})
    vals = [tail_functional(xs, t) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# U0 solver
# ---------------------------------------------------------------------------


def test_u0_at_bandwidth_one_is_zero():
    # Closed form: E (xi^2 - 1)+ = 2 * phi(1) ~ 0.4839 < 1 in sigma_1^2 units,
    # verified by quadrature, so the defining threshold is met at t -> 0+.
    from scipy.integrate import quad
    from scipy.stats import norm

    integral, err = quad(lambda x: (x * x - 1.0) * norm.pdf(x), 1.0, np.inf)
    assert 2.0 * integral == pytest.approx(2.0 * norm.pdf(1.0), abs=1e-10)
    assert 2.0 * integral < 1.0
    for spec in (B0, B1, B2, SigmaSpec.explicit([0.3, 4.0]), SigmaSpec.power_law(17.0, 0.5)):
        assert compute_u0(spec, 1, MC_SMALL) == 0.0


def exact_u0(spec: SigmaSpec, N: int) -> float:
    """The exact U0(N) in sigma_1^2 units, the root of G_N(t) = 1, where that root exceeds 1."""
    from scipy.optimize import brentq

    hi = 2.0
    while exact_tail_functional(spec, N, hi) > 1.0:
        hi *= 2.0
    return brentq(lambda t: exact_tail_functional(spec, N, t) - 1.0, hi / 2, hi, xtol=1e-12 * hi)


@pytest.mark.parametrize("N", [5, 25, 100])
def test_exact_tail_functional_matches_chi_square_closed_form(N):
    # beta = 0: eta_N + N is chi-square with N degrees of freedom, and
    # E[chi2_N 1(chi2_N >= x)] = N P(chi2_{N+2} >= x)
    from scipy.stats import chi2

    for t in (0.5, 3.0, 10.0, 40.0):
        x = t + N
        want = N * (chi2.sf(x, N + 2) - chi2.sf(x, N))
        assert exact_tail_functional(B0, N, t) == pytest.approx(want, rel=1e-11, abs=0)


def test_exact_u0_roots():
    # beta = 0 roots of the closed form, and one beta = 1 root
    for N, want in ((5, 2.269917291), (25, 11.56881666), (100, 28.64839368)):
        assert exact_u0(B0, N) == pytest.approx(want, rel=1e-9)
    assert exact_u0(B1, 10) == pytest.approx(1231.39, rel=5e-6)


@pytest.mark.slow
def test_mc_u0_within_batch_means_error_of_exact_roots():
    # Raw tables at hull seed 1 on 16 full Philox blocks, against the roots
    # pinned by test_exact_u0_roots.  The standard error is batch means over
    # the blocks: the spread of the 16 one-block roots over sqrt(16).
    mc = McParams(samples=16 * 65_536, seed=1, monotonize=False)
    assert riskhull.hull._SAMPLE_BLOCK == 65_536
    for spec, roots in ((B0, {5: 2.269917291, 25: 11.56881666, 100: 28.64839368}), (B1, {10: 1231.39})):
        Ns = sorted(roots)
        table = build_hull_table(spec, Ns[-1], mc)
        for N, row in zip(Ns, riskhull.hull._path_rows(spec, Ns, mc)):
            u0 = table.U0[N - 1]
            blocks = [riskhull.hull._u0_scan(b, b.size)[0] for b in row.reshape(16, -1)]
            z = (u0 - roots[N]) / (np.std(blocks, ddof=1) / 4)
            tail = int(np.sum(row >= u0))
            print(f"beta={spec.beta} N={N}: U0 {u0:.6g}, exact {roots[N]:.10g}, z = {z:+.2f}, tail {tail}")
            assert tail >= 50 and abs(z) <= 4, (spec.beta, N, z, tail)


@pytest.mark.slow
def test_mc_u0_mean_over_seeds_within_3_se_of_exact_roots():
    # Raw U0 at S = 10^6 over hull seeds 1..16, fixed in advance: the mean lies
    # within 3 standard errors of the seeds' spread from the exact root, so the
    # draw carries no bias that those errors can see.
    for spec, Ns in ((B0, (5, 25)), (B1, (5, 10))):
        u0 = np.array([build_hull_table(spec, Ns[-1], McParams(samples=1_000_000, seed=s, monotonize=False)).U0
                       for s in range(1, 17)])
        for N in Ns:
            root, vals = exact_u0(spec, N), u0[:, N - 1]
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            print(f"beta={spec.beta} N={N}: mean U0 {vals.mean():.6g} +- {se:.3g}, exact {root:.10g}, "
                  f"z = {(vals.mean() - root) / se:+.2f}")
            assert abs(vals.mean() - root) <= 3 * se, (spec.beta, N)


def _u0_brute(col, n_samples):
    """inf{t > 0 : G(t) <= 1} with G(t) = (sum of the samples >= t) / n_samples,
    evaluated exactly just above 0 and every positive sample; saturated when
    G > 1 even at the largest sample."""
    xs = [Fraction(float(x)) for x in col]

    def G(t, above):
        return sum(x for x in xs if x > t or (x == t and not above)) / n_samples

    root = next(t for t in sorted({Fraction(0)} | {x for x in xs if x > 0}) if G(t, above=True) <= 1)
    return float(root), root > 0 and G(max(xs), above=False) > 1


@pytest.mark.parametrize("col, n_samples, want", [
    ([4.0, 2.0, 2.0, 2.0, 1.0, -3.0, 0.0], 7, (2.0, False)),  # a tie at the crossing
    ([3.0, 2.0, 2.0, 1.0], 5, (2.0, False)),  # the tail mean reaches 1 inside the tie
    ([3.0, 2.0, -1.0, -4.0, 0.0], 5, (0.0, False)),  # positive part mean exactly 1
    ([-1.0, 0.0, -2.5], 3, (0.0, False)),  # no positive sample
    ([0.5, 0.25, -1.0], 3, (0.0, False)),  # a root of 0
    ([8.0, 1.0, -2.0, 0.5], 4, (8.0, True)),  # saturated: the largest sample
    ([6.0, 5.0, 3.0], 10, (5.0, False)),  # the kept top of 10 samples
    ([24.0, 6.0, 5.0], 10, (24.0, True)),  # saturated on the kept top of 10 samples
    ([5.0, 5.0], 8, (5.0, True)),  # saturated on a tie at the largest sample
    ([5.0, 5.0, 3.0], 9, (5.0, True)),  # the same, with a sample below the tie
])
def test_u0_scan_matches_brute_force(col, n_samples, want):
    # dyadic values, so every running sum is exact in float32 and float64.  A tie
    # at the largest sample is saturated whenever the tied samples together
    # exceed n_samples, even if one of them alone does not.
    for dtype in (np.float64, np.float32):
        got = riskhull.hull._u0_scan(np.array(col, dtype=dtype), n_samples)
        assert got == _u0_brute(col, n_samples) == want
        assert type(got[0]) is float and type(got[1]) is bool


def test_u0_epsilon_commutes_exactly():
    # One final multiplication by sigma_1^2 carries the whole noise scale.
    for eps in (0.3, 1.7, 9.25):
        spec = SigmaSpec.power_law(eps, 1.0)
        unit_val = compute_u0(SigmaSpec.power_law(1.0, 1.0), 8, MC_SMALL)
        assert compute_u0(spec, 8, MC_SMALL) == (eps * 1.0) ** 2 * unit_val


def test_hull_table_for_scales_by_sigma_1_times_sigma_1():
    # glibc's pow, which a float's ** calls, rounds this eps**2 away from eps * eps
    eps = float.fromhex("0x1.0b99663f450d4p+3")
    spec = SigmaSpec.power_law(eps, 1.0)
    unit = build_hull_table(unit_spec(spec), 12, MC_SMALL)
    assert np.count_nonzero(unit.U0) > 5
    assert np.array_equal(hull_table_for(unit, spec).U0, (eps * eps) * unit.U0)


@given(j=st.integers(-2, 3))
def test_u0_quadratic_scaling_exact_power_of_two(j):
    c = 2.0**j
    base = SigmaSpec.explicit([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    scaled = SigmaSpec.explicit(tuple(c * v for v in base.values))
    assert compute_u0(scaled, 8, MC_SMALL) == c * c * compute_u0(base, 8, MC_SMALL)


def test_u0_seed_stability_golden():
    # Two independent seeds agree within Monte Carlo tolerance; values frozen
    # from the float32 Box-Muller draw of riskhull-hull-v3 (the exact root is 1231.39).
    a = compute_u0(B1, 10, McParams(samples=1_000_000, seed=101))
    b = compute_u0(B1, 10, McParams(samples=1_000_000, seed=202))
    assert abs(a / b - 1.0) < 0.02
    assert a == pytest.approx(1234.0442, rel=1e-4)
    assert b == pytest.approx(1227.1002, rel=1e-4)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def test_hull_table_nmax_one():
    table = build_hull_table(B1, 1, MC_SMALL)
    assert table.U0.tolist() == [0.0]
    assert table.SigmaFourth.tolist() == [1.0]
    assert table.saturated == ()


def test_hull_table_thread_count_invariance():
    mc = McParams(samples=50_000, seed=3)
    t1 = build_hull_table(B1, 20, mc, threads=1)
    t4 = build_hull_table(B1, 20, mc, threads=4)
    assert np.array_equal(t1.U0, t4.U0)
    assert np.array_equal(t1.SigmaFourth, t4.SigmaFourth)
    assert t1.saturated == t4.saturated


def test_hull_table_matches_standalone_solver(monkeypatch):
    # compute_u0 reads whole rows across five blocks; the build streams them
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", SMALL_BLOCK)
    mc = McParams(samples=20_000, seed=7, monotonize=False)
    for threads in (1, 2):
        table = build_hull_table(B1, 12, mc, threads=threads)
        for N in (1, 2, 7, 12):
            assert table.U0[N - 1] == compute_u0(B1, N, mc)
    with pytest.raises(ValueError):
        compute_u0(B1, 0, mc)
    with pytest.raises(ValueError):
        build_hull_table(B1, 0, mc)


def test_hull_table_monotonized_is_running_max():
    mc_raw = McParams(samples=20_000, seed=7, monotonize=False)
    mc_mono = McParams(samples=20_000, seed=7, monotonize=True)
    raw = build_hull_table(B0, 30, mc_raw)
    mono = build_hull_table(B0, 30, mc_mono)
    assert np.array_equal(mono.U0, np.maximum.accumulate(raw.U0))
    assert np.all(np.diff(mono.U0) >= 0)


def test_hull_table_saturation_flags_deep_tail():
    # At the sample-size floor a beta = 2 spectrum cannot resolve the deep
    # tail: the empirical functional stays above sigma_1^2 at the largest
    # order statistic and the table says so loudly.
    table = build_hull_table(B2, 40, McParams(samples=10_000, seed=2))
    assert table.saturated
    assert 40 in table.saturated
    assert min(table.saturated) > 2  # shallow bandwidths still resolve


def _full_matrix_table(spec, N_max, mc):
    """The reference table, `_u0_scan` on every row of the whole path matrix,
    and that matrix."""
    paths = riskhull.hull._path_rows(spec, range(1, N_max + 1), mc)
    solved = [riskhull.hull._u0_scan(row, mc.samples) for row in paths]
    u0 = np.array([t for t, _ in solved])
    return (np.maximum.accumulate(u0) if mc.monotonize else u0), tuple(
        N for N, (_, sat) in enumerate(solved, 1) if sat), paths


def _kept_sizes(paths, mc):
    """How many samples of each row the one floor rule keeps, recomputed from
    block 0 through `_u0_scan`: if m samples there lie above the row's root
    (all of them for a root of 0), the floor is block 0's r-th largest positive
    sample (from 0), r = max(R, m + 1 + 2 * _MARGIN * isqrt(m + 1)), or 0 where
    r runs past them; the row keeps its samples above the floor."""
    n0 = min(riskhull.hull._SAMPLE_BLOCK, mc.samples)
    R = riskhull.hull._TOP_K * n0 // mc.samples
    kept = []
    for row in paths:
        top = np.sort(row[:n0][row[:n0] > 0])[::-1]
        t, _ = riskhull.hull._u0_scan(row[:n0], n0)
        m = int(np.sum(top > t)) if t > 0 else top.size
        r = max(R, m + 1 + 2 * riskhull.hull._MARGIN * math.isqrt(m + 1))
        kept.append(int(np.sum(row > (top[r] if r < top.size else 0))))
    return kept


def _routed_build(monkeypatch, spec, N_max, mc, threads):
    """build_hull_table, the size of each column it scanned (one per row, in
    row order, then the whole row of each redone one), and how many rows of
    block 0 fell back from their prefix to the whole sort: the calls of
    `_crossing` in this process before the first scan, less one per row."""
    sizes, calls = [], []
    scan, crossing = riskhull.hull._u0_scan, riskhull.hull._crossing
    monkeypatch.setattr(riskhull.hull, "_u0_scan", lambda col, n: (sizes.append(col.size), scan(col, n))[1])
    monkeypatch.setattr(riskhull.hull, "_crossing", lambda col, n: (calls.append(len(sizes)), crossing(col, n))[1])
    table = build_hull_table(spec, N_max, mc, threads=threads)
    monkeypatch.setattr(riskhull.hull, "_u0_scan", scan)
    monkeypatch.setattr(riskhull.hull, "_crossing", crossing)
    return table, sizes, max(calls.count(0) - N_max, 0)


@pytest.mark.parametrize("seed, samples, block", [
    pytest.param(1, 100_000, 16_384, id="1"),  # seven blocks, so four workers share them
    pytest.param(2, 100_000, 16_384, id="2"),
    pytest.param(1, 10_000, None, id="S10000"),  # one block
    pytest.param(1, 65_536, None, id="S65536"),
    pytest.param(1, 150_000, None, id="S150000"),  # three blocks of the default size
])
@pytest.mark.parametrize("monotonize", [True, False])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_streamed_build_equals_full_matrix_scan(monkeypatch, beta, monotonize, seed, samples, block):
    # The first forced route floors every row on block 0 at its
    # max(R, m + 2 - 2 isqrt(m + 1))-th largest sample there, above its
    # crossing there wherever m > R, so that whatever the draw some rows are
    # redone.  The second floors every row at block 0's largest sample, and
    # each row's prefix there is its top 2 samples, so nearly every row falls
    # back to the whole sort.  A one-block build scans each whole row once.
    if block:
        monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", block)
    spec, N_max = SigmaSpec.power_law(1.0, beta), 30
    mc = McParams(samples=samples, seed=seed, monotonize=monotonize)
    one_block = samples <= riskhull.hull._SAMPLE_BLOCK
    u0, saturated, paths = _full_matrix_table(spec, N_max, mc)
    positives = (paths > 0).sum(axis=1).tolist()
    routes = []
    for top_k, margin in ((riskhull.hull._TOP_K, riskhull.hull._MARGIN), (64, -1), (1, -10**6)):
        monkeypatch.setattr(riskhull.hull, "_TOP_K", top_k)
        monkeypatch.setattr(riskhull.hull, "_MARGIN", margin)
        kept = [samples] * N_max if one_block else _kept_sizes(paths, mc)
        floored = sum(size < pos for size, pos in zip(kept, positives))
        for threads in (1, 4):
            table, sizes, fallbacks = _routed_build(monkeypatch, spec, N_max, mc, threads)
            assert np.array_equal(table.U0, u0), (top_k, threads)
            assert table.saturated == saturated, (top_k, threads)
            assert sizes[:N_max] == kept, (top_k, threads)
            routes.append((N_max - floored, floored, len(sizes) - N_max, fallbacks))
    default, default4, forced, forced4, fallback, fallback4 = routes  # (unfloored, floored, redone, fallen back)
    assert default == default4 and forced == forced4 and fallback == fallback4
    if one_block:
        assert default == forced == fallback == (N_max, 0, 0, 0)
    else:
        assert default[0] >= 1 and default[2] == 0  # N = 1 crosses at 0: floor 0
        assert default[1] > 0 and forced[2] > 0 and fallback[3] > 0


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_streamed_build_holds_under_half_the_path_matrix(beta):
    # tracemalloc counts numpy's allocations: the rows are drawn one at a time
    # into a two-row buffer, so the peak is the kept samples (10-14 MB here),
    # under one whole block of 200 rows (52 MB), where the whole path matrix
    # would be 160 MB
    N_max, samples = 200, 200_000
    tracemalloc.start()
    try:
        build_hull_table(SigmaSpec.power_law(1.0, beta), N_max, McParams(samples=samples, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N_max * 65_536 * 4


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("monotonize", [True, False])
def test_hull_table_is_the_rescaled_unit_table(monotonize, threads):
    # The reference is the order the table was once built in: each root
    # scaled by sigma_1^2 on its own (compute_u0), then the running max.
    mc = McParams(samples=10_000, seed=5, monotonize=monotonize)
    raw_mc = dataclasses.replace(mc, monotonize=False)
    specs = [SigmaSpec.power_law(eps, beta) for eps in (1.0, 0.5, 0.37) for beta in (0.0, 1.0, 2.0)]
    specs.append(SigmaSpec.explicit([0.3, 0.9, 1.4, 2.0, 3.1, 3.3, 5.0, 8.5, 9.0, 12.0]))
    for spec in specs:
        unit = build_hull_table(unit_spec(spec), 10, mc, threads=threads)
        raw = np.array([compute_u0(spec, N, raw_mc) for N in range(1, 11)])
        want = np.maximum.accumulate(raw) if monotonize else raw
        for table in (build_hull_table(spec, 10, mc, threads=threads), hull_table_for(unit, spec)):
            assert np.array_equal(table.U0, want), spec
            assert np.array_equal(table.SigmaFourth, np.cumsum(np.square(np.square(sigma_values(spec, 10)))))
            assert table.spec_fingerprint == fingerprint(spec)
            assert (table.mc_samples, table.seed, table.monotonized) == (10_000, 5, monotonize)
            assert table.saturated == unit.saturated
    with pytest.raises(ValueError, match="stale"):
        hull_table_for(build_hull_table(SigmaSpec.power_law(0.5, 1.0), 4, mc), SigmaSpec.power_law(0.5, 1.0))


def test_quadratic_scaling_of_table_and_ratio():
    c = 4.0
    base, scaled = B1, SigmaSpec.power_law(4.0, 1.0)
    mc = McParams(samples=20_000, seed=6)
    tb, ts = build_hull_table(base, 10, mc), build_hull_table(scaled, 10, mc)
    assert np.array_equal(ts.U0, c * c * tb.U0)
    for N in (1, 4, 10):
        assert penalty_ratio(scaled, ts, 0.1, N) == penalty_ratio(base, tb, 0.1, N)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_gaussian_u0_values():
    # S_N = pi * e makes the log equal 1.
    v = (math.pi * math.e - 1.0) ** 0.25
    spec = SigmaSpec.explicit([1.0, v])
    assert gaussian_u0(spec, 2) == pytest.approx(math.sqrt(2.0 * math.pi * math.e), rel=1e-12)
    assert gaussian_u0(B0, 100) == pytest.approx(math.sqrt(200.0 * math.log(100.0 / math.pi)), rel=1e-12)
    assert gaussian_u0(B0, 3) == 0.0  # S_N = 3 <= pi: clamped
    with pytest.raises(ValueError):
        gaussian_u0(B0, 0)


def test_u1_values():
    v = (2.0 * math.pi * math.e - 1.0) ** 0.25
    spec = SigmaSpec.explicit([1.0, v])
    assert u1(spec, 2) == pytest.approx(1.0, rel=1e-12)
    assert u1(B0, 100) == pytest.approx(math.sqrt(math.log(100.0 / (2.0 * math.pi))), rel=1e-12)
    assert u1(B0, 6) == 0.0  # S_N = 6 <= 2*pi: clamped
    with pytest.raises(ValueError):
        u1(B0, 0)


def test_gaussian_u0_nondecreasing_in_n():
    for spec in (B0, B1, B2, SigmaSpec.power_law(0.2, 0.5)):
        vals = [gaussian_u0(spec, N) for N in range(1, 80)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_penalty_ratio_plugin_and_guards():
    spec = B0
    n = 5
    sig2 = np.ones(n)
    hull = HullTable(
        N_max=n,
        U0=np.cumsum(sig2),  # U0(N) = sum of sigma^2: rho = 1 + 1.1 = 2.1
        SigmaFourth=np.cumsum(np.ones(n)),
        spec_fingerprint=fingerprint(spec),
        mc_samples=10_000,
        seed=0,
        monotonized=True,
    )
    rho, _ = penalty_ratio(spec, hull, 0.1, 3)
    assert rho == pytest.approx(2.1, rel=1e-12)
    with pytest.raises(ValueError):
        penalty_ratio(B1, hull, 0.1, 3)  # fingerprint mismatch
    with pytest.raises(ValueError):
        penalty_ratio(spec, hull, 0.1, 6)  # outside table


def test_penalty_ratio_is_one_at_bandwidth_one():
    table = build_hull_table(B1, 2, MC_SMALL)
    rho, rho_tilde = penalty_ratio(B1, table, 0.1, 1)
    assert rho == 1.0
    assert rho_tilde == 1.0  # gaussian clamp at N = 1


def test_penalty_ratio_divides_by_the_projection_risk_of_zero_signal():
    # one running sum of sigma_k^2: at epsilon 0.7 a per-N np.sum differs from it at 106 of these N
    spec = SigmaSpec.power_law(0.7, 1.0)
    table = build_hull_table(spec, 200, MC_SMALL)
    pen = rhm_penalty(table, 1.1, 200)
    for N in range(1, 201):
        assert penalty_ratio(spec, table, 1.1, N)[0] == 1.0 + pen[N - 1] / projection_risk(ZERO_SIGNAL, spec, N), N


def test_closed_forms_read_the_table_sigma_fourth():
    # gaussian_u0 and u1 take S_N and sigma_1^4 from the running sum the table
    # holds, which the envelope check divides U0 by; at beta 2 a per-N np.sum
    # differs from it at 39 of these N
    table = build_hull_table(B2, 200, MC_SMALL)
    s_1 = float(table.SigmaFourth[0])
    for N in range(1, 201):
        s_n = float(table.SigmaFourth[N - 1])
        arg, arg1 = s_n / (math.pi * s_1), s_n / (2.0 * math.pi * s_1)
        assert gaussian_u0(B2, N) == (math.sqrt(2.0 * s_n * math.log(arg)) if arg > 1.0 else 0.0), N
        assert u1(B2, N) == (math.sqrt(math.log(arg1)) if arg1 > 1.0 else 0.0), N


# ---------------------------------------------------------------------------
# default-scale invariants (shared 10^6-sample tables)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_defining_equation_on_resolvable_grid(hull_tables_1m):
    # Fresh-sample check of the hull equation where the tail event at the
    # crossing is actually resolvable at 10^6 samples, i.e. where
    # U0 <~ a few hundred sigma_1^2 so the functional's Monte Carlo noise
    # sits well under the 5% tolerance.  Deeper (beta, N) combinations are
    # exercised (and discussed) in the acceptance suite.
    grid = {0: (2, 5, 10, 25, 50, 100), 1: (2, 5, 10), 2: (2,)}
    fresh_mc = McParams(samples=1_000_000, seed=2)
    for beta, Ns in grid.items():
        spec = {0: B0, 1: B1, 2: B2}[beta]
        table = hull_tables_1m[beta]
        fresh = eta_checkpoint_samples(spec, Ns, fresh_mc)
        for row, N in zip(fresh, Ns):
            u0 = float(table.U0[N - 1])
            assert tail_functional(row, u0) <= 1.05
            if u0 > 0:
                assert tail_functional(row, 0.95 * u0) > 0.95


@pytest.mark.slow
def test_gaussian_ratio_golden(hull_tables_1m):
    # Oracle-run bracket: for sigma_k = k the Monte Carlo penalty sits 20-70%
    # above the asymptotic Gaussian closed form over N in [50, 100] at 10^6
    # samples (the chi-square tail is heavier than its Gaussian limit).
    table = hull_tables_1m[1]
    ratios = [table.U0[N - 1] / gaussian_u0(B1, N) for N in range(50, 101)]
    assert min(ratios) >= 1.1
    assert max(ratios) <= 1.8


@pytest.mark.slow
def test_envelope_holds_from_n0(hull_tables_1m):
    # Regression golden from the oracle scan: with default-scale monotonized
    # tables the normalized penalty clears the lower envelope at every
    # bandwidth, so the crossing index N0 is 1 for beta in {0, 1, 2}.
    for beta, spec in ((0, B0), (1, B1), (2, B2)):
        table = hull_tables_1m[beta]
        u0n = table.U0 / np.sqrt(2.0 * table.SigmaFourth)
        u1n = np.array([u1(spec, N) for N in range(1, 101)])
        assert np.all(u0n >= u1n), f"envelope violated for beta={beta}"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_hull_json_roundtrip(tmp_path):
    table = build_hull_table(B1, 8, MC_SMALL)
    path = tmp_path / "hull.json"
    save_hull_table(table, B1, path)
    loaded, spec = load_hull_table(path)
    assert spec == B1
    assert np.array_equal(loaded.U0, table.U0)
    assert np.array_equal(loaded.SigmaFourth, table.SigmaFourth)
    assert loaded.spec_fingerprint == table.spec_fingerprint
    assert (loaded.mc_samples, loaded.seed, loaded.monotonized) == (10_000, 5, True)


def test_hull_json_rejects_garbage(tmp_path, malformed_hull_docs):
    import json

    path = tmp_path / "hull.json"
    path.write_text("{not json")
    with pytest.raises(HullCacheError):
        load_hull_table(path)
    save_hull_table(build_hull_table(B1, 4, MC_SMALL), B1, path)
    for doc in malformed_hull_docs(json.loads(path.read_text())):
        path.write_text(json.dumps(doc))
        with pytest.raises(HullCacheError):
            load_hull_table(path)


def test_hull_json_rejects_tampered_fingerprint(tmp_path):
    import json

    table = build_hull_table(B1, 4, MC_SMALL)
    path = tmp_path / "hull.json"
    save_hull_table(table, B1, path)
    doc = json.loads(path.read_text())
    doc["spec"]["beta"] = 2.0  # stored spec no longer matches stored fingerprint
    path.write_text(json.dumps(doc))
    with pytest.raises(HullCacheError):
        load_hull_table(path)


def test_save_rejects_wrong_spec(tmp_path):
    table = build_hull_table(B1, 4, MC_SMALL)
    with pytest.raises(ValueError):
        save_hull_table(table, B0, tmp_path / "x.json")


def test_atomic_write_text_concurrent_writers_never_tear(tmp_path):
    path = tmp_path / "out.txt"
    payloads = ["a" * 1_000_000, "b" * 1_000_000]
    errors = []

    def write(text):
        try:
            atomic_write_text(path, text)
        except Exception as exc:  # asserted on after the join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            workers = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
                assert not w.is_alive()
            assert errors == []
            assert path.read_text() in payloads
            assert os.listdir(tmp_path) == ["out.txt"]
    finally:
        sys.setswitchinterval(interval)


def test_atomic_write_text_failed_rename_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_text_keeps_plain_open_mode(tmp_path):
    with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
        fh.write("x")
    atomic_write_text(tmp_path / "atomic.txt", "x")
    plain, atomic = (stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain.txt", "atomic.txt"))
    assert atomic == plain


def test_mc_params_floor(tmp_path):
    with pytest.raises(ValueError):
        McParams(samples=9_999, seed=0)
    with pytest.raises(ValueError):
        McParams(samples=10_000, seed=-1)
    # a value the hull cache would read back as corrupt is refused up front
    for bad in ({"seed": True}, {"seed": 1.5}, {"samples": 20_000.5}, {"samples": "20000"}, {"monotonize": 1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            McParams(**bad)
    # an integral float counts as an integer, as in the config
    mc = McParams(samples=2e4, seed=3.0)
    assert (mc.samples, mc.seed) == (20_000, 3) and type(mc.samples) is type(mc.seed) is int
    table = build_hull_table(B1, 5, mc)
    save_hull_table(table, B1, tmp_path / "hull.json")
    loaded, _ = load_hull_table(tmp_path / "hull.json")
    assert (loaded.mc_samples, loaded.seed) == (20_000, 3) and np.array_equal(loaded.U0, table.U0)


def test_hull_table_invariants():
    with pytest.raises(ValueError):
        HullTable(
            N_max=2,
            U0=np.array([1.0, 0.5]),  # decreasing but flagged monotonized
            SigmaFourth=np.array([1.0, 2.0]),
            spec_fingerprint="x",
            mc_samples=10_000,
            seed=0,
            monotonized=True,
        )
    with pytest.raises(ValueError):
        HullTable(
            N_max=2,
            U0=np.array([0.0, 1.0]),
            SigmaFourth=np.array([2.0, 2.0]),  # not strictly increasing
            spec_fingerprint="x",
            mc_samples=10_000,
            seed=0,
            monotonized=False,
        )
