"""Monte Carlo experiment harness: stem diagnostics, penalty-ratio curves
and oracle-efficiency curves, with CSV/manifest output.

Replication r of a run seeded with s draws its noise from
``rng_for(derive_seed(s, r))``; inside an efficiency curve the seed of
amplitude a_index is ``derive_seed(s, a_index)``, so replication r there
draws from ``rng_for(derive_seed(derive_seed(s, a_index), r))``.  Results
are reproducible bit for bit and independent of scheduling.  Per-curve
aggregation uses numpy's pairwise summation on arrays filled by
replication index, which keeps means order-independent as well.

Replications run in blocks of 64 (``_REP_BLOCK``): the block's draws fill
the rows of one matrix, and selection, projection and loss are array
operations over the whole block.  Every selector of a call shares those
draws, so the URE and RHM curves of one ``efficiency_curves`` call see
identical observations at half the sampling cost, and so do the stem
records of one ``stem_experiments`` call.  The stream layout is
the one of ``simulate`` per replication, as above, so the
blocked engine reproduces the per-replication results bit for bit.  The
block bounds the engine's working set to a few matrices of 64 x n_max.
A block's draws are ``normal_rows(keys, ...)``, one Philox re-keyed per
row, with the keys of up to ``_KEY_CHUNK`` rows hashed by one
``stream_keys`` call (once per run for reps <= 4096).  Work that does
not depend on the draws runs once per run: the selectors' checks
against the spectrum, before the first draw, and theta^2.  Per block,
one ``ure_energy`` matrix over the largest N_max serves every selector,
each reading its own prefix.  At n_max = 200 and 1,000 reps (one core
of a 2-core x86 machine) a row costs about 0.4 us of key hashing and
8-10 us of re-keying and drawing, of which the draw itself is about
6 us; forming y and the residuals takes about 1.3 us, selecting with
URE and RHM about 2.2 us and the two losses about 2.5 us.  The engine runs
in one thread: its numpy calls are short, and two threads splitting the
amplitudes of an efficiency sweep measured slower than one under the GIL.

Efficiency curves are evaluated with the spectrum rescaled to sigma_1 = 1
and the signal family built at unit noise level.  Bandwidth selection and
the risk ratio are invariant under a common rescaling of theta and sigma
(the argmins are unchanged and the scale cancels in the ratio), so this
evaluates exactly the same curve while making noise-level invariance hold
bit for bit.  Hull tables for RHM curves must therefore be built for
``unit_spec(spec)``.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# project, squared_loss and simulate are not called here; perfbench's tracer
# looks them up on this module.
from .estimators import oracle_risk, project, squared_loss  # noqa: F401
from .hull import HullTable, atomic_write_text, check_hull_spec, penalty_ratio
from .selectors import Selector, rhm_selector, ure_energy, ure_selector
from .sequence_model import (
    SigmaSpec,
    Signal,
    derive_seed,
    normal_rows,
    sigma_at,
    sigma_values,
    signal_family,
    simulate,  # noqa: F401
    stream_keys,
    unit_spec,
)

__all__ = [
    "StemData",
    "EfficiencyCurve",
    "method_selectors",
    "stem_experiments",
    "stem_experiment",
    "mc_selector_risk",
    "oracle_efficiency",
    "efficiency_curve",
    "efficiency_curves",
    "ratio_curve",
    "default_a_grid",
    "default_n_max",
    "csv_text",
    "write_stem_csv",
    "write_efficiency_csv",
    "write_ratio_csv",
    "write_manifest",
    "atomic_write_text",
]

DEFAULT_REPS = 10_000
STEM_REPS = 2_000
DEFAULT_ALPHA = 1.1
_REP_BLOCK = 64  # replications per engine block; see the module docstring
_KEY_CHUNK = 4096  # rows per stream_keys call, bounding its ~100 B per row of temporaries


def default_n_max(spec: SigmaSpec) -> int:
    """Desk-scale search bound: 200 for beta <= 1, 100 for steeper spectra."""
    if spec.kind == "explicit":
        return len(spec.values)
    return 200 if spec.beta <= 1 else 100


def default_a_grid(num: int = 20, lo: float = 0.5, hi: float = 500.0) -> np.ndarray:
    """Log-spaced amplitude grid spanning weak to strong signals."""
    return np.geomspace(lo, hi, num)


# ---------------------------------------------------------------------------
# Core replication loop
# ---------------------------------------------------------------------------


def _key_blocks(seed: int, reps: int):
    """(first row, Philox keys) of each engine block of rows 0..reps-1 of ``seed``.

    Keys are hashed ``_KEY_CHUNK`` rows at a time, once per run for
    reps <= _KEY_CHUNK, and handed out ``_REP_BLOCK`` rows at a time.
    """
    for first in range(0, reps, _KEY_CHUNK):
        keys = stream_keys(seed, first, min(_KEY_CHUNK, reps - first))
        for lo in range(0, len(keys), _REP_BLOCK):
            yield first + lo, keys[lo:lo + _REP_BLOCK]


def _replicate(spec: SigmaSpec, signal: Signal, selectors: Sequence[Selector],
               reps: int, n_max: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Selected bandwidths and squared losses of every selector over ``reps`` draws.

    Row r of a block is the draw that ``simulate(spec, signal, n_max,
    derive_seed(seed, r))`` makes, and every selector sees the same rows.
    Each selector picks from one shared ``ure_energy`` matrix over the
    largest N_max.  The loss of a row is ``squared_loss(project(obs, N),
    signal)`` bit for bit: its terms are summed over a slice of length
    ``max(N, len(signal))``.  Every selector is checked against ``spec``
    and ``n_max`` before the first draw.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for sel in selectors:
        sel.check(spec, n_max)
    L = len(signal)
    width = max(n_max, L)  # a signal longer than n_max adds its tail to every loss
    theta = signal.padded(width)
    theta2 = theta**2  # the loss term past N, (-theta)**2
    kept = theta[:n_max]
    sig = sigma_values(spec, n_max)
    sig2 = sig[:max((sel.N_max for sel in selectors), default=0)] ** 2
    cols = np.arange(width)
    out = [(np.empty(reps, dtype=np.int64), np.empty(reps)) for _ in selectors]
    xi = np.empty((_REP_BLOCK, n_max))
    resid = np.zeros((_REP_BLOCK, width))
    for start, keys in _key_blocks(seed, reps):
        rows = len(keys)
        normal_rows(keys, n_max, xi[:rows])
        Y = kept + sig * xi[:rows]
        if not np.all(np.isfinite(Y)):
            raise ValueError("observation entries must all be finite")
        resid[:rows, :n_max] = Y - kept
        resid2 = resid[:rows] ** 2
        energy = ure_energy(Y[:, :sig2.size], sig2)
        block = slice(start, start + rows)
        for sel, (selected, losses) in zip(selectors, out):
            N = sel.pick(energy)
            selected[block] = N
            # (estimate minus truth)**2: (y - theta)**2 up to N, theta**2 past it
            sq = np.where(cols < N[:, None], resid2, theta2)
            n = np.maximum(N, L)
            for k in np.flatnonzero(np.bincount(n)):
                hit = n == k
                losses[block][hit] = sq[hit, :k].sum(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class StemData:
    """Per-replication stem records plus their summary.

    ``normalized_loss`` is the squared loss divided by sigma_1^2; the
    summaries are plain means over all replications.
    """

    selected_N: np.ndarray
    normalized_loss: np.ndarray
    N_emp: float
    R_emp: float


def stem_experiments(spec: SigmaSpec, signal: Signal, selectors: Sequence[Selector],
                     reps: int, n_max: int, seed: int) -> list[StemData]:
    """Replicated selection diagnostic of each selector, all on one set of draws."""
    runs = _replicate(spec, signal, selectors, reps, n_max, seed)
    sigma1_sq = sigma_at(spec, 1) ** 2
    stems = []
    for selected, losses in runs:
        normalized = losses / sigma1_sq
        stems.append(StemData(
            selected_N=selected,
            normalized_loss=normalized,
            N_emp=float(np.mean(selected)),
            R_emp=float(np.mean(normalized)),
        ))
    return stems


def stem_experiment(spec: SigmaSpec, signal: Signal, selector: Selector,
                    reps: int, n_max: int, seed: int) -> StemData:
    """Replicated selection diagnostic: selected bandwidths and losses."""
    [stem] = stem_experiments(spec, signal, [selector], reps, n_max, seed)
    return stem


def mc_selector_risk(spec: SigmaSpec, signal: Signal, selector: Selector,
                     reps: int, n_max: int, seed: int) -> tuple[float, float]:
    """Mean squared loss of a selector and its Monte Carlo standard error."""
    _check_se_reps(reps)
    [(_, losses)] = _replicate(spec, signal, [selector], reps, n_max, seed)
    return _mean_se(losses)


def _check_se_reps(reps: int) -> None:
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error, got {reps}")


def _mean_se(losses: np.ndarray) -> tuple[float, float]:
    """Mean of the losses and its Monte Carlo standard error."""
    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / np.sqrt(losses.size))
    return mean, se


def oracle_efficiency(spec: SigmaSpec, signal: Signal, selector: Selector,
                      reps: int, n_max: int, seed: int) -> float:
    """Best fixed-bandwidth risk divided by the selector's Monte Carlo risk."""
    mean, _ = mc_selector_risk(spec, signal, selector, reps, n_max, seed)
    return oracle_risk(signal, spec, n_max).min_value / mean


def method_selectors(methods: Sequence[str], n_max: int, *, alpha: float = DEFAULT_ALPHA,
                     hull: HullTable | None = None) -> list[Selector]:
    """The selector of each method name, ``'ure'`` or ``'rhm'`` (which needs ``hull``)."""
    selectors = []
    for method in methods:
        if method == "ure":
            selectors.append(ure_selector(n_max))
        elif method == "rhm":
            if hull is None:
                raise ValueError("rhm needs a hull table")
            selectors.append(rhm_selector(hull, alpha, n_max))
        else:
            raise ValueError(f"unknown method {method!r}")
    return selectors


# ---------------------------------------------------------------------------
# Efficiency curves (unit-noise evaluation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EfficiencyCurve:
    """Oracle efficiency across signal amplitudes for one selector.

    ``oracle_risk`` is reported in units of sigma_1^2, which makes the
    whole record independent of the noise level.
    """

    a_grid: np.ndarray
    efficiency: np.ndarray
    std_error: np.ndarray
    oracle_N: np.ndarray
    oracle_risk: np.ndarray
    method: str
    reps: int


def efficiency_curves(spec: SigmaSpec, methods: Sequence[str], a_grid, W: float, m: float,
                       reps: int, n_max: int, seed: int, *,
                       alpha: float = DEFAULT_ALPHA, hull: HullTable | None = None) -> list[EfficiencyCurve]:
    """Oracle efficiency of each of ``methods`` (URE, RHM) over an amplitude grid.

    Every method is evaluated on the same draws: one engine run per
    amplitude serves them all.  For ``'rhm'`` pass a hull table built for
    ``unit_spec(spec)`` covering n_max.
    """
    a_grid = np.asarray(a_grid, dtype=np.float64).reshape(-1)
    if a_grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    methods = tuple(methods)
    uspec = unit_spec(spec)
    if hull is not None:
        check_hull_spec(hull, uspec, "unit_spec(spec)")
    selectors = method_selectors(methods, n_max, alpha=alpha, hull=hull)
    _check_se_reps(reps)

    shape = (len(selectors), a_grid.size)
    eff = np.empty(shape)
    se_eff = np.empty(shape)
    oN = np.empty(a_grid.size, dtype=np.int64)
    orisk = np.empty(a_grid.size)
    for ai, a in enumerate(a_grid):
        sig = signal_family(float(a), W, m, 1.0, n_max)
        curve = oracle_risk(sig, uspec, n_max)
        oN[ai] = curve.argmin_N
        orisk[ai] = curve.min_value
        runs = _replicate(uspec, sig, selectors, reps, n_max, derive_seed(seed, ai))
        for j, (_, losses) in enumerate(runs):
            mean, se = _mean_se(losses)
            eff[j, ai] = curve.min_value / mean
            se_eff[j, ai] = curve.min_value * se / mean**2
    return [EfficiencyCurve(a_grid=a_grid, efficiency=eff[j], std_error=se_eff[j],
                            oracle_N=oN, oracle_risk=orisk, method=method, reps=reps)
            for j, method in enumerate(methods)]


def efficiency_curve(spec: SigmaSpec, method: str, a_grid, W: float, m: float,
                     reps: int, n_max: int, seed: int, *,
                     alpha: float = DEFAULT_ALPHA, hull: HullTable | None = None) -> EfficiencyCurve:
    """Oracle efficiency of URE or RHM over an amplitude grid.

    For ``method='rhm'`` pass a hull table built for ``unit_spec(spec)``
    covering n_max.  All amplitudes share one seed schedule, so curves
    for different methods at the same seed see identical observations.
    """
    [curve] = efficiency_curves(spec, (method,), a_grid, W, m, reps, n_max, seed,
                                alpha=alpha, hull=hull)
    return curve


def ratio_curve(spec: SigmaSpec, hull: HullTable, alpha: float, N_range) -> list[tuple[int, float, float]]:
    """(N, rho, rho_tilde) rows over the requested bandwidths."""
    return [(int(N), *penalty_ratio(spec, hull, alpha, int(N))) for N in N_range]


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def csv_text(header: str, rows) -> str:
    """The CSV text of ``rows`` under the ``header`` line.

    Every output table goes through this one formatter, which fixes its
    bytes: strings as they are, integers in decimal and reals as the
    round-trip ``repr(float(x))``.
    """
    def cell(x) -> str:
        return x if isinstance(x, str) else str(int(x)) if isinstance(x, numbers.Integral) else repr(float(x))

    return header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


def write_stem_csv(stem: StemData, path) -> None:
    rows = zip(range(stem.selected_N.size), stem.selected_N, stem.normalized_loss)
    atomic_write_text(path, csv_text("rep,N_selected,normalized_loss", rows))


def write_efficiency_csv(curve: EfficiencyCurve, path) -> None:
    rows = zip(curve.a_grid, curve.efficiency, curve.std_error, curve.oracle_N, curve.oracle_risk)
    atomic_write_text(path, csv_text("a,efficiency,std_error,oracle_N,oracle_risk", rows))


def write_ratio_csv(rows, path) -> None:
    atomic_write_text(path, csv_text("N,rho,rho_tilde", rows))


def write_manifest(manifest: dict, path) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
