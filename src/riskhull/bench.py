"""Monte Carlo experiment harness: stem diagnostics, penalty-ratio curves
and oracle-efficiency curves, with CSV/manifest output.

Replication r of a run seeded with s draws its noise from row r of the
Philox stream of s: the key of ``rng_for(s)`` with the counter at
``[0, 0, r, 0]``, numpy's ``rng_for(s).bit_generator.jumped(r)`` (see
``riskhull.sequence_model``).  Every selector of a run, and every
amplitude of an efficiency curve, reads rows 0..reps-1 of s: common
random numbers, as the noise does not depend on the amplitude.  Results
are reproducible bit for bit and independent of scheduling.

The engine returns two arrays, both shaped (signals, selectors,
replications): the selected bandwidths (int64) and the squared losses
(float64).  Every experiment reduces them over the last axis.  Means and
standard errors are numpy's pairwise sums along that contiguous axis, in
row order, the same sums as on each 1-D row.

Replications run in blocks of 64 rows (``_REP_BLOCK``): one
``normal_rows`` call, which hashes the key once, fills one matrix with a
block's draws, and every signal and selector of the run reuses it.
Selection, projection and loss are array operations over the block; per
signal, one ``ure_energy`` matrix over the largest N_max serves every
selector.  The block bounds the working set to a few 64 x n_max
matrices.  The selectors are checked against the spectrum once, before
the first draw.  The blocks are the indices of ``hull._sweep``, the one
forked map, which the hull build runs on too: a plain loop or, with
``workers > 1``, contiguous chunks of blocks on processes forked with
``os.fork``.  The blocks' arrays are joined in row order, so no output
depends on the worker count.  README "Design notes" gives the timings,
and why no ``multiprocessing`` pool.

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

from .checks import freeze
# project, squared_loss, simulate and derive_seed are not called here;
# perfbench's tracer looks them up on this module.
from .estimators import oracle_risk, project, squared_loss  # noqa: F401
from .hull import HullTable, _sweep, atomic_write_text, check_hull_spec, penalty_ratio
from .selectors import Selector, rhm_selector, ure_energy, ure_selector
from .sequence_model import (
    SigmaSpec,
    Signal,
    derive_seed,  # noqa: F401
    normal_rows,
    sigma_at,
    sigma_values,
    signal_family,
    simulate,  # noqa: F401
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
]

DEFAULT_REPS = 10_000
STEM_REPS = 2_000
DEFAULT_ALPHA = 1.1
_REP_BLOCK = 64  # replications per engine block; see the module docstring


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


def _replicate(spec: SigmaSpec, signals: Sequence[Signal], selectors: Sequence[Selector],
               rows: range, n_max: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Selected bandwidths and squared losses of every signal and selector on stream rows ``rows``.

    Row r is ``make_observation(spec, signal, xi)`` of the noise xi that
    row r of ``normal_rows(seed, ...)`` draws; the rows are drawn once,
    and every signal and selector sees them.  Each selector picks from
    one ``ure_energy`` matrix per signal over the largest N_max.  The
    loss of a row is ``squared_loss(project(obs, N), signal)`` bit for
    bit: its terms are summed over a slice of length ``max(N,
    len(signal))``.  Returns ``(picked, losses)``, int64 and float64, both
    shaped (signals, selectors, rows).
    """
    sig = sigma_values(spec, n_max)
    sig2 = sig[:max((sel.N_max for sel in selectors), default=0)] ** 2
    noise = sig * normal_rows(seed, rows.start, n_max, np.empty((len(rows), n_max)))
    shape = (len(signals), len(selectors), len(rows))
    picked, losses = np.empty(shape, dtype=np.int64), np.empty(shape)
    for signal, picked_by, losses_by in zip(signals, picked, losses):
        L = len(signal)
        width = max(n_max, L)  # a signal longer than n_max adds its tail to every loss
        theta = signal.padded(width)
        kept = theta[:n_max]
        Y = kept + noise
        if not np.all(np.isfinite(Y)):
            raise ValueError("observation entries must all be finite")
        # (estimate minus truth)**2: (y - theta)**2 up to N, theta**2 past it
        resid2 = np.zeros((len(rows), width))
        resid2[:, :n_max] = (Y - kept) ** 2
        energy = ure_energy(Y[:, :sig2.size], sig2)
        for sel, N, loss in zip(selectors, picked_by, losses_by):
            N[:] = sel.pick(energy)
            sq = np.where(np.arange(width) < N[:, None], resid2, theta**2)
            n = np.maximum(N, L)
            for k in np.flatnonzero(np.bincount(n)):
                hit = n == k
                loss[hit] = sq[hit, :k].sum(axis=1)
    return picked, losses


def _replications(spec: SigmaSpec, signals: Sequence[Signal], selectors: Sequence[Selector],
                  reps: int, n_max: int, seed: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_replicate` over rows 0..reps-1, block by block on up to ``workers`` processes.

    ``reps`` and every selector are checked against ``spec`` and
    ``n_max`` before the first draw; the blocks' arrays are joined in row
    order, so the result, shaped (signals, selectors, reps), does not
    depend on ``workers``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for sel in selectors:
        sel.check(spec, n_max)

    def block(b: int) -> tuple[np.ndarray, np.ndarray]:
        return _replicate(spec, signals, selectors, range(b * _REP_BLOCK, min(reps, (b + 1) * _REP_BLOCK)),
                          n_max, seed)

    picked, losses = zip(*_sweep(block, -(-reps // _REP_BLOCK), workers))
    return np.concatenate(picked, axis=2), np.concatenate(losses, axis=2)


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

    def __post_init__(self) -> None:
        freeze(self, "selected_N", np.int64)
        freeze(self, "normalized_loss")


def stem_experiments(spec: SigmaSpec, signal: Signal, selectors: Sequence[Selector],
                     reps: int, n_max: int, seed: int) -> list[StemData]:
    """Replicated selection diagnostic of each selector, all on one set of draws."""
    [picked], [losses] = _replications(spec, [signal], selectors, reps, n_max, seed)
    normalized = losses / sigma_at(spec, 1) ** 2
    return [StemData(selected_N=N, normalized_loss=loss, N_emp=float(np.mean(N)), R_emp=float(np.mean(loss)))
            for N, loss in zip(picked, normalized)]


def stem_experiment(spec: SigmaSpec, signal: Signal, selector: Selector,
                    reps: int, n_max: int, seed: int) -> StemData:
    """Replicated selection diagnostic: selected bandwidths and losses."""
    [stem] = stem_experiments(spec, signal, [selector], reps, n_max, seed)
    return stem


def mc_selector_risk(spec: SigmaSpec, signal: Signal, selector: Selector,
                     reps: int, n_max: int, seed: int) -> tuple[float, float]:
    """Mean squared loss of a selector and its Monte Carlo standard error."""
    _check_se_reps(reps)
    _, [[losses]] = _replications(spec, [signal], [selector], reps, n_max, seed)
    mean, se = _mean_se(losses)
    return float(mean), float(se)


def _check_se_reps(reps: int) -> None:
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error, got {reps}")


def _mean_se(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of the losses over the last axis and their Monte Carlo standard errors."""
    return np.mean(losses, axis=-1), np.std(losses, axis=-1, ddof=1) / np.sqrt(losses.shape[-1])


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

    def __post_init__(self) -> None:
        for field in ("a_grid", "efficiency", "std_error", "oracle_risk"):
            freeze(self, field)
        freeze(self, "oracle_N", np.int64)


def efficiency_curves(spec: SigmaSpec, methods: Sequence[str], a_grid, W: float, m: float,
                       reps: int, n_max: int, seed: int, *,
                       alpha: float = DEFAULT_ALPHA, hull: HullTable | None = None,
                       workers: int = 1) -> list[EfficiencyCurve]:
    """Oracle efficiency of each of ``methods`` (URE, RHM) over an amplitude grid.

    Every amplitude and method reads rows 0..reps-1 of ``seed``'s stream:
    one engine run over all the amplitudes' signals serves them all.  For
    ``'rhm'`` pass a hull table built for ``unit_spec(spec)`` covering
    n_max.  The replication blocks run on up to ``workers`` processes;
    the result is the same bit for bit.
    """
    a_grid = np.asarray(a_grid, dtype=np.float64).reshape(-1)
    if a_grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    methods = tuple(methods)
    uspec = unit_spec(spec)
    if hull is not None:
        check_hull_spec(hull, uspec, "unit_spec(spec)")
    selectors = method_selectors(methods, n_max, alpha=alpha, hull=hull)
    _check_se_reps(reps)
    signals = [signal_family(float(a), W, m, 1.0, n_max) for a in a_grid]
    oracles = [oracle_risk(sig, uspec, n_max) for sig in signals]
    best = [curve.min_value for curve in oracles]
    _, losses = _replications(uspec, signals, selectors, reps, n_max, seed, workers)
    means, ses = (stat.T.tolist() for stat in _mean_se(losses))  # [selector][amplitude], Python floats
    # mean**2 is a float's pow, as numpy's array power may round it otherwise
    return [EfficiencyCurve(a_grid=a_grid, efficiency=[b / m for b, m in zip(best, mean)],
                            std_error=[b * s / m**2 for b, m, s in zip(best, mean, se)],
                            oracle_N=[curve.argmin_N for curve in oracles], oracle_risk=best,
                            method=method, reps=reps)
            for method, mean, se in zip(methods, means, ses)]


def efficiency_curve(spec: SigmaSpec, method: str, a_grid, W: float, m: float,
                     reps: int, n_max: int, seed: int, *,
                     alpha: float = DEFAULT_ALPHA, hull: HullTable | None = None) -> EfficiencyCurve:
    """Oracle efficiency of URE or RHM over an amplitude grid.

    For ``method='rhm'`` pass a hull table built for ``unit_spec(spec)``
    covering n_max.  Every amplitude reads rows 0..reps-1 of ``seed``'s
    stream, so curves for different methods at the same seed see
    identical observations.
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
