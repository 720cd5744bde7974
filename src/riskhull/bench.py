"""Monte Carlo experiment harness: stem diagnostics, penalty-ratio curves
and oracle-efficiency curves, with CSV/manifest output.

Replication r of a run seeded with s draws its noise from the derived
stream (s, r) (or (s, a_index, r) inside an efficiency curve), so results
are reproducible bit for bit and independent of scheduling.  Per-curve
aggregation uses numpy's pairwise summation on arrays filled by
replication index, which keeps means order-independent as well.

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
from dataclasses import dataclass

import numpy as np

from .estimators import oracle_risk, project, squared_loss
from .hull import HullTable, atomic_write_text, penalty_ratio
from .selectors import Selector, rhm_selector, ure_selector
from .sequence_model import (
    SigmaSpec,
    Signal,
    derive_seed,
    fingerprint,
    sigma_at,
    signal_family,
    simulate,
    spec_to_dict,
    unit_spec,
)

__all__ = [
    "StemData",
    "EfficiencyCurve",
    "stem_experiment",
    "mc_selector_risk",
    "oracle_efficiency",
    "efficiency_curve",
    "ratio_curve",
    "default_a_grid",
    "default_n_max",
    "write_stem_csv",
    "write_efficiency_csv",
    "write_ratio_csv",
    "write_manifest",
    "atomic_write_text",
]

DEFAULT_REPS = 10_000
STEM_REPS = 2_000
DEFAULT_ALPHA = 1.1


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


def _replicate(spec: SigmaSpec, signal: Signal, selector: Selector,
               reps: int, n_max: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication simulate -> select -> project -> loss pipeline."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    selected = np.empty(reps, dtype=np.int64)
    losses = np.empty(reps, dtype=np.float64)
    for r in range(reps):
        obs = simulate(spec, signal, n_max, derive_seed(seed, r))
        res = selector(obs)
        selected[r] = res.N_selected
        losses[r] = squared_loss(project(obs, res.N_selected), signal)
    return selected, losses


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
    config: dict


def stem_experiment(spec: SigmaSpec, signal: Signal, selector: Selector,
                    reps: int, n_max: int, seed: int) -> StemData:
    """Replicated selection diagnostic: selected bandwidths and losses."""
    selected, losses = _replicate(spec, signal, selector, reps, n_max, seed)
    normalized = losses / sigma_at(spec, 1) ** 2
    return StemData(
        selected_N=selected,
        normalized_loss=normalized,
        N_emp=float(np.mean(selected)),
        R_emp=float(np.mean(normalized)),
        config={"spec": spec_to_dict(spec), "reps": reps, "n_max": n_max, "seed": seed},
    )


def mc_selector_risk(spec: SigmaSpec, signal: Signal, selector: Selector,
                     reps: int, n_max: int, seed: int) -> tuple[float, float]:
    """Mean squared loss of a selector and its Monte Carlo standard error."""
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error, got {reps}")
    _, losses = _replicate(spec, signal, selector, reps, n_max, seed)
    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / np.sqrt(reps))
    return mean, se


def oracle_efficiency(spec: SigmaSpec, signal: Signal, selector: Selector,
                      reps: int, n_max: int, seed: int) -> float:
    """Best fixed-bandwidth risk divided by the selector's Monte Carlo risk."""
    mean, _ = mc_selector_risk(spec, signal, selector, reps, n_max, seed)
    return oracle_risk(signal, spec, n_max).min_value / mean


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


def efficiency_curve(spec: SigmaSpec, method: str, a_grid, W: float, m: float,
                     reps: int, n_max: int, seed: int, *,
                     alpha: float = DEFAULT_ALPHA, hull: HullTable | None = None) -> EfficiencyCurve:
    """Oracle efficiency of URE or RHM over an amplitude grid.

    For ``method='rhm'`` pass a hull table built for ``unit_spec(spec)``
    covering n_max.  All amplitudes share one seed schedule, so curves
    for different methods at the same seed see identical observations.
    """
    a_grid = np.asarray(a_grid, dtype=np.float64).reshape(-1)
    if a_grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    uspec = unit_spec(spec)
    if method == "ure":
        selector: Selector = ure_selector(n_max)
    elif method == "rhm":
        if hull is None:
            raise ValueError("rhm needs a hull table built for unit_spec(spec)")
        if hull.spec_fingerprint != fingerprint(uspec):
            raise ValueError("hull table was not built for unit_spec(spec) (stale cache)")
        selector = rhm_selector(hull, alpha, n_max)
    else:
        raise ValueError(f"unknown method {method!r}")

    eff = np.empty(a_grid.size)
    se_eff = np.empty(a_grid.size)
    oN = np.empty(a_grid.size, dtype=np.int64)
    orisk = np.empty(a_grid.size)
    for ai, a in enumerate(a_grid):
        sig = signal_family(float(a), W, m, 1.0, n_max)
        curve = oracle_risk(sig, uspec, n_max)
        mean, se = mc_selector_risk(uspec, sig, selector, reps, n_max, derive_seed(seed, ai))
        oN[ai] = curve.argmin_N
        orisk[ai] = curve.min_value
        eff[ai] = curve.min_value / mean
        se_eff[ai] = curve.min_value * se / mean**2
    return EfficiencyCurve(a_grid=a_grid, efficiency=eff, std_error=se_eff,
                           oracle_N=oN, oracle_risk=orisk, method=method, reps=reps)


def ratio_curve(spec: SigmaSpec, hull: HullTable, alpha: float, N_range) -> list[tuple[int, float, float]]:
    """(N, rho, rho_tilde) rows over the requested bandwidths."""
    return [(int(N), *penalty_ratio(spec, hull, alpha, int(N))) for N in N_range]


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_stem_csv(stem: StemData, path) -> None:
    lines = ["rep,N_selected,normalized_loss"]
    for r, (n, loss) in enumerate(zip(stem.selected_N, stem.normalized_loss)):
        lines.append(f"{r},{int(n)},{_fmt(loss)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_efficiency_csv(curve: EfficiencyCurve, path) -> None:
    lines = ["a,efficiency,std_error,oracle_N,oracle_risk"]
    for i in range(curve.a_grid.size):
        lines.append(
            f"{_fmt(curve.a_grid[i])},{_fmt(curve.efficiency[i])},{_fmt(curve.std_error[i])},"
            f"{int(curve.oracle_N[i])},{_fmt(curve.oracle_risk[i])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_ratio_csv(rows, path) -> None:
    lines = ["N,rho,rho_tilde"]
    for N, rho, rho_tilde in rows:
        lines.append(f"{int(N)},{_fmt(rho)},{_fmt(rho_tilde)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(manifest: dict, path) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
