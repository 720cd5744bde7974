"""Projection estimator, exact risks, oracle bandwidth and URE diagnostics.

The projection (spectral cutoff) estimator keeps the first N noisy
coefficients and zeroes the rest.  Its mean square risk decomposes
exactly into a squared-bias tail plus accumulated noise variance:

    R(theta, N) = sum_{k>N} theta_k^2 + sum_{k<=N} sigma_k^2.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import freeze
from .hull import HullTable, check_hull_spec, rhm_penalty
from .sequence_model import Observation, SigmaSpec, Signal, sigma_values, unit_spec

__all__ = [
    "RiskCurve",
    "project",
    "squared_loss",
    "projection_risk",
    "oracle_risk",
    "rhm_risk",
    "ure_threshold",
]


@dataclass(frozen=True, eq=False)
class RiskCurve:
    """Risk as a function of bandwidth N = 1..N_max, with its minimizer.

    ``argmin_N`` is the smallest minimizer; ``min_value = values[argmin_N - 1]``.
    """

    values: np.ndarray
    argmin_N: int
    min_value: float

    def __post_init__(self) -> None:
        arr = freeze(self, "values")
        if arr.size < 1:
            raise ValueError("risk curve needs at least one bandwidth")
        if not (1 <= self.argmin_N <= arr.size):
            raise ValueError(f"argmin_N {self.argmin_N} outside 1..{arr.size}")


def project(obs: Observation, N: int) -> Signal:
    """Keep the first N observed coefficients, zero the rest."""
    if not 0 <= N <= obs.n_max:
        raise ValueError(f"bandwidth N={N} outside 0..{obs.n_max}")
    return Signal(obs.ys[:N])


def squared_loss(estimate: Signal, truth: Signal) -> float:
    """Squared l2 distance over the union of the stored supports."""
    n = max(len(estimate), len(truth))
    diff = estimate.padded(n) - truth.padded(n)
    return float(np.sum(diff**2))


def _risk_values(signal: Signal, spec: SigmaSpec, N_max: int) -> np.ndarray:
    """The risk R(theta, N) of every N = 1..N_max, in one pass.

    The bias tails are one reversed cumulative sum of theta^2, adding the
    smallest (last) terms first, and the variances one cumulative sum of
    sigma^2; entry N-1 is the same for every N_max >= N.
    """
    theta2 = signal.padded(max(N_max, len(signal))) ** 2
    tail = np.cumsum(theta2[::-1])[::-1]  # tail[N] = sum_{k>N} theta_k^2
    return np.append(tail[1:], 0.0)[:N_max] + np.cumsum(sigma_values(spec, N_max) ** 2)


def projection_risk(signal: Signal, spec: SigmaSpec, N: int) -> float:
    """Exact risk sum_{k>N} theta_k^2 + sum_{k<=N} sigma_k^2.

    The bias tail runs over the signal's stored prefix only.
    """
    return float(_risk_values(signal, spec, N)[-1])


def oracle_risk(signal: Signal, spec: SigmaSpec, N_max: int) -> RiskCurve:
    """Exhaustive scan of the projection risk over N = 1..N_max.

    Ties break towards the smallest bandwidth.  Entry N-1 is
    ``projection_risk(N)`` bit for bit: both read :func:`_risk_values`.
    """
    values = _risk_values(signal, spec, N_max)
    idx = int(np.argmin(values))
    return RiskCurve(values=values, argmin_N=idx + 1, min_value=float(values[idx]))


def rhm_risk(signal: Signal, spec: SigmaSpec, hull: HullTable, alpha: float, N: int) -> float:
    """Hull-penalized risk: projection risk plus (1 + alpha) * U0(N).

    The hull table must have been built for ``spec``; a fingerprint
    mismatch means a stale cache and is an error.
    """
    pen = rhm_penalty(hull, alpha, N)
    check_hull_spec(hull, spec)
    return projection_risk(signal, spec, N) + float(pen[-1])


def ure_threshold(spec: SigmaSpec, N_max: int) -> int | None:
    """Smallest N with sum sigma_k^2 >= 2 * sqrt(2 * sum sigma_k^4).

    Below this bandwidth the URE objective's standard deviation exceeds
    its mean, so URE cannot resolve the risk there; the comparison is
    non-strict.  Returns None when no N <= N_max qualifies.  Both sides
    carry the same sigma_1^2 factor, so the inequality is evaluated on
    the unit-rescaled spectrum; the result is then independent of the
    noise level by construction (for beta = 0 the N = 8 boundary is an
    exact equality, which plain eps-scaled arithmetic would spoil).
    """
    sig2 = sigma_values(unit_spec(spec), N_max) ** 2
    lhs = np.cumsum(sig2)
    rhs = 2.0 * np.sqrt(2.0 * np.cumsum(sig2**2))
    hits = np.nonzero(lhs >= rhs)[0]
    return int(hits[0]) + 1 if hits.size else None
