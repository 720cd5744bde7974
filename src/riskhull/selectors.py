"""Data-driven bandwidth selection: URE, RHM and custom penalties.

All selectors minimize a penalized empirical risk over N = 1..N_max,

    -sum_{k<=N} y_k^2 + sum_{k<=N} sigma_k^2 + pen(N),

computed in one cumulative pass.  URE uses pen(N) = sum sigma_k^2; RHM
adds the hull term (1 + alpha) * U0(N) on top of that.  Ties always
break to the smallest bandwidth.  One kernel evaluates the objective for
every row of a matrix of observations; selecting for a single
observation is the one-row case of the same code.

A note on alpha: the risk bound behind RHM asks for alpha > 1, and the
benchmark default is 1.1.  Any alpha >= 0 is accepted here; alpha = 0
destabilizes strongly ill-posed spectra (beta around 2 and beyond) and
very large alpha over-penalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hull import HullTable, check_hull_spec
from .sequence_model import Observation, SigmaSpec, sigma_values

__all__ = [
    "SelectorResult",
    "Selector",
    "penalized_objective",
    "select_ure",
    "select_rhm",
    "select_penalized",
    "ure_selector",
    "rhm_selector",
    "fixed_selector",
]


@dataclass(frozen=True, eq=False)
class SelectorResult:
    """Selected bandwidth plus the full objective curve that produced it."""

    N_selected: int
    objective_values: np.ndarray
    method: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.objective_values, dtype=np.float64).reshape(-1).copy()
        if not (1 <= self.N_selected <= arr.size):
            raise ValueError(f"N_selected {self.N_selected} outside 1..{arr.size}")
        arr.flags.writeable = False
        object.__setattr__(self, "objective_values", arr)


def _objective(Y: np.ndarray, spec: SigmaSpec, N_max: int, pen: np.ndarray | None = None) -> np.ndarray:
    """Objective -cumsum(y^2) + 2*cumsum(sigma^2) [+ pen] of every row of Y.

    Row r, column N-1 holds the objective of row r at bandwidth N, for
    N = 1..N_max.
    """
    if not 1 <= N_max <= Y.shape[1]:
        raise ValueError(f"N_max={N_max} outside 1..{Y.shape[1]}")
    Y = Y[:, :N_max]
    sig2 = sigma_values(spec, N_max) ** 2
    obj = np.cumsum(Y * Y, axis=1)
    # 2*cumsum(sig2) - c rounds exactly like -c + 2*cumsum(sig2)
    np.subtract(2.0 * np.cumsum(sig2), obj, out=obj)
    if pen is not None:
        obj += pen
    return obj


def _rhm_penalty(hull: HullTable, alpha: float, N_max: int) -> np.ndarray:
    """(1 + alpha) * U0(N) for N = 1..N_max."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if N_max > hull.N_max:
        raise ValueError(f"N_max={N_max} exceeds hull table range {hull.N_max}")
    return (1.0 + alpha) * hull.U0[:N_max]


def _rhm_objective(Y: np.ndarray, spec: SigmaSpec, hull: HullTable, pen: np.ndarray, N_max: int) -> np.ndarray:
    check_hull_spec(hull, spec, "the observation's spec")
    return _objective(Y, spec, N_max, pen)


def _first_row(rows: np.ndarray, method: str) -> SelectorResult:
    obj = rows[0]
    return SelectorResult(N_selected=int(np.argmin(obj)) + 1, objective_values=obj, method=method)


@dataclass(frozen=True, eq=False)
class Selector:
    """A bandwidth rule for one observation or for every row of a matrix.

    ``objective(Y, spec)`` maps the rows of ``Y`` (observations of the
    spectrum ``spec``) to objective rows; the selected bandwidth of a row
    is its smallest minimizer.  Build one with :func:`ure_selector`,
    :func:`rhm_selector` or :func:`fixed_selector`.
    """

    method: str
    objective: Callable[[np.ndarray, SigmaSpec], np.ndarray]

    def select_rows(self, Y: np.ndarray, spec: SigmaSpec) -> np.ndarray:
        """Selected N (1-based, int64) of every row of ``Y``."""
        return np.argmin(self.objective(Y, spec), axis=1) + 1

    def __call__(self, obs: Observation) -> SelectorResult:
        return _first_row(self.objective(obs.ys[None, :], obs.sigma), self.method)


def penalized_objective(obs: Observation, pen: Callable[[int], float], N: int) -> float:
    """-sum_{k<=N} y_k^2 + sum_{k<=N} sigma_k^2 + pen(N)."""
    if not 1 <= N <= obs.n_max:
        raise ValueError(f"N={N} outside 1..{obs.n_max}")
    y = obs.ys[:N]
    sig2 = sigma_values(obs.sigma, N) ** 2
    return float(-np.sum(y * y) + np.sum(sig2) + pen(N))


def select_ure(obs: Observation, N_max: int) -> SelectorResult:
    """Unbiased risk estimation: smallest minimizer of the URE objective."""
    return _first_row(_objective(obs.ys[None, :], obs.sigma, N_max), "ure")


def select_rhm(obs: Observation, hull: HullTable, alpha: float, N_max: int) -> SelectorResult:
    """Risk hull minimization: URE objective plus (1 + alpha) * U0(N).

    The hull table must have been built for the observation's spectrum;
    a fingerprint mismatch means a stale cache and is an error.
    """
    pen = _rhm_penalty(hull, alpha, N_max)
    return _first_row(_rhm_objective(obs.ys[None, :], obs.sigma, hull, pen, N_max), "rhm")


def select_penalized(obs: Observation, pen: Callable[[int], float], N_max: int) -> SelectorResult:
    """Generic penalized empirical risk with a caller-supplied penalty."""
    obj = np.array([penalized_objective(obs, pen, N) for N in range(1, N_max + 1)])
    return SelectorResult(N_selected=int(np.argmin(obj)) + 1, objective_values=obj, method="custom-penalty")


def ure_selector(N_max: int) -> Selector:
    return Selector("ure", lambda Y, spec: _objective(Y, spec, N_max))


def rhm_selector(hull: HullTable, alpha: float, N_max: int) -> Selector:
    pen = _rhm_penalty(hull, alpha, N_max)
    return Selector("rhm", lambda Y, spec: _rhm_objective(Y, spec, hull, pen, N_max))


def fixed_selector(N: int) -> Selector:
    """Always pick bandwidth N (baseline / oracle plumbing for benchmarks)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    obj = np.ones(N)
    obj[N - 1] = 0.0

    def objective(Y: np.ndarray, spec: SigmaSpec) -> np.ndarray:
        if N > Y.shape[1]:
            raise ValueError(f"fixed bandwidth {N} exceeds observation length {Y.shape[1]}")
        return np.broadcast_to(obj, (Y.shape[0], N))

    return Selector("custom-penalty", objective)
