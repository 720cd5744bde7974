"""Data-driven bandwidth selection: URE, RHM and custom penalties.

A bandwidth rule is its penalty: every selector minimizes, over
N = 1..N_max, -sum_{k<=N} y_k^2 + 2 * sum_{k<=N} sigma_k^2 + pen(N).
URE has pen = 0, RHM pen = (1 + alpha) * U0 (:func:`riskhull.hull.rhm_penalty`),
a fixed bandwidth N pen = 0 at N and +inf elsewhere.  Ties break to the
smallest bandwidth.  One kernel, :meth:`Selector.objective`, evaluates
every row of a matrix of observations in one cumulative pass; one
observation is the one-row case.

A note on alpha: the risk bound behind RHM asks for alpha > 1, and the
benchmark default is 1.1.  Any alpha >= 0 is accepted here; alpha = 0
destabilizes strongly ill-posed spectra (beta around 2 and beyond) and
very large alpha over-penalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hull import HullTable, check_hull_spec, rhm_penalty
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


@dataclass(frozen=True, eq=False)
class Selector:
    """A bandwidth rule: the URE objective plus ``pen[N-1]`` at N = 1..N_max.

    A rule built from a hull table keeps it in ``hull``; it then applies
    only to that table's spectrum (a mismatch means a stale cache).
    """

    method: str
    N_max: int
    pen: np.ndarray
    hull: HullTable | None = None

    def __post_init__(self) -> None:
        pen = np.array(self.pen, dtype=np.float64)
        if pen.shape != (self.N_max,):
            raise ValueError(f"pen must hold N_max={self.N_max} values, got shape {pen.shape}")
        pen.flags.writeable = False
        object.__setattr__(self, "pen", pen)

    def objective(self, Y: np.ndarray, spec: SigmaSpec) -> np.ndarray:
        """Objective -cumsum(y^2) + 2*cumsum(sigma^2) + pen of every row of Y.

        ``Y`` holds observations of the spectrum ``spec``; row r, column
        N-1 of the result is the objective of row r at bandwidth N.
        """
        if self.hull is not None:
            check_hull_spec(self.hull, spec, "the observation's spec")
        if not 1 <= self.N_max <= Y.shape[1]:
            raise ValueError(f"N_max={self.N_max} outside 1..{Y.shape[1]}")
        Y = Y[:, :self.N_max]
        sig2 = sigma_values(spec, self.N_max) ** 2
        obj = np.cumsum(Y * Y, axis=1)
        # 2*cumsum(sig2) - c rounds exactly like -c + 2*cumsum(sig2)
        np.subtract(2.0 * np.cumsum(sig2), obj, out=obj)
        obj += self.pen
        return obj

    def select_rows(self, Y: np.ndarray, spec: SigmaSpec) -> np.ndarray:
        """Selected N (1-based, int64) of every row of ``Y``: the smallest minimizer."""
        return np.argmin(self.objective(Y, spec), axis=1) + 1

    def __call__(self, obs: Observation) -> SelectorResult:
        obj = self.objective(obs.ys[None, :], obs.sigma)[0]
        return SelectorResult(N_selected=int(np.argmin(obj)) + 1, objective_values=obj, method=self.method)


def penalized_objective(obs: Observation, pen: Callable[[int], float], N: int) -> float:
    """-sum_{k<=N} y_k^2 + sum_{k<=N} sigma_k^2 + pen(N)."""
    if not 1 <= N <= obs.n_max:
        raise ValueError(f"N={N} outside 1..{obs.n_max}")
    y = obs.ys[:N]
    sig2 = sigma_values(obs.sigma, N) ** 2
    return float(-np.sum(y * y) + np.sum(sig2) + pen(N))


def ure_selector(N_max: int) -> Selector:
    return Selector("ure", N_max, np.zeros(N_max))


def rhm_selector(hull: HullTable, alpha: float, N_max: int) -> Selector:
    return Selector("rhm", N_max, rhm_penalty(hull, alpha, N_max), hull)


def fixed_selector(N: int) -> Selector:
    """Always pick bandwidth N (baseline / oracle plumbing for benchmarks)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    pen = np.full(N, np.inf)
    pen[N - 1] = 0.0
    return Selector("custom-penalty", N, pen)


def select_ure(obs: Observation, N_max: int) -> SelectorResult:
    """Unbiased risk estimation: smallest minimizer of the URE objective."""
    return ure_selector(N_max)(obs)


def select_rhm(obs: Observation, hull: HullTable, alpha: float, N_max: int) -> SelectorResult:
    """Risk hull minimization: URE objective plus (1 + alpha) * U0(N) of a hull built for obs.sigma."""
    return rhm_selector(hull, alpha, N_max)(obs)


def select_penalized(obs: Observation, pen: Callable[[int], float], N_max: int) -> SelectorResult:
    """Minimize :func:`penalized_objective`: the URE kernel with sum_{k<=N} sigma_k^2 taken off pen(N)."""
    extra = np.fromiter(map(pen, range(1, N_max + 1)), dtype=np.float64, count=N_max)
    extra -= np.cumsum(sigma_values(obs.sigma, N_max) ** 2)
    return Selector("custom-penalty", N_max, extra)(obs)
