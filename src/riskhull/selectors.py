"""Data-driven bandwidth selection: URE, RHM and custom penalties.

A bandwidth rule is its penalty: every selector minimizes, over
N = 1..N_max, -sum_{k<=N} y_k^2 + 2 * sum_{k<=N} sigma_k^2 + pen(N).
URE has pen = 0, RHM pen = (1 + alpha) * U0 (:func:`riskhull.hull.rhm_penalty`),
a fixed bandwidth N pen = 0 at N and +inf elsewhere.  Ties break to the
smallest bandwidth.  One kernel, :func:`ure_energy`, evaluates the
penalty-free part of every row of a matrix of observations in one
cumulative pass; one observation is the one-row case.  Its prefixes are
exact, so one energy matrix over the largest N_max serves every rule
(:meth:`Selector.pick`), as the replication engine uses it.

A note on alpha: the risk bound behind RHM asks for alpha > 1, and the
benchmark default is 1.1.  Any finite alpha >= 0 is accepted here; alpha = 0
destabilizes strongly ill-posed spectra (beta around 2 and beyond) and
very large alpha over-penalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import freeze
from .hull import HullTable, check_hull_spec, rhm_penalty
from .sequence_model import Observation, SigmaSpec, sigma_values

__all__ = [
    "SelectorResult",
    "Selector",
    "ure_energy",
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
        arr = freeze(self, "objective_values")
        if not (1 <= self.N_selected <= arr.size):
            raise ValueError(f"N_selected {self.N_selected} outside 1..{arr.size}")


@dataclass(frozen=True, eq=False)
class Selector:
    """A bandwidth rule: the URE objective plus ``pen[N-1]`` at N = 1..N_max.

    :meth:`pick` is its one argmin.  A rule built from a hull table keeps
    it in ``hull``; it then applies only to that table's spectrum (a
    mismatch means a stale cache).
    """

    method: str
    N_max: int
    pen: np.ndarray
    hull: HullTable | None = None

    def __post_init__(self) -> None:
        if np.shape(self.pen) != (self.N_max,):
            raise ValueError(f"pen must hold N_max={self.N_max} values, got shape {np.shape(self.pen)}")
        if np.isnan(freeze(self, "pen")).any():
            raise ValueError("pen must hold no NaN")

    def check(self, spec: SigmaSpec, n_max: int) -> None:
        """Raise ValueError unless the rule applies to observations of ``spec`` with n_max entries.

        A rule built from a hull table needs that table's spectrum (else
        the cache is stale), and N_max must lie in 1..n_max.
        """
        if self.hull is not None:
            check_hull_spec(self.hull, spec, "the observation's spec")
        if not 1 <= self.N_max <= n_max:
            raise ValueError(f"N_max={self.N_max} outside 1..{n_max}")

    def pick(self, energy: np.ndarray) -> np.ndarray:
        """Selected N (1-based, int64) of every row of a :func:`ure_energy` matrix: the smallest minimizer.

        ``energy`` may cover more than N_max bandwidths; the rule reads its
        first N_max columns, which equal the energy of the truncated rows.
        """
        return np.argmin(energy[:, :self.N_max] + self.pen, axis=1) + 1

    def select_rows(self, Y: np.ndarray, spec: SigmaSpec) -> np.ndarray:
        """:meth:`pick` of every row of ``Y``, observations of ``spec``."""
        self.check(spec, Y.shape[1])
        return self.pick(ure_energy(Y[:, :self.N_max], sigma_values(spec, self.N_max) ** 2))

    def __call__(self, obs: Observation) -> SelectorResult:
        """The rule on one observation: :meth:`pick`'s choice and the objective, energy plus ``pen``."""
        self.check(obs.sigma, obs.n_max)
        energy = ure_energy(obs.ys[None, :self.N_max], sigma_values(obs.sigma, self.N_max) ** 2)
        return SelectorResult(N_selected=int(self.pick(energy)[0]), objective_values=energy[0] + self.pen,
                              method=self.method)


def ure_energy(Y: np.ndarray, sig2: np.ndarray) -> np.ndarray:
    """The URE objective without a penalty, 2*cumsum(sigma^2) - cumsum(y^2), of every row of Y.

    ``sig2`` holds sigma_k^2 of Y's columns.  Both sums are cumulative, so
    the first N columns of the result do not depend on later columns.
    """
    obj = np.cumsum(Y * Y, axis=1)
    # 2*cumsum(sig2) - c rounds exactly like -c + 2*cumsum(sig2)
    np.subtract(2.0 * np.cumsum(sig2), obj, out=obj)
    return obj


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
