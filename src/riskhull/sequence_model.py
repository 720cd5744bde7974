"""Noise spectra, signals and the generative Gaussian sequence model.

The observation model is

    y_k = theta_k + sigma_k * xi_k,        k = 1, 2, ...

with xi_k i.i.d. standard normal.  ``sigma_k`` encodes how strongly the
noise is amplified at frequency k; a polynomially growing spectrum
``sigma_k = epsilon * k**beta`` is the moderately ill-posed case, beta = 0
being direct estimation.

All random draws go through counter-based Philox streams keyed by
(seed, stream indices), so any experiment built on top of this module is
bit-reproducible regardless of how work is scheduled across workers.

The replications of a run seeded s share one key, the one of
``rng_for(s)``, and differ in the counter: replication r starts at the
counter ``[0, 0, r, 0]``, numpy's ``rng_for(s).bit_generator.jumped(r)``,
2**128 counter steps past replication r - 1.  Philox streams at distinct
counter offsets under one key are independent by design (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3"), and no replication
draws near 2**128 values, so no two overlap.  ``normal_rows`` draws a
block of such rows; ``simulate`` draws row 0 of its seed.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import checked, freeze, nonneg, positive

__all__ = [
    "SigmaSpec",
    "Signal",
    "ZERO_SIGNAL",
    "Observation",
    "sigma_at",
    "sigma_values",
    "max_index",
    "unit_spec",
    "fingerprint",
    "spec_to_dict",
    "spec_from_dict",
    "rng_for",
    "derive_seed",
    "normal_rows",
    "make_observation",
    "simulate",
    "signal_family",
]

POWER_LAW = "power-law"
EXPLICIT = "explicit"


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the sub-stream ``stream`` of ``seed``.

    Distinct stream tuples give statistically independent Philox streams;
    the mapping is a pure function of (seed, stream), independent of
    thread count or call order.  Replication r of a run seeded ``seed``
    draws from ``rng_for(seed).bit_generator.jumped(r)``, the same key
    with the counter at ``[0, 0, r, 0]``; ``normal_rows`` draws a block of
    them.
    """
    ss = np.random.SeedSequence(seed, spawn_key=stream)
    return np.random.Generator(np.random.Philox(key=ss.generate_state(2)))


def derive_seed(seed: int, *stream: int) -> int:
    """Deterministically derive a child seed for the given sub-stream."""
    ss = np.random.SeedSequence(seed, spawn_key=stream)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_THREAD = threading.local()


def _philox(key: list[int], row: int) -> np.random.Generator:
    """This thread's one Philox generator, keyed to ``key`` with its counter at ``[0, 0, row, 0]``.

    Assigning the state empties the buffer, so the generator then draws
    what ``Philox(key=key).jumped(row)`` draws, without a fresh
    generator's cost: ``Philox``'s constructor also seeds a throwaway
    SeedSequence from OS entropy.  One per thread, so that no other
    thread re-keys it halfway through a draw; it is made on the thread's
    first draw, which keeps ``numpy.random`` out of the import.
    """
    try:
        bitgen, gen, inner, state = _THREAD.philox
    except AttributeError:
        bitgen = np.random.Philox(0)  # its seeding is overwritten by every key
        # Python int lists: the state setter reads them faster than uint64 arrays
        inner = {"counter": [0, 0, 0, 0], "key": None}
        state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(bitgen)
        _THREAD.philox = bitgen, gen, inner, state
    inner["key"] = key
    inner["counter"][2] = row
    bitgen.state = state
    return gen


def normal_rows(seed: int, first: int, n: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with ``n`` standard normals from stream row ``first + i`` of ``seed``.

    Row r draws what ``Generator(rng_for(seed).bit_generator.jumped(r))``
    draws: the Philox key of ``rng_for(seed)`` with the counter at
    ``[0, 0, r, 0]``.  The key is hashed once per call and each row sets
    the counter of this thread's one generator.  The rows of ``out`` must
    be C-contiguous float64, as ``standard_normal(out=)`` needs.
    """
    if first < 0:
        raise ValueError(f"first row must be a nonnegative integer, got {first}")
    key = np.random.SeedSequence(seed).generate_state(2).tolist()
    for row, values in enumerate(out, first):
        _philox(key, row).standard_normal(n, out=values)
    return out


@dataclass(frozen=True)
class SigmaSpec:
    """Noise-spectrum specification sigma_k.

    Either a power law ``sigma_k = epsilon * k**beta`` (unbounded index
    domain) or an explicit finite table of positive values (querying past
    the table is an error).
    """

    kind: str
    epsilon: float | None = None
    beta: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == POWER_LAW:
            eps, beta = checked("epsilon", positive, self.epsilon), checked("beta", nonneg, self.beta)
            if self.values is not None:
                raise ValueError("power-law spec does not take explicit values")
            object.__setattr__(self, "epsilon", eps)
            object.__setattr__(self, "beta", beta)
        elif self.kind == EXPLICIT:
            if self.epsilon is not None or self.beta is not None:
                raise ValueError("explicit spec does not take epsilon/beta")
            if not self.values:
                raise ValueError("explicit spec needs at least one value")
            vals = tuple(checked("explicit sigma value", positive, v) for v in self.values)
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")

    @cached_property
    def _fingerprint(self) -> str:
        # computed once per instance, not per equal spec: -0.0 == 0.0 as a
        # beta, but the two digests differ
        if self.kind == POWER_LAW:
            doc = {"kind": self.kind, "epsilon": float(self.epsilon).hex(), "beta": float(self.beta).hex()}
        else:
            doc = {"kind": self.kind, "values": [float(v).hex() for v in self.values]}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    @classmethod
    def power_law(cls, epsilon: float, beta: float) -> "SigmaSpec":
        return cls(kind=POWER_LAW, epsilon=epsilon, beta=beta)

    @classmethod
    def explicit(cls, values) -> "SigmaSpec":
        return cls(kind=EXPLICIT, values=tuple(values))


def max_index(spec: SigmaSpec) -> int | None:
    """Largest queryable index, or None for an unbounded power law."""
    return None if spec.kind == POWER_LAW else len(spec.values)


def _check_index(spec: SigmaSpec, n: int) -> None:
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    bound = max_index(spec)
    if bound is not None and n > bound:
        raise ValueError(f"index {n} outside explicit sigma table of length {bound}")


def sigma_at(spec: SigmaSpec, k: int) -> float:
    """sigma_k for a single index k >= 1."""
    _check_index(spec, k)
    if spec.kind == POWER_LAW:
        return float(spec.epsilon * float(k) ** spec.beta)
    return spec.values[k - 1]


def sigma_values(spec: SigmaSpec, n: int) -> np.ndarray:
    """Vector (sigma_1, ..., sigma_n) as float64."""
    _check_index(spec, n)
    if spec.kind == POWER_LAW:
        k = np.arange(1, n + 1, dtype=np.float64)
        return spec.epsilon * k**spec.beta
    return np.asarray(spec.values[:n], dtype=np.float64)


def unit_spec(spec: SigmaSpec) -> SigmaSpec:
    """The same spectrum rescaled so that sigma_1 = 1.

    For a power law this only replaces epsilon by 1 (no arithmetic on the
    stored values), which is what makes noise-level invariance of the
    benchmark pipeline exact rather than approximate.
    """
    if spec.kind == POWER_LAW:
        return SigmaSpec.power_law(1.0, spec.beta)
    v0 = spec.values[0]
    return SigmaSpec.explicit(tuple(v / v0 for v in spec.values))


def fingerprint(spec: SigmaSpec) -> str:
    """Stable content digest of a spec, used for hull-cache validation."""
    return spec._fingerprint


def spec_to_dict(spec: SigmaSpec) -> dict:
    """Plain-JSON representation of a spec (floats round-trip exactly)."""
    if spec.kind == POWER_LAW:
        return {"kind": spec.kind, "epsilon": spec.epsilon, "beta": spec.beta}
    return {"kind": spec.kind, "values": list(spec.values)}


def spec_from_dict(doc: dict) -> SigmaSpec:
    """The spec of a document :func:`spec_to_dict` writes: exactly the keys of its kind."""
    kind = doc.get("kind")
    odd = sorted(doc.keys() ^ ({"kind", "epsilon", "beta"} if kind == POWER_LAW else {"kind", "values"}))
    if odd:
        raise ValueError(f"{odd[0]}: {'unknown' if odd[0] in doc else 'missing'} key for kind {kind!r}")
    return SigmaSpec(**doc)


@dataclass(frozen=True, eq=False)
class Signal:
    """A square-summable coefficient sequence stored as a finite prefix.

    Indices beyond the stored prefix are implicitly zero; every tail sum
    in this package is therefore taken over the stored entries only.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze(self, "coeffs")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("signal coefficients must all be finite")

    def __len__(self) -> int:
        return int(self.coeffs.size)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))

    def padded(self, n: int) -> np.ndarray:
        """First n coefficients, zero-extended past the stored prefix."""
        out = np.zeros(n, dtype=np.float64)
        m = min(n, self.coeffs.size)
        out[:m] = self.coeffs[:m]
        return out


ZERO_SIGNAL = Signal(np.zeros(0))


@dataclass(frozen=True, eq=False)
class Observation:
    """One realization y_1..y_{n_max} of the sequence model."""

    ys: np.ndarray
    n_max: int
    sigma: SigmaSpec
    seed: int

    def __post_init__(self) -> None:
        arr = freeze(self, "ys")
        if arr.size != self.n_max:
            raise ValueError(f"ys has length {arr.size}, expected n_max = {self.n_max}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("observation entries must all be finite")
        _check_index(self.sigma, self.n_max)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


def make_observation(spec: SigmaSpec, signal: Signal, xi: np.ndarray, seed: int = 0) -> Observation:
    """Assemble y = theta + sigma * xi from an explicit noise vector."""
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    n_max = xi.size
    ys = signal.padded(n_max) + sigma_values(spec, n_max) * xi
    return Observation(ys=ys, n_max=n_max, sigma=spec, seed=seed)


def simulate(spec: SigmaSpec, signal: Signal, n_max: int, seed: int) -> Observation:
    """Draw one observation with xi from row 0 of ``normal_rows(seed, ...)``.

    Identical seed gives a bit-identical observation no matter how many
    threads or processes are running.
    """
    return make_observation(spec, signal, normal_rows(seed, 0, n_max, np.empty((1, n_max)))[0], seed=seed)


def signal_family(a: float, W: float, m: float, epsilon: float, n_max: int) -> Signal:
    """Test-signal family theta_i = a * epsilon / (1 + (i/W)**m).

    ``a`` sets the amplitude (signal-to-noise), ``W`` the effective
    bandwidth and ``m`` the smoothness of the roll-off.
    """
    a = checked("a", nonneg, a)
    if W <= 0 or m <= 0 or epsilon <= 0:
        raise ValueError(f"W, m, epsilon must be positive, got W={W} m={m} epsilon={epsilon}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    i = np.arange(1, n_max + 1, dtype=np.float64)
    return Signal(a * epsilon / (1.0 + (i / W) ** m))
