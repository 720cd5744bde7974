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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import checked, positive, real

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
    "stream_keys",
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
    thread count or call order.  Its block form is ``normal_rows(
    stream_keys(seed, first, rows), n, out)``: row i draws what
    ``rng_for(derive_seed(seed, first + i)).standard_normal(n)`` draws.
    """
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=stream)
    return np.random.Generator(np.random.Philox(key=ss.generate_state(2)))


def derive_seed(seed: int, *stream: int) -> int:
    """Deterministically derive a child seed for the given sub-stream."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=stream)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), over uint32 words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]  # words that word s mixes into


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The column of hash constants init * mult**j mod 2**32, j = 0..count."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words)`` of every column of ``entropy``.

    ``entropy`` is a ``(words, rows)`` uint32 array; the result is
    ``(n_words, rows)``.  numpy's hashmix calls run one after the other
    with constants that depend on the call's position only, so every call
    that updates a different pool word is one array operation here, and
    all arithmetic wraps modulo 2**32 as numpy's does.
    """
    head, extra = entropy[:_POOL], entropy[_POOL:]
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    j = 0

    def hashmix(value: np.ndarray, calls: int) -> np.ndarray:
        nonlocal j
        value = (value ^ h[j:j + calls]) * h[j + 1:j + calls + 1]
        j += calls
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    # a missing entropy word hashes as a zero one
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(head)] = head
    pool = hashmix(pool, _POOL)
    for src, dst in enumerate(_OTHERS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in extra:
        pool = mix(pool, hashmix(word, _POOL))
    g = _hash_consts(_INIT_B, _MULT_B, n_words)
    state = (pool[np.arange(n_words) % _POOL] ^ g[:-1]) * g[1:]
    return state ^ (state >> np.uint32(16))


def stream_keys(seed: int, first: int, rows: int) -> np.ndarray:
    """Philox keys of the streams ``rng_for(derive_seed(seed, r))``, r = first..first+rows-1.

    Row i of the ``(rows, 2)`` uint64 result is
    ``SeedSequence(derive_seed(seed, first + i)).generate_state(2)``,
    computed as numpy's hash in uint32 arithmetic over the whole block.
    """
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if first < 0 or rows < 0 or first + rows > 2**32:
        raise ValueError(f"stream indices {first}..{first + rows - 1} must lie in 0..2**32 - 1")
    # SeedSequence(seed, spawn_key=(r,)): the seed's words, zero-padded to
    # the pool size, then r
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    entropy = np.empty((len(words) + 1, rows), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(first, first + rows, dtype=np.int64)
    return _philox_keys(_hash_words(entropy, 2))


def _philox_keys(child: np.ndarray) -> np.ndarray:
    """``SeedSequence(c).generate_state(2)`` of each child seed c, as ``(rows, 2)`` uint64.

    ``child`` holds the low and the high word of each c in its two rows,
    as derive_seed's ``generate_state(1, np.uint64)`` lays them out.  A
    c below 2**32 has one entropy word, but a missing word hashes as a
    zero one, so [low, high] is the entropy of every child seed.
    """
    return _hash_words(child, 2).T.astype(np.uint64)


def normal_rows(keys: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with ``n`` standard normals from the Philox key ``keys[i]``.

    Each row is the draw of a fresh ``Philox(key=keys[i])``: one bit
    generator is re-keyed per row through its ``state``, with the counter
    at zero and an empty buffer.  Nothing outlives the call.  The rows of
    ``out`` must be C-contiguous float64, as ``standard_normal(out=)`` needs.
    """
    bitgen = np.random.Philox(0)  # its seeding is overwritten by the first row's key
    gen = np.random.Generator(bitgen)
    # Python int lists: the state setter reads them faster than uint64 arrays
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, key in enumerate(keys.tolist()):
        inner["key"] = key
        bitgen.state = state
        gen.standard_normal(n, out=out[i])
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
            eps, beta = checked("epsilon", positive, self.epsilon), checked("beta", real, self.beta)
            if not np.isfinite(beta) or beta < 0:
                raise ValueError(f"beta: must be a nonnegative finite real, got {beta}")
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
    kind = doc.get("kind")
    if kind == POWER_LAW:
        return SigmaSpec.power_law(doc["epsilon"], doc["beta"])
    if kind == EXPLICIT:
        return SigmaSpec.explicit(doc["values"])
    raise ValueError(f"unknown spec kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Signal:
    """A square-summable coefficient sequence stored as a finite prefix.

    Indices beyond the stored prefix are implicitly zero; every tail sum
    in this package is therefore taken over the stored entries only.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.float64).reshape(-1).copy()
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("signal coefficients must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

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
        arr = np.asarray(self.ys, dtype=np.float64).reshape(-1).copy()
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if arr.size != self.n_max:
            raise ValueError(f"ys has length {arr.size}, expected n_max = {self.n_max}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("observation entries must all be finite")
        _check_index(self.sigma, self.n_max)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        arr.flags.writeable = False
        object.__setattr__(self, "ys", arr)


def make_observation(spec: SigmaSpec, signal: Signal, xi: np.ndarray, seed: int = 0) -> Observation:
    """Assemble y = theta + sigma * xi from an explicit noise vector."""
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    n_max = xi.size
    ys = signal.padded(n_max) + sigma_values(spec, n_max) * xi
    return Observation(ys=ys, n_max=n_max, sigma=spec, seed=seed)


def simulate(spec: SigmaSpec, signal: Signal, n_max: int, seed: int) -> Observation:
    """Draw one observation with xi from the Philox stream of ``seed``.

    Identical seed gives a bit-identical observation no matter how many
    threads or processes are running.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    xi = rng_for(seed).standard_normal(n_max)
    return make_observation(spec, signal, xi, seed=seed)


def signal_family(a: float, W: float, m: float, epsilon: float, n_max: int) -> Signal:
    """Test-signal family theta_i = a * epsilon / (1 + (i/W)**m).

    ``a`` sets the amplitude (signal-to-noise), ``W`` the effective
    bandwidth and ``m`` the smoothness of the roll-off.
    """
    if a < 0:
        raise ValueError(f"amplitude a must be >= 0, got {a}")
    if W <= 0 or m <= 0 or epsilon <= 0:
        raise ValueError(f"W, m, epsilon must be positive, got W={W} m={m} epsilon={epsilon}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    i = np.arange(1, n_max + 1, dtype=np.float64)
    return Signal(a * epsilon / (1.0 + (i / W) ** m))
