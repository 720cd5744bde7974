"""Monte Carlo computation of the risk-hull penalty U0(N).

For bandwidth N the penalty is the smallest t > 0 at which the upper-tail
expectation of the centered noise energy

    eta_N = sum_{i<=N} sigma_i^2 * (xi_i^2 - 1),     xi_i ~ N(0, 1),

drops to the one-coefficient noise level:

    U0(N) = inf{ t > 0 : E[eta_N * 1(eta_N >= t)] <= sigma_1^2 }.

The empirical tail expectation over S samples is a nonincreasing step
function of t that jumps at the positive order statistics, so the
infimum is found by a single suffix-sum scan of the sorted samples.

All sampling is coupled: one xi vector per replication serves every N
through cumulative sums, which both saves draws and smooths U0 across N.
That one coupled (N_max, samples) path matrix is drawn by a single block
kernel, ``_block_rows``, in fixed-size blocks with one SFC64 stream per
block, and it yields each block one finished row at a time.  The paths
need only xi^2, and the kernel draws those two rows at a time by the
Box-Muller transform from the streams' raw 64-bit words, with one float32
log and one float32 cosine per pair (format ``riskhull-hull-v3``).  The
samplers and ``compute_u0`` read rows of it through one row reader,
``_path_rows``, so each eta_N sample is the same number whichever of them
asks for it.  The table build never holds the matrix, nor a block of it:
it streams the rows and solves each N on a kept part of its samples, with
the same result bit for bit (see ``_scan_rows``).  Its blocks after block
0 run through ``_sweep``, a map of an index over forked worker processes,
which the efficiency sweep of ``riskhull.bench`` runs on too.  Tables are
bit-identical for a given seed under any worker count, on one numpy
build and CPU: the raw words are integer arithmetic, but ``np.log`` and
``np.cos`` are SIMD-dispatched, so another CPU family or numpy build may
change their last bits.

Internally eta is accumulated in units of sigma_1^2 (weights
sigma_i^2/sigma_1^2, threshold 1), so U0 is sigma_1^2 times a root that
depends only on the shape ``unit_spec(spec)``.  A table is built for that
shape and :func:`hull_table_for` turns it into the table of ``spec`` with
a single multiplication by sigma_1^2, making the quadratic-scaling law
exact in floating point for power-law spectra.  A running maximum gives
the same result before or after that positive scale (rounding preserves
order), so one unit table serves every noise level bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .checks import boolean, checked, freeze, list_of, nonneg, nonneg_int, obj, pos_int, real, text
from .sequence_model import (
    SigmaSpec,
    fingerprint,
    rng_for,  # not called here: the benchmark's tracer (perfbench/spans.py) wraps this name
    sigma_at,
    sigma_sums,
    spec_from_dict,
    spec_to_dict,
    unit_spec,
)

__all__ = [
    "McParams",
    "HullTable",
    "HullCacheError",
    "eta_paths_from_noise",
    "sample_eta_paths",
    "eta_samples_at",
    "eta_checkpoint_samples",
    "tail_functional",
    "compute_u0",
    "build_hull_table",
    "hull_table_for",
    "check_hull_spec",
    "gaussian_u0",
    "u1",
    "rhm_penalty",
    "penalty_ratio",
    "save_hull_table",
    "load_hull_table",
    "atomic_write_text",
]

MIN_SAMPLES = 10_000
DEFAULT_SAMPLES = 1_000_000
_SAMPLE_BLOCK = 65_536
_ANGLE = np.float32(2 * math.pi / 2**24)  # the Box-Muller angle per unit of a word's low 24 bits
# the floors of the streamed hull build (see _scan_rows)
_TOP_K = 8192
_MARGIN = 4


class HullCacheError(RuntimeError):
    """A hull cache file is unreadable, malformed or inconsistent."""


@dataclass(frozen=True)
class McParams:
    """Monte Carlo parameters for hull construction."""

    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    monotonize: bool = True

    def __post_init__(self) -> None:
        for name, check in (("samples", pos_int), ("seed", nonneg_int), ("monotonize", boolean)):
            object.__setattr__(self, name, checked(name, check, getattr(self, name)))
        if self.samples < MIN_SAMPLES:
            raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {self.samples}")


@dataclass(frozen=True, eq=False)
class HullTable:
    """Tabulated hull penalty U0(N) for N = 1..N_max with provenance.

    ``SigmaFourth[N-1]`` is the running fourth-moment sum of the spectrum,
    sum_{s<=N} sigma_s^4.  ``saturated`` lists the bandwidths where the
    empirical tail expectation stays above sigma_1^2 even at the largest
    sample, and U0 falls back to that largest order statistic (a loud
    sign that ``mc_samples`` was too small for this spectrum).
    """

    N_max: int
    U0: np.ndarray
    SigmaFourth: np.ndarray
    spec_fingerprint: str
    mc_samples: int
    seed: int
    monotonized: bool
    saturated: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        u0, s4 = freeze(self, "U0"), freeze(self, "SigmaFourth")
        if self.N_max < 1 or u0.size != self.N_max or s4.size != self.N_max:
            raise ValueError(f"inconsistent table sizes: N_max={self.N_max}, U0={u0.size}, SigmaFourth={s4.size}")
        if np.any(u0 < 0) or not np.all(np.isfinite(u0)):
            raise ValueError("U0 entries must be finite and >= 0")
        if np.any(s4 <= 0) or np.any(np.diff(s4) <= 0) or not np.all(np.isfinite(s4)):
            raise ValueError("SigmaFourth entries must be finite, positive and strictly increasing")
        if self.monotonized and np.any(np.diff(u0) < 0):
            raise ValueError("monotonized table must have nondecreasing U0")
        saturated = tuple(int(n) for n in self.saturated)
        bounds = (0, *saturated, self.N_max + 1)
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"saturated must list strictly increasing bandwidths in 1..{self.N_max}, "
                             f"got {list(saturated)}")
        object.__setattr__(self, "saturated", saturated)


# ---------------------------------------------------------------------------
# Sampling engine
# ---------------------------------------------------------------------------


def _block_rows(spec: SigmaSpec, N_max: int, mc: McParams, block: int):
    """Yield the rows of block ``block`` of the (N_max, samples) float32 normalized eta path matrix.

    This is the one block kernel.  Row N-1 holds the cumulative eta_N
    samples, each row made in one float32 pass: xi^2 - 1, times its weight
    (sigma_N/sigma_1)^2, plus the row before.  The kernel holds y =
    -xi^2 / 2 and makes the row as (y + 1/2) * (-2 w) plus the row
    before, the same bit for bit, as scaling by -2 commutes with float32
    rounding (no value here overflows or is subnormal).  Block b holds the
    columns from ``b * _SAMPLE_BLOCK`` on (at most ``_SAMPLE_BLOCK`` of
    them), drawn in the calling thread.  The rows come in order, each
    finished as it is yielded, from one reused two-row buffer: a yielded
    row is a view that the row after the next overwrites, so a caller
    reads or copies it before asking on.  A spectrum whose paths could
    overflow float32 raises ValueError before the first row is drawn.

    The paths use only xi^2, so the draw is Box-Muller for squares (Box &
    Muller 1958): one uniform radius and one uniform angle give two
    independent chi-square(1) values, R^2 cos^2(theta) and R^2 sin^2(theta)
    with R^2 = -2 ln U.  Block b's words come from
    ``SFC64(SeedSequence(mc.seed, spawn_key=(b,)))``, drawn from its start.
    Rows 2j and 2j+1 read its raw 64-bit words j*n .. (j+1)*n - 1, one word
    w per column, all in float32: U = (k + 1) * 2^-40 in (0, 1] with k =
    floor(w / 2^24), which is exact for k < 2^24, where the tail lives (k
    and then k + 1 round to float32 above that), R^2 = -2 ln U, and theta =
    2 pi (w mod 2^24) / 2^24.  Row 2j takes a = R^2 cos^2(theta), and row
    2j+1 takes R^2 - a, so a pair costs one log and one cosine.  For an
    odd N_max the last pair's second row is dropped, so the first n rows do
    not depend on N_max >= n.  The largest value is -2 ln 2^-40 = 55.45:
    the draw truncates chi-square(2) there, which it passes with
    probability 9e-13 per pair.
    """
    w, total, _ = sigma_sums(unit_spec(spec), N_max)  # the weights (sigma_i/sigma_1)^2
    limit = float(np.finfo(np.float32).max) / 100  # entries <= sum(w) * 55.45, the largest xi^2
    if not total[-1] <= limit:
        shape = "this explicit sigma table" if spec.beta is None else f"beta = {spec.beta}"
        raise ValueError(f"the spectrum with {shape} is too steep for N_max = {N_max}: its weights "
                         f"(sigma_i/sigma_1)^2 sum to {total[-1]:.3g}, past the {limit:.3g} its float32 paths allow")
    w2 = w.astype(np.float32) * np.float32(-2.0)  # each weight times Box-Muller's -2
    n = min(_SAMPLE_BLOCK, mc.samples - block * _SAMPLE_BLOCK)
    raw = np.random.SFC64(np.random.SeedSequence(mc.seed, spawn_key=(block,))).random_raw
    x = np.empty((2, n), dtype=np.float32)  # row j is x[j % 2], and the row before it the other one
    for i in range(0, N_max, 2):
        word = raw(n)
        a = (word & 0xFFFFFF).view(np.int64).astype(np.float32)
        a *= _ANGLE
        np.cos(a, out=a)
        a *= a
        u = (word >> 24).view(np.int64).astype(np.float32)
        u += np.float32(1.0)
        u *= np.float32(2.0**-40)
        np.log(u, out=u)  # ln U = -R^2 / 2
        a *= u  # cos^2(theta) ln U: the pair's first value over -2
        u -= a  # ln U - a: the pair's second value over -2
        for j, row, prev, y in zip(range(i, N_max), x, x[::-1], (a, u)):
            np.add(y, np.float32(0.5), out=row)
            row *= w2[j]
            if j:
                row += prev
            yield row


def _fill_paths(spec: SigmaSpec, N_max: int, mc: McParams, block: int) -> np.ndarray:
    """Block ``block`` of the path matrix whole, float32 (N_max, n): a copy of each row of :func:`_block_rows`.

    The build and the row reader never hold a block.  This whole-block form
    is what the tests compare with reference kernels, and what the
    benchmark's tracer (``perfbench/spans.py``) sizes when it is called.
    """
    return np.array([row.copy() for row in _block_rows(spec, N_max, mc, block)])


def _n_blocks(mc: McParams) -> int:
    return -(-mc.samples // _SAMPLE_BLOCK)


def _path_rows(spec: SigmaSpec, Ns, mc: McParams) -> np.ndarray:
    """Rows N-1 of the path matrix for the sorted bandwidths ``Ns``.

    Returns float32 (len(Ns), samples), copied row by row out of
    :func:`_block_rows` into one preallocated array.
    """
    if not Ns or Ns[0] < 1:
        raise ValueError(f"need a nonempty list of bandwidths >= 1, got {list(Ns)}")
    rows = np.array(Ns) - 1
    out = np.empty((rows.size, mc.samples), dtype=np.float32)
    for b in range(_n_blocks(mc)):
        cols = slice(b * _SAMPLE_BLOCK, (b + 1) * _SAMPLE_BLOCK)
        for j, row in enumerate(_block_rows(spec, Ns[-1], mc, b)):
            out[rows == j, cols] = row
    return out


def _sweep(run, count: int, workers: int) -> list:
    """``run(i)`` for i in ``range(count)``, in order, on up to ``workers`` forked processes.

    Each process runs one contiguous chunk of the indices and sends back
    the pickled results, or the exception a call raised, which is raised
    here as the plain loop would raise it.  The caller only waits, so a
    call that ends in ``os._exit`` ends a worker, not the caller.  Without
    ``os.fork``, and for one worker or one index, it is a plain loop.  A
    worker that dies without a result, as when the OS kills it for lack
    of memory, raises MemoryError, and so does a fork the OS refuses.  No
    worker outlives the call.
    """
    if workers < 2 or count < 2 or not hasattr(os, "fork"):
        return [run(i) for i in range(count)]
    chunk = -(-count // min(workers, count))
    pipes, running = [], []  # the read end of each chunk's pipe; the workers not yet reaped
    try:
        for lo in range(0, count, chunk):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_chunk(run, range(lo, min(lo + chunk, count)), write)
            except OSError as exc:  # only the parent's fork gets here: a worker ends in os._exit
                raise MemoryError(f"the OS refused to start a worker process: {exc}") from exc
            finally:
                os.close(write)
            running.append(pid)
        results = []
        for pipe in pipes:
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(running[0], 0)
            running.pop(0)
            if status or not data:
                raise MemoryError("a worker process died before returning its results, as when the OS "
                                  "kills it for lack of memory")
            outcome = pickle.loads(data)  # written by our own worker
            if isinstance(outcome, Exception):
                raise outcome
            results += outcome
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        if running:
            from signal import SIGKILL  # not at the top: importing signal costs about 1 ms

            for pid in running:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _run_chunk(run, indices: range, write: int) -> None:
    """Worker side of ``_sweep``: ``run`` each index, pickle the outcome to ``write`` and exit.

    ``os._exit`` runs no atexit handler and flushes none of the stdio
    buffers the fork copied, which the parent flushes itself.  Exit 0 says
    the outcome was written in full.
    """
    code = 1
    try:
        try:
            outcome = [run(i) for i in indices]
        except Exception as exc:
            outcome = exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _scan_rows(spec: SigmaSpec, N_max: int, mc: McParams, workers: int) -> list[tuple[float, bool]]:
    """:func:`_u0_scan` of every whole row, from rows drawn one at a time.

    The path matrix never exists whole, nor does a block of it.  With one
    block, each row is solved as it is yielded.  Otherwise the caller
    draws the rows of block 0 from :func:`_block_rows`, and :func:`_sweep`
    maps the other blocks, last first, on up to ``workers`` processes.
    Each row keeps of every block only its samples above the row's floor,
    taken as the row is yielded, and the floor is set on block 0 by one
    rule.  If m of the row's n0 samples there lie past its crossing
    (:func:`_crossing`), the floor is block 0's r-th largest positive
    sample (from 0), with r = max(R, m + 1 + 2 * _MARGIN * isqrt(m + 1))
    and R = ``_TOP_K * n0 // S``: ``2 * _MARGIN`` standard deviations of
    that count below the crossing, and at least about ``_TOP_K`` samples
    kept.  Where r runs past the positive samples, as when block 0 crosses
    at 0, the floor is 0 and the row keeps every positive sample, all that
    the scan reads.  m and r come from the row's top 2 (r' + 1) samples,
    taken by ``np.partition``, with r' the row before's r: their sorted
    values and float64 sums are the full sort's first ones.  Where that
    prefix does not hold both m and r, the whole row is sorted; the first
    row, and any whose prefix would be a quarter of n0 or more, go
    straight to the whole sort.  Each row's pieces are joined in block
    order, so the result does not depend on ``workers``.  The kept samples
    are the top of the sorted row and the scan's sums add from the largest
    down, so they round as on the whole row, and the root is the same
    whenever it lies above the floor: a positive root, a saturated one, or
    any root with floor 0.  A row that fails this, a positive floor and a
    root of 0, is read again whole through :func:`_path_rows` in the
    calling process (the redo).
    """
    S, blocks = mc.samples, _n_blocks(mc)
    if blocks == 1:  # block 0 is the whole row
        return [_u0_scan(row, S) for row in _block_rows(spec, N_max, mc, 0)]
    n0 = _SAMPLE_BLOCK
    rank = _TOP_K * n0 // S
    floors, first, r = [], [], n0
    for row in _block_rows(spec, N_max, mc, 0):
        k = 2 * (r + 1)  # the rows are cumulative sums, so r moves little from one row to the next
        for col in (np.partition(row, n0 - k)[n0 - k:], row) if 4 * k < n0 else (row,):
            top, m = _crossing(col, n0)
            r = max(rank, m + 1 + 2 * _MARGIN * math.isqrt(m + 1))
            if max(m, r) < top.size:
                break
        floors.append(top[r] if r < top.size else 0)
        first.append(row[row > floors[-1]])

    def block(i: int) -> list[np.ndarray]:
        """Block ``blocks - 1 - i``'s kept samples: the last first, so a short one joins _sweep's largest chunk."""
        return [row[row > floor] for row, floor in zip(_block_rows(spec, N_max, mc, blocks - 1 - i), floors)]

    cols = list(zip(first, *_sweep(block, blocks - 1, workers)[::-1]))  # row by row, then block by block
    del first
    solved = []
    while cols:  # a row's pieces are joined in block order here and let go after its scan
        solved.append(_u0_scan(np.concatenate(cols.pop(0)), S))
    redo = [r for r, floor in enumerate(floors) if floor > 0 and solved[r] == (0.0, False)]
    if redo:
        for row, r in zip(_path_rows(spec, [r + 1 for r in redo], mc), redo):
            solved[r] = _u0_scan(row, S)
    return solved


def eta_paths_from_noise(spec: SigmaSpec, xi: np.ndarray) -> np.ndarray:
    """Cumulative eta paths for an explicit noise matrix (testing seam).

    ``xi`` has one replication per row; column k holds xi_k.  Returns the
    matrix of eta_1..eta_N per row, in absolute units.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim != 2 or xi.shape[1] < 1:
        raise ValueError(f"xi must be a (samples, N) matrix, got shape {xi.shape}")
    n = xi.shape[1]
    return np.square(sigma_at(spec, 1)) * np.cumsum(sigma_sums(unit_spec(spec), n)[0] * (xi**2 - 1.0), axis=1)


def sample_eta_paths(spec: SigmaSpec, N_max: int, mc: McParams) -> np.ndarray:
    """Monte Carlo eta paths, shape (samples, N_max), absolute units.

    Row r holds eta_1, ..., eta_{N_max} computed from one vector of
    i.i.d. standard normals (cumulative-sum coupling across N).
    Memory scales as samples * N_max; prefer :func:`eta_samples_at` or
    :func:`eta_checkpoint_samples` when only a few columns are needed.
    """
    return eta_checkpoint_samples(spec, range(1, N_max + 1), mc).T


def eta_samples_at(spec: SigmaSpec, N: int, mc: McParams) -> np.ndarray:
    """Monte Carlo samples of eta_N only, shape (samples,), absolute units."""
    return eta_checkpoint_samples(spec, [N], mc)[0]


def eta_checkpoint_samples(spec: SigmaSpec, Ns, mc: McParams) -> np.ndarray:
    """eta_N samples at several bandwidths in one pass, shape (len(Ns), samples).

    Row k equals column Ns[k]-1 of :func:`sample_eta_paths` (Ns sorted)
    exactly, while holding only the requested rows in memory.
    """
    Ns = sorted(int(n) for n in Ns)
    return np.square(sigma_at(spec, 1)) * _path_rows(spec, Ns, mc).astype(np.float64)


# ---------------------------------------------------------------------------
# Tail expectation and the U0 solver
# ---------------------------------------------------------------------------


def tail_functional(samples, t: float) -> float:
    """Empirical tail expectation (1/n) * sum of all entries >= t."""
    arr = np.asarray(samples, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("tail_functional needs a nonempty sample list")
    return float(np.sum(arr[arr >= t]) / arr.size)


def _crossing(col: np.ndarray, n_samples: int) -> tuple[np.ndarray, int]:
    """The one sort and crossing search of a row, or of its top: its positive samples ``top``, descending,
    and how many of them have a running sum over ``n_samples``, in float64 from the largest down, <= 1."""
    top = np.sort(col[col > 0])[::-1]
    return top, int(np.searchsorted(np.cumsum(top, dtype=np.float64) / n_samples, 1.0, side="right"))


def _u0_scan(col: np.ndarray, n_samples: int) -> tuple[float, bool]:
    """Solve the empirical hull equation at threshold 1 (normalized units).

    ``col`` holds normalized eta samples, all or the top of ``n_samples``.
    Returns (t, saturated): the smallest t > 0 where the suffix mean drops
    to <= 1, or 0 when the positive-part mean is already <= 1.  Saturated
    means the empirical tail expectation stays above sigma_1^2 (1 here)
    even at the largest sample, and U0 falls back to that largest order
    statistic.
    """
    top, m = _crossing(col, n_samples)
    return (0.0, False) if m == top.size else (float(top[m]), bool(top[m] == top[0]))


def compute_u0(spec: SigmaSpec, N: int, mc: McParams) -> float:
    """Monte Carlo estimate of the hull penalty U0(N).

    U0(1) is 0 for every spectrum: the positive part of a single centered
    chi-square has mean 2*phi(1) ~ 0.484 in units of sigma_1^2, already
    below the threshold.
    """
    t_norm, _ = _u0_scan(_path_rows(spec, [N], mc)[0], mc.samples)
    return float(np.square(sigma_at(spec, 1)) * t_norm)


def build_hull_table(spec: SigmaSpec, N_max: int, mc: McParams, threads: int = 1) -> HullTable:
    """Build the full U0 table without holding the path matrix.

    Every N shares the same xi draws through cumulative sums, and
    :func:`_scan_rows` solves each row as :func:`_u0_scan` of the whole
    row.  With ``mc.monotonize`` a running maximum removes downward Monte
    Carlo wiggle.  The table is solved for ``unit_spec(spec)`` and
    rescaled by :func:`hull_table_for`.  ``threads`` bounds the worker
    processes of :func:`_sweep`.  Bit-identical output for identical
    (spec, N_max, mc) regardless of ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    solved = _scan_rows(spec, N_max, mc, threads)
    u0_norm = np.array([t for t, _ in solved], dtype=np.float64)
    saturated = [N for N, (_, sat) in enumerate(solved, 1) if sat]
    if mc.monotonize:
        np.maximum.accumulate(u0_norm, out=u0_norm)
    uspec = unit_spec(spec)
    unit = HullTable(
        N_max=N_max,
        U0=u0_norm,
        SigmaFourth=sigma_sums(uspec, N_max)[2],
        spec_fingerprint=fingerprint(uspec),
        mc_samples=mc.samples,
        seed=mc.seed,
        monotonized=mc.monotonize,
        saturated=tuple(saturated),
    )
    return hull_table_for(unit, spec)


def hull_table_for(unit: HullTable, spec: SigmaSpec) -> HullTable:
    """The table of ``spec`` from the table of its shape ``unit_spec(spec)``.

    U0 is multiplied by the product sigma_1 * sigma_1 (the one place a
    table is scaled), ``SigmaFourth`` is recomputed from ``spec`` and the
    fingerprint is that of ``spec``; the Monte Carlo provenance is kept.
    """
    check_hull_spec(unit, unit_spec(spec), "unit_spec(spec)")
    return dataclasses.replace(
        unit,
        U0=np.square(sigma_at(spec, 1)) * unit.U0,
        SigmaFourth=sigma_sums(spec, unit.N_max)[2],
        spec_fingerprint=fingerprint(spec),
    )


def check_hull_spec(hull: HullTable, spec: SigmaSpec, what: str = "the spec") -> None:
    """Raise ValueError unless ``hull`` was built for ``spec`` (a stale cache)."""
    if hull.spec_fingerprint != fingerprint(spec):
        raise ValueError(f"hull table was not built for {what} (stale cache)")


# ---------------------------------------------------------------------------
# Closed-form approximations and diagnostics
# ---------------------------------------------------------------------------


def gaussian_u0(spec: SigmaSpec, N: int) -> float:
    """Gaussian-tail closed form sqrt(2*S_N*log(S_N/(pi*sigma_1^4))).

    S_N is the running fourth-moment sum.  The formula is asymptotic in N
    and clamps to 0 where the logarithm would be negative; it understates
    the true penalty at small N, where the chi-square tail is heavier
    than its Gaussian approximation.
    """
    s_n, s_1 = map(float, sigma_sums(spec, N)[2][[-1, 0]])  # floats: an underflowed sigma_1^4 raises ZeroDivisionError
    arg = s_n / (math.pi * s_1)
    return math.sqrt(2.0 * s_n * math.log(arg)) if arg > 1.0 else 0.0


def u1(spec: SigmaSpec, N: int) -> float:
    """Normalized lower envelope sqrt(log(S_N/(2*pi*sigma_1^4))), clamped at 0.

    Compares against u0(N) = U0(N)/sqrt(2*S_N); for all large enough N
    the normalized penalty stays above this envelope.
    """
    s_n, s_1 = map(float, sigma_sums(spec, N)[2][[-1, 0]])
    arg = s_n / (2.0 * math.pi * s_1)
    return math.sqrt(math.log(arg)) if arg > 1.0 else 0.0


def rhm_penalty(hull: HullTable, alpha: float, N_max: int) -> np.ndarray:
    """RHM's penalty (1 + alpha) * U0(N), N = 1..N_max, for a finite alpha >= 0 within the table."""
    alpha = checked("alpha", nonneg, alpha)
    if not 1 <= N_max <= hull.N_max:
        raise ValueError(f"N={N_max} outside hull table range 1..{hull.N_max}")
    return (1.0 + alpha) * hull.U0[:N_max]


def penalty_ratio(spec: SigmaSpec, hull: HullTable, alpha: float, N: int) -> tuple[float, float]:
    """(rho, rho_tilde): hull-penalized over URE penalty, MC and Gaussian.

    rho(N) = 1 + (1+alpha) * U0(N) / sum_{k<=N} sigma_k^2, and the same
    with the Gaussian closed form in place of the Monte Carlo U0.
    """
    pen = rhm_penalty(hull, alpha, N)
    check_hull_spec(hull, spec)
    denom = float(sigma_sums(spec, N)[1][-1])
    return 1.0 + float(pen[-1]) / denom, 1.0 + (1.0 + alpha) * gaussian_u0(spec, N) / denom


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------

# v3 is the float32 Box-Muller draw of _block_rows from SFC64 words.  A v2
# table holds the float64-log draw from Philox words, and a v1 table numpy's
# normal ziggurat on those Philox streams, so both are refused by their tags.
# SigmaFourth is formed anew from the spec on every load, so v3 stays v3.
_HULL_FORMAT = "riskhull-hull-v3"

# The hull document: each field and the check of its JSON type.  Every
# field but "format" and "spec" is the HullTable attribute of its name.
_HULL_FIELDS = {
    "format": text,
    "spec": obj,
    "spec_fingerprint": text,
    "N_max": pos_int,
    "mc_samples": pos_int,
    "seed": nonneg_int,
    "monotonized": boolean,
    "saturated": list_of(pos_int),
    "U0": list_of(real),
    "SigmaFourth": list_of(real),
}


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old or the new file whole.

    The text goes to a temporary file with a unique name in the same
    directory, opened in exclusive mode, which is then renamed over
    ``path``; concurrent writers therefore never share a temporary file.
    A plain ``open`` keeps the usual mode bits (``mkstemp`` would give
    0600).  The temporary file is removed if anything fails.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_hull_table(table: HullTable, spec: SigmaSpec, path) -> None:
    """Serialize a hull table to JSON, atomically (see :func:`atomic_write_text`)."""
    if fingerprint(spec) != table.spec_fingerprint:
        raise ValueError("spec does not match the table's fingerprint")
    doc = {"format": _HULL_FORMAT, "spec": spec_to_dict(spec)}
    doc.update((name, getattr(table, name)) for name in _HULL_FIELDS if name not in doc)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n")


def load_hull_table(path) -> tuple[HullTable, SigmaSpec]:
    """Load and self-validate a hull table, read through ``_HULL_FIELDS``.

    A file that is not the document :func:`save_hull_table` writes, such
    as one with a field missing, raises HullCacheError.  A document of
    another format tag, such as a ``riskhull-hull-v2`` or ``-v1`` table
    drawn from an older random stream, raises one that names the tag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise HullCacheError(f"cannot read hull cache {path}: {exc}") from exc
    tag = doc.get("format") if isinstance(doc, dict) else None
    if isinstance(tag, str) and tag != _HULL_FORMAT:
        raise HullCacheError(f"hull cache {path} is in format {tag!r}, which this version does not read "
                             f"({_HULL_FORMAT} tables are drawn from another random stream); rerun with "
                             f"--rebuild to replace it")
    try:
        doc = checked("document", obj, doc)
        odd = sorted(doc.keys() ^ _HULL_FIELDS.keys())
        if odd:
            raise ValueError(f"{odd[0]}: {'unknown' if odd[0] in doc else 'missing'} field")
        fields = {name: checked(name, check, doc[name]) for name, check in _HULL_FIELDS.items()}
        fields.pop("format")  # checked above
        spec = checked("spec", spec_from_dict, fields.pop("spec"))
        if fingerprint(spec) != fields["spec_fingerprint"]:
            raise ValueError("stored fingerprint does not match the stored spec")
        table = HullTable(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise HullCacheError(f"hull cache {path} is corrupted: fingerprint/schema mismatch ({exc})") from exc
    return table, spec
