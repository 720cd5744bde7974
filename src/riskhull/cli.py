"""Command-line front end: hull-table cache management, selection on data
files, and the benchmark experiments.

Subcommands
-----------
hull    build (or reuse) a hull-penalty table and cache it as JSON
select  run URE/RHM bandwidth selection on a (k, y_k) CSV file
bench   run a stem / ratio / efficiency experiment and emit CSVs

A single JSON config document drives every run; command-line flags
(--seed, --out) override the corresponding fields, and a key that no
field reads is a config error.  Every run writes a manifest whose
``config`` is the fully resolved config: fed back in as the config
document, it replays the run and reproduces its outputs bit for bit.
``--threads`` never changes any output byte.  It bounds the worker
processes of the two Monte Carlo computations: the hull build maps its
sample blocks, and ``bench``'s efficiency sweep its replication blocks,
through one forked map, ``hull._sweep``, where ``os.fork`` exists
(elsewhere both run in one process).  The caller only waits for the
workers; one that dies, as when the OS kills it for lack of memory, ends
the run with exit 2 and a message naming ``--threads``.

``python -m riskhull`` and the ``riskhull`` script enter through
``riskhull.__main__.run``, which freezes the start-up heap out of the
garbage collector before calling ``main``; ``main`` leaves the
collector of an in-process caller alone.

Exit codes: 0 success, 2 config or input error (a refused memory
allocation included), 3 I/O or stale/corrupt cache, 4 hull table
required but not available.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bench import (
    DEFAULT_ALPHA,
    DEFAULT_REPS,
    STEM_REPS,
    csv_text,
    default_a_grid,
    default_n_max,
    efficiency_curve,  # noqa: F401  not called; perfbench's tracer looks it up here
    efficiency_curves,
    method_selectors,
    ratio_curve,
    stem_experiments,
    write_efficiency_csv,
    write_manifest,
    write_ratio_csv,
    write_stem_csv,
)
from .checks import boolean, checked, list_of, nonneg, nonneg_int, obj, pos_int, positive, real, text
from .estimators import project
from .hull import (
    DEFAULT_SAMPLES,
    HullCacheError,
    HullTable,
    McParams,
    atomic_write_text,
    build_hull_table,
    hull_table_for,
    load_hull_table,
    save_hull_table,
    u1,
)
from .selectors import select_rhm, select_ure
from .sequence_model import (
    Observation,
    SigmaSpec,
    ZERO_SIGNAL,
    fingerprint,
    max_index,
    sigma_at,
    sigma_values,
    signal_family,
    unit_spec,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_HULL = 4

_METHODS = ("ure", "rhm")
_KINDS = ("stem", "ratio", "efficiency", "select")


class ConfigError(ValueError):
    """Invalid configuration or malformed input data (exit 2)."""


class HullMissingError(RuntimeError):
    """RHM was requested but no hull table is available (exit 4)."""


# ---------------------------------------------------------------------------
# Config parsing (field-level error messages)
# ---------------------------------------------------------------------------


def _methods(v) -> tuple[str, ...]:
    """A method name or a nonempty list of distinct method names."""
    names = [v] if isinstance(v, str) else v
    if (not isinstance(names, list) or not names or any(m not in _METHODS for m in names)
            or len(set(names)) != len(names)):
        raise ValueError(f"must be a nonempty list of distinct names from {_METHODS}, got {v!r}")
    return tuple(names)


_SECTIONS = ("problem", "experiment", "selector", "hull", "output")


class RunConfig:
    """The run's one input record: the resolved config and the command-line overrides.

    The document is read in one pass.  Every value a field reads, default
    or ``--seed``/``--out`` override included, is recorded in ``echo``,
    which the manifest stores as its ``config``: fed back in as the config
    document, it replays the run.  A key that no field reads is a config
    error.  ``--rebuild`` and ``--threads`` never change an output byte
    and are not echoed.
    """

    def __init__(self, doc: dict, overrides: dict):
        checked("config", obj, doc)
        self.echo: dict = {}
        self.rebuild = bool(overrides.get("rebuild"))
        self.threads = overrides.get("threads", 1)

        read = self._reader(doc, "problem")
        kind = read("kind", text, required=True)
        if kind == "power-law":
            self.spec = checked("problem", SigmaSpec.power_law, read("epsilon", positive, required=True),
                                read("beta", real, required=True))
        elif kind == "explicit":
            self.spec = checked("problem", SigmaSpec.explicit, read("values", list_of(positive), required=True))
        else:
            raise ConfigError(f"problem.kind: must be 'power-law' or 'explicit', got {kind!r}")

        read = self._reader(doc, "experiment")
        self.kind = read("kind", text, default="stem")
        if self.kind not in _KINDS:
            raise ConfigError(f"experiment.kind: must be one of {_KINDS}, got {self.kind!r}")
        self.n_max = read("n_max", pos_int, default=default_n_max(self.spec))
        bound = max_index(self.spec)
        if bound is not None and self.n_max > bound:
            raise ConfigError(f"experiment.n_max: {self.n_max} exceeds explicit sigma table length {bound}")
        # every run squares sigma_k of the spectrum or of its unit shape (sigma_1 = 1)
        with np.errstate(over="ignore"):
            finite = np.logical_and(*[np.isfinite(sigma_values(s, self.n_max) ** 2)
                                      for s in (self.spec, unit_spec(self.spec))])
        if not finite.all():
            raise ConfigError(f"problem: sigma_k^2 overflows float64 at k = {finite.argmin() + 1}, within "
                              f"experiment.n_max = {self.n_max}; lower experiment.n_max or flatten the spectrum")
        self.reps = read("reps", pos_int, default=STEM_REPS if self.kind == "stem" else DEFAULT_REPS)
        if self.kind == "efficiency" and self.reps < 2:
            raise ConfigError(f"experiment.reps: an efficiency run needs >= 2 for a standard error, got {self.reps}")
        self.seed = read("seed", nonneg_int, default=0, override=overrides.get("seed"))
        self.W = read("W", positive, default=6.0)
        self.m = read("m", positive, default=6.0)
        self.amplitude = read("a", nonneg, default=0.0)
        self.a_grid = read("a_grid", list_of(nonneg), default=[float(a) for a in default_a_grid()])
        if not self.a_grid:
            raise ConfigError("experiment.a_grid: must be a nonempty list of finite reals >= 0")

        read = self._reader(doc, "selector")
        self.methods = read("methods", _methods, default=("ure",))
        self.alpha = read("alpha", nonneg, default=DEFAULT_ALPHA)
        if "n_max" in (doc.get("selector") or {}):
            raise ConfigError("selector.n_max: no longer a config key; experiment.n_max bounds "
                              "the bandwidth search")

        read = self._reader(doc, "hull")
        self.mc = checked("hull", McParams, samples=read("samples", pos_int, default=DEFAULT_SAMPLES),
                          seed=read("seed", nonneg_int, default=1),
                          monotonize=read("monotonize", boolean, default=True))
        self.hull_cache = read("cache", text)
        if doc.get("hull") is None:
            self.echo["hull"] = None  # no hull section: RHM and ratio runs exit 4

        read = self._reader(doc, "output")
        self.out_dir = read("directory", text, default="out", override=overrides.get("out") or None)

        for name, sec in doc.items():
            if name not in _SECTIONS:
                raise ConfigError(f"{name}: unknown config key")
            for key in sec or {}:
                if key not in self.echo[name]:
                    raise ConfigError(f"{name}.{key}: unknown config key")

    def _reader(self, doc: dict, name: str):
        """Reader of the section ``name`` (a JSON object, {} when absent or null).

        ``read(field, kind, ...)`` converts the field with ``kind`` (a
        missing or null field takes ``default``), then an ``override`` that
        is not None; it records the value in ``echo[name]`` and returns it.
        """
        sec = {} if doc.get(name) is None else checked(name, obj, doc[name])
        echo = self.echo[name] = {}

        def read(field, kind, default=None, required=False, override=None):
            val, key = sec.get(field), f"{name}.{field}"
            if val is None and required:
                raise ConfigError(f"{key}: required field is missing")
            val = default if val is None else checked(key, kind, val)
            echo[field] = val if override is None else checked(key, kind, override)
            return echo[field]

        return read


def load_config(path: str, overrides: dict) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return RunConfig(doc, overrides)


# ---------------------------------------------------------------------------
# Hull cache (read-through keyed by spectrum shape + parameters)
# ---------------------------------------------------------------------------


def hull_read_through(cfg: RunConfig, spec: SigmaSpec) -> tuple[HullTable, str, bool]:
    """Load a matching cached table for N = 1..cfg.n_max or build and cache a fresh one.

    The cache holds the table of the spectrum shape ``unit_spec(spec)``,
    so one file serves every noise level; the returned table is that one
    rescaled for ``spec`` by :func:`hull_table_for`.  Returns (table,
    path, cache_hit).  An explicitly configured cache path that exists
    but does not match the requested parameters is a hard error (pass
    --rebuild to overwrite).
    """
    uspec = unit_spec(spec)
    key = (fingerprint(uspec), cfg.n_max, cfg.mc.samples, cfg.mc.seed, cfg.mc.monotonize)
    digest = hashlib.sha256("|".join(map(str, key)).encode()).hexdigest()[:16]
    path = cfg.hull_cache or os.path.join(cfg.out_dir, f"hull_{digest}.json")
    if os.path.exists(path) and not cfg.rebuild:
        table, _ = load_hull_table(path)
        if (table.spec_fingerprint, table.N_max, table.mc_samples, table.seed, table.monotonized) != key:
            raise HullCacheError(
                f"hull cache {path}: fingerprint/parameter mismatch with the requested "
                f"spec (stale cache); rerun with --rebuild to replace it"
            )
        return hull_table_for(table, spec), path, True
    try:
        table = build_hull_table(uspec, cfg.n_max, cfg.mc, threads=cfg.threads)
    except MemoryError as exc:
        cause = f" ({exc})" if str(exc) else ""  # a dead worker says so; a refused allocation may say nothing
        raise MemoryError(
            f"hull: out of memory building the table{cause}; the build's worst case, every row kept "
            f"whole, is the {cfg.n_max} x {cfg.mc.samples} float32 path matrix "
            f"({cfg.n_max * cfg.mc.samples * 4:,} bytes); lower experiment.n_max or hull.samples"
        ) from exc
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_hull_table(table, uspec, path)
    return hull_table_for(table, spec), path, False


def _require_hull(cfg: RunConfig, spec: SigmaSpec, needed: bool) -> HullTable | None:
    """The hull table for ``spec`` when ``needed``, else None."""
    if not needed:
        return None
    if cfg.echo["hull"] is None:
        raise HullMissingError(
            "rhm selection and the ratio experiment need a hull table: add a 'hull' "
            "section (cache path and/or Monte Carlo parameters) to the config"
        )
    table, _, _ = hull_read_through(cfg, spec)
    return table


def _envelope_crossing(table: HullTable, spec: SigmaSpec) -> int:
    """Smallest N0 with u0(N) >= u1(N) for every N >= N0."""
    u0n = table.U0 / np.sqrt(2.0 * table.SigmaFourth)
    u1n = np.array([u1(spec, N) for N in range(1, table.N_max + 1)])
    bad = np.nonzero(u0n < u1n)[0]
    return int(bad[-1]) + 2 if bad.size else 1


def _write_manifest(cfg: RunConfig, command: str, outputs: list[str], summary: dict,
                    table: HullTable | None, **extra) -> None:
    write_manifest({
        "format": "riskhull-manifest-v6",
        "command": command,
        "config": cfg.echo,
        "hull_fingerprint": None if table is None else table.spec_fingerprint,
        "outputs": sorted(outputs),
        "summary": summary,
        "versions": {
            "riskhull": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        **extra,
    }, os.path.join(cfg.out_dir, "manifest.json"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_hull(cfg: RunConfig) -> int:
    table, path, hit = hull_read_through(cfg, cfg.spec)
    os.makedirs(cfg.out_dir, exist_ok=True)
    n0 = _envelope_crossing(table, cfg.spec)
    state = "cache hit" if hit else "built"
    print(f"hull {state}: {path}")
    print(f"U0[1] = {float(table.U0[0])!r}, U0[{table.N_max}] = {float(table.U0[-1])!r}, "
          f"envelope crossing N0 = {n0}")
    if table.saturated:
        print(f"warning: tail saturated at N in {list(table.saturated)}; "
              f"increase hull.samples for this spectrum", file=sys.stderr)
    _write_manifest(cfg, "hull", [os.path.basename(path)], {
        "U0_first": float(table.U0[0]),
        "U0_last": float(table.U0[-1]),
        "envelope_N0": n0,
        "cache_hit": hit,
        "saturated": list(table.saturated),
    }, table)
    return EXIT_OK


def _read_data_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]  # a blank line reads as []
    except OSError as exc:
        raise ConfigError(f"data file {path}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"data file {path}: need a header row plus at least one (k, y) row")
    ys = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise ConfigError(f"data file {path}, row {i}: expected two columns (k, y), got {len(row)}")
        try:
            k, y = int(row[0]), float(row[1])
        except ValueError as exc:
            raise ConfigError(f"data file {path}, row {i}: {exc}") from exc
        if k != i:
            raise ConfigError(f"data file {path}, row {i}: indices must be contiguous from 1, got k={k}")
        if not math.isfinite(y):
            raise ConfigError(f"data file {path}, row {i}: y must be finite")
        ys.append(y)
    return np.asarray(ys, dtype=np.float64)


def cmd_select(cfg: RunConfig, data_path: str) -> int:
    ys = _read_data_csv(data_path)
    bound = max_index(cfg.spec)
    if bound is not None and len(ys) > bound:
        raise ConfigError(f"data file has {len(ys)} rows but the explicit sigma table stops at {bound}")
    obs = Observation(ys=ys, n_max=len(ys), sigma=cfg.spec, seed=0)
    n_sel = min(cfg.n_max, obs.n_max)

    table = _require_hull(cfg, cfg.spec, "rhm" in cfg.methods)
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs = []
    summary = {}
    results = {m: select_ure(obs, n_sel) if m == "ure" else select_rhm(obs, table, cfg.alpha, n_sel)
               for m in cfg.methods}
    for method, res in results.items():
        est_name = f"estimate_{method}.csv"
        est = project(obs, res.N_selected).padded(obs.n_max)
        atomic_write_text(os.path.join(cfg.out_dir, est_name),
                          csv_text("k,value", zip(range(1, obs.n_max + 1), est)))
        outputs.append(est_name)
        summary[method] = {"N_selected": res.N_selected}
        print(f"{method}: N = {res.N_selected}")
    atomic_write_text(os.path.join(cfg.out_dir, "selection.csv"),
                      csv_text("method,N_selected", [(m, res.N_selected) for m, res in results.items()]))
    outputs.append("selection.csv")
    _write_manifest(cfg, "select", outputs, summary, table, data_file=os.path.basename(data_path))
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.kind == "select":
        raise ConfigError("experiment.kind: 'select' runs through the 'select' subcommand")
    # efficiency curves run at unit noise level (see riskhull.bench); the
    # hull is resolved before any output is written, so a cache error
    # cannot leave a half-written run behind
    spec = unit_spec(cfg.spec) if cfg.kind == "efficiency" else cfg.spec
    table = _require_hull(cfg, spec, cfg.kind == "ratio" or "rhm" in cfg.methods)
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs: list[str] = []
    summary: dict = {}

    if cfg.kind == "stem":
        eps = sigma_at(cfg.spec, 1)
        signal = signal_family(cfg.amplitude, cfg.W, cfg.m, eps, cfg.n_max) if cfg.amplitude > 0 else ZERO_SIGNAL
        selectors = method_selectors(cfg.methods, cfg.n_max, alpha=cfg.alpha, hull=table)
        stems = stem_experiments(cfg.spec, signal, selectors, cfg.reps, cfg.n_max, cfg.seed)
        for method, stem in zip(cfg.methods, stems):
            name = f"stem_{method}.csv"
            write_stem_csv(stem, os.path.join(cfg.out_dir, name))
            outputs.append(name)
            summary[method] = {"N_emp": stem.N_emp, "R_emp": stem.R_emp}
            print(f"stem {method}: N_emp = {stem.N_emp:.4g}, R_emp = {stem.R_emp:.6g}")

    elif cfg.kind == "ratio":
        rows = ratio_curve(cfg.spec, table, cfg.alpha, range(1, cfg.n_max + 1))
        write_ratio_csv(rows, os.path.join(cfg.out_dir, "ratio.csv"))
        outputs.append("ratio.csv")
        summary["rho_first"] = rows[0][1]
        summary["rho_last"] = rows[-1][1]
        print(f"ratio: rho(1) = {rows[0][1]:.4g}, rho({cfg.n_max}) = {rows[-1][1]:.4g}")

    elif cfg.kind == "efficiency":
        curves = efficiency_curves(
            cfg.spec, cfg.methods, cfg.a_grid, cfg.W, cfg.m, cfg.reps, cfg.n_max, cfg.seed,
            alpha=cfg.alpha, hull=table, workers=cfg.threads,
        )
        for method, curve in zip(cfg.methods, curves):
            name = f"efficiency_{method}.csv"
            write_efficiency_csv(curve, os.path.join(cfg.out_dir, name))
            outputs.append(name)
            summary[method] = {
                "min_efficiency": float(np.min(curve.efficiency)),
                "max_efficiency": float(np.max(curve.efficiency)),
            }
            print(f"efficiency {method}: min = {np.min(curve.efficiency):.4g}, "
                  f"max = {np.max(curve.efficiency):.4g}")

    _write_manifest(cfg, "bench", outputs, {"experiment": cfg.kind, **summary}, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskhull",
        description="Spectral-cutoff regularization with URE and risk-hull bandwidth selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("hull", "build or reuse a hull-penalty table"),
        ("select", "select a bandwidth for a (k, y) CSV data file"),
        ("bench", "run a stem / ratio / efficiency experiment"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override experiment.seed")
        p.add_argument("--threads", type=int, default=1,
                       help="bound on the worker processes that run the blocks of the hull "
                            "build and of the efficiency sweep; never changes an output byte")
        p.add_argument("--out", default=None, help="override output.directory")
        p.add_argument("--rebuild", action="store_true", help="ignore and replace any hull cache")
        if name == "select":
            p.add_argument("data", help="CSV file with header and (k, y_k) rows, k contiguous from 1")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out,
                                        "rebuild": args.rebuild, "threads": args.threads})
        if args.command == "hull":
            return cmd_hull(cfg)
        if args.command == "select":
            return cmd_select(cfg, args.data)
        return cmd_bench(cfg)
    except (HullCacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        hint = (f"; --threads {args.threads} runs the hull build and the efficiency sweep on "
                f"worker processes, and a lower --threads starts fewer") if args.threads > 1 else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_CONFIG
    except HullMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HULL
