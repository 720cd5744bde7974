"""Command-line front end: hull-table cache management, selection on data
files, and the benchmark experiments.

Subcommands
-----------
hull    build (or reuse) a hull-penalty table and cache it as JSON
select  run URE/RHM bandwidth selection on a (k, y_k) CSV file
bench   run a stem / ratio / efficiency experiment and emit CSVs

A single JSON config document drives every run; command-line flags
(--seed, --out) override the corresponding fields.  Every run writes a
manifest with the fully resolved config, seeds and versions, which is
enough to reproduce its outputs bit for bit.  ``--threads`` only bounds
hull-construction workers and never changes any output byte.

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
    signal_family,
    spec_to_dict,
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


def _get(doc: dict, field: str, path: str, kind, default=None, required=False):
    if field not in doc or doc[field] is None:
        if required:
            raise ConfigError(f"{path}.{field}: required field is missing")
        return default
    val = doc[field]
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{field}: {exc}") from exc


def _boolean(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"must be a number, got {v!r}")
    return float(v)


def _text(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"must be a string, got {v!r}")
    return v


def _positive(v) -> float:
    x = _real(v)
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"must be a positive finite real, got {v}")
    return x


def _integer(lo: int):
    """Integers >= lo; an integral number such as 1e6 counts, a boolean does not."""
    def conv(v) -> int:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or (isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"must be an integer, got {v!r}")
        if v < lo:
            raise ValueError(f"must be an integer >= {lo}, got {v}")
        return int(v)

    return conv


_nonneg_int, _pos_int = _integer(0), _integer(1)


def _list_of(kind):
    """A JSON list whose every entry converts with ``kind``."""
    def conv(v) -> list:
        if not isinstance(v, list):
            raise ValueError(f"must be a list, got {v!r}")
        return [kind(x) for x in v]

    return conv


def _methods(v) -> tuple[str, ...]:
    """A method name or a nonempty list of distinct method names."""
    names = [v] if isinstance(v, str) else v
    if (not isinstance(names, list) or not names or any(m not in _METHODS for m in names)
            or len(set(names)) != len(names)):
        raise ValueError(f"must be a nonempty list of distinct names from {_METHODS}, got {v!r}")
    return tuple(names)


def _section(doc: dict, name: str) -> dict:
    """The config section ``name``: a JSON object, {} when absent or null."""
    sec = {} if doc.get(name) is None else doc[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {sec!r}")
    return sec


def parse_spec(doc: dict, path: str = "problem") -> SigmaSpec:
    kind = _get(doc, "kind", path, _text, required=True)
    try:
        if kind == "power-law":
            return SigmaSpec.power_law(
                _get(doc, "epsilon", path, _positive, required=True),
                _get(doc, "beta", path, _real, required=True),
            )
        if kind == "explicit":
            return SigmaSpec.explicit(_get(doc, "values", path, _list_of(_positive), required=True))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: must be 'power-law' or 'explicit', got {kind!r}")


class RunConfig:
    """Fully resolved configuration for one CLI run."""

    def __init__(self, doc: dict, overrides: dict):
        if not isinstance(doc, dict):
            raise ConfigError("config: top-level document must be a JSON object")
        self.spec = parse_spec(_section(doc, "problem"), "problem")

        exp = _section(doc, "experiment")
        self.kind = _get(exp, "kind", "experiment", _text, default="stem")
        if self.kind not in _KINDS:
            raise ConfigError(f"experiment.kind: must be one of {_KINDS}, got {self.kind!r}")
        self.n_max = _get(exp, "n_max", "experiment", _pos_int, default=default_n_max(self.spec))
        bound = max_index(self.spec)
        if bound is not None and self.n_max > bound:
            raise ConfigError(f"experiment.n_max: {self.n_max} exceeds explicit sigma table length {bound}")
        default_reps = STEM_REPS if self.kind == "stem" else DEFAULT_REPS
        self.reps = _get(exp, "reps", "experiment", _pos_int, default=default_reps)
        self.seed = _get(exp, "seed", "experiment", _nonneg_int, default=0)
        if overrides.get("seed") is not None:
            self.seed = _nonneg_int(overrides["seed"])
        self.W = _get(exp, "W", "experiment", _positive, default=6.0)
        self.m = _get(exp, "m", "experiment", _positive, default=6.0)
        self.amplitude = _get(exp, "a", "experiment", _real, default=0.0)
        if self.amplitude < 0:
            raise ConfigError(f"experiment.a: must be >= 0, got {self.amplitude}")
        self.a_grid = _get(exp, "a_grid", "experiment", _list_of(_real),
                           default=[float(a) for a in default_a_grid()])
        if not self.a_grid or any(a < 0 or not math.isfinite(a) for a in self.a_grid):
            raise ConfigError("experiment.a_grid: must be a nonempty list of nonnegative reals")

        sel = _section(doc, "selector")
        self.methods = _get(sel, "methods", "selector", _methods, default=("ure",))
        self.alpha = _get(sel, "alpha", "selector", _real, default=DEFAULT_ALPHA)
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ConfigError(f"selector.alpha: must be a finite real >= 0, got {self.alpha}")
        if "n_max" in sel:
            raise ConfigError("selector.n_max: no longer a config key; experiment.n_max bounds "
                              "the bandwidth search")

        self.hull_present = "hull" in doc and doc["hull"] is not None
        hull = _section(doc, "hull")
        try:
            self.mc = McParams(
                samples=_get(hull, "samples", "hull", _pos_int, default=DEFAULT_SAMPLES),
                seed=_get(hull, "seed", "hull", _nonneg_int, default=1),
                monotonize=_get(hull, "monotonize", "hull", _boolean, default=True),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"hull: {exc}") from exc
        self.hull_cache = _get(hull, "cache", "hull", _text, default=None)

        out = _section(doc, "output")
        self.out_dir = overrides.get("out") or _get(out, "directory", "output", _text, default="out")

    def echo(self) -> dict:
        """Resolved config for the manifest (reproduces the run exactly)."""
        return {
            "problem": spec_to_dict(self.spec),
            "experiment": {
                "kind": self.kind,
                "n_max": self.n_max,
                "reps": self.reps,
                "seed": self.seed,
                "W": self.W,
                "m": self.m,
                "a": self.amplitude,
                "a_grid": self.a_grid,
            },
            "selector": {"methods": list(self.methods), "alpha": self.alpha},
            "hull": (
                {
                    "samples": self.mc.samples,
                    "seed": self.mc.seed,
                    "monotonize": self.mc.monotonize,
                    "cache": self.hull_cache,
                }
                if self.hull_present
                else None
            ),
            "output": {"directory": self.out_dir},
        }


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


def hull_read_through(cfg: RunConfig, spec: SigmaSpec, n_max: int,
                      rebuild: bool, threads: int) -> tuple[HullTable, str, bool]:
    """Load a matching cached table or build and cache a fresh one.

    The cache holds the table of the spectrum shape ``unit_spec(spec)``,
    so one file serves every noise level; the returned table is that one
    rescaled for ``spec`` by :func:`hull_table_for`.  Returns (table,
    path, cache_hit).  An explicitly configured cache path that exists
    but does not match the requested parameters is a hard error (pass
    --rebuild to overwrite).
    """
    uspec = unit_spec(spec)
    key = (fingerprint(uspec), n_max, cfg.mc.samples, cfg.mc.seed, cfg.mc.monotonize)
    digest = hashlib.sha256("|".join(map(str, key)).encode()).hexdigest()[:16]
    path = cfg.hull_cache or os.path.join(cfg.out_dir, f"hull_{digest}.json")
    if os.path.exists(path) and not rebuild:
        table, _ = load_hull_table(path)
        if (table.spec_fingerprint, table.N_max, table.mc_samples, table.seed, table.monotonized) != key:
            raise HullCacheError(
                f"hull cache {path}: fingerprint/parameter mismatch with the requested "
                f"spec (stale cache); rerun with --rebuild to replace it"
            )
        return hull_table_for(table, spec), path, True
    try:
        table = build_hull_table(uspec, n_max, cfg.mc, threads=threads)
    except MemoryError as exc:
        raise MemoryError(
            f"hull: cannot allocate the {n_max} x {cfg.mc.samples} float32 path matrix "
            f"({n_max * cfg.mc.samples * 4:,} bytes); lower experiment.n_max or hull.samples"
        ) from exc
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_hull_table(table, uspec, path)
    return hull_table_for(table, spec), path, False


def _require_hull(cfg: RunConfig, spec: SigmaSpec, n_max: int, needed: bool,
                  rebuild: bool, threads: int) -> tuple[HullTable | None, str | None]:
    """(table, its fingerprint) for ``spec`` when ``needed``, else (None, None)."""
    if not needed:
        return None, None
    if not cfg.hull_present:
        raise HullMissingError(
            "rhm selection and the ratio experiment need a hull table: add a 'hull' "
            "section (cache path and/or Monte Carlo parameters) to the config"
        )
    table, _, _ = hull_read_through(cfg, spec, n_max, rebuild, threads)
    return table, table.spec_fingerprint


def _envelope_crossing(table: HullTable, spec: SigmaSpec) -> int:
    """Smallest N0 with u0(N) >= u1(N) for every N >= N0."""
    u0n = table.U0 / np.sqrt(2.0 * table.SigmaFourth)
    u1n = np.array([u1(spec, N) for N in range(1, table.N_max + 1)])
    bad = np.nonzero(u0n < u1n)[0]
    return int(bad[-1]) + 2 if bad.size else 1


def _manifest(cfg: RunConfig, command: str, outputs: list[str], summary: dict,
              hull_fp: str | None) -> dict:
    return {
        "format": "riskhull-manifest-v3",
        "command": command,
        "config": cfg.echo(),
        "hull_fingerprint": hull_fp,
        "outputs": sorted(outputs),
        "summary": summary,
        "versions": {
            "riskhull": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_hull(cfg: RunConfig, rebuild: bool, threads: int) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    table, path, hit = hull_read_through(cfg, cfg.spec, cfg.n_max, rebuild, threads)
    n0 = _envelope_crossing(table, cfg.spec)
    state = "cache hit" if hit else "built"
    print(f"hull {state}: {path}")
    print(f"U0[1] = {float(table.U0[0])!r}, U0[{table.N_max}] = {float(table.U0[-1])!r}, "
          f"envelope crossing N0 = {n0}")
    if table.saturated:
        print(f"warning: tail saturated at N in {list(table.saturated)}; "
              f"increase hull.samples for this spectrum", file=sys.stderr)
    manifest = _manifest(cfg, "hull", [os.path.basename(path)], {
        "U0_first": float(table.U0[0]),
        "U0_last": float(table.U0[-1]),
        "envelope_N0": n0,
        "cache_hit": hit,
        "saturated": list(table.saturated),
    }, table.spec_fingerprint)
    write_manifest(manifest, os.path.join(cfg.out_dir, "manifest.json"))
    return EXIT_OK


def _read_data_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
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


def cmd_select(cfg: RunConfig, data_path: str, rebuild: bool, threads: int) -> int:
    ys = _read_data_csv(data_path)
    bound = max_index(cfg.spec)
    if bound is not None and len(ys) > bound:
        raise ConfigError(f"data file has {len(ys)} rows but the explicit sigma table stops at {bound}")
    obs = Observation(ys=ys, n_max=len(ys), sigma=cfg.spec, seed=0)
    n_sel = min(cfg.n_max, obs.n_max)

    table, hull_fp = _require_hull(cfg, cfg.spec, cfg.n_max, "rhm" in cfg.methods, rebuild, threads)
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs = []
    summary = {}
    results = {}
    for method in cfg.methods:
        results[method] = select_ure(obs, n_sel) if method == "ure" else select_rhm(obs, table, cfg.alpha, n_sel)

    sel_lines = ["method,N_selected"]
    for method, res in results.items():
        sel_lines.append(f"{method},{res.N_selected}")
        est_name = f"estimate_{method}.csv"
        est_lines = ["k,value"]
        for k in range(1, obs.n_max + 1):
            v = float(obs.ys[k - 1]) if k <= res.N_selected else 0.0
            est_lines.append(f"{k},{v!r}")
        atomic_write_text(os.path.join(cfg.out_dir, est_name), "\n".join(est_lines) + "\n")
        outputs.append(est_name)
        summary[method] = {"N_selected": res.N_selected}
        print(f"{method}: N = {res.N_selected}")
    atomic_write_text(os.path.join(cfg.out_dir, "selection.csv"), "\n".join(sel_lines) + "\n")
    outputs.append("selection.csv")
    manifest = _manifest(cfg, "select", outputs, summary, hull_fp)
    manifest["data_file"] = os.path.basename(data_path)
    write_manifest(manifest, os.path.join(cfg.out_dir, "manifest.json"))
    return EXIT_OK


def cmd_bench(cfg: RunConfig, rebuild: bool, threads: int) -> int:
    if cfg.kind == "select":
        raise ConfigError("experiment.kind: 'select' runs through the 'select' subcommand")
    # efficiency curves run at unit noise level (see riskhull.bench); the
    # hull is resolved before any output is written, so a cache error
    # cannot leave a half-written run behind
    spec = unit_spec(cfg.spec) if cfg.kind == "efficiency" else cfg.spec
    table, hull_fp = _require_hull(cfg, spec, cfg.n_max, cfg.kind == "ratio" or "rhm" in cfg.methods,
                                   rebuild, threads)
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
            alpha=cfg.alpha, hull=table,
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

    manifest = _manifest(cfg, "bench", outputs, {"experiment": cfg.kind, **summary}, hull_fp)
    write_manifest(manifest, os.path.join(cfg.out_dir, "manifest.json"))
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
        p.add_argument("--threads", type=int, default=1, help="worker bound for hull construction")
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
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out})
        if args.command == "hull":
            return cmd_hull(cfg, args.rebuild, args.threads)
        if args.command == "select":
            return cmd_select(cfg, args.data, args.rebuild, args.threads)
        return cmd_bench(cfg, args.rebuild, args.threads)
    except (HullCacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HullMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HULL


if __name__ == "__main__":
    sys.exit(main())
