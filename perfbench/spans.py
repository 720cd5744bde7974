"""Spans around the calls that cross riskhull's module boundaries.

The program is not modified.  The tracer replaces a module attribute that
the calling module looks up at call time (for example ``riskhull.bench.
simulate``, which the replication loop in ``bench`` calls) with a wrapper
that times the call, and puts the original back afterwards.  Spans nest
per thread, so a span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict


class Tracer:
    """Aggregate per-key time, self time, calls and amounts of wrapped calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.amount = defaultdict(float)
        self.absent: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key: str, fn, *args, **kwargs):
        """Call fn inside a span named key."""
        stack = self._stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += d
            with self._lock:
                self.seconds[key] += d
                self.self_seconds[key] += d - child
                self.calls[key] += 1

    def wrap(self, target: str, key: str, *, span: bool = True, amount=None) -> None:
        """Wrap the attribute ``target`` ("package.module.name") under ``key``.

        With ``span=False`` only calls are counted.  ``amount(bound_args,
        result)`` adds a number per call, such as bytes or replications.
        A target that no longer exists is recorded in ``absent``.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(target)
            return
        sig = inspect.signature(fn) if amount is not None else None

        def wrapper(*args, **kwargs):
            if span:
                result = self.span(key, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
                with self._lock:
                    self.calls[key] += 1
            if amount is not None:
                value = amount(sig.bind(*args, **kwargs).arguments, result)
                with self._lock:
                    self.amount[key] += value
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def unwrap(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def _path_bytes(args, result) -> float:
    """Bytes of the returned path matrix, computed from its shape and dtype."""
    return float(result.size * result.itemsize)


# (target, key, options): each target is looked up by the module that calls it.
BOUNDARIES = [
    ("riskhull.cli.load_config", "cli.load_config", {}),
    ("riskhull.cli.hull_read_through", "cli.hull_read_through", {}),
    *[(f"riskhull.cli.{name}", "cli.write_outputs", {}) for name in (
        "atomic_write_text", "write_manifest", "write_efficiency_csv",
        "write_stem_csv", "write_ratio_csv")],
    ("riskhull.hull._fill_paths", "hull.fill", {"amount": _path_bytes}),
    ("riskhull.hull._u0_scan", "hull.scan", {}),
    ("riskhull.hull.rng_for", "hull.rng_for", {"span": False}),
    ("riskhull.cli.save_hull_table", "hull.save", {}),
    ("riskhull.cli.load_hull_table", "hull.load", {}),
    ("riskhull.bench.derive_seed", "sequence_model.derive_seed", {}),
    ("riskhull.bench.simulate", "sequence_model.simulate", {}),
    *[(f"riskhull.{mod}.{name}", "selectors.select", {})
      for mod in ("selectors", "cli") for name in ("select_ure", "select_rhm")],
    ("riskhull.bench.project", "estimators.project", {}),
    ("riskhull.bench.squared_loss", "estimators.squared_loss", {}),
    ("riskhull.bench.oracle_risk", "estimators.oracle_risk", {}),
    ("riskhull.cli.efficiency_curve", "bench.efficiency_curve", {}),
    ("riskhull.bench.mc_selector_risk", "bench.mc_selector_risk",
     {"span": False, "amount": lambda args, result: float(args["reps"])}),
]

ROOT_KEY = "cli.main"

# per-layer metric -> (unit, statistic, keys it is read from)
LAYER_METRICS = {
    "cli.load_config_s": ("s", "seconds", ["cli.load_config"]),
    "cli.hull_read_through_s": ("s", "seconds", ["cli.hull_read_through"]),
    "cli.write_outputs_s": ("s", "seconds", ["cli.write_outputs"]),
    "cli.self_s": ("s", "self_seconds", [ROOT_KEY]),
    "hull.fill_s": ("s", "seconds", ["hull.fill"]),
    "hull.scan_s": ("s", "seconds", ["hull.scan"]),
    "hull.scan_calls": ("count", "calls", ["hull.scan"]),
    "hull.philox_streams": ("count", "calls", ["hull.rng_for"]),
    "hull.path_matrix_bytes": ("bytes-computed", "amount", ["hull.fill"]),
    "hull.save_s": ("s", "seconds", ["hull.save"]),
    "hull.load_s": ("s", "seconds", ["hull.load"]),
    "sequence_model.derive_seed_s": ("s", "seconds", ["sequence_model.derive_seed"]),
    "sequence_model.simulate_s": ("s", "seconds", ["sequence_model.simulate"]),
    "sequence_model.calls": ("count", "calls", ["sequence_model.derive_seed", "sequence_model.simulate"]),
    "selectors.select_s": ("s", "seconds", ["selectors.select"]),
    "selectors.calls": ("count", "calls", ["selectors.select"]),
    "estimators.project_s": ("s", "seconds", ["estimators.project"]),
    "estimators.squared_loss_s": ("s", "seconds", ["estimators.squared_loss"]),
    "estimators.oracle_risk_s": ("s", "seconds", ["estimators.oracle_risk"]),
    "bench.efficiency_curve_s": ("s", "seconds", ["bench.efficiency_curve"]),
    "bench.self_s": ("s", "self_seconds", ["bench.efficiency_curve"]),
    "bench.replications": ("count", "amount", ["bench.mc_selector_risk"]),
}


def install(tracer: Tracer) -> None:
    for target, key, options in BOUNDARIES:
        tracer.wrap(target, key, **options)


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Every per-layer metric as a mean per traced CLI call.

    A metric whose wrapped names are all gone from the program has the
    value None (absent), not 0.
    """
    present = {key for target, key, _ in BOUNDARIES if target not in tracer.absent}
    present.add(ROOT_KEY)
    out = {}
    for name, (unit, stat, keys) in LAYER_METRICS.items():
        if not any(k in present for k in keys):
            out[name] = {"value": None, "unit": unit}
            continue
        table = getattr(tracer, stat)
        out[name] = {"value": sum(table[k] for k in keys) / calls, "unit": unit}
    return out
