"""The traced run counts calls at the module boundaries and reports removed names as absent."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import riskhull.bench  # noqa: E402
import riskhull.cli  # noqa: E402
import spans  # noqa: E402


def traced_bench(tmp_path) -> spans.Tracer:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 1.0},
        "experiment": {"kind": "efficiency", "n_max": 20, "reps": 3, "a_grid": [1.0, 10.0]},
        "selector": {"methods": ["ure"]},
        "output": {"directory": str(tmp_path / "out")},
    }))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.span(spans.ROOT_KEY, riskhull.cli.main, ["bench", "--config", str(cfg)])
    finally:
        tracer.unwrap()
    assert code == 0
    return tracer


def test_boundary_counts_and_self_time(tmp_path):
    original = riskhull.bench.simulate
    m = spans.layer_metrics(traced_bench(tmp_path), calls=1)
    assert riskhull.bench.simulate is original
    assert m["bench.replications"]["value"] == 6
    assert m["selectors.calls"]["value"] == 6
    # one derive_seed per amplitude, one derive_seed and one simulate per replication
    assert m["sequence_model.calls"]["value"] == 2 + 6 + 6
    assert m["hull.scan_calls"]["value"] == 0
    inner = sum(m[k]["value"] for k in (
        "sequence_model.derive_seed_s", "sequence_model.simulate_s", "selectors.select_s",
        "estimators.project_s", "estimators.squared_loss_s", "estimators.oracle_risk_s"))
    assert abs(m["bench.self_s"]["value"] - (m["bench.efficiency_curve_s"]["value"] - inner)) < 1e-9
    assert 0 < m["cli.self_s"]["value"]


def test_a_removed_name_reads_absent_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(riskhull.bench, "simulate")
    monkeypatch.delattr(riskhull.bench, "derive_seed")
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.unwrap()
    m = spans.layer_metrics(tracer, calls=1)
    assert tracer.absent == {"riskhull.bench.simulate", "riskhull.bench.derive_seed"}
    for name in ("sequence_model.simulate_s", "sequence_model.derive_seed_s", "sequence_model.calls"):
        assert m[name]["value"] is None
    assert m["selectors.calls"]["value"] == 0
