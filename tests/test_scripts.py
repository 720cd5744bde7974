"""The programs beside the package: the reproduction scripts, and the
names of the package that the benchmark's tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskhull.hull
from riskhull import McParams, SigmaSpec

ROOT = Path(__file__).resolve().parents[1]


def test_every_benchmark_boundary_exists():
    """A wrapped name that goes missing turns its per-layer metric into null."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for target, _, _ in spans.BOUNDARIES:
        module_name, _, attr = target.rpartition(".")
        if not hasattr(importlib.import_module(module_name), attr):
            missing.append(target)
    assert missing == []
    # the tracer reads the path matrix's size and itemsize
    paths = riskhull.hull._fill_paths(SigmaSpec.power_law(1.0, 1.0), 3, McParams(samples=10_000, seed=1))
    assert isinstance(paths, np.ndarray) and paths.size * paths.itemsize == 3 * 10_000 * 4


@pytest.mark.parametrize("script,args,outputs", [
    ("reproduce_stem.py", ["--reps", "3", "--n-max", "10"],
     {f"out/stem/{name}/stem_ure.csv": "rep,N_selected,normalized_loss" for name in ("direct", "inverse")}),
    ("reproduce_ratio_curves.py", ["--n-max", "10", "--samples", "10000"],
     {f"out/ratio/{name}/ratio.csv": "N,rho,rho_tilde" for name in ("direct", "inverse")}),
    ("reproduce_efficiency.py", ["--reps", "2", "--betas", "1", "--samples", "10000"],
     {f"out/efficiency/beta1/efficiency_{m}.csv": "a,efficiency,std_error,oracle_N,oracle_risk"
      for m in ("ure", "rhm")}),
], ids=["stem", "ratio", "efficiency"])
def test_reproduce_script_runs(tmp_path, cli_env, script, args, outputs):
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, cwd=tmp_path, env=cli_env)
    assert res.returncode == 0, res.stderr
    for name, header in outputs.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
