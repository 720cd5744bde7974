#!/usr/bin/env python
"""Reproduce the oracle-efficiency curves of URE and RHM.

Sweeps the signal amplitude over a log grid for beta in {0, 1, 2} and
writes one efficiency CSV per method.  Desk-scale default is 10,000
replications per point; pass --reps 40000 for the full-scale version
(slower by 4x).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from riskhull import SigmaSpec, default_n_max
from riskhull.cli import main as cli_main


def run() -> None:
    p = argparse.ArgumentParser(description="Oracle-efficiency curves for URE and RHM")
    p.add_argument("--out", default="out/efficiency", help="output root directory")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--betas", type=float, nargs="+", default=[0.0, 1.0, 2.0])
    p.add_argument("--alpha", type=float, default=1.1)
    p.add_argument("--samples", type=int, default=1_000_000, help="hull Monte Carlo samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hull-seed", type=int, default=1)
    args = p.parse_args()

    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    for beta in args.betas:
        n_max = default_n_max(SigmaSpec.power_law(1.0, beta))
        config = {
            "problem": {"kind": "power-law", "epsilon": 1.0, "beta": beta},
            "experiment": {"kind": "efficiency", "reps": args.reps, "n_max": n_max,
                           "seed": args.seed},
            "selector": {"methods": ["ure", "rhm"], "alpha": args.alpha},
            "hull": {"samples": args.samples, "seed": args.hull_seed},
            "output": {"directory": str(root / f"beta{beta:g}")},
        }
        cfg_path = root / f"beta{beta:g}.json"
        cfg_path.write_text(json.dumps(config, indent=2))
        print(f"== beta = {beta:g} (n_max = {n_max}, reps = {args.reps})")
        rc = cli_main(["bench", "--config", str(cfg_path)])
        if rc != 0:
            raise SystemExit(rc)


if __name__ == "__main__":
    run()
