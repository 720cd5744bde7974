#!/usr/bin/env python3
"""riskhull benchmark: three workloads through the `riskhull` CLI.

    python3 perfbench/run.py --workload {hull-build,efficiency,select} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 every timed operation is a `python -m riskhull` child
process, one at a time (a closed loop with one client), and the last line
of standard output is a JSON object with the end-to-end metrics.  With
--trace 1 the same operations run in-process through `riskhull.cli.main`,
once plainly and once with spans around the calls between modules, and the
last line holds the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

N_MAX = 200
HULL_SAMPLES = 1_000_000   # hull-build: the acceptance and ROADMAP baseline shape
CACHE_SAMPLES = 10_000     # the hull cache filled in set-up for the other workloads
FRESH_SAMPLES = 4_000_000  # the benchmark's own draws for the defining equation
EFF_REPS = 1_000
ALPHA = 1.1
W = M = 6.0
SELECT_FILES = 8
SETUPS = 5                 # set-ups per run; setup_s is their median
IMPORT_PAIRS = 5
PROBLEM = {"kind": "power-law", "epsilon": 1.0, "beta": 1.0}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, float, str]:
    """Run one child to its end: (exit code, wall s, peak RSS MB, stderr)."""
    with open(cwd / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, text


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "riskhull", *args]


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def config(d: Path, kind: str, samples: int, seed: int, cache: str, **experiment) -> dict:
    return {
        "problem": PROBLEM,
        "experiment": {"kind": kind, "n_max": N_MAX, "seed": seed, **experiment},
        "selector": {"methods": ["ure", "rhm"], "alpha": ALPHA},
        "hull": {"samples": samples, "seed": seed, "cache": str(d / cache)},
        "output": {"directory": str(d / "out")},
    }


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, one round of CLI calls, and the checks of their outputs."""

    work_per_call: float

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.dir: Path | None = None

    def setup(self, d: Path, report: "Report") -> None:
        """Write the inputs under d and fill the hull cache with `riskhull hull`."""
        self.dir = d
        self.write_inputs(d)
        cfg = write_json(d / "cache.json", config(d, "stem", CACHE_SAMPLES, self.seed, "hull.json"))
        code, _, _, err = run_child(cli_argv(["hull", "--config", str(cfg)]), d)
        report.setup_call(code)
        if code != 0:
            raise RuntimeError(f"set-up `riskhull hull` exited {code}: {err.strip()}")

    def write_inputs(self, d: Path) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Work for the checks that is done once, outside every timed region."""

    def round(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, args: list[str]) -> list[str]:
        raise NotImplementedError


class HullBuild(Workload):
    """One `riskhull hull --rebuild --threads 1` at N_max=200, S=10^6."""

    work_per_call = float(N_MAX * HULL_SAMPLES)  # path-matrix entries

    def write_inputs(self, d):
        self.cfg = write_json(d / "build.json", config(d, "stem", HULL_SAMPLES, self.seed, "hull_build.json"))

    def prepare_checks(self):
        self.fresh = checks.fresh_eta(self.seed, FRESH_SAMPLES)

    def round(self):
        return [["hull", "--config", str(self.cfg), "--rebuild", "--threads", "1"]]

    def check(self, args):
        doc = json.loads((self.dir / "hull_build.json").read_text(encoding="utf-8"))
        return checks.check_hull_table(doc, N_MAX, HULL_SAMPLES, self.fresh)


class Efficiency(Workload):
    """`riskhull bench` efficiency sweep, ure and rhm, 20 amplitudes x 1,000 reps."""

    work_per_call = float(20 * EFF_REPS * 2)  # replications

    def write_inputs(self, d):
        self.cfg = write_json(d / "efficiency.json", config(
            d, "efficiency", CACHE_SAMPLES, self.seed, "hull.json", reps=EFF_REPS, W=W, m=M))

    def prepare_checks(self):
        self.cache_digest = hashlib.sha256((self.dir / "hull.json").read_bytes()).hexdigest()

    def round(self):
        return [["bench", "--config", str(self.cfg), "--threads", str(min(2, self.nproc))]]

    def check(self, args):
        curves = {}
        for method in ("ure", "rhm"):
            curves[method] = [
                {"a": float(a), "efficiency": float(e), "std_error": float(s),
                 "oracle_N": int(n), "oracle_risk": float(r)}
                for a, e, s, n, r in read_csv(self.dir / "out" / f"efficiency_{method}.csv")
            ]
        bad = []
        for method, rows in curves.items():
            bad += checks.check_oracle(rows, W, M, N_MAX, f"efficiency {method}")
        bad += checks.check_efficiency_properties(curves["ure"], curves["rhm"])
        if hashlib.sha256((self.dir / "hull.json").read_bytes()).hexdigest() != self.cache_digest:
            bad.append("efficiency: the run changed the hull cache file")
        return bad


class Select(Workload):
    """Sequential `riskhull select` calls (ure and rhm) on n=200 data files."""

    work_per_call = 1.0  # data files

    def write_inputs(self, d):
        rng = np.random.default_rng([self.seed, 1])
        self.data = []
        for i in range(SELECT_FILES):
            a = float(np.exp(rng.uniform(np.log(0.5), np.log(500.0))))
            ys = checks.signal(a, W, M, N_MAX) + np.sqrt(checks.sigma_sq(N_MAX)) * rng.standard_normal(N_MAX)
            path = d / f"data_{i}.csv"
            path.write_text("k,y\n" + "".join(f"{k},{float(y)!r}\n" for k, y in enumerate(ys, 1)), encoding="utf-8")
            self.data.append((path, ys))
        self.cfg = write_json(d / "select.json", config(d, "select", CACHE_SAMPLES, self.seed, "hull.json"))

    def prepare_checks(self):
        self.u0 = json.loads((self.dir / "hull.json").read_text(encoding="utf-8"))["U0"]

    def round(self):
        return [["select", "--config", str(self.cfg), "--out", str(self.dir / f"out_{i}"), str(path)]
                for i, (path, _) in enumerate(self.data)]

    def check(self, args):
        out = Path(args[args.index("--out") + 1])
        ys = {str(path): y for path, y in self.data}[args[-1]]
        selected = {m: int(n) for m, n in read_csv(out / "selection.csv")}
        bad = []
        if sorted(selected) != ["rhm", "ure"]:
            bad.append(f"select: selection.csv lists {sorted(selected)}")
        bad += checks.check_selection(ys, selected, self.u0, ALPHA)
        for method, N in selected.items():
            rows = [(int(k), float(v)) for k, v in read_csv(out / f"estimate_{method}.csv")]
            bad += checks.check_estimate(ys, N, rows, f"estimate_{method}.csv")
        return bad


WORKLOADS = {"hull-build": HullBuild, "efficiency": Efficiency, "select": Select}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Count, extremes and median of the timed calls."""
    if not values:
        return {"n": 0}
    return {"n": len(values), "min": min(values), "median": statistics.median(values), "max": max(values)}


class Report:
    """What a run attempted and what failed, for the report line."""

    def __init__(self):
        self.exit_codes = Counter()
        self.setup_exit_codes = Counter()
        self.attempted = self.failed = 0
        self.checks_attempted = self.checks_failed = 0
        self.failures: list[str] = []
        self.call_seconds: list[float] = []

    def setup_call(self, code: int) -> None:
        self.setup_exit_codes[code] += 1

    def call(self, code: int, err: str) -> bool:
        self.attempted += 1
        self.exit_codes[code] += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"exit {code}: {err.strip()[-300:]}")
        return code == 0

    def checked(self, bad: list[str]) -> None:
        self.checks_attempted += 1
        if bad:
            self.checks_failed += 1
            self.failures.extend(bad[:3])

    def as_dict(self) -> dict:
        return {
            "cli_calls": {"attempted": self.attempted, "failed": self.failed,
                          "exit_codes": {str(k): v for k, v in sorted(self.exit_codes.items())},
                          "setup_exit_codes": {str(k): v for k, v in sorted(self.setup_exit_codes.items())}},
            "checks": {"attempted": self.checks_attempted, "failed": self.checks_failed},
            "call_seconds": summary(self.call_seconds),
            "failures": self.failures[:10],
        }


def set_up(w: Workload, work: Path, report: Report, times: int) -> list[float]:
    """Set the workload up `times` times in fresh directories; keep the last."""
    seconds = []
    for i in range(times):
        d = work / f"setup_{i}"
        d.mkdir()
        t0 = time.perf_counter()
        w.setup(d, report)
        seconds.append(time.perf_counter() - t0)
    w.prepare_checks()
    return seconds


def untraced_run(w: Workload, seconds: float, report: Report) -> dict:
    times, rss = report.call_seconds, []
    start = time.perf_counter()
    while True:
        for args in w.round():
            code, dt, mb, err = run_child(cli_argv(args), w.dir)
            if report.call(code, err):
                times.append(dt)
                rss.append(mb)
                report.checked(w.check(args))
        if time.perf_counter() - start >= seconds:
            break
    if not times:
        raise RuntimeError("no CLI call succeeded")
    return {
        "call_s": statistics.median(times),
        "peak_rss_mb": statistics.median(rss),
        "work_per_s": w.work_per_call * len(times) / sum(times),
    }


def import_seconds(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def traced_run(w: Workload, seconds: float, report: Report) -> dict:
    sys.path.insert(0, str(SRC))
    import riskhull.cli
    import spans

    def call(args, tracer=None):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    return riskhull.cli.main(args), sink.getvalue()
                return tracer.span(spans.ROOT_KEY, riskhull.cli.main, args), sink.getvalue()
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1, sink.getvalue()

    tracer = spans.Tracer()
    plain = traced = 0.0
    calls = rounds = 0
    start = time.perf_counter()
    while True:
        for args in w.round():
            # alternate the order so neither side always runs on a warmer cache
            for use_trace in ((False, True) if rounds % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if use_trace:
                    spans.install(tracer)
                    try:
                        code, err = call(args, tracer)
                    finally:
                        tracer.unwrap()
                else:
                    code, err = call(args)
                dt = time.perf_counter() - t0
                if report.call(code, err):
                    report.checked(w.check(args))
                if use_trace:
                    traced += dt
                    calls += 1
                else:
                    plain += dt
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = {"cli.import_s": {"value": statistics.median(
        import_seconds("riskhull.cli") - import_seconds("numpy") for _ in range(IMPORT_PAIRS)), "unit": "s"}}
    metrics.update(spans.layer_metrics(tracer, calls))
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - plain) / plain, "unit": "%"}
    if tracer.absent:
        print(f"absent from the program: {sorted(tracer.absent)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "riskhull" / "cli.py").is_file():
        print(f"error: the riskhull sources are not at {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    w = WORKLOADS[args.workload](args.seed, nproc)
    report = Report()
    work = RESULTS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = set_up(w, work, report, 1 if args.trace else SETUPS)
        if args.trace:
            metrics = traced_run(w, args.seconds, report)
        else:
            values = untraced_run(w, args.seconds, report)
            values["setup_s"] = statistics.median(setup_s)
            units = {"setup_s": "s", "call_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(report.as_dict()), file=sys.stderr)
        return 1
    correct = report.checks_failed == 0 and report.checks_attempted > 0
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "python": sys.version.split()[0], "numpy": np.__version__,
        **report.as_dict(),
    }))
    if correct:
        shutil.rmtree(work)
    else:
        print(f"outputs kept in {work}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
