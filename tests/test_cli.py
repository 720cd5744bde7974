from __future__ import annotations

import copy
import errno
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskhull.bench
import riskhull.cli
import riskhull.hull
from riskhull import HullTable, McParams, SigmaSpec, build_hull_table, fingerprint, save_hull_table, unit_spec


@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "riskhull", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env,
        )

    return run


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


BASE_HULL_CFG = {
    "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 1.0},
    "experiment": {"n_max": 12},
    "hull": {"samples": 20000, "seed": 7, "cache": "hull.json"},
    "output": {"directory": "out"},
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_bad_config_field_message(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {"problem": {"kind": "power-law", "epsilon": -1, "beta": 0}})
    res = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 2
    assert "epsilon" in res.stderr


def test_missing_config_file(tmp_path, run_cli):
    res = run_cli("hull", "--config", "nope.json", cwd=tmp_path)
    assert res.returncode == 2


def test_unknown_kind_rejected(tmp_path, run_cli):
    doc = dict(BASE_HULL_CFG, experiment={"kind": "frobnicate"})
    cfg = write_config(tmp_path / "c.json", doc)
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 2
    assert "experiment.kind" in res.stderr


@pytest.mark.parametrize("section,field,value", [
    ("hull", "monotonize", "false"),
    ("hull", "monotonize", 0),
    ("experiment", "n_max", 12.9),
    ("experiment", "n_max", True),
    ("hull", "samples", "20000"),
    ("hull", "seed", False),
    ("selector", "alpha", True),
    ("problem", "beta", "1"),
    ("selector", None, "ure"),
    ("hull", None, 5),
    ("experiment", None, "kind"),
    ("selector", "methods", 5),
    ("selector", "methods", {"ure": 1}),
    ("selector", "methods", ["ure", "ure"]),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys, section, field, value):
    """A wrong-type value, or a whole section (field None) that is not an object."""
    doc = copy.deepcopy(BASE_HULL_CFG)
    doc[section] = value if field is None else dict(doc.get(section, {}), **{field: value})
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", doc)
    assert riskhull.cli.main(["hull", "--config", cfg]) == 2
    name = section if field is None else f"{section}.{field}"
    assert f"error: {name}: must be" in capsys.readouterr().err
    assert not (tmp_path / "hull.json").exists()


@pytest.mark.parametrize("field,value", [
    ("a", float("nan")), ("a", float("inf")), ("a", -1.0), ("a_grid", [float("nan")]), ("a_grid", [-1.0]),
], ids=["a-nan", "a-inf", "a-negative", "a_grid-nan", "a_grid-negative"])
def test_amplitude_must_be_finite_and_nonnegative(tmp_path, monkeypatch, capsys, field, value):
    # a NaN amplitude used to fail `a > 0` and run the stem on the zero signal
    doc = copy.deepcopy(BASE_HULL_CFG)
    doc["experiment"].update({"kind": "stem" if field == "a" else "efficiency", "reps": 5, field: value})
    monkeypatch.chdir(tmp_path)
    assert riskhull.cli.main(["bench", "--config", write_config(tmp_path / "c.json", doc)]) == 2
    assert f"error: experiment.{field}: must be" in capsys.readouterr().err
    assert not (tmp_path / "hull.json").exists()
    assert not (tmp_path / "out").exists()


def test_efficiency_reps_below_two_exits_2_before_any_file(tmp_path, monkeypatch, capsys):
    # reps 1 used to build and cache the hull, then fail without naming the field
    doc = dict(copy.deepcopy(BASE_HULL_CFG), selector={"methods": ["ure", "rhm"]})
    doc["experiment"].update({"kind": "efficiency", "reps": 1, "a_grid": [1.0]})
    monkeypatch.chdir(tmp_path)
    assert riskhull.cli.main(["bench", "--config", write_config(tmp_path / "c.json", doc)]) == 2
    assert "error: experiment.reps:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("values", [["1.5", True, 2], [2, True], "12", [1.0, -1.0]])
def test_explicit_values_must_be_positive_reals(tmp_path, monkeypatch, capsys, values):
    doc = dict(copy.deepcopy(BASE_HULL_CFG), problem={"kind": "explicit", "values": values})
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", doc)
    assert riskhull.cli.main(["hull", "--config", cfg]) == 2
    assert "error: problem.values: must be" in capsys.readouterr().err


def test_selector_n_max_is_rejected(tmp_path, monkeypatch, capsys):
    # the key used to bound select's search; ignoring it would change results silently
    doc = dict(copy.deepcopy(BASE_HULL_CFG), selector={"methods": ["ure"], "n_max": 3})
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", doc)
    assert riskhull.cli.main(["select", "--config", cfg, _data_file(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: selector.n_max:" in err and "experiment.n_max" in err


@pytest.mark.parametrize("command,section,key,value", [
    ("hull", "hull", "sampels", 10000),
    ("select", "selector", "method", ["rhm"]),
    ("bench", "experiment", "sed", 3),
    ("hull", "problem", "values", [1.0, 2.0]),  # not read by a power-law spec
    ("hull", "output", "formats", ["csv"]),
    ("hull", None, "hul", {"samples": 10000}),
])
def test_unknown_config_key_exits_2(tmp_path, monkeypatch, capsys, command, section, key, value):
    """A key that no field reads (section None: a top-level section) is refused before any write."""
    doc = copy.deepcopy(BASE_HULL_CFG)
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    monkeypatch.chdir(tmp_path)
    data = [_data_file(tmp_path)] if command == "select" else []
    assert riskhull.cli.main([command, "--config", write_config(tmp_path / "c.json", doc), *data]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"error: {name}: unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "hull.json").exists()
    assert not (tmp_path / "out").exists()


def test_config_accepts_integral_numbers_and_json_booleans():
    doc = copy.deepcopy(BASE_HULL_CFG)
    doc["experiment"]["n_max"] = 12.0
    doc["hull"].update(samples=2e4, monotonize=False)
    cfg = riskhull.cli.RunConfig(doc, {})
    assert (cfg.n_max, cfg.mc.samples, cfg.mc.monotonize) == (12, 20_000, False)
    assert type(cfg.n_max) is int and type(cfg.mc.samples) is int


# ---------------------------------------------------------------------------
# hull subcommand
# ---------------------------------------------------------------------------


def test_hull_build_then_cache_hit(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    first = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert "built" in first.stdout and "U0[1]" in first.stdout
    blob = (tmp_path / "hull.json").read_bytes()

    second = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert second.returncode == 0
    assert "cache hit" in second.stdout
    assert (tmp_path / "hull.json").read_bytes() == blob


def test_hull_nmax_one(tmp_path, run_cli):
    doc = dict(BASE_HULL_CFG, experiment={"n_max": 1})
    cfg = write_config(tmp_path / "c.json", doc)
    res = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    table = json.loads((tmp_path / "hull.json").read_text())
    assert table["U0"] == [0.0]


def test_hull_corrupted_cache_exits_3(tmp_path, run_cli, monkeypatch, capsys, malformed_hull_docs):
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    assert run_cli("hull", "--config", cfg, cwd=tmp_path).returncode == 0
    cache = tmp_path / "hull.json"
    saved = json.loads(cache.read_text())
    cache.write_text("{broken")
    res = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 3
    assert "hull cache" in res.stderr

    rebuilt = run_cli("hull", "--config", cfg, "--rebuild", cwd=tmp_path)
    assert rebuilt.returncode == 0

    # valid JSON of the wrong shape is a corrupt cache too, and is left as it is
    monkeypatch.chdir(tmp_path)
    for doc in malformed_hull_docs(saved):
        cache.write_text(json.dumps(doc))
        bad = cache.read_bytes()
        assert riskhull.cli.main(["hull", "--config", cfg]) == 3, doc
        assert "hull cache" in capsys.readouterr().err
        assert cache.read_bytes() == bad
        assert riskhull.cli.main(["hull", "--config", cfg, "--rebuild"]) == 0, doc
        capsys.readouterr()


def test_hull_too_steep_for_float32_exits_2_before_any_draw(tmp_path, monkeypatch, capsys):
    # (sigma_200/sigma_1)^2 = 200^18 overflows float32; the build must say so before drawing
    calls = []
    monkeypatch.setattr(np.random, "SFC64", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", dict(
        BASE_HULL_CFG, problem={"kind": "power-law", "epsilon": 1.0, "beta": 9.0},
        experiment={"n_max": 200}, hull={"samples": 10_000, "seed": 1, "cache": "hull.json"}))
    assert riskhull.cli.main(["hull", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "beta = 9.0 is too steep for N_max = 200" in err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["c.json"]  # no cache, no output directory


def test_hull_refused_allocation_exits_2(tmp_path, monkeypatch, capsys):
    class Refuse:
        @staticmethod
        def random_raw(*args, **kwargs):
            raise MemoryError

    # every build allocates its blocks in the block kernel's draw of raw words
    monkeypatch.setattr(np.random, "SFC64", lambda *args: Refuse())
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    assert riskhull.cli.main(["hull", "--config", cfg]) == 2
    # the build's worst case, N_max x samples x 4 bytes = 12 x 20000 x 4
    assert "960,000 bytes" in capsys.readouterr().err
    assert not (tmp_path / "hull.json").exists()


def test_hull_stale_cache_exits_3(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    assert run_cli("hull", "--config", cfg, cwd=tmp_path).returncode == 0
    doc = dict(BASE_HULL_CFG)
    doc["hull"] = dict(doc["hull"], seed=8)  # same cache path, different params
    cfg2 = write_config(tmp_path / "c2.json", doc)
    res = run_cli("hull", "--config", cfg2, cwd=tmp_path)
    assert res.returncode == 3
    assert "mismatch" in res.stderr


@pytest.mark.parametrize("tag", ["riskhull-hull-v1", "riskhull-hull-v2"], ids=["v1", "v2"])
def test_hull_cache_of_the_old_format_exits_3_naming_it(tmp_path, monkeypatch, capsys, tag):
    # v1 and v2 tables were drawn from older random streams: an explicit cache
    # path names the tag and --rebuild, and the default path never reads one
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    assert riskhull.cli.main(["hull", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "hull.json").read_text())
    assert doc["format"] == "riskhull-hull-v3"
    old = json.dumps(dict(doc, format=tag))
    (tmp_path / "hull.json").write_text(old)
    capsys.readouterr()
    assert riskhull.cli.main(["hull", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert f"'{tag}'" in err and "--rebuild" in err and "corrupted" not in err
    assert (tmp_path / "hull.json").read_text() == old
    assert riskhull.cli.main(["hull", "--config", cfg, "--rebuild"]) == 0
    assert json.loads((tmp_path / "hull.json").read_text())["format"] == "riskhull-hull-v3"

    # the default file of the old layout: keyed by the parameters alone in v1,
    # and by the v2 tag and the parameters in v2
    hull = dict(BASE_HULL_CFG["hull"])
    del hull["cache"]
    cfg = write_config(tmp_path / "d.json", dict(BASE_HULL_CFG, hull=hull))
    key = (fingerprint(unit_spec(SigmaSpec.power_law(1.0, 1.0))), 12, 20000, 7, True)
    if tag != "riskhull-hull-v1":
        key = (tag, *key)
    v1 = tmp_path / "out" / f"hull_{hashlib.sha256('|'.join(map(str, key)).encode()).hexdigest()[:16]}.json"
    v1.write_text(old)
    capsys.readouterr()
    assert riskhull.cli.main(["hull", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("hull built: ")
    assert v1.read_text() == old
    assert len(list(v1.parent.glob("hull_*.json"))) == 2  # the old file and the new one


def _half_noise_cfg(hull):
    return {
        "problem": {"kind": "power-law", "epsilon": 0.5, "beta": 1.0},
        "experiment": {"kind": "efficiency", "n_max": 12, "reps": 20, "seed": 2, "a_grid": [1.0]},
        "selector": {"methods": ["ure", "rhm"]},
        "hull": dict({"samples": 10000, "seed": 7}, **hull),
        "output": {"directory": "out"},
    }


def test_hull_and_bench_share_one_explicit_cache_per_shape(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", _half_noise_cfg({"cache": "hull.json"}))
    first = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert "built" in first.stdout
    blob = (tmp_path / "hull.json").read_bytes()
    assert json.loads(blob)["spec"]["epsilon"] == 1.0  # the table of unit_spec(spec)

    bench = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert bench.returncode == 0, bench.stderr
    assert (tmp_path / "hull.json").read_bytes() == blob
    last = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert last.returncode == 0, last.stderr
    assert "cache hit" in last.stdout
    assert last.stdout.splitlines()[1] == first.stdout.splitlines()[1]

    # a cache holding the table of the spec itself (the layout before
    # tables were keyed by shape) is stale
    spec = SigmaSpec.power_law(0.5, 1.0)
    save_hull_table(build_hull_table(spec, 12, McParams(samples=10000, seed=7)), spec, tmp_path / "hull.json")
    stale = run_cli("hull", "--config", cfg, cwd=tmp_path)
    assert stale.returncode == 3
    assert "stale cache" in stale.stderr
    assert run_cli("hull", "--config", cfg, "--rebuild", cwd=tmp_path).returncode == 0
    assert (tmp_path / "hull.json").read_bytes() == blob


def test_hull_and_bench_share_one_default_cache_per_shape(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", _half_noise_cfg({}))
    for command in ("hull", "bench", "hull"):
        res = run_cli(command, "--config", cfg, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    assert "cache hit" in res.stdout
    assert len(list((tmp_path / "out").glob("hull_*.json"))) == 1


# ---------------------------------------------------------------------------
# select subcommand
# ---------------------------------------------------------------------------


def _data_file(tmp_path, ys=(10.0, 3.0, 0.1)):
    path = tmp_path / "data.csv"
    lines = ["k,y"] + [f"{k},{y}" for k, y in enumerate(ys, start=1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_select_ure(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "selector": {"methods": ["ure"]},
        "output": {"directory": "out"},
    })
    res = run_cli("select", "--config", cfg, _data_file(tmp_path), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "ure: N = 2" in res.stdout
    sel = (tmp_path / "out" / "selection.csv").read_text().splitlines()
    assert sel == ["method,N_selected", "ure,2"]
    est = (tmp_path / "out" / "estimate_ure.csv").read_text().splitlines()
    assert est[0] == "k,value"
    assert [float(r.split(",")[1]) for r in est[1:]] == [10.0, 3.0, 0.0]


def test_select_rhm_with_crafted_hull(tmp_path, run_cli):
    spec = SigmaSpec.power_law(1.0, 0.0)
    table = HullTable(
        N_max=3,
        U0=np.array([0.0, 5.0, 5.0]),
        SigmaFourth=np.array([1.0, 2.0, 3.0]),
        spec_fingerprint=fingerprint(spec),
        mc_samples=10_000,
        seed=1,
        monotonized=True,
    )
    save_hull_table(table, spec, tmp_path / "hull.json")
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "experiment": {"n_max": 3},
        "selector": {"methods": ["rhm"], "alpha": 1.0},
        "hull": {"samples": 10000, "seed": 1, "cache": "hull.json"},
        "output": {"directory": "out"},
    })
    res = run_cli("select", "--config", cfg, _data_file(tmp_path), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "rhm: N = 1" in res.stdout


def test_select_rhm_without_hull_exits_4(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "selector": {"methods": ["rhm"]},
        "output": {"directory": "out"},
    })
    res = run_cli("select", "--config", cfg, _data_file(tmp_path), cwd=tmp_path)
    assert res.returncode == 4
    assert "hull" in res.stderr


_EXPLICIT_2 = {"problem": {"kind": "explicit", "values": [1.0, 1.0]}, "experiment": {"n_max": 2}}


@pytest.mark.parametrize("text, problem, message", [
    ("k,y\n1,10.0\n3,3.0\n", {}, "row 2: indices must be contiguous"),  # gap in k
    ("k,y\n", {}, "need a header row plus at least one (k, y) row"),
    ("k,y\n1,10.0,2.0\n", {}, "row 1: expected two columns (k, y), got 3"),
    ("k,y\n1,10.0\n2,abc\n", {}, "row 2: could not convert string to float"),
    ("k,y\n1,inf\n", {}, "row 1: y must be finite"),
    ("k,y\n1,10.0\n2,nan\n", {}, "row 2: y must be finite"),
    ("k,y\n1,10.0\n2,3.0\n3,0.1\n", _EXPLICIT_2, "has 3 rows but the explicit sigma table stops at 2"),
], ids=["gap", "header_only", "three_columns", "non_numeric", "inf", "nan", "past_sigma_table"])
def test_select_malformed_data_exits_2(tmp_path, run_cli, text, problem, message):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "selector": {"methods": ["ure"]},
        **problem,
    })
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    res = run_cli("select", "--config", cfg, str(bad), cwd=tmp_path)
    assert res.returncode == 2
    assert message in res.stderr


def test_select_skips_blank_lines(tmp_path, run_cli):
    # csv.reader reads a blank line as an empty row; LF or CRLF, trailing
    # blank lines change neither the selection nor a byte of its outputs
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "selector": {"methods": ["ure"]},
    })
    plain = "k,y\n1,3.0\n2,1.0\n3,0.5\n"
    variants = [plain, plain + "\n", plain + "\n\n", (plain + "\n\n").replace("\n", "\r\n")]
    outputs = []
    for i, text in enumerate(variants):
        (tmp_path / f"d{i}.csv").write_bytes(text.encode())
        res = run_cli("select", "--config", cfg, "--out", f"o{i}", f"d{i}.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append((res.stdout, *((tmp_path / f"o{i}" / name).read_bytes()
                                      for name in ("selection.csv", "estimate_ure.csv"))))
    assert outputs[0][0] == "ure: N = 1\n"
    assert all(out == outputs[0] for out in outputs[1:])


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------


def _stem_cfg(reps=150):
    return {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "experiment": {"kind": "stem", "reps": reps, "n_max": 30, "seed": 5},
        "selector": {"methods": ["ure"]},
        "output": {"directory": "out"},
    }


def test_bench_stem_outputs_and_manifest(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", _stem_cfg())
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    stem = (tmp_path / "out" / "stem_ure.csv").read_text().splitlines()
    assert stem[0] == "rep,N_selected,normalized_loss"
    assert len(stem) == 151
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["format"] == "riskhull-manifest-v10"
    assert manifest["config"]["selector"] == {"methods": ["ure"], "alpha": 1.1}
    assert manifest["command"] == "bench"
    assert manifest["config"]["output"] == {"directory": "out"}
    assert manifest["summary"]["ure"]["N_emp"] > 0
    assert manifest["config"]["experiment"]["seed"] == 5
    assert "riskhull" in manifest["versions"]


def test_bench_seed_flag_overrides_config(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", _stem_cfg())
    for args in (("--out", "o1"), ("--out", "o2", "--seed", "6")):
        res = run_cli("bench", "--config", cfg, *args, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    m1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert m1["config"]["experiment"]["seed"] == 5
    assert m2["config"]["experiment"]["seed"] == 6
    assert (tmp_path / "o1" / "stem_ure.csv").read_text() != (tmp_path / "o2" / "stem_ure.csv").read_text()


def test_bench_stem_methods_share_one_draw_per_replication(tmp_path, monkeypatch):
    rows = []
    normal_rows = riskhull.bench.normal_rows

    def counted(seed, first, n, out):
        rows.extend(range(first, first + len(out)))
        return normal_rows(seed, first, n, out)

    monkeypatch.setattr(riskhull.bench, "normal_rows", counted)
    monkeypatch.chdir(tmp_path)
    doc = dict(_stem_cfg(reps=100), selector={"methods": ["ure", "rhm"]},
               hull={"samples": 10000, "seed": 1})
    cfg = write_config(tmp_path / "c.json", doc)
    assert riskhull.cli.main(["bench", "--config", cfg]) == 0
    assert len(rows) == 100
    assert (tmp_path / "out" / "stem_rhm.csv").exists()


def test_bench_ratio(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 1.0},
        "experiment": {"kind": "ratio", "n_max": 10},
        "selector": {"alpha": 0.1},
        "hull": {"samples": 20000, "seed": 1},
        "output": {"directory": "out"},
    })
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "out" / "ratio.csv").read_text().splitlines()
    assert rows[0] == "N,rho,rho_tilde"
    assert len(rows) == 11
    first = rows[1].split(",")
    assert first[0] == "1" and float(first[1]) == 1.0


def test_bench_efficiency_small(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 2.0, "beta": 1.0},
        "experiment": {"kind": "efficiency", "reps": 60, "n_max": 20, "seed": 3,
                        "a_grid": [1.0, 10.0]},
        "selector": {"methods": ["ure", "rhm"], "alpha": 1.1},
        "hull": {"samples": 10000, "seed": 1},
        "output": {"directory": "out"},
    })
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    for name in ("efficiency_ure.csv", "efficiency_rhm.csv"):
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert lines[0] == "a,efficiency,std_error,oracle_N,oracle_risk"
        assert len(lines) == 3


_EFFICIENCY_URE = {
    "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 1.0},
    "experiment": {"kind": "efficiency", "reps": 20, "n_max": 10, "seed": 3, "a_grid": [1.0, 10.0, 100.0]},
    "output": {"directory": "out"},
}


def _raise_non_finite(*args):
    raise ValueError("observation entries must all be finite")


def _die(*args):
    os._exit(1)


def test_engine_worker_error_exits_2_as_in_the_serial_run(tmp_path, monkeypatch, capsys):
    # a forked worker inherits the patched engine; 20 reps are three blocks of 8
    monkeypatch.setattr(riskhull.bench, "_REP_BLOCK", 8)
    monkeypatch.setattr(riskhull.bench, "_replicate", _raise_non_finite)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", _EFFICIENCY_URE)
    errors = []
    for threads in ("1", "2"):
        assert riskhull.cli.main(["bench", "--config", cfg, "--threads", threads]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: observation entries must all be finite\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_engine_worker_killed_exits_2_naming_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(riskhull.bench, "_REP_BLOCK", 8)  # 20 reps are three blocks, so workers fork
    monkeypatch.setattr(riskhull.bench, "_replicate", _die)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", _EFFICIENCY_URE)
    assert riskhull.cli.main(["bench", "--config", cfg, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--threads" in err and "worker process" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_hull_worker_killed_exits_2_naming_threads(tmp_path, monkeypatch, capsys):
    # four blocks: the caller draws block 0, and a forked worker that draws any other dies
    fill = riskhull.hull._block_rows
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", 5_000)
    monkeypatch.setattr(riskhull.hull, "_block_rows",
                        lambda spec, N_max, mc, block: _die() if block else fill(spec, N_max, mc, block))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG)
    assert riskhull.cli.main(["hull", "--config", cfg, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--threads" in err and "worker process" in err
    assert sorted(os.listdir(tmp_path)) == ["c.json"]  # no cache, no output directory


def _refusing_fork(refusal):
    """An os.fork that the OS refuses with ENOMEM or EAGAIN, or with ENOMEM after one real fork ("once")."""
    real_fork, forks = os.fork, []

    def fork():
        if refusal == "once" and not forks:
            forks.append(real_fork())
            return forks[0]
        if refusal == "eagain":
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    return fork


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="forks workers and counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("refusal", ["enomem", "eagain", "once"])
@pytest.mark.parametrize("command", ["hull", "bench"])
def test_refused_fork_exits_2_naming_threads(tmp_path, monkeypatch, capsys, command, refusal):
    # both runs sweep three blocks on two workers, so they fork twice: "once" starts one real worker
    monkeypatch.setattr(riskhull.hull, "_SAMPLE_BLOCK", 5_000)
    monkeypatch.setattr(riskhull.bench, "_REP_BLOCK", 8)
    monkeypatch.setattr(os, "fork", _refusing_fork(refusal))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG if command == "hull" else _EFFICIENCY_URE)
    fds = len(os.listdir("/proc/self/fd"))
    assert riskhull.cli.main([command, "--config", cfg, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--threads" in err and "worker process" in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["c.json"]  # no cache, no CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["hull", "bench"])
def test_threads_below_one_exits_2(tmp_path, monkeypatch, capsys, command, threads):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", BASE_HULL_CFG if command == "hull" else _EFFICIENCY_URE)
    assert riskhull.cli.main([command, "--config", cfg, "--threads", threads]) == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


# sigma_3^2 = 3**800 overflows float64; at epsilon 1e-100 and beta 150, sigma_k^2 stays finite
# up to k = 20, but the unit shape's (sigma_11/sigma_1)^2 = 11**300 overflows
@pytest.mark.parametrize("epsilon,beta,k", [(1.0, 400.0, 3), (1e-100, 150.0, 11)])
@pytest.mark.parametrize("command", ["bench", "select"])
def test_overflowing_spectrum_exits_2_naming_problem_and_n_max(tmp_path, run_cli, command, epsilon, beta, k):
    # the config says so before any hull build or draw
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": epsilon, "beta": beta},
        "experiment": {"kind": "efficiency", "n_max": 20, "reps": 20, "a_grid": [0.5, 5.0]},
        "selector": {"methods": ["ure", "rhm"]},
        "hull": {"samples": 10_000, "seed": 1, "cache": "hull.json"},
    })
    data = [_data_file(tmp_path)] if command == "select" else []
    res = run_cli(command, "--config", cfg, *data, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr == (f"error: problem: sigma_k^2 overflows float64 at k = {k}, within experiment.n_max = 20; "
                          "lower experiment.n_max or flatten the spectrum\n")
    assert sorted(os.listdir(tmp_path)) == sorted(["c.json", *map(os.path.basename, data)])


def test_overflowing_running_sum_of_sigma_squared_exits_2(tmp_path, run_cli):
    # sigma_k^2 = 8.1e307 is finite, but the URE kernel's 2 * (sigma_1^2 + sigma_2^2) is not
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "explicit", "values": [9e153, 9e153, 9e153]},
        "experiment": {"kind": "stem", "reps": 5, "a": 1.0},
        "selector": {"methods": ["ure"]},
    })
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr == ("error: problem: 2 * sum_{j<=k} sigma_j^2 overflows float64 at k = 2, within "
                          "experiment.n_max = 3; lower experiment.n_max or flatten the spectrum\n")
    assert os.listdir(tmp_path) == ["c.json"]


# the running sums of sigma_k^4 a hull table holds must be finite, positive and strictly increasing;
# at epsilon 1e-90, sigma_1^4 = 1e-360 underflows, and 1 + 1e-40 rounds to 1
TINY = {"kind": "power-law", "epsilon": 1e-90, "beta": 1.0}


@pytest.mark.parametrize("command,problem,experiment,why", [
    ("hull", TINY, {"n_max": 10}, "sigma_k^4 underflows to 0 at k = 1"),
    ("bench", TINY, {"kind": "ratio", "n_max": 10}, "sigma_k^4 underflows to 0 at k = 1"),
    ("bench", {"kind": "explicit", "values": [1.0, 1e-10, 2.0]}, {"kind": "stem", "reps": 10},
     "sigma_k^4 is lost to rounding in the running sum at k = 2"),
    ("bench", {"kind": "explicit", "values": [1e-80, 1.0]}, {"kind": "stem", "reps": 10},
     "(sigma_k/sigma_1)^4 overflows float64 at k = 2"),
], ids=["hull-underflow", "ratio-underflow", "stem-lost-term", "stem-unit-shape-overflow"])
def test_spectrum_without_a_sigma_fourth_sum_exits_2_before_any_hull(tmp_path, monkeypatch, capsys, command,
                                                                     problem, experiment, why):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", {"problem": problem, "experiment": experiment,
                                             "selector": {"methods": ["rhm"]}, "hull": {"samples": 10_000}})
    assert riskhull.cli.main([command, "--config", cfg]) == 2
    n_max = experiment.get("n_max", len(problem.get("values", ())))
    assert capsys.readouterr().err == (f"error: problem: {why}, so no hull table can be made for "
                                       f"experiment.n_max = {n_max}; change the spectrum or experiment.n_max\n")
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("experiment,methods", [
    ({"kind": "efficiency", "reps": 20, "a_grid": [0.5, 5.0]}, ["ure", "rhm"]),  # at unit noise level
    ({"kind": "stem", "reps": 20}, ["ure"]),  # no hull
], ids=["efficiency", "ure-stem"])
def test_tiny_noise_level_runs_that_need_no_sigma_fourth_sum_exit_0(tmp_path, monkeypatch, experiment, methods):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", {"problem": TINY, "experiment": dict(experiment, n_max=10),
                                             "selector": {"methods": methods}, "hull": {"samples": 10_000}})
    assert riskhull.cli.main(["bench", "--config", cfg]) == 0


def test_cli_import_loads_no_pool_module(cli_env):
    # the process and thread pools cost start-up time; the CLI loads neither, and
    # the efficiency sweep and the hull build (three blocks here) fork their workers
    # without them
    code = ("import sys\n"
            "import riskhull.cli\n"
            "pools = ('multiprocessing', 'concurrent.futures')\n"
            "print(sorted(m for m in pools if m in sys.modules))\n"
            "riskhull.efficiency_curves(riskhull.SigmaSpec.power_law(1.0, 1.0), ['ure'], [0.5, 5.0, 50.0],\n"
            "                           6.0, 6.0, 20, 10, seed=1, workers=2)\n"
            "print(sorted(m for m in pools if m in sys.modules))\n"
            "riskhull.build_hull_table(riskhull.SigmaSpec.power_law(1.0, 1.0), 10,\n"
            "                          riskhull.McParams(samples=150_000, seed=1), threads=2)\n"
            "print(sorted(m for m in pools if m in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["[]", "[]", "[]", ""]


def test_only_the_process_entry_freezes_the_heap(tmp_path, monkeypatch, cli_env):
    # importing the entry module runs nothing, and cli.main, called in-process,
    # leaves the caller's collector as it was
    before = gc.isenabled(), gc.get_freeze_count()
    import riskhull.__main__

    cfg = write_config(tmp_path / "c.json", {"problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
                                             "selector": {"methods": ["ure"]}})
    monkeypatch.chdir(tmp_path)
    assert riskhull.cli.main(["select", "--config", cfg, "--out", "out", _data_file(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before

    # `python -m riskhull` goes through run(), which freezes before main()
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['riskhull', '--help']\n"
            "try:\n"
            "    runpy.run_module('riskhull', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(gc.get_freeze_count() > 0)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "True"

    # and the console script names that same run()
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["riskhull"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is riskhull.__main__.run


def test_bench_kind_select_redirects(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "experiment": {"kind": "select"},
    })
    res = run_cli("bench", "--config", cfg, cwd=tmp_path)
    assert res.returncode == 2
    assert "subcommand" in res.stderr


_HALF_NOISE = {"kind": "power-law", "epsilon": 0.5, "beta": 1.0}


@pytest.mark.parametrize("command,doc,flags", [
    ("bench", {"problem": _HALF_NOISE,
               "experiment": {"kind": "stem", "n_max": 14, "reps": 70, "a": 20.0, "W": 3},
               "selector": {"methods": ["ure", "rhm"]},
               "hull": {"samples": 10000, "seed": 2}}, ["--seed", "9"]),
    ("bench", {"problem": {"kind": "power-law", "epsilon": 2.0, "beta": 2.0},
               "experiment": {"kind": "efficiency", "n_max": 12, "reps": 30, "a_grid": [1, 10]},
               "selector": {"methods": ["rhm", "ure"], "alpha": 0.5},
               "hull": {"samples": 10000, "cache": "hull.json"}}, ["--out", "elsewhere"]),
    ("select", {"problem": {"kind": "explicit", "values": [0.4, 0.5, 0.9, 1.3, 2.0, 2.2]},
                "selector": {"methods": ["ure", "rhm"]},
                "hull": {"samples": 10000}}, []),
], ids=["stem-ure-rhm-half-noise", "efficiency", "select-explicit"])
def test_manifest_config_replays_the_run(tmp_path, monkeypatch, command, doc, flags):
    """The manifest's config, fed back in as the config, is a fixed point and reproduces every output byte."""
    data = [_data_file(tmp_path, ys=(9.0, 4.1, 3.3, 1.2, 0.5, -0.2))] if command == "select" else []

    def run(name, cfg, extra):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg_path = write_config(tmp_path / f"{name}.json", cfg)
        assert riskhull.cli.main([command, "--config", cfg_path, *extra, *data]) == 0
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        [manifest] = [json.loads(blob) for path, blob in files.items() if path.endswith("manifest.json")]
        return manifest, files

    manifest, files = run("first", doc, flags)
    replayed, replay_files = run("replay", manifest["config"], [])
    assert replayed["config"] == manifest["config"]
    assert replay_files == files
    assert any(path.endswith(".csv") for path in files)


def test_thread_count_does_not_change_any_output_byte(tmp_path, run_cli):
    # hull command
    hull_cfg = write_config(tmp_path / "h.json", dict(BASE_HULL_CFG, output={"directory": "h1"}))
    res = run_cli("hull", "--config", hull_cfg, "--threads", "1", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    hull_cfg2 = write_config(tmp_path / "h2.json", dict(
        BASE_HULL_CFG, hull={"samples": 20000, "seed": 7, "cache": "hull2.json"},
        output={"directory": "h2"}))
    res = run_cli("hull", "--config", hull_cfg2, "--threads", "3", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    a = json.loads((tmp_path / "hull.json").read_text())
    b = json.loads((tmp_path / "hull2.json").read_text())
    assert a["U0"] == b["U0"]

    # bench stem and efficiency commands, full byte comparison of every output;
    # past --threads 1 the efficiency run's replication blocks (three at 130 reps)
    # run on worker processes
    stem_cfg = write_config(tmp_path / "c.json", _stem_cfg(reps=100))
    eff_cfg = write_config(tmp_path / "e.json", dict(
        _EFFICIENCY_URE, experiment=dict(_EFFICIENCY_URE["experiment"], reps=130),
        selector={"methods": ["ure", "rhm"]}, hull={"samples": 10000, "seed": 1, "cache": "he.json"}))
    for kind, cfg, names, threads in (("stem", stem_cfg, ["stem_ure.csv"], ("1", "4")),
                                      ("eff", eff_cfg, ["efficiency_ure.csv", "efficiency_rhm.csv"], ("1", "3"))):
        outs = [tmp_path / f"{kind}-t{t}" for t in threads]
        for out, t in zip(outs, threads):
            res = run_cli("bench", "--config", cfg, "--out", str(out), "--threads", t, cwd=tmp_path)
            assert res.returncode == 0, res.stderr
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        m1, m2 = (json.loads((out / "manifest.json").read_text()) for out in outs)
        m1["config"]["output"]["directory"] = m2["config"]["output"]["directory"]
        assert m1 == m2
