from __future__ import annotations

import copy
import json
import subprocess
import sys

import numpy as np
import pytest

import riskhull.bench
import riskhull.cli
import riskhull.hull
from riskhull import HullTable, McParams, SigmaSpec, build_hull_table, fingerprint, save_hull_table


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


def test_hull_refused_allocation_exits_2(tmp_path, monkeypatch, capsys):
    class Refuse:
        def standard_normal(self, *args, **kwargs):
            raise MemoryError

    # every build allocates its blocks in the block kernel's draw
    monkeypatch.setattr(riskhull.hull, "rng_for", lambda *args: Refuse())
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


def test_select_malformed_data_exits_2(tmp_path, run_cli):
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "power-law", "epsilon": 1.0, "beta": 0.0},
        "selector": {"methods": ["ure"]},
    })
    bad = tmp_path / "bad.csv"
    bad.write_text("k,y\n1,10.0\n3,3.0\n")  # gap in k
    res = run_cli("select", "--config", cfg, str(bad), cwd=tmp_path)
    assert res.returncode == 2
    assert "contiguous" in res.stderr


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
    assert manifest["format"] == "riskhull-manifest-v3"
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

    def counted(keys, n, out):
        rows.extend(map(tuple, keys))
        return normal_rows(keys, n, out)

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

    # bench stem command, full byte comparison of every output
    cfg = write_config(tmp_path / "c.json", _stem_cfg(reps=100))
    for out, threads in (("t1", "1"), ("t2", "4")):
        res = run_cli("bench", "--config", cfg, "--out", out, "--threads", threads, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    for name in ("stem_ure.csv",):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    m1 = json.loads((tmp_path / "t1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "t2" / "manifest.json").read_text())
    m1["config"]["output"]["directory"] = m2["config"]["output"]["directory"]
    assert m1 == m2
