import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from qwmix import coined_walk, phase_gap, quantize_szegedy
import qwmix.cli as cli
from qwmix.cli import RunConfig, ConfigError, cache_key, main
from qwmix.experiments import Experiment, ExperimentResult, chain_from_spec, make_assertion

from conftest import csv_entries


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def dir_digest(dirname):
    h = hashlib.sha256()
    for f in sorted(os.listdir(dirname)):
        h.update(f.encode())
        with open(os.path.join(dirname, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


GAP_CONFIG = {
    "experiment": "gap_inequality_audit",
    "grid": {"chain": ["cycle:5", "cycle:7"], "T": [1.0, 5.0], "k_values": [[1, 2]]},
    "seed": 11,
    "cache": "use",
}


def test_run_config_validation():
    with pytest.raises(ConfigError, match="unknown experiment"):
        RunConfig.from_dict({"experiment": "nope", "grid": {}})
    with pytest.raises(ConfigError, match="missing keys"):
        RunConfig.from_dict({"experiment": "gap_inequality_audit"})
    with pytest.raises(ConfigError, match="do not match"):
        RunConfig.from_dict({"experiment": "gap_inequality_audit", "grid": {"T": [1]}})
    raw = {
        "experiment": "gap_inequality_audit",
        "grid": {"chain": ["cycle:3"], "T": [1.0, 2.0], "k_values": [[1]]},
    }
    cfg = RunConfig.from_dict(raw)
    assert len(cfg.jobs()) == 2
    assert cfg.seed == 0
    # only a JSON integer is a seed: no truncation of 1.7, no bool as 1
    for seed in ("abc", 1.7, True, -1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict(dict(raw, seed=seed))
    assert RunConfig.from_dict(dict(raw, seed=2**64 - 1)).seed == 2**64 - 1


def test_grid_job_cap():
    grid = {
        "chain": ["cycle:3"] * 101,
        "T": [float(t) for t in range(100)],
        "k_values": [[1]],
    }
    with pytest.raises(ConfigError, match="cap"):
        RunConfig.from_dict({"experiment": "gap_inequality_audit", "grid": grid})


def test_cache_key_sensitivity():
    base = cache_key("gap_inequality_audit", {"T": 1.0}, 0)
    assert cache_key("gap_inequality_audit", {"T": 2.0}, 0) != base
    assert cache_key("gap_inequality_audit", {"T": 1.0}, 1) != base
    assert cache_key("gap_inequality_audit", {"T": 1.0}, 0) == base


def test_cache_key_follows_package_sources(monkeypatch):
    base = cache_key("gap_inequality_audit", {"T": 1.0}, 0)
    assert len(cli._source_digest()) == 64
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cache_key("gap_inequality_audit", {"T": 1.0}, 0) != base


def test_run_end_to_end(tmp_path, capsys):
    cfg = dict(GAP_CONFIG, out=str(tmp_path / "results"))
    code = main(["run", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("computed ok") == 4
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert summary["all_hold"] is True
    assert summary["jobs"] == 4

    # second run hits the cache and leaves bytes unchanged
    digest = dir_digest(str(tmp_path / "results"))
    code = main(["run", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("cached ok") == 4
    assert dir_digest(str(tmp_path / "results")) == digest


def test_run_byte_identical_across_directories(tmp_path):
    cfg = dict(GAP_CONFIG)
    for out in ("r1", "r2"):
        code = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / out)])
        assert code == 0
        assert main(["report", str(tmp_path / out)]) == 0
    assert dir_digest(str(tmp_path / "r1")) == dir_digest(str(tmp_path / "r2"))


def test_run_refresh_recomputes(tmp_path, capsys):
    cfg = dict(GAP_CONFIG, out=str(tmp_path / "results"))
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--cache", "refresh"]) == 0
    assert capsys.readouterr().out.count("computed ok") == 4
    # `ignore` ran the same code as `refresh` and is gone, as flag and as key
    with pytest.raises(SystemExit) as info:
        main(["run", path, "--cache", "ignore"])
    assert info.value.code == 2
    assert main(["run", write_config(tmp_path, dict(cfg, cache="ignore"))]) == 2
    assert "cache must be one of" in capsys.readouterr().err


def test_run_seed_changes_cache_key(tmp_path, capsys):
    cfg = dict(GAP_CONFIG, out=str(tmp_path / "results"))
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--seed", "99"]) == 0
    assert capsys.readouterr().out.count("computed ok") == 4


def test_run_unknown_experiment_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "bogus_audit", "grid": {"x": [1]}})
    assert main(["run", path]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("body", [["experiment", "grid"], "gap_inequality_audit", 7, None])
def test_run_config_not_an_object_exits_2(tmp_path, capsys, body):
    assert main(["run", write_config(tmp_path, body), "--seed", "3"]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_dict(body)


def _short_assertion_row(good):
    payload = json.loads(good)
    payload["result"]["assertions"] = [["x"]]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "corrupt",
    [lambda _: "[]", lambda _: "7", lambda _: '"text"', lambda _: "null", _short_assertion_row],
    ids=["list", "number", "string", "null", "short_assertion_row"],
)
def test_run_malformed_cached_result_is_a_miss(tmp_path, capsys, corrupt):
    results = tmp_path / "results"
    cfg = dict(GAP_CONFIG, out=str(results))
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    first = sorted(results.glob("gap_inequality_audit-*.json"))[0]
    good = first.read_text()
    first.write_text(corrupt(good))
    capsys.readouterr()
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.count("cached ok") == 3 and out.count("computed ok") == 1
    assert first.read_text() == good


def test_run_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a registered experiment whose assertion always fails
    import qwmix.experiments as exp

    def failing_audit(x):
        bad = make_assertion("always_false", 2.0, 1.0)
        return ExperimentResult("failing_audit", {"x": x}, (), (bad,))

    entry = Experiment(failing_audit, {"x": int}, "an assertion that always fails")
    monkeypatch.setitem(exp.EXPERIMENTS, "failing_audit", entry)
    cfg = {
        "experiment": "failing_audit",
        "grid": {"x": [1, 2]},
        "out": str(tmp_path / "results"),
    }
    code = main(["run", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "always_false" in captured.err
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert summary["all_hold"] is False
    assert len(summary["failures"]) == 2
    assert summary["errors"] == []


@pytest.mark.parametrize("bad_chain", ["path:1", [5]])
def test_run_job_error_keeps_good_jobs(tmp_path, capsys, bad_chain):
    results = tmp_path / "results"
    cfg = {
        "experiment": "gap_inequality_audit",
        "grid": {"chain": ["cycle:5", bad_chain], "T": [2.0], "k_values": [[1, 2]]},
        "out": str(results),
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert "ValueError" in captured.err
    assert captured.out.count("computed ok") == 1
    payloads = [json.loads(f.read_text()) for f in results.glob("gap_inequality_audit-*.json")]
    assert [p["params"]["chain"] for p in payloads] == ["cycle:5"]
    summary = json.loads((results / "summary.json").read_text())
    assert summary["jobs"] == 2
    assert summary["all_hold"] is False
    assert summary["failures"] == []
    [(params, message)] = summary["errors"]
    assert params["chain"] == bad_chain
    assert message.startswith("ValueError: ")
    # the failed job wrote nothing, so it is computed again and fails again
    assert main(["run", path]) == 2
    assert capsys.readouterr().out.count("cached ok") == 1


@pytest.mark.parametrize("horizon", ["NaN", "Infinity", "-Infinity"])
def test_run_refuses_a_non_finite_horizon(tmp_path, capsys, horizon):
    # json.load accepts these names, so the rule itself must refuse them
    results = tmp_path / "results"
    path = tmp_path / "config.json"
    path.write_text(
        '{"experiment": "measurement_equivalence_audit", '
        f'"grid": {{"chain": ["cycle:5"], "T": [{horizon}]}}, "out": {json.dumps(str(results))}}}'
    )
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not list(results.glob("measurement_equivalence_audit-*.json"))


def test_run_unwritable_result_is_a_job_error(tmp_path, capsys):
    results = tmp_path / "results"
    cfg = {
        "experiment": "gap_inequality_audit",
        "grid": {"chain": ["cycle:5", "cycle:7"], "T": [2.0], "k_values": [[1, 2]]},
        "out": str(results),
    }
    blocked = {"T": 2.0, "chain": "cycle:5", "k_values": [1, 2]}
    key = cache_key("gap_inequality_audit", blocked, 0)
    blocked_path = results / f"gap_inequality_audit-{key[:12]}.json"
    blocked_path.mkdir(parents=True)
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {blocked_path}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out.count("computed ok") == 1
    summary = json.loads((results / "summary.json").read_text())
    assert summary["jobs"] == 2
    assert summary["all_hold"] is False
    [(params, message)] = summary["errors"]
    assert params == blocked
    assert message.startswith(f"IsADirectoryError: cannot write {blocked_path}: ")
    assert blocked_path.is_dir() and not list(blocked_path.iterdir())
    assert sorted(f.name for f in results.iterdir() if f.suffix == ".tmp") == []


def test_run_assertion_failure_and_job_error_exit_2(tmp_path, monkeypatch):
    import qwmix.experiments as exp

    def audit(x):
        if x == 0:
            raise ValueError("x must be nonzero")
        return ExperimentResult("mixed_audit", {"x": x}, (), (make_assertion("never", 2.0, 1.0),))

    monkeypatch.setitem(exp.EXPERIMENTS, "mixed_audit", Experiment(audit, {"x": int}, "mixed"))
    cfg = {"experiment": "mixed_audit", "grid": {"x": [0, 1]}, "out": str(tmp_path / "results")}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert len(summary["failures"]) == 1
    assert summary["errors"] == [[{"x": 0}, "ValueError: x must be nonzero"]]


def test_run_writes_through_unique_temporary_files(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    cfg = dict(GAP_CONFIG, out=str(results))
    params = RunConfig.from_dict(cfg).jobs()[0]
    result = results / f"gap_inequality_audit-{cache_key('gap_inequality_audit', params, 11)[:12]}.json"
    # directories in the way of a fixed "<name>.tmp" temporary file
    blockers = sorted([result.name + ".tmp", "summary.json.tmp"])
    for name in blockers:
        (results / name).mkdir()
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert result.is_file()
    names = os.listdir(results)
    assert len(names) == 4 + 1 + len(blockers)
    assert sorted(n for n in names if not n.endswith(".json")) == blockers


def test_report_handles_corrupt_files(tmp_path, capsys):
    cfg = dict(GAP_CONFIG, out=str(tmp_path / "results"))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    (tmp_path / "results" / "zz-broken.json").write_text("{oops")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "results")]) == 0
    captured = capsys.readouterr()
    assert "skipping corrupt result file" in captured.err
    report = (tmp_path / "results" / "report.md").read_text()
    assert "Skipped 1 corrupt result file(s)." in report
    assert "## gap_inequality_audit" in report
    csv_text = (tmp_path / "results" / "combined.csv").read_text()
    assert csv_text.startswith("experiment,param_hash,label,value")
    assert "assert:left_gap_bound" in csv_text


def test_report_skips_result_without_assertions(tmp_path, capsys):
    results = tmp_path / "results"
    cfg = dict(GAP_CONFIG, out=str(results))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    first = sorted(results.glob("gap_inequality_audit-*.json"))[0]
    payload = json.loads(first.read_text())
    del payload["result"]["assertions"]
    first.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(results)]) == 0
    assert f"skipping corrupt result file {first.name}" in capsys.readouterr().err
    report = (results / "report.md").read_text()
    assert report.count("| `{") == 3
    assert "Skipped 1 corrupt result file(s)." in report
    assert first.name.split("-")[1][:12] not in (results / "combined.csv").read_text()


@pytest.mark.parametrize(
    "key, rows",
    [
        ("assertions", [["x"]]),
        ("assertions", [["x", 1.0, 2.0, True, "extra"]]),
        ("assertions", [["x", 1.0, 2.0, "yes"]]),
        ("assertions", 7),
        ("measurements", [["x"]]),
        ("measurements", [["x", "not a number"]]),
    ],
)
def test_report_skips_malformed_rows(tmp_path, capsys, key, rows):
    results = tmp_path / "results"
    cfg = dict(GAP_CONFIG, out=str(results))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    first = sorted(results.glob("gap_inequality_audit-*.json"))[0]
    payload = json.loads(first.read_text())
    payload["result"][key] = rows
    first.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(results)]) == 0
    assert f"skipping corrupt result file {first.name}" in capsys.readouterr().err
    report = (results / "report.md").read_text()
    assert report.count("| `{") == 3
    assert "Skipped 1 corrupt result file(s)." in report


def test_report_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2
    assert "no readable result files" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "missing")]) == 2


def test_chain_export(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    assert main(["chain", "export", "lattice", "3,2", str(out)]) == 0
    np.testing.assert_array_equal(csv_entries(out), chain_from_spec("lattice:3,2").entries)
    assert main(["chain", "export", "blob", "3", str(out)]) == 2


def test_chain_export_past_the_state_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the claimed chain on Z_65^2 is built, but its 4225 x 4225 entries are
    # refused before they are formed, and no file is written
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    out = tmp_path / "chain.csv"
    assert main(["chain", "export", "lattice", "65,2", str(out)]) == 2
    captured = capsys.readouterr()
    assert "exceeds the configured cap of 4096" in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == []


def test_chain_export_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "chain.csv"
    assert main(["chain", "export", "cycle", "5", str(out)]) == 2
    assert f"error: cannot write {out}: No such file or directory" in capsys.readouterr().err


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, GAP_CONFIG)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["run", config, "--out", str(blocker / "sub")]) == 2
    assert f"error: cannot write {blocker / 'sub'}: Not a directory" in capsys.readouterr().err
    results = tmp_path / "results"
    (results / "summary.json").mkdir(parents=True)
    assert main(["run", config, "--out", str(results)]) == 2
    assert f"error: cannot write {results / 'summary.json'}" in capsys.readouterr().err


def test_report_unwritable_report_exits_2(tmp_path, capsys):
    results = tmp_path / "results"
    assert main(["run", write_config(tmp_path, dict(GAP_CONFIG, out=str(results)))]) == 0
    (results / "report.md").mkdir()
    capsys.readouterr()
    assert main(["report", str(results)]) == 2
    assert f"error: cannot write {results / 'report.md'}: Is a directory" in capsys.readouterr().err


def test_walk_spectrum(capsys):
    assert main(["walk", "spectrum", "ct", "cycle:5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    values = [float(x) for x in lines[:5]]
    assert values == sorted(values)
    assert lines[5].startswith("phase_gap ")
    assert main(["walk", "spectrum", "hadamard_cycle", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13 and lines[12].startswith("phase_gap ")
    assert main(["walk", "spectrum", "warp", "3"]) == 2


def test_walk_spectrum_solves_no_walk_sized_eigenproblem(capsys, monkeypatch):
    shapes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):

        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    for kind, params, build in (
        ("szegedy", "cycle:4", lambda: quantize_szegedy(chain_from_spec("cycle:4"))),
        ("hadamard_cycle", "6", lambda: coined_walk("hadamard_cycle", 6)),
        ("grover_lattice", "3,2", lambda: coined_walk("grover_lattice", 3, 2)),
    ):
        walk = build()
        shapes.clear()
        assert main(["walk", "spectrum", kind, params]) == 0
        assert shapes and all(walk.dim not in shape for shape in shapes), (kind, shapes)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == walk.dim + 1
        assert lines[-1] == f"phase_gap {phase_gap(walk):.17g}"


@pytest.mark.parametrize(
    "kind, params", [("hadamard_cycle", "2048"), ("grover_lattice", "32,2"), ("ct", "lattice:64,2")]
)
def test_walk_spectrum_at_the_default_cap_stays_small(kind, params, capsys, monkeypatch):
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    tracemalloc.start()
    try:
        assert main(["walk", "spectrum", kind, params]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4097 and lines[-1].startswith("phase_gap ")
    assert peak < 16 * 2**20
    if kind == "ct":
        # the walk on Z_64^2: (1/d) sum_j cos(2 pi k_j / n) over the wave vectors k
        c = np.cos(2.0 * np.pi * np.arange(64) / 64)
        expected = np.sort(np.add.outer(c, c).ravel() / 2.0)
        got = np.array([float(line) for line in lines[:-1]])
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_walk_spectrum_past_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QWMIX_STATE_CAP", "8")
    for kind, params in (("hadamard_cycle", "5"), ("szegedy", "cycle:3"), ("ct", "path:10")):
        assert main(["walk", "spectrum", kind, params]) == 2
        captured = capsys.readouterr()
        assert "exceeds the configured cap of 8" in captured.err
        assert captured.out == ""
