"""Experiment runner and CLI harness tests.

The load-bearing promises: a (config, seed) pair determines every emitted
byte, per-trial generators do not depend on how many trials run in total, and
the CSV / metadata files follow the documented schemas exactly.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import types

import numpy as np

import antijam
from antijam import load_config
from antijam.cli import main
from antijam.metrics import mean_ci
from antijam.presets import get_preset
from antijam.runner import METRICS, run_scenario, trial_generator


def tiny_markov(**overrides):
    doc = {
        "scenario": "markov",
        "name": "tiny",
        "num_users": 2,
        "num_channels": 3,
        "slots": 10,
        "trials": 2,
        "seed": 11,
        "algorithms": ["random", "sensing"],
    }
    doc.update(overrides)
    return doc


def small_stackelberg(**overrides):
    doc = get_preset("fig3-stackelberg")
    doc["slots"] = 60
    doc["trials"] = 2
    doc.update(overrides)
    return doc


def read_lines(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    assert text.endswith("\n")
    return text.splitlines()


# ---------------------------------------------------------------------------
# file emission

def test_per_slot_row_accounting(tmp_path):
    config = load_config(tiny_markov())
    run_scenario(config, out_dir=str(tmp_path))
    lines = read_lines(tmp_path / "per_slot.csv")
    assert lines[0] == "scenario,algorithm,trial,slot,metric,value"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 2 * 10 * len(METRICS)
    per_metric = {name: 0 for name in METRICS}
    seen = set()
    for scenario, algo, trial, slot, metric, value in rows:
        assert scenario == "tiny"
        assert algo in ("random", "sensing")
        assert 0 <= int(trial) < 2
        assert 0 <= int(slot) < 10
        per_metric[metric] += 1
        seen.add((algo, trial, slot, metric))
    assert all(count == 2 * 2 * 10 for count in per_metric.values())
    # no duplicate coordinates, so every (algo, trial, slot) has each metric once
    assert len(seen) == len(rows)


def test_values_use_shortest_round_trip_format(tmp_path):
    config = load_config(tiny_markov())
    run_scenario(config, out_dir=str(tmp_path))
    for line in read_lines(tmp_path / "per_slot.csv")[1:]:
        token = line.rsplit(",", 1)[1]
        assert token == repr(float(token))
    lines = read_lines(tmp_path / "summary.csv")
    assert lines[0] == "scenario,algorithm,metric,mean,ci_half_width,trials"
    for line in lines[1:]:
        scenario, algo, metric, mean, half, trials = line.split(",")
        assert mean == repr(float(mean))
        assert half == repr(float(half))
        assert trials == str(int(trials))


def test_same_seed_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(load_config(tiny_markov()), out_dir=str(a))
    run_scenario(load_config(tiny_markov()), out_dir=str(b))
    for name in ("per_slot.csv", "summary.csv", "metadata.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_actually_steers_the_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(load_config(tiny_markov(seed=11)), out_dir=str(a))
    run_scenario(load_config(tiny_markov(seed=12)), out_dir=str(b))
    assert (a / "per_slot.csv").read_bytes() != (b / "per_slot.csv").read_bytes()


def test_metadata_schema_and_round_trip(tmp_path):
    config = load_config(tiny_markov())
    run_scenario(config, out_dir=str(tmp_path))
    raw = (tmp_path / "metadata.json").read_text(encoding="utf-8")
    meta = json.loads(raw)
    assert sorted(meta) == ["config", "metrics", "ne_bound_trials", "r_max",
                            "seed_derivation"]
    assert meta["metrics"] == list(METRICS)
    assert meta["r_max"] > 0.0
    # the stored config is itself a loadable document and loses nothing
    again = load_config(meta["config"])
    assert again.to_document() == meta["config"]
    # canonical serialization, trivially diffable between runs
    assert raw == json.dumps(meta, indent=2, sort_keys=True) + "\n"


def test_unwritable_output_fails_before_simulating(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory\n")
    # slots large enough that actually simulating first would take minutes
    config = load_config(tiny_markov(slots=200000, trials=64))
    started = time.time()
    try:
        run_scenario(config, out_dir=str(blocker / "sub"))
        raised = False
    except OSError:
        raised = True
    assert raised
    assert time.time() - started < 5.0


# ---------------------------------------------------------------------------
# in-memory results

def test_trial_values_keep_their_prefix_when_extending():
    doc = tiny_markov(algorithms=["random", "collaborative"], slots=40)
    short = run_scenario(load_config(dict(doc, trials=2)))
    long = run_scenario(load_config(dict(doc, trials=5)))
    assert short.output_dir is None
    for algo in ("random", "collaborative"):
        for name in METRICS:
            key = f"final10_{name}"
            a = short.trial_values[algo][key]
            b = long.trial_values[algo][key]
            assert a.shape == (2,) and b.shape == (5,)
            assert np.array_equal(a, b[:2])
    # different trials see different randomness
    rates = long.trial_values["random"]["final10_rate_sum"]
    assert np.unique(rates).size > 1


def test_summary_rows_match_trial_values():
    result = run_scenario(load_config(tiny_markov(trials=4, slots=30)))
    table = {(algo, metric): (mean, half, trials)
             for _, algo, metric, mean, half, trials in result.summary_rows}
    for algo in ("random", "sensing"):
        for name in METRICS:
            key = f"final10_{name}"
            mean, half = mean_ci(result.trial_values[algo][key])
            got = table[(algo, key)]
            assert got[0] == mean
            assert got[1] == half
            assert got[2] == 4


def test_trial_generator_streams_are_distinct():
    draws = {}
    for ai in range(3):
        for ti in range(3):
            rng = trial_generator(7, ai, ti)
            draws[(ai, ti)] = tuple(rng.integers(0, 10 ** 9, size=4))
    assert len(set(draws.values())) == 9
    # and reproducible
    again = tuple(trial_generator(7, 2, 1).integers(0, 10 ** 9, size=4))
    assert draws[(2, 1)] == again


def test_oracle_rows_present_only_for_the_leader_game():
    plain = run_scenario(load_config(tiny_markov()))
    assert plain.oracle == {}
    assert all(algo != "oracle" for _, algo, *_ in plain.summary_rows)

    result = run_scenario(load_config(small_stackelberg()))
    keys = sorted(result.oracle)
    assert keys == ["best_ne_rate", "ne_trials_converged",
                    "stackelberg_leader_channel", "stackelberg_total_rate",
                    "worst_ne_rate"]
    assert result.oracle["best_ne_rate"] >= result.oracle["worst_ne_rate"]
    oracle_rows = [row for row in result.summary_rows if row[1] == "oracle"]
    assert len(oracle_rows) == 5
    assert all(row[4] == 0.0 for row in oracle_rows)
    assert "converged_greedy_rate" in result.trial_values["hierarchical"]


# ---------------------------------------------------------------------------
# command line

def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "antijam.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_run_with_overrides(tmp_path):
    out = tmp_path / "results"
    proc = run_cli("run", "--preset", "fig4-sweep", "--trials", "1",
                   "--slots", "30", "--seed", "9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "1 trials x 30 slots, seed 9" in proc.stdout
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["trials"] == 1
    assert meta["config"]["slots"] == 30
    assert meta["config"]["seed"] == 9
    assert (out / "per_slot.csv").exists()
    assert (out / "summary.csv").exists()


def test_cli_run_writes_to_the_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_markov(output_dir="from-config")))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "from-config" / "summary.csv").exists()
    assert not (tmp_path / "runs").exists()
    # --out still wins over the document
    assert main(["run", "--config", str(path), "--out", "from-flag"]) == 0
    assert (tmp_path / "from-flag" / "summary.csv").exists()


def test_cli_validate_and_presets_list(tmp_path):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(tiny_markov()))
    proc = run_cli("validate", "--config", str(good))
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: tiny")

    proc = run_cli("presets", "list")
    assert proc.returncode == 0
    for name in ("fig3-stackelberg", "fig4-comb", "fig4-sweep",
                 "fig5-hypergraph"):
        assert name in proc.stdout


def test_cli_config_errors_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    missing = tmp_path / "nowhere.json"
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(tiny_markov(chanels=4)))
    for path in (broken, missing, typo):
        proc = run_cli("run", "--config", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr
    proc = run_cli("validate", "--config", str(broken))
    assert proc.returncode == 2


def test_cli_runtime_errors_exit_3(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("file\n")
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(tiny_markov()))
    proc = run_cli("run", "--config", str(doc), "--out", str(blocker / "sub"))
    assert proc.returncode == 3
    assert "error:" in proc.stderr


def test_cli_rejects_oversized_leader_game_before_running(tmp_path):
    doc = small_stackelberg(num_users=2, num_channels=1000)
    del doc["geometry"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "cap" in proc.stderr
    out = tmp_path / "big-run"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()
    for users, channels in ((3, 100), (5, 15), (9, 6)):
        path.write_text(json.dumps(dict(doc, num_users=users,
                                        num_channels=channels)))
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


# ---------------------------------------------------------------------------
# public API

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_imports_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("from antijam")]
    assert lines
    for line in lines:
        exec(line, {})


def test_every_benchmark_hook_target_resolves():
    """perfbench's tracer hooks named functions of every layer; a refactor
    that drops or renames one fails here rather than in a benchmark run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_package_exports_only_the_readme_api():
    public = sorted(name for name, value in vars(antijam).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert public == ["GameSpec", "enumerate_pure_nash", "get_preset",
                      "load_config", "ne_bounds", "stackelberg_solve"]


# ---------------------------------------------------------------------------
# pinned output digests

def _partial_activity(preset, name, **overrides):
    doc = get_preset(preset)
    doc.update(name=name, **overrides)
    return doc


# Pinned runs that are not presets. Users are active with p < 1 in each, so
# every learner's handling of inactive users is pinned too.
CONFIG_CASES = {
    "random-reactive": {"scenario": "markov", "name": "random-reactive",
                        "num_users": 3, "num_channels": 4,
                        "active_probability": 0.8,
                        "jammers": [{"kind": "random"}, {"kind": "reactive"}]},
    "fig5-random-p07": _partial_activity("fig5-hypergraph", "fig5-random-p07",
                                         jammer={"kind": "random"},
                                         active_probability=0.7),
    "fig3-p08": _partial_activity("fig3-stackelberg", "fig3-p08",
                                  active_probability=0.8),
    "fig5-comb-p07": _partial_activity("fig5-hypergraph", "fig5-comb-p07",
                                       jammer={"kind": "comb",
                                               "comb_set": [0, 2]},
                                       active_probability=0.7),
}

# sha256 of (per_slot.csv, summary.csv, metadata.json) at --trials 2 --slots 200
PINNED_DIGESTS = {
    "fig3-stackelberg": (
        "cf01a288e2094acd7b2a83bd44a546c7e9af7f5fd0b2a958261f50b790c4f543",
        "6220c17e67b6f8f79622cdd7847d21895b15aab6f471e6b23af4d5e439aea9d2",
        "37c78e712a6a214e74165b2f995224e2a08726db432e2b5b9af61dcdd37e43d0"),
    "fig4-sweep": (
        "5e7b87bdd92f331c5a1a1b27bbd11663e9d7a8a00854c1688f637de8019e0029",
        "0defc4d206d5db69780c2213c252f0fa41cead069401514e80280f414197a828",
        "78f0cd565946d9371f5d756dd54e91c60e1a153746703a1b2230b821a40ce197"),
    "fig4-comb": (
        "85e207d1c33776d2e8bed582055eb4ddce32f97cd5deab3224db862ce2b30eb8",
        "f47bec480299736d948b551b7791696d91c8e5ce274fa65d64fa12da77697831",
        "ea038df406040768011c1e7c3446a47a34a821c622b328ffc674735dfaa4a7d7"),
    "fig5-hypergraph": (
        "cd22bd6b990a3d7e79a8f4428fc3be353eccd1243de8bb77e1e64e3aa9a322d1",
        "03b33b0af98889c1c05c6507dfb26c5b52de32b352c4ef17207fcd0bc0f12a35",
        "d44947406bdf2d1e65a01c20e3b2a3393d37f389af4e1b976f91b915e05fc803"),
    "random-reactive": (
        "4ef50b0bdf15df4ae7253d0d139ee6aab6ef86f61540b39c60042876cc8363de",
        "61c283ac76882afcfab7ff805fca8549afd2989f3bb659e30d0088e12e53be4b",
        "d10e593156775fbeacb6edaf435f2813e3d2c69094d9843d6b1349df8d2468cf"),
    "fig5-random-p07": (
        "416963442030ca5fbc812455f68a11179d5d7e02e55c4419042b9f3115e954d7",
        "02bd70e65d41ea304b0e707866b8e90cd2ac5e0caf6d09391ef3aa91ac646d31",
        "757759b0704f6b25a56e9ce1c6ea40a613aa832e4f71c09d7b07f0866b2f7a68"),
    "fig3-p08": (
        "4de8fad2d91e22d5d6f9c11a417b0ec6055f90f60abc0875f375161155ae833d",
        "932f1513f18e57684f9f4c29afbcb1c4bde2a6b1aabd608e0b7a6f9ea8343f87",
        "f2c1715bd057c11e69aa33647c72217a102a4721ada1b91a60cad916a59a7ad1"),
    "fig5-comb-p07": (
        "57b8ccf42d2b7e903399bd101ffade1bf61e64bef5bacb529c5a59f6777a69a0",
        "0f3166753ab970789a06eaf7442ee46889b8a49f63ca688c24313a0623791a7a",
        "404082645b9cf1f7d01cfb534926c7b156402350c5a2f8fe6a919515b3dfa1ad"),
}


def test_run_outputs_match_pinned_digests(tmp_path):
    """Every output byte is pinned across commits, not only between two runs
    of one checkout: a refactor of the slot loop, the learners or the jammers
    must leave these digests unchanged. Stream layout v2 (ROADMAP item 2)
    changes the per-trial draws, so it re-pins them on purpose."""
    got = {}
    for name in PINNED_DIGESTS:
        source = ["--preset", name]
        if name in CONFIG_CASES:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(CONFIG_CASES[name]))
            source = ["--config", str(path)]
        out = tmp_path / name
        assert main(["run", *source, "--trials", "2", "--slots", "200",
                     "--out", str(out)]) == 0
        got[name] = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("per_slot.csv", "summary.csv", "metadata.json"))
    assert got == PINNED_DIGESTS
