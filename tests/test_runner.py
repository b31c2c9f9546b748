"""Experiment runner and CLI harness tests.

The load-bearing promises: a (config, seed) pair determines every emitted
byte, per-trial generators do not depend on how many trials run in total, and
the CSV / metadata files follow the documented schemas exactly.
"""

import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import antijam
import reference_loop
from antijam import learning, load_config
from antijam.cli import main
from antijam.config import ALGORITHMS
from antijam.errors import ConfigError
from antijam.env import RateModel, max_single_user_rate
from antijam.metrics import mean_ci
from antijam.presets import get_preset
from antijam import runner
from antijam.runner import (METRICS, run_scenario, simulate_trial,
                            trial_generator)


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


def test_slot_rows_are_written_as_their_values_reprs(monkeypatch):
    """The emitter formats each distinct value of a slot block once: the
    bytes must be those of one repr per row, for signed zeros, subnormals,
    large integral values, repeats, neighbours one bit apart and values
    that are not finite, across block boundaries."""
    monkeypatch.setattr(runner, "BLOCK_SLOTS", 16)
    tiny = np.nextafter(0.0, 1.0)
    specials = [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e16,
                1e16 + 2, 0.1, np.nextafter(0.1, 1.0), np.nextafter(0.1, 0.0),
                1.0, 1.0, 0.5, np.inf, -np.inf, np.nan, 1 / 3, 123456789.0]
    rng = np.random.default_rng(3)
    values = rng.choice(np.array(specials), size=(41, len(METRICS)))
    values[::5] = rng.random((9, len(METRICS)))  # and some all-distinct rows
    out = io.StringIO()
    runner._write_slot_rows(out, "fig,algo,7", values)
    want = "".join(f"fig,algo,7,{t},{name},{value!r}\n"
                   for t, row in enumerate(values.tolist())
                   for name, value in zip(METRICS, row))
    assert out.getvalue() == want
    assert "-0.0\n" in want and ",0.0\n" in want and "5e-324" in want


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


def test_a_failed_run_leaves_no_output_that_looks_complete(tmp_path, monkeypatch):
    """A run that fails after simulating, here in the oracle, must not leave
    its per_slot.csv beside an earlier run's summary.csv and metadata.json,
    nor any of the earlier run's outputs."""
    out = tmp_path / "run"
    run_scenario(load_config(small_stackelberg(slots=30)), out_dir=str(out))
    assert sorted(os.listdir(out)) == ["metadata.json", "per_slot.csv",
                                       "summary.csv"]

    def broken(config, game):
        raise RuntimeError("oracle failed")

    monkeypatch.setattr(runner, "_oracle_values", broken)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_scenario(load_config(small_stackelberg(slots=60)), out_dir=str(out))
    assert os.listdir(out) == []


@pytest.mark.parametrize("slot", [128, 280], ids=["full-block", "last-block"])
def test_a_strategy_drifted_in_the_loop_fails_the_run(tmp_path, monkeypatch,
                                                      slot):
    """The automata's steps in the slot loop skip sla_update's checks, and
    the loop checks their strategies at the end of each slot block instead.
    A row pushed 1e-6 off the simplex after the update of a slot in the
    middle of the first, full 256-slot block of a 300-slot run, or in its
    last, 44-slot block, must fail the run by that block's end with a
    ConfigError, and leave no per_slot.csv, finished or partial. A step
    shrinks a row's drift by a factor 1 - b*r, so a small step size b keeps
    it past the 1e-9 tolerance until the check."""
    out = tmp_path / "run"
    doc = dict(get_preset("fig5-hypergraph"), trials=1, slots=300,
               algorithms=["hypergraph_sla"], learning={"step_size": 0.001})
    run_scenario(load_config(doc), out_dir=str(out))
    assert sorted(os.listdir(out)) == ["metadata.json", "per_slot.csv",
                                       "summary.csv"]
    learn, learned = learning.AutomataUsers.learn, []

    def drifting(self, *args):
        learn(self, *args)
        if len(learned) == slot:
            self.strategy.probs[0, 3, 1] += 1e-6
        learned.append(slot)

    monkeypatch.setattr(learning.AutomataUsers, "learn", drifting)
    with pytest.raises(ConfigError, match="sum to 1"):
        run_scenario(load_config(doc), out_dir=str(out))
    block_end = min(300, (slot // runner.BLOCK_SLOTS + 1) * runner.BLOCK_SLOTS)
    assert slot < len(learned) <= block_end
    assert os.listdir(out) == []


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


class RecordingRng:
    """A Generator proxy: notes the name of every method called on it and
    the shape of every block random() hands out."""

    def __init__(self, seed, trial):
        self._rng = trial_generator(seed, 0, trial)
        self.called = set()
        self.shapes = []

    def __getattr__(self, name):
        self.called.add(name)
        return getattr(self._rng, name)

    def random(self, size=None):
        self.called.add("random")
        out = self._rng.random(size)
        self.shapes.append(np.shape(out))
        return out


def drawn_per_slot(config, algo, trials=2):
    """A block of trials' per-slot metrics, and the rows of doubles each
    trial's generator handed out per slot: every block it drew is
    (slots, row), so its rows per slot are the set of the rows' lengths and
    its slot count their sum."""
    model = RateModel(config.geometry, config.radio)
    rngs = [RecordingRng(config.seed, ti) for ti in range(trials)]
    per_slot, _ = simulate_trial(config, [algo] * trials, rngs, model,
                                 max_single_user_rate(model))
    drawn = set()
    for rng in rngs:
        assert rng.called == {"random"}, f"{algo} called {sorted(rng.called)}"
        assert all(len(shape) == 2 for shape in rng.shapes), rng.shapes
        assert sum(rows for rows, _ in rng.shapes) == config.slots
        drawn |= {row for _, row in rng.shapes}
    return per_slot, drawn


JAMMER_LISTS = ([{"kind": "fixed", "fixed_channel": 1}], [{"kind": "random"}],
                [{"kind": "sweep", "dwell": 2}],
                [{"kind": "comb", "comb_set": [0, 2]}], [{"kind": "reactive"}],
                [{"kind": "random"}, {"kind": "reactive"}])

# uniforms a slot's users draw, per user: one channel draw, or a coin and one
USER_DRAWS = {"hierarchical": 1, "hypergraph_sla": 1, "graph_sla": 1,
              "random": 1, "sensing": 1, "collaborative": 2, "independent_q": 2}


@pytest.mark.parametrize("scenario,algo", [
    (scenario, algo) for scenario, algos in ALGORITHMS.items() for algo in algos])
def test_every_slot_draws_one_fixed_row_of_uniforms(monkeypatch, scenario, algo):
    """Stream layout v2: whatever the state, every slot of every trial draws
    the same count of doubles through random() alone (the jammer side's, the
    users', then one activity draw per user), so a shorter run is a prefix of
    a longer. Blocks of 16 slots put block boundaries inside both runs."""
    monkeypatch.setattr(runner, "BLOCK_SLOTS", 16)
    if scenario == "stackelberg":
        base = dict(small_stackelberg(), learning={"window_slots": 7})
        cases = [(base, 2)]
    else:
        base = dict(tiny_markov(scenario=scenario, num_users=3, num_channels=4),
                    seed=5)
        cases = [(dict(base, jammers=jammers),
                  sum(j["kind"] in ("random", "reactive") for j in jammers))
                 for jammers in JAMMER_LISTS]
    n = base["num_users"]
    for doc, jammer_draws in cases:
        for p in (0.0, 0.5, 1.0):
            run = dict(doc, active_probability=p, algorithms=[algo])
            long, drawn = drawn_per_slot(load_config(dict(run, slots=45)), algo)
            assert drawn == {jammer_draws + USER_DRAWS[algo] * n + n}, run
            short, _ = drawn_per_slot(load_config(dict(run, slots=17)), algo)
            assert short.tobytes() == long[:, :17].tobytes()


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


def test_a_leader_game_run_builds_its_link_budget_once(monkeypatch):
    built = []
    init = RateModel.__init__
    monkeypatch.setattr(RateModel, "__init__",
                        lambda self, *a: (built.append(1), init(self, *a))[1])
    run_scenario(load_config(small_stackelberg(trials=1, slots=5)))
    assert len(built) == 1


def count_rate_calls(monkeypatch):
    """The leading shape of every RateModel.rates call's choices."""
    calls = []
    rates = RateModel.rates
    monkeypatch.setattr(RateModel, "rates", lambda self, choices, *rest, **kwargs: (
        calls.append(np.shape(choices)), rates(self, choices, *rest, **kwargs))[1])
    return calls


def test_controllers_say_whether_their_feedback_reads_rates():
    """Users rewarded by rates learn from every slot's; the window leader
    learns from the rates after the last slot of each of its windows, the
    scripted jammers from none."""
    reads = {"hierarchical": True, "collaborative": True, "independent_q": True,
             "hypergraph_sla": False, "graph_sla": False, "random": False,
             "sensing": False}
    for scenario, algos in ALGORITHMS.items():
        config = load_config(tiny_markov(scenario=scenario, algorithms=list(algos),
                                         learning={"window_slots": 7}))
        for algo in algos:
            ctl = runner._controller(config, [algo] * 2, 1.0)
            assert [rule.reads_rates for _, rule in ctl.followers] == [reads[algo]]
            due = [t for t in range(30) if ctl.rates_due(t)]
            if reads[algo]:
                assert due == list(range(30)), algo
            elif scenario == "stackelberg":
                assert due == [6, 13, 20, 27], algo
            else:
                assert due == [], algo


def test_controller_serves_each_run_of_one_rule_class_with_one_rule():
    """_controller gives each run of rows of one users' rule class one rule
    over the run's slice, the slices consecutive from row 0, so that
    interleaved classes give one rule per run."""
    algos = ["collaborative", "sensing", "independent_q", "random"]
    config = load_config(tiny_markov(algorithms=algos))
    ctl = runner._controller(config, [a for a in algos for _ in range(2)], 1.0)
    assert [(rows, type(rule)) for rows, rule in ctl.followers] == [
        (slice(0, 2), learning.QUsers), (slice(2, 4), learning.BaselineUsers),
        (slice(4, 6), learning.QUsers), (slice(6, 8), learning.BaselineUsers)]
    for scenario, algos in ALGORITHMS.items():
        config = load_config(tiny_markov(scenario=scenario, algorithms=list(algos)))
        ctl = runner._controller(config, list(algos) * 2, 1.0)
        assert all(isinstance(rows, slice) for rows, _ in ctl.followers)
        assert [rows.stop for rows, _ in ctl.followers][-1] == 2 * len(algos)


def test_run_scenario_hands_each_rule_classs_rows_over_together(monkeypatch):
    """run_scenario sorts a block's rows by rule class, keeping run order
    within a class, so that each class is one rule even where the
    algorithms interleave classes; the summary stays in run order."""
    algos = ["collaborative", "sensing", "independent_q", "random"]
    blocks = []
    simulate = runner.simulate_trial
    monkeypatch.setattr(runner, "simulate_trial", lambda config, block, *rest: (
        blocks.append(list(block)), simulate(config, block, *rest))[1])
    result = run_scenario(load_config(tiny_markov(algorithms=algos)))
    (block,) = blocks
    classes = [runner._RULES[a] for a in block]
    assert len(learning._runs(classes)) == len(set(classes)) == 2
    for rule in set(classes):
        assert [a for a in block if runner._RULES[a] is rule] == [
            a for a in algos for _ in range(2) if runner._RULES[a] is rule]
    assert list(dict.fromkeys(row[1] for row in result.summary_rows)) == algos


def test_rates_are_priced_per_slot_only_where_feedback_reads_them(monkeypatch):
    """Rates are priced after each slot whose feedback reads them and at the
    end of each slot block, covering the slots since the last pricing, in
    calls of at most BLOCK_SLOTS (slot, row) rows, a row being an
    (algorithm, trial) pair: a (1, R, N) call per slot for a block with
    rate-rewarded users, one (K, R, N) call per window for the window
    leader's other users, one (K, 1, N) call per row and slot block for
    scripted jammers over users that read no rates."""
    calls = count_rate_calls(monkeypatch)
    fig5 = load_config(dict(get_preset("fig5-hypergraph"), trials=1, slots=300))
    run_scenario(fig5)
    n = fig5.num_users
    # the 44-slot block's three rows are 132 (slot, row) rows: one call
    assert calls == [(256, 1, n)] * 3 + [(44, 3, n)]

    def priced(config, algo, trials):
        calls.clear()
        model = RateModel(config.geometry, config.radio)
        simulate_trial(config, [algo] * trials,
                       [trial_generator(1, 0, ti) for ti in range(trials)],
                       model, max_single_user_rate(model))
        return list(calls)

    fig4 = load_config(dict(get_preset("fig4-sweep"), trials=2, slots=300))
    n = fig4.num_users
    # the Q rows read rates, so the block of all 8 rows is priced per slot
    calls.clear()
    run_scenario(fig4)
    assert calls == [(1, 8, n)] * 300
    for algo in fig4.algorithms:
        if algo in ("collaborative", "independent_q"):
            assert priced(fig4, algo, 2) == [(1, 2, n)] * 300, algo
        else:
            # the 44-slot block's two trials are 88 rows: one call
            assert priced(fig4, algo, 2) == [(256, 1, n)] * 2 + [(44, 2, n)], algo

    # the hierarchical users read every slot's rates, so the block of both
    # algorithms' rows is priced per slot; the greedy snapshot of the
    # hierarchical rows and the oracle's 6 calls follow: ne_bounds prices
    # each distinct equilibrium once, and the leader solve prices none
    calls.clear()
    stackelberg = load_config(small_stackelberg())
    run_scenario(stackelberg)
    n = stackelberg.num_users
    assert calls == [(1, 4, n)] * 60 + [(2, n)] + [(n,)] * 6
    # random users under the 50-slot window: a window, then the block's rest
    assert priced(stackelberg, "random", 2) == [(50, 2, n), (10, 2, n)]

    # 12 trials of a window are 600 rows: 5 trials a call
    assert priced(stackelberg, "random", 12) == \
        [(50, 5, n), (50, 5, n), (50, 2, n), (10, 12, n)]
    # 7-slot windows straddle 16-slot blocks
    monkeypatch.setattr(runner, "BLOCK_SLOTS", 16)
    windows = load_config(small_stackelberg(learning={"window_slots": 7}))
    assert priced(windows, "random", 2) == [(k, 2, n) for k in (
        7, 7, 2, 5, 7, 4, 3, 7, 6, 1, 7, 4)]
    # while rate-rewarded users still price each slot
    assert priced(windows, "hierarchical", 2) == [(1, 2, n)] * 60 + [(2, n)]


def test_a_repeated_slot_reuses_its_interference_reward(monkeypatch):
    """Converged automata repeat their slots, and a repeated slot's reward is
    handed back rather than counted again: a 1-trial, 300-slot fig5
    hypergraph_sla run counts the marginal interference in fewer slots than
    it runs. Its rows, and those of a p = 0.6 run, where the activity seldom
    repeats, are the per-trial reference loop's."""
    calls = []
    count = learning.marginal_interference
    monkeypatch.setattr(learning, "marginal_interference",
                        lambda *args: (calls.append(1), count(*args))[1])
    for p in (1.0, 0.6):
        config = load_config(dict(get_preset("fig5-hypergraph"), trials=1,
                                  slots=300, active_probability=p,
                                  algorithms=["hypergraph_sla"]))
        model = RateModel(config.geometry, config.radio)
        r_max = max_single_user_rate(model)
        calls.clear()
        got, _ = simulate_trial(config, ["hypergraph_sla"],
                                [trial_generator(config.seed, 0, 0)], model, r_max)
        if p == 1.0:
            assert len(calls) < config.slots
        want, _ = reference_loop.simulate_trial(
            config, "hypergraph_sla", trial_generator(config.seed, 0, 0), model,
            r_max)
        assert got[0].tobytes() == want.tobytes(), p


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


def test_bench_presets_refuses_an_unknown_preset_before_any_run():
    """An unknown preset name exits 2 with the known names, and the known
    preset given beside it is not run first."""
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_presets.py")
    proc = subprocess.run([sys.executable, tool, "--runs", "1", "--preset",
                           "fig5-hypergraph", "--preset", "fig5"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "unknown fig5;" in proc.stderr and "fig5-hypergraph" in proc.stderr


def test_bench_presets_reports_why_a_child_run_failed(tmp_path):
    """A parent checkout whose package fails to import stops the timing with
    the side, the preset and the child's own error, not a traceback of the
    tool."""
    package = tmp_path / "src" / "antijam"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'raise ImportError("this parent cannot be imported")\n')
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_presets.py")
    proc = subprocess.run([sys.executable, tool, "--runs", "1", "--preset",
                           "fig3-stackelberg", "--parent", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "the parent run of fig3-stackelberg failed" in proc.stderr
    assert "ImportError: this parent cannot be imported" in proc.stderr
    assert "CalledProcessError" not in proc.stderr


def test_bench_presets_child_reports_the_fastest_of_its_runs(tmp_path):
    """A child times CHILD_RUNS run_scenario calls of its preset and reports
    the fastest one's µs per unit and the sha256 of the last one's summary
    rows and trial values, as perfbench digests them: here a stub package
    whose three runs sleep 0.2, 0.05 and 0.2 s over 1000 units, and which
    fails a fourth."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_presets.py")
    spec = importlib.util.spec_from_file_location("bench_presets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    package = tmp_path / "src" / "antijam"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from types import SimpleNamespace\n"
        "def get_preset(name): return {}\n"
        "def load_config(doc):\n"
        "    return SimpleNamespace(algorithms=['a'], trials=1, slots=1000)\n")
    (package / "runner.py").write_text(
        "import time\n"
        "from types import SimpleNamespace\n"
        "NAPS = iter([0.2, 0.05, 0.2])\n"
        "def run_scenario(config):\n"
        "    time.sleep(next(NAPS))\n"
        "    return SimpleNamespace(summary_rows=[('s', 'a', 'm', 0.5, 0.0, 1)],\n"
        "                           trial_values={'b': {'y': [2.0]},\n"
        "                                         'a': {'x': [1.0], 'w': [0.0]}})\n")
    assert tool.CHILD_RUNS == 3
    us, rss_mb, digest = tool._measure(tmp_path, "any", {})
    assert 50.0 <= us < 200.0
    assert rss_mb > 0.0
    expected = hashlib.sha256(repr(("s", "a", "m", 0.5, 0.0, 1)).encode("utf-8"))
    for value in (0.0, 1.0, 2.0):  # a/w, a/x, b/y
        expected.update(np.float64(value).tobytes())
    assert digest == expected.hexdigest()


PARENT = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 9.7]


@pytest.mark.parametrize("change,resolved", [
    ([c - 1.0 for c in PARENT], True),               # 10/10, gap 1.0
    ([c - 1.0 for c in PARENT[:9]] + [10.5], True),  # 9/10 is enough
    ([c - 1.0 for c in PARENT[:8]] + [10.5, 10.5], False),  # 8/10 is not
    ([c - 1.0 for c in PARENT[:9]] + [PARENT[9]], True),    # a tie counts for neither
    ([c - 0.2 for c in PARENT], False),              # 10/10, gap 0.2 < IQR 0.35
    ([c + 1.0 for c in PARENT], False),              # slower
])
def test_bench_presets_resolves_a_gain_from_canned_samples(tmp_path, monkeypatch,
                                                           capsys, change, resolved):
    """With --parent, each preset's `resolved_gain` holds when the change ran
    faster in at least 9 of 10 alternating pairs and its median is below the
    parent's by more than the parent's interquartile range, and its
    `resolved_loss` in the mirror case, each sample as much slower than its
    pair's parent as the change's is faster; each side reports its runs'
    peak RSS and their median and their distinct output digests beside their
    µs per unit, and `outputs_equal` holds when all samples gave one digest."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_presets.py")
    spec = importlib.util.spec_from_file_location("bench_presets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "src" / "antijam").mkdir(parents=True)
    rss = {"parent": [60.0 + i for i in range(10)], "change": [70.0] * 10}
    mirror = [2 * p - c for p, c in zip(PARENT, change)]
    for runs, key in ((change, "resolved_gain"), (mirror, "resolved_loss")):
        samples = {side: iter(zip(side_runs, rss[side], "d" * 10))
                   for side, side_runs in (("parent", PARENT), ("change", runs))}
        monkeypatch.setattr(tool, "_measure", lambda checkout, preset, override: next(
            samples["change" if checkout == tool.ROOT else "parent"]))
        assert tool.main(["--parent", str(tmp_path), "--runs", "10",
                          "--preset", "fig5-hypergraph"]) == 0
        report = json.loads(capsys.readouterr().out)["presets"]["fig5-hypergraph"]
        assert report["parent"]["us_per_unit"] == PARENT
        assert report["change"]["us_per_unit"] == [round(c, 3) for c in runs]
        assert report[key] is resolved
        assert report["parent"]["peak_rss_mb"] == rss["parent"]
        assert report["parent"]["peak_rss_mb_median"] == 64.5
        assert report["change"]["peak_rss_mb_median"] == 70.0
        assert report["parent"]["digests"] == report["change"]["digests"] == ["d"]
        assert report["outputs_equal"] is True
    assert tool.resolved_gain(PARENT[:1], change[:1]) is False
    assert tool.resolved_loss(PARENT[:1], mirror[:1]) is False


def test_bench_presets_reports_unequal_outputs(tmp_path, monkeypatch, capsys):
    """One sample whose output digest differs from the rest, here the
    change's third, makes the preset's `outputs_equal` false, and its side
    lists both digests."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_presets.py")
    spec = importlib.util.spec_from_file_location("bench_presets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "src" / "antijam").mkdir(parents=True)
    samples = {"parent": iter(zip(PARENT, [60.0] * 4, "dddd")),
               "change": iter(zip(PARENT, [60.0] * 4, "dded"))}
    monkeypatch.setattr(tool, "_measure", lambda checkout, preset, override: next(
        samples["change" if checkout == tool.ROOT else "parent"]))
    assert tool.main(["--parent", str(tmp_path), "--runs", "4",
                      "--preset", "fig5-hypergraph"]) == 0
    report = json.loads(capsys.readouterr().out)["presets"]["fig5-hypergraph"]
    assert report["outputs_equal"] is False
    assert report["parent"]["digests"] == ["d"]
    assert report["change"]["digests"] == ["d", "e"]


def test_size_counts_code_lines_without_docstrings_comments_or_blanks():
    """tools/size.py's code lines leave out blank lines, comment-only lines
    and every line of a docstring, and count each line of a statement that
    spans several, a multi-line string that is not a docstring included."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "size.py")
    spec = importlib.util.spec_from_file_location("size", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = "\n".join([
        '"""A module docstring',
        "",
        'over three lines."""',
        "",
        "# a comment",
        "import os  # a comment after code",
        "",
        "def f(x,",
        "      y):",
        '    """One line."""',
        "    # inside",
        '    text = """two',
        '    lines"""',
        "    return x + y", ""])
    assert tool.code_lines(source) == 6
    assert tool.public_names(source) == ["f"]


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
        "d063ecacb6cffcfc228fc064cebc06d0b6ca9c577fa3a9b9407e3c482f2b281a",
        "ae58a8a556cd6c55c45fa39078e909ffca4690bade9f2a51ae21bf3bd9e67564",
        "be5a896db84014641d4fdbadb9beda0aaf624bad07fa504c63efc182dd917076"),
    "fig4-sweep": (
        "82b126eb28707ac49206de37282cffae87268d88eb1f6d155ce8c3f3ba9ea1a6",
        "00249f8454c1082539f78c4894a57fe2407ade91a3300de3afcd72afcc352dd4",
        "69ca6b245590760a2945ba251d6215423ffbea0783d37d1712ad5a76c25cffa1"),
    "fig4-comb": (
        "12f6c3eccc4cdc5cc19c4da6cc8baa3c2dfe424e5b4e9330e0726e285ef3be44",
        "f71f75350e63f2a75ab8527b0dbfda0d45f1f5a1f7763f66fe4a775ef54e740b",
        "9e809519185e2f8862fec1edceb541d6b15cf5f522c53fc3099250ac8ebf8b6f"),
    "fig5-hypergraph": (
        "1ff32171717675f6993db845fc409ce763a6c79c643154db7ff9a01c3d0b8e8c",
        "1aa0a7596c56665646193ad46f04069baec4a69f81a1937927effe13f3250113",
        "fdae5e765844787b797349c7ed7205d02a7dab2c35bc043a2d4a835c88534778"),
    "random-reactive": (
        "8bc19911b4800117676d9ed4d3dc68d9be3813e9df04225b6b9072ab355a6535",
        "b03893b3a3df3b85fe43d98a93b3ab08e505272445a0dbcbfee9df2a4e18b1a1",
        "e8ea08e3222ebb0d4dafcc8c12df3f8e6d8776a48edc8cd7a8ad8fda3a9f505e"),
    "fig5-random-p07": (
        "712bf817a4836568fd58dad350ae52c970fa1d004fd1b3f5c026a8bef01fc612",
        "5486ec7051992a96d75de41a6b9364bbc44ef638ac14fb8a53d5f486d05a838c",
        "60acb646fb7e5d54fa23eddc67894c0f80cc50413e08346511ef09d97d32c4e8"),
    "fig3-p08": (
        "6b5401e00a1f10ad819265b0a276aa165507cf0e9e7941852a5d2417ef66808e",
        "13839177de83db28e0ac28b7060cfc136a324511f8c883b049885f9bb4447287",
        "301973d67539fda2569fd4732073ea3fc7f39d7d21c673d20b783c13f4a838d6"),
    "fig5-comb-p07": (
        "fe2161fddb5178d3f94e216ce101cabe2ae2d4e76448b92a139ba3f14efb6544",
        "c43108eeeb43e2e7defc066815032cb1dcf75326ea6d169f1b5479cdab0ad968",
        "b57ae4cf0aea2e7ca3039292c21a0743fcc98c179b5975f51afb014161fcd922"),
}


def _run_pinned_case(name, tmp_path):
    """The named preset or CONFIG_CASES run at --trials 2 --slots 200."""
    source = ["--preset", name]
    if name in CONFIG_CASES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CONFIG_CASES[name]))
        source = ["--config", str(path)]
    out = tmp_path / name
    assert main(["run", *source, "--trials", "2", "--slots", "200",
                 "--out", str(out)]) == 0
    return out


def test_run_outputs_match_pinned_digests(tmp_path):
    """Every output byte is pinned across commits, not only between two runs
    of one checkout: a refactor of the slot loop, the learners or the jammers
    must leave these digests unchanged. They were re-pinned on purpose for
    stream layout v2, which changed the per-trial draws."""
    got = {}
    for name in PINNED_DIGESTS:
        out = _run_pinned_case(name, tmp_path)
        got[name] = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("per_slot.csv", "summary.csv", "metadata.json"))
    assert got == PINNED_DIGESTS


# sha256 of each SLA algorithm's rows of per_slot.csv at --trials 2 --slots 200
SLA_ROW_DIGESTS = {
    ("fig5-hypergraph", "hypergraph_sla"):
        "d9bb07bc6e76aeb1d087f099fef27d7e5b9cbaaae7abf5293e40f608b2fb11f8",
    ("fig5-hypergraph", "graph_sla"):
        "968f36866bbbd276c6e09b6d1d3e911ae80fdf472438094a74e540b01fd4096c",
    ("fig5-comb-p07", "hypergraph_sla"):
        "129a4998d8247d80df73825370ea4c49c55c87503c6ef5889b4dc0daa1d7904f",
    ("fig5-comb-p07", "graph_sla"):
        "73c3d38ff5958267023c1276e939a9cc6b6201453e0bbc703536512b2dfd6238",
}


def test_sla_rows_keep_their_pinned_digests(tmp_path):
    """The SLA users draw N uniforms a slot, the activity N more, and fixed
    and comb jammers none, so these rows hold across the stream layouts: they
    are the same under layout v1 and v2."""
    got = {}
    for name in ("fig5-hypergraph", "fig5-comb-p07"):
        lines = read_lines(_run_pinned_case(name, tmp_path) / "per_slot.csv")
        for algo in ("hypergraph_sla", "graph_sla"):
            rows = "".join(line + "\n" for line in lines
                           if line.split(",")[1] == algo)
            got[(name, algo)] = hashlib.sha256(rows.encode()).hexdigest()
    assert got == SLA_ROW_DIGESTS
