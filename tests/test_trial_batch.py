"""The batched slot loop against the per-trial reference loop.

runner.simulate_trial advances a block of (algorithm, trial) rows together;
reference_loop runs one trial of one algorithm at a time as the library did
before the trial axis. Every per-slot row of every trial, and every
per-trial extra, must be bitwise the same, for every algorithm, every jammer
list, partial activity and up to 9 users (numpy adds 9 or more terms in
another order than 8 or fewer). Blocks that straddle algorithms, in any
order of them, must give each row the reference's; a run whose rows pass
the block byte budget must write the per_slot.csv the reference rows give,
and a block must equal its trials run alone. Leader games are also run long
enough for their windows to straddle slot blocks. A block's traced memory
stays within its rows' estimate, and every preset and benchmark run is one
block.
"""

import importlib.util
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loop
from antijam import get_preset, load_config, runner
from antijam.config import ALGORITHMS
from antijam.env import max_single_user_rate
from antijam.games import GameSpec
from antijam.presets import preset_names
from antijam.runner import METRICS, run_scenario, simulate_trial, trial_generator

JAMMER_LISTS = ([{"kind": "fixed", "fixed_channel": 1}], [{"kind": "random"}],
                [{"kind": "sweep", "dwell": 2}],
                [{"kind": "comb", "comb_set": [0, 2]}], [{"kind": "reactive"}],
                [{"kind": "random"}, {"kind": "reactive"}])


@st.composite
def documents(draw, scenarios=tuple(ALGORITHMS)):
    """A small run of one algorithm: any scenario, jammer list, activity,
    up to 9 users and short learning windows."""
    scenario = draw(st.sampled_from(scenarios))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(3, 4))
    doc = {"scenario": scenario, "num_users": n, "num_channels": m,
           "slots": draw(st.integers(1, 40)),
           "seed": draw(st.integers(0, 2 ** 16)),
           "active_probability": draw(st.sampled_from([0.0, 0.5, 0.7, 1.0])),
           "algorithms": [draw(st.sampled_from(ALGORITHMS[scenario]))],
           "learning": {"window_slots": draw(st.integers(1, 5)),
                        "epsilon_decay": 0.9}}
    if scenario != "stackelberg":
        doc["jammers"] = draw(st.sampled_from(JAMMER_LISTS))
        doc["geometry"] = {"jammer_positions": [[0.0, 0.0]] * len(doc["jammers"])}
    if scenario == "hypergraph":
        pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
        groups = [list(range(i, i + 3)) for i in range(n - 2)]
        doc["hypergraph"] = {
            "source": "explicit",
            "strong_edges": draw(st.lists(st.sampled_from(pairs), unique_by=tuple,
                                          max_size=4)) if pairs else [],
            "weak_hyperedges": draw(st.lists(st.sampled_from(groups),
                                             unique_by=tuple, max_size=3))
            if groups else []}
    return doc


def reference_trials(config, algo_index, trials, model, r_max):
    """(per-slot arrays, extras) of each trial from the per-trial loop."""
    algo = config.algorithms[algo_index]
    runs = [reference_loop.simulate_trial(
        config, algo, trial_generator(config.seed, algo_index, ti), model, r_max)
        for ti in trials]
    return [r[0] for r in runs], [r[1] for r in runs]


def batched(config, trials):
    model = GameSpec("stackelberg", config.geometry, config.radio).rate_model
    r_max = max_single_user_rate(model)
    rngs = [trial_generator(config.seed, 0, ti) for ti in trials]
    per_slot, extras = simulate_trial(config, [config.algorithms[0]] * len(rngs),
                                      rngs, model, r_max)
    return per_slot, extras, model, r_max


def assert_same_rows(per_slot, extras, want, want_extras):
    """Rows and each row's extras, bitwise."""
    assert len(per_slot) == len(want) == len(extras) == len(want_extras)
    for got, ref in zip(per_slot, want):
        assert got.tobytes() == ref.tobytes()
    for got, ref in zip(extras, want_extras):
        assert set(got) == set(ref)
        for key in got:
            assert np.float64(got[key]).tobytes() == np.float64(ref[key]).tobytes()


@settings(max_examples=60)
@given(documents(), st.integers(1, 5))
def test_batched_rows_equal_the_reference(doc, num_trials):
    config = load_config(doc)
    per_slot, extras, model, r_max = batched(config, range(num_trials))
    assert per_slot.shape == (num_trials, config.slots, len(METRICS))
    want, want_extras = reference_trials(config, 0, range(num_trials), model, r_max)
    assert_same_rows(per_slot, extras, want, want_extras)


@settings(max_examples=20)
@given(documents(), st.integers(2, 6))
def test_a_block_equals_its_trials_run_alone(doc, num_trials):
    config = load_config(doc)
    block, extras, _, _ = batched(config, range(num_trials))
    for ti in range(num_trials):
        alone, alone_extras, _, _ = batched(config, [ti])
        assert_same_rows(block[ti:ti + 1], extras[ti:ti + 1], alone, alone_extras)


@pytest.mark.parametrize("p", [1.0, 0.6])
@pytest.mark.parametrize("window", [1, 7, 50, 256, 300])
@pytest.mark.parametrize("algo", ["random", "hierarchical"])
def test_leader_windows_across_slot_blocks_equal_the_reference(algo, window, p):
    """The window leader is priced once per window unless its users read
    rates, and a window may straddle the BLOCK_SLOTS boundary: 600 slots
    cross two of them, and every trial must still give the reference's rows."""
    config = load_config({
        "scenario": "stackelberg", "num_users": 4, "num_channels": 3,
        "slots": 600, "seed": 23, "active_probability": p,
        "algorithms": [algo], "learning": {"window_slots": window}})
    per_slot, extras, model, r_max = batched(config, range(3))
    want, want_extras = reference_trials(config, 0, range(3), model, r_max)
    assert_same_rows(per_slot, extras, want, want_extras)


def reference_csv(config):
    """per_slot.csv as the per-trial loop's rows give it."""
    model = GameSpec("stackelberg", config.geometry, config.radio).rate_model
    r_max = max_single_user_rate(model)
    lines = ["scenario,algorithm,trial,slot,metric,value\n"]
    for ai, algo in enumerate(config.algorithms):
        rows, _ = reference_trials(config, ai, range(config.trials), model, r_max)
        for ti, per_slot in enumerate(rows):
            lines += [f"{config.name},{algo},{ti},{t},{name},{float(v)!r}\n"
                      for t in range(config.slots)
                      for name, v in zip(METRICS, per_slot[t])]
    return "".join(lines).encode()


@settings(max_examples=6)
@given(documents(scenarios=("markov", "hypergraph")))
def test_runs_past_the_block_cap_write_the_reference_rows(tmp_path_factory, doc):
    """A byte budget of 32 rows cuts 2 algorithms of 34 trials into blocks
    of 32, 32 and 4 rows, splitting both algorithms."""
    doc = dict(doc, trials=34, slots=min(doc["slots"], 12),
               algorithms=list(ALGORITHMS[doc["scenario"]][:2]))
    config = load_config(doc)
    out = tmp_path_factory.mktemp("run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "BLOCK_BYTES", 32 * runner._row_bytes(config))
        run_scenario(config, out_dir=str(out))
    assert (out / "per_slot.csv").read_bytes() == reference_csv(config)


@st.composite
def mixed_runs(draw, trials=(1, 3)):
    """A short run of every algorithm of a scenario, in any order, so that
    a block may interleave users' rule classes, one rule per run of rows."""
    doc = draw(documents())
    algos = draw(st.permutations(ALGORITHMS[doc["scenario"]]))
    return dict(doc, algorithms=list(algos), slots=min(doc["slots"], 16),
                trials=draw(st.integers(*trials)))


@settings(max_examples=40)
@given(mixed_runs())
def test_blocks_that_straddle_algorithms_equal_the_reference(doc):
    """Rows in run order (algorithm-major, then trial), 3 at a time, so a
    block may hold rows of two or three algorithms and split an algorithm:
    each row and each row's extras (the hierarchical rows' converged_greedy_rate
    only) are the per-trial reference loop's, bitwise."""
    config = load_config(doc)
    model = GameSpec("stackelberg", config.geometry, config.radio).rate_model
    r_max = max_single_user_rate(model)
    runs = [(ai, ti) for ai in range(len(config.algorithms))
            for ti in range(config.trials)]
    for first in range(0, len(runs), 3):
        block = runs[first:first + 3]
        per_slot, extras = simulate_trial(
            config, [config.algorithms[ai] for ai, _ in block],
            [trial_generator(config.seed, ai, ti) for ai, ti in block],
            model, r_max)
        want = [reference_trials(config, ai, [ti], model, r_max)
                for ai, ti in block]
        assert_same_rows(per_slot, extras, [w[0][0] for w in want],
                         [w[1][0] for w in want])


def test_blocks_are_cut_in_run_order_by_the_byte_budget(monkeypatch):
    """Rows in run order, algorithm-major, cut every BLOCK_BYTES // row_bytes
    rows (at least one) wherever that falls, within an algorithm or between
    two; a run within the budget is one block."""
    def shapes(algorithms, trials, row_bytes):
        return [[(ai, sum(1 for a, _ in block if a == ai))
                 for ai in dict.fromkeys(a for a, _ in block)]
                for block in runner._blocks(algorithms, trials, row_bytes)]
    monkeypatch.setattr(runner, "BLOCK_BYTES", 1000)
    for algorithms, trials in ((3, 1), (4, 2), (2, 50), (4, 20), (1, 70)):
        for row_bytes in (1, 10, 32, 333, 999, 5000):
            blocks = runner._blocks(algorithms, trials, row_bytes)
            size = max(1, 1000 // row_bytes)
            assert [row for block in blocks for row in block] == [
                (ai, ti) for ai in range(algorithms) for ti in range(trials)]
            assert all(len(block) == size for block in blocks[:-1])
            assert 1 <= len(blocks[-1]) <= size
    assert shapes(4, 2, 10) == [[(0, 2), (1, 2), (2, 2), (3, 2)]]
    assert shapes(4, 20, 10) == [[(0, 20), (1, 20), (2, 20), (3, 20)]]
    assert shapes(4, 20, 40) == [[(0, 20), (1, 5)], [(1, 15), (2, 10)],
                                 [(2, 10), (3, 15)], [(3, 5)]]
    assert shapes(2, 50, 10) == [[(0, 50), (1, 50)]]
    assert shapes(2, 50, 32) == [[(0, 31)], [(0, 19), (1, 12)], [(1, 31)], [(1, 7)]]
    assert shapes(3, 10, 10) == [[(0, 10), (1, 10), (2, 10)]]
    assert shapes(3, 11, 100) == [[(0, 10)], [(0, 1), (1, 9)], [(1, 2), (2, 8)],
                                  [(2, 3)]]
    assert shapes(3, 1, 333) == [[(0, 1), (1, 1), (2, 1)]]
    assert shapes(2, 4, 333) == [[(0, 3)], [(0, 1), (1, 2)], [(1, 2)]]
    assert shapes(2, 2, 5000) == [[(0, 1)], [(0, 1)], [(1, 1)], [(1, 1)]]


@settings(max_examples=8)
@given(mixed_runs(trials=(1, 2)))
def test_runs_whose_blocks_straddle_algorithms_write_the_reference_rows(
        tmp_path_factory, doc):
    """run_scenario with a byte budget of 3 rows puts up to three algorithms
    of one trial in a block, and writes per_slot.csv in algorithm-major
    order, the reference rows' bytes."""
    config = load_config(doc)
    out = tmp_path_factory.mktemp("run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "BLOCK_BYTES", 3 * runner._row_bytes(config))
        run_scenario(config, out_dir=str(out))
    assert (out / "per_slot.csv").read_bytes() == reference_csv(config)


@pytest.mark.parametrize("preset, trials, algorithms", [
    pytest.param("fig4-sweep", 12, None, id="fig4-sweep"),
    pytest.param("fig5-hypergraph", 12, None, id="fig5-hypergraph"),
    pytest.param("fig3-stackelberg", 12, None, id="fig3-stackelberg"),
    pytest.param("fig4-sweep", 80, None, id="fig4-sweep-320-rows"),
    pytest.param("fig3-stackelberg", 150, None, id="fig3-stackelberg-300-rows"),
    pytest.param("fig3-stackelberg", 300, ["random"], id="fig3-random-300-rows")])
def test_a_blocks_traced_peak_stays_within_its_row_estimate(preset, trials,
                                                            algorithms):
    """_row_bytes bounds what a row adds to a block: every algorithm of a
    markov run (Q tables, priced per slot), a hypergraph run or a stackelberg
    run, and random users alone under the window leader (priced per window),
    300 slots, run as one block, peak below rows x row_bytes plus 1 MB that
    does not grow with the rows. The 300- and 320-row blocks pass BLOCK_SLOTS
    (slot, row) rows a slot, so their pricing is cut into several calls."""
    doc = dict(get_preset(preset), slots=300, trials=trials)
    if algorithms is not None:
        doc["algorithms"] = algorithms
    config = load_config(doc)
    model = GameSpec("stackelberg", config.geometry, config.radio).rate_model
    r_max = max_single_user_rate(model)
    rows = [(ai, ti) for ai in range(len(config.algorithms))
            for ti in range(trials)]
    algos = [config.algorithms[ai] for ai, _ in rows]
    rngs = [trial_generator(config.seed, ai, ti) for ai, ti in rows]
    tracemalloc.start()
    try:
        simulate_trial(config, algos, rngs, model, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(rows) * runner._row_bytes(config) + (1 << 20)


def test_every_preset_and_benchmark_run_is_one_block():
    """BLOCK_BYTES holds every bundled preset and every benchmark workload
    document, at both scales, in one block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = [get_preset(name) for name in preset_names()] + [
        workload.document(seed, scale) for workload in workloads.WORKLOADS.values()
        for seed in (1, 11) for scale in ("full", "tiny")]
    for doc in docs:
        config = load_config(doc)
        blocks = runner._blocks(len(config.algorithms), config.trials,
                                runner._row_bytes(config))
        assert len(blocks) == 1, config.name
