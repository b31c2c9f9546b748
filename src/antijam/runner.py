"""Seeded experiment execution and result emission.

One run = every configured algorithm x trials x slots. Each (algorithm, trial)
pair gets its own generator derived from SeedSequence((seed, algorithm_index,
trial_index)), so single trials can be reproduced in isolation and the whole
run is byte-deterministic.

Every (algorithm, trial) row of a run goes through the one slot loop in
simulate_trial, which advances a block of rows together along a leading row
axis. The rows are taken in run order, algorithm-major and then trial, and a
run is one block unless their arrays pass BLOCK_BYTES (_blocks). A
HierarchicalController pairs the jammer side of every row (WindowLeader in
stackelberg, ScriptedJammers' per-run schedule otherwise) with one users'
rule per run of rows of one rule class. run_scenario sorts a block's rows
by rule class, so that each class is one run, and reads them back in run
order. The controller keeps no slot of its own: begin_slot hands the jammer
side the slot's row of the block's (slot, row) jam masks and each rule its
slice of the slot's row of picks, so each slot's picks and jam mask are
written once, by the leader and the rules themselves, and the feedback and
the block's metrics read them there.
Stream layout v2: each slot of each row reads a fixed row of uniforms
whatever the state (the jammer side's, its users', then N for activity), so
extending `slots` keeps earlier slots. Each row draws from its own generator
BLOCK_SLOTS slots at a time, which yields the same numbers as one row per
slot, so neither block size nor a block's mix of algorithms changes a
result; the block's per-slot metrics are taken once it has run.

The rates are priced only where feedback reads them, and at the end of each
slot block, for its metrics: every slot when some rows' users are rewarded
by learning.rate_reward, the last slot of each window when the jammer side
is the window leader. Each pricing covers the slots since the last, for
every row, in calls of at most BLOCK_SLOTS (slot, row) rows. So a block
with rate-learning rows prices slot by slot, a window leader over other
users one window at a time, and scripted jammers over users that read no
rates (baseline users, automata rewarded by learning.interference_reward)
one row's slot block at a time; a call of many rows gives each row the bits
of its own one-row call. The controller is built per block, so the
interference reward's reuse of a repeated slot
(learning.interference_reward) never crosses blocks.

The loop checks its invariants at the boundary, not in every slot. The
config is checked when it is loaded; the pricing calls hand RateModel.rates
the block's own arrays with checked=False, and the automata step with
learning.sla_update(checked=False). What the skipped per-call check of
sla_update guarded, that every strategy stays on the simplex, is checked
at the end of each slot block, before the block's metrics and before
run_scenario writes any of its rows: a drifted strategy fails the run at
most BLOCK_SLOTS slots late, and leaves no output that looks complete.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .env import RateModel, max_single_user_rate
from .games import GameSpec, stackelberg_solve
from .jammers import ScriptedJammers
from .learning import (AutomataUsers, BaselineUsers, HierarchicalController,
                       QUsers, WindowLeader, _check_simplex, _runs,
                       interference_reward, rate_reward)
from .metrics import mean_ci, ne_bounds, network_rate, normalized_capacity

METRICS = ("rate_sum", "rate_mean_active", "normalized_capacity", "any_user_jammed")

NE_BOUND_TRIALS = 200

# Bytes of arrays one slot loop's block of rows may hold (_row_bytes each).
BLOCK_BYTES = 1 << 26

# Slots of uniforms each row draws at a time.
BLOCK_SLOTS = 256

SEED_DERIVATION = ("layout v2: per-trial generator: numpy default_rng(SeedSequence("
                   "(seed, algorithm_index, trial_index))), one fixed row of uniforms "
                   "per slot (jammer side, users, activity); oracle generator: "
                   "default_rng(SeedSequence((seed, 999983)))")


def trial_generator(seed: int, algorithm_index: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, algorithm_index,
                                                         trial_index)))


@dataclass
class RunResult:
    config: ScenarioConfig
    trial_values: dict          # algorithm -> metric -> np.ndarray over trials
    oracle: dict                # scenario-level oracle values (stackelberg only)
    summary_rows: list          # rows of summary.csv as tuples
    output_dir: str | None


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_slot_rows(fh, prefix: str, per_slot) -> None:
    """Write per_slot.csv's rows of one trial, from its (slots, METRICS)
    values, BLOCK_SLOTS slots at a time. Each distinct value of a block is
    formatted once with repr; values are told apart by their bits, so -0.0
    and 0.0 keep their own text."""
    for first in range(0, len(per_slot), BLOCK_SLOTS):
        block = per_slot[first:first + BLOCK_SLOTS]
        bits, which = np.unique(block.view(np.int64).reshape(-1),
                                return_inverse=True)
        text = [repr(value) for value in bits.view(np.float64).tolist()]
        heads = [f"{prefix},{t},{name},"
                 for t in range(first, first + len(block)) for name in METRICS]
        fh.write("\n".join([head + text[i]
                            for head, i in zip(heads, which.tolist())]) + "\n")


def _slot_metrics(choices, jammed, active, rates, r_max: float) -> np.ndarray:
    """(..., 4) METRICS of slots of trials (any leading axes), from the one
    per-slot sum of the active users' rates; a slot without active users has
    a sum of 0, and so a mean of 0."""
    total = network_rate(rates, active)
    hit = np.take_along_axis(jammed, choices, axis=-1) & active
    return np.stack([total, total / np.maximum(active.sum(axis=-1), 1),
                     normalized_capacity(total, rates.shape[-1], r_max),
                     hit.any(axis=-1)], axis=-1)


# ---------------------------------------------------------------------------
# the slot loop

# the users' rule class of each algorithm
_RULES = {"hierarchical": AutomataUsers, "hypergraph_sla": AutomataUsers,
          "graph_sla": AutomataUsers, "collaborative": QUsers,
          "independent_q": QUsers, "sensing": BaselineUsers,
          "random": BaselineUsers}


def _controller(config: ScenarioConfig, algos, r_max: float) -> HierarchicalController:
    """The controller of a block whose row r runs algos[r]: one leader over
    every row, one follower per run of rows of one rule class."""
    n, m, lp, hg = config.num_users, config.num_channels, config.learning, \
        config.hypergraph
    if config.scenario == "stackelberg":
        leader = WindowLeader(len(algos), m, lp)
    else:
        leader = ScriptedJammers(config.jammers, len(algos), m, config.slots)
    rewards = {"hierarchical": rate_reward(r_max)}
    if hg is not None:
        rewards.update(hypergraph_sla=interference_reward(hg),
                       graph_sla=interference_reward(hg.without_weak_edges()))
    # each rule class built over its rows, from their algorithms
    build = {
        AutomataUsers: lambda served: AutomataUsers(
            n, m, lp.step_size, [rewards[algo] for algo in served]),
        QUsers: lambda served: QUsers(
            n, m, lp, rate_reward(r_max), [algo == "collaborative" for algo in served]),
        BaselineUsers: lambda served: BaselineUsers(served, n, m),
    }
    return HierarchicalController(leader, [
        build[rule](algos[rows]) for rows, rule in _runs([_RULES[a] for a in algos])])


def simulate_trial(config: ScenarioConfig, algos, rngs, model: RateModel,
                   r_max: float):
    """A block of seeded (algorithm, trial) rows advanced together, row r
    running algos[r] on the generator rngs[r]; returns (rows x slots x
    metrics array, one dict of extras per row)."""
    n, m, rows = config.num_users, config.num_channels, len(rngs)
    ctl = _controller(config, algos, r_max)
    per_slot = np.empty((rows, config.slots, len(METRICS)))
    for first in range(0, config.slots, BLOCK_SLOTS):
        size = min(BLOCK_SLOTS, config.slots - first)
        # (slot, row) uniforms and activity, and what each slot of the block gave
        u = np.empty((size, rows, ctl.draws))
        active = np.empty((size, rows, n), dtype=bool)
        for r, (rng, k) in enumerate(zip(rngs, ctl.row_draws.tolist())):
            row = rng.random((size, k + n))
            u[:, r, :k] = row[:, :k]
            active[:, r] = row[:, k:] < config.active_probability
        choices = np.empty((size, rows, n), dtype=np.int64)
        jammed = np.empty((size, rows, m), dtype=bool)
        rates = np.empty((size, rows, n))
        priced = 0  # the block's slots priced so far
        for k in range(size):
            ctl.begin_slot(first + k, u[k], choices[k], jammed[k])
            fed = None  # the rates handed on after this slot
            if ctl.rates_due(first + k) or k == size - 1:
                # price the slots since the last priced, in calls of at most
                # BLOCK_SLOTS (slot, row) rows, so that the (rows, N, M)
                # intermediates stay bounded
                span = slice(priced, k + 1)
                step = max(1, BLOCK_SLOTS // (k + 1 - priced))
                for ri in range(0, rows, step):
                    cut = (span, slice(ri, ri + step))
                    rates[cut] = model.rates(choices[cut], jammed[cut],
                                             active[cut], checked=False)
                fed = rates[span]
                priced = k + 1
            ctl.end_slot(choices[k], jammed[k], fed, active[k])
        # the automata's steps skip sla_update's checks: a strategy gone off
        # the simplex fails the run here, before the block's metrics
        for _, rule in ctl.followers:
            if isinstance(rule, AutomataUsers):
                _check_simplex(rule.strategy.probs)
        per_slot[:, first:first + size] = _slot_metrics(
            choices, jammed, active, rates, r_max).swapaxes(0, 1)
    extras = [{} for _ in range(rows)]
    hierarchical = np.flatnonzero([algo == "hierarchical" for algo in algos])
    if len(hierarchical):
        # exploration-free snapshot: the leader's greedy channel against each
        # follower's most likely channel, every user active
        greedy = np.zeros((rows, n), dtype=np.int64)
        for served, rule in ctl.followers:
            if isinstance(rule, AutomataUsers):
                greedy[served] = rule.greedy()
        leader = np.arange(m) == ctl.leader.greedy()[hierarchical, None]
        totals = model.rates(greedy[hierarchical], leader,
                             np.ones((len(hierarchical), n), dtype=bool)).sum(axis=-1)
        for r, total in zip(hierarchical, totals):
            extras[r]["converged_greedy_rate"] = total
    return per_slot, extras


# ---------------------------------------------------------------------------
# full runs

def _row_bytes(config: ScenarioConfig) -> int:
    """An upper bound on the bytes one (algorithm, trial) row adds to a block:
    its (slots, METRICS) metrics; per slot of a slot block, its uniforms (at
    most 2N users' and J + 2 jammer side's), choices, rates, the temporaries
    of its metrics, activity and jam mask; its state, at most a Q table's."""
    n, m, j = config.num_users, config.num_channels, len(config.jammers)
    slot = 8 * ((2 * n + j + 2) + 2 * n + 2 * (len(METRICS) + n)) + n + m
    return 8 * (config.slots * len(METRICS) + n * (m + 1) * m) \
        + min(config.slots, BLOCK_SLOTS) * slot


def _blocks(num_algorithms: int, trials: int, row_bytes: int) -> list:
    """The run's (algorithm, trial) rows in run order, algorithm-major, cut
    into consecutive blocks of as many rows as BLOCK_BYTES holds, at least one."""
    size, rows = max(1, BLOCK_BYTES // row_bytes), num_algorithms * trials
    return [[divmod(r, trials) for r in range(first, min(first + size, rows))]
            for first in range(0, rows, size)]


def _oracle_values(config: ScenarioConfig, game: GameSpec) -> dict:
    if config.scenario != "stackelberg":
        return {}
    solution = stackelberg_solve(game)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 999983)))
    bounds = ne_bounds(game, frozenset({solution.leader_channel}),
                       num_trials=NE_BOUND_TRIALS, rng=rng)
    return {
        "best_ne_rate": bounds.best,
        "worst_ne_rate": bounds.worst,
        "stackelberg_total_rate": solution.total_rate,
        "stackelberg_leader_channel": float(solution.leader_channel),
        "ne_trials_converged": float(bounds.num_converged),
    }


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Execute every algorithm x trial and aggregate.

    When out_dir (or config.output_dir) is set, writes per_slot.csv,
    summary.csv, and metadata.json there. The directory is created and any
    earlier run's outputs removed first, so an unwritable path fails before
    any simulation work happens; per_slot.csv is written under a temporary
    name and renamed into place last, so a run that fails leaves no output
    that looks complete.
    """
    out = out_dir if out_dir is not None else config.output_dir
    slot_file = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        for name in ("per_slot.csv", "summary.csv", "metadata.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, name))
        slot_path = os.path.join(out, "per_slot.csv")
        partial = slot_path + ".partial"
        slot_file = open(partial, "w", encoding="utf-8", newline="\n")

    game = GameSpec("stackelberg", config.geometry, config.radio)  # the rate game
    model = game.rate_model  # one link budget: the slot loop's and the oracle's
    r_max = max_single_user_rate(model)
    tail = max(1, config.slots // 10)

    trial_values = {}
    summary_rows = []
    try:
        if slot_file is not None:
            slot_file.write("scenario,algorithm,trial,slot,metric,value\n")
        finals = np.empty((len(config.algorithms), config.trials, len(METRICS)))
        extras = [{} for _ in config.algorithms]
        for block in _blocks(len(config.algorithms), config.trials,
                             _row_bytes(config)):
            # one run per rule class (a stable sort); read back in (ai, ti) order
            block.sort(key=lambda row: _RULES[config.algorithms[row[0]]].__name__)
            per_slot, block_extras = simulate_trial(
                config, [config.algorithms[ai] for ai, _ in block],
                [trial_generator(config.seed, ai, ti) for ai, ti in block],
                model, r_max)
            for (ai, ti), trial_slots, row_extras in sorted(
                    zip(block, per_slot, block_extras), key=lambda row: row[0]):
                finals[ai, ti] = [column[-tail:].mean() for column in trial_slots.T]
                for key, value in row_extras.items():
                    extras[ai].setdefault(key, []).append(value)
                if slot_file is not None:
                    _write_slot_rows(slot_file, f"{config.name},"
                                     f"{config.algorithms[ai]},{ti}", trial_slots)
        for ai, algo in enumerate(config.algorithms):
            per_trial = {f"final10_{name}": finals[ai, :, mi].copy()
                         for mi, name in enumerate(METRICS)}
            for key in sorted(extras[ai]):
                per_trial[key] = np.array(extras[ai][key])
            trial_values[algo] = per_trial
            for key in per_trial:
                mean, half = mean_ci(per_trial[key])
                summary_rows.append((config.name, algo, key, mean, half,
                                     config.trials))

        oracle = _oracle_values(config, game)
        for key in sorted(oracle):
            trials = NE_BOUND_TRIALS if key.endswith("ne_rate") else 1
            summary_rows.append((config.name, "oracle", key, oracle[key], 0.0,
                                 trials))
    except BaseException:
        if slot_file is not None:
            slot_file.close()
            os.remove(partial)
        raise

    if out is not None:
        slot_file.close()
        with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("scenario,algorithm,metric,mean,ci_half_width,trials\n")
            for scenario, algo, metric, mean, half, trials in summary_rows:
                fh.write(f"{scenario},{algo},{metric},{_fmt(mean)},"
                         f"{_fmt(half)},{trials}\n")
        metadata = {
            "config": config.to_document(),
            "metrics": list(METRICS),
            "seed_derivation": SEED_DERIVATION,
            "ne_bound_trials": NE_BOUND_TRIALS,
            "r_max": r_max,
        }
        with open(os.path.join(out, "metadata.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(partial, slot_path)

    return RunResult(config=config, trial_values=trial_values, oracle=oracle,
                     summary_rows=summary_rows, output_dir=out)
