"""Seeded experiment execution and result emission.

One run = every configured algorithm x trials x slots. Each (algorithm, trial)
pair gets its own generator derived from SeedSequence((seed, algorithm_index,
trial_index)), so single trials can be reproduced in isolation and the whole
run is byte-deterministic.

Every algorithm runs through the one slot loop in simulate_trial, which
advances a block of up to BLOCK_TRIALS trials together along a leading
trial axis: a HierarchicalController pairs the jammer side (WindowLeader in
stackelberg, ScriptedJammers' per-run schedule otherwise) with the users'
rule. Stream layout v2: each slot of each trial reads a fixed row of
uniforms whatever the state (the jammer side's, the users', then N for
activity), so extending `slots` keeps earlier slots. Each trial draws its rows
from its own generator BLOCK_SLOTS slots at a time, which yields the same
numbers as one row per slot, so neither block size changes a result; the
block's per-slot metrics are taken once it has run.

The rates are priced only where feedback reads them, and at the end of each
slot block, for its metrics: every slot when the users are rewarded by
learning.rate_reward, the last slot of each window when the jammer side is
the window leader. Each pricing covers the slots since the last, for every
trial, in calls of at most BLOCK_SLOTS (slot, trial) rows. So a rate-learning
run prices slot by slot, a window leader over other users one window at a
time, and scripted jammers over users that read no rates (baseline users,
automata rewarded by learning.interference_reward) one trial's block at a
time; a call of many rows gives each row the bits of its own one-row call.
The controller is built per trial block, so the interference reward's reuse
of a repeated slot (learning.interference_reward) never crosses blocks.
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
                       QUsers, WindowLeader, interference_reward, rate_reward)
from .metrics import mean_ci, ne_bounds, network_rate, normalized_capacity

METRICS = ("rate_sum", "rate_mean_active", "normalized_capacity", "any_user_jammed")

NE_BOUND_TRIALS = 200

# Trials one slot loop advances together; it bounds a block's arrays to this
# many trials' worth, however many trials a run has.
BLOCK_TRIALS = 32

# Slots of uniforms each trial draws at a time.
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

def _controller(config: ScenarioConfig, algo: str, r_max: float,
                trials: int) -> HierarchicalController:
    n, m = config.num_users, config.num_channels
    lp = config.learning
    if config.scenario == "stackelberg":
        leader = WindowLeader(trials, m, lp)
    else:
        leader = ScriptedJammers(config.jammers, trials, m, config.slots)
    if algo == "hierarchical":
        users = AutomataUsers(trials, n, m, lp.step_size, rate_reward(r_max))
    elif algo in ("hypergraph_sla", "graph_sla"):
        hg = config.hypergraph
        if algo == "graph_sla":
            hg = hg.without_weak_edges()
        users = AutomataUsers(trials, n, m, lp.step_size, interference_reward(hg))
    elif algo in ("collaborative", "independent_q"):
        users = QUsers(trials, n, m, lp, rate_reward(r_max),
                       collaborative=algo == "collaborative")
    else:
        users = BaselineUsers(algo, trials, n, m)
    return HierarchicalController(leader, users)


def simulate_trial(config: ScenarioConfig, algo: str, rngs, model: RateModel,
                   r_max: float):
    """A block of seeded trials of one algorithm, one generator each in
    rngs, advanced together; returns (trials x slots x metrics array,
    extras dict of per-trial arrays)."""
    n, m, trials = config.num_users, config.num_channels, len(rngs)
    ctl = _controller(config, algo, r_max, trials)
    per_slot = np.empty((trials, config.slots, len(METRICS)))
    for first in range(0, config.slots, BLOCK_SLOTS):
        size = min(BLOCK_SLOTS, config.slots - first)
        # (slot, trial, row) uniforms, and what each slot of the block gave
        u = np.stack([rng.random((size, ctl.draws + n)) for rng in rngs], axis=1)
        active = u[..., -n:] < config.active_probability
        choices = np.empty((size, trials, n), dtype=np.int64)
        jammed = np.empty((size, trials, m), dtype=bool)
        rates = np.empty((size, trials, n))
        priced = 0  # the block's slots priced so far
        for k in range(size):
            jammed[k], choices[k] = ctl.begin_slot(first + k, u[k, :, :-n])
            if not (ctl.rates_due(first + k) or k == size - 1):
                ctl.end_slot(None, active[k])
                continue
            # price the slots since the last priced, in calls of at most
            # BLOCK_SLOTS (slot, trial) rows, so that the (rows, N, M)
            # intermediates stay bounded
            span = slice(priced, k + 1)
            step = max(1, BLOCK_SLOTS // (k + 1 - priced))
            for ti in range(0, trials, step):
                cut = (span, slice(ti, ti + step))
                rates[cut] = model.rates(choices[cut], jammed[cut], active[cut])
            ctl.end_slot(rates[span], active[k])
            priced = k + 1
        per_slot[:, first:first + size] = _slot_metrics(
            choices, jammed, active, rates, r_max).swapaxes(0, 1)
    if algo != "hierarchical":
        return per_slot, {}
    # exploration-free snapshot: the leader's greedy channel against each
    # follower's most likely channel, every user active
    leader = np.arange(config.num_channels) == ctl.leader.greedy()[:, None]
    greedy_rates = model.rates(ctl.followers.greedy(), leader,
                               np.ones((trials, n), dtype=bool))
    return per_slot, {"converged_greedy_rate": greedy_rates.sum(axis=-1)}


# ---------------------------------------------------------------------------
# full runs

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
        for ai, algo in enumerate(config.algorithms):
            finals = np.empty((config.trials, len(METRICS)))
            extras = {}
            for first in range(0, config.trials, BLOCK_TRIALS):
                block = range(first, min(first + BLOCK_TRIALS, config.trials))
                per_slot, block_extras = simulate_trial(
                    config, algo, [trial_generator(config.seed, ai, ti) for ti in block],
                    model, r_max)
                for key, values in block_extras.items():
                    extras.setdefault(key, []).append(values)
                for ti, trial_slots in zip(block, per_slot):
                    finals[ti] = [column[-tail:].mean() for column in trial_slots.T]
                    if slot_file is not None:
                        _write_slot_rows(slot_file, f"{config.name},{algo},{ti}",
                                         trial_slots)
            per_trial = {f"final10_{name}": finals[:, mi].copy()
                         for mi, name in enumerate(METRICS)}
            for key in sorted(extras):
                per_trial[key] = np.concatenate(extras[key])
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
