"""Seeded experiment execution and result emission.

One run = every configured algorithm x trials x slots. Each (algorithm, trial)
pair gets its own generator derived from SeedSequence((seed, algorithm_index,
trial_index)), so single trials can be reproduced in isolation and the whole
run is byte-deterministic.

Every algorithm runs through the one slot loop in simulate_trial: a
HierarchicalController pairs the jammer side (WindowLeader in stackelberg,
ScriptedJammers otherwise) with the users' rule. Stream layout v2: each slot
draws a fixed row of uniforms whatever the state (the jammer side's, the
users', then N for activity), so extending `slots` keeps earlier slots.
"""

from __future__ import annotations

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


def _slot_metrics(choices, jammed, active, rates, r_max: float) -> tuple:
    total, count = network_rate(rates, active), int(active.sum())
    return (total, total / count if count else 0.0,
            normalized_capacity(rates, active, r_max),
            float(jammed[choices[active]].any()))


# ---------------------------------------------------------------------------
# per-trial simulation

def _controller(config: ScenarioConfig, algo: str,
                r_max: float) -> HierarchicalController:
    n, m = config.num_users, config.num_channels
    lp = config.learning
    if config.scenario == "stackelberg":
        leader = WindowLeader(m, lp)
    else:
        leader = ScriptedJammers(config.jammers, m)
    if algo == "hierarchical":
        users = AutomataUsers(n, m, lp.step_size, rate_reward(r_max))
    elif algo in ("hypergraph_sla", "graph_sla"):
        hg = config.hypergraph
        if algo == "graph_sla":
            hg = hg.without_weak_edges()
        users = AutomataUsers(n, m, lp.step_size, interference_reward(hg))
    elif algo in ("collaborative", "independent_q"):
        users = QUsers(n, m, lp, rate_reward(r_max),
                       collaborative=algo == "collaborative")
    else:
        users = BaselineUsers(algo, n, m)
    return HierarchicalController(leader, users)


def simulate_trial(config: ScenarioConfig, algo: str, rng: np.random.Generator,
                   model: RateModel, r_max: float):
    """One seeded trial; returns (slots x metrics array, extras dict)."""
    n, p = config.num_users, config.active_probability
    ctl = _controller(config, algo, r_max)
    per_slot = np.empty((config.slots, len(METRICS)))
    for t in range(config.slots):
        jammed, choices = ctl.begin_slot(t, rng)
        active = rng.random(n) < p
        rates = model.rates(choices, jammed, active)
        ctl.end_slot(rates, active)
        per_slot[t] = _slot_metrics(choices, jammed, active, rates, r_max)
    if algo != "hierarchical":
        return per_slot, {}
    # exploration-free snapshot: the leader's greedy channel against each
    # follower's most likely channel, every user active
    greedy_rates = model.rates(ctl.followers.greedy(),
                               frozenset({ctl.leader.greedy()}),
                               np.ones(n, dtype=bool))
    return per_slot, {"converged_greedy_rate": float(greedy_rates.sum())}


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
    summary.csv, and metadata.json there; the directory is created first so an
    unwritable path fails before any simulation work happens.
    """
    out = out_dir if out_dir is not None else config.output_dir
    slot_file = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        slot_file = open(os.path.join(out, "per_slot.csv"), "w",
                         encoding="utf-8", newline="\n")

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
            per_trial = {f"final10_{name}": np.empty(config.trials)
                         for name in METRICS}
            extra_lists = {}
            for ti in range(config.trials):
                rng = trial_generator(config.seed, ai, ti)
                per_slot, extras = simulate_trial(config, algo, rng, model, r_max)
                for mi, name in enumerate(METRICS):
                    per_trial[f"final10_{name}"][ti] = per_slot[-tail:, mi].mean()
                for key, value in extras.items():
                    extra_lists.setdefault(key, []).append(value)
                if slot_file is not None:
                    prefix = f"{config.name},{algo},{ti}"
                    for t in range(config.slots):
                        for mi, name in enumerate(METRICS):
                            slot_file.write(
                                f"{prefix},{t},{name},{_fmt(per_slot[t, mi])}\n")
            for key, values in extra_lists.items():
                per_trial[key] = np.asarray(values, dtype=np.float64)
            trial_values[algo] = per_trial
            for key in [f"final10_{name}" for name in METRICS] + sorted(extra_lists):
                mean, half = mean_ci(per_trial[key])
                summary_rows.append((config.name, algo, key, mean, half,
                                     config.trials))

        oracle = _oracle_values(config, game)
        for key in sorted(oracle):
            trials = NE_BOUND_TRIALS if key.endswith("ne_rate") else 1
            summary_rows.append((config.name, "oracle", key, oracle[key], 0.0,
                                 trials))
    finally:
        if slot_file is not None:
            slot_file.close()

    if out is not None:
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

    return RunResult(config=config, trial_values=trial_values, oracle=oracle,
                     summary_rows=summary_rows, output_dir=out)
