"""Seeded experiment execution and result emission.

One run = every configured algorithm x trials x slots. Each (algorithm, trial)
pair gets its own generator derived from SeedSequence((seed, algorithm_index,
trial_index)), so single trials can be reproduced in isolation and the whole
run is byte-deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .env import RateModel, max_single_user_rate
from .errors import ConfigError
from .games import GameSpec, stackelberg_solve
from .hypergraph import marginal_interference
from .jammers import jammer_action
from .learning import (HierarchicalConfig, HierarchicalController, ObservedState,
                       QTable, WindowLeader, baseline_action,
                       collaborative_joint_selection, decay_epsilon,
                       epsilon_greedy, observe_jamming, q_update, sla_update,
                       uniform_strategy)
from .metrics import mean_ci, ne_bounds, network_rate, normalized_capacity

METRICS = ("rate_sum", "rate_mean_active", "normalized_capacity", "any_user_jammed")

NE_BOUND_TRIALS = 200

SEED_DERIVATION = ("per-trial generator: numpy default_rng(SeedSequence((seed, "
                   "algorithm_index, trial_index))); oracle generator: "
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
    jammed_hit = 0.0
    if jammed:
        jam = np.fromiter(jammed, dtype=np.int64)
        jammed_hit = float(np.isin(choices[active], jam).any())
    return (network_rate(rates, active, "sum"),
            network_rate(rates, active, "mean-active"),
            normalized_capacity(rates, active, r_max),
            jammed_hit)


# ---------------------------------------------------------------------------
# per-trial simulation, one function per scenario kind

def _simulate_stackelberg(config: ScenarioConfig, algo: str,
                          rng: np.random.Generator, model: RateModel,
                          r_max: float):
    n, m = config.num_users, config.num_channels
    lp = config.learning
    p = config.active_probability
    per_slot = np.empty((config.slots, len(METRICS)))
    cfg = HierarchicalConfig(
        window_slots=lp.window_slots,
        step_size=lp.step_size,
        reward_scale=r_max,
        leader_learning_rate=lp.learning_rate,
        leader_epsilon_start=lp.epsilon_start,
        leader_epsilon_floor=lp.epsilon_floor,
        leader_epsilon_decay=lp.leader_epsilon_decay,
    )

    if algo == "hierarchical":
        controller = HierarchicalController(n, m, cfg)
        for t in range(config.slots):
            leader_channel, choices = controller.begin_slot(rng)
            active = rng.random(n) < p
            jammed = frozenset({leader_channel})
            rates = model.rates(choices, jammed, active)
            controller.end_slot(rates, active)
            per_slot[t] = _slot_metrics(choices, jammed, active, rates, r_max)
        leader_g, choices_g = controller.greedy_profile()
        greedy_rates = model.rates(choices_g, frozenset({leader_g}),
                                   np.ones(n, dtype=bool))
        return per_slot, {"converged_greedy_rate": float(greedy_rates.sum())}

    if algo == "random":
        # Uniform users against the hierarchical controller's own leader, so
        # both algorithms face the same kind of adversary.
        leader = WindowLeader(m, cfg)
        for t in range(config.slots):
            jammed = frozenset({leader.act(rng)})
            choices = rng.integers(0, m, size=n)
            active = rng.random(n) < p
            rates = model.rates(choices, jammed, active)
            leader.observe(float(rates.sum()))
            per_slot[t] = _slot_metrics(choices, jammed, active, rates, r_max)
        return per_slot, {}

    raise ConfigError(f"algorithm {algo!r} not available in the stackelberg scenario")


def _simulate_markov(config: ScenarioConfig, algo: str, rng: np.random.Generator,
                     model: RateModel, r_max: float):
    n, m = config.num_users, config.num_channels
    lp = config.learning
    p = config.active_probability
    patterns = config.jammer_patterns()
    per_slot = np.empty((config.slots, len(METRICS)))
    learning = algo in ("collaborative", "independent_q")
    tables = [QTable(m, learning_rate=lp.learning_rate, discount=lp.discount,
                     epsilon=lp.epsilon_start) for _ in range(n)] if learning else None
    state = ObservedState(None)
    last_heard = None  # channels of the users active in the previous slot

    for t in range(config.slots):
        jammed = frozenset().union(
            *(jammer_action(pat, t, m, last_heard, rng) for pat in patterns))
        if algo == "collaborative":
            choices = collaborative_joint_selection(tables, state, range(n), rng)
        elif algo == "independent_q":
            choices = np.array([epsilon_greedy(tables[u], state, rng)
                                for u in range(n)], dtype=np.int64)
        else:
            choices = np.array([baseline_action(algo, state, m, rng)
                                for _ in range(n)], dtype=np.int64)
        active = rng.random(n) < p
        rates = model.rates(choices, jammed, active)
        s_next = observe_jamming(jammed)
        if learning:
            for u in range(n):
                if active[u]:
                    reward = min(1.0, max(0.0, float(rates[u]) / r_max))
                    tables[u] = q_update(tables[u], state, int(choices[u]),
                                         reward, s_next)
                tables[u] = decay_epsilon(tables[u], lp.epsilon_floor,
                                          lp.epsilon_decay)
        per_slot[t] = _slot_metrics(choices, jammed, active, rates, r_max)
        state = s_next
        last_heard = choices[active]
    return per_slot, {}


def _simulate_hypergraph(config: ScenarioConfig, algo: str,
                         rng: np.random.Generator, model: RateModel,
                         r_max: float):
    n, m = config.num_users, config.num_channels
    lp = config.learning
    p = config.active_probability
    patterns = config.jammer_patterns()
    per_slot = np.empty((config.slots, len(METRICS)))

    full = config.build_hypergraph()
    hg = full.without_weak_edges() if algo == "graph_sla" else full
    learning = algo in ("hypergraph_sla", "graph_sla")
    if learning:
        strategies = [uniform_strategy(m) for _ in range(n)]
        # worst-case marginal contribution of any single user, used to map
        # utilities from [-D, 0] onto rewards in [0, 1]
        incident = [sum(1 for e in hg.strong_edges if u in e)
                    + sum(1 for h in hg.weak_hyperedges if u in h) + 1
                    for u in range(n)]
        d_norm = float(max(incident))
    last_heard = None  # channels of the users active in the previous slot

    for t in range(config.slots):
        jammed = frozenset().union(
            *(jammer_action(pat, t, m, last_heard, rng) for pat in patterns))
        if learning:
            choices = np.array([s.sample(rng) for s in strategies], dtype=np.int64)
        else:
            choices = rng.integers(0, m, size=n)
        active = rng.random(n) < p
        rates = model.rates(choices, jammed, active)
        if learning:
            for u in range(n):
                if not active[u]:
                    continue
                utility = -marginal_interference(hg, u, choices, active, jammed)
                reward = max(0.0, 1.0 + utility / d_norm)
                strategies[u] = sla_update(strategies[u], int(choices[u]),
                                           reward, lp.step_size)
        per_slot[t] = _slot_metrics(choices, jammed, active, rates, r_max)
        last_heard = choices[active]
    return per_slot, {}


_SIMULATORS = {
    "stackelberg": _simulate_stackelberg,
    "markov": _simulate_markov,
    "hypergraph": _simulate_hypergraph,
}


def simulate_trial(config: ScenarioConfig, algo: str, rng: np.random.Generator,
                   model: RateModel, r_max: float):
    """One seeded trial; returns (slots x metrics array, extras dict)."""
    return _SIMULATORS[config.scenario](config, algo, rng, model, r_max)


# ---------------------------------------------------------------------------
# full runs

def _oracle_values(config: ScenarioConfig, model: RateModel) -> dict:
    if config.scenario != "stackelberg":
        return {}
    game = GameSpec("stackelberg", config.build_geometry(), config.radio)
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

    model = RateModel(config.build_geometry(), config.radio)
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

        oracle = _oracle_values(config, model)
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
