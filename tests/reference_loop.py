"""The per-trial slot loop, as the library ran it before the trial axis.

This is the reference runner.simulate_trial is checked against: one trial at
a time, one generator per trial drawing each slot's row of uniforms through
its own calls (the jammer side's, the users', then N for activity), the
learners' state without a trial axis, the scripted jammers calling
jammer_action, the scalar pick of each pattern, every slot, and each slot's
metrics summed from the compacted active rates. The rates come from
scalar_rates and the hypergraph reward from the loops of
scalar_interference, so a property comparing the two loops compares none of
the library's batched arithmetic with itself.
"""

import numpy as np

import scalar_interference
import scalar_rates
from antijam import jammers
from antijam.env import uniform_channels

METRICS = ("rate_sum", "rate_mean_active", "normalized_capacity", "any_user_jammed")


def observe_jamming(jammed):
    return int(jammed.argmax()) if jammed.any() else None


# ---------------------------------------------------------------------------
# picks, each drawing its uniforms from the trial's generator

def sample(probs, rng):
    u = rng.random(len(probs))
    hits = (np.cumsum(probs, axis=1) <= u[:, None]).sum(axis=1)
    return hits.clip(0, probs.shape[1] - 1)


def epsilon_greedy(values, epsilon, rng):
    coins, draws = rng.random((2, len(values)))
    return np.where(coins < epsilon, uniform_channels(draws, values.shape[1]),
                    values.argmax(axis=1))


def collaborative_joint_selection(values, epsilon, rng):
    num_users, m = values.shape
    coins, draws = rng.random((2, num_users))
    explore = uniform_channels(draws, m)
    choices = np.zeros(num_users, dtype=np.int64)
    claimed = np.zeros(m, dtype=bool)
    for n in range(num_users):
        if coins[n] < epsilon:
            pick = explore[n]
        elif claimed.all():
            pick = int(np.argmax(values[n]))
        else:
            pick = int(np.argmax(np.where(claimed, -np.inf, values[n])))
        choices[n] = pick
        claimed[pick] = True
    return choices


def baseline_action(kind, s, num_users, num_channels, rng):
    u = rng.random(num_users)
    if kind == "random" or s is None or num_channels == 1:
        return uniform_channels(u, num_channels)
    pick = uniform_channels(u, num_channels - 1)
    return pick + (pick >= s)


def jammer_action(pattern, t, heard=None, u=None):
    """Channel set pattern jams at slot t. The static kinds are the library's
    jammers.jammer_action. The random kind jams the uniform u's channel,
    min(int(u*M), M-1). The reactive kind jams the channel most used in
    heard, the channels of the users that transmitted in the previous slot
    (lowest index on ties), or u's channel when it heard nobody."""
    if pattern.kind not in ("random", "reactive"):
        return jammers.jammer_action(pattern, t)
    m = pattern.num_channels
    if pattern.kind == "reactive" and heard is not None and len(heard):
        counts = [0] * m
        for c in heard:
            counts[int(c)] += 1
        return frozenset({counts.index(max(counts))})
    return frozenset({min(int(u * m), m - 1)})


# ---------------------------------------------------------------------------
# updates of one trial's (N, M) strategies and (N, M+1, M) Q values

def sla_update(probs, users, chosen, rewards, step_size):
    r = np.asarray(rewards, dtype=np.float64)[users]
    c = np.asarray(chosen, dtype=np.int64)[users]
    p = probs[users]
    scale = step_size * r
    new = p - scale[:, None] * p
    rows = np.arange(len(users))
    own = p[rows, c]
    new[rows, c] = own + scale * (1.0 - own)
    probs[users] = new


def q_update(q, users, s, actions, rewards, s_next, learning_rate, discount):
    a = np.asarray(actions, dtype=np.int64)[users]
    target = np.asarray(rewards, dtype=np.float64)[users] \
        + discount * q[users, s_next].max(axis=1)
    q[users, s, a] = (1.0 - learning_rate) * q[users, s, a] + learning_rate * target


def rate_reward(r_max):
    def reward(choices, active, rates, jammed):
        return np.clip(rates / r_max, 0.0, 1.0)
    return reward


def interference_reward(hypergraph):
    d_norm = float(max(
        sum(u in e for e in hypergraph.strong_edges)
        + sum(u in h for h in hypergraph.weak_hyperedges) + 1
        for u in range(hypergraph.num_users)))

    def reward(choices, active, rates, jammed):
        heard = scalar_interference.channel_set(jammed)
        return np.array([1.0 - scalar_interference.marginal_interference(
            hypergraph, n, choices, active, heard) / d_norm
            for n in range(len(choices))])
    return reward


# ---------------------------------------------------------------------------
# one trial's controllers

class AutomataUsers:
    def __init__(self, num_users, num_channels, step_size, reward):
        self.probs = np.full((num_users, num_channels), 1.0 / num_channels)
        self.step_size = step_size
        self.reward = reward

    def select(self, rng):
        return sample(self.probs, rng)

    def learn(self, choices, active, rates, jammed):
        sla_update(self.probs, np.flatnonzero(active), choices,
                   self.reward(choices, active, rates, jammed), self.step_size)

    def greedy(self):
        return self.probs.argmax(axis=1)


class QUsers:
    def __init__(self, num_users, num_channels, params, reward, collaborative):
        self.q = np.zeros((num_users, num_channels + 1, num_channels))
        self.epsilon = params.epsilon_start
        self.params = params
        self.reward = reward
        self.collaborative = collaborative
        self.state = num_channels

    def select(self, rng):
        pick = collaborative_joint_selection if self.collaborative \
            else epsilon_greedy
        return pick(self.q[:, self.state], self.epsilon, rng)

    def learn(self, choices, active, rates, jammed):
        sensed = observe_jamming(jammed)
        s_next = self.q.shape[2] if sensed is None else sensed
        p = self.params
        q_update(self.q, np.flatnonzero(active), self.state, choices,
                 self.reward(choices, active, rates, jammed), s_next,
                 p.learning_rate, p.discount)
        self.epsilon = max(p.epsilon_floor, self.epsilon * p.epsilon_decay)
        self.state = s_next


class BaselineUsers:
    def __init__(self, kind, num_users, num_channels):
        self.kind = kind
        self.num_users = num_users
        self.num_channels = num_channels
        self.state = None

    def select(self, rng):
        return baseline_action(self.kind, self.state, self.num_users,
                               self.num_channels, rng)

    def learn(self, choices, active, rates, jammed):
        self.state = observe_jamming(jammed)


class WindowLeader:
    def __init__(self, num_channels, params):
        self.params = params
        self.values = np.zeros(num_channels)
        self.epsilon = params.epsilon_start
        self.channel = 0
        self._slot_in_window = 0
        self._window_rate_sum = 0.0

    def act(self, t, rng):
        pick = epsilon_greedy(self.values[None], self.epsilon, rng)
        if self._slot_in_window == 0:
            self.channel = int(pick[0])
        mask = np.zeros(len(self.values), dtype=bool)
        mask[self.channel] = True
        return mask

    def observe(self, choices, active, rates):
        self._window_rate_sum += float(rates.sum())
        self._slot_in_window += 1
        p = self.params
        if self._slot_in_window >= p.window_slots:
            reward = -self._window_rate_sum / p.window_slots
            q_update(self.values[None, None], [0], 0, [self.channel], [reward],
                     0, p.learning_rate, 0.0)
            self.epsilon = max(p.epsilon_floor,
                               self.epsilon * p.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = 0.0

    def greedy(self):
        return int(np.argmax(self.values))


class ScriptedJammers:
    """Every pattern's jammer_action every slot; a reactive one hears the
    channels of the users that transmitted in the previous slot."""

    def __init__(self, patterns, num_channels):
        self.patterns = tuple(patterns)
        self.num_channels = num_channels
        self.last_heard = None
        self._draws = sum(p.kind in ("random", "reactive") for p in self.patterns)

    def act(self, t, rng):
        mask = np.zeros(self.num_channels, dtype=bool)
        draws = iter(rng.random(self._draws))
        for p in self.patterns:
            u = next(draws) if p.kind in ("random", "reactive") else None
            mask[list(jammer_action(p, t, self.last_heard, u))] = True
        return mask

    def observe(self, choices, active, rates):
        self.last_heard = choices[active]


class HierarchicalController:
    def __init__(self, leader, followers):
        self.leader = leader
        self.followers = followers

    def begin_slot(self, t, rng):
        self._jammed = self.leader.act(t, rng)
        self._choices = self.followers.select(rng)
        return self._jammed, self._choices

    def end_slot(self, rates, active):
        self.followers.learn(self._choices, active, rates, self._jammed)
        self.leader.observe(self._choices, active, rates)


# ---------------------------------------------------------------------------
# the loop

def controller(config, algo, r_max):
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


def slot_metrics(choices, jammed, active, rates, r_max):
    total, count = float(rates[active].sum()), int(active.sum())
    return (total, total / count if count else 0.0,
            total / (rates.size * r_max), float(jammed[choices[active]].any()))


def simulate_trial(config, algo, rng, model, r_max):
    """One seeded trial; returns (slots x metrics array, extras dict)."""
    n, p = config.num_users, config.active_probability
    ctl = controller(config, algo, r_max)
    per_slot = np.empty((config.slots, len(METRICS)))
    for t in range(config.slots):
        jammed, choices = ctl.begin_slot(t, rng)
        active = rng.random(n) < p
        rates = scalar_rates.rates(model, choices, jammed, active)
        ctl.end_slot(rates, active)
        per_slot[t] = slot_metrics(choices, jammed, active, rates, r_max)
    if algo != "hierarchical":
        return per_slot, {}
    greedy_rates = scalar_rates.rates(model, ctl.followers.greedy(),
                                      frozenset({ctl.leader.greedy()}),
                                      np.ones(n, dtype=bool))
    return per_slot, {"converged_greedy_rate": float(greedy_rates.sum())}
