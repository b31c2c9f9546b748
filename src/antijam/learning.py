"""Online channel selection: the users' rules, the adaptive leader, and the
controller that drives one slot of any algorithm.

Every algorithm is a HierarchicalController(leader, followers): the leader is
the jammer side (WindowLeader, or jammers.ScriptedJammers), the followers one
users' rule (AutomataUsers, QUsers, BaselineUsers). Both act at the start of
a slot and learn strictly after its rates are known. What a user remembers of
the jammer is the channel it last sensed as jammed, or None.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hypergraph import marginal_interference


def observe_jamming(jammed_channels) -> int | None:
    """Sensing result for one slot; multi-channel jammers report the lowest
    jammed index so the state stays a single channel."""
    if jammed_channels:
        return min(int(c) for c in jammed_channels)
    return None


# ---------------------------------------------------------------------------
# stochastic learning automata

@dataclass(frozen=True)
class MixedStrategy:
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise ConfigError("MixedStrategy: probs must be a non-empty vector")
        if (probs < -1e-12).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ConfigError("MixedStrategy: entries must be >= 0 and sum to 1")

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        return int(np.searchsorted(np.cumsum(self.probs), u, side="right").clip(0, self.probs.size - 1))


def uniform_strategy(num_channels: int) -> MixedStrategy:
    return MixedStrategy(np.full(num_channels, 1.0 / num_channels))


def sla_update(strategy: MixedStrategy, chosen: int, normalized_reward: float,
               step_size: float) -> MixedStrategy:
    """Linear reward-inaction step.

    P_chosen grows by b*r*(1 - P_chosen), every other entry shrinks by
    b*r*P_other; the sum is preserved exactly in exact arithmetic, so no
    renormalization happens here.
    """
    if not 0.0 < step_size < 1.0:
        raise ConfigError("sla_update: step_size must be in (0, 1)")
    if not 0.0 <= normalized_reward <= 1.0:
        raise ConfigError("sla_update: reward must lie in [0, 1]")
    p = strategy.probs
    if not 0 <= chosen < p.size:
        raise ConfigError("sla_update: chosen channel out of range")
    scale = step_size * normalized_reward
    new = p - scale * p
    new[chosen] = p[chosen] + scale * (1.0 - p[chosen])
    return MixedStrategy(new)


# ---------------------------------------------------------------------------
# Q-learning

@dataclass(frozen=True)
class QTable:
    """Tabular action values over (state, channel) pairs, where a state is
    the last channel sensed as jammed or None.

    Missing entries read as 0. Updates are functional: q_update returns a new
    table sharing nothing mutable with the old one.
    """
    num_channels: int
    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon: float = 0.1
    values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise ConfigError("QTable: num_channels must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("QTable: learning_rate must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError("QTable: discount must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("QTable: epsilon must be in [0, 1]")

    def q(self, state: int | None, channel: int) -> float:
        return self.values.get((state, channel), 0.0)

    def action_values(self, state: int | None) -> np.ndarray:
        return np.array([self.q(state, c) for c in range(self.num_channels)])

    def greedy(self, state: int | None) -> int:
        return int(np.argmax(self.action_values(state)))


def q_update(table: QTable, s: int | None, a: int, reward: float,
             s_next: int | None) -> QTable:
    """Q(s,a) <- (1-lr)*Q(s,a) + lr*(reward + discount*max_a' Q(s_next,a'))."""
    target = reward + table.discount * float(table.action_values(s_next).max())
    values = dict(table.values)
    values[(s, a)] = (1.0 - table.learning_rate) * table.q(s, a) \
        + table.learning_rate * target
    return dataclasses.replace(table, values=values)


def epsilon_greedy(table: QTable, s: int | None, rng: np.random.Generator) -> int:
    if rng.random() < table.epsilon:
        return int(rng.integers(table.num_channels))
    return table.greedy(s)


def decay_epsilon(table: QTable, floor: float, decay: float) -> QTable:
    """One step of the multiplicative exploration schedule, clipped at floor."""
    return dataclasses.replace(table, epsilon=max(floor, table.epsilon * decay))


def collaborative_joint_selection(tables, s: int | None, order,
                                  rng: np.random.Generator) -> np.ndarray:
    """Joint channel pick with claims shared over the control channel.

    Users explore independently with their own epsilon; everyone, explorer or
    not, announces its claim, and each non-explorer takes its argmax among the
    channels still unclaimed when its turn in `order` comes (falling back to
    the unrestricted argmax once every channel is claimed). Ties go to the
    lowest index.
    """
    tables = list(tables)
    num_users = len(tables)
    order = list(order)
    if sorted(order) != list(range(num_users)):
        raise ConfigError("collaborative_joint_selection: order must be a permutation")
    m = tables[0].num_channels
    if any(t.num_channels != m for t in tables):
        raise ConfigError("collaborative_joint_selection: tables disagree on channel count")
    choices = np.zeros(num_users, dtype=np.int64)
    claimed = set()
    for n in order:
        table = tables[n]
        if rng.random() < table.epsilon:
            pick = int(rng.integers(m))
        else:
            vals = table.action_values(s)
            free = [c for c in range(m) if c not in claimed]
            pool = free if free else range(m)
            pick = min(pool, key=lambda c: (-vals[c], c))
        choices[n] = pick
        claimed.add(pick)
    return choices


def baseline_action(kind: str, s: int | None, num_channels: int,
                    rng: np.random.Generator) -> int:
    """Non-learning picks: uniform, or uniform avoiding the last sensed jam."""
    if num_channels < 1:
        raise ConfigError("baseline_action: num_channels must be >= 1")
    if kind == "random":
        return int(rng.integers(num_channels))
    if kind == "sensing":
        if s is None or num_channels == 1:
            return int(rng.integers(num_channels))
        pick = int(rng.integers(num_channels - 1))
        return pick if pick < s else pick + 1
    raise ConfigError(f"baseline_action: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# reward rules: reward(u, choices, active, rates, jammed) in [0, 1]

def rate_reward(r_max: float):
    """User u's rate as a fraction of r_max, clipped to [0, 1]."""
    def reward(u, choices, active, rates, jammed):
        return min(1.0, max(0.0, float(rates[u]) / r_max))
    return reward


def interference_reward(hypergraph):
    """Minus user u's marginal generalized interference, mapped from [-D, 0]
    onto [0, 1]; D is the worst-case marginal contribution of any single user
    (its incident edges plus the jammer)."""
    incident = [sum(1 for e in hypergraph.strong_edges if u in e)
                + sum(1 for h in hypergraph.weak_hyperedges if u in h) + 1
                for u in range(hypergraph.num_users)]
    d_norm = float(max(incident))

    def reward(u, choices, active, rates, jammed):
        utility = -marginal_interference(hypergraph, u, choices, active, jammed)
        return max(0.0, 1.0 + utility / d_norm)
    return reward


# ---------------------------------------------------------------------------
# followers: select(rng) -> channels, learn(choices, active, rates, jammed)

class AutomataUsers:
    """One learning automaton per user; each active user takes a linear
    reward-inaction step on its reward rule after every slot."""

    def __init__(self, num_users: int, num_channels: int, step_size: float,
                 reward):
        self.strategies = [uniform_strategy(num_channels) for _ in range(num_users)]
        self.step_size = step_size
        self.reward = reward

    def select(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([s.sample(rng) for s in self.strategies], dtype=np.int64)

    def learn(self, choices, active, rates, jammed) -> None:
        for u, strategy in enumerate(self.strategies):
            if active[u]:
                self.strategies[u] = sla_update(
                    strategy, int(choices[u]),
                    self.reward(u, choices, active, rates, jammed), self.step_size)

    def greedy(self) -> np.ndarray:
        """Exploration-free choices: each user's most likely channel."""
        return np.array([int(np.argmax(s.probs)) for s in self.strategies],
                        dtype=np.int64)


class QUsers:
    """One Q table per user over the last sensed jammed channel; users claim
    channels in index order when collaborative, else pick epsilon-greedily
    alone. Active users learn; everyone's exploration decays every slot."""

    def __init__(self, num_users: int, num_channels: int, params, reward,
                 collaborative: bool):
        self.tables = [QTable(num_channels, learning_rate=params.learning_rate,
                              discount=params.discount,
                              epsilon=params.epsilon_start)
                       for _ in range(num_users)]
        self.params = params
        self.reward = reward
        self.collaborative = collaborative
        self.state = None

    def select(self, rng: np.random.Generator) -> np.ndarray:
        if self.collaborative:
            return collaborative_joint_selection(self.tables, self.state,
                                                 range(len(self.tables)), rng)
        return np.array([epsilon_greedy(t, self.state, rng) for t in self.tables],
                        dtype=np.int64)

    def learn(self, choices, active, rates, jammed) -> None:
        s_next = observe_jamming(jammed)
        for u, table in enumerate(self.tables):
            if active[u]:
                table = q_update(table, self.state, int(choices[u]),
                                 self.reward(u, choices, active, rates, jammed),
                                 s_next)
            self.tables[u] = decay_epsilon(table, self.params.epsilon_floor,
                                           self.params.epsilon_decay)
        self.state = s_next


class BaselineUsers:
    """Non-learning users. The markov baselines ("random", "sensing") draw one
    baseline_action per user and remember the last sensed jammed channel;
    "uniform" draws the whole channel vector at once. The two uniform forms
    consume the generator differently, so both are kept."""

    def __init__(self, kind: str, num_users: int, num_channels: int):
        self.kind = kind
        self.num_users = num_users
        self.num_channels = num_channels
        self.state = None

    def select(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform":
            return rng.integers(0, self.num_channels, size=self.num_users)
        return np.array([baseline_action(self.kind, self.state, self.num_channels, rng)
                         for _ in range(self.num_users)], dtype=np.int64)

    def learn(self, choices, active, rates, jammed) -> None:
        self.state = observe_jamming(jammed)


# ---------------------------------------------------------------------------
# the adaptive leader and the slot driver

class WindowLeader:
    """Window epsilon-greedy jammer: holds one channel for window_slots slots.

    It is a single-state Q learner (discount 0) rewarded with minus the
    window's mean total rate; its exploration decays once per window. `params`
    is the run's LearningParams (learning_rate, epsilon_start, epsilon_floor,
    leader_epsilon_decay, window_slots).
    """

    def __init__(self, num_channels: int, params):
        self.params = params
        self.table = QTable(num_channels, learning_rate=params.learning_rate,
                            discount=0.0, epsilon=params.epsilon_start)
        self.channel = 0
        self._slot_in_window = 0
        self._window_rate_sum = 0.0

    def act(self, t: int, rng: np.random.Generator) -> frozenset:
        """This slot's jammed set; a new channel is drawn at each window start."""
        if self._slot_in_window == 0:
            self.channel = epsilon_greedy(self.table, None, rng)
        return frozenset({self.channel})

    def observe(self, choices, active, rates) -> None:
        """Add the slot's total rate; learn at the window boundary."""
        self._window_rate_sum += float(rates.sum())
        self._slot_in_window += 1
        if self._slot_in_window >= self.params.window_slots:
            reward = -self._window_rate_sum / self.params.window_slots
            self.table = q_update(self.table, None, self.channel, reward, None)
            self.table = decay_epsilon(self.table, self.params.epsilon_floor,
                                       self.params.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = 0.0

    def greedy(self) -> int:
        return self.table.greedy(None)


class HierarchicalController:
    """One slot of the jammer-vs-users game, the same for every algorithm.

    The leader (the jammer side) moves first, then the followers pick their
    channels; once the slot's rates are known the followers learn and the
    leader observes. A leader offers act(t, rng) -> frozenset of jammed
    channels and observe(choices, active, rates); followers offer
    select(rng) -> channels and learn(choices, active, rates, jammed).
    """

    def __init__(self, leader, followers):
        self.leader = leader
        self.followers = followers
        self._jammed = frozenset()
        self._choices = None

    def begin_slot(self, t: int, rng: np.random.Generator):
        """This slot's jammed channel set and every user's channel."""
        self._jammed = self.leader.act(t, rng)
        self._choices = self.followers.select(rng)
        return self._jammed, self._choices

    def end_slot(self, rates, active) -> None:
        """Feed the slot's rates back: the followers learn, then the leader."""
        self.followers.learn(self._choices, active, rates, self._jammed)
        self.leader.observe(self._choices, active, rates)
