"""Online channel selection policies.

Covers the probability-vector learner (linear reward-inaction automata), the
tabular Q learners in independent and coordinated flavors, the two-timescale
leader/follower loop, and the two non-learning baselines. All of them produce
one channel per user per slot; updates happen strictly after the slot's rates
are known.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ObservedState:
    """What a user remembers about the jammer: the channel it last sensed as
    jammed, or None before anything was observed."""
    last_jammed: int | None = None

    @property
    def key(self):
        return self.last_jammed


def observe_jamming(jammed_channels) -> ObservedState:
    """Sensing result for one slot; multi-channel jammers report the lowest
    jammed index so the state stays a single channel."""
    if jammed_channels:
        return ObservedState(min(int(c) for c in jammed_channels))
    return ObservedState(None)


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

    @property
    def num_channels(self) -> int:
        return self.probs.size

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
    """Tabular action values over (observed state, channel) pairs.

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

    def q(self, state: ObservedState, channel: int) -> float:
        return self.values.get((state.key, channel), 0.0)

    def action_values(self, state: ObservedState) -> np.ndarray:
        return np.array([self.q(state, c) for c in range(self.num_channels)])

    def greedy(self, state: ObservedState) -> int:
        return int(np.argmax(self.action_values(state)))


def q_update(table: QTable, s: ObservedState, a: int, reward: float,
             s_next: ObservedState) -> QTable:
    """Q(s,a) <- (1-lr)*Q(s,a) + lr*(reward + discount*max_a' Q(s_next,a'))."""
    target = reward + table.discount * float(table.action_values(s_next).max())
    values = dict(table.values)
    values[(s.key, a)] = (1.0 - table.learning_rate) * table.q(s, a) \
        + table.learning_rate * target
    return dataclasses.replace(table, values=values)


def epsilon_greedy(table: QTable, s: ObservedState, rng: np.random.Generator) -> int:
    if rng.random() < table.epsilon:
        return int(rng.integers(table.num_channels))
    return table.greedy(s)


def decay_epsilon(table: QTable, floor: float, decay: float) -> QTable:
    """One step of the multiplicative exploration schedule, clipped at floor."""
    return dataclasses.replace(table, epsilon=max(floor, table.epsilon * decay))


def collaborative_joint_selection(tables, s: ObservedState, order,
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


def baseline_action(kind: str, s: ObservedState, num_channels: int,
                    rng: np.random.Generator) -> int:
    """Non-learning picks: uniform, or uniform avoiding the last sensed jam."""
    if num_channels < 1:
        raise ConfigError("baseline_action: num_channels must be >= 1")
    if kind == "random":
        return int(rng.integers(num_channels))
    if kind == "sensing":
        avoid = s.last_jammed
        if avoid is None or num_channels == 1:
            return int(rng.integers(num_channels))
        pick = int(rng.integers(num_channels - 1))
        return pick if pick < avoid else pick + 1
    raise ConfigError(f"baseline_action: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# hierarchical leader/follower loop

_LEADER_STATE = ObservedState(None)


@dataclass
class HierarchicalConfig:
    window_slots: int = 50
    step_size: float = 0.08
    reward_scale: float = 1.0
    leader_learning_rate: float = 0.1
    leader_epsilon_start: float = 0.3
    leader_epsilon_floor: float = 0.01
    leader_epsilon_decay: float = 0.95

    def __post_init__(self) -> None:
        if self.window_slots < 1:
            raise ConfigError("window_slots: must be >= 1")
        if self.reward_scale <= 0:
            raise ConfigError("reward_scale: must be > 0")


class WindowLeader:
    """Window epsilon-greedy jammer: holds one channel for window_slots slots.

    It is a single-state Q learner (discount 0) rewarded with minus the
    window's mean total rate; its exploration decays once per window.
    """

    def __init__(self, num_channels: int, cfg: HierarchicalConfig):
        self.cfg = cfg
        self.table = QTable(num_channels, learning_rate=cfg.leader_learning_rate,
                            discount=0.0, epsilon=cfg.leader_epsilon_start)
        self.channel = 0
        self._slot_in_window = 0
        self._window_rate_sum = 0.0

    def act(self, rng: np.random.Generator) -> int:
        """This slot's jammed channel; a new one is drawn at each window start."""
        if self._slot_in_window == 0:
            self.channel = epsilon_greedy(self.table, _LEADER_STATE, rng)
        return self.channel

    def observe(self, total_rate: float) -> None:
        """Feed back the slot's total rate; learn at the window boundary."""
        self._window_rate_sum += total_rate
        self._slot_in_window += 1
        if self._slot_in_window >= self.cfg.window_slots:
            reward = -self._window_rate_sum / self.cfg.window_slots
            self.table = q_update(self.table, _LEADER_STATE, self.channel,
                                  reward, _LEADER_STATE)
            self.table = decay_epsilon(self.table, self.cfg.leader_epsilon_floor,
                                       self.cfg.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = 0.0

    def greedy(self) -> int:
        return self.table.greedy(_LEADER_STATE)


class HierarchicalController:
    """Two-timescale loop: the leader jams one channel per window, followers
    adapt their mixed strategies every slot inside it."""

    def __init__(self, num_users: int, num_channels: int, cfg: HierarchicalConfig):
        self.cfg = cfg
        self.num_users = num_users
        self.num_channels = num_channels
        self.strategies = [uniform_strategy(num_channels) for _ in range(num_users)]
        self.leader = WindowLeader(num_channels, cfg)
        self._last_choices = None

    def begin_slot(self, rng: np.random.Generator):
        """Pick this slot's jammed channel and every user's channel."""
        leader_channel = self.leader.act(rng)
        choices = np.array([s.sample(rng) for s in self.strategies], dtype=np.int64)
        self._last_choices = choices
        return leader_channel, choices

    def end_slot(self, rates, active_mask=None) -> None:
        """Feed back the slot's rates: follower strategy updates now, leader
        value update at the window boundary."""
        rates = np.asarray(rates, dtype=np.float64)
        active = np.ones(self.num_users, dtype=bool) if active_mask is None \
            else np.asarray(active_mask, dtype=bool)
        for n in range(self.num_users):
            if not active[n]:
                continue
            r = min(1.0, max(0.0, rates[n] / self.cfg.reward_scale))
            self.strategies[n] = sla_update(self.strategies[n],
                                            int(self._last_choices[n]), r,
                                            self.cfg.step_size)
        self.leader.observe(float(rates.sum()))

    def greedy_profile(self):
        """Exploration-free snapshot: leader's greedy channel and each
        follower's argmax channel."""
        choices = np.array([int(np.argmax(s.probs)) for s in self.strategies],
                           dtype=np.int64)
        return self.leader.greedy(), choices
