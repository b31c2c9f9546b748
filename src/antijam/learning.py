"""Online channel selection: the users' rules, the adaptive leader, and the
controller that drives one slot of any algorithm.

Every algorithm is a HierarchicalController(leader, followers): the leader is
the jammer side (WindowLeader, or jammers.ScriptedJammers), the followers one
users' rule (AutomataUsers, QUsers, BaselineUsers). Both act at the start of
a slot and learn strictly after its rates are known. The leader hands the
slot's jammed channels on as one (M,) bool mask, which the rate model, the
reward rules and the users read. What a user remembers of the jammer is the
channel it last sensed as jammed, or None.

A rule keeps every user's state in one array and steps all the users that
learn at once, in place: the automata's strategies are one (N, M) matrix and
the Q values one (N, M+1, M) array. Exploration decays alike for everyone, so
it is one epsilon per rule. Stream layout v2: every pick draws a fixed row of
uniforms whatever the state, leaving unread what the state does not need, and
env.uniform_channels maps them to channels.
"""

from __future__ import annotations

import numpy as np

from .env import uniform_channels
from .errors import ConfigError
from .hypergraph import marginal_interference


def observe_jamming(jammed: np.ndarray) -> int | None:
    """Sensing result for one slot's (M,) jam mask; multi-channel jammers
    report the lowest jammed index so the state stays a single channel."""
    return int(jammed.argmax()) if jammed.any() else None


# ---------------------------------------------------------------------------
# stochastic learning automata

def _check_simplex(probs: np.ndarray) -> None:
    if probs.min() < -1e-12 or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigError("MixedStrategy: entries must be >= 0 and each row sum to 1")


class MixedStrategy:
    """Mixed strategies over channels, one row of probs per user."""

    def __init__(self, probs):
        self.probs = np.array(probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.size < 1:
            raise ConfigError("MixedStrategy: probs must be a non-empty "
                              "(users, channels) matrix")
        _check_simplex(self.probs)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One channel per user from one block of uniforms, user n taking the
        n-th; entries are non-negative, so counting the cumulative sums at or
        below a draw is a search of the sorted row."""
        u = rng.random(len(self.probs))
        hits = (np.cumsum(self.probs, axis=1) <= u[:, None]).sum(axis=1)
        return hits.clip(0, self.probs.shape[1] - 1)


def sla_update(strategy: MixedStrategy, users, chosen, rewards,
               step_size: float) -> None:
    """Linear reward-inaction step of each of `users`, in place.

    Row n's chosen entry grows by b*r_n*(1 - P_chosen), every other entry of
    the row shrinks by b*r_n*P_other; the sum is preserved exactly in exact
    arithmetic, so no renormalization happens here.
    """
    if not 0.0 < step_size < 1.0:
        raise ConfigError("sla_update: step_size must be in (0, 1)")
    users = np.asarray(users, dtype=np.int64)
    r = np.asarray(rewards, dtype=np.float64)[users]
    c = np.asarray(chosen, dtype=np.int64)[users]
    if users.size:
        if not (r.min() >= 0.0 and r.max() <= 1.0):
            raise ConfigError("sla_update: reward must lie in [0, 1]")
        if c.min() < 0 or c.max() >= strategy.probs.shape[1]:
            raise ConfigError("sla_update: chosen channel out of range")
    p = strategy.probs[users]
    scale = step_size * r
    new = p - scale[:, None] * p
    rows = np.arange(len(users))
    own = p[rows, c]
    new[rows, c] = own + scale * (1.0 - own)
    strategy.probs[users] = new
    _check_simplex(strategy.probs)


# ---------------------------------------------------------------------------
# Q-learning

def q_update(q: np.ndarray, users, s: int, actions, rewards, s_next: int,
             learning_rate: float, discount: float) -> None:
    """One Q-learning step of each of `users`, in place, where q[n] is
    learner n's (state, channel) table:
    Q(s,a) <- (1-lr)*Q(s,a) + lr*(reward + discount*max_a' Q(s_next,a'))."""
    users = np.asarray(users, dtype=np.int64)
    a = np.asarray(actions, dtype=np.int64)[users]
    target = np.asarray(rewards, dtype=np.float64)[users] \
        + discount * q[users, s_next].max(axis=1)
    q[users, s, a] = (1.0 - learning_rate) * q[users, s, a] + learning_rate * target


def epsilon_greedy(values: np.ndarray, epsilon: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One pick per row of values from a coin and a channel draw per row: a
    uniform channel where the coin is below epsilon, else the first best."""
    coins, draws = rng.random((2, len(values)))
    return np.where(coins < epsilon, uniform_channels(draws, values.shape[1]),
                    values.argmax(axis=1))


def collaborative_joint_selection(values: np.ndarray, epsilon: float,
                                  rng: np.random.Generator) -> np.ndarray:
    """Joint channel pick with claims shared over the control channel.

    values[n] is user n's action values in the current state. Users take
    turns in index order and explore with probability epsilon; everyone,
    explorer or not, announces its claim, and each non-explorer takes its
    argmax among the channels still unclaimed (falling back to the
    unrestricted argmax once every channel is claimed). Ties go to the
    lowest index. The coins and channels are drawn up front, as in
    epsilon_greedy.
    """
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


def baseline_action(kind: str, s: int | None, num_users: int,
                    num_channels: int, rng: np.random.Generator) -> np.ndarray:
    """Non-learning picks from one uniform per user: uniform ("random"), or
    uniform avoiding the last sensed jammed channel s, if any ("sensing")."""
    if num_channels < 1:
        raise ConfigError("baseline_action: num_channels must be >= 1")
    if kind not in ("random", "sensing"):
        raise ConfigError(f"baseline_action: unknown kind {kind!r}")
    u = rng.random(num_users)
    if kind == "random" or s is None or num_channels == 1:
        return uniform_channels(u, num_channels)
    pick = uniform_channels(u, num_channels - 1)
    return pick + (pick >= s)


# ---------------------------------------------------------------------------
# reward rules: reward(choices, active, rates, jammed) -> one value in [0, 1]
# per user (only the active users' values are read); jammed is the jam mask

def rate_reward(r_max: float):
    """Each user's rate as a fraction of r_max, clipped to [0, 1]."""
    def reward(choices, active, rates, jammed):
        return np.clip(rates / r_max, 0.0, 1.0)
    return reward


def interference_reward(hypergraph):
    """Minus each user's hypergraph.marginal_interference, mapped from [-D, 0]
    onto [0, 1]; D is the worst-case marginal contribution of any single
    user (its incident edges plus the jammer), so no reward leaves [0, 1]."""
    d_norm = float((hypergraph.adjacency.sum(axis=1)
                    + hypergraph.membership.sum(axis=1)).max() + 1)

    def reward(choices, active, rates, jammed):
        return 1.0 - marginal_interference(hypergraph, choices, active,
                                           jammed) / d_norm
    return reward


# ---------------------------------------------------------------------------
# followers: select(rng) -> channels, learn(choices, active, rates, jammed)

class AutomataUsers:
    """One learning automaton per user; each active user takes a linear
    reward-inaction step on its reward after every slot."""

    def __init__(self, num_users: int, num_channels: int, step_size: float,
                 reward):
        self.strategy = MixedStrategy(
            np.full((num_users, num_channels), 1.0 / num_channels))
        self.step_size = step_size
        self.reward = reward

    def select(self, rng: np.random.Generator) -> np.ndarray:
        return self.strategy.sample(rng)

    def learn(self, choices, active, rates, jammed) -> None:
        sla_update(self.strategy, np.flatnonzero(active), choices,
                   self.reward(choices, active, rates, jammed), self.step_size)

    def greedy(self) -> np.ndarray:
        """Exploration-free choices: each user's most likely channel."""
        return self.strategy.probs.argmax(axis=1)


class QUsers:
    """Q values per user over the last sensed jammed channel, where state M
    stands for nothing sensed yet; users claim channels in index order when
    collaborative, else pick epsilon-greedily alone. Active users learn;
    everyone's exploration decays every slot."""

    def __init__(self, num_users: int, num_channels: int, params, reward,
                 collaborative: bool):
        self.q = np.zeros((num_users, num_channels + 1, num_channels))
        self.epsilon = params.epsilon_start
        self.params = params
        self.reward = reward
        self.collaborative = collaborative
        self.state = num_channels

    def select(self, rng: np.random.Generator) -> np.ndarray:
        pick = collaborative_joint_selection if self.collaborative \
            else epsilon_greedy
        return pick(self.q[:, self.state], self.epsilon, rng)

    def learn(self, choices, active, rates, jammed) -> None:
        sensed = observe_jamming(jammed)
        s_next = self.q.shape[2] if sensed is None else sensed
        p = self.params
        q_update(self.q, np.flatnonzero(active), self.state, choices,
                 self.reward(choices, active, rates, jammed), s_next,
                 p.learning_rate, p.discount)
        self.epsilon = max(p.epsilon_floor, self.epsilon * p.epsilon_decay)
        self.state = s_next


class BaselineUsers:
    """Non-learning users ("random" or "sensing"): baseline_action for all of
    them, remembering the last sensed jammed channel."""

    def __init__(self, kind: str, num_users: int, num_channels: int):
        self.kind = kind
        self.num_users = num_users
        self.num_channels = num_channels
        self.state = None

    def select(self, rng: np.random.Generator) -> np.ndarray:
        return baseline_action(self.kind, self.state, self.num_users,
                               self.num_channels, rng)

    def learn(self, choices, active, rates, jammed) -> None:
        self.state = observe_jamming(jammed)


# ---------------------------------------------------------------------------
# the adaptive leader and the slot driver

class WindowLeader:
    """Window epsilon-greedy jammer: holds one channel for window_slots slots.

    It is a single-state Q learner (discount 0) over an (M,) value vector,
    rewarded with minus the window's mean total rate; its exploration decays
    once per window. `params` is the run's LearningParams (learning_rate,
    epsilon_start, epsilon_floor, leader_epsilon_decay, window_slots).
    """

    def __init__(self, num_channels: int, params):
        self.params = params
        self.values = np.zeros(num_channels)
        self.epsilon = params.epsilon_start
        self.channel = 0
        self._slot_in_window = 0
        self._window_rate_sum = 0.0

    def act(self, t: int, rng: np.random.Generator) -> np.ndarray:
        """This slot's one-hot jam mask. Every slot draws a coin and a
        channel; only a window start reads them."""
        pick = epsilon_greedy(self.values[None], self.epsilon, rng)
        if self._slot_in_window == 0:
            self.channel = int(pick[0])
        mask = np.zeros(len(self.values), dtype=bool)
        mask[self.channel] = True
        return mask

    def observe(self, choices, active, rates) -> None:
        """Add the slot's total rate; learn at the window boundary."""
        self._window_rate_sum += float(rates.sum())
        self._slot_in_window += 1
        p = self.params
        if self._slot_in_window >= p.window_slots:
            reward = -self._window_rate_sum / p.window_slots
            # the vector is the table of one learner with a single state
            q_update(self.values[None, None], [0], 0, [self.channel], [reward],
                     0, p.learning_rate, 0.0)
            self.epsilon = max(p.epsilon_floor,
                               self.epsilon * p.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = 0.0

    def greedy(self) -> int:
        return int(np.argmax(self.values))


class HierarchicalController:
    """One slot of the jammer-vs-users game, the same for every algorithm.

    The leader (the jammer side) moves first, then the followers pick their
    channels; once the slot's rates are known the followers learn and the
    leader observes. A leader offers act(t, rng) -> (M,) bool mask of the
    jammed channels and observe(choices, active, rates); followers offer
    select(rng) -> channels and learn(choices, active, rates, jammed), where
    jammed is that mask.
    """

    def __init__(self, leader, followers):
        self.leader = leader
        self.followers = followers
        self._jammed = None
        self._choices = None

    def begin_slot(self, t: int, rng: np.random.Generator):
        """This slot's jam mask and every user's channel."""
        self._jammed = self.leader.act(t, rng)
        self._choices = self.followers.select(rng)
        return self._jammed, self._choices

    def end_slot(self, rates, active) -> None:
        """Feed the slot's rates back: the followers learn, then the leader."""
        self.followers.learn(self._choices, active, rates, self._jammed)
        self.leader.observe(self._choices, active, rates)
