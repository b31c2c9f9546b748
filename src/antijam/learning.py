"""Online channel selection: the users' rules, the adaptive leader, and the
controller that drives one slot of a block of runs.

A block's rows are (algorithm, trial) pairs, possibly of several
algorithms. A HierarchicalController drives them all: the leader is the
jammer side of every row (WindowLeader, or jammers.ScriptedJammers), and
each follower, a users' rule (AutomataUsers, QUsers, BaselineUsers), steps
a run of rows, a slice of the block. Both act at the start of a slot and
learn strictly after its rates are known. Each writes its part of the slot
straight into the row of the block's arrays it is handed: the leader the
slot's jammed channels, one (R, M) bool mask, which the rate model, the
reward rules and the users read; each rule its slice of the (R, N) picks.
What a user remembers of the jammer is the channel it last sensed as
jammed, or M when it sensed none.

Each rule keeps its rows' state along a leading row axis: the automata's
strategies are one (R, N, M) array, the Q values one (R, N, M+1, M) array
with one sensed state per row, and the window leader's values one (R, M)
array. Where the algorithms a rule serves differ, the difference is per-row
data (which Q rows claim channels together, which baseline rows sense, each
automata row's reward rule), each run of one datum served by one call
(_runs), never a branch on the algorithm. Every rule steps all its rows
and all the users that learn at once, in place.
Exploration decays alike in every row and for everyone, so it is one
epsilon per rule. Nothing here draws: stream layout v2 gives every slot of
every row a fixed row of uniforms, a rule reads its `draws` columns of it
whatever the state, and env.uniform_channels maps them to channels.
"""

from __future__ import annotations

import itertools

import numpy as np

from .env import uniform_channels
from .errors import ConfigError
from .hypergraph import marginal_interference


def observe_jamming(jammed: np.ndarray) -> np.ndarray:
    """Sensing result of jam masks (..., M): the lowest jammed channel, so
    the state stays a single channel, or M where nothing is jammed."""
    return np.where(jammed.any(axis=-1), jammed.argmax(axis=-1), jammed.shape[-1])


# ---------------------------------------------------------------------------
# stochastic learning automata

def _check_simplex(probs: np.ndarray) -> None:
    # negated, so that a NaN entry fails too
    if not (probs.min() >= -1e-12
            and np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ConfigError("MixedStrategy: entries must be >= 0 and each row sum to 1")


class MixedStrategy:
    """Mixed strategies over channels (the last axis), one row of probs per
    learner; any leading axes (trials, users) index the learners."""

    def __init__(self, probs):
        self.probs = np.array(probs, dtype=np.float64)
        if self.probs.ndim < 2 or self.probs.size < 1:
            raise ConfigError("MixedStrategy: probs must be a non-empty "
                              "(..., users, channels) array")
        _check_simplex(self.probs)

    def sample(self, u) -> np.ndarray:
        """One channel per row from its uniform in u, shaped like the rows;
        entries are non-negative, so counting the cumulative sums at or below
        a draw is a search of the sorted row."""
        hits = (np.cumsum(self.probs, axis=-1) <= u[..., None]).sum(axis=-1)
        return np.minimum(hits, self.probs.shape[-1] - 1)


def sla_update(strategy: MixedStrategy, chosen, rewards,
               step_size: float) -> None:
    """Linear reward-inaction step of every row of the strategy, in place.

    chosen and rewards hold one entry per row, in C order (trial-major in a
    (T, N, M) strategy), in any shape of that size. Row k's chosen entry
    grows by b*r_k*(1 - P_chosen), every other entry of the row shrinks by
    b*r_k*P_other; the sum is preserved exactly in exact arithmetic, so no
    renormalization happens here. A reward of 0.0 leaves a row's bits as
    they are, so a row that does not learn is stepped with 0.0.
    """
    if not 0.0 < step_size < 1.0:
        raise ConfigError("sla_update: step_size must be in (0, 1)")
    p = strategy.probs.reshape(-1, strategy.probs.shape[-1])  # a view, or a copy
    r = np.asarray(rewards, dtype=np.float64).reshape(-1)
    c = np.asarray(chosen, dtype=np.int64).reshape(-1)
    if r.size != len(p) or c.size != len(p):
        raise ConfigError("sla_update: need one reward and channel per row")
    if not (r.min() >= 0.0 and r.max() <= 1.0):
        raise ConfigError("sla_update: reward must lie in [0, 1]")
    if c.min() < 0 or c.max() >= p.shape[1]:
        raise ConfigError("sla_update: chosen channel out of range")
    scale = step_size * r
    stepped = np.arange(len(p))
    own = p[stepped, c]
    p -= scale[:, None] * p
    p[stepped, c] = own + scale * (1.0 - own)
    if not strategy.probs.flags.c_contiguous:  # p may be a copy: write it back
        strategy.probs[...] = p.reshape(strategy.probs.shape)
    _check_simplex(strategy.probs)


# ---------------------------------------------------------------------------
# Q-learning

def q_update(q: np.ndarray, users, s, actions, rewards, s_next,
             learning_rate: float, discount: float) -> None:
    """One Q-learning step of each of `users`, in place, where q[k] is
    learner k's (state, channel) table; actions and rewards hold every
    learner's entry, and s and s_next one state for all or one per learner:
    Q(s,a) <- (1-lr)*Q(s,a) + lr*(reward + discount*max_a' Q(s_next,a'))."""
    users = np.asarray(users, dtype=np.int64)
    s, s_next = (x if np.ndim(x) == 0 else np.asarray(x)[users] for x in (s, s_next))
    a = np.asarray(actions, dtype=np.int64)[users]
    target = np.asarray(rewards, dtype=np.float64)[users] \
        + discount * q[users, s_next].max(axis=1)
    q[users, s, a] = (1.0 - learning_rate) * q[users, s, a] + learning_rate * target


def epsilon_greedy(values: np.ndarray, epsilon: float, u) -> np.ndarray:
    """One pick per row of values (..., K, M) from a coin and a channel draw
    per row, read from u (..., 2K), the K coins first: a uniform channel
    where the coin is below epsilon, else the first best."""
    k = values.shape[-2]
    coins, draws = u[..., :k], u[..., k:]
    return np.where(coins < epsilon, uniform_channels(draws, values.shape[-1]),
                    values.argmax(axis=-1))


def collaborative_joint_selection(values: np.ndarray, epsilon: float,
                                  u) -> np.ndarray:
    """Joint channel pick with claims shared over the control channel.

    values[..., n, :] is user n's action values in the current state, one
    (N, M) block per trial. Users take turns in index order and explore
    with probability epsilon; everyone, explorer or not, announces its
    claim, and each non-explorer takes its argmax among the channels still
    unclaimed in its trial (falling back to the unrestricted argmax once
    every channel is claimed). Ties go to the lowest index. The coins and
    channels are read from u (..., 2N), as in epsilon_greedy; the turns run
    for all trials at once.
    """
    num_users, m = values.shape[-2:]
    blocks = values.reshape(-1, num_users, m)       # one (N, M) block per trial
    u = np.reshape(u, (len(blocks), 2 * num_users))
    explore = uniform_channels(u[:, num_users:], m)
    choices = np.zeros((len(blocks), num_users), dtype=np.int64)
    claimed = np.zeros((len(blocks), m), dtype=bool)
    trials = np.arange(len(blocks))
    for n in range(num_users):
        free = np.where(claimed & ~claimed.all(axis=1, keepdims=True),
                        -np.inf, blocks[:, n])
        choices[:, n] = np.where(u[:, n] < epsilon, explore[:, n],
                                 free.argmax(axis=1))
        claimed[trials, choices[:, n]] = True
    return choices.reshape(values.shape[:-1])


def baseline_action(kind: str, s, num_channels: int, u) -> np.ndarray:
    """Non-learning picks from one uniform per user in u (..., N): uniform
    ("random"), or uniform avoiding the last sensed jammed channel s of each
    trial, (...,), where s = num_channels means none was sensed ("sensing")."""
    if num_channels < 1:
        raise ConfigError("baseline_action: num_channels must be >= 1")
    if kind not in ("random", "sensing"):
        raise ConfigError(f"baseline_action: unknown kind {kind!r}")
    if kind == "random" or num_channels == 1:
        return uniform_channels(u, num_channels)
    s = np.asarray(s)[..., None]
    pick = uniform_channels(u, np.where(s == num_channels, num_channels,
                                        num_channels - 1))
    return pick + (pick >= s)


# ---------------------------------------------------------------------------
# reward rules: reward(choices, active, rates, jammed) -> one value in [0, 1]
# per user and row (only the active users' values are read); jammed is the
# jam mask. A rule's reads_rates says whether it reads the slot's rates; one
# that does not may be handed None.

def rate_reward(r_max: float):
    """Each user's rate as a fraction of r_max, clipped to [0, 1]."""
    def reward(choices, active, rates, jammed):
        return np.clip(rates / r_max, 0.0, 1.0)
    reward.reads_rates = True
    return reward


def interference_reward(hypergraph):
    """Minus each user's hypergraph.marginal_interference, mapped from [-D, 0]
    onto [0, 1]; D is the worst-case marginal contribution of any single
    user (its incident edges plus the jammer), so no reward leaves [0, 1].

    The reward is a pure function of (choices, active, jammed), and automata
    that have converged repeat their slots, so each rule keeps its last
    inputs' shapes, dtypes and bytes and hands back the read-only reward they
    gave while a call's inputs are identical to them. Activity and the jam
    mask are compared first, as the likeliest to differ."""
    d_norm = float((hypergraph.adjacency.sum(axis=1)
                    + hypergraph.membership.sum(axis=1)).max() + 1)
    last = {}

    def reward(choices, active, rates, jammed):
        inputs = [np.asarray(x) for x in (active, jammed, choices)]
        if not (last and all(x.shape == shape and x.dtype == dtype
                             and x.tobytes() == data for x, (shape, dtype, data)
                             in zip(inputs, last["inputs"]))):
            value = 1.0 - marginal_interference(hypergraph, choices, active,
                                                jammed) / d_norm
            value.flags.writeable = False
            last.update(inputs=[(x.shape, x.dtype, x.tobytes()) for x in inputs],
                        value=value)
        return last["value"]
    reward.reads_rates = False
    return reward


# ---------------------------------------------------------------------------
# followers: `rows` rows each; select(u, out) writes the (rows, N) channels
# picked from the (rows, draws) uniforms u into out, learn(choices, active,
# rates, jammed); rates is the slot's (rows, N) rates or None, always given
# if reads_rates

def _runs(labels) -> list:
    """The runs of equal consecutive labels, in order, as (slice, label)."""
    runs, first = [], 0
    for label, run in itertools.groupby(labels):
        count = len(list(run))
        runs.append((slice(first, first + count), label))
        first += count
    return runs


class AutomataUsers:
    """One learning automaton per user and row; each active user takes a
    linear reward-inaction step on its reward after every slot. rewards
    holds each row's reward rule, and each run of rows holding the same rule
    is rewarded by one call of it, so a rule that reuses a repeated slot's
    reward (interference_reward) sees only its own rows. The step runs over
    every row in place, an inactive user's reward set to 0.0, which leaves
    its row's bits as they are."""

    def __init__(self, num_users: int, num_channels: int, step_size: float,
                 rewards):
        self._runs = _runs(rewards)
        self.rows = len(rewards)
        self.strategy = MixedStrategy(
            np.full((self.rows, num_users, num_channels), 1.0 / num_channels))
        self.step_size = step_size
        self.reads_rates = any(reward.reads_rates for _, reward in self._runs)
        self.draws = num_users

    def select(self, u, out) -> None:
        out[...] = self.strategy.sample(u)

    def learn(self, choices, active, rates, jammed) -> None:
        reward = np.empty(choices.shape)
        for rows, rule in self._runs:
            reward[rows] = rule(choices[rows], active[rows],
                                None if rates is None else rates[rows],
                                jammed[rows])
        sla_update(self.strategy, choices, np.where(active, reward, 0.0),
                   self.step_size)

    def greedy(self) -> np.ndarray:
        """Exploration-free choices: each user's most likely channel."""
        return self.strategy.probs.argmax(axis=-1)


class QUsers:
    """Q values per user over the last sensed jammed channel, where state M
    stands for nothing sensed yet. In the rows where collaborative holds,
    users claim channels in index order; in the others each picks
    epsilon-greedily alone. Active users learn, all rows in one step;
    everyone's exploration decays every slot."""

    def __init__(self, num_users: int, num_channels: int, params, reward,
                 collaborative):
        self.rows = len(collaborative)
        self.q = np.zeros((self.rows, num_users, num_channels + 1, num_channels))
        self.epsilon = params.epsilon_start
        self.params = params
        self.reward = reward
        self.reads_rates = reward.reads_rates
        self.state = np.full(self.rows, num_channels)
        self.draws = 2 * num_users
        self._every_row = np.arange(self.rows)
        self._picks = [(rows, collaborative_joint_selection if claims else epsilon_greedy)
                       for rows, claims in _runs(collaborative)]

    def select(self, u, out) -> None:
        values = self.q[self._every_row, :, self.state]
        for rows, pick in self._picks:
            out[rows] = pick(values[rows], self.epsilon, u[rows])

    def learn(self, choices, active, rates, jammed) -> None:
        s_next = observe_jamming(jammed)
        t, n, states, m = self.q.shape
        p = self.params
        # the (R, N) learners' tables as rows of one (R*N, M+1, M) view
        q_update(self.q.reshape(t * n, states, m), np.flatnonzero(active),
                 np.repeat(self.state, n), choices.reshape(-1),
                 self.reward(choices, active, rates, jammed).reshape(-1),
                 np.repeat(s_next, n), p.learning_rate, p.discount)
        self.epsilon = max(p.epsilon_floor, self.epsilon * p.epsilon_decay)
        self.state = s_next


class BaselineUsers:
    """Non-learning users, each row's "random" or "sensing" as kinds says:
    one baseline_action call per run of rows of one kind, every row
    remembering its last sensed jammed channel."""

    def __init__(self, kinds, num_users: int, num_channels: int):
        if not set(kinds) <= {"random", "sensing"}:
            raise ConfigError(f"BaselineUsers: unknown kinds in {list(kinds)}")
        self._runs = _runs(kinds)
        self.rows = len(kinds)
        self.num_channels = num_channels
        self.state = np.full(self.rows, num_channels)
        self.draws = num_users
        self.reads_rates = False

    def select(self, u, out) -> None:
        for rows, kind in self._runs:
            out[rows] = baseline_action(kind, self.state[rows],
                                        self.num_channels, u[rows])

    def learn(self, choices, active, rates, jammed) -> None:
        self.state = observe_jamming(jammed)


# ---------------------------------------------------------------------------
# the adaptive leader and the slot driver

class WindowLeader:
    """Window epsilon-greedy jammer: holds one channel for window_slots slots.

    Each row's leader is a single-state Q learner (discount 0) over an (M,)
    value vector, rewarded with minus the window's mean total rate; the
    windows are the same slots in every row, so exploration decays once per
    window for all of them. `params` is the run's LearningParams
    (learning_rate, epsilon_start, epsilon_floor, leader_epsilon_decay,
    window_slots).
    """

    def __init__(self, num_trials: int, num_channels: int, params):
        self.params = params
        self.values = np.zeros((num_trials, num_channels))
        self.epsilon = params.epsilon_start
        self.channel = np.zeros(num_trials, dtype=np.int64)
        self.draws = 2
        self.rows = num_trials
        self._trials = np.arange(num_trials)
        self._channels = np.arange(num_channels)
        self._slot_in_window = 0
        self._window_rate_sum = np.zeros(num_trials)

    def act(self, t: int, u, out) -> None:
        """Write this slot's one-hot (R, M) jam mask into out. Every slot
        reads a coin and a channel per row; only a window start uses them,
        and builds the mask that each slot of the window copies."""
        if self._slot_in_window == 0:
            pick = epsilon_greedy(self.values[:, None], self.epsilon, u)
            self.channel = pick[:, 0]
            self._mask = self._channels == self.channel[:, None]
        out[...] = self._mask

    def rates_due(self, t: int) -> bool:
        """Whether it learns from the rates after slot t: at the last slot of
        each window, the windows being slots [0, W), [W, 2W), ..."""
        return (t + 1) % self.params.window_slots == 0

    def observe(self, choices, active, rates) -> None:
        """Count the slot and learn at the window's end. rates is the slot's
        (R, N) rates, the (K, R, N) rates of the K slots through this one
        that it was not handed yet, or None; each row's total rate of every
        slot is added in slot order, as one slot at a time would be."""
        if rates is not None:
            for total in np.reshape(rates.sum(axis=-1), (-1, len(self._trials))):
                self._window_rate_sum += total
        self._slot_in_window += 1
        p = self.params
        if self._slot_in_window >= p.window_slots:
            reward = -self._window_rate_sum / p.window_slots
            # each row's vector is the table of one learner with one state
            q_update(self.values[:, None], self._trials, 0, self.channel,
                     reward, 0, p.learning_rate, 0.0)
            self.epsilon = max(p.epsilon_floor,
                               self.epsilon * p.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = np.zeros(len(self._trials))

    def greedy(self) -> np.ndarray:
        return self.values.argmax(axis=-1)


class HierarchicalController:
    """One slot of the jammer-vs-users game for a block of rows, the same
    for every algorithm.

    The leader (the jammer side) moves first, then the followers pick their
    channels; at the end of the slot the followers learn and the leader
    observes. A leader offers act(t, u, out), which writes the (R, M) bool
    mask of the jammed channels into out, and observe(choices, active,
    rates) over its `rows` rows. The rules serve them in order, each the
    next slice of its `rows` rows, at least one; followers holds each rule
    with its slice. A rule offers select(u, out), which writes its slice's
    channels into out, and learn(choices, active, rates, jammed) over its
    slice, where jammed is the slice of the mask. The leader reads the first
    `draws` of each row's uniforms and a row's rule the rule's `draws` after
    them; row_draws holds each row's count, and the controller's draws is
    the widest row's.

    The controller keeps no slot of its own: begin_slot hands the leader the
    (R, M) jammed row and each rule its slice of the (R, N) choices row, and
    each writes its part there; end_slot reads the slot back from the
    choices and mask it is handed. Neither the controller nor a leader or
    rule keeps a reference to a handed array. So a caller that hands its
    block's rows holds each slot's picks and mask once, and the feedback and
    its metrics read the same arrays.

    A rule's reads_rates says whether it learns from every slot's rates
    (users rewarded by rate_reward) or from none (baseline users, automata
    rewarded by interference_reward). The leader's rates_due(t) says
    whether it learns from the rates after slot t: the window leader at each
    window's last slot, the scripted jammers never.
    """

    def __init__(self, leader, rules):
        self.leader = leader
        rows = [rule.rows for rule in rules]
        if min(rows, default=0) < 1 or sum(rows) != leader.rows:
            raise ConfigError(f"HierarchicalController: rules of {rows} rows do "
                              f"not cut the leader's {leader.rows} into slices")
        self.followers = [(slice(stop - count, stop), rule) for count, stop, rule
                          in zip(rows, itertools.accumulate(rows), rules)]
        self.row_draws = np.repeat([leader.draws + rule.draws for rule in rules], rows)
        self.draws = int(self.row_draws.max())
        self._reads_rates = any(rule.reads_rates for rule in rules)

    def rates_due(self, t: int) -> bool:
        """Whether the feedback after slot t reads rates: every slot when a
        rule reads them, else the slots the leader names."""
        return self._reads_rates or self.leader.rates_due(t)

    def begin_slot(self, t: int, u, choices, jammed) -> None:
        """Write this slot's jam mask into jammed, (R, M), and every user's
        channel into choices, (R, N), read from the slot's (R, draws)
        uniforms."""
        k = self.leader.draws
        self.leader.act(t, u[:, :k], jammed)
        for rows, rule in self.followers:
            rule.select(u[rows, k:k + rule.draws], choices[rows])

    def end_slot(self, choices, jammed, rates, active) -> None:
        """Feed the slot of these (R, N) choices and (R, M) jam mask back:
        the followers learn, then the leader. rates is None, or the
        (K, R, N) rates of the K slots through this one that were not handed
        on yet; it must be given after every slot that rates_due names, and
        K is 1 whenever a rule reads rates, so each rule is handed the last
        slot's rates of its rows."""
        for rows, rule in self.followers:
            rule.learn(choices[rows], active[rows],
                       None if rates is None else rates[-1][rows], jammed[rows])
        self.leader.observe(choices, active, rates)
