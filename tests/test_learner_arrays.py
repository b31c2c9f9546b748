"""The array learners against their scalar reference.

learning keeps every user's state of a block of trials in one array and
steps all trials and users at once. The per-user learners it replaced live
here as the reference, one set per trial: a frozen QTable dict per user with
a functional q_update, one MixedStrategy vector per user with a functional
sla_update, per-user epsilon-greedy picks and decay, and the claiming pick
walked in an explicit order. Each trial's reference draws from its own
generator, and the block reads the same uniforms from a copy of it. On random
activity, rewards, jammed channels and exploration schedules, both must make
the same choice on every slot of every trial, leave the generators in the
same state, and hold bitwise-equal state.

The library hands the jammed channels on as an (M,) bool mask; the reference
reads them as a channel set, and the hypergraph reward as one marginal per
user from the scalar loops of scalar_interference. Both follow stream layout
v2: the Q users draw one flat row of N coins then N channel draws every slot,
the window leader a coin and a channel every slot, read only at a window
start, and a uniform u picks channel min(int(u*M), M-1).
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import reference_loop
import scalar_interference as scalar
from slot_rows import acted, selected
from antijam.config import LearningParams
from antijam.env import NodeGeometry, RadioParams, RateModel, max_single_user_rate
from antijam.hypergraph import InterferenceHypergraph, marginal_interference
import pytest

from antijam import learning
from antijam.learning import (AutomataUsers, BaselineUsers, MixedStrategy, QUsers,
                              WindowLeader, baseline_action, interference_reward,
                              observe_jamming, rate_reward)

# ---------------------------------------------------------------------------
# the scalar reference


channels = scalar.channel_set


@dataclass(frozen=True)
class RefStrategy:
    probs: np.ndarray

    def sample(self, rng):
        u = rng.random()
        return int(np.searchsorted(np.cumsum(self.probs), u, side="right")
                   .clip(0, self.probs.size - 1))


def ref_sla_update(strategy, chosen, normalized_reward, step_size):
    p = strategy.probs
    scale = step_size * normalized_reward
    new = p - scale * p
    new[chosen] = p[chosen] + scale * (1.0 - p[chosen])
    return RefStrategy(new)


@dataclass(frozen=True)
class QTable:
    num_channels: int
    learning_rate: float
    discount: float
    epsilon: float
    values: dict = field(default_factory=dict)

    def q(self, state, channel):
        return self.values.get((state, channel), 0.0)

    def action_values(self, state):
        return np.array([self.q(state, c) for c in range(self.num_channels)])


def ref_q_update(table, s, a, reward, s_next):
    target = reward + table.discount * float(table.action_values(s_next).max())
    values = dict(table.values)
    values[(s, a)] = (1.0 - table.learning_rate) * table.q(s, a) \
        + table.learning_rate * target
    return dataclasses.replace(table, values=values)


def ref_channel(u, num_channels):
    return min(int(u * num_channels), num_channels - 1)


def ref_coins_and_draws(rng, n):
    row = rng.random(2 * n)
    return row[:n], row[n:]


def ref_epsilon_greedy(table, s, coin, draw):
    if coin < table.epsilon:
        return ref_channel(draw, table.num_channels)
    return int(np.argmax(table.action_values(s)))


def ref_decay(table, floor, decay):
    return dataclasses.replace(table, epsilon=max(floor, table.epsilon * decay))


def ref_collaborative(tables, s, order, rng):
    m = tables[0].num_channels
    coins, draws = ref_coins_and_draws(rng, len(tables))
    choices = np.zeros(len(tables), dtype=np.int64)
    claimed = set()
    for n in order:
        table = tables[n]
        if coins[n] < table.epsilon:
            pick = ref_channel(draws[n], m)
        else:
            vals = table.action_values(s)
            free = [c for c in range(m) if c not in claimed]
            pool = free if free else range(m)
            pick = min(pool, key=lambda c: (-vals[c], c))
        choices[n] = pick
        claimed.add(pick)
    return choices


def ref_rate_reward(r_max):
    def reward(u, choices, active, rates, jammed):
        return min(1.0, max(0.0, float(rates[u]) / r_max))
    return reward


def ref_interference_reward(hypergraph):
    incident = [sum(1 for e in hypergraph.strong_edges if u in e)
                + sum(1 for h in hypergraph.weak_hyperedges if u in h) + 1
                for u in range(hypergraph.num_users)]
    d_norm = float(max(incident))

    def reward(u, choices, active, rates, jammed):
        utility = -scalar.marginal_interference(hypergraph, u, choices, active,
                                                channels(jammed))
        return max(0.0, 1.0 + utility / d_norm)
    return reward


class RefAutomataUsers:
    def __init__(self, num_users, num_channels, step_size, reward):
        self.strategies = [RefStrategy(np.full(num_channels, 1.0 / num_channels))
                           for _ in range(num_users)]
        self.step_size = step_size
        self.reward = reward

    def select(self, rng):
        return np.array([s.sample(rng) for s in self.strategies], dtype=np.int64)

    def learn(self, choices, active, rates, jammed):
        for u, strategy in enumerate(self.strategies):
            if active[u]:
                self.strategies[u] = ref_sla_update(
                    strategy, int(choices[u]),
                    self.reward(u, choices, active, rates, jammed), self.step_size)

    def greedy(self):
        return np.array([int(np.argmax(s.probs)) for s in self.strategies],
                        dtype=np.int64)


class RefQUsers:
    def __init__(self, num_users, num_channels, params, reward, collaborative):
        self.tables = [QTable(num_channels, params.learning_rate, params.discount,
                              params.epsilon_start) for _ in range(num_users)]
        self.params = params
        self.reward = reward
        self.collaborative = collaborative
        self.state = None

    def select(self, rng):
        if self.collaborative:
            return ref_collaborative(self.tables, self.state,
                                     range(len(self.tables)), rng)
        coins, draws = ref_coins_and_draws(rng, len(self.tables))
        return np.array([ref_epsilon_greedy(t, self.state, coins[u], draws[u])
                         for u, t in enumerate(self.tables)], dtype=np.int64)

    def learn(self, choices, active, rates, jammed):
        s_next = min(channels(jammed), default=None)
        for u, table in enumerate(self.tables):
            if active[u]:
                table = ref_q_update(table, self.state, int(choices[u]),
                                     self.reward(u, choices, active, rates, jammed),
                                     s_next)
            self.tables[u] = ref_decay(table, self.params.epsilon_floor,
                                       self.params.epsilon_decay)
        self.state = s_next


class RefWindowLeader:
    def __init__(self, num_channels, params):
        self.params = params
        self.table = QTable(num_channels, params.learning_rate, 0.0,
                            params.epsilon_start)
        self.channel = 0
        self._slot_in_window = 0
        self._window_rate_sum = 0.0

    def act(self, t, rng):
        coin, draw = rng.random(2)
        if self._slot_in_window == 0:
            self.channel = ref_epsilon_greedy(self.table, None, coin, draw)
        return frozenset({self.channel})

    def observe(self, choices, active, rates):
        self._window_rate_sum += float(rates.sum())
        self._slot_in_window += 1
        if self._slot_in_window >= self.params.window_slots:
            reward = -self._window_rate_sum / self.params.window_slots
            self.table = ref_q_update(self.table, None, self.channel, reward, None)
            self.table = ref_decay(self.table, self.params.epsilon_floor,
                                   self.params.leader_epsilon_decay)
            self._slot_in_window = 0
            self._window_rate_sum = 0.0

    def greedy(self):
        return int(np.argmax(self.table.action_values(None)))


def q_array(tables):
    """The reference tables in the (N, M+1, M) layout, state M for None."""
    m = tables[0].num_channels
    states = list(range(m)) + [None]
    return np.array([[t.action_values(s) for s in states] for t in tables])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# random drives


@st.composite
def schedules(draw):
    """Sizes, exploration schedule and a seed for the drive's draws."""
    start = draw(st.floats(0.0, 1.0))
    return dict(
        trials=draw(st.integers(1, 4)),
        n=draw(st.integers(1, 6)),
        m=draw(st.integers(1, 5)),
        p_active=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        params=LearningParams(
            step_size=draw(st.floats(0.01, 0.99)),
            learning_rate=draw(st.floats(0.01, 1.0)),
            discount=draw(st.floats(0.0, 0.99)),
            epsilon_start=start,
            epsilon_floor=draw(st.floats(0.0, start)),
            epsilon_decay=draw(st.floats(0.01, 1.0)),
            window_slots=draw(st.integers(1, 4)),
            leader_epsilon_decay=draw(st.floats(0.01, 1.0))),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def slot_inputs(env, n, m, p_active):
    """One slot's activity, rates, per-user rewards and jam mask; n may be a
    shape, one entry per user of each trial."""
    active = env.random(n) < p_active
    rates = np.where(active, env.uniform(0.0, 3.0, size=n), 0.0)
    rewards = env.random(n)
    # some users get the reward range's end points exactly
    rewards[env.random(n) < 0.2] = env.choice([0.0, 1.0])
    jammed = env.random(np.shape(active)[:-1] + (m,)) < 0.4
    return active, rates, rewards, jammed


def generators(s):
    """Each trial's generator, for the block and for the reference."""
    seeds = [(s["seed"], i) for i in range(s["trials"])]
    return ([np.random.default_rng(x) for x in seeds],
            [np.random.default_rng(x) for x in seeds])


def slot_row(rngs, draws):
    """One slot's (T, draws) uniforms, each trial's row from its generator."""
    return np.stack([rng.random(draws) for rng in rngs])


def drive_users(new, refs, box, s, compare, slots=25):
    """Run a rule's block of trials and one reference per trial on the same
    draws, comparing every slot."""
    rngs_new, rngs_ref = generators(s)
    env = np.random.default_rng(s["seed"] + 1)
    for _ in range(slots):
        choices = selected(new, slot_row(rngs_new, new.draws), s["n"])
        assert choices.shape == (s["trials"], s["n"])
        for ref, rng, got in zip(refs, rngs_ref, choices):
            assert np.array_equal(got, ref.select(rng))
        active, rates, box["rewards"], jammed = slot_inputs(
            env, (s["trials"], s["n"]), s["m"], s["p_active"])
        new.learn(choices, active, rates, jammed)
        for i, ref in enumerate(refs):
            ref.learn(choices[i], active[i], rates[i], jammed[i])
        compare()
    for a, b in zip(rngs_new, rngs_ref):
        assert a.bit_generator.state == b.bit_generator.state


def trial_rewards(box, i):
    """Trial i's reference reward: user u's entry of the slot's rewards."""
    return lambda u, *_: float(box["rewards"][i][u])


def canned(reward, reads_rates=True):
    """A reward rule that hands back canned rewards, saying whether it reads
    the slot's rates as the library's rules do."""
    reward.reads_rates = reads_rates
    return reward


@given(schedules())
def test_automata_users_match_the_scalar_reference(s):
    box = {}
    new = AutomataUsers(s["n"], s["m"], s["params"].step_size,
                        [canned(lambda choices, active, rates, jammed:
                                box["rewards"])] * s["trials"])
    refs = [RefAutomataUsers(s["n"], s["m"], s["params"].step_size,
                             trial_rewards(box, i)) for i in range(s["trials"])]

    def compare():
        assert same_bits(new.strategy.probs, np.stack(
            [[r.probs for r in ref.strategies] for ref in refs]))
        assert np.array_equal(new.greedy(), np.stack([r.greedy() for r in refs]))
    drive_users(new, refs, box, s, compare)


@given(schedules(), st.booleans())
def test_q_users_match_the_scalar_reference(s, collaborative):
    box = {}
    new = QUsers(s["n"], s["m"], s["params"],
                 canned(lambda choices, active, rates, jammed: box["rewards"]),
                 [collaborative] * s["trials"])
    refs = [RefQUsers(s["n"], s["m"], s["params"], trial_rewards(box, i),
                      collaborative) for i in range(s["trials"])]

    def compare():
        assert same_bits(new.q, np.stack([q_array(r.tables) for r in refs]))
        assert all(t.epsilon == new.epsilon for r in refs for t in r.tables)
        # state M stands for nothing sensed yet
        assert new.state.tolist() == [s["m"] if r.state is None else r.state
                                      for r in refs]
    drive_users(new, refs, box, s, compare)


@given(schedules())
def test_window_leader_matches_the_scalar_reference(s):
    new = WindowLeader(s["trials"], s["m"], s["params"])
    refs = [RefWindowLeader(s["m"], s["params"]) for _ in range(s["trials"])]
    rngs_new, rngs_ref = generators(s)
    env = np.random.default_rng(s["seed"] + 1)
    shape = (s["trials"], s["n"])
    for t in range(30):
        jammed = acted(new, t, slot_row(rngs_new, new.draws), s["m"])
        assert jammed.dtype == bool and jammed.shape == (s["trials"], s["m"])
        for ref, rng, mask in zip(refs, rngs_ref, jammed):
            assert channels(mask) == ref.act(t, rng)
        choices = env.integers(0, s["m"], size=shape)
        active, rates, _, _ = slot_inputs(env, shape, s["m"], s["p_active"])
        new.observe(choices, active, rates)
        for i, ref in enumerate(refs):
            ref.observe(choices[i], active[i], rates[i])
        assert same_bits(new.values, np.stack(
            [r.table.action_values(None) for r in refs]))
        assert all(new.epsilon == r.table.epsilon for r in refs)
        assert new.greedy().tolist() == [r.greedy() for r in refs]
    for a, b in zip(rngs_new, rngs_ref):
        assert a.bit_generator.state == b.bit_generator.state


@st.composite
def hypergraphs(draw):
    """Up to 6 users, thresholds 1-4, with or without weak hyperedges."""
    n = draw(st.integers(1, 6))
    threshold = draw(st.integers(1, 4))
    pairs = []
    if n >= 2:
        pairs = draw(st.lists(st.sampled_from(
            [(u, v) for u in range(n) for v in range(u + 1, n)]), max_size=4))
    hyper = []
    size = max(3, threshold)
    if n >= size and draw(st.booleans()):
        hyper = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size,
                                      max_size=n).map(lambda h: tuple(sorted(h))),
                              min_size=1, max_size=3))
    return InterferenceHypergraph(num_users=n, strong_edges=tuple(set(pairs)),
                                  weak_hyperedges=tuple(set(hyper)),
                                  activation_threshold=threshold)


@given(hypergraphs(), st.integers(1, 5), st.sampled_from([0.3, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_reward_rules_match_the_scalar_reference(hg, m, p_active, seed):
    """Every user's reward, silent users' included, on jam masks that may
    be empty or cover several channels; the slots once alone and once as
    the trials of one block."""
    env = np.random.default_rng(seed)
    n = hg.num_users
    r_max = float(env.uniform(0.5, 3.0))
    rules = ((rate_reward(r_max), ref_rate_reward(r_max)),
             (interference_reward(hg), ref_interference_reward(hg)))
    slots = []
    for _ in range(10):
        # few channels, so users crowd onto one and fire the hyperedges
        choices = env.integers(0, min(m, 2), size=n) if env.random() < 0.5 \
            else env.integers(0, m, size=n)
        active, rates, _, jammed = slot_inputs(env, n, m, p_active)
        rates[env.random(n) < 0.2] = 4.0          # above r_max, clipped to 1
        slots.append((choices, active, rates, jammed))
        for new, ref in rules:
            got = new(choices, active, rates, jammed)
            want = [ref(u, choices, active, rates, jammed) for u in range(n)]
            assert same_bits(got, want)
    block = [np.stack(column) for column in zip(*slots)]
    for new, ref in rules:
        want = [[ref(u, *slot) for u in range(n)] for slot in slots]
        assert same_bits(new(*block), want)


@example(InterferenceHypergraph(1), 1, 1, 1.0, 0.0, 0)   # a lone link: 1
@example(InterferenceHypergraph(3, strong_edges=((0, 1), (0, 2), (1, 2))),
         1, 1, 1.0, 1.0, 0)                                 # every conflict: 0
@given(hypergraphs(), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_reward_rules_stay_in_the_unit_interval(hg, m, rows, p_active, p_jam,
                                                seed):
    """The slot loop steps the automata on their rules' rewards without
    checking their range: rate_reward and interference_reward must keep
    every reward in [0, 1], on rows of random profiles, activity and jam
    masks over random positions and hypergraphs, none to all users active
    and none to all channels jammed. The examples reach both ends: a lone
    unjammed link's rate is r_max itself, and users of a triangle on one
    jammed channel each lose every edge and the jammer, the normalizer."""
    env = np.random.default_rng(seed)
    n = hg.num_users
    geometry = NodeGeometry(user_pairs=env.uniform(-5, 5, size=(n, 2, 2)),
                            jammer_positions=env.uniform(-5, 5, size=(1, 2)))
    model = RateModel(geometry, RadioParams(num_channels=m, jam_power=2.0))
    choices = env.integers(0, m, size=(rows, n))
    active = env.random((rows, n)) < p_active
    jammed = env.random((rows, m)) < p_jam
    rates = model.rates(choices, jammed, active)
    for rule in (rate_reward(max_single_user_rate(model)), interference_reward(hg)):
        reward = rule(choices, active, rates, jammed)
        assert reward.shape == (rows, n)
        assert np.all((reward >= 0.0) & (reward <= 1.0)), reward


@given(hypergraphs(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_interference_reward_reuses_only_identical_inputs(hg, m, seed):
    """One rule called on a sequence of slots: repeats, an input written in
    place after it was passed, a change of trial count (a (1, N) profile
    and the same profile as (2, N)), partial activity and random jam masks.
    Every reward is the fresh one bit for bit, and writing to a reward, where
    that is allowed, changes no later one."""
    env = np.random.default_rng(seed)
    n = hg.num_users
    d_norm = float((hg.adjacency.sum(axis=1) + hg.membership.sum(axis=1)).max() + 1)
    rule = interference_reward(hg)
    choices = env.integers(0, m, size=(1, n))
    active, _, _, jammed = slot_inputs(env, (1, n), m, 0.7)
    for _ in range(40):
        move = env.integers(5)
        if move == 1:       # one entry written in place after the last call
            x = (choices, active, jammed)[env.integers(3)]
            i, k = env.integers(len(x)), env.integers(x.shape[-1])
            x[i, k] = not x[i, k] if x.dtype == bool else (x[i, k] + 1) % m
        elif move == 2:     # the same slot as one trial more or one less
            choices, active, jammed = (
                x[:1] if len(x) == 2 else np.concatenate([x, x])
                for x in (choices, active, jammed))
        elif move >= 3:     # a new slot of the same trial count
            choices = env.integers(0, min(m, 2) if move == 3 else m,
                                   size=choices.shape)
            active, _, _, jammed = slot_inputs(env, choices.shape, m,
                                               env.choice([0.3, 0.7, 1.0]))
        got = rule(choices, active, None, jammed)
        want = 1.0 - marginal_interference(hg, choices, active, jammed) / d_norm
        assert same_bits(got, want)
        try:
            got[...] = -1.0
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# merged rules: one rule over the rows of several algorithms equals one rule
# per row built for that row's algorithm alone


def drive_rows(new, alone, s, inputs, compare, slots=25):
    """Run a rule over a block's rows and one rule per row on the same
    uniforms and slot inputs, comparing every row's picks on every slot;
    inputs(env) gives a slot's (active, rates, jammed) of every row, and
    compare(i) checks row i's state after the slot."""
    rngs = generators(s)[0]
    env = np.random.default_rng(s["seed"] + 1)
    for _ in range(slots):
        u = slot_row(rngs, new.draws)
        choices = selected(new, u, s["n"])
        for i, rule in enumerate(alone):
            assert np.array_equal(choices[i:i + 1], selected(rule, u[i:i + 1], s["n"]))
        active, rates, jammed = inputs(env)
        new.learn(choices, active, rates, jammed)
        for i, rule in enumerate(alone):
            rule.learn(choices[i:i + 1], active[i:i + 1], rates[i:i + 1],
                       jammed[i:i + 1])
            compare(i)


@given(schedules(), st.lists(st.booleans(), min_size=2, max_size=4))
def test_q_users_with_mixed_rows_equal_each_rows_rule_alone(s, collaborative):
    """Rows that claim channels together beside rows that pick alone: each
    row's picks, Q values, sensed state and exploration are those of a
    QUsers built for that row's algorithm alone, bitwise."""
    s = dict(s, trials=len(collaborative))
    box = {}
    new = QUsers(s["n"], s["m"], s["params"], canned(lambda *_: box["rewards"]),
                 collaborative)
    alone = [QUsers(s["n"], s["m"], s["params"],
                    canned(lambda *_, i=i: box["rewards"][i:i + 1]), [claims])
             for i, claims in enumerate(collaborative)]

    def inputs(env):
        active, rates, box["rewards"], jammed = slot_inputs(
            env, (s["trials"], s["n"]), s["m"], s["p_active"])
        return active, rates, jammed

    def compare(i):
        assert same_bits(new.q[i], alone[i].q[0])
        assert new.state[i] == alone[i].state[0]
        assert new.epsilon == alone[i].epsilon
    drive_rows(new, alone, s, inputs, compare)


@given(schedules(), st.lists(st.sampled_from(["random", "sensing"]), min_size=2,
                             max_size=5))
def test_baseline_users_with_mixed_kinds_equal_each_rows_rule_alone(s, kinds):
    """Sensing rows beside random rows: each row's picks and remembered
    channel are those of a BaselineUsers of that row's kind alone, and its
    picks are baseline_action's of its own kind."""
    s = dict(s, trials=len(kinds), m=max(s["m"], 2))
    new = BaselineUsers(kinds, s["n"], s["m"])
    alone = [BaselineUsers([kind], s["n"], s["m"]) for kind in kinds]

    def inputs(env):
        active, rates, _, jammed = slot_inputs(env, (s["trials"], s["n"]),
                                               s["m"], s["p_active"])
        return active, rates, jammed

    def compare(i):
        assert new.state[i] == alone[i].state[0]
    drive_rows(new, alone, s, inputs, compare)
    # and after the drive, each row against its own kind's baseline_action
    u = np.random.default_rng(s["seed"] + 2).random((s["trials"], new.draws))
    for i, kind in enumerate(kinds):
        assert np.array_equal(selected(new, u, s["n"])[i], baseline_action(
            kind, alone[i].state[0], s["m"], u[i]))


@given(hypergraphs(), st.integers(1, 3), st.integers(1, 3), st.integers(2, 4),
       st.integers(0, 2 ** 32 - 1))
def test_automata_reward_ranges_equal_their_rules_alone(hg, rows_a, rows_b, m,
                                                        seed):
    """A hypergraph_sla range of rows beside a graph_sla range, each with
    its own interference reward: each row's picks and strategy are those of
    an AutomataUsers built for that row's algorithm alone, bitwise, and a
    range's reward is counted again only when its own rows' inputs change,
    whatever the other range's do."""
    n, rows = hg.num_users, rows_a + rows_b
    graph = hg.without_weak_edges()
    ranges = ((hg, slice(0, rows_a)), (graph, slice(rows_a, rows)))
    new = AutomataUsers(n, m, 0.2, [interference_reward(hg)] * rows_a
                        + [interference_reward(graph)] * rows_b)
    alone = [AutomataUsers(n, m, 0.2, [interference_reward(
        hg if i < rows_a else graph)]) for i in range(rows)]
    env = np.random.default_rng(seed)
    counted = []
    count = learning.marginal_interference
    last = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "marginal_interference",
                   lambda h, *args: (counted.append(h), count(h, *args))[1])
        for _ in range(20):
            u = env.random((rows, n))
            choices = selected(new, u, n)
            for i, rule in enumerate(alone):
                assert np.array_equal(choices[i:i + 1], selected(rule, u[i:i + 1], n))
            # few channels, so that fresh inputs repeat too
            choices = env.integers(0, min(m, 2), size=(rows, n))
            active = env.random((rows, n)) < 0.7
            jammed = env.random((rows, m)) < 0.4
            changed = []
            for graph_of, rows_of in ranges:
                if last is not None and env.random() < 0.5:  # repeat the range
                    for x, was in zip((choices, active, jammed), last):
                        x[rows_of] = was[rows_of]
                changed.append(last is None or not all(
                    np.array_equal(x[rows_of], was[rows_of])
                    for x, was in zip((choices, active, jammed), last)))
            counted.clear()
            new.learn(choices, active, None, jammed)
            assert [any(h is g for h in counted) for g, _ in ranges] == changed
            for i, rule in enumerate(alone):
                rule.learn(choices[i:i + 1], active[i:i + 1], None,
                           jammed[i:i + 1])
                assert same_bits(new.strategy.probs[i], rule.strategy.probs[0])
            last = (choices, active, jammed)


@st.composite
def strategy_rows(draw):
    """A (T, N, M) strategy with exact 0.0 and 1.0 entries among its rows, and
    one slot's channels, activity and rewards in [0, 1] with both ends."""
    t, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    env = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = env.random((t, n, m)) * (env.random((t, n, m)) < 0.7)
    probs[..., 0] += probs.sum(axis=-1) == 0.0
    probs /= probs.sum(axis=-1, keepdims=True)
    pure = env.random((t, n)) < 0.3
    probs[pure] = np.eye(m)[env.integers(0, m, size=pure.sum())]
    rewards = env.random((t, n))
    rewards[env.random((t, n)) < 0.3] = env.choice([0.0, 1.0])
    return (probs, env.integers(0, m, size=(t, n)),
            env.random((t, n)) < draw(st.sampled_from([0.0, 0.5, 1.0])), rewards,
            draw(st.floats(0.01, 0.99)))


@given(strategy_rows())
def test_automata_step_every_row_as_the_gathered_step(case):
    """AutomataUsers steps every row, an inactive user's with reward 0.0;
    that is the reference step of the active rows alone, bit for bit."""
    probs, choices, active, rewards, step_size = case
    t, n, m = probs.shape
    users = AutomataUsers(n, m, step_size, [canned(lambda *_: rewards, False)] * t)
    users.strategy = MixedStrategy(probs)
    gathered = probs.reshape(-1, m).copy()
    users.learn(choices, active, None, np.zeros((t, m), dtype=bool))
    reference_loop.sla_update(gathered, np.flatnonzero(active),
                              choices.reshape(-1), rewards.reshape(-1), step_size)
    assert same_bits(users.strategy.probs, gathered.reshape(probs.shape))


@given(st.lists(st.booleans(), min_size=1, max_size=5))
def test_observe_jamming_reads_the_lowest_masked_channel(bits):
    mask = np.array(bits)
    assert observe_jamming(mask) == min(channels(mask), default=len(bits))
    # one state per trial of a block
    block = np.stack([mask, ~mask])
    assert observe_jamming(block).tolist() == [
        min(channels(row), default=len(bits)) for row in block]
