"""Learning layer tests: automata updates, Q tables, joint selection.

Simplex preservation under the automata update is checked at drift scale
(1e5 sequential updates) since accumulation of rounding is exactly what the
linear reward-inaction form is supposed to avoid by construction.
"""

import dataclasses

import numpy as np
import pytest

from antijam.config import LearningParams
from antijam.errors import ConfigError
from antijam.learning import (AutomataUsers, HierarchicalController,
                              MixedStrategy, QTable, WindowLeader,
                              baseline_action, collaborative_joint_selection,
                              decay_epsilon, epsilon_greedy, observe_jamming,
                              q_update, rate_reward, sla_update,
                              uniform_strategy)


def table_with(num_channels, values, epsilon=0.0, lr=0.1, discount=0.0):
    t = QTable(num_channels=num_channels, learning_rate=lr, discount=discount,
               epsilon=epsilon)
    for (state_key, a), v in values.items():
        t = dataclasses.replace(
            t, values={**t.values, (state_key, a): float(v)})
    return t


# states: the last channel sensed as jammed, or None before any observation
S0 = None
S1 = 1


def test_observe_jamming_picks_lowest_or_none():
    assert observe_jamming(frozenset()) is None
    assert observe_jamming({2, 0, 3}) == 0
    assert observe_jamming([1]) == 1


def test_sla_update_hand_case():
    s = MixedStrategy(np.array([0.5, 0.5]))
    out = sla_update(s, chosen=0, normalized_reward=1.0, step_size=0.1)
    assert np.allclose(out.probs, [0.55, 0.45])
    # zero reward leaves the strategy untouched
    out = sla_update(s, chosen=0, normalized_reward=0.0, step_size=0.1)
    assert np.allclose(out.probs, [0.5, 0.5])


def test_sla_update_partial_reward_hand_case():
    s = MixedStrategy(np.array([0.2, 0.3, 0.5]))
    out = sla_update(s, chosen=2, normalized_reward=0.6, step_size=0.25)
    assert np.allclose(out.probs, [0.17, 0.255, 0.575])
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_sla_update_validation():
    s = uniform_strategy(3)
    with pytest.raises(ConfigError):
        sla_update(s, 0, 0.5, step_size=0.0)
    with pytest.raises(ConfigError):
        sla_update(s, 0, 0.5, step_size=1.0)
    with pytest.raises(ConfigError):
        sla_update(s, 0, 1.5, step_size=0.1)
    with pytest.raises(ConfigError):
        sla_update(s, 0, -0.1, step_size=0.1)


def test_simplex_preserved_over_many_updates():
    rng = np.random.default_rng(0)
    s = uniform_strategy(4)
    for _ in range(10 ** 5):
        s = sla_update(s, int(rng.integers(4)), float(rng.random()),
                       step_size=0.05)
        assert np.all(s.probs >= 0.0)
    assert abs(s.probs.sum() - 1.0) <= 1e-9


def test_pure_strategies_absorb():
    # a pure strategy only ever samples its own action, and rewarding that
    # action is a fixpoint of the update, so the learner can never leave
    s = MixedStrategy(np.array([0.0, 1.0, 0.0]))
    assert all(s.sample(np.random.default_rng(i)) == 1 for i in range(50))
    out = sla_update(s, 1, 1.0, 0.2)
    assert np.allclose(out.probs, s.probs)


def test_strategy_sampling_is_seeded():
    s = MixedStrategy(np.array([0.2, 0.5, 0.3]))
    a = [s.sample(np.random.default_rng(4)) for _ in range(10)]
    b = [s.sample(np.random.default_rng(4)) for _ in range(10)]
    assert a == b
    counts = np.bincount(
        [s.sample(np.random.default_rng(i)) for i in range(3000)], minlength=3)
    assert counts[1] > counts[0] and counts[1] > counts[2]


def test_mixed_strategy_validation():
    with pytest.raises(ConfigError):
        MixedStrategy(np.array([0.5, 0.6]))
    with pytest.raises(ConfigError):
        MixedStrategy(np.array([-0.2, 1.2]))


def test_q_update_one_step_arithmetic():
    # blank table, reward 1, lr 0.5, discount 0.9: new value is 0.5
    t = QTable(num_channels=2, learning_rate=0.5, discount=0.9, epsilon=0.0)
    t2 = q_update(t, S0, 0, 1.0, S1)
    assert t2.q(S0, 0) == pytest.approx(0.5)
    # myopic limit: lr 1, discount 0 copies the reward
    t = QTable(num_channels=2, learning_rate=1.0, discount=0.0, epsilon=0.0)
    t2 = q_update(t, S0, 1, 0.7, S1)
    assert t2.q(S0, 1) == pytest.approx(0.7)


def test_q_update_bootstraps_from_next_state():
    t = table_with(2, {(1, 0): 2.0})
    t = dataclasses.replace(t, learning_rate=0.5, discount=0.5)
    t2 = q_update(t, S0, 0, 1.0, S1)
    # target = 1.0 + 0.5 * max(2.0, 0.0) = 2.0; new = 0.5*0 + 0.5*2.0
    assert t2.q(S0, 0) == pytest.approx(1.0)


def test_q_update_is_functional_and_isolated():
    t = QTable(num_channels=3, learning_rate=0.2, discount=0.3, epsilon=0.1)
    t2 = q_update(t, S0, 2, 1.0, S0)
    assert t.q(S0, 2) == 0.0, "original table mutated"
    assert t2.q(S0, 2) != 0.0
    assert t2.q(S0, 0) == 0.0 and t2.q(S1, 2) == 0.0


def test_q_values_bounded_by_discounted_max():
    """Rewards in [0, r_max] keep values in [0, r_max/(1-discount)], fuzzed."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        r_max = float(rng.uniform(0.5, 5.0))
        discount = float(rng.uniform(0.0, 0.95))
        t = QTable(num_channels=3, learning_rate=float(rng.uniform(0.05, 1.0)),
                   discount=discount, epsilon=0.0)
        bound = r_max / (1.0 - discount)
        states = [S0, S1, 2]
        for _ in range(400):
            s, s2 = rng.choice(3), rng.choice(3)
            t = q_update(t, states[s], int(rng.integers(3)),
                         float(rng.uniform(0, r_max)), states[s2])
            vals = list(t.values.values())
            assert all(-1e-12 <= v <= bound + 1e-9 for v in vals)


def test_epsilon_greedy_extremes():
    t = table_with(3, {(None, 1): 5.0})
    assert epsilon_greedy(t, S0, np.random.default_rng(0)) == 1
    explorer = dataclasses.replace(t, epsilon=1.0)
    picks = {epsilon_greedy(explorer, S0, np.random.default_rng(i))
             for i in range(40)}
    assert picks == {0, 1, 2}


def test_collaborative_greedy_users_avoid_claims():
    # both users would argmax channel 2; the second in order must settle for
    # its best unclaimed channel, which is 0 on the value tie below
    t0 = table_with(3, {(None, 2): 3.0, (None, 0): 1.0, (None, 1): 1.0})
    t1 = table_with(3, {(None, 2): 3.0, (None, 0): 1.0, (None, 1): 1.0})
    picks = collaborative_joint_selection([t0, t1], S0, order=[0, 1],
                                          rng=np.random.default_rng(0))
    assert picks[0] == 2 and picks[1] == 0

    # order decides who wins the contested channel
    picks = collaborative_joint_selection([t0, t1], S0, order=[1, 0],
                                          rng=np.random.default_rng(0))
    assert picks[1] == 2 and picks[0] == 0


def test_collaborative_explorers_also_claim():
    # user 0 explores (epsilon 1) and happens to land on user 1's argmax;
    # user 1 is greedy and must dodge to its runner-up
    rng = np.random.default_rng(1)
    t0 = dataclasses.replace(table_with(3, {}), epsilon=1.0)
    t1 = table_with(3, {(None, 1): 4.0, (None, 2): 3.0})
    for _ in range(50):
        picks = collaborative_joint_selection([t0, t1], S0, order=[0, 1], rng=rng)
        if picks[0] == 1:
            assert picks[1] == 2
        else:
            assert picks[1] == 1


def test_collaborative_all_explorers_is_iid_uniform():
    rng = np.random.default_rng(6)
    tables = [dataclasses.replace(QTable(3, 0.1, 0.0, 1.0), epsilon=1.0)
              for _ in range(2)]
    picks = np.array([collaborative_joint_selection(tables, S0, [0, 1], rng)
                      for _ in range(6000)])
    # collisions must keep happening at roughly the iid 1/3 rate
    coll = float((picks[:, 0] == picks[:, 1]).mean())
    assert 0.28 < coll < 0.39
    for u in range(2):
        freqs = np.bincount(picks[:, u], minlength=3) / len(picks)
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.03)


def test_collaborative_saturated_claims_fall_back():
    tables = [table_with(2, {(None, 1): 1.0}) for _ in range(3)]
    picks = collaborative_joint_selection(tables, S0, [0, 1, 2],
                                          np.random.default_rng(0))
    # two channels, three users: the third pick falls back to its argmax
    assert sorted(picks[:2]) == [0, 1]
    assert picks[2] == 1


def test_collaborative_rejects_bad_order():
    tables = [QTable(2, 0.1, 0.0, 0.0) for _ in range(2)]
    with pytest.raises(ConfigError):
        collaborative_joint_selection(tables, S0, [0, 0], np.random.default_rng(0))


def test_baseline_actions():
    rng = np.random.default_rng(2)
    picks = {baseline_action("random", S0, 4, rng) for _ in range(100)}
    assert picks == {0, 1, 2, 3}
    # sensing never repeats the last observed jammed channel
    for i in range(100):
        a = baseline_action("sensing", S1, 4, np.random.default_rng(i))
        assert a != 1
    # without an observation sensing is plain uniform
    picks = {baseline_action("sensing", S0, 4, rng) for _ in range(100)}
    assert picks == {0, 1, 2, 3}
    with pytest.raises(ConfigError):
        baseline_action("psychic", S0, 4, rng)


def hierarchical(num_users, num_channels, params, r_max):
    """The stackelberg hierarchical arm: window leader over automata users."""
    return HierarchicalController(
        WindowLeader(num_channels, params),
        AutomataUsers(num_users, num_channels, params.step_size,
                      rate_reward(r_max)))


def hierarchical_step(controller, rate_fn, rng, t=0):
    """One slot of the two-timescale loop with every user active."""
    jammed, choices = controller.begin_slot(t, rng)
    rates = rate_fn(choices, jammed)
    controller.end_slot(rates, np.ones(len(choices), dtype=bool))
    return next(iter(jammed))


def test_hierarchical_window_mechanics():
    params = LearningParams(window_slots=5, step_size=0.1, epsilon_start=0.0,
                            epsilon_floor=0.0)
    ctl = hierarchical(num_users=2, num_channels=3, params=params, r_max=2.0)
    rng = np.random.default_rng(0)

    held = []
    def rate_fn(choices, jammed):
        # favor channel 0 so follower strategies drift toward it
        return np.where(np.asarray(choices) == 0, 2.0, 0.5)

    for t in range(10):
        held.append(hierarchical_step(ctl, rate_fn, rng, t))
    # the leader holds its channel for exactly window_slots slots
    assert len(set(held[:5])) == 1 and len(set(held[5:])) == 1
    # two windows have elapsed, so the leader table saw two updates
    assert len(ctl.leader.table.values) >= 1
    total = sum(s.probs.sum() for s in ctl.followers.strategies)
    assert total == pytest.approx(2.0, abs=1e-9)


def test_hierarchical_leader_learns_to_hurt():
    # followers fixed on channel 0 forever (step size tiny, strategies near
    # pure): jamming channel 0 gives the leader its best (least negative
    # mean-rate) reward, and the greedy leader should discover that
    params = LearningParams(window_slots=10, step_size=0.01, epsilon_start=0.5,
                            leader_epsilon_decay=0.9)
    ctl = hierarchical(num_users=1, num_channels=2, params=params, r_max=1.0)
    ctl.followers.strategies[0] = MixedStrategy(np.array([1.0, 0.0]))
    rng = np.random.default_rng(3)

    def rate_fn(choices, jammed):
        return np.array([0.2 if int(choices[0]) in jammed else 1.0])

    for t in range(600):
        hierarchical_step(ctl, rate_fn, rng, t)
    assert ctl.leader.greedy() == 0


def test_greedy_profile_reflects_strategies():
    users = AutomataUsers(num_users=2, num_channels=3, step_size=0.08,
                          reward=rate_reward(1.0))
    users.strategies[0] = MixedStrategy(np.array([0.1, 0.8, 0.1]))
    users.strategies[1] = MixedStrategy(np.array([0.0, 0.2, 0.8]))
    assert list(users.greedy()) == [1, 2]


def test_window_leader_learns_once_per_window():
    params = LearningParams(window_slots=3, learning_rate=0.5, epsilon_start=0.4,
                            epsilon_floor=0.3, leader_epsilon_decay=0.5)
    leader = WindowLeader(num_channels=2, params=params)
    rng = np.random.default_rng(5)
    first = leader.act(0, rng)
    (channel,) = first
    user, on = np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool)
    for t, total in ((1, 1.0), (2, 2.0)):
        leader.observe(user, on, np.array([total]))
        assert leader.act(t, rng) == first
    assert leader.table.values == {}
    leader.observe(user, on, np.array([3.0]))
    # reward is minus the window's mean total rate, epsilon decays to its floor
    assert leader.table.q(None, channel) == pytest.approx(-1.0)
    assert leader.table.epsilon == pytest.approx(0.3)
    assert leader.greedy() == 1 - channel


def test_decay_epsilon_clips_at_floor():
    t = QTable(num_channels=2, epsilon=0.5)
    assert decay_epsilon(t, floor=0.1, decay=0.5).epsilon == pytest.approx(0.25)
    assert decay_epsilon(t, floor=0.4, decay=0.5).epsilon == pytest.approx(0.4)
    assert t.epsilon == 0.5
