"""Learning layer tests: automata updates, Q arrays, joint selection.

Simplex preservation under the automata update is checked at drift scale
(1e5 sequential updates) since accumulation of rounding is exactly what the
linear reward-inaction form is supposed to avoid by construction.
"""

import numpy as np
import pytest

from antijam.config import LearningParams
from antijam.errors import ConfigError
from antijam.learning import (AutomataUsers, BaselineUsers,
                              HierarchicalController,
                              MixedStrategy, QUsers, WindowLeader,
                              baseline_action, collaborative_joint_selection,
                              epsilon_greedy, observe_jamming, q_update,
                              rate_reward, sla_update)
from slot_rows import acted, selected

# states on the 4 channels of these tests: the last channel sensed as
# jammed, or M = 4 before any observation
S0 = 4
S1 = 1

ONE = np.zeros(1, dtype=np.int64)   # the index array of a lone learner


def jam(*channels, m=4):
    """The (m,) jam mask of the given channels."""
    mask = np.zeros(m, dtype=bool)
    mask[list(channels)] = True
    return mask


def strategy(*rows):
    return MixedStrategy(np.array(rows, dtype=np.float64))


def step(s, chosen, reward, step_size):
    """sla_update of a one-row strategy."""
    sla_update(s, [chosen], [reward], step_size)
    return s


def scripted(coins, channels):
    """One scripted row of uniforms, every coin then every channel draw."""
    return np.array([*coins, *channels], dtype=np.float64)


def draws(seed, size):
    """size uniforms from a generator seeded with seed."""
    return np.random.default_rng(seed).random(size)


def test_observe_jamming_picks_lowest_or_none():
    # none sensed is state M, one past the channels
    assert observe_jamming(jam()) == 4
    assert observe_jamming(jam(2, 0, 3)) == 0
    assert observe_jamming(jam(1)) == 1


def test_sla_update_hand_case():
    out = step(strategy([0.5, 0.5]), chosen=0, reward=1.0, step_size=0.1)
    assert np.allclose(out.probs[0], [0.55, 0.45])
    # zero reward leaves the strategy untouched
    out = step(strategy([0.5, 0.5]), chosen=0, reward=0.0, step_size=0.1)
    assert np.allclose(out.probs[0], [0.5, 0.5])


def test_sla_update_partial_reward_hand_case():
    out = step(strategy([0.2, 0.3, 0.5]), chosen=2, reward=0.6, step_size=0.25)
    assert np.allclose(out.probs[0], [0.17, 0.255, 0.575])
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_sla_update_steps_only_the_listed_users():
    # a reward of 0.0 leaves the middle row's bits as they are
    s = strategy([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
    sla_update(s, [0, 0, 1], [1.0, 0.0, 1.0], 0.1)
    assert np.allclose(s.probs, [[0.55, 0.45], [0.5, 0.5], [0.45, 0.55]])
    assert s.probs[1].tobytes() == np.full(2, 0.5).tobytes()


def test_sla_update_of_every_row_needs_an_entry_per_row():
    s = strategy([0.5, 0.5], [0.5, 0.5])
    sla_update(s, [0, 1], [1.0, 0.0], 0.1)
    assert np.allclose(s.probs, [[0.55, 0.45], [0.5, 0.5]])
    # one reward would broadcast over both rows; it is refused instead, and
    # so are too few channels or too many of either
    for chosen, rewards in (([0, 1], [1.0]), ([0], [1.0, 1.0]),
                            ([0, 1, 0], [1.0, 1.0, 1.0])):
        with pytest.raises(ConfigError, match="per row"):
            sla_update(s, chosen, rewards, 0.1)


def test_sla_update_steps_a_strategy_that_is_not_contiguous():
    """probs reassigned to a transposed array reshape to a copy, not a view;
    the step must land in the strategy all the same, row for row in C
    order, as it does in a contiguous copy of it."""
    s = MixedStrategy(np.full((2, 2, 3), 1 / 3))
    s.probs = s.probs.transpose(1, 0, 2)
    want = MixedStrategy(np.ascontiguousarray(s.probs))
    s.probs[0, 1] = want.probs[0, 1] = [0.5, 0.25, 0.25]
    sla_update(s, np.zeros(4, int), np.ones(4), 0.5)
    sla_update(want, np.zeros(4, int), np.ones(4), 0.5)
    assert not np.array_equal(want.probs, np.full((2, 2, 3), 1 / 3))
    assert s.probs.tobytes(order="C") == want.probs.tobytes()


def test_sla_update_validation():
    s = strategy([1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ConfigError):
        step(s, 0, 0.5, step_size=0.0)
    with pytest.raises(ConfigError):
        step(s, 0, 0.5, step_size=1.0)
    with pytest.raises(ConfigError):
        step(s, 0, 1.5, step_size=0.1)
    with pytest.raises(ConfigError):
        step(s, 0, -0.1, step_size=0.1)
    with pytest.raises(ConfigError):
        step(s, 0, float("nan"), step_size=0.1)
    with pytest.raises(ConfigError):
        step(s, 3, 0.5, step_size=0.1)
    with pytest.raises(ConfigError):
        step(s, -1, 0.5, step_size=0.1)
    # every row's reward and channel are read, a row with reward 0.0 too
    two = strategy([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ConfigError, match="channel"):
        sla_update(two, [1, 7], [0.5, 0.0], 0.1)
    with pytest.raises(ConfigError, match="reward"):
        sla_update(two, [1, 0], [0.5, 9.0], 0.1)
    assert np.array_equal(two.probs, np.full((2, 2), 0.5))
    # a row pushed off the simplex is caught after the step, though its
    # reward of 0.0 leaves it where it is
    two.probs[1] = [0.7, 0.7]
    with pytest.raises(ConfigError, match="sum to 1"):
        sla_update(two, [0, 0], [0.5, 0.0], 0.1)


def test_a_row_off_the_simplex_by_1e6_is_refused():
    """The simplex tolerance is 1e-9 on a row's sum: a row off by 1e-6 is
    refused when a strategy is made and after an update, where a reward of
    0.0 leaves it unstepped too; a row off by 1e-12 is not."""
    strategy([0.5, 0.5 + 1e-12])
    for off in (1e-6, -1e-6):
        with pytest.raises(ConfigError, match="sum to 1"):
            strategy([0.5, 0.5 + off])
        for row, rewards in ((0, [0.5, 0.5]), (1, [0.5, 0.0])):
            two = strategy([0.5, 0.5], [0.5, 0.5])
            two.probs[row, 1] += off
            with pytest.raises(ConfigError, match="sum to 1"):
                sla_update(two, [0, 0], rewards, 0.1)


def test_simplex_preserved_over_many_updates():
    rng = np.random.default_rng(0)
    s = strategy([0.25] * 4)
    for _ in range(10 ** 5):
        step(s, int(rng.integers(4)), float(rng.random()), step_size=0.05)
        assert np.all(s.probs >= 0.0)
    assert abs(s.probs.sum() - 1.0) <= 1e-9


def test_pure_strategies_absorb():
    # a pure strategy only ever samples its own action, and rewarding that
    # action is a fixpoint of the update, so the learner can never leave
    s = strategy([0.0, 1.0, 0.0])
    assert all(s.sample(draws(i, 1))[0] == 1 for i in range(50))
    out = step(strategy([0.0, 1.0, 0.0]), 1, 1.0, 0.2)
    assert np.allclose(out.probs, s.probs)


def test_strategy_sampling_is_seeded():
    s = strategy([0.2, 0.5, 0.3])
    a = [s.sample(draws(4, 1))[0] for _ in range(10)]
    b = [s.sample(draws(4, 1))[0] for _ in range(10)]
    assert a == b
    counts = np.bincount(
        [s.sample(draws(i, 1))[0] for i in range(3000)], minlength=3)
    assert counts[1] > counts[0] and counts[1] > counts[2]


def test_strategy_rows_sample_independently():
    s = strategy([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert list(s.sample(draws(0, 3))) == [0, 2, 1]


def test_mixed_strategy_validation():
    with pytest.raises(ConfigError):
        strategy([0.5, 0.6])
    with pytest.raises(ConfigError):
        strategy([-0.2, 1.2])
    with pytest.raises(ConfigError):
        strategy([0.5, 0.5], [0.2, 0.2])
    with pytest.raises(ConfigError):
        MixedStrategy(np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        MixedStrategy(np.zeros((0, 3)))


def test_mixed_strategy_refuses_nan_entries():
    # NaN fails every comparison, so the check must ask for the good case
    with pytest.raises(ConfigError):
        strategy([float("nan"), 1.0])
    with pytest.raises(ConfigError):
        strategy([float("nan"), float("nan")])


def test_q_update_one_step_arithmetic():
    # blank table, reward 1, lr 0.5, discount 0.9: new value is 0.5
    q = np.zeros((1, 3, 2))
    q_update(q, ONE, 2, [0], [1.0], S1, learning_rate=0.5, discount=0.9)
    assert q[0, 2, 0] == pytest.approx(0.5)
    # myopic limit: lr 1, discount 0 copies the reward
    q = np.zeros((1, 3, 2))
    q_update(q, ONE, 2, [1], [0.7], S1, learning_rate=1.0, discount=0.0)
    assert q[0, 2, 1] == pytest.approx(0.7)


def test_q_update_bootstraps_from_next_state():
    q = np.zeros((1, 3, 2))
    q[0, 1, 0] = 2.0
    q_update(q, ONE, 2, [0], [1.0], S1, learning_rate=0.5, discount=0.5)
    # target = 1.0 + 0.5 * max(2.0, 0.0) = 2.0; new = 0.5*0 + 0.5*2.0
    assert q[0, 2, 0] == pytest.approx(1.0)


def test_q_update_touches_only_the_stepped_entries():
    q = np.zeros((3, 4, 3))
    q_update(q, [0, 2], 3, [2, 0, 1], [1.0, 1.0, 1.0], 3,
             learning_rate=0.2, discount=0.3)
    assert q[0, 3, 2] != 0.0 and q[2, 3, 1] != 0.0
    q[0, 3, 2] = q[2, 3, 1] = 0.0
    assert not q.any(), "an entry outside the stepped (user, state, channel) moved"


def test_q_values_bounded_by_discounted_max():
    """Rewards in [0, r_max] keep values in [0, r_max/(1-discount)], fuzzed."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        r_max = float(rng.uniform(0.5, 5.0))
        discount = float(rng.uniform(0.0, 0.95))
        lr = float(rng.uniform(0.05, 1.0))
        q = np.zeros((1, 3, 3))
        bound = r_max / (1.0 - discount)
        for _ in range(400):
            s, s2 = rng.choice(3), rng.choice(3)
            q_update(q, ONE, s, [int(rng.integers(3))],
                     [float(rng.uniform(0, r_max))], s2, lr, discount)
            assert -1e-12 <= q.min() and q.max() <= bound + 1e-9


def test_epsilon_greedy_extremes():
    values = np.array([[0.0, 5.0, 0.0]])
    assert list(epsilon_greedy(values, 0.0, draws(0, 2))) == [1]
    picks = {int(epsilon_greedy(values, 1.0, draws(i, 2))[0])
             for i in range(40)}
    assert picks == {0, 1, 2}
    # all rows at once: each row's coin decides for that row alone
    rows = np.array([[0.0, 5.0, 0.0], [3.0, 0.0, 0.0]])
    u = scripted(coins=[0.9, 0.1], channels=[0.0, 0.99])
    assert list(epsilon_greedy(rows, 0.5, u)) == [1, 2]


def test_collaborative_greedy_users_avoid_claims():
    # both users would argmax channel 2; the second in turn must settle for
    # its best unclaimed channel, which is 0 on the value tie below
    values = np.array([[1.0, 1.0, 3.0], [1.0, 1.0, 3.0]])
    picks = collaborative_joint_selection(values, 0.0, draws(0, 4))
    assert picks[0] == 2 and picks[1] == 0

    # turn order decides who wins the contested channel: with the rows
    # swapped, the user that went second now goes first and takes channel 2
    values = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 3.0]])
    picks = collaborative_joint_selection(values, 0.0, draws(0, 4))
    assert list(picks) == [2, 0]
    swapped = collaborative_joint_selection(values[::-1], 0.0,
                                            draws(0, 4))[::-1]
    assert list(swapped) == [1, 2]


def test_collaborative_explorers_also_claim():
    # user 0 explores and lands on user 1's argmax; user 1 is greedy and
    # must dodge to its runner-up
    values = np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 3.0]])
    for landing in range(3):
        # user 0's channel draw lands on `landing`; user 1's is never read
        u = scripted(coins=[0.0, 0.99], channels=[(landing + 0.5) / 3, 0.0])
        picks = collaborative_joint_selection(values, 0.5, u)
        assert picks[0] == landing
        if picks[0] == 1:
            assert picks[1] == 2
        else:
            assert picks[1] == 1


def test_collaborative_all_explorers_is_iid_uniform():
    rng = np.random.default_rng(6)
    values = np.zeros((2, 3))
    picks = np.array([collaborative_joint_selection(values, 1.0, rng.random(4))
                      for _ in range(6000)])
    # collisions must keep happening at roughly the iid 1/3 rate
    coll = float((picks[:, 0] == picks[:, 1]).mean())
    assert 0.28 < coll < 0.39
    for u in range(2):
        freqs = np.bincount(picks[:, u], minlength=3) / len(picks)
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.03)


def test_collaborative_saturated_claims_fall_back():
    values = np.array([[0.0, 1.0]] * 3)
    picks = collaborative_joint_selection(values, 0.0, draws(0, 6))
    # two channels, three users: the third pick falls back to its argmax
    assert sorted(picks[:2]) == [0, 1]
    assert picks[2] == 1


def test_baseline_actions():
    rng = np.random.default_rng(2)
    picks = set(baseline_action("random", S0, 4, rng.random(100)).tolist())
    assert picks == {0, 1, 2, 3}
    # sensing never repeats the last observed jammed channel
    for i in range(100):
        a = baseline_action("sensing", S1, 4, draws(i, 1))
        assert a[0] != 1
    assert 1 not in baseline_action("sensing", S1, 4, rng.random(100))
    # without an observation sensing is plain uniform
    picks = set(baseline_action("sensing", S0, 4, rng.random(100)).tolist())
    assert picks == {0, 1, 2, 3}
    # each trial avoids its own last observation
    picks = baseline_action("sensing", np.array([1, 2]), 4, rng.random((2, 100)))
    assert 1 not in picks[0] and 2 not in picks[1]
    with pytest.raises(ConfigError):
        baseline_action("psychic", S0, 4, rng.random(1))


def hierarchical(num_users, num_channels, params, r_max):
    """The stackelberg hierarchical arm of one trial: window leader over
    automata users."""
    return HierarchicalController(
        WindowLeader(1, num_channels, params),
        [AutomataUsers(num_users, num_channels, params.step_size,
                       [rate_reward(r_max)])])


def hierarchical_step(controller, rate_fn, rng, t=0):
    """One slot of the two-timescale loop of one trial, every user active."""
    _, users = controller.followers[0]
    rows, n, m = users.strategy.probs.shape
    choices = np.empty((rows, n), dtype=np.int64)
    jammed = np.empty((rows, m), dtype=bool)
    controller.begin_slot(t, rng.random((1, controller.draws)), choices, jammed)
    rates = rate_fn(choices[0], jammed[0])[None, None]  # (slots, trials, N)
    controller.end_slot(choices, jammed, rates, np.ones(choices.shape, dtype=bool))
    (channel,) = np.flatnonzero(jammed[0])
    return int(channel)


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
    # two windows have elapsed, so the leader's values saw two updates
    assert np.count_nonzero(ctl.leader.values) >= 1
    total = ctl.followers[0][1].strategy.probs.sum()
    assert total == pytest.approx(2.0, abs=1e-9)


def test_hierarchical_leader_learns_to_hurt():
    # followers fixed on channel 0 forever (step size tiny, strategies near
    # pure): jamming channel 0 gives the leader its best (least negative
    # mean-rate) reward, and the greedy leader should discover that
    params = LearningParams(window_slots=10, step_size=0.01, epsilon_start=0.5,
                            leader_epsilon_decay=0.9)
    ctl = hierarchical(num_users=1, num_channels=2, params=params, r_max=1.0)
    ctl.followers[0][1].strategy.probs[0] = [1.0, 0.0]
    rng = np.random.default_rng(3)

    def rate_fn(choices, jammed):
        return np.array([0.2 if jammed[choices[0]] else 1.0])

    for t in range(600):
        hierarchical_step(ctl, rate_fn, rng, t)
    assert ctl.leader.greedy()[0] == 0


def test_controller_keeps_no_slot_state():
    """begin_slot has the leader write its mask into the jammed row it is
    handed, and every rule its picks into its slice of the choices row, over
    whatever stale entries the rows held, and returns nothing; end_slot
    steps the rules on the choices and mask it is handed, not on what
    begin_slot wrote; and no array of the controller, its leader or its
    rules shares memory with an array handed to either."""
    params = LearningParams(window_slots=1, learning_rate=0.5, step_size=0.5)
    automata = AutomataUsers(2, 3, params.step_size, [rate_reward(1.0)] * 2)
    sensing = BaselineUsers(["sensing"], 2, 3)
    ctl = HierarchicalController(WindowLeader(3, 3, params), [automata, sensing])
    held = dict(vars(ctl))
    u = np.random.default_rng(4).random((3, ctl.draws))
    choices = np.full((3, 2), -1)
    jammed = np.ones((3, 3), dtype=bool)
    assert ctl.begin_slot(0, u, choices, jammed) is None
    assert np.array_equal(choices[:2], selected(automata, u[:2, 2:], 2))
    assert np.array_equal(choices[2:], selected(sensing, u[2:, 2:], 2))
    assert np.array_equal(jammed, np.arange(3) == ctl.leader.channel[:, None])

    def holds_none_of(*given):
        for owner in (ctl, ctl.leader, automata, sensing):
            for name, value in vars(owner).items():
                for array in given:
                    assert not (isinstance(value, np.ndarray)
                                and np.shares_memory(value, array)), name
    holds_none_of(u, choices, jammed)

    handed = (choices + 1) % 3
    unjammed = ~jammed
    rates, active = np.ones((1, 3, 2)), np.ones((3, 2), dtype=bool)
    ctl.end_slot(handed, unjammed, rates, active)
    # each automaton stepped towards its handed channel on reward 1
    stepped = automata.strategy.probs[[[0], [1]], [0, 1], handed[:2]]
    assert stepped == pytest.approx(np.full((2, 2), 1 / 3 + 0.5 * 2 / 3))
    # the sensing row remembers the lowest channel of the handed mask
    assert sensing.state.tolist() == observe_jamming(unjammed[2:]).tolist()
    assert observe_jamming(unjammed[2:]) != observe_jamming(jammed[2:])
    # the leader learned each row's total rate on its channel
    assert ctl.leader.values[np.arange(3), ctl.leader.channel] == pytest.approx(-1.0)

    assert vars(ctl).keys() == held.keys()
    assert all(vars(ctl)[key] is value for key, value in held.items())
    holds_none_of(u, choices, jammed, handed, unjammed, rates, active)


@pytest.mark.parametrize("rows", [
    pytest.param([2, 0], id="a-rule-with-no-rows"),
    pytest.param([1], id="too-few-rows"),
    pytest.param([2, 1], id="too-many-rows")])
def test_controller_refuses_rules_that_do_not_tile_the_leaders_rows(rows):
    """The rules serve consecutive slices of the leader's two rows: a rule
    with no rows is refused, even where the others add up, and so are rules
    whose rows add up to fewer or more than the leader's."""
    params = LearningParams()
    with pytest.raises(ConfigError):
        HierarchicalController(WindowLeader(2, 3, params),
                               [BaselineUsers(["random"] * count, 2, 3)
                                for count in rows])
    ctl = HierarchicalController(WindowLeader(2, 3, params),
                                 [BaselineUsers(["random"], 2, 3)] * 2)
    assert [served for served, _ in ctl.followers] == [slice(0, 1), slice(1, 2)]


def test_greedy_profile_reflects_strategies():
    users = AutomataUsers(num_users=2, num_channels=3, step_size=0.08,
                          rewards=[rate_reward(1.0)] * 2)
    users.strategy.probs[:] = [[[0.1, 0.8, 0.1], [0.0, 0.2, 0.8]],
                               [[0.5, 0.2, 0.3], [0.3, 0.3, 0.4]]]
    assert users.greedy().tolist() == [[1, 2], [0, 2]]


def test_window_leader_learns_once_per_window():
    params = LearningParams(window_slots=3, learning_rate=0.5, epsilon_start=0.4,
                            epsilon_floor=0.3, leader_epsilon_decay=0.5)
    leader = WindowLeader(num_trials=1, num_channels=2, params=params)
    rng = np.random.default_rng(5)
    first = acted(leader, 0, rng.random((1, 2)), 2)
    (channel,) = np.flatnonzero(first[0])
    user, on = np.zeros((1, 1), dtype=np.int64), np.ones((1, 1), dtype=bool)
    for t, total in ((1, 1.0), (2, 2.0)):
        leader.observe(user, on, np.array([[total]]))
        assert np.array_equal(acted(leader, t, rng.random((1, 2)), 2), first)
    assert not leader.values.any()
    leader.observe(user, on, np.array([[3.0]]))
    # reward is minus the window's mean total rate, epsilon decays to its floor
    assert leader.values[0, channel] == pytest.approx(-1.0)
    assert leader.epsilon == pytest.approx(0.3)
    assert leader.greedy()[0] == 1 - channel


def test_exploration_decays_every_slot_to_its_floor():
    # every user's exploration decays on every slot, active or not, and
    # stops at the floor
    params = LearningParams(epsilon_start=0.5, epsilon_floor=0.1,
                            epsilon_decay=0.5)
    users = QUsers(2, 3, params, rate_reward(1.0), collaborative=[False])
    idle = np.zeros((1, 2), dtype=bool)
    users.learn(np.zeros((1, 2), dtype=np.int64), idle, np.zeros((1, 2)),
                jam(m=3)[None])
    assert users.epsilon == pytest.approx(0.25)
    assert not users.q.any()
    for _ in range(3):
        users.learn(np.zeros((1, 2), dtype=np.int64), idle, np.zeros((1, 2)),
                    jam(m=3)[None])
    assert users.epsilon == pytest.approx(0.1)
