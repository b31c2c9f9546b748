"""Rate environment tests: path loss, SINR rates, per-slot activity and jamming.

The two frozen rate vectors below were worked out by hand with the plain
Shannon formula before the model existed, so they cross-check the whole
gain/interference/jamming pipeline and not just internal consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_rates
from antijam import jammers, load_config, ne_bounds
from antijam.env import (NodeGeometry, RadioParams, RateModel, _at_own_channel,
                         jam_mask, link_gain, max_single_user_rate,
                         uniform_channels)
from antijam.errors import ConfigError
from antijam.games import GameSpec, is_pure_nash, user_utility
from antijam.runner import simulate_trial, trial_generator


def two_user_setup():
    geo = NodeGeometry(
        user_pairs=[[[0.0, 0.0], [1.0, 0.0]], [[3.0, 0.0], [3.0, 1.0]]],
        jammer_positions=[[1.0, 1.0]],
    )
    params = RadioParams(num_channels=2, tx_power=2.0, jam_power=4.0,
                         noise_floor=0.05, pathloss_exponent=2.0)
    return geo, params


def tiny_markov(**overrides):
    doc = {"scenario": "markov", "num_users": 2, "num_channels": 3,
           "slots": 400, "seed": 4, "algorithms": ["random"]}
    doc.update(overrides)
    return doc


def record_slots(doc):
    """Run one trial of doc's first algorithm and return what the runner
    handed the rate model for each slot: (choices, jam mask, active mask,
    rates). Every call holds (K, 1, N) rows, the one trial's row of each of
    K slots: one slot when the feedback reads rates, else the slots since
    the last call through a window's or a slot block's end."""
    config = load_config(doc)
    model = RateModel(config.geometry, config.radio)
    rates_fn = model.rates
    seen = []

    def recording(choices, jammed, active, **kwargs):
        rates = rates_fn(choices, jammed, active, **kwargs)
        assert choices.shape == active.shape == rates.shape
        assert choices.shape[1:] == (1, config.num_users)
        assert jammed.shape == (len(choices), 1, config.num_channels)
        seen.extend(zip(np.array(choices[:, 0]), np.array(jammed[:, 0]),
                        np.array(active[:, 0]), rates[:, 0]))
        return rates

    model.rates = recording
    simulate_trial(config, config.algorithms[:1],
                   [trial_generator(config.seed, 0, 0)], model,
                   max_single_user_rate(model))
    return seen


def test_link_gain_inverse_square():
    params = RadioParams(num_channels=1, pathloss_exponent=2.0)
    assert link_gain([0.0, 0.0], [2.0, 0.0], params) == pytest.approx(0.25)
    assert link_gain([0.0, 0.0], [10.0, 0.0], params) == pytest.approx(0.01)


def test_link_gain_clamps_below_min_distance():
    # Anything closer than min_distance is treated as sitting at min_distance,
    # including the degenerate zero-distance case.
    params = RadioParams(num_channels=1, pathloss_exponent=3.0, min_distance=1.0)
    assert link_gain([0.0, 0.0], [0.3, 0.0], params) == 1.0
    assert link_gain([5.0, 5.0], [5.0, 5.0], params) == 1.0


def test_rates_match_hand_computed_values():
    geo, params = two_user_setup()
    model = RateModel(geo, params)
    both = model.rates(np.array([0, 0]), frozenset({0}), np.array([True, True]))
    # user 0: signal 2, interference 0.5, jam 4, noise 0.05
    # user 1: signal 2, interference 0.2, jam 1, noise 0.05
    assert both[0] == pytest.approx(0.525628361338754, abs=1e-12)
    assert both[1] == pytest.approx(1.3785116232537298, abs=1e-12)

    split = model.rates(np.array([0, 1]), frozenset({0}), np.array([True, True]))
    assert split[0] == pytest.approx(0.5790132343899698, abs=1e-12)
    assert split[1] == pytest.approx(5.357552004618084, abs=1e-12)


def test_channel_relabeling_leaves_rates_unchanged():
    """Channels are physically identical, so any permutation of the labels
    applied to both the assignment and the jammed set is a no-op."""
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        pairs = rng.uniform(-5, 5, size=(n, 2, 2))
        jams = rng.uniform(-5, 5, size=(int(rng.integers(0, 3)), 2))
        geo = NodeGeometry(user_pairs=pairs, jammer_positions=jams)
        params = RadioParams(num_channels=m, tx_power=1.5, jam_power=2.0,
                             noise_floor=0.02, pathloss_exponent=2.5)
        model = RateModel(geo, params)
        choices = rng.integers(0, m, size=n)
        active = rng.random(n) < 0.8
        jammed = frozenset(int(c) for c in rng.integers(0, m, size=2))
        perm = rng.permutation(m)
        base = model.rates(choices, jammed, active)
        relabeled = model.rates(perm[choices],
                                frozenset(int(perm[c]) for c in jammed), active)
        assert np.allclose(base, relabeled), "relabeling changed the physics"


def test_inactive_users_have_zero_rate_and_no_footprint():
    geo, params = two_user_setup()
    model = RateModel(geo, params)
    silent = model.rates(np.array([0, 0]), frozenset(), np.array([True, False]))
    assert silent[1] == 0.0
    alone = model.rates(np.array([0, 1]), frozenset(), np.array([True, True]))
    # with user 1 off-channel or inactive, user 0 sees the same clean rate
    assert silent[0] == pytest.approx(alone[0])


def test_extra_cochannel_interferer_never_helps():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        pairs = rng.uniform(-4, 4, size=(n, 2, 2))
        geo = NodeGeometry(user_pairs=pairs)
        params = RadioParams(num_channels=3, noise_floor=0.05)
        model = RateModel(geo, params)
        choices = rng.integers(0, 3, size=n)
        active = np.ones(n, dtype=bool)
        off = active.copy()
        victim = int(rng.integers(n))
        off[victim] = False
        with_all = model.rates(choices, frozenset(), active)
        without = model.rates(choices, frozenset(), off)
        keep = np.arange(n) != victim
        assert np.all(with_all[keep] <= without[keep] + 1e-12)


def test_jam_on_other_channel_is_harmless():
    geo, params = two_user_setup()
    model = RateModel(geo, params)
    clean = model.rates(np.array([1, 1]), frozenset(), np.array([True, True]))
    jammed_elsewhere = model.rates(np.array([1, 1]), frozenset({0}),
                                   np.array([True, True]))
    assert np.allclose(clean, jammed_elsewhere)


def test_max_single_user_rate_upper_bounds_everything():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        pairs = rng.uniform(-6, 6, size=(n, 2, 2))
        # co-locate each rx with its tx so the best link gain is realized
        pairs[:, 1, :] = pairs[:, 0, :]
        geo = NodeGeometry(user_pairs=pairs,
                           jammer_positions=rng.uniform(-6, 6, size=(1, 2)))
        params = RadioParams(num_channels=4, jam_power=3.0)
        model = RateModel(geo, params)
        r_max = max_single_user_rate(model)
        choices = rng.integers(0, 4, size=n)
        active = rng.random(n) < 0.9
        jammed = frozenset({int(rng.integers(4))})
        rates = model.rates(choices, jammed, active)
        assert np.all(rates <= r_max + 1e-12)


def test_advance_slot_rolls_state_forward():
    """Every slot draws each user's activity as Bernoulli(active_probability);
    a silent user gets rate 0 and an active one a positive rate."""
    seen = record_slots(tiny_markov(active_probability=0.6))
    assert len(seen) == 400
    active = np.array([a for _, _, a, _ in seen])
    rates = np.array([r for _, _, _, r in seen])
    assert np.all(rates[~active] == 0.0)
    assert np.all(rates[active] > 0.0)
    assert 0.5 < active.mean() < 0.7
    assert all(a.all() for _, _, a, _ in record_slots(tiny_markov(active_probability=1.0)))
    assert not any(a.any() for _, _, a, _ in record_slots(tiny_markov(active_probability=0.0)))


def test_multiple_jammers_union():
    doc = tiny_markov(slots=20,
                      jammers=[{"kind": "fixed", "fixed_channel": 0},
                               {"kind": "fixed", "fixed_channel": 1}],
                      geometry={"jammer_positions": [[1.0, 1.0], [-2.0, 0.5]]})
    assert all(jammed.tolist() == [True, True, False]
               for _, jammed, _, _ in record_slots(doc))
    # a jammed receiver hears the power of every jammer
    config = load_config(doc)
    model = RateModel(config.geometry, config.radio)
    rx = config.geometry.rx
    for n in range(2):
        expected = sum(link_gain(pos, rx[n], config.radio)
                       for pos in ([1.0, 1.0], [-2.0, 0.5]))
        assert model.jam_at_rx[n] == pytest.approx(expected)
    # a position per jammer is mandatory
    doc["geometry"] = {"jammer_positions": [[1.0, 1.0]]}
    with pytest.raises(ConfigError):
        load_config(doc)


@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_rates_read_a_channel_set_and_its_mask_alike(n, m, data):
    """The slot loop hands rates a jam mask, the oracle often a channel set:
    both must give bitwise the same rates, empty and multi-channel sets too."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    geo = NodeGeometry(user_pairs=rng.uniform(-5, 5, size=(n, 2, 2)),
                       jammer_positions=rng.uniform(-5, 5, size=(2, 2)))
    model = RateModel(geo, RadioParams(num_channels=m, jam_power=3.0))
    choices = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                          max_size=n)))
    active = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    jammed = data.draw(st.frozensets(st.integers(0, m - 1)))
    mask = jam_mask(jammed, m)
    assert mask.dtype == bool and mask.shape == (m,)
    assert set(np.flatnonzero(mask).tolist()) == jammed
    assert jam_mask(mask, m) is mask
    assert model.rates(choices, jammed, active).tobytes() \
        == model.rates(choices, mask, active).tobytes()


@settings(max_examples=60)
@given(st.integers(1, 16), st.integers(1, 5), st.integers(1, 300),
       st.integers(1, 3), st.data())
def test_a_block_of_slots_is_priced_as_its_slots_alone(n, m, k, t, data):
    """The runner prices the slots of a window or a block, of one trial or
    several, as one (K, T, N) call, each row with its own activity and its
    own jam mask: every row must be bitwise the rates of that slot priced
    alone."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    geo = NodeGeometry(user_pairs=rng.uniform(-8, 8, size=(n, 2, 2)),
                       jammer_positions=rng.uniform(-8, 8, size=(2, 2)))
    model = RateModel(geo, RadioParams(
        num_channels=m, tx_power=float(rng.uniform(0.5, 2)),
        jam_power=float(rng.uniform(0, 4)), noise_floor=1e-3,
        pathloss_exponent=float(rng.uniform(2, 4))))
    choices = rng.integers(0, m, size=(k, t, n))
    active = rng.random((k, t, n)) < data.draw(st.sampled_from([0.3, 0.8, 1.0]))
    jammed = rng.random((k, t, m)) < 0.4
    block = model.rates(choices, jammed, active)
    assert block.shape == (k, t, n)
    rows = np.stack([model.rates(c, j, a) for c, j, a in zip(
        choices.reshape(-1, n), jammed.reshape(-1, m), active.reshape(-1, n))])
    assert block.tobytes() == rows.tobytes()


@settings(max_examples=300)
@given(st.one_of(st.sampled_from([(8, 3), (2, 4)]),
                 st.tuples(st.integers(1, 16), st.integers(1, 5))),
       st.lists(st.integers(1, 3), max_size=2), st.sampled_from([0.5, 1.0]),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_own_channel_rates_are_the_deviation_rates_at_each_users_channel(
        size, trials, p, density, seed):
    """rates sums each user's heard power at its own channel only, an einsum
    of its own: with 0-2 leading trial axes, more users than channels
    (fig5's 8 x 3) or fewer (fig4's 2 x 4), partial or full activity and
    any jam density, it must equal the deviation table read at each user's
    channel and the scalar reference of each profile, bit for bit, checked
    or not."""
    n, m = size
    rng = np.random.default_rng(seed)
    geo = NodeGeometry(user_pairs=rng.uniform(-10, 10, size=(n, 2, 2)),
                       jammer_positions=rng.uniform(-10, 10, size=(2, 2)))
    model = RateModel(geo, RadioParams(
        num_channels=m, tx_power=float(rng.uniform(0.5, 2)),
        jam_power=float(rng.uniform(0, 4)), noise_floor=1e-3))
    choices = rng.integers(0, m, size=(*trials, n))
    active = rng.random((*trials, n)) < p
    jammed = rng.random((*trials, m)) < density
    got = model.rates(choices, jammed, active)
    assert got.shape == choices.shape
    assert model.rates(choices, jammed, active, checked=False).tobytes() \
        == got.tobytes()
    assert _at_own_channel(model.deviation_rates(choices, active, jammed),
                           choices).tobytes() == got.tobytes()
    want = [scalar_rates.rates(model, c, j, a) for c, j, a in zip(
        choices.reshape(-1, n), jammed.reshape(-1, m), active.reshape(-1, n))]
    assert np.stack(want).tobytes() == got.tobytes()


@pytest.mark.parametrize("jammed", [
    {0.5}, {7}, {-4}, [True, False, False, False],
    np.zeros(3, dtype=bool), np.zeros((1, 4), dtype=bool), np.zeros(4, dtype=int)],
    ids=["fraction", "past-the-end", "negative", "bool-list", "short-mask",
         "2d-mask", "int-mask"])
def test_jammed_channels_are_validated_at_the_boundary(jammed):
    """A jammed entry that is not a channel, or a mask of the wrong shape or
    dtype, is refused alike by the slot model and the oracles; none of them
    may read {0.5} as channel 0 or skip {7}."""
    geo, _ = two_user_setup()
    game = GameSpec("stackelberg", geo, RadioParams(num_channels=4))
    choices, on = np.array([0, 1]), np.array([True, True])
    with pytest.raises(ConfigError):
        game.rate_model.rates(choices, jammed, on)
    with pytest.raises(ConfigError):
        is_pure_nash(game, choices, jammed)
    with pytest.raises(ConfigError):
        ne_bounds(game, jammed, num_trials=4)


@pytest.mark.parametrize("choices, active", [
    ([[0, 1], [0]], [True, True]),
    ([0, 1], [[True], [True, False]]),
    ([0, 1], [0.5, 2]),
    ([0, 1], [1, 0]),
    ([0, 1], ["x", ""]),
], ids=["ragged-profile", "ragged-activity", "fraction-activity",
        "int-activity", "string-activity"])
def test_profiles_and_activity_are_validated_at_the_boundary(choices, active):
    """A ragged profile or activity list, or an activity entry that is not a
    bool, is a ConfigError in the slot model and the oracle alike: neither
    lets numpy's ValueError out, nor reads 0.5 or "x" as an active user."""
    geo, _ = two_user_setup()
    game = GameSpec("stackelberg", geo, RadioParams(num_channels=4))
    with pytest.raises(ConfigError):
        game.rate_model.rates(choices, set(), active)
    with pytest.raises(ConfigError):
        user_utility(game, 0, choices, set(), active)


def test_numpy_integer_channels_are_accepted():
    geo, _ = two_user_setup()
    model = RateModel(geo, RadioParams(num_channels=4))
    choices, on = np.array([0, 1]), np.array([True, True])
    assert model.rates(choices, {np.int64(0)}, on).tobytes() \
        == model.rates(choices, {0}, on).tobytes()


@pytest.mark.parametrize("scenario", ["markov", "hypergraph"])
def test_reactive_jammer_hears_only_active_users(monkeypatch, scenario):
    """A silent user cannot be observed: the reactive jammer sees the channels
    of the previous slot's active users, and nothing after an all-silent slot,
    when it falls back to its uniform's channel."""
    heard, draws = [], []
    act = jammers.ScriptedJammers.act

    def spy(self, t, u, out):
        heard.append(self.heard[0].copy())
        draws.append(float(u[0, 0]))
        act(self, t, u, out)

    monkeypatch.setattr(jammers.ScriptedJammers, "act", spy)
    doc = tiny_markov(scenario=scenario, num_users=3, slots=200,
                      active_probability=0.5, jammer={"kind": "reactive"},
                      algorithms=["random"])
    seen = record_slots(doc)
    assert any(not a.any() for _, _, a, _ in seen), "no all-silent slot drawn"
    assert not heard[0].any()
    for t in range(len(seen)):
        if t:
            choices, _, active, _ = seen[t - 1]
            assert heard[t].tolist() == np.bincount(choices[active],
                                                    minlength=3).tolist()
        want = heard[t].argmax() if heard[t].any() \
            else uniform_channels(draws[t], 3)
        assert np.flatnonzero(seen[t][1]).tolist() == [want]


def test_radio_params_validation():
    with pytest.raises(ConfigError):
        RadioParams(num_channels=0)
    with pytest.raises(ConfigError):
        RadioParams(num_channels=2, tx_power=0.0)
    with pytest.raises(ConfigError):
        RadioParams(num_channels=2, noise_floor=-1.0)
    # zero jam power is legal: a jammer that radiates nothing
    RadioParams(num_channels=2, jam_power=0.0)
