"""Jammer pattern tests.

The sweep schedule is the only stateful-looking static pattern, but it is a
pure function of the slot index; jammer_action gives the static patterns'
sets. The random pick and the reactive fallback read the uniform they are
handed and nothing else, and ScriptedJammers.act makes them, one per trial;
the hand-checked cases below call it. reference_loop.jammer_action is the
scalar pick of every kind that the slot loop's schedule is checked against.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_loop
from slot_rows import acted
from antijam.errors import ConfigError, UnsupportedOperationError
from antijam.jammers import KINDS, JammerPattern, ScriptedJammers, jammer_action


def test_fixed_jams_one_channel_forever():
    p = JammerPattern(kind="fixed", num_channels=4, fixed_channel=2)
    for t in (0, 1, 17, 999):
        assert jammer_action(p, t) == frozenset({2})


def test_comb_jams_its_whole_set():
    p = JammerPattern(kind="comb", num_channels=4, comb_set=(3, 0))
    assert p.comb_set == (0, 3)  # stored sorted
    for t in range(5):
        assert jammer_action(p, t) == frozenset({0, 3})


def test_sweep_schedule_hand_checked():
    # dwell 2, M=3, start 1: two slots per channel, wrapping at the top
    p = JammerPattern(kind="sweep", num_channels=3, dwell=2, start_channel=1)
    got = [jammer_action(p, t) for t in range(8)]
    want = [1, 1, 2, 2, 0, 0, 1, 1]
    assert got == [frozenset({c}) for c in want]


def test_sweep_dwell_one_cycles_every_slot():
    p = JammerPattern(kind="sweep", num_channels=4, dwell=1, start_channel=0)
    seen = [next(iter(jammer_action(p, t))) for t in range(12)]
    assert seen == [t % 4 for t in range(12)]


def picks(jam, t, u):
    """The one channel each trial's mask holds at slot t."""
    mask = acted(jam, t, np.asarray(u, dtype=float).reshape(len(u), -1),
                 jam.table.shape[-1])
    assert (mask.sum(axis=-1) == 1).all()
    return mask.argmax(axis=-1).tolist()


def hear(jam, heard):
    """Every trial's users active on the channels in heard, one row a trial."""
    choices = np.array(heard)
    jam.observe(choices, np.ones(choices.shape, dtype=bool), None)


def test_random_is_seeded_and_in_range():
    jam = ScriptedJammers([JammerPattern(kind="random", num_channels=5)], 4, 5, 20)
    assert jam.draws == 1
    a = [picks(jam, t, np.random.default_rng(3).random(4)) for t in range(20)]
    b = [picks(jam, t, np.random.default_rng(3).random(4)) for t in range(20)]
    assert a == b
    assert all(0 <= c < 5 for row in a for c in row)
    # a uniform's channel is min(int(u*M), M-1), the top edge included
    assert picks(jam, 0, [0.0, 0.39, 0.4, 1.0]) == [0, 1, 2, 4]


def test_jammer_action_refuses_the_drawing_kinds():
    for kind in ("random", "reactive"):
        with pytest.raises(UnsupportedOperationError):
            jammer_action(JammerPattern(kind=kind, num_channels=4), 0)


def test_reactive_follows_the_crowd():
    jam = ScriptedJammers([JammerPattern(kind="reactive", num_channels=4)], 3, 4, 2)
    hear(jam, [[2, 0, 2, 1], [0, 1, 0, 1], [3, 3, 1, 1]])
    # ties break toward the lowest channel index
    assert picks(jam, 1, [0.9, 0.9, 0.9]) == [2, 0, 1]


def counter_rule(heard):
    """The most heard channel by a Counter, lowest index on ties."""
    counts = Counter(int(c) for c in heard)
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=9))))
def test_reactive_pick_equals_the_counter_rule(case):
    m, heard = case
    p = JammerPattern(kind="reactive", num_channels=m)
    jam = ScriptedJammers([p], 1, m, 2)
    hear(jam, [heard])
    assert picks(jam, 1, [0.5]) == [counter_rule(heard)]
    assert reference_loop.jammer_action(p, 1, heard, 0.5) \
        == frozenset({counter_rule(heard)})


def test_reactive_fallback_before_any_observation():
    jam = ScriptedJammers([JammerPattern(kind="reactive", num_channels=4)], 2, 4, 3)
    # before any observation, the uniform's channel
    assert picks(jam, 0, [0.0, 0.6]) == [0, 2]
    # it hears the crowd whenever there is one, whatever the uniform
    hear(jam, [[3], [1]])
    assert picks(jam, 1, [0.0, 0.99]) == [3, 1]
    # after a slot in which every user was silent, the uniform's channel again
    jam.observe(np.array([[3], [1]]), np.zeros((2, 1), dtype=bool), None)
    assert picks(jam, 2, [0.3, 0.99]) == [1, 3]


def test_pattern_validation():
    with pytest.raises(ConfigError):
        JammerPattern(kind="barrage", num_channels=4)
    with pytest.raises(ConfigError):
        JammerPattern(kind="comb", num_channels=4, comb_set=())
    with pytest.raises(ConfigError):
        JammerPattern(kind="sweep", num_channels=4, dwell=0)
    with pytest.raises(ConfigError):
        JammerPattern(kind="fixed", num_channels=4, fixed_channel=7)
    with pytest.raises(ConfigError):
        jammer_action(JammerPattern(kind="fixed", num_channels=4), -1)


def test_every_kind_emits_a_subset_of_channels():
    rng = np.random.default_rng(11)
    patterns = [
        JammerPattern(kind="fixed", num_channels=3, fixed_channel=1),
        JammerPattern(kind="comb", num_channels=3, comb_set=(0, 2)),
        JammerPattern(kind="sweep", num_channels=3, dwell=3, start_channel=2),
        JammerPattern(kind="random", num_channels=3),
        JammerPattern(kind="reactive", num_channels=3),
    ]
    for p in patterns:
        jam = ScriptedJammers([p], 2, 3, 30)
        for t in range(30):
            mask = acted(jam, t, rng.random((2, jam.draws)), 3)
            assert mask.any(axis=-1).all()
            jam.observe(rng.integers(0, 3, size=(2, 4)), rng.random((2, 4)) < 0.5,
                        None)


@st.composite
def pattern_lists(draw):
    """One to three patterns of any kinds on up to 5 channels."""
    m = draw(st.integers(1, 5))
    channel = st.integers(0, m - 1)
    patterns = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        comb = tuple(draw(st.sets(channel, min_size=1))) if kind == "comb" else None
        patterns.append(JammerPattern(
            kind=kind, num_channels=m, fixed_channel=draw(channel),
            comb_set=comb, dwell=draw(st.integers(1, 3)),
            start_channel=draw(channel)))
    return m, patterns


@given(pattern_lists(), st.integers(1, 4), st.integers(1, 70),
       st.integers(0, 2 ** 32 - 1))
def test_schedule_jams_the_union_of_the_patterns_sets(case, trials, slots, seed):
    """Slot by slot and trial by trial, ScriptedJammers jams the union of
    reference_loop.jammer_action's sets: the static patterns from the table, whose period
    may be longer or shorter than the run, and each random or reactive
    pattern from its own uniform, a reactive one hearing the channels of its
    trial's active users in the previous slot."""
    m, patterns = case
    jam = ScriptedJammers(patterns, trials, m, slots)
    rng = np.random.default_rng(seed)
    heard = [None] * trials
    for t in range(slots):
        u = rng.random((trials, jam.draws))
        mask = acted(jam, t, u, m)
        assert mask.dtype == bool and mask.shape == (trials, m)
        for i in range(trials):
            draws = iter(u[i])
            want = set()
            for p in patterns:
                drawn = next(draws) if p.kind in ("random", "reactive") else None
                want |= reference_loop.jammer_action(p, t, heard[i], drawn)
            assert set(np.flatnonzero(mask[i]).tolist()) == want
        choices = rng.integers(0, m, size=(trials, 4))
        active = rng.random((trials, 4)) < 0.5
        jam.observe(choices, active, None)
        heard = [c[a] for c, a in zip(choices, active)]
