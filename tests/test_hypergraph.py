"""Interference hypergraph tests.

The marginal/total consistency property is the backbone of the whole game
layer: the per-user marginal must equal the difference of totals with that
user present versus absent, for any assignment, activity pattern, and jam
mask, and both counts must equal the scalar loops of scalar_interference.
Everything else here is small hand-checked cases.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_interference as scalar
from antijam.env import NodeGeometry
from antijam.errors import ConfigError
from antijam.hypergraph import (InterferenceHypergraph, build_hypergraph,
                                marginal_interference,
                                total_generalized_interference)


def small_hg():
    return InterferenceHypergraph(
        num_users=4,
        strong_edges=((0, 1),),
        weak_hyperedges=((1, 2, 3),),
        activation_threshold=3,
    )


def mask(channels, num_channels):
    out = np.zeros(num_channels, dtype=bool)
    out[list(channels)] = True
    return out


@st.composite
def profiles(draw):
    """(hypergraph, choices, active, jam mask): up to 7 users on 1-4
    channels, thresholds 1-4, random strong edges and weak hyperedges."""
    n = draw(st.integers(1, 7))
    thr = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    strong = [e for e in pairs if draw(st.booleans())]
    size = max(3, thr)
    weak = []
    if n >= size:
        weak = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size,
                                     max_size=n).map(lambda h: tuple(sorted(h))),
                             unique=True, max_size=3))
    hg = InterferenceHypergraph(num_users=n, strong_edges=tuple(strong),
                                weak_hyperedges=tuple(weak),
                                activation_threshold=thr)
    m = draw(st.integers(1, 4))
    choices = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    jammed = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    return hg, choices, active, jammed


def test_total_interference_hand_case():
    hg = small_hg()
    # strong (0,1) fires on channel 0; hyperedge count maxes at 2 < 3; two
    # users sit on the jammed channel 1
    total = total_generalized_interference(
        hg, np.array([0, 0, 1, 1]), np.ones(4, dtype=bool), mask({1}, 2))
    assert total == 1 + 0 + 2 == 3


def test_threshold_activation_counts_per_channel():
    hg = InterferenceHypergraph(num_users=6, weak_hyperedges=((0, 1, 2, 3, 4, 5),),
                                activation_threshold=3)
    everyone = np.ones(6, dtype=bool)
    # six members all on channel 2: a single activation, not four
    assert total_generalized_interference(hg, np.full(6, 2), everyone,
                                          mask((), 3)) == 1
    # three on channel 0, three on channel 1: one activation per channel
    assert total_generalized_interference(hg, np.array([0, 0, 0, 1, 1, 1]),
                                          everyone, mask((), 2)) == 2


def test_inactive_members_do_not_count():
    hg = small_hg()
    total = total_generalized_interference(
        hg, np.array([0, 0, 1, 1]), np.array([True, False, True, True]),
        mask({1}, 2))
    # strong edge off (user 1 silent), hyperedge count 2 of 3, jam hits 2
    assert total == 2


@settings(max_examples=300)
@given(profiles())
def test_marginal_equals_total_difference(case):
    """marginal(n) == total(active) - total(active with n removed) for every
    user, and both counts equal the scalar loops exactly."""
    hg, choices, active, jammed = case
    total = total_generalized_interference(hg, choices, active, jammed)
    assert total == scalar.total_generalized_interference(
        hg, choices, active, scalar.channel_set(jammed))
    got = marginal_interference(hg, choices, active, jammed)
    want = [scalar.marginal_interference(hg, u, choices, active,
                                         scalar.channel_set(jammed))
            for u in range(hg.num_users)]
    assert got.tolist() == want
    for u in range(hg.num_users):
        without = active.copy()
        without[u] = False
        rest = total_generalized_interference(hg, choices, without, jammed)
        assert got[u] == total - rest, (
            f"user {u}: marginal {got[u]} != {total} - {rest}")


def test_marginal_of_inactive_user_is_zero():
    hg = small_hg()
    got = marginal_interference(hg, np.zeros(4, dtype=np.int64),
                                np.array([True, False, True, True]), mask({0}, 1))
    assert got[1] == 0


def test_without_weak_edges_strips_only_hyperedges():
    hg = small_hg()
    plain = hg.without_weak_edges()
    assert plain.strong_edges == hg.strong_edges
    assert plain.weak_hyperedges == ()
    assert plain.num_users == hg.num_users


def test_build_from_geometry():
    # three tight transmitters, one loner; rx co-located with tx
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [10.0, 0.0]]
    geo = NodeGeometry(user_pairs=[[p, p] for p in pts])
    hg = build_hypergraph(geo, strong_radius=1.1, weak_radius=3.0,
                          activation_threshold=3)
    # pairwise distances: d01=1.0, d02~0.94, d12~0.94, all <= 1.1
    assert hg.strong_edges == ((0, 1), (0, 2), (1, 2))
    # the triangle is a complete strong clique, so no hyperedge for it
    assert hg.weak_hyperedges == ()

    hg2 = build_hypergraph(geo, strong_radius=0.95, weak_radius=3.0,
                           activation_threshold=3)
    # now (0,1) is weak-only, the triangle is not a full strong clique
    assert (0, 1) not in hg2.strong_edges
    assert hg2.weak_hyperedges == ((0, 1, 2),)

    with pytest.raises(ConfigError):
        build_hypergraph(geo, strong_radius=2.0, weak_radius=1.0,
                         activation_threshold=3)


def test_hypergraph_validation():
    with pytest.raises(ConfigError):
        InterferenceHypergraph(num_users=3, strong_edges=((0, 0),))
    with pytest.raises(ConfigError):
        InterferenceHypergraph(num_users=3, strong_edges=((0, 5),))
    with pytest.raises(ConfigError):
        InterferenceHypergraph(num_users=4, weak_hyperedges=((0, 1),))
    with pytest.raises(ConfigError):
        InterferenceHypergraph(num_users=4, weak_hyperedges=((0, 1, 1),))
    with pytest.raises(ConfigError):
        InterferenceHypergraph(num_users=6, weak_hyperedges=((0, 1, 2),),
                               activation_threshold=4)
    # threshold above every hyperedge size is fine when sizes comply
    InterferenceHypergraph(num_users=6, weak_hyperedges=((0, 1, 2, 3),),
                           activation_threshold=4)


def test_edges_are_canonicalized():
    hg = InterferenceHypergraph(num_users=5, strong_edges=((3, 1), (2, 0)),
                                weak_hyperedges=((4, 2, 0),))
    assert hg.strong_edges == ((0, 2), (1, 3))
    assert hg.weak_hyperedges == ((0, 2, 4),)
    # the incidence arrays follow the canonical edges and are read-only
    assert np.argwhere(hg.adjacency).tolist() == [[0, 2], [1, 3], [2, 0], [3, 1]]
    assert hg.membership[:, 0].tolist() == [1, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        hg.adjacency[0, 1] = 1
