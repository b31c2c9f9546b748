"""Interference hypergraph tests.

The marginal/total consistency property is the backbone of the whole game
layer: the per-user marginal must equal the difference of totals with that
user present versus absent, for any assignment, activity pattern, and jam
set. Everything else here is small hand-checked cases.
"""

import numpy as np
import pytest

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


def random_hg(rng, n, thr=3):
    pairs = set()
    for _ in range(rng.integers(0, n)):
        u, v = rng.choice(n, size=2, replace=False)
        pairs.add((min(u, v), max(u, v)))
    hypers = set()
    if n >= max(3, thr):
        for _ in range(rng.integers(0, 3)):
            size = int(rng.integers(max(3, thr), n + 1))
            hypers.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return InterferenceHypergraph(num_users=n, strong_edges=tuple(pairs),
                                  weak_hyperedges=tuple(hypers),
                                  activation_threshold=thr)


def test_total_interference_hand_case():
    hg = small_hg()
    # strong (0,1) fires on channel 0; hyperedge count maxes at 2 < 3; two
    # users sit on the jammed channel 1
    total = total_generalized_interference(
        hg, choices=[0, 0, 1, 1], active_mask=[True] * 4,
        jammed_channels=frozenset({1}))
    assert total == 1 + 0 + 2 == 3


def test_threshold_activation_counts_per_channel():
    hg = InterferenceHypergraph(num_users=6, weak_hyperedges=((0, 1, 2, 3, 4, 5),),
                                activation_threshold=3)
    # six members all on channel 2: a single activation, not four
    assert total_generalized_interference(hg, [2] * 6, [True] * 6, frozenset()) == 1
    # three on channel 0, three on channel 1: one activation per channel
    assert total_generalized_interference(hg, [0, 0, 0, 1, 1, 1], [True] * 6,
                                          frozenset()) == 2


def test_inactive_members_do_not_count():
    hg = small_hg()
    total = total_generalized_interference(
        hg, choices=[0, 0, 1, 1], active_mask=[True, False, True, True],
        jammed_channels=frozenset({1}))
    # strong edge off (user 1 silent), hyperedge count 2 of 3, jam hits 2
    assert total == 2


def test_marginal_equals_total_difference():
    """marginal(n) == total(active) - total(active with n removed), fuzzed."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(3, 8))
        hg = random_hg(rng, n)
        m = int(rng.integers(2, 5))
        choices = rng.integers(0, m, size=n)
        active = rng.random(n) < 0.8
        jammed = frozenset(int(c) for c in rng.integers(0, m, size=rng.integers(0, 3)))
        total = total_generalized_interference(hg, choices, active, jammed)
        for u in range(n):
            without = active.copy()
            without[u] = False
            rest = total_generalized_interference(hg, choices, without, jammed)
            got = marginal_interference(hg, u, choices, active, jammed)
            assert got == total - rest, (
                f"user {u}: marginal {got} != {total} - {rest}")


def test_marginal_of_inactive_user_is_zero():
    hg = small_hg()
    assert marginal_interference(hg, 1, [0, 0, 0, 0], [True, False, True, True],
                                 frozenset({0})) == 0


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

    hg2 = build_hypergraph(geo, strong_radius=0.95, weak_radius=3.0)
    # now (0,1) is weak-only, the triangle is not a full strong clique
    assert (0, 1) not in hg2.strong_edges
    assert hg2.weak_hyperedges == ((0, 1, 2),)

    with pytest.raises(ConfigError):
        build_hypergraph(geo, strong_radius=2.0, weak_radius=1.0)


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
