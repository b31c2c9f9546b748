"""Metric and equilibrium-bound tests.

ne_bounds gets cross-checked against full enumeration on instances small
enough to enumerate, which is the regime the exhaustive-start guarantee is
designed for.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antijam import GameSpec, enumerate_pure_nash, ne_bounds
from antijam.env import NodeGeometry, RadioParams
from antijam.errors import ConfigError
from antijam.games import run_best_response
from antijam.hypergraph import InterferenceHypergraph
from antijam.metrics import mean_ci, network_rate, normalized_capacity
from antijam.runner import _slot_metrics


def slot(rates, active=None):
    """(rates, active mask) of one slot; every user active by default."""
    rates = np.asarray(rates, dtype=float)
    active = np.ones(rates.size, dtype=bool) if active is None \
        else np.asarray(active, dtype=bool)
    return rates, active


def small_game(rng, n, m):
    pairs = set()
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.choice(n, size=2, replace=False)
        pairs.add((min(u, v), max(u, v)))
    hg = InterferenceHypergraph(num_users=n, strong_edges=tuple(pairs))
    geo = NodeGeometry(user_pairs=rng.uniform(-4, 4, size=(n, 2, 2)),
                       jammer_positions=rng.uniform(-4, 4, size=(1, 2)))
    return GameSpec(kind="hypergraph", geometry=geo,
                    params=RadioParams(num_channels=m), hypergraph=hg)


def rate_sum_and_mean_active(rates, active):
    """The slot loop's rate_sum and rate_mean_active, both read from the one
    network_rate sum, for the slot as a one-trial block."""
    choices = np.zeros((1, rates.size), dtype=np.int64)
    no_jam = np.zeros((1, 1), dtype=bool)
    return tuple(_slot_metrics(choices, no_jam, active[None], rates[None],
                               r_max=1.0)[0, :2])


def capacity(rates, active, r_max):
    """normalized_capacity of the slot's network_rate sum."""
    return normalized_capacity(network_rate(rates, active), rates.shape[-1], r_max)


def test_network_rate_modes():
    s = slot([1.0, 2.0, 5.0], active=[True, True, False])
    assert network_rate(*s) == pytest.approx(3.0)
    assert rate_sum_and_mean_active(*s) == pytest.approx((3.0, 1.5))


def test_network_rate_all_silent():
    s = slot([0.0, 0.0], active=[False, False])
    assert network_rate(*s) == 0.0
    assert rate_sum_and_mean_active(*s) == (0.0, 0.0)


@given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 12),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_network_rate_adds_each_rows_active_rates_alone(slots, trials, n, p, seed):
    """A block of (slots, trials) rows sums each row as its compacted
    active rates sum alone, bit for bit, at every row count and activity."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 3.0, size=(slots, trials, n))
    active = rng.random(rates.shape) < p
    rates[~active] = 0.0
    want = [[float(rates[s, t][active[s, t]].sum()) for t in range(trials)]
            for s in range(slots)]
    assert network_rate(rates, active).tobytes() == np.array(want).tobytes()


def test_normalized_capacity_definition():
    s = slot([2.0, 2.0, 2.0])
    assert capacity(*s, r_max=2.0) == pytest.approx(1.0)
    assert capacity(*s, r_max=4.0) == pytest.approx(0.5)
    half = slot([1.0, 1.0, 1.0])
    assert capacity(*half, 2.0) == pytest.approx(0.5 * capacity(*s, 2.0))
    silent = slot([0.0, 0.0], active=[False, False])
    assert capacity(*silent, 2.0) == 0.0
    # the ceiling counts every user of a trial, not the size of a block
    block = np.stack([s[0], half[0]])
    assert capacity(block, np.ones(block.shape, dtype=bool), 2.0).tolist() \
        == [1.0, 0.5]
    with pytest.raises(ConfigError):
        normalized_capacity(1.0, 3, 0.0)


def test_normalized_capacity_stays_in_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        r_max = float(rng.uniform(1.0, 8.0))
        rates = rng.uniform(0, r_max, size=n)
        active = rng.random(n) < 0.7
        rates[~active] = 0.0
        cap = capacity(rates, active, r_max)
        assert 0.0 <= cap <= 1.0


def test_ne_bounds_match_enumeration_extremes():
    rng = np.random.default_rng(55)
    for _ in range(8):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        game = small_game(rng, n, m)
        jammed = frozenset({0})
        profiles = enumerate_pure_nash(game, jammed)
        values = [float(game.rate_model.rates(p, jammed, np.ones(n, bool)).sum())
                  for p in profiles]
        got = ne_bounds(game, jammed, num_trials=max(200, m ** n),
                        rng=np.random.default_rng(1))
        assert got.best == pytest.approx(max(values))
        assert got.worst == pytest.approx(min(values))
        assert got.num_failed == 0


def test_ne_bounds_unique_equilibrium_collapses():
    # a single user has one equilibrium outcome value; bounds must agree
    hg = InterferenceHypergraph(num_users=1)
    geo = NodeGeometry(user_pairs=[[[0.0, 0.0], [0.0, 0.0]]],
                       jammer_positions=[[0.5, 0.5]])
    game = GameSpec(kind="hypergraph", geometry=geo,
                    params=RadioParams(num_channels=3, jam_power=2.0),
                    hypergraph=hg)
    out = ne_bounds(game, frozenset({0}), num_trials=30,
                    rng=np.random.default_rng(0))
    assert out.best == pytest.approx(out.worst)
    assert out.best >= out.worst


def test_ne_bounds_contain_any_best_response_outcome():
    rng = np.random.default_rng(81)
    game = small_game(rng, 3, 3)
    jammed = frozenset({1})
    out = ne_bounds(game, jammed, num_trials=200, rng=np.random.default_rng(2))
    for _ in range(20):
        start = rng.integers(0, 3, size=3)
        final, ok, _ = run_best_response(game, start, jammed)
        assert ok
        v = float(game.rate_model.rates(final, jammed, np.ones(3, bool)).sum())
        assert out.worst - 1e-9 <= v <= out.best + 1e-9


def test_ne_bounds_validation():
    rng = np.random.default_rng(0)
    game = small_game(rng, 2, 2)
    with pytest.raises(ConfigError):
        ne_bounds(game, num_trials=0)


def test_mean_ci_hand_case():
    m, ci = mean_ci([1.0, 2.0, 3.0])
    assert m == pytest.approx(2.0)
    assert ci == pytest.approx(1.1316065276116665, abs=1e-12)
    m, ci = mean_ci([4.0])
    assert (m, ci) == (4.0, 0.0)
