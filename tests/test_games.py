"""Game layer tests: potential structure, equilibrium oracles, leader solve.

The brute-force NE check inside this file is written independently of the
library (direct double loop over profiles and deviations) so the enumeration
oracle is validated against something that cannot share its bugs.
"""

import hashlib
import importlib.util
import itertools
import os

import numpy as np
import pytest

import scalar_interference as scalar
from scalar_oracle import reference_leader_solve
from antijam import (GameSpec, enumerate_pure_nash, load_config, ne_bounds,
                     stackelberg_solve)
from antijam import games
from antijam.env import NodeGeometry, RadioParams
from antijam.errors import (ConfigError, InstanceTooLargeError,
                            UnsupportedOperationError)
from antijam.games import (best_response_lockstep, is_pure_nash,
                           potential_value, run_best_response, user_utility)
from antijam.hypergraph import InterferenceHypergraph


def random_hyper_game(rng, n_max=6, m_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    pairs = set()
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.choice(n, size=2, replace=False)
        pairs.add((min(u, v), max(u, v)))
    hypers = set()
    if n >= 3:
        for _ in range(int(rng.integers(0, 3))):
            size = int(rng.integers(3, n + 1))
            hypers.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    hg = InterferenceHypergraph(num_users=n, strong_edges=tuple(pairs),
                                weak_hyperedges=tuple(hypers))
    geo = NodeGeometry(user_pairs=rng.uniform(-5, 5, size=(n, 2, 2)),
                       jammer_positions=rng.uniform(-5, 5, size=(1, 2)))
    params = RadioParams(num_channels=m)
    game = GameSpec(kind="hypergraph", geometry=geo, params=params, hypergraph=hg)
    jammed = frozenset(int(c) for c in rng.integers(0, m, size=rng.integers(0, 2)))
    active = rng.random(n) < 0.85
    return game, jammed, active


def line_geometry(n, jammer=(0.0, 2.0)):
    pairs = [[[2.0 * i, 0.0], [2.0 * i, 0.0]] for i in range(n)]
    return NodeGeometry(user_pairs=pairs, jammer_positions=[list(jammer)])


def test_unilateral_deviation_matches_potential_change():
    """The defining identity of an exact potential game, fuzzed."""
    rng = np.random.default_rng(314)
    for _ in range(200):
        game, jammed, active = random_hyper_game(rng)
        n, m = game.num_users, game.num_channels
        choices = rng.integers(0, m, size=n)
        phi = potential_value(game, choices, jammed, active)
        for u in range(n):
            base_u = user_utility(game, u, choices, jammed, active)
            for c in range(m):
                alt = choices.copy()
                alt[u] = c
                du = user_utility(game, u, alt, jammed, active) - base_u
                dphi = potential_value(game, alt, jammed, active) - phi
                assert abs(du - dphi) <= 1e-9


def test_potential_is_negative_total_interference():
    rng = np.random.default_rng(9)
    game, jammed, active = random_hyper_game(rng)
    choices = rng.integers(0, game.num_channels, size=game.num_users)
    assert potential_value(game, choices, jammed, active) == -float(
        scalar.total_generalized_interference(game.hypergraph, choices, active,
                                              jammed))


def test_potential_rejected_outside_hypergraph_games():
    geo = line_geometry(2)
    game = GameSpec(kind="stackelberg", geometry=geo,
                    params=RadioParams(num_channels=2))
    with pytest.raises(UnsupportedOperationError):
        potential_value(game, [0, 1], frozenset(), [True, True])


def test_inactive_user_utility_is_zero():
    rng = np.random.default_rng(21)
    game, jammed, _ = random_hyper_game(rng)
    active = np.ones(game.num_users, dtype=bool)
    active[0] = False
    choices = np.zeros(game.num_users, dtype=int)
    assert user_utility(game, 0, choices, jammed, active) == 0.0


@pytest.mark.parametrize("user", [-1, 3, True, 1.0],
                         ids=["negative", "N", "bool", "float"])
def test_user_utility_refuses_what_is_no_user(user):
    """A negative index would wrap to the last users and a bool or a
    float would read as one; each is a ConfigError."""
    game = GameSpec("stackelberg", line_geometry(3), RadioParams(num_channels=2))
    with pytest.raises(ConfigError, match="not a user"):
        user_utility(game, user, [0, 1, 0])


def test_user_utility_takes_a_numpy_user_index():
    game = GameSpec("stackelberg", line_geometry(3), RadioParams(num_channels=2))
    assert user_utility(game, np.int64(2), [0, 1, 0]) == \
        user_utility(game, 2, [0, 1, 0]) > 0.0


def brute_force_nash(game, jammed, active):
    """Independent NE filter: try every profile, every deviation."""
    n, m = game.num_users, game.num_channels
    out = []
    for prof in itertools.product(range(m), repeat=n):
        prof = np.array(prof)
        ok = True
        for u in range(n):
            if not active[u]:
                continue
            here = user_utility(game, u, prof, jammed, active)
            for c in range(m):
                alt = prof.copy()
                alt[u] = c
                if user_utility(game, u, alt, jammed, active) > here + 1e-12:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(prof))
    return out


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        game, jammed, active = random_hyper_game(rng, n_max=4, m_max=3)
        if game.num_channels ** game.num_users > 100:
            continue
        checked += 1
        ours = [tuple(p) for p in enumerate_pure_nash(game, jammed, active)]
        theirs = brute_force_nash(game, jammed, active)
        assert ours == theirs  # both in lexicographic order


def test_enumerated_profiles_are_fixed_points():
    rng = np.random.default_rng(13)
    for _ in range(10):
        game, jammed, active = random_hyper_game(rng, n_max=4, m_max=3)
        for prof in enumerate_pure_nash(game, jammed, active):
            assert is_pure_nash(game, prof, jammed, active)
            # one sweep from an equilibrium moves nobody
            final, converged, rounds = run_best_response(game, prof, jammed,
                                                         active, max_rounds=1)
            assert (final.tolist(), converged, rounds) == (prof.tolist(), True, 1)


def test_best_response_terminates_at_a_nash():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        game, jammed, active = random_hyper_game(rng)
        start = rng.integers(0, game.num_channels, size=game.num_users)
        final, converged, rounds = run_best_response(game, start, jammed, active)
        assert converged, "potential game best response must terminate"
        assert is_pure_nash(game, final, jammed, active)
        assert rounds <= 500


def test_best_response_converges_on_exactly_the_enumerated_equilibria():
    """The NE test and the dynamics share one notion of a strict gain: on
    the default 5-user, 2-channel ring, best response from every profile
    converges on the enumerated equilibria and on nothing else. From
    (1, 0, 1, 0, 0) the best deviation gains 8.9e-16, which is rounding."""
    config = load_config({"scenario": "stackelberg", "num_users": 5,
                          "num_channels": 2})
    game = GameSpec("stackelberg", config.geometry, config.radio)
    starts = list(itertools.product(range(2), repeat=5))
    finals, converged, _ = best_response_lockstep(game, starts)
    assert converged.all()
    equilibria = {tuple(p.tolist()) for p in enumerate_pure_nash(game)}
    assert {tuple(f) for f in finals.tolist()} == equilibria
    assert len(equilibria) == 10
    assert is_pure_nash(game, (1, 0, 1, 0, 0))
    assert run_best_response(game, (1, 0, 1, 0, 0))[1:] == (True, 1)


def test_a_gain_between_1e12_and_1e9_is_a_move():
    """The strict-gain threshold is 1e-12. Two users 10^6 m apart share
    channel 0: each hears the other at a gain of 1e-12, which costs user 0
    about 1.4e-10 of rate. That gain is no rounding, so the profile is no
    equilibrium and best response moves user 0 to the free channel."""
    far = 1e6
    geometry = NodeGeometry(user_pairs=[[[0.0, 0.0], [1.0, 0.0]],
                                        [[far, 0.0], [far + 1.0, 0.0]]])
    game = GameSpec("stackelberg", geometry, RadioParams(num_channels=2))
    gain = user_utility(game, 0, [1, 0]) - user_utility(game, 0, [0, 0])
    assert 1e-12 < gain < 1e-9
    assert not is_pure_nash(game, [0, 0])
    final, converged, rounds = run_best_response(game, [0, 0])
    assert (final.tolist(), converged, rounds) == ([1, 0], True, 2)


def test_best_response_tie_rules():
    hg = InterferenceHypergraph(num_users=1)
    game = GameSpec(kind="hypergraph", geometry=line_geometry(1),
                    params=RadioParams(num_channels=3), hypergraph=hg)
    # with one user, a single sweep is a single best-response step
    # all channels utility-equal: the current choice is already a best
    # response, so inertia holds the user in place (every profile here is an
    # equilibrium and equilibria must be fixpoints of the dynamics)
    final, converged, rounds = run_best_response(
        game, np.array([2]), frozenset(), np.array([True]), max_rounds=1)
    assert (final.tolist(), converged, rounds) == ([2], True, 1)
    # strictly bad current channel, two tied improvements: lowest index wins,
    # and the sweep that moved it is not yet a converged one
    final, converged, rounds = run_best_response(
        game, np.array([0]), frozenset({0}), np.array([True]), max_rounds=1)
    assert (final.tolist(), converged, rounds) == ([1], False, 1)


def test_assignments_are_validated():
    """A channel outside range(M), a fraction, a bool or a profile of the
    wrong shape is a ConfigError, never a wrapped, truncated or broadcast
    index, and so is an activity mask of the wrong shape."""
    rng = np.random.default_rng(3)
    game, jammed, active = random_hyper_game(rng, n_max=3, m_max=3)
    n, m = game.num_users, game.num_channels
    ok = [0] * n
    for bad in ([-1] + ok[1:], [m] + ok[1:], ok + [0], [0.7] + ok[1:], [1.9] * n,
                [True] + ok[1:], np.zeros((n, 2), dtype=np.int64)):
        with pytest.raises(ConfigError):
            is_pure_nash(game, bad, jammed, active)
        with pytest.raises(ConfigError):
            run_best_response(game, bad, jammed, active)
        with pytest.raises(ConfigError):
            best_response_lockstep(game, [bad], jammed, active)
        with pytest.raises(ConfigError):
            user_utility(game, 0, bad, jammed, active)
        with pytest.raises(ConfigError):
            game.rate_model.rates(bad, jammed, active)
    for bad in (np.ones((n, 2), dtype=bool), [True] * (n + 1)):
        with pytest.raises(ConfigError):
            user_utility(game, 0, ok, jammed, bad)
        with pytest.raises(ConfigError):
            game.rate_model.rates(ok, jammed, bad)


def test_enumeration_cap_enforced(monkeypatch):
    rng = np.random.default_rng(5)
    game, jammed, active = random_hyper_game(rng, n_max=4, m_max=4)
    monkeypatch.setattr(games, "MAX_ORACLE_CELLS", 1)
    with pytest.raises(InstanceTooLargeError):
        enumerate_pure_nash(game, jammed, active)


def test_stackelberg_symmetric_single_user():
    # one user, two channels, nothing to distinguish them: the leader tie
    # rule lands on channel 0, and the follower then dodges to channel 1
    game = GameSpec(kind="stackelberg", geometry=line_geometry(1),
                    params=RadioParams(num_channels=2, jam_power=2.0))
    sol = stackelberg_solve(game)
    assert sol.leader_channel == 0
    assert list(sol.follower_assignment) == [1]
    # a jam on channel 1 mirrors it: the follower dodges to channel 0
    assert [(has, total, assignment) for _, has, total, assignment
            in reference_leader_solve(game, np.ones(1, dtype=bool))] == \
        [(True, sol.total_rate, [1]), (True, sol.total_rate, [0])]


def test_stackelberg_zero_power_jammer_degenerates():
    game = GameSpec(kind="stackelberg", geometry=line_geometry(2),
                    params=RadioParams(num_channels=3, jam_power=0.0))
    sol = stackelberg_solve(game)
    # all leader actions yield identical totals, so the lowest index wins
    totals = [total for _, _, total, _
              in reference_leader_solve(game, np.ones(2, dtype=bool))]
    assert max(totals) - min(totals) <= 1e-9
    assert sol.leader_channel == 0


def test_stackelberg_followers_avoid_the_jam_when_they_can():
    # two far-apart users, three channels: both go clean, totals match the
    # leader-independent optimum
    game = GameSpec(kind="stackelberg", geometry=line_geometry(2, jammer=(1.0, 1.0)),
                    params=RadioParams(num_channels=3, jam_power=5.0))
    sol = stackelberg_solve(game)
    jammed = sol.leader_channel
    assert all(int(c) != jammed for c in sol.follower_assignment)


def test_stackelberg_leader_optimality_audit():
    """The chosen action's total is minimal across the per-channel scalar
    reference."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        geo = NodeGeometry(user_pairs=rng.uniform(-4, 4, size=(n, 2, 2)),
                           jammer_positions=rng.uniform(-4, 4, size=(1, 2)))
        game = GameSpec(kind="stackelberg", geometry=geo,
                        params=RadioParams(num_channels=3, jam_power=3.0))
        sol = stackelberg_solve(game)
        audit = reference_leader_solve(game, np.ones(n, dtype=bool))
        feasible = [total for _, has, total, _ in audit if has]
        assert feasible
        assert sol.total_rate <= min(feasible) + 1e-12
        assert audit[sol.leader_channel][2] == pytest.approx(sol.total_rate)


def test_stackelberg_requires_the_right_kind():
    hg = InterferenceHypergraph(num_users=2)
    game = GameSpec(kind="hypergraph", geometry=line_geometry(2),
                    params=RadioParams(num_channels=2), hypergraph=hg)
    with pytest.raises(UnsupportedOperationError):
        stackelberg_solve(game)


def test_game_spec_validation():
    geo = line_geometry(2)
    params = RadioParams(num_channels=2)
    with pytest.raises(ConfigError):
        GameSpec(kind="unknown", geometry=geo, params=params)
    with pytest.raises(ConfigError):
        GameSpec(kind="hypergraph", geometry=geo, params=params)  # no hypergraph
    hg = InterferenceHypergraph(num_users=3)
    with pytest.raises(ConfigError):
        GameSpec(kind="hypergraph", geometry=geo, params=params, hypergraph=hg)
    with pytest.raises(ConfigError):
        GameSpec(kind="markov", geometry=geo, params=params)  # not a game kind


def benchmark_oracle_game():
    """The 6-user, 4-channel ring of perfbench's stackelberg-oracle, seed 7."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    doc = module.WORKLOADS["stackelberg-oracle"].document(7, "full")
    config = load_config(doc)
    return GameSpec("stackelberg", config.geometry, config.radio)


def test_oracle_values_pinned_at_the_benchmark_instance():
    """4096 profiles span many enumeration blocks: the leader solve, the NE
    list and the best-response bounds must keep every digit."""
    game = benchmark_oracle_game()
    sol = stackelberg_solve(game)
    assert (sol.leader_channel, repr(sol.total_rate),
            sol.follower_assignment.tolist()) == \
        (0, "38.13501703551253", [1, 2, 3, 1, 2, 3])
    # the followers' rates under the leader's jam on channel 0
    rates = game.rate_model.rates(sol.follower_assignment, frozenset({0}),
                                  np.ones(game.num_users, dtype=bool))
    assert [repr(float(r)) for r in rates] == [
        "6.345758490438696", "6.360479670014629", "6.361274778722026",
        "6.345758295054295", "6.360476079896748", "6.361269721386135"]

    equilibria = [e.tolist() for e in enumerate_pure_nash(game, frozenset({0}))]
    assert len(equilibria) == 24
    assert hashlib.sha256(repr(equilibria).encode()).hexdigest() == \
        "de9d5c4b6f9836467c01e7f05b733ad45090f992dba5417a676e8eaac4e39cd9"

    rng = np.random.default_rng(np.random.SeedSequence((7, 999983)))
    bounds = ne_bounds(game, frozenset({0}), num_trials=200, rng=rng)
    assert repr(bounds) == ("NeBounds(best=38.13501703551253, "
                            "worst=37.72256382553547, num_converged=200, "
                            "num_failed=0)")
