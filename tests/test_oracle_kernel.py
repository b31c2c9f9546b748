"""The batched oracle against its scalar reference.

games values every unilateral deviation of a block of profiles in one
(K, N, M) tensor. The scalar oracle it replaced, in scalar_oracle, is the
reference: one utility per (profile, user, channel) cell, a per-profile NE
filter, a per-channel leader solve and one best-response run per start,
never reading the library's own rate kernel or conflict count. Rate games
must agree bit for bit, hypergraph games exactly, on random small games
with random activity and jam sets. The block size is also forced down, so
enumeration and lockstep best response cross many block boundaries.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_rates
from scalar_oracle import (reference_best_response, reference_enumeration,
                           reference_leader_solve, reference_utility_row)
from antijam import games
from antijam.env import NodeGeometry, RadioParams, RateModel, jam_mask
from antijam.games import (GameSpec, best_response_lockstep,
                           enumerate_pure_nash, is_pure_nash,
                           lexicographic_profiles, run_best_response,
                           stackelberg_solve, user_utility)
from antijam.hypergraph import InterferenceHypergraph

# Block sizes in (profile, user, channel) cells: one profile per block for
# most games, a few profiles per block, and the library's own size.
BLOCK_CELLS = (7, 40, games._BLOCK_CELLS)


@st.composite
def small_games(draw, kinds=games.KINDS):
    """(game, jammed, active): N <= 5, M <= 4, random activity and jam set."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jammers = draw(st.integers(0, 2))
    geometry = NodeGeometry(user_pairs=rng.uniform(-6, 6, size=(n, 2, 2)),
                            jammer_positions=rng.uniform(-6, 6, size=(jammers, 2)))
    params = RadioParams(num_channels=m,
                         tx_power=draw(st.sampled_from([0.5, 1.0, 3.0])),
                         jam_power=draw(st.sampled_from([0.0, 1.0, 5.0])),
                         noise_floor=draw(st.sampled_from([1e-3, 1e-2, 0.5])),
                         pathloss_exponent=draw(st.sampled_from([0.0, 2.0, 3.5])))
    hypergraph = None
    if kind == "hypergraph":
        pairs = list(itertools.combinations(range(n), 2))
        strong = [e for e in pairs if draw(st.booleans())]
        threshold = draw(st.integers(1, 4))
        size = max(3, threshold)
        groups = list(itertools.combinations(range(n), size)) if n >= size else []
        weak = draw(st.lists(st.sampled_from(groups), unique=True, max_size=3)) \
            if groups else []
        hypergraph = InterferenceHypergraph(num_users=n, strong_edges=tuple(strong),
                                            weak_hyperedges=tuple(weak),
                                            activation_threshold=threshold)
    game = GameSpec(kind, geometry, params, hypergraph)
    jammed = draw(st.frozensets(st.integers(0, m - 1)))
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return game, jammed, active


def profiles_of(game, draw_list):
    m = game.num_channels
    return np.array([[c % m for c in row] for row in draw_list], dtype=np.int64)


profile_rows = st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5),
                        min_size=1, max_size=12)


@given(small_games(), profile_rows)
def test_deviation_tensor_equals_scalar_utilities(case, rows):
    game, jammed, active = case
    profiles = profiles_of(game, [r[:game.num_users] for r in rows])
    got = games._deviation_utilities(game, profiles,
                                     jam_mask(jammed, game.num_channels), active)
    assert got.shape == (len(profiles), game.num_users, game.num_channels)
    for k, profile in enumerate(profiles):
        for n in range(game.num_users):
            want = reference_utility_row(game, n, profile, jammed, active)
            if game.kind == "stackelberg":
                assert got[k, n].tobytes() == want.tobytes()
            else:
                assert np.array_equal(got[k, n], want)


@given(small_games(), profile_rows)
def test_user_utility_equals_the_scalar_reference(case, rows):
    """user_utility reads one cell of the kernel, so this pins it to a
    formula it does not share: rate games bit for bit, hypergraph games by
    value and sign (a user with no conflicts is -0.0), inactive users and
    jam sets of several channels included."""
    game, jammed, active = case
    for profile in profiles_of(game, [r[:game.num_users] for r in rows]):
        for n in range(game.num_users):
            got = user_utility(game, n, profile, jammed, active)
            want = reference_utility_row(game, n, profile, jammed,
                                         active)[profile[n]]
            if game.kind == "stackelberg":
                assert np.float64(got).tobytes() == want.tobytes()
            else:
                assert (got, np.signbit(got)) == (want, np.signbit(want))


@given(small_games(), st.sampled_from(BLOCK_CELLS))
def test_enumeration_equals_scalar_filter(case, cells):
    game, jammed, active = case
    want = reference_enumeration(game, jammed, active)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "_BLOCK_CELLS", cells)
        got = [tuple(int(c) for c in p)
               for p in enumerate_pure_nash(game, jammed, active)]
    assert got == want
    for profile in lexicographic_profiles(game.num_users, game.num_channels, 0,
                                          min(game.num_channels ** game.num_users, 16)):
        assert is_pure_nash(game, profile, jammed, active) == \
            (tuple(int(c) for c in profile) in want)


@given(small_games(), profile_rows, st.sampled_from(BLOCK_CELLS),
       st.integers(1, 6))
def test_lockstep_best_response_equals_scalar_runs(case, rows, cells, max_rounds):
    """Few rounds, so rate games that cycle also end unconverged."""
    game, jammed, active = case
    starts = profiles_of(game, [r[:game.num_users] for r in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "_BLOCK_CELLS", cells)
        finals, converged, rounds = best_response_lockstep(
            game, starts, jammed, active, max_rounds)
    for s, start in enumerate(starts):
        want = reference_best_response(game, start, jammed, active, max_rounds)
        assert (finals[s].tolist(), bool(converged[s]), int(rounds[s])) == \
            (want[0].tolist(), want[1], want[2])
        final, ok, used = run_best_response(game, start, jammed, active, max_rounds)
        assert (final.tolist(), ok, used) == (want[0].tolist(), want[1], want[2])


@given(small_games(kinds=("stackelberg",)), st.sampled_from(BLOCK_CELLS))
def test_leader_solve_equals_scalar_reference(case, cells):
    """Every channel of the per-channel reference leaves the followers the
    solve's best total, so channel 0 is the first argmin, and the solve's
    one leader row is the reference's channel 0."""
    game, _, active = case
    want = reference_leader_solve(game, active)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "_BLOCK_CELLS", cells)
        if not any(has for _, has, _, _ in want):
            with pytest.raises(RuntimeError):
                stackelberg_solve(game, active)
            return
        sol = stackelberg_solve(game, active)
    assert all(has for _, has, _, _ in want)
    totals = [total for _, _, total, _ in want]
    assert totals == [sol.total_rate] * len(want)
    assert sol.leader_channel == totals.index(min(totals)) == 0
    assert want[0][3] == sol.follower_assignment.tolist()


def test_lexicographic_profiles_follow_itertools_order():
    for n, m in [(1, 1), (1, 4), (3, 2), (2, 5), (4, 3)]:
        want = list(itertools.product(range(m), repeat=n))
        got = [tuple(p) for p in lexicographic_profiles(n, m, 0, m ** n)]
        assert got == want
        assert [tuple(p) for p in lexicographic_profiles(n, m, 1, m ** n - 1)] \
            == want[1:-1]


def test_rate_tensor_is_bitwise_beyond_five_users():
    """With many co-channel transmitters, a sum taken in another order
    rounds differently: the kernel must add them in the scalar reference's
    order, a profile's own utilities must total as its rates do, and a block
    of profiles must give bitwise what its rows give one at a time."""
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n, m = int(rng.integers(8, 17)), int(rng.integers(2, 5))
        geometry = NodeGeometry(user_pairs=rng.uniform(-10, 10, size=(n, 2, 2)),
                                jammer_positions=rng.uniform(-10, 10, size=(1, 2)))
        game = GameSpec("stackelberg", geometry,
                        RadioParams(num_channels=m, noise_floor=1e-3))
        model = game.rate_model
        jammed = frozenset({int(rng.integers(0, m))})
        mask = np.arange(m) == min(jammed)
        active = rng.random(n) < 0.9
        profiles = rng.integers(0, m, size=(4, n))
        got = games._deviation_utilities(game, profiles, mask, active)
        block = model.deviation_rates(profiles, active, mask)
        assert block.tobytes() == got.tobytes()
        assert block.tobytes() == np.stack(
            [model.deviation_rates(p, active, mask) for p in profiles]).tobytes()
        for k, profile in enumerate(profiles):
            for u in range(n):
                want = reference_utility_row(game, u, profile, jammed, active)
                assert got[k, u].tobytes() == want.tobytes()
            want = scalar_rates.rates(model, profile, jammed, active)
            assert model.rates(profile, jammed, active).tobytes() == want.tobytes()
        # the leader solve totals an equilibrium as the sum of own utilities
        own = np.take_along_axis(got, profiles[:, :, None], axis=2)[:, :, 0]
        for k, profile in enumerate(profiles):
            rates = scalar_rates.rates(model, profile, jammed, active)
            assert float(own[k].sum()) == float(rates.sum())
        if m == 2:
            try:
                solution = stackelberg_solve(game, active)
            except RuntimeError:  # no leader action admits a pure NE
                continue
            rates = scalar_rates.rates(model, solution.follower_assignment,
                                       {solution.leader_channel}, active)
            assert solution.total_rate == float(rates.sum())


@settings(max_examples=60)
@given(st.integers(1, 16), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.3, 0.8, 1.0]), st.data())
def test_relabelled_channels_permute_the_rate_columns(n, m, seed, p, data):
    """The leader solve enumerates the followers under one jammed channel
    and relabels the rest: renaming the channels (of the profiles and the
    jam mask alike) must permute the deviation rates' channel columns and
    change no bit, however many co-channel transmitters a sum adds."""
    rng = np.random.default_rng(seed)
    geometry = NodeGeometry(user_pairs=rng.uniform(-10, 10, size=(n, 2, 2)),
                            jammer_positions=rng.uniform(-10, 10, size=(2, 2)))
    model = RateModel(geometry, RadioParams(
        num_channels=m, jam_power=float(rng.uniform(0, 4)), noise_floor=1e-3))
    profiles = rng.integers(0, m, size=(6, n))
    active = rng.random((6, n)) < p
    jammed = rng.random((6, m)) < 0.4
    # channel c is renamed label[c]
    label = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
    renamed = np.empty_like(jammed)
    renamed[:, label] = jammed
    got = model.deviation_rates(label[profiles], active, renamed)
    want = model.deviation_rates(profiles, active, jammed)
    assert got[..., label].tobytes() == want.tobytes()
