"""End-to-end acceptance checks, one test per promised property.

Each test here is a headline guarantee of the library, checked at full preset
scale: the potential-game identity, oracle agreement, the qualitative
orderings every bundled scenario was built to show, learning-state
invariants, and byte determinism. Tolerances are pinned in each docstring.
Run with -v to get one pass/fail line per guarantee.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from antijam import GameSpec, enumerate_pure_nash, get_preset, load_config, ne_bounds
from antijam.env import NodeGeometry, RadioParams
from antijam.games import potential_value, run_best_response, user_utility
from antijam.hypergraph import InterferenceHypergraph
from antijam.learning import MixedStrategy, q_update, sla_update
from antijam.metrics import mean_ci
from antijam.runner import run_scenario


def random_hyper_game(rng, n, m, jam_prob=0.5, inactive_prob=0.0):
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
    game = GameSpec(kind="hypergraph", geometry=geo,
                    params=RadioParams(num_channels=m), hypergraph=hg)
    jammed = frozenset()
    if rng.random() < jam_prob:
        jammed = frozenset(int(c) for c in rng.integers(0, m, size=1))
    active = rng.random(n) >= inactive_prob
    if not active.any():
        active[int(rng.integers(0, n))] = True
    return game, jammed, active


def separated(high, low):
    """95 pct interval of `high` lies strictly above that of `low`."""
    return high[0] - high[1] > low[0] + low[1]


def timed_run(doc):
    t0 = time.time()
    result = run_scenario(load_config(doc))
    return result, time.time() - t0


def final10(result, algo, metric):
    return mean_ci(result.trial_values[algo][f"final10_{metric}"])


# ---------------------------------------------------------------------------
# shared full-scale runs (each built once per test session)

@pytest.fixture(scope="module")
def fig3():
    return timed_run(get_preset("fig3-stackelberg"))


@pytest.fixture(scope="module")
def fig3_weak_jammer():
    doc = get_preset("fig3-stackelberg")
    doc["radio"]["jam_power"] = 0.5
    return timed_run(doc)


@pytest.fixture(scope="module")
def fig4_sweep():
    return timed_run(get_preset("fig4-sweep"))


@pytest.fixture(scope="module")
def fig4_comb():
    return timed_run(get_preset("fig4-comb"))


@pytest.fixture(scope="module")
def fig5():
    runs = {}
    elapsed = 0.0
    base = get_preset("fig5-hypergraph")
    runs["m3"], dt = timed_run(base)
    elapsed += dt
    for m in (4, 5):
        doc = get_preset("fig5-hypergraph")
        doc["num_channels"] = m
        runs[f"m{m}"], dt = timed_run(doc)
        elapsed += dt
    for p in (0.8, 0.6):
        doc = get_preset("fig5-hypergraph")
        doc["active_probability"] = p
        runs[f"p{int(p * 10):02d}"], dt = timed_run(doc)
        elapsed += dt
    return runs, elapsed


# ---------------------------------------------------------------------------
# criteria

def test_c1_exact_potential_identity():
    """1000 fuzzed interference games (N <= 6, M <= 4, random edges, jamming,
    activity): every unilateral deviation has |du - dphi| <= 1e-9, under 30 s."""
    rng = np.random.default_rng(20240811)
    t0 = time.time()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        game, jammed, active = random_hyper_game(rng, n, m, inactive_prob=0.15)
        choices = rng.integers(0, m, size=n)
        phi = potential_value(game, choices, jammed, active)
        for u in range(n):
            base = user_utility(game, u, choices, jammed, active)
            for c in range(m):
                alt = choices.copy()
                alt[u] = c
                du = user_utility(game, u, alt, jammed, active) - base
                dphi = potential_value(game, alt, jammed, active) - phi
                assert abs(du - dphi) <= 1e-9
                checked += 1
    elapsed = time.time() - t0
    print(f"potential identity: {checked} deviations across 1000 games, "
          f"{elapsed:.1f} s")
    assert elapsed < 30.0


def test_c2_dynamics_agree_with_enumeration():
    """On instances with M^N <= 4096: best-response dynamics lands in the
    enumerated equilibrium set from every start, and the sampled rate bounds
    equal the enumerated extremes exactly. Under 60 s."""
    rng = np.random.default_rng(77)
    sizes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
             (4, 4), (5, 2), (5, 3), (6, 2), (6, 3), (5, 4), (6, 4)]
    t0 = time.time()
    for n, m in sizes:
        assert m ** n <= 4096
        game, jammed, _ = random_hyper_game(rng, n, m)
        active = np.ones(n, dtype=bool)
        equilibria = {tuple(int(c) for c in prof)
                      for prof in enumerate_pure_nash(game, jammed, active)}
        assert equilibria, "a potential game always has a pure equilibrium"

        if m ** n <= 1024:
            starts = itertools.product(range(m), repeat=n)
        else:
            starts = (rng.integers(0, m, size=n) for _ in range(128))
        for start in starts:
            final, converged, _ = run_best_response(game, np.array(start), jammed,
                                                    active)
            assert converged
            assert tuple(int(c) for c in final) in equilibria

        bounds = ne_bounds(game, jammed, active, num_trials=max(200, m ** n),
                           rng=np.random.default_rng(1))
        values = [float(game.rate_model.rates(np.array(prof), jammed, active).sum())
                  for prof in equilibria]
        assert bounds.best == max(values)
        assert bounds.worst == min(values)
        assert bounds.num_failed == 0
    elapsed = time.time() - t0
    print(f"oracle agreement: {len(sizes)} instances, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_c3_leader_game_ordering(fig3):
    """50 seeds: the hierarchical learner's converged rate sits inside the
    [worst, best] equilibrium bounds from 200 best-response starts, and its
    network rate beats uniform-random channel choice with non-overlapping
    95 pct intervals. Under 5 min."""
    result, elapsed = fig3
    best = result.oracle["best_ne_rate"]
    worst = result.oracle["worst_ne_rate"]
    converged = mean_ci(result.trial_values["hierarchical"]["converged_greedy_rate"])
    hier = final10(result, "hierarchical", "rate_sum")
    rand = final10(result, "random", "rate_sum")
    print(f"converged {converged[0]:.4f} in [{worst:.4f}, {best:.4f}]; "
          f"hierarchical {hier[0]:.4f}+-{hier[1]:.4f} vs "
          f"random {rand[0]:.4f}+-{rand[1]:.4f}; {elapsed:.0f} s")
    assert worst <= converged[0] <= best
    assert separated(hier, rand)
    assert elapsed < 300.0


def test_c4_weaker_jamming_means_higher_rate(fig3, fig3_weak_jammer):
    """Same 50 seeds, jammer power halved: converged rate strictly higher,
    non-overlapping 95 pct intervals."""
    strong, _ = fig3
    weak, _ = fig3_weak_jammer
    at_full = mean_ci(strong.trial_values["hierarchical"]["converged_greedy_rate"])
    at_half = mean_ci(weak.trial_values["hierarchical"]["converged_greedy_rate"])
    print(f"half power {at_half[0]:.4f}+-{at_half[1]:.4f} vs "
          f"full power {at_full[0]:.4f}+-{at_full[1]:.4f}")
    assert separated(at_half, at_full)


def test_c5_coordinated_learners_beat_baselines(fig4_sweep, fig4_comb):
    """20 seeds, final 10 pct of slots: against the sweep jammer the
    collaborative learners beat independent Q, sensing, and random with
    non-overlapping 95 pct intervals; against the comb jammer their mean is
    at least every baseline's."""
    sweep, _ = fig4_sweep
    comb, _ = fig4_comb
    collab = final10(sweep, "collaborative", "rate_sum")
    for other in ("independent_q", "sensing", "random"):
        assert separated(collab, final10(sweep, other, "rate_sum")), other
    collab_comb = final10(comb, "collaborative", "rate_sum")
    for other in ("independent_q", "sensing", "random"):
        assert collab_comb[0] >= final10(comb, other, "rate_sum")[0], other
    print(f"sweep: collaborative {collab[0]:.4f}+-{collab[1]:.4f}; "
          f"comb: collaborative {collab_comb[0]:.4f}+-{collab_comb[1]:.4f}")


def test_c6_learners_vacate_the_swept_channel(fig4_sweep):
    """After convergence under the deterministic sweep jammer, the probability
    that any user sits on the jammed channel is below 0.05 (final 10 pct of
    slots, averaged over 20 seeds)."""
    result, elapsed = fig4_sweep
    jammed = final10(result, "collaborative", "any_user_jammed")
    print(f"any-user-jammed {jammed[0]:.4f} (budget 0.05); run {elapsed:.0f} s")
    assert jammed[0] < 0.05


def test_c7_hypergraph_orderings(fig5):
    """20 seeds, normalized capacity: hypergraph learning beats pairwise-graph
    learning with non-overlapping 95 pct intervals (6 weak hyperedges), both at
    least random; capacity strictly increases over M in {3,4,5} and strictly
    decreases as activity drops 1.0 -> 0.8 -> 0.6. All five runs under 5 min."""
    runs, elapsed = fig5
    base = runs["m3"]
    hyper = final10(base, "hypergraph_sla", "normalized_capacity")
    graph = final10(base, "graph_sla", "normalized_capacity")
    rand = final10(base, "random", "normalized_capacity")
    assert separated(hyper, graph)
    assert graph[0] >= rand[0]
    over_m = [final10(runs[k], "hypergraph_sla", "normalized_capacity")[0]
              for k in ("m3", "m4", "m5")]
    assert over_m[0] < over_m[1] < over_m[2]
    over_p = [final10(runs[k], "hypergraph_sla", "normalized_capacity")[0]
              for k in ("m3", "p08", "p06")]
    assert over_p[0] > over_p[1] > over_p[2]
    print(f"hyper {hyper[0]:.4f}+-{hyper[1]:.4f} > graph {graph[0]:.4f}"
          f"+-{graph[1]:.4f} > random {rand[0]:.4f}; M sweep {over_m}; "
          f"p sweep {over_p}; {elapsed:.0f} s")
    assert elapsed < 300.0


def test_c8_learning_state_invariants():
    """Mixed strategies stay on the simplex to within 1e-9 over 1e5 updates;
    Q values stay inside [0, r_max/(1-gamma)] under fuzzed update streams."""
    rng = np.random.default_rng(4242)
    one = np.zeros(1, dtype=np.int64)  # a single learner's index
    strategy = MixedStrategy(np.full((1, 4), 0.25))
    worst_drift = 0.0
    for _ in range(10 ** 5):
        chosen = int(rng.integers(0, 4))
        sla_update(strategy, [chosen], [float(rng.random())], 0.2)
        probs = strategy.probs[0]
        worst_drift = max(worst_drift, abs(float(probs.sum()) - 1.0))
        assert probs.min() >= -1e-12
    print(f"simplex drift {worst_drift:.2e} over 1e5 updates")
    assert worst_drift <= 1e-9

    states = [3, 0, 2]  # last sensed jammed channel, or none yet (3)
    for gamma in (0.0, 0.3, 0.7, 0.9):
        r_max = float(rng.uniform(0.5, 4.0))
        cap = r_max / (1.0 - gamma)
        table = np.zeros((1, 4, 3))
        seen = np.zeros(table.shape, dtype=bool)
        for _ in range(3000):
            s = states[int(rng.integers(0, 3))]
            s2 = states[int(rng.integers(0, 3))]
            a = int(rng.integers(0, 3))
            q_update(table, one, s, [a], [float(rng.uniform(0.0, r_max))], s2,
                     learning_rate=0.4, discount=gamma)
            seen[0, s, a] = True
        values = table[seen]
        assert values.min() >= 0.0
        assert values.max() <= cap + 1e-9


def test_c9_preset_runs_are_byte_deterministic(tmp_path):
    """Every bundled preset, run twice through the command line with the same
    seed, emits byte-identical CSV files."""
    for name in ("fig3-stackelberg", "fig4-comb", "fig4-sweep",
                 "fig5-hypergraph"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "antijam.cli", "run", "--preset", name,
                 "--trials", "2", "--slots", "200", "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for csv in ("per_slot.csv", "summary.csv"):
            a = (outs[0] / csv).read_bytes()
            b = (outs[1] / csv).read_bytes()
            assert a == b, f"{name}/{csv} differs between identical runs"
        meta_a = json.loads((outs[0] / "metadata.json").read_text())
        meta_b = json.loads((outs[1] / "metadata.json").read_text())
        assert meta_a == meta_b
    print("four presets, two runs each: CSV bytes identical")
