"""Configuration loading, validation, and preset tests.

Strict unknown-key rejection is the main line of defense against silently
misspelled hyperparameters, so a good chunk of this file is negative cases.
"""

import json
import time

import numpy as np
import pytest

from antijam import get_preset, load_config
from antijam.cli import main
from antijam.config import (ALGORITHMS, SCENARIOS, LearningParams,
                            read_document)
from antijam.env import RadioParams
from antijam.errors import ConfigError
from antijam.games import MAX_ORACLE_CELLS, oracle_cells
from antijam.jammers import JammerPattern
from antijam.presets import preset_description, preset_names


def minimal_markov():
    return {
        "scenario": "markov",
        "name": "unit",
        "num_users": 2,
        "num_channels": 3,
        "slots": 50,
        "trials": 2,
        "seed": 1,
    }


def test_all_presets_load():
    assert preset_names() == ("fig3-stackelberg", "fig4-comb", "fig4-sweep",
                              "fig5-hypergraph")
    for name in preset_names():
        cfg = load_config(get_preset(name))
        assert cfg.name == name
        assert cfg.scenario in SCENARIOS
        assert all(a in ALGORITHMS[cfg.scenario] for a in cfg.algorithms)
        assert preset_description(name)


def test_get_preset_returns_a_private_copy():
    a = get_preset("fig4-sweep")
    a["slots"] = 1
    a["geometry"]["user_pairs"][0][0][0] = 99.0
    b = get_preset("fig4-sweep")
    assert b["slots"] != 1
    assert b["geometry"]["user_pairs"][0][0][0] != 99.0
    with pytest.raises(ConfigError):
        get_preset("fig9-imaginary")


def test_document_round_trip():
    for name in preset_names():
        cfg = load_config(get_preset(name))
        doc = cfg.to_document()
        cfg2 = load_config(doc)
        assert cfg2.to_document() == doc


def test_config_keeps_its_own_copy_of_the_document():
    """Neither the document a config was loaded from nor the one it hands
    out can reach into its built world; two loads of one document are equal."""
    doc = get_preset("fig5-hypergraph")
    cfg = load_config(doc)
    assert load_config(doc) == cfg
    tx, resolved = cfg.geometry.tx.copy(), cfg.to_document()
    doc["geometry"]["user_pairs"][0][0] = [60.0, 60.0]
    out = cfg.to_document()
    out["geometry"]["user_pairs"][0][0] = [50.0, 50.0]
    out["hypergraph"]["strong_edges"].append([0, 7])
    assert np.array_equal(cfg.geometry.tx, tx)
    assert cfg.hypergraph.strong_edges == ((1, 2),)
    assert cfg.to_document() == resolved
    assert not hasattr(cfg, "document")  # to_document() is the only way in


def test_defaults_fill_in():
    cfg = load_config(minimal_markov())
    assert cfg.num_users == 2
    assert cfg.active_probability == 1.0
    assert cfg.algorithms == ALGORITHMS["markov"]
    assert cfg.radio.num_channels == 3
    # the value objects own the defaults: config.py repeats none of them
    assert cfg.radio == RadioParams(num_channels=3)
    assert cfg.learning == LearningParams()
    # default markov jammer is a sweep
    assert cfg.jammers[0].kind == "sweep"
    assert cfg.jammers == (JammerPattern("sweep", 3),)
    geo = cfg.geometry
    assert geo.num_users == 2
    assert geo.num_jammers == 1


def test_unknown_keys_rejected_everywhere():
    for patch in (
        {"swagger": 1},
        {"radio": {"tx_powerr": 2.0}},
        {"geometry": {"layout": "ring", "radius": 5.0, "twist": 1}},
        {"jammer": {"kind": "sweep", "dwel": 2}},
        {"learning": {"stepsize": 0.1}},
    ):
        doc = minimal_markov()
        doc.update(patch)
        with pytest.raises(ConfigError):
            load_config(doc)


def test_type_and_range_errors(tmp_path):
    """Each error names its section, whether load_config or the value object
    the section builds catches it, and `antijam validate` exits 2 on it."""
    bad = [
        ({"num_users": 0}, "config"),
        ({"num_users": 2.5}, "config"),
        ({"num_channels": 1}, "config"),
        ({"slots": 0}, "config"),
        ({"trials": 0}, "config"),
        ({"seed": -1}, "config"),
        ({"active_probability": 1.5}, "config"),
        ({"active_probability": -0.1}, "config"),
        ({"active_probability": float("nan")}, "config"),
        ({"slots": float("inf")}, "config"),
        ({"scenario": "quantum"}, "scenario"),
        ({"algorithms": ["collaborative", "alphago"]}, "algorithms"),
        ({"algorithms": []}, "algorithms"),
        ({"radio": {"noise_floor": 0.0}}, "radio"),
        ({"radio": {"pathloss_exponent": -2.0}}, "radio"),
        ({"radio": {"tx_power": 0}}, "radio"),
        ({"radio": {"jam_power": -1}}, "radio"),
        ({"radio": {"min_distance": 0}}, "radio"),
        ({"learning": {"step_size": 1.0}}, "learning"),
        ({"learning": {"discount": 1.0}}, "learning"),
        ({"learning": {"window_slots": 2.5}}, "learning"),
        ({"jammer": {"kind": "comb", "comb_set": [0, 9]}}, "jammers[0]"),
        ({"jammer": {"kind": "comb", "comb_set": []}}, "jammers[0]"),
        ({"jammer": {"kind": "fixed", "fixed_channel": 3}}, "jammers[0]"),
        ({"jammer": {"kind": "sweep", "start_channel": -1}}, "jammers[0]"),
        ({"jammer": {"kind": "sweep", "dwell": 0}}, "jammers[0]"),
        ({"jammer": {"kind": "barrage"}}, "jammers[0]"),
    ]
    explicit = {"source": "explicit", "strong_edges": [[0, 1]]}
    bad += [({"scenario": "hypergraph", "num_users": 6, "hypergraph": section},
             "hypergraph") for section in (
        dict(explicit, activation_threshold=0),
        {"source": "geometric", "activation_threshold": 0},
        {"strong_radius": 3.0, "weak_radius": 2.0},
        {"strong_radius": 0},
    )]
    path = tmp_path / "bad.json"
    for patch, section in bad:
        doc = minimal_markov()
        doc.update(patch)
        with pytest.raises(ConfigError) as caught:
            load_config(doc)
        assert str(caught.value).startswith(f"{section}:"), (patch, caught.value)
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2


@pytest.mark.parametrize("name", ["a,b", "x\ny", "x\ry", 'say "hi"', ","])
def test_name_that_would_break_the_csv_rows_is_refused(tmp_path, name):
    """A run's name is the first field of every per_slot.csv and summary.csv
    row, so a comma, a quote or a line break in it is refused before any
    output directory exists."""
    doc = dict(minimal_markov(), name=name)
    with pytest.raises(ConfigError) as caught:
        load_config(doc)
    assert str(caught.value).startswith("name:")
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_required_keys():
    for key in ("scenario", "num_users", "num_channels"):
        doc = minimal_markov()
        del doc[key]
        with pytest.raises(ConfigError):
            load_config(doc)


def test_minimal_document_gets_run_defaults():
    """Only the population shape is mandatory; the run bookkeeping has
    documented defaults and the resolved values land in to_document()."""
    cfg = load_config({"scenario": "hypergraph", "num_users": 6,
                       "num_channels": 3})
    assert cfg.slots == 2000
    assert cfg.trials == 20
    assert cfg.seed == 1
    assert cfg.name == "hypergraph"
    doc = cfg.to_document()
    assert doc["slots"] == 2000 and doc["seed"] == 1
    assert load_config(doc).to_document() == doc


def test_stackelberg_rejects_scripted_jammers():
    doc = dict(get_preset("fig3-stackelberg"))
    doc["jammer"] = {"kind": "fixed", "fixed_channel": 0}
    with pytest.raises(ConfigError):
        load_config(doc)
    doc = dict(get_preset("fig3-stackelberg"))
    doc["jammers"] = [{"kind": "fixed"}]
    with pytest.raises(ConfigError):
        load_config(doc)


def test_hypergraph_key_only_in_hypergraph_scenario():
    doc = minimal_markov()
    doc["hypergraph"] = {"source": "geometric"}
    with pytest.raises(ConfigError):
        load_config(doc)


def test_comb_default_covers_every_other_channel():
    doc = minimal_markov()
    doc["num_channels"] = 6
    doc["jammer"] = {"kind": "comb"}
    cfg = load_config(doc)
    assert cfg.jammers[0].comb_set == (0, 2, 4)


def test_multiple_jammers_allowed_outside_stackelberg():
    doc = minimal_markov()
    doc["geometry"] = {"layout": "ring", "radius": 8.0,
                       "jammer_positions": [[0.0, 0.0], [1.0, 1.0]]}
    doc["jammers"] = [{"kind": "fixed", "fixed_channel": 0},
                      {"kind": "sweep", "dwell": 2}]
    cfg = load_config(doc)
    assert len(cfg.jammers) == 2
    assert cfg.geometry.num_jammers == 2
    # pattern count must match jammer position count
    doc["jammers"] = [{"kind": "fixed"}]
    with pytest.raises(ConfigError):
        load_config(doc)


def test_ring_geometry_layout():
    doc = minimal_markov()
    doc["num_users"] = 4
    doc["geometry"] = {"layout": "ring", "radius": 10.0, "link_distance": 1.0}
    geo = load_config(doc).geometry
    d_tx = np.linalg.norm(geo.tx, axis=1)
    d_rx = np.linalg.norm(geo.rx, axis=1)
    assert np.allclose(d_tx, 10.0)
    assert np.allclose(d_rx, 11.0)  # each rx sits radially outward
    assert np.allclose(geo.jammers, [[0.0, 0.0]])  # jammer at the center


def test_explicit_geometry_length_checked():
    doc = minimal_markov()
    doc["geometry"] = {"layout": "explicit",
                       "user_pairs": [[[0, 0], [0, 0]]]}  # one pair, two users
    with pytest.raises(ConfigError):
        load_config(doc)


def test_hypergraph_scenario_explicit_and_geometric():
    doc = get_preset("fig5-hypergraph")
    cfg = load_config(doc)
    hg = cfg.hypergraph
    assert hg.num_users == 8
    assert hg.strong_edges == ((1, 2),)
    assert len(hg.weak_hyperedges) == 6

    doc = get_preset("fig5-hypergraph")
    doc["hypergraph"] = {"source": "geometric", "strong_radius": 2.0,
                         "weak_radius": 6.0, "activation_threshold": 3}
    cfg = load_config(doc)
    assert cfg.hypergraph.num_users == 8


def test_learning_params_round_trip():
    doc = minimal_markov()
    doc["learning"] = {"step_size": 0.11, "epsilon_floor": 0.02}
    cfg = load_config(doc)
    assert cfg.learning.step_size == 0.11
    assert cfg.learning.epsilon_floor == 0.02
    assert cfg.learning.learning_rate == 0.1  # untouched default
    assert cfg.to_document()["learning"]["step_size"] == 0.11


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_markov()))
    cfg = load_config(read_document(path))
    assert cfg.name == "unit"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(read_document(bad))
    with pytest.raises(ConfigError):
        load_config(read_document(tmp_path / "missing.json"))


def test_document_must_be_a_dict():
    with pytest.raises(ConfigError):
        load_config([1, 2, 3])
    doc = minimal_markov()
    doc["radio"] = "loud"
    with pytest.raises(ConfigError):
        load_config(doc)
    doc = minimal_markov()
    doc["jammer"] = 7
    with pytest.raises(ConfigError):
        load_config(doc)


def test_oversized_leader_game_rejected_at_load():
    """The leader oracle values the N x M deviations of M^N follower profiles
    per leader action, so a stackelberg config past its cap must fail before
    any simulation."""
    doc = get_preset("fig3-stackelberg")
    del doc["geometry"]
    doc.update(num_users=6, num_channels=10)
    assert oracle_cells(6, 10) == MAX_ORACLE_CELLS == 6 * 10 ** 8
    load_config(doc)  # exactly at the cap
    doc.update(num_users=6, num_channels=4)
    load_config(doc)  # the benchmark's oracle instance
    # wide games have few profiles but many deviations per profile
    for users, channels in ((2, 1000), (3, 100), (5, 15), (9, 6)):
        doc.update(num_users=users, num_channels=channels)
        with pytest.raises(ConfigError, match="cap"):
            load_config(doc)
    # a huge population is rejected at once, without computing M^N
    doc.update(num_users=10 ** 7, num_channels=3)
    started = time.time()
    with pytest.raises(ConfigError, match="cap"):
        load_config(doc)
    assert time.time() - started < 1.0
    # only the leader game runs the oracle
    load_config({"scenario": "markov", "num_users": 8, "num_channels": 6})


MALFORMED = {
    "jammer_positions": {"geometry": {"jammer_positions": [5]}},
    "user_pairs": {"geometry": {"layout": "explicit", "user_pairs": [1, 2]}},
    "comb_set": {"jammer": {"kind": "comb", "comb_set": ["a"]}},
    "strong_edges": {"scenario": "hypergraph",
                     "hypergraph": {"source": "explicit",
                                    "strong_edges": [["x", 1]]}},
    "step_size": {"learning": {"step_size": "big"}},
    "algorithms": {"algorithms": [["random"]]},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_values_are_config_errors(tmp_path, overrides):
    """A value of the wrong JSON type is a configuration problem (exit 2),
    not a runtime failure with a raw Python message."""
    doc = dict(minimal_markov(), **overrides)
    with pytest.raises(ConfigError):
        load_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
