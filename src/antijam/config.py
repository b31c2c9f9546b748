"""Scenario configuration: strict JSON documents with defaults filled in.

A document picks one of three scenario kinds and describes the world (users,
channels, radio constants, geometry, jammers) plus the algorithms to run and
their hyperparameters. Unknown keys are rejected everywhere so a typo cannot
silently fall back to a default mid-experiment.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field

from .env import NodeGeometry, RadioParams
from .errors import ConfigError
from .games import MAX_ORACLE_CELLS, oracle_cells
from .hypergraph import InterferenceHypergraph, build_hypergraph
from .jammers import KINDS as JAMMER_KINDS
from .jammers import JammerPattern

SCENARIOS = ("stackelberg", "markov", "hypergraph")

ALGORITHMS = {
    "stackelberg": ("hierarchical", "random"),
    "markov": ("collaborative", "independent_q", "sensing", "random"),
    "hypergraph": ("hypergraph_sla", "graph_sla", "random"),
}

def _check_keys(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _require_number(doc, key, where, lo=None, hi=None, integer=False, default=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = doc[key]
    if not _is_number(value):
        raise ConfigError(f"{where}: {key} must be a finite number")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{where}: {key} must be an integer")
    value = int(value) if integer else float(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{where}: {key} must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{where}: {key} must be <= {hi}")
    return value


def _point(value, where: str) -> list:
    if not (isinstance(value, list) and len(value) == 2
            and all(_is_number(c) for c in value)):
        raise ConfigError(f"{where}: must be an [x, y] pair of finite numbers")
    return [float(value[0]), float(value[1])]


def _index_list(value, where: str) -> list:
    """Sorted entries of a JSON list of integers (channel or user indices)."""
    if not (isinstance(value, list)
            and all(_is_number(v) and float(v).is_integer() for v in value)):
        raise ConfigError(f"{where}: must be a list of integers")
    return sorted(int(v) for v in value)


def _list(doc, key, where: str, default) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be a list")
    return value


@dataclass(frozen=True)
class LearningParams:
    """Hyperparameters shared by every learner; all config-exposed."""
    step_size: float = 0.08
    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon_start: float = 0.3
    epsilon_floor: float = 0.01
    epsilon_decay: float = 0.998
    window_slots: int = 50
    leader_epsilon_decay: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.step_size < 1.0:
            raise ConfigError("learning.step_size: must be in (0, 1)")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning.learning_rate: must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError("learning.discount: must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"learning.{name}: must be in [0, 1]")
        if self.epsilon_floor > self.epsilon_start:
            raise ConfigError("learning.epsilon_floor: must be <= epsilon_start")
        for name in ("epsilon_decay", "leader_epsilon_decay"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"learning.{name}: must be in (0, 1]")
        if self.window_slots < 1:
            raise ConfigError("learning.window_slots: must be >= 1")

    def to_document(self) -> dict:
        return dataclasses.asdict(self)


_LEARNING_KEYS = set(LearningParams().to_document())

_RADIO_KEYS = ("tx_power", "jam_power", "noise_floor", "pathloss_exponent",
               "min_distance")

_GEOMETRY_KEYS = ("layout", "radius", "link_distance", "user_pairs",
                  "jammer_positions")

_JAMMER_KEYS = ("kind", "fixed_channel", "comb_set", "dwell", "start_channel")

_HYPERGRAPH_KEYS = ("source", "strong_edges", "weak_hyperedges",
                    "activation_threshold", "strong_radius", "weak_radius")

_TOP_KEYS = ("scenario", "name", "num_users", "num_channels", "slots", "trials",
             "seed", "active_probability", "radio", "geometry", "jammer",
             "jammers", "algorithms", "learning", "hypergraph", "output_dir")


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated run: its settings, the world built from them once (node
    geometry, jammer patterns, and the hypergraph of a hypergraph scenario),
    and the resolved document, private: to_document() hands out copies."""

    scenario: str
    name: str
    num_users: int
    num_channels: int
    slots: int
    trials: int
    seed: int
    active_probability: float
    radio: RadioParams
    algorithms: tuple
    learning: LearningParams
    output_dir: str | None
    _document: dict = field(repr=False)
    geometry: NodeGeometry = field(repr=False, compare=False)
    jammers: tuple = field(compare=False)
    hypergraph: InterferenceHypergraph | None = field(repr=False, compare=False)

    def to_document(self) -> dict:
        """Fully resolved document, the caller's own copy; load_config on it
        reproduces this config."""
        return copy.deepcopy(self._document)


def _build_geometry(doc: dict, num_users: int) -> NodeGeometry:
    jammers = [tuple(p) for p in doc["jammer_positions"]]
    if doc["layout"] == "explicit":
        pairs = [((p[0][0], p[0][1]), (p[1][0], p[1][1])) for p in doc["user_pairs"]]
        return NodeGeometry(pairs, jammers)
    # ring: transmitters on a circle, each receiver radially outward.
    radius = doc["radius"]
    link = doc["link_distance"]
    pairs = []
    for i in range(num_users):
        angle = 2.0 * math.pi * i / num_users
        tx = (radius * math.cos(angle), radius * math.sin(angle))
        rx = ((radius + link) * math.cos(angle), (radius + link) * math.sin(angle))
        pairs.append((tx, rx))
    return NodeGeometry(pairs, jammers)


def _build_hypergraph(doc: dict, num_users: int,
                      geometry: NodeGeometry) -> InterferenceHypergraph:
    if doc["source"] == "explicit":
        return InterferenceHypergraph(num_users, doc["strong_edges"],
                                      doc["weak_hyperedges"],
                                      doc["activation_threshold"])
    return build_hypergraph(geometry, doc["strong_radius"], doc["weak_radius"],
                            doc["activation_threshold"])


def _resolve_geometry(doc, num_users: int, num_jammers: int) -> dict:
    _check_keys(doc, _GEOMETRY_KEYS, "geometry")
    layout = doc.get("layout", "ring")
    if layout not in ("ring", "explicit"):
        raise ConfigError(f"geometry.layout: unknown layout {layout!r}")
    jam_pos = [_point(p, "geometry.jammer_positions")
               for p in _list(doc, "jammer_positions", "geometry",
                              [[0.0, 0.0]] * num_jammers)]
    if len(jam_pos) != num_jammers:
        raise ConfigError("geometry.jammer_positions: count must match the jammer list")
    if layout == "explicit":
        if "user_pairs" not in doc:
            raise ConfigError("geometry.user_pairs: required for explicit layout")
        pairs = doc["user_pairs"]
        if not (isinstance(pairs, list) and len(pairs) == num_users
                and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise ConfigError("geometry.user_pairs: must be num_users [tx, rx] pairs")
        pairs = [[_point(tx, "geometry.user_pairs"), _point(rx, "geometry.user_pairs")]
                 for tx, rx in pairs]
        resolved = {"layout": "explicit", "user_pairs": pairs,
                    "jammer_positions": jam_pos}
    else:
        if "user_pairs" in doc:
            raise ConfigError("geometry.user_pairs: not allowed for ring layout")
        resolved = {
            "layout": "ring",
            "radius": _require_number(doc, "radius", "geometry", lo=0.0, default=10.0),
            "link_distance": _require_number(doc, "link_distance", "geometry",
                                             lo=0.0, default=1.0),
            "jammer_positions": jam_pos,
        }
    return resolved


def _resolve_jammer(doc, num_channels: int, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    _check_keys(doc, _JAMMER_KEYS, where)
    kind = doc.get("kind")
    if kind not in JAMMER_KINDS:
        raise ConfigError(f"{where}.kind: must be one of {JAMMER_KINDS}")
    comb = doc.get("comb_set")
    if comb is None:
        # default comb occupies every other channel, floor(M/2) teeth
        comb = list(range(0, num_channels, 2))[: num_channels // 2] if kind == "comb" else []
    resolved = {
        "kind": kind,
        "fixed_channel": _require_number(doc, "fixed_channel", where, lo=0,
                                         hi=num_channels - 1, integer=True, default=0),
        "comb_set": _index_list(comb, f"{where}.comb_set"),
        "dwell": _require_number(doc, "dwell", where, lo=1, integer=True, default=1),
        "start_channel": _require_number(doc, "start_channel", where, lo=0,
                                         hi=num_channels - 1, integer=True, default=0),
    }
    try:
        JammerPattern(**resolved).validate_channels(num_channels)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return resolved


def _resolve_hypergraph(doc, num_users: int, where: str = "hypergraph") -> dict:
    _check_keys(doc, _HYPERGRAPH_KEYS, where)
    source = doc.get("source", "geometric")
    if source not in ("geometric", "explicit"):
        raise ConfigError(f"{where}.source: must be 'geometric' or 'explicit'")
    threshold = _require_number(doc, "activation_threshold", where, lo=1,
                                integer=True, default=3)
    if source == "explicit":
        resolved = {
            "source": "explicit",
            "strong_edges": [_index_list(e, f"{where}.strong_edges")
                             for e in _list(doc, "strong_edges", where, [])],
            "weak_hyperedges": [_index_list(h, f"{where}.weak_hyperedges")
                                for h in _list(doc, "weak_hyperedges", where, [])],
            "activation_threshold": threshold,
        }
        return resolved
    strong_radius = _require_number(doc, "strong_radius", where, lo=0.0, default=2.0)
    weak_radius = _require_number(doc, "weak_radius", where, lo=0.0, default=6.0)
    if weak_radius < strong_radius or strong_radius <= 0:
        raise ConfigError(f"{where}: need weak_radius >= strong_radius > 0")
    return {"source": "geometric", "strong_radius": strong_radius,
            "weak_radius": weak_radius, "activation_threshold": threshold}


def load_config(document: dict) -> ScenarioConfig:
    """Validate a parsed JSON object and fill in every default."""
    if not isinstance(document, dict):
        raise ConfigError("config: document must be a JSON object")
    _check_keys(document, _TOP_KEYS, "config")
    scenario = document.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: must be one of {SCENARIOS}")

    # A selection problem needs at least two channels; everything below the
    # population size gets a documented default so a minimal document runs,
    # and metadata.json records whatever the defaults resolved to.
    num_users = _require_number(document, "num_users", "config", lo=1, integer=True)
    num_channels = _require_number(document, "num_channels", "config", lo=2, integer=True)
    slots = _require_number(document, "slots", "config", lo=1, integer=True, default=2000)
    trials = _require_number(document, "trials", "config", lo=1, integer=True, default=20)
    seed = _require_number(document, "seed", "config", lo=0, integer=True, default=1)
    p = _require_number(document, "active_probability", "config", lo=0.0, hi=1.0,
                        default=1.0)
    name = document.get("name", scenario)
    if not isinstance(name, str) or not name:
        raise ConfigError("name: must be a non-empty string")
    output_dir = document.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string or null")

    radio_doc = document.get("radio", {})
    _check_keys(radio_doc, _RADIO_KEYS, "radio")
    radio = RadioParams(
        num_channels=num_channels,
        tx_power=_require_number(radio_doc, "tx_power", "radio", default=1.0),
        jam_power=_require_number(radio_doc, "jam_power", "radio", lo=0.0, default=1.0),
        noise_floor=_require_number(radio_doc, "noise_floor", "radio", default=0.01),
        pathloss_exponent=_require_number(radio_doc, "pathloss_exponent", "radio",
                                          lo=0.0, default=2.0),
        min_distance=_require_number(radio_doc, "min_distance", "radio", default=1.0),
    )

    if "jammer" in document and "jammers" in document:
        raise ConfigError("config: give either 'jammer' or 'jammers', not both")
    if scenario == "stackelberg":
        if "jammer" in document or "jammers" in document:
            raise ConfigError("config: the stackelberg leader is adaptive; "
                              "jammer patterns are not allowed in this scenario")
        # num_channels >= 2, so past the cap's bit length no power is needed
        if num_users > MAX_ORACLE_CELLS.bit_length() \
                or oracle_cells(num_users, num_channels) > MAX_ORACLE_CELLS:
            raise ConfigError(f"config: the leader oracle cannot value "
                              f"{num_channels}^{num_users + 2} x {num_users} "
                              f"deviation cells (cap {MAX_ORACLE_CELLS})")
        jammer_docs = ()
        num_jammers = 1
    else:
        raw = document.get("jammers")
        if raw is None:
            raw = [document.get("jammer", _default_jammer_doc(scenario))]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("jammers: must be a non-empty list")
        jammer_docs = tuple(_resolve_jammer(d, num_channels, f"jammers[{i}]")
                            for i, d in enumerate(raw))
        num_jammers = len(jammer_docs)

    geometry_doc = _resolve_geometry(document.get("geometry", {}), num_users,
                                     num_jammers)
    geometry = _build_geometry(geometry_doc, num_users)

    algos = document.get("algorithms", list(ALGORITHMS[scenario]))
    if not isinstance(algos, list) or not algos \
            or not all(isinstance(a, str) for a in algos):
        raise ConfigError("algorithms: must be a non-empty list of names")
    if len(set(algos)) != len(algos):
        raise ConfigError("algorithms: duplicates not allowed")
    for algo in algos:
        if algo not in ALGORITHMS[scenario]:
            raise ConfigError(
                f"algorithms: {algo!r} not available in scenario {scenario!r} "
                f"(choose from {ALGORITHMS[scenario]})")

    learning_doc = document.get("learning", {})
    _check_keys(learning_doc, _LEARNING_KEYS, "learning")
    learning = LearningParams(**{
        key: _require_number(learning_doc, key, "learning",
                             integer=key == "window_slots")
        for key in learning_doc})

    resolved = {
        "scenario": scenario, "name": name, "num_users": num_users,
        "num_channels": num_channels, "slots": slots, "trials": trials,
        "seed": seed, "active_probability": p,
        "radio": {key: getattr(radio, key) for key in _RADIO_KEYS},
        "geometry": geometry_doc, "algorithms": list(algos),
        "learning": learning.to_document(), "output_dir": output_dir,
    }
    if jammer_docs:
        resolved["jammers"] = list(jammer_docs)
    hypergraph = None
    if scenario == "hypergraph":
        resolved["hypergraph"] = _resolve_hypergraph(document.get("hypergraph", {}),
                                                     num_users)
        hypergraph = _build_hypergraph(resolved["hypergraph"], num_users, geometry)
    elif "hypergraph" in document:
        raise ConfigError("hypergraph: only allowed in the hypergraph scenario")

    return ScenarioConfig(
        scenario=scenario, name=name, num_users=num_users,
        num_channels=num_channels, slots=slots, trials=trials, seed=seed,
        active_probability=p, radio=radio, algorithms=tuple(algos),
        learning=learning, output_dir=output_dir, _document=resolved,
        geometry=geometry, hypergraph=hypergraph,
        jammers=tuple(JammerPattern(**doc) for doc in jammer_docs),
    )


def _default_jammer_doc(scenario: str) -> dict:
    if scenario == "markov":
        return {"kind": "sweep"}
    return {"kind": "fixed"}


def read_document(path) -> dict:
    """Parse a JSON config file; anything but a JSON object is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON "
                          f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    if not isinstance(document, dict):
        raise ConfigError("config: document must be a JSON object")
    return document


def load_config_file(path) -> ScenarioConfig:
    return load_config(read_document(path))
