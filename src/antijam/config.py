"""Scenario configuration: strict JSON documents with defaults filled in.

A document picks one of three scenario kinds and describes the world (users,
channels, radio constants, geometry, jammers) plus the algorithms to run and
their hyperparameters. Unknown keys are rejected everywhere so a typo cannot
silently fall back to a default mid-experiment.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field

from .env import NodeGeometry, RadioParams
from .errors import ConfigError
from .games import MAX_ORACLE_CELLS, oracle_cells
from .hypergraph import InterferenceHypergraph, build_hypergraph
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


@contextlib.contextmanager
def _section_errors(where: str):
    """Prefix where to a ConfigError raised inside, as a value object knows no section."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _section(cls, doc, where: str, **given):
    """The dataclass cls built from its JSON object doc, with the fields in
    given set by the caller. Every other field may be a key of doc, whose
    value must be a finite number, integral where the field's default is an
    int; cls fills in the defaults and checks the ranges."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.name not in given}
    _check_keys(doc, defaults, where)
    values = {key: _require_number(doc, key, where,
                                   integer=isinstance(defaults[key], int))
              for key in doc}
    with _section_errors(where):
        return cls(**given, **values)


def _section_document(obj) -> dict:
    """The resolved JSON object of a section built by _section."""
    doc = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
           if f.name != "num_channels"}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


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
            raise ConfigError("step_size: must be in (0, 1)")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate: must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError("discount: must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}: must be in [0, 1]")
        if self.epsilon_floor > self.epsilon_start:
            raise ConfigError("epsilon_floor: must be <= epsilon_start")
        for name in ("epsilon_decay", "leader_epsilon_decay"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name}: must be in (0, 1]")
        if self.window_slots < 1:
            raise ConfigError("window_slots: must be >= 1")


_GEOMETRY_KEYS = ("layout", "radius", "link_distance", "user_pairs",
                  "jammer_positions")

_HYPERGRAPH_KEYS = ("source", "strong_edges", "weak_hyperedges",
                    "activation_threshold", "strong_radius", "weak_radius")

_DEFAULT_JAMMER = {"markov": "sweep", "hypergraph": "fixed"}

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


def _resolve_geometry(doc, num_users: int, num_jammers: int) -> tuple:
    """(resolved document, NodeGeometry) of the geometry section."""
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
        radius = _require_number(doc, "radius", "geometry", lo=0.0, default=10.0)
        link = _require_number(doc, "link_distance", "geometry", lo=0.0, default=1.0)
        # ring: transmitters on a circle, each receiver radially outward.
        pairs = []
        for i in range(num_users):
            angle = 2.0 * math.pi * i / num_users
            tx = (radius * math.cos(angle), radius * math.sin(angle))
            rx = ((radius + link) * math.cos(angle), (radius + link) * math.sin(angle))
            pairs.append((tx, rx))
        resolved = {"layout": "ring", "radius": radius, "link_distance": link,
                    "jammer_positions": jam_pos}
    return resolved, NodeGeometry(pairs, jam_pos)


def _jammer(doc, num_channels: int, where: str) -> JammerPattern:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    comb = doc.get("comb_set")  # None leaves the default to JammerPattern
    if comb is not None:
        comb = _index_list(comb, f"{where}.comb_set")
    numbers = {k: v for k, v in doc.items() if k not in ("kind", "comb_set")}
    return _section(JammerPattern, numbers, where, kind=doc.get("kind"),
                    num_channels=num_channels, comb_set=comb)


def _resolve_hypergraph(doc, num_users: int, geometry: NodeGeometry,
                        where: str = "hypergraph") -> tuple:
    """(resolved document, InterferenceHypergraph) of the hypergraph section."""
    _check_keys(doc, _HYPERGRAPH_KEYS, where)
    source = doc.get("source", "geometric")
    if source not in ("geometric", "explicit"):
        raise ConfigError(f"{where}.source: must be 'geometric' or 'explicit'")
    threshold = _require_number(doc, "activation_threshold", where, integer=True,
                                default=InterferenceHypergraph.activation_threshold)
    if source == "explicit":
        resolved = {
            "source": "explicit",
            "strong_edges": [_index_list(e, f"{where}.strong_edges")
                             for e in _list(doc, "strong_edges", where, [])],
            "weak_hyperedges": [_index_list(h, f"{where}.weak_hyperedges")
                                for h in _list(doc, "weak_hyperedges", where, [])],
            "activation_threshold": threshold,
        }
        with _section_errors(where):
            return resolved, InterferenceHypergraph(
                num_users, resolved["strong_edges"], resolved["weak_hyperedges"],
                threshold)
    strong_radius = _require_number(doc, "strong_radius", where, default=2.0)
    weak_radius = _require_number(doc, "weak_radius", where, default=6.0)
    resolved = {"source": "geometric", "strong_radius": strong_radius,
                "weak_radius": weak_radius, "activation_threshold": threshold}
    with _section_errors(where):
        return resolved, build_hypergraph(geometry, strong_radius, weak_radius,
                                          threshold)


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
    # the first field of every per_slot.csv and summary.csv row
    if any(c in name for c in ',"\r\n'):
        raise ConfigError(f"name: {name!r} holds a comma, quote or line break")
    output_dir = document.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string or null")

    radio = _section(RadioParams, document.get("radio", {}), "radio",
                     num_channels=num_channels)

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
        jammers = ()
    else:
        raw = document.get("jammers")
        if raw is None:
            raw = [document.get("jammer", {"kind": _DEFAULT_JAMMER[scenario]})]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("jammers: must be a non-empty list")
        jammers = tuple(_jammer(d, num_channels, f"jammers[{i}]")
                        for i, d in enumerate(raw))

    geometry_doc, geometry = _resolve_geometry(document.get("geometry", {}),
                                               num_users, len(jammers) or 1)

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

    learning = _section(LearningParams, document.get("learning", {}), "learning")

    resolved = {
        "scenario": scenario, "name": name, "num_users": num_users,
        "num_channels": num_channels, "slots": slots, "trials": trials,
        "seed": seed, "active_probability": p,
        "radio": _section_document(radio),
        "geometry": geometry_doc, "algorithms": list(algos),
        "learning": _section_document(learning), "output_dir": output_dir,
    }
    if jammers:
        resolved["jammers"] = [_section_document(j) for j in jammers]
    hypergraph = None
    if scenario == "hypergraph":
        resolved["hypergraph"], hypergraph = _resolve_hypergraph(
            document.get("hypergraph", {}), num_users, geometry)
    elif "hypergraph" in document:
        raise ConfigError("hypergraph: only allowed in the hypergraph scenario")

    return ScenarioConfig(
        scenario=scenario, name=name, num_users=num_users,
        num_channels=num_channels, slots=slots, trials=trials, seed=seed,
        active_probability=p, radio=radio, algorithms=tuple(algos),
        learning=learning, output_dir=output_dir, _document=resolved,
        geometry=geometry, hypergraph=hypergraph, jammers=jammers,
    )


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
