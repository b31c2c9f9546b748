"""Interference hypergraph: strong pairwise edges plus weak-accumulative hyperedges.

A strong edge fires when its two endpoints are active on the same channel. A
weak hyperedge fires on a channel when at least activation_threshold of its
active members picked that channel; below the threshold the group produces no
interference at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import NodeGeometry
from .errors import ConfigError


@dataclass(frozen=True)
class InterferenceHypergraph:
    num_users: int
    strong_edges: tuple = ()
    weak_hyperedges: tuple = ()
    activation_threshold: int = 3

    def __post_init__(self) -> None:
        strong = tuple(sorted(tuple(sorted(int(u) for u in e)) for e in self.strong_edges))
        weak = tuple(sorted(tuple(sorted(int(u) for u in h)) for h in self.weak_hyperedges))
        object.__setattr__(self, "strong_edges", strong)
        object.__setattr__(self, "weak_hyperedges", weak)
        if self.num_users < 1:
            raise ConfigError("num_users: must be >= 1")
        if self.activation_threshold < 1:
            raise ConfigError("activation_threshold: must be >= 1")
        for e in strong:
            if len(e) != 2 or e[0] == e[1]:
                raise ConfigError(f"strong edge {e}: must be a pair of distinct users")
            if e[0] < 0 or e[1] >= self.num_users:
                raise ConfigError(f"strong edge {e}: member out of range")
        for h in weak:
            if len(set(h)) != len(h):
                raise ConfigError(f"weak hyperedge {h}: duplicate member")
            if len(h) < max(3, self.activation_threshold):
                raise ConfigError(f"weak hyperedge {h}: size must be >= max(3, threshold)")
            if h[0] < 0 or h[-1] >= self.num_users:
                raise ConfigError(f"weak hyperedge {h}: member out of range")
        if len(set(strong)) != len(strong) or len(set(weak)) != len(weak):
            raise ConfigError("hypergraph: duplicate edges")

    def without_weak_edges(self) -> "InterferenceHypergraph":
        """Plain-graph view: the baseline model that ignores weak accumulation."""
        return InterferenceHypergraph(
            num_users=self.num_users,
            strong_edges=self.strong_edges,
            weak_hyperedges=(),
            activation_threshold=self.activation_threshold,
        )


def build_hypergraph(geometry: NodeGeometry, strong_radius: float, weak_radius: float,
                     activation_threshold: int = 3) -> InterferenceHypergraph:
    """Construct the hypergraph from transmitter proximity.

    Any pair of transmitters within strong_radius gets a strong edge. Each
    maximal group of >= 3 transmitters mutually within weak_radius becomes a
    weak hyperedge, unless the group is already a complete strong clique.
    """
    import networkx as nx  # only the geometric source needs it

    if not (weak_radius >= strong_radius > 0):
        raise ConfigError("radii: need weak_radius >= strong_radius > 0")
    n = geometry.num_users
    pts = geometry.tx
    strong = set()
    weak_graph = nx.Graph()
    weak_graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            d = math.dist(pts[u], pts[v])
            if d <= strong_radius:
                strong.add((u, v))
            if d <= weak_radius:
                weak_graph.add_edge(u, v)
    hyper = []
    min_size = max(3, activation_threshold)
    for clique in nx.find_cliques(weak_graph):
        if len(clique) < min_size:
            continue
        members = tuple(sorted(clique))
        all_strong = all(
            (members[i], members[j]) in strong
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        if not all_strong:
            hyper.append(members)
    return InterferenceHypergraph(
        num_users=n,
        strong_edges=tuple(sorted(strong)),
        weak_hyperedges=tuple(sorted(hyper)),
        activation_threshold=activation_threshold,
    )


def incidence(hypergraph: InterferenceHypergraph) -> tuple:
    """(adjacency, membership) as int64 0/1 arrays: adjacency[u, v] marks a
    strong edge between u and v, membership[u, e] that u belongs to the e-th
    weak hyperedge. Conflicts are counted from these, in the slot reward and
    in the exact oracle alike."""
    n = hypergraph.num_users
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in hypergraph.strong_edges:
        adjacency[u, v] = adjacency[v, u] = 1
    membership = np.zeros((n, len(hypergraph.weak_hyperedges)), dtype=np.int64)
    for e, h in enumerate(hypergraph.weak_hyperedges):
        membership[list(h), e] = 1
    return adjacency, membership


def total_generalized_interference(hypergraph: InterferenceHypergraph, choices,
                                   active_mask, jammed_channels) -> int:
    """Active strong edges + (hyperedge, channel) activations + jammed active users."""
    choices = np.asarray(choices, dtype=np.int64)
    active = np.asarray(active_mask, dtype=bool)
    total = 0
    for u, v in hypergraph.strong_edges:
        if active[u] and active[v] and choices[u] == choices[v]:
            total += 1
    thr = hypergraph.activation_threshold
    for h in hypergraph.weak_hyperedges:
        counts = {}
        for u in h:
            if active[u]:
                c = int(choices[u])
                counts[c] = counts.get(c, 0) + 1
        total += sum(1 for k in counts.values() if k >= thr)
    if jammed_channels:
        for u in range(hypergraph.num_users):
            if active[u] and int(choices[u]) in jammed_channels:
                total += 1
    return total


def marginal_interference(hypergraph: InterferenceHypergraph, n: int, choices,
                          active_mask, jammed_channels) -> int:
    """How much of the generalized interference disappears if user n leaves.

    Equals total_generalized_interference(a) minus the same total with n made
    inactive, computed incrementally: only terms touching n's channel move.
    """
    choices = np.asarray(choices, dtype=np.int64)
    active = np.asarray(active_mask, dtype=bool)
    if not active[n]:
        return 0
    c = int(choices[n])
    delta = 0
    for u, v in hypergraph.strong_edges:
        if n in (u, v):
            other = v if u == n else u
            if active[other] and int(choices[other]) == c:
                delta += 1
    thr = hypergraph.activation_threshold
    for h in hypergraph.weak_hyperedges:
        if n not in h:
            continue
        count = sum(1 for u in h if active[u] and int(choices[u]) == c)
        # Removing n kills the activation on c only when n was the marginal member.
        if count == thr:
            delta += 1
    if jammed_channels and c in jammed_channels:
        delta += 1
    return delta
