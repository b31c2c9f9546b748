"""Interference hypergraph: strong pairwise edges plus weak-accumulative hyperedges.

A strong edge fires when its two endpoints are active on the same channel. A
weak hyperedge fires on a channel when at least activation_threshold of its
active members picked that channel; below the threshold the group produces no
interference at all. Every active user on a jammed channel adds one more.

deviation_interference is the one count of these conflicts: the marginal
counts, the total, the slot reward and the exact oracles read it or its
channel occupancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import NodeGeometry, _at_own_channel
from .errors import ConfigError


@dataclass(frozen=True)
class InterferenceHypergraph:
    """Strong edges and weak hyperedges, with the int64 0/1 arrays every
    conflict count reads, built once: adjacency[u, v] marks a strong edge
    between u and v, membership[u, e] that u is in the e-th weak hyperedge."""

    num_users: int
    strong_edges: tuple = ()
    weak_hyperedges: tuple = ()
    activation_threshold: int = 3
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    membership: np.ndarray = field(init=False, repr=False, compare=False)

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
        adjacency = np.zeros((self.num_users, self.num_users), dtype=np.int64)
        for u, v in strong:
            adjacency[u, v] = adjacency[v, u] = 1
        membership = np.zeros((self.num_users, len(weak)), dtype=np.int64)
        for e, h in enumerate(weak):
            membership[list(h), e] = 1
        adjacency.flags.writeable = membership.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "membership", membership)

    def without_weak_edges(self) -> "InterferenceHypergraph":
        """Plain-graph view: the baseline model that ignores weak accumulation."""
        return InterferenceHypergraph(
            num_users=self.num_users,
            strong_edges=self.strong_edges,
            weak_hyperedges=(),
            activation_threshold=self.activation_threshold,
        )


def build_hypergraph(geometry: NodeGeometry, strong_radius: float, weak_radius: float,
                     activation_threshold: int) -> InterferenceHypergraph:
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


def _occupancy(hypergraph: InterferenceHypergraph, profiles, active, jammed):
    """(on, count, on_edge) of profiles (..., N) on the channels of the jam
    mask (..., M): on[..., n, c] marks user n active on channel c, count is
    on as int64, and on_edge[..., e, c] counts hyperedge e's active members
    on c. active is (N,) or (..., N)."""
    on = (profiles[..., None] == np.arange(jammed.shape[-1])) & active[..., None]
    count = on.astype(np.int64)
    return on, count, hypergraph.membership.T @ count


def deviation_interference(hypergraph: InterferenceHypergraph, profiles, active,
                           jammed) -> np.ndarray:
    """(..., N, M) ints: [..., n, c] is the generalized interference user n
    adds by being active on channel c while the others keep their choices,
    under the bool jam mask jammed, (M,) or (..., M): the strong neighbours
    active on c,
    n's hyperedges with exactly the threshold of active members on c once n
    is there, and the jammer if c is jammed. What n hears on c does not
    depend on n's own choice, so one pass values every channel at once.
    """
    on, count, on_edge = _occupancy(hypergraph, profiles, active, jammed)
    thr = hypergraph.activation_threshold
    # n fires e on c when exactly thr - 1 others are there: thr members
    # counting n where it already is, thr - 1 where it would move to.
    fires = np.where(on, hypergraph.membership @ (on_edge == thr).astype(np.int64),
                     hypergraph.membership @ (on_edge == thr - 1).astype(np.int64))
    return hypergraph.adjacency @ count + jammed[..., None, :] + fires


def marginal_interference(hypergraph: InterferenceHypergraph, choices, active,
                          jammed) -> np.ndarray:
    """(..., N) ints: how much of the generalized interference disappears if
    each user alone leaves, 0 for inactive users; deviation_interference at
    each user's own channel, for the profiles (..., N) of one or more trials."""
    hits = deviation_interference(hypergraph, choices, active, jammed)
    return np.where(active, _at_own_channel(hits, choices), 0)


def total_generalized_interference(hypergraph: InterferenceHypergraph, choices,
                                   active, jammed) -> int:
    """Active strong edges + (hyperedge, channel) activations + jammed active
    users, for one profile (N,) under the (M,) bool jam mask jammed."""
    on, count, on_edge = _occupancy(hypergraph, choices, active, jammed)
    # each active strong edge is seen from both of its ends
    strong = int((count * (hypergraph.adjacency @ count)).sum()) // 2
    return strong + int((on_edge >= hypergraph.activation_threshold).sum()) \
        + int(on[:, jammed].sum())
