"""The generalized interference counts as plain Python loops over the edges.

This is the scalar definition the library's array count in
antijam.hypergraph is checked against: one pass per strong edge and per weak
hyperedge, the jammed channels read as a channel set. It imports nothing of
the library's counting, so a property comparing the two cannot compare the
array count with itself.
"""

import numpy as np


def channel_set(jammed):
    """An (M,) bool jam mask as the channel set these loops read."""
    return frozenset(np.flatnonzero(jammed).tolist())


def total_generalized_interference(hypergraph, choices, active_mask,
                                   jammed_channels) -> int:
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


def marginal_interference(hypergraph, n: int, choices, active_mask,
                          jammed_channels) -> int:
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
