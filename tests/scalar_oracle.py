"""The scalar oracle the batched one in games replaced: one utility per
(profile, user, channel) cell, a per-profile NE filter, a per-channel
leader solve and one best-response run per start.

A cell is the co-channel mask of scalar_rates for rate games and the scalar
marginal loop of scalar_interference for hypergraph games, never the
library's own rate kernel or conflict count.
"""

import itertools

import numpy as np

import scalar_interference as scalar
import scalar_rates


def reference_utility_row(game, n, choices, jammed, active):
    """Utility of user n for each of its own channel choices, others fixed:
    its rate, or minus its scalar marginal interference; 0 if inactive."""
    out = np.zeros(game.num_channels)
    if not active[n]:
        return out
    work = np.array(choices, dtype=np.int64)
    for c in range(game.num_channels):
        work[n] = c
        if game.kind == "hypergraph":
            out[c] = -float(scalar.marginal_interference(
                game.hypergraph, n, work, active, jammed))
        else:
            out[c] = float(scalar_rates.rates(game.rate_model, work, jammed,
                                              active)[n])
    return out


def reference_is_nash(game, choices, jammed, active):
    for n in range(game.num_users):
        if not active[n]:
            continue
        row = reference_utility_row(game, n, choices, jammed, active)
        if row[choices[n]] < row.max() - 1e-12:
            return False
    return True


def reference_enumeration(game, jammed, active):
    return [profile for profile in itertools.product(range(game.num_channels),
                                                     repeat=game.num_users)
            if reference_is_nash(game, np.array(profile), jammed, active)]


def reference_leader_solve(game, active):
    """Per leader channel: the NE of largest total rate, first on ties."""
    audit = []
    for channel in range(game.num_channels):
        jam = frozenset({channel})
        equilibria = reference_enumeration(game, jam, active)
        totals = [float(scalar_rates.rates(game.rate_model, eq, jam, active).sum())
                  for eq in equilibria]
        if not totals:
            audit.append((channel, False, None, None))
            continue
        i = int(np.argmax(totals))
        audit.append((channel, True, totals[i], list(equilibria[i])))
    return audit


def reference_best_response(game, start, jammed, active, max_rounds):
    choices = np.array(start, dtype=np.int64)
    for rounds in range(1, max_rounds + 1):
        changed = False
        for n in range(game.num_users):
            if not active[n]:
                continue
            row = reference_utility_row(game, n, choices, jammed, active)
            if row[choices[n]] < row.max() - 1e-12:
                choices[n] = int(np.argmax(row))
                changed = True
        if not changed:
            return choices, True, rounds
    return choices, False, max_rounds
