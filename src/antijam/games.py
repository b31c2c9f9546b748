"""One-shot channel selection games and their exact small-instance oracles.

Two game kinds share one interface:

* stackelberg: a user's utility is its own achievable rate.
* hypergraph: a user's utility is minus its marginal contribution to the
  generalized interference count. That choice makes Phi = -I_total an exact
  potential, so best-response dynamics terminates at a pure NE.

The oracles (pure NE enumeration, best-response dynamics, Stackelberg solve)
brute-force small instances and are the ground truth the learners are tested
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .env import NodeGeometry, RadioParams, RateModel
from .errors import ConfigError, InstanceTooLargeError, UnsupportedOperationError
from .hypergraph import (InterferenceHypergraph, marginal_interference,
                         total_generalized_interference)

KINDS = ("stackelberg", "hypergraph")

# Largest profile count M^N the brute-force oracles enumerate.
MAX_PROFILES = 10 ** 6

_NO_JAM = frozenset()


class GameSpec:
    """A channel selection game bound to its environment.

    geometry and params are always required (rates are how profiles get
    valued); hypergraph is required exactly when kind == "hypergraph".
    """

    def __init__(self, kind: str, geometry: NodeGeometry, params: RadioParams,
                 hypergraph: InterferenceHypergraph | None = None):
        if kind not in KINDS:
            raise ConfigError(f"game kind: unknown kind {kind!r}")
        if kind == "hypergraph":
            if hypergraph is None:
                raise ConfigError("game kind hypergraph: needs a hypergraph")
            if hypergraph.num_users != geometry.num_users:
                raise ConfigError("hypergraph and geometry disagree on user count")
        self.kind = kind
        self.geometry = geometry
        self.params = params
        self.hypergraph = hypergraph
        self._model = None

    @property
    def num_users(self) -> int:
        return self.geometry.num_users

    @property
    def num_channels(self) -> int:
        return self.params.num_channels

    @property
    def rate_model(self) -> RateModel:
        if self._model is None:
            self._model = RateModel(self.geometry, self.params)
        return self._model


def _as_choices(choices, num_users: int) -> np.ndarray:
    arr = np.asarray(choices, dtype=np.int64)
    if arr.shape != (num_users,):
        raise ConfigError(f"assignment: expected {num_users} entries, got shape {arr.shape}")
    return arr


def _as_mask(active_mask, num_users: int) -> np.ndarray:
    if active_mask is None:
        return np.ones(num_users, dtype=bool)
    mask = np.asarray(active_mask, dtype=bool)
    if mask.shape != (num_users,):
        raise ConfigError(f"active_mask: expected {num_users} entries, got shape {mask.shape}")
    return mask


def user_utility(game: GameSpec, n: int, choices, jammed_channels=_NO_JAM,
                 active_mask=None) -> float:
    """Utility of user n at the joint assignment; 0 by convention if inactive."""
    choices = _as_choices(choices, game.num_users)
    active = _as_mask(active_mask, game.num_users)
    if not active[n]:
        return 0.0
    if game.kind == "hypergraph":
        return -float(marginal_interference(game.hypergraph, n, choices, active,
                                            jammed_channels))
    rates = game.rate_model.rates(choices, jammed_channels, active)
    return float(rates[n])


def potential_value(game: GameSpec, choices, jammed_channels=_NO_JAM,
                    active_mask=None) -> float:
    """Phi = -I_total for the hypergraph game (the exact potential)."""
    if game.kind != "hypergraph":
        raise UnsupportedOperationError(
            f"potential_value: defined for hypergraph games, not {game.kind!r}")
    choices = _as_choices(choices, game.num_users)
    active = _as_mask(active_mask, game.num_users)
    return -float(total_generalized_interference(game.hypergraph, choices, active,
                                                 jammed_channels))


def _utility_row(game: GameSpec, n: int, choices: np.ndarray, jammed, active) -> np.ndarray:
    """Utility of user n for each of its own channel choices, others fixed."""
    out = np.empty(game.num_channels)
    work = choices.copy()
    for c in range(game.num_channels):
        work[n] = c
        out[c] = user_utility(game, n, work, jammed, active)
    return out


def is_pure_nash(game: GameSpec, choices, jammed_channels=_NO_JAM,
                 active_mask=None) -> bool:
    """True iff no active user has a strictly improving unilateral deviation."""
    choices = _as_choices(choices, game.num_users)
    active = _as_mask(active_mask, game.num_users)
    for n in range(game.num_users):
        if not active[n]:
            continue
        row = _utility_row(game, n, choices, jammed_channels, active)
        if row.max() > row[choices[n]]:
            return False
    return True


def enumerate_pure_nash(game: GameSpec, jammed_channels=_NO_JAM, active_mask=None,
                        max_profiles: int = MAX_PROFILES) -> list:
    """Every pure NE assignment, lexicographically ordered (brute force)."""
    n, m = game.num_users, game.num_channels
    if m ** n > max_profiles:
        raise InstanceTooLargeError(
            f"enumerate_pure_nash: {m}^{n} profiles exceeds cap {max_profiles}")
    active = _as_mask(active_mask, n)
    out = []
    for profile in itertools.product(range(m), repeat=n):
        arr = np.array(profile, dtype=np.int64)
        if is_pure_nash(game, arr, jammed_channels, active):
            out.append(arr)
    return out


def best_response_step(game: GameSpec, choices, n: int, jammed_channels=_NO_JAM,
                       active_mask=None) -> np.ndarray:
    """Best response for user n with inertia; other users untouched.

    The user moves only on a strict improvement, to the lowest-index channel
    among the maximizers. Keeping the current channel on ties makes every
    pure equilibrium a fixpoint of the dynamics, and since any actual move
    then strictly improves the mover (hence the potential, when there is
    one), round-robin sweeps cannot cycle on a potential game.
    """
    choices = _as_choices(choices, game.num_users)
    active = _as_mask(active_mask, game.num_users)
    new = choices.copy()
    if not active[n]:
        return new
    row = _utility_row(game, n, choices, jammed_channels, active)
    if row[int(choices[n])] >= row.max() - 1e-12:
        return new
    new[n] = int(np.argmax(row))
    return new


def run_best_response(game: GameSpec, start, jammed_channels=_NO_JAM,
                      active_mask=None, max_rounds: int = 500):
    """Round-robin best-response sweeps until a full sweep changes nothing.

    Returns (assignment, converged, rounds). Hypergraph games always converge
    (exact potential); rate games may cycle, in which case converged is False
    after max_rounds sweeps.
    """
    choices = _as_choices(start, game.num_users).copy()
    active = _as_mask(active_mask, game.num_users)
    for rounds in range(1, max_rounds + 1):
        changed = False
        for n in range(game.num_users):
            if not active[n]:
                continue
            nxt = best_response_step(game, choices, n, jammed_channels, active)
            if nxt[n] != choices[n]:
                changed = True
                choices = nxt
        if not changed:
            return choices, True, rounds
    return choices, False, max_rounds


def _total_rate(game: GameSpec, choices: np.ndarray, jammed, active) -> float:
    rates = game.rate_model.rates(choices, jammed, active)
    return float(rates.sum())


@dataclass(frozen=True)
class LeaderAudit:
    channel: int
    has_equilibrium: bool
    total_rate: float | None
    follower_assignment: np.ndarray | None


@dataclass(frozen=True)
class StackelbergSolution:
    leader_channel: int
    follower_assignment: np.ndarray
    follower_rates: np.ndarray
    total_rate: float
    leader_utility: float
    per_action: tuple


def stackelberg_solve(game: GameSpec, active_mask=None,
                      max_profiles: int = MAX_PROFILES) -> StackelbergSolution:
    """Leader commits to one jammed channel anticipating the followers' best NE.

    For each leader channel the followers are assumed to land on the pure NE
    with maximal total rate (lexicographically first on ties). The leader,
    whose utility is minus that total, picks the action minimizing it; ties go
    to the lowest channel. Actions admitting no pure follower NE are recorded
    in the audit and skipped.
    """
    if game.kind != "stackelberg":
        raise UnsupportedOperationError(
            f"stackelberg_solve: defined for stackelberg games, not {game.kind!r}")
    active = _as_mask(active_mask, game.num_users)
    audit = []
    best = None
    for channel in range(game.num_channels):
        jam = frozenset({channel})
        equilibria = enumerate_pure_nash(game, jam, active, max_profiles)
        if not equilibria:
            audit.append(LeaderAudit(channel, False, None, None))
            continue
        totals = [_total_rate(game, eq, jam, active) for eq in equilibria]
        idx = int(np.argmax(totals))
        audit.append(LeaderAudit(channel, True, totals[idx], equilibria[idx]))
        if best is None or totals[idx] < best[1]:
            best = (channel, totals[idx], equilibria[idx])
    if best is None:
        raise RuntimeError(
            "stackelberg_solve: no leader action admits a pure follower equilibrium")
    channel, total, assignment = best
    jam = frozenset({channel})
    rates = game.rate_model.rates(assignment, jam, active)
    return StackelbergSolution(
        leader_channel=channel,
        follower_assignment=assignment,
        follower_rates=rates,
        total_rate=total,
        leader_utility=-total,
        per_action=tuple(audit),
    )
