"""One-shot channel selection games and their exact small-instance oracles.

Two game kinds share one interface:

* stackelberg: a user's utility is its own achievable rate.
* hypergraph: a user's utility is minus its marginal contribution to the
  generalized interference count. That choice makes Phi = -I_total an exact
  potential, so best-response dynamics terminates at a pure NE.

The oracles (pure NE enumeration, best-response dynamics, Stackelberg solve)
are exact on small instances and are the ground truth the learners are tested
against; the Stackelberg solve enumerates the followers once, under a jam on
channel 0, and reports that one leader row. They share one batched kernel,
_deviation_utilities, which values every unilateral deviation of a block of
profiles as a (K, N, M) tensor: enumeration walks the M^N profiles in
lexicographic blocks, and best response sweeps many starts in lockstep.
user_utility reads one cell of that tensor. The kernel reads the one SINR
formula, RateModel.deviation_rates, and hypergraph.py's one conflict count.
The scalar oracle it replaced is the tests' reference.

Every entry point takes the jammed channels as a channel set or an (M,) bool
mask and checks them once, through env.jam_mask; the kernel takes the
checked mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import (NodeGeometry, RadioParams, RateModel, _as_choices, _as_mask,
                  jam_mask)
from .errors import ConfigError, InstanceTooLargeError, UnsupportedOperationError
from .hypergraph import (InterferenceHypergraph, deviation_interference,
                         total_generalized_interference)

KINDS = ("stackelberg", "hypergraph")

# Most deviation cells an exhaustive oracle may value, as oracle_cells
# counts them. 6 users on 10 channels is the largest instance admitted; its
# leader solve took 2.1-3.0 s on a 2-vCPU VM.
MAX_ORACLE_CELLS = 6 * 10 ** 8

# (profile, user, channel) cells valued per block: enumeration and lockstep
# best response hold a few arrays of this size at a time, whatever M^N is.
_BLOCK_CELLS = 8192


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
        self.rate_model = RateModel(geometry, params)

    @property
    def num_users(self) -> int:
        return self.geometry.num_users

    @property
    def num_channels(self) -> int:
        return self.params.num_channels


def user_utility(game: GameSpec, n: int, choices, jammed_channels=(),
                 active_mask=None) -> float:
    """Utility of user n at the joint assignment; 0 by convention if inactive."""
    # a bool is no user index, as it is no channel
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
            or not 0 <= n < game.num_users:
        raise ConfigError(f"user_utility: {n!r} is not a user in range({game.num_users})")
    choices = _as_choices(choices, game.num_users, game.num_channels)
    active = _as_mask(active_mask, game.num_users)
    jammed = jam_mask(jammed_channels, game.num_channels)
    return float(_deviation_utilities(game, choices[None], jammed, active)[0, n, choices[n]])


def potential_value(game: GameSpec, choices, jammed_channels=(),
                    active_mask=None) -> float:
    """Phi = -I_total for the hypergraph game (the exact potential)."""
    if game.kind != "hypergraph":
        raise UnsupportedOperationError(
            f"potential_value: defined for hypergraph games, not {game.kind!r}")
    choices = _as_choices(choices, game.num_users, game.num_channels)
    active = _as_mask(active_mask, game.num_users)
    return -float(total_generalized_interference(
        game.hypergraph, choices, active, jam_mask(jammed_channels, game.num_channels)))


def lexicographic_profiles(num_users: int, num_channels: int, start: int,
                           stop: int) -> np.ndarray:
    """Profiles start..stop-1 of range(num_channels)^num_users in lexicographic
    order (the last user varies fastest), as a (stop - start, num_users) array."""
    index = np.arange(start, stop, dtype=np.int64)
    place = num_channels ** np.arange(num_users - 1, -1, -1, dtype=np.int64)
    return index[:, None] // place % num_channels


def oracle_cells(num_users: int, num_channels: int) -> int:
    """Size of an exact oracle: M x M^N x N x M, the deviation cells of one
    follower enumeration per leader channel. The leader solve makes one
    enumeration, jammed on channel 0, but the measure stays, so the cap
    admits the same games."""
    return num_channels ** (num_users + 2) * num_users


def _block_rows(game: GameSpec) -> int:
    return max(1, _BLOCK_CELLS // (game.num_users * game.num_channels))


def _deviation_utilities(game: GameSpec, profiles: np.ndarray, jammed: np.ndarray,
                         active: np.ndarray) -> np.ndarray:
    """(K, N, M) tensor: [k, n, c] is user n's utility if it alone moves to
    channel c in profile k (0 for inactive users), under the checked (M,)
    bool jam mask jammed.

    user_utility is the cell [0, n, choices[n]] of a one-profile block, so
    every oracle value reads RateModel.deviation_rates or
    hypergraph.deviation_interference, through this one kernel.
    """
    if game.kind == "hypergraph":
        hits = deviation_interference(game.hypergraph, profiles, active, jammed)
        return np.where(active[:, None], -hits.astype(np.float64), 0.0)
    return game.rate_model.deviation_rates(profiles, active, jammed)


def _improves(best, own):
    """Whether a best deviation strictly improves on a user's own utility,
    by more than 1e-12: the one test of the NE check and of the dynamics."""
    return own < best - 1e-12


def _nash_rows(game: GameSpec, profiles: np.ndarray, jammed, active):
    """(nash, own): which profiles leave no active user a strictly improving
    deviation, and each user's utility at its own choice, (K, N)."""
    util = _deviation_utilities(game, profiles, jammed, active)
    own = np.take_along_axis(util, profiles[:, :, None], axis=2)[:, :, 0]
    return ~_improves(util.max(axis=2), own).any(axis=1), own


def _nash_blocks(game: GameSpec, jammed, active):
    """(equilibria, own utilities) of each lexicographic block of profiles.

    Blocks hold a few thousand (profile, user, channel) cells, so memory stays
    flat however many profiles there are. Games whose leader solve would
    value more than MAX_ORACLE_CELLS cells are refused before any block.
    """
    n, m = game.num_users, game.num_channels
    if oracle_cells(n, m) > MAX_ORACLE_CELLS:
        raise InstanceTooLargeError(
            f"exact oracle: {n} users on {m} channels is {oracle_cells(n, m)} "
            f"deviation cells, past the cap {MAX_ORACLE_CELLS}")
    step = _block_rows(game)
    for start in range(0, m ** n, step):
        block = lexicographic_profiles(n, m, start, min(start + step, m ** n))
        nash, own = _nash_rows(game, block, jammed, active)
        yield block[nash], own[nash]


def is_pure_nash(game: GameSpec, choices, jammed_channels=(),
                 active_mask=None) -> bool:
    """True iff no active user has a unilateral deviation that improves its
    utility by more than 1e-12."""
    choices = _as_choices(choices, game.num_users, game.num_channels)
    active = _as_mask(active_mask, game.num_users)
    jammed = jam_mask(jammed_channels, game.num_channels)
    nash, _ = _nash_rows(game, choices[None], jammed, active)
    return bool(nash[0])


def enumerate_pure_nash(game: GameSpec, jammed_channels=(),
                        active_mask=None) -> list:
    """Every pure NE assignment, lexicographically ordered (exhaustive)."""
    active = _as_mask(active_mask, game.num_users)
    jammed = jam_mask(jammed_channels, game.num_channels)
    return [profile for equilibria, _ in _nash_blocks(game, jammed, active)
            for profile in equilibria]


def _respond(game: GameSpec, profiles: np.ndarray, n: int, jammed, active) -> np.ndarray:
    """Best response of user n in every profile, in place; returns who moved.

    The user moves only on a strict improvement, to the lowest-index channel
    among the maximizers. Keeping the current channel on ties makes every
    pure equilibrium a fixpoint of the dynamics, and since any actual move
    then strictly improves the mover (hence the potential, when there is
    one), round-robin sweeps cannot cycle on a potential game.
    """
    row = _deviation_utilities(game, profiles, jammed, active)[:, n]
    own = row[np.arange(len(profiles)), profiles[:, n]]
    moved = _improves(row.max(axis=1), own)
    profiles[moved, n] = row[moved].argmax(axis=1)
    return moved


def best_response_lockstep(game: GameSpec, starts, jammed_channels=(),
                           active_mask=None, max_rounds: int = 500):
    """run_best_response from every row of starts (S, N) at once.

    Returns (finals, converged, rounds) arrays with one entry per start,
    each exactly what run_best_response returns for that start. Starts are
    swept in blocks; a start leaves its block as soon as it converges.
    """
    finals = _as_choices(starts, game.num_users, game.num_channels,
                         ndim=2).copy()
    active = _as_mask(active_mask, game.num_users)
    jammed = jam_mask(jammed_channels, game.num_channels)
    converged = np.zeros(len(finals), dtype=bool)
    rounds = np.full(len(finals), max_rounds)
    step = _block_rows(game)
    for start in range(0, len(finals), step):
        live = np.arange(start, min(start + step, len(finals)))
        for r in range(1, max_rounds + 1):
            if not live.size:
                break
            sweep = finals[live]
            changed = np.zeros(len(live), dtype=bool)
            for n in np.flatnonzero(active):
                changed |= _respond(game, sweep, n, jammed, active)
            finals[live] = sweep
            converged[live[~changed]] = True
            rounds[live[~changed]] = r
            live = live[changed]
    return finals, converged, rounds


def run_best_response(game: GameSpec, start, jammed_channels=(),
                      active_mask=None, max_rounds: int = 500):
    """Round-robin best-response sweeps until a full sweep changes nothing.

    Returns (assignment, converged, rounds). Hypergraph games always converge
    (exact potential); rate games may cycle, in which case converged is False
    after max_rounds sweeps.
    """
    start = _as_choices(start, game.num_users, game.num_channels)
    finals, converged, rounds = best_response_lockstep(
        game, start[None], jammed_channels, active_mask, max_rounds)
    return finals[0], bool(converged[0]), int(rounds[0])


@dataclass(frozen=True)
class StackelbergSolution:
    leader_channel: int
    follower_assignment: np.ndarray
    total_rate: float


def stackelberg_solve(game: GameSpec, active_mask=None) -> StackelbergSolution:
    """Leader commits to one jammed channel anticipating the followers' best NE.

    For each leader channel the followers are assumed to land on the pure NE
    with maximal total rate (lexicographically first on ties). The leader,
    whose utility is minus that total, picks the action minimizing it; ties go
    to the lowest channel. A game past MAX_ORACLE_CELLS raises
    InstanceTooLargeError before any enumeration, and one whose followers
    have no pure NE under any leader action raises RuntimeError.

    Channels are interchangeable (no channel index enters a gain): swapping
    channels 0 and c maps the follower game under a jam on 0 onto the one
    under a jam on c, equilibria and totals bit for bit. So every leader
    action leaves the followers the same best total, the tie rule picks
    channel 0, and the followers are enumerated once, jammed on 0. Channel
    c's best NE is the lexicographically first 0<->c swap of the profiles
    that tie for that total.
    """
    if game.kind != "stackelberg":
        raise UnsupportedOperationError(
            f"stackelberg_solve: defined for stackelberg games, not {game.kind!r}")
    active = _as_mask(active_mask, game.num_users)
    jam = np.arange(game.num_channels) == 0
    top, assignment = None, None
    for equilibria, own in _nash_blocks(game, jam, active):
        if not len(equilibria):
            continue
        # a user's own utility is its rate, so a row sum is the profile's
        # total rate; blocks and their rows come in lexicographic order
        totals = own.sum(axis=1)
        best = totals.argmax()
        if top is None or totals[best] > top:
            top, assignment = totals[best], equilibria[best]
    if top is None:
        raise RuntimeError(
            "stackelberg_solve: no leader action admits a pure follower equilibrium")
    return StackelbergSolution(leader_channel=0, follower_assignment=assignment,
                               total_rate=float(top))
