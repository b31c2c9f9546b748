"""Per-slot network metrics, equilibrium bounds, and confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import _as_mask, jam_mask
from .errors import ConfigError
from .games import GameSpec, best_response_lockstep, lexicographic_profiles


def network_rate(rates, active) -> np.ndarray:
    """Sum of the active users' rates, per trial for rates (..., N).

    Each trial's sum adds its active rates in user order, as
    rates[active].sum() adds them: numpy splits a sum by its length, so a
    row that still holds its silent users' zeros would round differently.
    Where every user is active the rows are those sums already; otherwise
    the rows with k active users are summed together as (rows, k) arrays.
    """
    rates, active = np.asarray(rates, dtype=np.float64), np.asarray(active)
    if active.all():
        return rates.sum(axis=-1)
    n = rates.shape[-1]
    rows, on = rates.reshape(-1, n), active.reshape(-1, n)
    # each row's active rates first, in user order
    packed = np.take_along_axis(rows, np.argsort(~on, axis=1, kind="stable"), axis=1)
    counts = on.sum(axis=1)
    total = np.zeros(len(rows))
    for k in np.unique(counts[counts > 0]):
        same = counts == k
        total[same] = packed[same, :k].sum(axis=1)
    return total.reshape(rates.shape[:-1])[()]


def normalized_capacity(rate_sum, num_users: int, r_max: float):
    """A network sum rate (per trial) over the jam-free, interference-free
    ceiling num_users * r_max."""
    if r_max <= 0:
        raise ConfigError("normalized_capacity: r_max must be > 0")
    return rate_sum / (num_users * r_max)


@dataclass(frozen=True)
class NeBounds:
    """Best/worst converged network rate over repeated best-response runs."""
    best: float
    worst: float
    num_converged: int
    num_failed: int


def ne_bounds(game: GameSpec, jammed_channels=(), active_mask=None,
              num_trials: int = 200, rng=None, max_rounds: int = 500) -> NeBounds:
    """Run best-response dynamics from num_trials random starts, all in
    lockstep, and report the extreme converged network sum rates.

    When the whole profile space fits inside the trial budget, the first
    M^N starts are a shuffled enumeration of every assignment and only the
    remainder is drawn iid. The pure equilibria are exactly the fixpoints of
    the dynamics (is_pure_nash reads the same strict gain), so exhaustive
    starts make the returned bounds exactly the extreme equilibrium rates
    rather than a sampled estimate of them.

    Non-potential games can cycle; those trials are dropped and counted in
    num_failed. At least one trial must converge.
    """
    if num_trials < 1:
        raise ConfigError("ne_bounds: num_trials must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    n, m = game.num_users, game.num_channels
    active = _as_mask(active_mask, n)
    jammed = jam_mask(jammed_channels, m)
    starts = []
    if m ** n <= num_trials:
        grid = lexicographic_profiles(n, m, 0, m ** n)
        starts.extend(grid[rng.permutation(len(grid))])
    while len(starts) < num_trials:
        starts.append(rng.integers(0, m, size=n))
    finals, converged, _ = best_response_lockstep(game, starts, jammed, active,
                                                  max_rounds)
    failed = int(num_trials - converged.sum())
    if failed == num_trials:
        raise RuntimeError("ne_bounds: no best-response trial converged")
    # many starts land on the same equilibrium; value each one once
    values = [float(game.rate_model.rates(final, jammed, active).sum())
              for final in {tuple(f) for f in finals[converged].tolist()}]
    return NeBounds(best=max(values), worst=min(values),
                    num_converged=num_trials - failed, num_failed=failed)


def mean_ci(values) -> tuple:
    """Mean and 95% half-width (1.96 * sample std / sqrt(n); 0 when n < 2)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("mean_ci: need at least one value")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half
