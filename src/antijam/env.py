"""Wireless world: node geometry, link gains, SINR rates.

Distances are meters, powers are mW, rates are bits/s/Hz (Shannon capacity over
unit bandwidth). Channels are interchangeable in the physics: a channel index
never enters a gain, so relabeling channels relabels nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RadioParams:
    """Radio-layer constants shared by every node.

    jam_power may be 0 (a degenerate jammer that radiates nothing); every
    other power must be strictly positive.
    """

    num_channels: int
    tx_power: float = 1.0
    jam_power: float = 1.0
    noise_floor: float = 1e-2
    pathloss_exponent: float = 2.0
    min_distance: float = 1.0

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise ConfigError("num_channels: must be >= 1")
        if self.tx_power <= 0:
            raise ConfigError("tx_power: must be > 0")
        if self.jam_power < 0:
            raise ConfigError("jam_power: must be >= 0")
        if self.noise_floor <= 0:
            raise ConfigError("noise_floor: must be > 0")
        if self.pathloss_exponent < 0:
            raise ConfigError("pathloss_exponent: must be >= 0")
        if self.min_distance <= 0:
            raise ConfigError("min_distance: must be > 0")


class NodeGeometry:
    """Transmitter/receiver positions for each user pair, plus jammer positions."""

    def __init__(self, user_pairs: Sequence, jammer_positions: Sequence = ()) -> None:
        pairs = np.asarray(user_pairs, dtype=float)
        if pairs.ndim != 3 or pairs.shape[1:] != (2, 2):
            raise ConfigError("user_pairs: expected shape (N, 2, 2) of (tx, rx) points")
        if pairs.shape[0] == 0:
            raise ConfigError("user_pairs: must be non-empty")
        jammers = np.asarray(jammer_positions, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pairs)) or not np.all(np.isfinite(jammers)):
            raise ConfigError("geometry: all coordinates must be finite")
        self.tx = pairs[:, 0, :].copy()
        self.rx = pairs[:, 1, :].copy()
        self.jammers = jammers.copy()

    @property
    def num_users(self) -> int:
        return self.tx.shape[0]

    @property
    def num_jammers(self) -> int:
        return self.jammers.shape[0]


def jam_mask(jammed, num_channels: int, trials: tuple = ()) -> np.ndarray:
    """The jammed channels as a bool mask over the last axis.

    A numpy array is taken to be a mask already and passes through once its
    dtype and its shape, trials + (M,), are checked; any other collection is
    one set of channel indices, each an integer in range(num_channels), and
    becomes an (M,) mask that holds for every trial.
    """
    if isinstance(jammed, np.ndarray):
        shape = (*trials, num_channels)
        if jammed.dtype != bool or jammed.shape != shape:
            raise ConfigError(f"jammed channels: a mask must be a bool array of "
                              f"shape {shape}, got {jammed.dtype} "
                              f"{jammed.shape}")
        return jammed
    mask = np.zeros(num_channels, dtype=bool)
    for c in jammed:
        # a bool is no channel index: a list of bools is a mask gone astray
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) \
                or not 0 <= c < num_channels:
            raise ConfigError(f"jammed channels: {c!r} is not a channel in "
                              f"range({num_channels})")
        mask[c] = True
    return mask


def _as_array(value, where: str) -> np.ndarray:
    """np.asarray(value), with a ragged nesting a ConfigError that names where."""
    try:
        return np.asarray(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: ragged entries, got {value!r}") from exc


def _as_choices(choices, num_users: int, num_channels: int,
                ndim: int | None = 1) -> np.ndarray:
    """Channel choices as int64: ndim axes (None: one or more), the last one
    entry per user, each an integer in range(num_channels); anything else is
    a ConfigError. A fraction is no channel, nor is a bool, even in a list
    of ints that numpy would read as one."""
    arr = _as_array(choices, "assignment")
    if arr.dtype.kind not in "iu" or not isinstance(choices, np.ndarray) and any(
            isinstance(c, (bool, np.bool_))
            for c in np.asarray(choices, dtype=object).flat):
        raise ConfigError(f"assignment: entries must be integer channels, got "
                          f"{choices!r}")
    if (arr.ndim < 1 if ndim is None else arr.ndim != ndim) \
            or arr.shape[-1] != num_users:
        raise ConfigError(f"assignment: expected {num_users} entries per "
                          f"profile, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_channels):
        raise ConfigError("assignment: channel index out of range")
    return arr.astype(np.int64, copy=False)


def _as_mask(active_mask, num_users: int, trials: tuple = ()) -> np.ndarray:
    """The trials + (N,) bool activity mask, bools only; None means all are
    active."""
    shape = (*trials, num_users)
    if active_mask is None:
        return np.ones(shape, dtype=bool)
    mask = _as_array(active_mask, "active_mask")
    if mask.dtype != bool or mask.shape != shape:
        raise ConfigError(f"active_mask: expected bools of shape {shape}, got "
                          f"{mask.dtype} {mask.shape}")
    return mask


def _at_own_channel(values, choices) -> np.ndarray:
    """values (..., N, K) read at each user's entry of choices (..., N)."""
    rows = values.reshape(-1, values.shape[-1])
    return rows[np.arange(len(rows)), choices.reshape(-1)].reshape(choices.shape)


def uniform_channels(u, num_channels):
    """The channel each uniform u in [0, 1) picks: min(int(u*M), M-1)."""
    return np.minimum((np.asarray(u) * num_channels).astype(np.int64), num_channels - 1)


def link_gain(from_position, to_position, params: RadioParams) -> float:
    """Path-loss gain max(d, min_distance)^(-alpha) between two points."""
    d = math.dist(tuple(from_position), tuple(to_position))
    return max(d, params.min_distance) ** (-params.pathloss_exponent)


class RateModel:
    """Precomputed link budget for one geometry; evaluates per-user Shannon rates.

    gain[m, n] is the path gain from user m's transmitter to user n's receiver;
    jam_gain[k, n] from jammer k to user n's receiver. Precomputing these keeps
    the per-slot rate evaluation to a handful of small vector ops.
    """

    def __init__(self, geometry: NodeGeometry, params: RadioParams) -> None:
        self.geometry = geometry
        self.params = params
        n = geometry.num_users
        self.gain = np.empty((n, n))
        for m in range(n):
            for j in range(n):
                self.gain[m, j] = link_gain(geometry.tx[m], geometry.rx[j], params)
        self.own_gain = np.diag(self.gain).copy()
        self.jam_gain = np.empty((geometry.num_jammers, n))
        for k in range(geometry.num_jammers):
            for j in range(n):
                self.jam_gain[k, j] = link_gain(geometry.jammers[k], geometry.rx[j], params)
        # Total jam power arriving at each receiver when its channel is jammed.
        self.jam_at_rx = params.jam_power * self.jam_gain.sum(axis=0)
        # a receiver's own transmitter is no interference to it
        self._cross_gain = self.gain.copy()
        np.fill_diagonal(self._cross_gain, 0.0)
        self._channels = np.arange(params.num_channels)[:, None]
        self._signal = params.tx_power * self.own_gain[:, None]

    @property
    def num_users(self) -> int:
        return self.geometry.num_users

    def rates(self, choices, jammed_channels, active_mask) -> np.ndarray:
        """Per-user achievable rates for one slot of one or more trials.

        choices are (..., N) channels, with the same leading trial axes as
        active_mask and a jam mask; each input is checked once per call,
        whatever the number of trials. Inactive users radiate nothing and
        receive a rate of 0. A user hears jamming power iff its own channel
        is jammed; jammed_channels is a channel set or a (..., M) bool mask
        (see jam_mask). These are deviation_rates read at each user's own
        channel.
        """
        m = self.params.num_channels
        choices = _as_choices(choices, self.num_users, m, ndim=None)
        trials = choices.shape[:-1]
        active = _as_mask(active_mask, self.num_users, trials)
        rates = self.deviation_rates(choices, active,
                                     jam_mask(jammed_channels, m, trials))
        return _at_own_channel(rates, choices)

    def deviation_rates(self, profiles, active, jammed) -> np.ndarray:
        """(..., N, M): [..., n, c] is user n's rate if it alone moves to
        channel c in the int64 profiles (..., N), 0 if n is inactive in the
        bool mask active, under the bool jam mask jammed; active (N,) or
        (..., N) and jammed (M,) or (..., M) hold for every profile or for
        each. einsum adds the transmitters one at a time in order, as the
        tests' scalar rates do; a BLAS product may not, and would round
        differently."""
        p = self.params
        on = ((profiles[..., None, :] == self._channels)
              & active[..., None, :]).astype(float)
        heard = np.einsum("...ct,tn->...nc", on, self._cross_gain)
        denom = (p.noise_floor + p.tx_power * heard
                 + np.where(jammed[..., None, :], self.jam_at_rx[:, None], 0.0))
        sinr = self._signal / denom
        return np.where(active[..., None], np.log2(1.0 + sinr), 0.0)


def max_single_user_rate(model: RateModel) -> float:
    """Interference-free rate of the best own link; the r_max normalizer."""
    p = model.params
    return float(np.log2(1.0 + p.tx_power * model.own_gain.max() / p.noise_floor))
