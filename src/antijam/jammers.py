"""Jammer behaviors: fixed, random, sweep, comb, and reactive channel patterns.

A pattern checks its channels once, when built. ScriptedJammers is the
jammer side of a markov or hypergraph run, a per-run schedule for a block of
trials: the fixed, comb and sweep patterns depend on the slot alone, so their
union is one (period, M) bool table built once from jammer_action, their
channel set in one slot, and read at t % period; the random and reactive
patterns add one channel per trial each slot, from a uniform or from what
the pattern heard. The slot's union is one (T, M) bool channel mask, written
into the row of the block's jam masks that the slot loop hands act.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import uniform_channels
from .errors import ConfigError, UnsupportedOperationError

KINDS = ("fixed", "random", "sweep", "comb", "reactive")
_DRAWING_KINDS = ("random", "reactive")


@dataclass(frozen=True)
class JammerPattern:
    kind: str
    num_channels: int
    fixed_channel: int = 0
    comb_set: tuple | None = None
    dwell: int = 1
    start_channel: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        m, comb = self.num_channels, self.comb_set
        if comb is None:  # a comb jams every other channel, floor(M/2) teeth
            comb = range(0, m, 2)[: m // 2] if self.kind == "comb" else ()
        object.__setattr__(self, "comb_set", tuple(sorted(int(c) for c in comb)))
        if self.kind == "comb" and not self.comb_set:
            raise ConfigError("comb_set: must be non-empty for comb jammers")
        if self.dwell < 1:
            raise ConfigError("dwell: must be >= 1")
        for c in (self.fixed_channel, self.start_channel, *self.comb_set):
            if not 0 <= c < m:
                raise ConfigError(f"channel {c}: not in range({m})")


def jammer_action(pattern: JammerPattern, t: int) -> frozenset:
    """Channel set a static pattern (fixed, comb or sweep) jams at slot t.

    The random and reactive picks draw per trial, and ScriptedJammers.act
    owns them; they raise UnsupportedOperationError here.
    """
    if t < 0:
        raise ConfigError("jammer_action: t must be >= 0")
    if pattern.kind == "fixed":
        return frozenset({pattern.fixed_channel})
    if pattern.kind == "comb":
        return frozenset(pattern.comb_set)
    if pattern.kind == "sweep":
        return frozenset({(pattern.start_channel + t // pattern.dwell)
                          % pattern.num_channels})
    raise UnsupportedOperationError(f"jammer_action: {pattern.kind} patterns draw per trial")


class ScriptedJammers:
    """Scripted patterns as one slot-loop leader for num_trials trials.

    act(t, u, out) writes the slot's (T, M) mask into out: the static
    patterns' table row t % period in every trial, the period being the lcm
    of the sweeps' M x dwell (no rows past the run's slots), plus one
    channel per trial for each random or reactive pattern, from one uniform
    of u each, read or not. A reactive pattern jams the channel most used
    by the active users its trial heard in the previous slot, lowest index
    on ties, or the uniform's when it heard nobody.
    """

    def __init__(self, patterns, num_trials: int, num_channels: int, slots: int):
        static = [p for p in patterns if p.kind not in _DRAWING_KINDS]
        self.period = math.lcm(*(p.num_channels * p.dwell for p in static
                                 if p.kind == "sweep"))
        self.table = np.zeros((min(self.period, slots), num_channels), dtype=bool)
        for t, row in enumerate(self.table):
            for p in static:
                row[list(jammer_action(p, t))] = True
        self._drawing = [p.kind for p in patterns if p.kind in _DRAWING_KINDS]
        self.draws = len(self._drawing)
        self.heard = np.zeros((num_trials, num_channels), dtype=np.int64)
        self.rows = num_trials
        self._trials = np.arange(num_trials)

    def act(self, t: int, u, out) -> None:
        out[...] = self.table[t % self.period]
        for j, kind in enumerate(self._drawing):
            pick = uniform_channels(u[:, j], out.shape[-1])
            if kind == "reactive":
                pick = np.where(self.heard.any(axis=-1), self.heard.argmax(axis=-1),
                                pick)
            out[self._trials, pick] = True

    def rates_due(self, t: int) -> bool:
        """Never: the reactive pick hears channels only."""
        return False

    def observe(self, choices, active, rates) -> None:
        """Count each trial's active users on each channel, if anyone hears."""
        if "reactive" in self._drawing:
            on = (choices[..., None] == np.arange(self.heard.shape[-1])) \
                & active[..., None]
            self.heard = on.sum(axis=-2)
