"""Jammer behaviors: fixed, random, sweep, comb, and reactive channel patterns.

A pattern checks its channels once, when built; jammer_action emits its set
of jammed channels per slot. ScriptedJammers is the jammer side of a markov or
hypergraph run: it plays several patterns together, jams the union of their
sets as one (M,) bool channel mask, and remembers what a reactive pattern hears.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import _as_choices, uniform_channels
from .errors import ConfigError

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


def jammer_action(pattern: JammerPattern, t: int, last_assignment=None,
                  u: float | None = None) -> frozenset:
    """Channel set jammed at slot t; the pattern checked its own channels.

    The random kind jams the uniform u's channel. The reactive kind jams the
    channel most used in last_assignment, the channels of the users that
    transmitted in the previous slot (lowest index on ties); each heard entry
    must be an integer channel in range(num_channels). It falls back to u's
    channel when it heard nobody: in the first slot, or after a slot in
    which every user was silent.
    """
    if t < 0:
        raise ConfigError("jammer_action: t must be >= 0")
    m = pattern.num_channels
    if pattern.kind == "fixed":
        return frozenset({pattern.fixed_channel})
    if pattern.kind == "comb":
        return frozenset(pattern.comb_set)
    if pattern.kind == "sweep":
        return frozenset({(pattern.start_channel + t // pattern.dwell) % m})
    if pattern.kind == "reactive" and last_assignment is not None and len(last_assignment):
        heard = _as_choices(last_assignment, len(last_assignment), m,
                            where="jammer_action: heard channels")
        return frozenset({int(np.bincount(heard, minlength=m).argmax())})
    # random, or reactive with nobody heard
    if u is None:
        raise ConfigError(f"jammer_action: {pattern.kind} kind needs a uniform draw")
    return frozenset({int(uniform_channels(u, m))})


class ScriptedJammers:
    """Scripted patterns as one slot-loop leader: act(t, rng) masks the union
    of the patterns' sets, drawing one uniform for each random or reactive
    pattern every slot, read or not, and observe keeps the channels of the
    users that transmitted, all a reactive pattern hears."""

    def __init__(self, patterns, num_channels: int):
        self.patterns = tuple(patterns)
        self.num_channels = num_channels
        self.last_heard = None
        self._draws = sum(p.kind in _DRAWING_KINDS for p in self.patterns)

    def act(self, t: int, rng: np.random.Generator) -> np.ndarray:
        mask = np.zeros(self.num_channels, dtype=bool)
        draws = iter(rng.random(self._draws))
        for p in self.patterns:
            u = next(draws) if p.kind in _DRAWING_KINDS else None
            mask[list(jammer_action(p, t, self.last_heard, u))] = True
        return mask

    def observe(self, choices, active, rates) -> None:
        self.last_heard = choices[active]
