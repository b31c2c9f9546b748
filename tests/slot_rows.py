"""Return-style calls of the write-into-rows protocol.

A leader's act(t, u, out) and a rule's select(u, out) write one slot into
the rows the slot loop hands them, rows of block arrays made by np.empty.
These helpers hand them stale rows instead, an all-True mask and all -1
picks, and return what was written, so that a test that checks the result
also checks that no stale entry leaks through.
"""

import numpy as np


def acted(leader, t, u, num_channels):
    """The (R, M) mask leader.act writes at slot t from the uniforms u."""
    out = np.ones((len(u), num_channels), dtype=bool)
    assert leader.act(t, u, out) is None
    return out


def selected(rule, u, num_users):
    """The (rows, N) channels rule.select writes from the uniforms u."""
    out = np.full((len(u), num_users), -1, dtype=np.int64)
    assert rule.select(u, out) is None
    return out
