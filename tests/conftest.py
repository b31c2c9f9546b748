"""Shared test set-up: one deterministic hypothesis profile for the suite.

derandomize draws the same examples on every run, so a failure reproduces
from the commit alone, and no example database is kept between runs. There
is no per-example deadline: a slow spell of a shared host can stretch one
example past any fixed limit without the code being at fault.
"""

from hypothesis import settings

settings.register_profile("antijam", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("antijam")
