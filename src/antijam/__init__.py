"""Game-theoretic learning simulations for anti-jamming channel selection."""

from .config import load_config
from .games import GameSpec, enumerate_pure_nash, stackelberg_solve
from .metrics import ne_bounds
from .presets import get_preset

__version__ = "0.1.0"
