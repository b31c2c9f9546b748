"""Time every bundled preset through run_scenario, with no output files.

    python3 tools/bench_presets.py

Run from anywhere; the package is imported from the checkout's ./src. Each
preset runs at its own size, best of REPEATS, and the result is its wall time
per algorithm x trial x slot (the oracle of a stackelberg preset included).
Prints one JSON object: the host context, then per preset the units, the best
run's seconds and µs per unit.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import antijam  # noqa: E402
from antijam.presets import preset_names  # noqa: E402
from antijam.runner import run_scenario  # noqa: E402

REPEATS = 2


def main() -> None:
    host = {"nproc": os.cpu_count(), "loadavg_before": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}
    presets = {}
    for name in preset_names():
        config = antijam.load_config(antijam.get_preset(name))
        units = len(config.algorithms) * config.trials * config.slots
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            run_scenario(config)
            best = min(best, time.perf_counter() - start)
        presets[name] = {"units": units, "run_s": round(best, 3),
                         "us_per_unit": round(best / units * 1e6, 2)}
    host["loadavg_after"] = list(os.getloadavg())
    print(json.dumps({"host": host, "presets": presets}, indent=2))


if __name__ == "__main__":
    main()
