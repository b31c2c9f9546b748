"""Time bundled presets through run_scenario, with no output files, one fresh
interpreter per sample; optionally against a parent checkout, in alternation.

    python3 tools/bench_presets.py [--runs 5] [--preset fig3-stackelberg ...]
    python3 tools/bench_presets.py --parent ../parent-checkout --runs 5
    python3 tools/bench_presets.py --preset fig5-hypergraph \
        --override '{"active_probability": 0.6}'

Run from anywhere. Each sample is a subprocess that imports the package from a
checkout's ./src, loads one preset at its own size and times CHILD_RUNS
run_scenario calls of it; the result is the fastest one's wall time per
algorithm x trial x slot (the oracle of a stackelberg preset included), as
perfbench's run_s is the fastest of its timed runs, and the child's peak
resident set size (ru_maxrss, imports included) and a sha256 of the last
run's outputs: its summary rows, then its trial values' bytes in sorted
order, as perfbench's digest takes them. With --parent, the samples
of a preset alternate between the parent's sources and this checkout's, the
parent first in odd pairs and second in even ones, so that both sides see the
same spells of host load. Prints one JSON object: the host context, then per
preset and side the µs per unit of every sample with their minimum, quartiles
and median (as perfbench reports its timed runs), the peak RSS in MB of every
sample with their median, the distinct output digests and, with --parent,
whether every sample of both sides gave one digest (`outputs_equal`), how many
pairs this checkout ran faster and whether that resolves a gain
(`resolved_gain`): faster in at least 9 of 10 pairs, ties counting for
neither, and a median gap larger than the parent samples' interquartile range;
`resolved_loss` is its mirror, slower in at least 9 of 10 pairs and a median
above the parent's by more than that range.
--override merges a JSON object into every
timed preset's document, its keys replacing the preset's. Unknown preset
names exit 2 with the known ones before anything runs; a run that fails
exits 1 with its side, its preset and its own stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run_scenario calls each child times, of which it reports the fastest.
CHILD_RUNS = 3

CHILD = """
import hashlib, json, resource, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
import antijam
from antijam.runner import run_scenario
config = antijam.load_config(dict(antijam.get_preset(sys.argv[2]),
                                  **json.loads(sys.argv[3])))
walls = []
for _ in range(int(sys.argv[4])):
    start = time.perf_counter()
    result = run_scenario(config)
    walls.append(time.perf_counter() - start)
digest = hashlib.sha256()
for row in result.summary_rows:
    digest.update(repr(row).encode("utf-8"))
for algo in sorted(result.trial_values):
    for key in sorted(result.trial_values[algo]):
        digest.update(np.asarray(result.trial_values[algo][key],
                                 dtype=np.float64).tobytes())
print(min(walls) * 1e6 / (len(config.algorithms) * config.trials * config.slots),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, digest.hexdigest())
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path,
                        help="a source checkout to time against, in alternation")
    parser.add_argument("--runs", type=int, default=5,
                        help="samples per preset and side (default 5)")
    parser.add_argument("--preset", action="append", dest="presets",
                        help="a preset to time (default: every preset)")
    parser.add_argument("--override", type=json.loads, default={},
                        help="a JSON object merged into every preset's document")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not isinstance(args.override, dict):
        parser.error("--override must be a JSON object")
    if args.parent is not None and not (args.parent / "src" / "antijam").is_dir():
        parser.error(f"--parent: no antijam sources under {args.parent / 'src'}")
    from antijam.presets import preset_names

    unknown = sorted(set(args.presets or ()) - set(preset_names()))
    if unknown:
        parser.error(f"--preset: unknown {', '.join(unknown)}; known presets: "
                     f"{', '.join(preset_names())}")
    return args


def _measure(checkout: Path, preset: str, override: dict) -> tuple:
    """One child's (µs per unit of its fastest run, peak RSS in MB, output
    digest)."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), preset,
         json.dumps(override), str(CHILD_RUNS)],
        capture_output=True, text=True, check=True)
    us, rss_mb, digest = proc.stdout.strip().splitlines()[-1].split()
    return float(us), float(rss_mb), digest


def _summary(runs) -> dict:
    values, rss = [us for us, _, _ in runs], [mb for _, mb, _ in runs]
    out = {"us_per_unit": [round(v, 3) for v in values], "n": len(values),
           "min": round(min(values), 3), "median": round(statistics.median(values), 3)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=round(q1, 3), q3=round(q3, 3))
    out.update(peak_rss_mb=[round(mb, 1) for mb in rss],
               peak_rss_mb_median=round(statistics.median(rss), 1),
               digests=sorted({digest for _, _, digest in runs}))
    return out


def resolved_gain(parent, change) -> bool:
    """Whether the change's samples (lower is better) resolve a gain over
    the parent's, pair by pair: faster in at least 9 of 10 pairs, and the
    medians apart by more than the distance between the parent's quartiles.
    Fewer than two pairs have no quartiles, and resolve nothing."""
    if len(parent) < 2:
        return False
    faster = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return (10 * faster >= 9 * len(parent)
            and statistics.median(parent) - statistics.median(change) > q3 - q1)


def resolved_loss(parent, change) -> bool:
    """Whether the change's samples (lower is better) resolve a loss, the
    mirror of resolved_gain: slower in at least 9 of 10 pairs, and the
    change's median above the parent's by more than the parent's IQR."""
    return resolved_gain([-p for p in parent], [-c for c in change])


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)
    import numpy

    from antijam.presets import preset_names

    sides = {"change": ROOT}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), "change": ROOT}
    host = {"nproc": os.cpu_count(), "loadavg_before": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "child_runs": CHILD_RUNS,
            "checkouts": {side: str(path) for side, path in sides.items()},
            "override": args.override}
    presets = {}
    for name in args.presets or preset_names():
        samples = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                try:
                    samples[side].append(_measure(sides[side], name,
                                                  args.override))
                except subprocess.CalledProcessError as exc:
                    print(f"bench_presets: the {side} run of {name} failed "
                          f"(exit {exc.returncode}); its stderr:\n{exc.stderr}",
                          file=sys.stderr)
                    return 1
        presets[name] = {side: _summary(runs) for side, runs in samples.items()}
        if args.parent is not None:
            parent, change = ([us for us, _, _ in samples[side]]
                              for side in ("parent", "change"))
            presets[name]["outputs_equal"] = len(
                {digest for runs in samples.values() for _, _, digest in runs}) == 1
            presets[name]["change_faster_pairs"] = sum(
                c < p for p, c in zip(parent, change))
            presets[name]["resolved_gain"] = resolved_gain(parent, change)
            presets[name]["resolved_loss"] = resolved_loss(parent, change)
    host["loadavg_after"] = list(os.getloadavg())
    print(json.dumps({"host": host, "presets": presets}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
