"""Self-test of the benchmark: every workload once, untraced and traced.

    python3 perfbench/selftest.py                   # tiny runs, ~1 minute

Runs run.py at tiny scale for each workload in BENCHMARK.json with --trace 0
and --trace 1, prints every metric per workload with its unit, and fails
unless each run exits 0, reports correct outputs with failed_frac == 0, and
reports exactly the metrics BENCHMARK.json names for its mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 2.0


def check_missing_target() -> list:
    """A hook whose target is gone is skipped with a warning, not fatal."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(("runner.no_such_function", "env.NoSuchClass.rates",
                    "env.RateModel.rates"))
    tracer.uninstall()
    if tracer.missing != ["runner.no_such_function", "env.NoSuchClass.rates"] \
            or "env.RateModel.rates.calls" not in tracer.snapshot():
        return [f"tracer: missing targets handled wrongly: {tracer.missing}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = check_missing_target()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                     "--seconds", str(SECONDS),
                                     "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{where}: attempted {result['attempted']}, "
                  f"failed_frac {result['failed'] / result['attempted']:.6g}")
            for name, metric in result["metrics"].items():
                print(f"  {name} {metric['value']:.6g} {metric['unit']}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: outputs failed their checks\n{proc.stderr}")
            missing = [m for m in expected[trace] if m not in result["metrics"]]
            extra = [m for m in result["metrics"] if m not in expected[trace]]
            if missing or extra:
                problems.append(f"{where}: missing metrics {missing}, "
                                f"unexpected metrics {extra}")
            wrong_unit = [m for m, unit in expected[trace].items()
                          if m in result["metrics"]
                          and result["metrics"][m]["unit"] != unit]
            if wrong_unit:
                problems.append(f"{where}: metrics with another unit than "
                                f"BENCHMARK.json's: {wrong_unit}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
