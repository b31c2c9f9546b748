"""antijam benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload markov-sweep-csv --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload stackelberg-oracle --seed 1 --seconds 35 --trace 1

Run from the root of a source checkout; the package is imported from ./src.
Workloads are defined in workloads.py and the tracer in tracer.py.

With --trace 0 the run prints the end-to-end metrics: the fastest wall and CPU
seconds of the timed runs, the same wall time per algorithm x trial x slot,
the median set-up time of fresh interpreters, and the process's peak RSS.
The median and quartiles of the timed runs are comment lines.
With --trace 1 it alternates untraced runs with runs that hook every layer,
and prints per-layer calls, self and total seconds, and the tracing overhead.
Every run's outputs are checked, and repeated runs of one seed must give the
same output digest. Comment lines (`# ...`) carry the host context, the
digest and a readable copy of the metrics; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# Fewest fresh interpreters timed for setup_s in one run.
SETUP_SAMPLES = 7

SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import antijam, antijam.cli, antijam.runner
antijam.load_config(json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""

E2E_UNITS = {"run_s": "s", "slot_us": "us", "run_cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's run size")
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host_context(antijam, numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "antijam": antijam.__version__,
        "commit": _git_commit(),
    }


class Runner:
    """Runs one workload repeatedly and checks each run's outputs."""

    def __init__(self, workload, document, units: int):
        self.workload = workload
        self.document = document
        self.units = units
        self.out_dir = str(WORK_DIR / f"run-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.result = None

    def once(self):
        """One checked run; returns (wall s, cpu s) or None when it failed."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.result = None
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = self.workload.run(self.document, self.out_dir)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            digest, errors = self.workload.check(self.document, result, self.out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            print(f"# run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append(f"output digest {digest} differs from the first "
                          f"run's {self.reference} for the same seed")
        if errors:
            for error in errors:
                print(f"# check failed: {error}", file=sys.stderr)
            self.failed += 1
            return None
        self.result = result
        return wall, cpu

    def csv_bytes(self) -> int:
        path = os.path.join(self.out_dir, "per_slot.csv")
        return os.path.getsize(path) if os.path.isfile(path) else 0

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _setup_once(document: dict) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(document)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} min={min(values):.6g} q1={q1:.6g} "
            f"median={q2:.6g} q3={q3:.6g}")


def end_to_end(runner: Runner, seconds: float) -> dict:
    # The first fresh interpreter may compile bytecode and the process's first
    # run is cold (lazy imports, first allocations); neither is timed, and the
    # run is checked.
    _setup_once(runner.document)
    if runner.once() is None:
        return {}
    # One set-up sample follows each timed run, so that the samples spread
    # over the whole window rather than over one few-second phase of the host.
    samples, setups = [], []
    start = time.perf_counter()
    while True:
        sample = runner.once()
        if sample is None:
            break
        samples.append(sample)
        setups.append(_setup_once(runner.document))
        elapsed = time.perf_counter() - start
        if len(samples) >= 3 and elapsed * (1 + 1 / len(samples)) > seconds:
            break
    if len(samples) < 3:
        return {}
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_once(runner.document))
    walls = [w for w, _ in samples]
    cpus = [c for _, c in samples]
    # On a shared host other tenants slow runs down, by up to 2x, for seconds
    # to minutes; nothing makes a run faster than the program allows. The
    # median of a 35 s window depends on how many slow spells fell in it:
    # over ten seeds on a 2-vCPU VM its IQR/median was 0.18 on
    # markov-sweep-csv and hypergraph-sla-mem, where the fastest run's was
    # 0.07-0.08. Scaling by a fixed kernel timed beside the runs did not
    # help: the kernel and the runs were not slowed alike.
    run_s = min(walls)
    print(f"# run_s over timed runs: {_quartiles(walls)}")
    print(f"# run_cpu_s over timed runs: {_quartiles(cpus)}")
    print(f"# setup_s over fresh interpreters: {_quartiles(setups)}")
    return {
        "run_s": run_s,
        "slot_us": run_s * 1e6 / runner.units,
        "run_cpu_s": min(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics and their units; a mismatch in counts fails a run.

    Untraced and traced runs alternate, so that each traced run's overhead is
    taken against an untraced run made under the same host load. Hooks are
    installed only around the traced runs.
    """
    tracer = Tracer()
    pairs, per_run = [], []
    # A cold first run would bias its pair's overhead; check it, do not time it.
    if runner.once() is None:
        return {}, {}
    start = time.perf_counter()
    while True:
        untraced = runner.once()
        if untraced is None:
            break
        tracer.reset()
        tracer.install()
        try:
            traced = runner.once()
        finally:
            tracer.uninstall()
        if traced is None:
            break
        pairs.append((untraced[0], traced[0]))
        per_run.append(_layer_snapshot(tracer, runner))
        elapsed = time.perf_counter() - start
        if len(pairs) >= 2 and elapsed * (1 + 1 / len(pairs)) > seconds:
            break
    if len(pairs) < 2:
        return {}, {}

    counts = [k for k in per_run[0] if k.endswith(".calls")] \
        + ["runner.per_slot_csv.bytes"]
    for snap in per_run[1:]:
        differing = [k for k in counts if snap[k] != per_run[0][k]]
        if differing:
            print(f"# check failed: traced runs of one seed disagree on "
                  f"{', '.join(differing)}", file=sys.stderr)
            runner.failed += 1

    metrics, units = {}, {}
    for key in per_run[0]:
        values = [snap[key] for snap in per_run]
        metrics[key] = values[0] if key in counts else statistics.median(values)
        units[key] = _layer_unit(key)
    metrics["bench.trace_overhead"] = statistics.median(t / u for u, t in pairs) - 1.0
    units["bench.trace_overhead"] = "ratio"
    # Only the stackelberg scenario runs the oracle, and the result line must
    # hold the same metrics on every workload, so the oracle's useful-work
    # ratio is a comment line, not a metric.
    oracle = getattr(runner.result, "oracle", None)
    if oracle:
        from antijam.runner import NE_BOUND_TRIALS
        print(f"# metrics.ne_bounds.converged_ratio "
              f"{oracle['ne_trials_converged'] / NE_BOUND_TRIALS:.6g} ratio")
    print(f"# untraced run_s: {_quartiles([u for u, _ in pairs])}")
    print(f"# traced run_s: {_quartiles([t for _, t in pairs])}")
    return metrics, units


def _layer_snapshot(tracer: Tracer, runner: Runner) -> dict:
    snap = tracer.snapshot()
    csv_bytes = runner.csv_bytes()
    emit_s = snap.get("runner.run_scenario.self_s", 0.0)
    snap["runner.per_slot_csv.bytes"] = csv_bytes
    snap["runner.emit_mb_per_s"] = csv_bytes / 1e6 / emit_s if emit_s > 0 else 0.0
    return snap


def _layer_unit(key: str) -> str:
    if key.endswith((".calls", ".bytes")):
        return "count"
    if key.endswith("mb_per_s"):
        return "MB/s"
    if key.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "antijam" / "__init__.py").is_file():
        print(f"error: no antijam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import antijam
    from workloads import WORKLOADS, units

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    host = _host_context(antijam, numpy)
    workload = WORKLOADS[args.workload]
    document = workload.document(args.seed, args.scale)
    runner = Runner(workload, document, units(document))
    try:
        if args.trace:
            metrics, metric_units = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
            metric_units = E2E_UNITS
    finally:
        runner.close()
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    host["loadavg_after"] = list(os.getloadavg())

    correct = runner.failed == 0 and bool(metrics)
    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}: output digest {runner.reference}")
    print(f"# failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} runs)")
    for key, value in metrics.items():
        print(f"# {key} {value:.6g} {metric_units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": metric_units[key]}
                    for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
