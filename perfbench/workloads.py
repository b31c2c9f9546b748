"""The benchmark's workloads: inputs made from a seed, one run, output checks.

Each workload builds a config document from the seed, and the program sees
only that document. `run` is the timed part. `check` reads the outputs after
the clock stops and returns (digest, errors). The digest identifies the run's
output bytes; equal seeds must give equal digests within one checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

import antijam
import antijam.cli
import antijam.runner

SLOT_METRICS = ("rate_sum", "rate_mean_active", "normalized_capacity",
                "any_user_jammed")


def _check_summary_values(rows, errors: list) -> None:
    for _, algo, metric, mean, half, _ in rows:
        if not (math.isfinite(mean) and math.isfinite(half)):
            errors.append(f"summary {algo}/{metric} is not finite")
        elif metric.endswith(("normalized_capacity", "any_user_jammed")) \
                and not 0.0 <= mean <= 1.0:
            errors.append(f"summary {algo}/{metric} = {mean} is outside [0, 1]")


def units(document: dict) -> int:
    """Algorithm x trial x slot count of one run: the unit of `slot_us`."""
    return len(document["algorithms"]) * document["trials"] * document["slots"]


class MarkovSweepCsv:
    """The fig4-sweep preset through the CLI, writing per_slot.csv."""

    name = "markov-sweep-csv"

    def document(self, seed: int, scale: str) -> dict:
        doc = antijam.get_preset("fig4-sweep")
        doc["seed"] = seed
        doc["trials"] = 2 if scale == "full" else 1
        if scale == "tiny":
            doc["slots"] = 200
        return doc

    def run(self, document: dict, out_dir: str):
        argv = ["run", "--preset", document["name"],
                "--seed", str(document["seed"]),
                "--trials", str(document["trials"]),
                "--slots", str(document["slots"]),
                "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = antijam.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"antijam run exited with code {code}")
        return None

    def check(self, document: dict, result, out_dir: str):
        errors = []
        digest = hashlib.sha256()
        summary_path = os.path.join(out_dir, "summary.csv")
        with open(summary_path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        rows = []
        for line in data.decode("utf-8").splitlines()[1:]:
            s, a, m, mean, half, n = line.split(",")
            rows.append((s, a, m, float(mean), float(half), int(n)))
        _check_summary_values(rows, errors)

        slot_path = os.path.join(out_dir, "per_slot.csv")
        count = 0
        with open(slot_path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            for raw in fh:
                digest.update(raw)
                count += 1
                metric, value = raw.rsplit(b",", 2)[1:]
                value = float(value)
                if not math.isfinite(value):
                    errors.append(f"per_slot value {value} is not finite")
                elif metric == b"normalized_capacity" and not 0.0 <= value <= 1.0:
                    errors.append(f"normalized_capacity {value} is outside [0, 1]")
                elif metric == b"any_user_jammed" and value not in (0.0, 1.0):
                    errors.append(f"any_user_jammed {value} is not 0 or 1")
                if len(errors) > 10:
                    break
        expected = units(document) * len(SLOT_METRICS)
        if count != expected and len(errors) <= 10:
            errors.append(f"per_slot.csv has {count} rows, expected {expected}")
        return digest.hexdigest(), errors


def _check_result(result, errors: list):
    digest = hashlib.sha256()
    for row in result.summary_rows:
        digest.update(repr(row).encode("utf-8"))
    _check_summary_values(result.summary_rows, errors)
    for algo in sorted(result.trial_values):
        for key in sorted(result.trial_values[algo]):
            values = np.asarray(result.trial_values[algo][key], dtype=np.float64)
            digest.update(values.tobytes())
            if not np.isfinite(values).all():
                errors.append(f"trial values {algo}/{key} are not finite")
            elif key.endswith(("normalized_capacity", "any_user_jammed")) \
                    and ((values < 0.0) | (values > 1.0)).any():
                errors.append(f"trial values {algo}/{key} are outside [0, 1]")
    return digest


class HypergraphSlaMem:
    """The fig5-hypergraph preset through run_scenario, with no output files."""

    name = "hypergraph-sla-mem"

    def document(self, seed: int, scale: str) -> dict:
        doc = antijam.get_preset("fig5-hypergraph")
        doc["seed"] = seed
        doc["trials"] = 1
        if scale == "tiny":
            doc["slots"] = 250
        return doc

    def run(self, document: dict, out_dir: str):
        return antijam.runner.run_scenario(antijam.load_config(document))

    def check(self, document: dict, result, out_dir: str):
        errors = []
        digest = _check_result(result, errors)
        return digest.hexdigest(), errors


class StackelbergOracle:
    """A 6-user, 4-channel stackelberg scenario: the exact oracle dominates.

    Users sit on a jittered ring and the jammer near its centre, all drawn
    from the seed. The jitter is kept small so every seed gives the oracle a
    similar amount of work, and run-to-run spread stays a property of the
    program, not of the geometry a seed happens to draw.
    """

    name = "stackelberg-oracle"

    def document(self, seed: int, scale: str) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 61)))
        users, channels = (6, 4) if scale == "full" else (4, 3)
        pairs = []
        for i in range(users):
            angle = 2.0 * math.pi * i / users + rng.uniform(-0.1, 0.1)
            radius = 10.0 + rng.uniform(-0.5, 0.5)
            tx = [radius * math.cos(angle), radius * math.sin(angle)]
            rx = [(radius + 1.0) * math.cos(angle), (radius + 1.0) * math.sin(angle)]
            pairs.append([tx, rx])
        jammer = [float(x) for x in rng.uniform(-1.0, 1.0, size=2)]
        return {
            "scenario": "stackelberg",
            "name": "stackelberg-oracle",
            "num_users": users,
            "num_channels": channels,
            "slots": 200 if scale == "full" else 50,
            "trials": 2 if scale == "full" else 1,
            "seed": seed,
            "geometry": {"layout": "explicit", "user_pairs": pairs,
                         "jammer_positions": [jammer]},
            "algorithms": ["hierarchical", "random"],
        }

    def run(self, document: dict, out_dir: str):
        return antijam.runner.run_scenario(antijam.load_config(document))

    def check(self, document: dict, result, out_dir: str):
        errors = []
        digest = _check_result(result, errors)
        oracle = result.oracle
        for key in sorted(oracle):
            digest.update(f"{key}={oracle[key]!r}\n".encode("utf-8"))
        if not oracle["worst_ne_rate"] <= oracle["best_ne_rate"]:
            errors.append(f"oracle worst_ne_rate {oracle['worst_ne_rate']} > "
                          f"best_ne_rate {oracle['best_ne_rate']}")
        if not oracle["ne_trials_converged"] >= 1:
            errors.append("oracle: no best-response trial converged")
        return digest.hexdigest(), errors


WORKLOADS = {w.name: w for w in (MarkovSweepCsv(), HypergraphSlaMem(),
                                 StackelbergOracle())}
