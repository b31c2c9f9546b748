"""Command line harness.

    antijam run --preset fig4-sweep --out runs/sweep
    antijam run --config scenario.json --seed 7 --trials 10
    antijam presets list
    antijam validate --config scenario.json

Exit codes: 0 success, 2 configuration problem, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, read_document
from .errors import ConfigError
from .presets import get_preset, preset_description, preset_names
from .runner import run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antijam",
        description="Seeded anti-jamming channel selection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write CSV results")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a scenario JSON document")
    src.add_argument("--preset", help="name of a bundled scenario")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--trials", type=int, help="override the trial count")
    run.add_argument("--slots", type=int, help="override the slot count")
    run.add_argument("--out", help="output directory (default: the config's "
                     "output_dir, else runs/<name>)")

    presets = sub.add_parser("presets", help="inspect bundled scenarios")
    presets.add_argument("action", choices=["list"])

    val = sub.add_parser("validate", help="check a scenario document")
    val.add_argument("--config", required=True, help="path to a scenario JSON document")
    return parser


def _cmd_run(args) -> int:
    document = get_preset(args.preset) if args.preset else read_document(args.config)
    for key in ("seed", "trials", "slots"):
        value = getattr(args, key)
        if value is not None:
            document[key] = value
    config = load_config(document)
    out = args.out if args.out is not None else config.output_dir
    if out is None:
        out = f"runs/{config.name}"
    result = run_scenario(config, out_dir=out)
    print(f"{config.name}: {config.trials} trials x {config.slots} slots, "
          f"seed {config.seed}")
    for scenario, algo, metric, mean, half, trials in result.summary_rows:
        print(f"  {algo:>14s}  {metric:<28s} {mean:.6g} +- {half:.3g} ({trials})")
    print(f"results in {result.output_dir}")
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name:<18s} {preset_description(name)}")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(read_document(args.config))
    print(f"ok: {config.name} ({config.scenario}, {config.num_users} users, "
          f"{config.num_channels} channels, {config.trials} trials x "
          f"{config.slots} slots)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "presets": _cmd_presets, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
