"""Command-line scenario runner.

Runs one scenario (a built-in preset or a YAML file), writes the per-tick
CSV and a JSON metrics summary into the output directory.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import PRESETS, ConfigError, ScenarioConfig, resolve_scenario
from .runner import run_scenario, summarize_run

CSV_NAME = "timeseries.csv"
SUMMARY_NAME = "summary.json"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptfollow",
        description=(
            "Deterministic closed-loop simulation of a monocular pan-tilt "
            "person-following controller."
        ),
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help=f"preset name ({', '.join(PRESETS)}) or path to a scenario YAML file",
    )
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument(
        "--duration", type=float, default=None, help="override the run duration, seconds"
    )
    parser.add_argument(
        "--dt", type=float, default=None, help="override the control period, seconds"
    )
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="write only the metrics summary, skip the CSV",
    )
    return parser


def apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    """Replace the config fields whose override flag was given."""
    updates = {key: getattr(args, key) for key in ("seed", "duration", "dt")}
    updates = {key: value for key, value in updates.items() if value is not None}
    return dataclasses.replace(config, **updates) if updates else config


def run(config: ScenarioConfig, out_dir: str | Path, summary_only: bool = False) -> dict:
    """Execute a scenario and write its output files.

    Returns a dict with the paths written and the summary values.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = run_scenario(config)
    summary = summarize_run(config, log).to_dict()

    paths = {}
    if not summary_only:
        csv_path = out / CSV_NAME
        log.write_csv(csv_path)
        paths["csv"] = str(csv_path)
    summary_path = out / SUMMARY_NAME
    # strict JSON: NaN (a channel that never settles) is written as null
    strict = {k: None if v != v else v for k, v in summary.items()}
    with open(summary_path, "w") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)
        fh.write("\n")
    paths["summary"] = str(summary_path)
    return {"paths": paths, "summary": summary, "ticks": len(log)}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_scenario(args.scenario)
        config = apply_overrides(config, args)
    except ConfigError as exc:
        print(f"ptfollow: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run(config, args.out, summary_only=args.summary_only)
    except OSError as exc:
        print(f"ptfollow: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # scenario execution failure
        print(f"ptfollow: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    written = ", ".join(result["paths"].values())
    print(f"{config.name}: {result['ticks']} ticks -> {written}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
