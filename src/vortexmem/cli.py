"""Command-line entry point: parse the flags, load the config, run the
scenario, write its files and print the stdout table.

Exit codes: 0 on success, 2 for a config error, 3 for an i/o error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (SCENARIOS, ConfigError, ExperimentConfig, config_from_dict, config_to_dict,
                     default_config)
from .pipeline import run
from .text import _summary, emit

# the benchmark (bench/workloads.py) reaches these, with config_to_dict,
# default_config, load_config and main, through vortexmem.cli; every other
# name is imported from its own module
from .pipeline import detection_records, propagate  # noqa: F401
from .text import COUNT_RECORD_COLUMNS, read_count_records  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexmem",
        description="Simulate storage and retrieval of structured-polarization "
                    "beams in a dual-rail atomic memory.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="scenario name (overrides the config file)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    return parser


def load_config(config_path: Path | None, scenario: str | None,
                seed: int | None) -> ExperimentConfig:
    raw: dict = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
    name = scenario or raw.get("scenario")
    if name is None:
        raise ConfigError("scenario: give --scenario or a config file with one")
    base = config_to_dict(default_config(name))
    base.update(raw)
    base["scenario"] = name
    if seed is not None:
        base["seed"] = seed
    return config_from_dict(base)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.scenario, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    try:
        report = run(cfg)
        written = emit(report, args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    text = "".join(f"wrote {path}\n" for path in written)
    if report.table is not None:
        text += _summary(report.table)
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
