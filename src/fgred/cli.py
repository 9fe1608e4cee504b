"""Command line interface.

Subcommands:
  analyze    run the full study: solve, measure redundancy, correlate, plot
             (--config, --seed, --out, --jobs, --log-level)
  report     rebuild summary.json and figures from an existing records.csv
             (--out, --log-level)

Log lines go to stderr. At the default level, WARNING, each failed
simulation is logged with its reason; DEBUG adds the library's debug lines.

Exit codes: 0 success, 1 invalid config or arguments, 2 I/O failure,
3 more than 20% of simulations failed.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import (
    MIN_VALID_FOR_CORRELATION,
    ExperimentConfig,
    correlation_report,
    emit_outputs,
    read_records_csv,
    run_experiment,
)

FAILED_FRACTION_LIMIT = 0.2
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_TOO_MANY_FAILURES = 3


def _load_config(path: str | None, seed: int | None) -> ExperimentConfig:
    if path is None:
        config = ExperimentConfig()
    else:
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise _IOFail(f"cannot read config {path}: {exc}") from exc
        try:
            config = ExperimentConfig.from_dict(json.loads(raw))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise ValueError(f"invalid config {path}: {exc}") from exc
    if seed is not None:
        config = replace(config, root_seed=seed)
    return config


class _IOFail(RuntimeError):
    pass


def _summarize(records) -> dict:
    """correlation_report, or bare counts with a note below its minimum."""
    n_valid = sum(1 for r in records if r.is_usable())
    if n_valid >= MIN_VALID_FOR_CORRELATION:
        return correlation_report(records)
    return {
        "n_records": len(records),
        "n_failed": sum(1 for r in records if r.failed),
        "n_valid": n_valid,
        "note": "too few usable records for correlation analysis",
    }


def _cmd_analyze(args) -> int:
    config = _load_config(args.config, args.seed)
    records = run_experiment(config, jobs=args.jobs)
    n_failed = sum(1 for r in records if r.failed)
    try:
        paths = emit_outputs(records, _summarize(records), args.out, config=config)
    except OSError as exc:
        raise _IOFail(str(exc)) from exc
    print(f"{len(records)} simulations, {n_failed} failed")
    for name, p in paths.items():
        print(f"  {name}: {p}")
    if n_failed > FAILED_FRACTION_LIMIT * len(records):
        print(
            f"error: {n_failed}/{len(records)} simulations failed "
            f"(> {FAILED_FRACTION_LIMIT:.0%})",
            file=sys.stderr,
        )
        return EXIT_TOO_MANY_FAILURES
    return EXIT_OK


def _cmd_report(args) -> int:
    records_path = Path(args.out) / "records.csv"
    try:
        records = read_records_csv(records_path)
    except OSError as exc:
        raise _IOFail(f"cannot read {records_path}: {exc}") from exc
    try:
        paths = emit_outputs(records, _summarize(records), args.out)
    except OSError as exc:
        raise _IOFail(str(exc)) from exc
    for name, p in paths.items():
        print(f"  {name}: {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgred",
        description="Redundancy metrics for linear Gaussian factor graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="run the redundancy vs error study")
    analyze.add_argument("--config", type=str, default=None, help="JSON config path")
    analyze.add_argument("--seed", type=int, default=None, help="override root seed")
    analyze.add_argument("--jobs", type=int, default=1, help="worker processes")
    analyze.set_defaults(func=_cmd_analyze)
    report = sub.add_parser("report", help="rebuild summary and figures from records.csv")
    report.set_defaults(func=_cmd_report)
    for p in (analyze, report):
        p.add_argument("--out", type=str, default="out", help="output directory")
        p.add_argument(
            "--log-level", default="WARNING", choices=LOG_LEVELS, help="least severe level logged"
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("fgred").setLevel(args.log_level)
    try:
        return args.func(args)
    except _IOFail as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
