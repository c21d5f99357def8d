"""Command line entry points: run experiments, generate data, export folds."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .data import generate_synthetic, stratified_kfold, write_csv, write_partitions_csv
from .harness import build_dataset, parse_config, render_report, resolved_seeds, resolved_synth, run_experiment


def _load_config(args):
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _resolve_out_dir(cli_out: str | None, config_out: Path) -> Path:
    # CLI flag wins over the environment variable, which wins over the config.
    if cli_out is not None:
        return Path(cli_out)
    env_out = os.environ.get("CURRICULA_OUT")
    if env_out:
        return Path(env_out)
    return config_out


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    table = render_report(report, _resolve_out_dir(args.out, config.out_dir))
    print(table, end="")
    return 0


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    if config.synth is None:
        raise ValueError("gen-data needs a config with a 'data.synthetic' section")
    write_csv(generate_synthetic(resolved_synth(config)), args.out)
    return 0


def _cmd_folds(args) -> int:
    config = _load_config(args)
    dataset = build_dataset(config)
    partitions = stratified_kfold(dataset, config.k, config.val_fraction, resolved_seeds(config)["folds"])
    write_partitions_csv(partitions, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curricula",
        description="Curriculum-scheduled training of a three-class classifier with cross-validated reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text, out_help in (
        ("run", _cmd_run, "run the full (arms x folds) experiment and write the report",
         "output directory (overrides CURRICULA_OUT and the config)"),
        ("gen-data", _cmd_gen_data, "generate the synthetic dataset as CSV", "output CSV path"),
        ("folds", _cmd_folds, "export the cross-validation partitions as CSV", "output CSV path"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML experiment config")
        cmd.add_argument("--out", required=name != "run", help=out_help)
        cmd.add_argument("--seed", type=int, help="override the master seed")
        cmd.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
