"""Command line entry points: run experiments, generate data, export folds."""

from __future__ import annotations

import argparse
import sys

from ._checks import file_path
from .data import generate_synthetic, stratified_kfold, write_csv, write_partitions_csv
from .harness import build_dataset, parse_config, render_report, resolved_seeds, run_experiment


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    out_dir = config.out_dir if args.out is None else file_path(args.out, "--out")
    print(render_report(run_experiment(config), out_dir), end="")
    return 0


def _cmd_gen_data(args) -> int:
    config = parse_config(args.config)
    if config.synth is None:
        raise ValueError("gen-data needs a config with a 'data.synthetic' section")
    write_csv(generate_synthetic(config.synth, resolved_seeds(config)["data"]), file_path(args.out, "--out"))
    return 0


def _cmd_folds(args) -> int:
    config = parse_config(args.config)
    dataset = build_dataset(config)
    partitions = stratified_kfold(dataset, config.k, config.val_fraction, resolved_seeds(config)["folds"])
    write_partitions_csv(partitions, file_path(args.out, "--out"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curricula",
        description="Curriculum-scheduled training of a three-class classifier with cross-validated reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text, out_help in (
        ("run", _cmd_run, "run the full (arms x folds) experiment and write the report",
         "output directory (overrides the config's out_dir)"),
        ("gen-data", _cmd_gen_data, "generate the synthetic dataset as CSV", "output CSV path"),
        ("folds", _cmd_folds, "export the cross-validation partitions as CSV", "output CSV path"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML experiment config")
        cmd.add_argument("--out", required=name != "run", help=out_help)
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
