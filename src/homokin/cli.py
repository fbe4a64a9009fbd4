"""Command-line entry point.

Subcommands mirror the experiment kinds; `plot` turns existing CSVs into
a static matplotlib script.  Flags override values from --config; the
HOMOKIN_OUT environment variable supplies the default output directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .harness import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    default_out_dir,
    emit_plot_script,
    parse_config_file,
    parse_epsilons,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homokin",
        description="oscillatory kinetic models, their memory kernels, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file (flags override it)")
        p.add_argument("--preset", help="preset id (example number or named preset)")
        p.add_argument("--placement", choices=["inside", "outside"])
        p.add_argument("--init-mode", choices=["oscillatory", "profile"], dest="init_mode")
        p.add_argument("--eps", help="comma-separated sweep values, decreasing")
        p.add_argument("--out", help="output directory (default $HOMOKIN_OUT or .)")
        p.add_argument(
            "--workers", type=int, help="accepted for older configs; runs nothing in parallel"
        )
        p.add_argument("--seed", type=int, help="accepted for older configs; seeds nothing")
        for name in ("n-cell", "n-e", "n-omega", "n-r", "n-y"):
            p.add_argument(f"--{name}", type=int, dest=name.replace("-", "_"))

    for kind in KINDS:
        add_common(sub.add_parser(kind, help=f"run the {kind} pipeline"))

    plot = sub.add_parser("plot", help="emit a plotting script from CSV artifacts")
    plot.add_argument("csvs", nargs="+", help="CSV files to draw")
    plot.add_argument("--out", default="plot_figure.py", help="script path to write")
    return parser


def config_from_args(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    if args.preset is not None:
        overrides["preset"] = args.preset
    if args.placement is not None:
        overrides["placement"] = args.placement
    if args.init_mode is not None:
        overrides["init_mode"] = args.init_mode
    if args.eps is not None:
        overrides["epsilons"] = parse_epsilons(args.eps)
    if args.out is not None:
        overrides["out_dir"] = args.out
    for name in ("workers", "seed", "n_cell", "n_e", "n_omega", "n_r", "n_y"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    overrides.setdefault("out_dir", default_out_dir())
    overrides.pop("kind", None)  # the subcommand always wins
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration key")
    return ExperimentConfig(kind=args.command, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plot":
        try:
            emit_plot_script(args.csvs, args.out)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
        return 0
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    if result.status != 0:
        print(f"error: {result.message}", file=sys.stderr)
    else:
        for name in sorted(result.files):
            print(f"wrote {result.files[name]}")
    return result.status


if __name__ == "__main__":
    sys.exit(main())
