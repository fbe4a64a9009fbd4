"""Command-line entry point.

Subcommands mirror the experiment kinds; `plot` turns existing CSVs into
a static matplotlib script.  Each entry of ``harness.SETTINGS`` but `kind`
is a flag (`n_cell` is `--n-cell`), read by ``harness.parse_setting``, and
flags override values from --config; the HOMOKIN_OUT environment variable
supplies the default output directory.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    KINDS,
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    default_out_dir,
    emit_plot_script,
    parse_config_file,
    parse_setting,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homokin",
        description="oscillatory kinetic models, their memory kernels, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} pipeline")
        p.add_argument("--config", help="INI config file (flags override it)")
        for key, (_, text) in SETTINGS.items():
            if key != "kind":  # the subcommand
                p.add_argument("--" + key.replace("_", "-"), help=text)

    plot = sub.add_parser("plot", help="emit a plotting script from CSV artifacts")
    plot.add_argument("csvs", nargs="+", help="CSV files to draw")
    plot.add_argument("--out", default="plot_figure.py", help="script path to write")
    return parser


def config_from_args(args) -> ExperimentConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    overrides.pop("kind", None)  # the subcommand always wins
    for key in SETTINGS:
        text = getattr(args, key, None)
        if text is not None:
            field, value = parse_setting(key, text, key)
            overrides[field] = value
    overrides.setdefault("out_dir", default_out_dir())
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
