"""Command line front end: ``sparsecomm <command> --config <path>``.

Every command is driven by a config file; ``--seed`` and ``--out``
override the file's values.  The config grammar and each command's keys
are documented in docs/config-schema.md, with annotated examples under
configs/.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecomm",
        description=(
            "Experiment harness for communication-constrained sparse mean "
            "estimation and sparsified distributed SGD."
        ),
        epilog=(
            "Config schema: docs/config-schema.md; annotated examples: configs/. "
            "Exit codes: 0 ok, 2 config error, 3 precondition error, 4 runtime error."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="<command>")
    for command, entry in harness.COMMANDS.items():
        name = re.sub(r"(?<!^)(?=[A-Z])", "-", command).lower()  # SweepRisk -> sweep-risk
        cmd = sub.add_parser(name, help=entry.summary, description=entry.summary)
        cmd.add_argument("--config", required=True, help="path to the experiment config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the CSV output path")
        cmd.set_defaults(command=command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return harness.EXIT_CONFIG
    return harness.run(args.config, command=args.command, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
