"""Command-line entry: ``python -m repro.eval <target> [options]``.

Every target is a subcommand declared beside the code it fronts: each
module in :data:`COMMANDS` has a ``register(sub)`` that adds its
subparser(s) — with only the options that target reads — and binds
``run(args) -> int``.  ``python -m repro.eval --help`` lists the targets,
``python -m repro.eval <target> --help`` a target's options.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

#: modules that own a subcommand, in ``--help`` order
COMMANDS = (
    "repro.eval.tables",
    "repro.eval.spacetime",
    "repro.eval.phases",
    "repro.eval.ablations",
    "repro.eval.diffstats",
    "repro.eval.chaos",
    "repro.check.targets",
    "repro.eval.cost",
    "repro.eval.fuzz",
    "repro.eval.procbench",
    "repro.isets.profile",
    "repro.compile.serve",
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m repro.eval")
    sub = ap.add_subparsers(dest="target", required=True, metavar="target")
    for module in COMMANDS:
        import_module(module).register(sub)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
