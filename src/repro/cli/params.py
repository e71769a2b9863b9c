"""``repro params``: print a preset as a Figure 6 parameter file."""

from __future__ import annotations

import argparse
import sys

from repro.mlsim.params import PRESETS, format_params, preset

HELP = "print a parameter file (Figure 6)"
RULES = ()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("preset", choices=sorted(PRESETS))


def main(args: argparse.Namespace) -> int:
    sys.stdout.write(format_params(preset(args.preset)))
    return 0
