"""What every ``repro`` verb shares: exit statuses, the JSON printer,
the refused-combination table, and signal handling.

A verb module (``repro.cli.<verb>``) defines ``HELP``, ``RULES``,
``add_arguments(parser)`` and ``main(args) -> int``.  ``RULES`` is the
verb's one table of option combinations it refuses: its ``--help``
lists it, :func:`check_rules` enforces it before the verb runs, and the
error names both options (also in the ``--json`` error envelope,
``repro-error-v1``).  A combination only some values refuse (``repro
top``'s ``--preset`` beside a bench artifact) is refused by the verb's
``main`` with the same error.  ``tests/test_cli_rules.py`` runs every
other pair of ``repro run``'s and ``repro chaos``'s options and checks
that each option is honoured; the other verbs' pairs are not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import textwrap
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError, ReproError

#: Exit status of a run interrupted but resumable from a checkpoint, or
#: a bench campaign the trace cache finishes when run again
#: (EX_TEMPFAIL: "try again later").
EXIT_RESUMABLE = 75
#: Exit status of a chaos sweep whose runs completed but diverged from
#: the golden digests (distinct from 1 = crashed case, 2 = usage/error).
EXIT_DIVERGED = 3
#: The MLSim model a verb replays under when no ``--preset`` is named.
DEFAULT_PRESET = "ap1000+"


@dataclass(frozen=True)
class Rule:
    """``option`` is refused together with any of ``others`` or, when
    ``requires``, without the one of ``others``; never when ``unless``
    is given too."""

    option: str
    others: tuple[str, ...]
    reason: str
    requires: bool = False
    unless: str | None = None

    def describe(self) -> str:
        joiner = " without " if self.requires else " with "
        text = self.option + joiner + " / ".join(self.others)
        return text + (f" (unless {self.unless})" if self.unless else "")


#: ``bench run``, ``check`` and ``ingest`` each take a trace cache.
CACHE_RULE = Rule("--cache-dir", ("--no-cache",),
                  "--no-cache never touches the cache the directory would "
                  "hold")


class Refused(ConfigurationError):
    """Options that do not go together; ``options`` names them as typed."""

    def __init__(self, message: str, options: tuple[str, ...]) -> None:
        super().__init__(message)
        self.options = options


def print_json(doc: dict[str, Any]) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def error_exit(args: argparse.Namespace, exc: ReproError) -> int:
    """Report a simulator-domain failure (trace buffer overflow,
    deadlock, communication timeout, refused options...) as one line,
    not a traceback; under ``--json`` also as a document on stdout."""
    print(f"repro: error: {exc}", file=sys.stderr)
    if getattr(args, "json", False):
        print_json({"schema": "repro-error-v1", "error": type(exc).__name__,
                    "message": str(exc),
                    "options": list(getattr(exc, "options", ()))})
    return 2


def epilog(rules: Sequence[Rule]) -> str | None:
    """The help text's list of refused combinations."""
    if not rules:
        return None
    return "refused combinations:\n" + "\n".join(
        textwrap.fill(f"{rule.describe()}: {rule.reason}", 79,
                      initial_indent="  ", subsequent_indent="      ",
                      break_on_hyphens=False)
        for rule in rules)


def options_of(parser: argparse.ArgumentParser
               ) -> dict[str, argparse.Action]:
    """Each option string (a positional by its metavar) -> its action."""
    return {name: action for action in parser._actions
            for name in action.option_strings or [action.metavar
                                                  or action.dest]}


def given(args: argparse.Namespace, action: argparse.Action) -> bool:
    value = getattr(args, action.dest, None)
    return value is not False and value not in (None, [], action.default)


def check_rules(args: argparse.Namespace, parser: argparse.ArgumentParser,
                rules: Sequence[Rule]) -> None:
    """Raise :class:`Refused` for the first rule ``args`` breaks."""
    named = {name for name, action in options_of(parser).items()
             if given(args, action)}
    for rule in rules:
        if rule.option not in named or rule.unless in named:
            continue
        if rule.requires:
            if rule.others[0] not in named:
                raise Refused(f"{rule.describe()}: {rule.reason}",
                              (rule.option, rule.others[0]))
            continue
        for other in rule.others:
            if other in named:
                raise Refused(f"{rule.option} with {other}: {rule.reason}",
                              (rule.option, other))


def command_line(args: argparse.Namespace, parser: argparse.ArgumentParser,
                 *, drop: Sequence[str] = ()) -> list[str]:
    """The command ``args`` was parsed from, minus the options ``drop``
    (the argv a resume command repeats)."""
    argv = parser.prog.split()
    for action in parser._actions:
        if not given(args, action):
            continue
        if action.option_strings and action.option_strings[-1] in drop:
            continue
        value = getattr(args, action.dest)
        values = value if isinstance(value, list) else [value]
        if action.option_strings:
            argv.append(action.option_strings[-1])
            if action.nargs == 0:
                continue
        argv.extend(str(item) for item in values)
    return argv


@contextlib.contextmanager
def on_signals(handler: Callable[[int, Any], None], *signums: int,
               once: bool = False) -> Iterator[None]:
    """Install ``handler`` for ``signums`` inside the block.  ``once``
    puts the previous handlers back at the first signal, so a second one
    takes the default path (a kill).  Off the main thread it does
    nothing."""
    previous: dict[int, Any] = {}

    def restore() -> None:
        for sig, old in previous.items():
            with contextlib.suppress(ValueError, TypeError):
                signal.signal(sig, old)

    def first(signum: int, frame: Any) -> None:
        restore()
        handler(signum, frame)

    with contextlib.suppress(ValueError):
        for sig in signums:
            previous[sig] = signal.signal(sig, first if once else handler)
    try:
        yield
    finally:
        restore()
