"""The ``tracecodes`` command: its parser, dispatch and exit codes.

Exit codes
----------
0    success / property holds
1    property fails (witness emitted) / witness did not re-verify
2    usage error (bad flags or parameters)
3    malformed input file
4    search budget exhausted before an answer
5    internal error (an unexpected exception; its traceback goes to stderr)
141  stdout was closed before the report was written (the shell's code for
     a process that SIGPIPE ends; no traceback is printed)

Reports
-------
``--format text`` renders aligned tables; ``--format machine`` emits one
JSON document tagged ``"schema": "tracecodes/1"``, which fixes field names
and values but not key order.  Infinite distances read ``"inf"``; integers
are written out in full, of any length.  Seeds always surface in reports;
the fallback is a fixed constant, never the clock.  A witness file is a
``verify`` report or a bare witness object of a known ``kind``, and
``recheck --property P`` confirms only the kind ``verify --property P``
emits.  File formats are set out in ``commands.common``, the search cache
in ``commands.search``.

``main`` runs the module of ``tracecodes.commands`` named after the
subcommand, so a process compiles this module, ``commands.common``, its
handler and the library the handler runs.  ``python -m tracecodes.cli``
runs this file as ``__main__``, so no module may import ``tracecodes.cli``:
it would be compiled and run again.  Names that moved out resolve on first
use (PEP 562).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Any, Sequence

from . import core
from .commands.common import (
    _PROPERTIES,
    EXIT_BAD_FILE,
    EXIT_BUDGET,
    EXIT_CLOSED_STDOUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SCHEMA,
    FileFormatError,
    _jsonable,
    parse_code_text,
    parse_family_text,
    parse_word,
    render_code_text,
    render_family_text,
)

__all__ = [
    "EXIT_BAD_FILE",
    "EXIT_BUDGET",
    "EXIT_CLOSED_STDOUT",
    "EXIT_INTERNAL",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VIOLATION",
    "FileFormatError",
    "SCHEMA",
    "console_entry",
    "main",
    "parse_code_text",
    "parse_family_text",
    "parse_word",
    "recheck_witness",
    "render_code_text",
    "render_family_text",
    "witness_to_json",
]

#: The module each name that moved out of this one lives in, under ``tracecodes``.
_MOVED = {"witness_to_json": "commands.verify", "recheck_witness": "recheck"}


def __getattr__(name: str) -> Any:
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MOVED[name]}", __package__), name)


def _emit(args: argparse.Namespace, report: dict, text_lines: list[str]) -> None:
    """Print the report; exact integers of any length render in full."""
    with core.any_int_length():
        if args.format == "machine":
            import json  # a text report does without it

            print(json.dumps(_jsonable(report), indent=2, sort_keys=False))
        else:
            print("\n".join(text_lines))
    sys.stdout.flush()  # a closed stdout fails here, not at exit


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "machine"), default="text", help="report rendering"
    )

    parser = argparse.ArgumentParser(
        prog="tracecodes",
        description="Verify, trace, bound, transform and search collusion-resistant codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="check a property, emit a witness on failure")
    p.add_argument("--property", choices=_PROPERTIES, required=True)
    p.add_argument("--t", type=int, required=True, help="coalition size bound")
    p.add_argument("file")

    p = sub.add_parser("trace", parents=[common], help="accuse codewords from a pirate word")
    p.add_argument("--scheme", choices=("ta", "ipp"), required=True)
    p.add_argument("--t", type=int, help="coalition size bound (parent-set scheme)")
    p.add_argument("--pirate", required=True, help="word, e.g. 0110 or 0,1,1,0")
    p.add_argument("file")

    p = sub.add_parser("bounds", parents=[common], help="closed-form size caps at (N, q, t)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--evaluate", action="store_true", help="multiply symbolic entries out")

    p = sub.add_parser("transform", parents=[common], help="rewrite codes and families")
    p.add_argument(
        "--op",
        required=True,
        help="double | tocode | restrict=IDX | pad=R | compose=A | prune | violate | strip",
    )
    p.add_argument("--t", type=int, help="coalition size bound (prune/violate/strip)")
    p.add_argument("file")

    p = sub.add_parser("search", parents=[common], help="exhaustive extremal search")
    p.add_argument("--property", choices=_PROPERTIES, required=True)
    p.add_argument("--N", type=int, help="length (ground size for cff)")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, required=True)
    decide = p.add_mutually_exclusive_group()
    decide.add_argument("--goal", type=int, help="decide: does a code of this size exist?")
    decide.add_argument(
        "--decide-exceeds-N",
        action="store_true",
        help="decide: does some code beat N words?",
    )
    p.add_argument(
        "--budget", type=int, help="cap on candidate tests (nodes); exhaustion exits 4"
    )
    p.add_argument("--min-length", action="store_true", help="scan lengths for the first excess")
    p.add_argument("--start-length", type=int, help="first length of --min-length (default 1)")
    p.add_argument("--max-length", type=int, help="last length of --min-length (default 16)")

    p = sub.add_parser("simulate", parents=[common], help="forge pirates, trace them, tally rates")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--strategy", choices=core.STRATEGY_KINDS, default="interleave")
    p.add_argument("--seed", type=int, help="master seed (fixed default when omitted)")
    p.add_argument("file")

    p = sub.add_parser("recheck", parents=[common], help="re-verify an emitted witness")
    p.add_argument("--property", choices=_PROPERTIES, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--witness", required=True, help="JSON report or bare witness object")
    p.add_argument("file")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler = import_module(f".commands.{args.command}", __package__)
        status, fields, text_lines = handler.run(args)
        _emit(args, {"schema": SCHEMA, "command": args.command, **fields}, text_lines)
        return status
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except (core.DescendantSetTooLarge, ValueError, MemoryError, OverflowError) as exc:
        # A huge size parameter fails in the allocator; MemoryError carries no message.
        print(f"error: {str(exc) or 'instance too large for memory'}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader has gone.  What is left in stdout's buffer goes to the
        # null device, so that the flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except Exception:
        # A defect, not a verdict: keep it apart from exit 1 ("property fails").
        # Imported here so that no run that works pays for the import.
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
