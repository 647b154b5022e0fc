"""``tracecodes trace``: accuse codewords from one pirate word."""

from __future__ import annotations

import argparse

from .. import trace
from .common import (
    EXIT_OK,
    EXIT_VIOLATION,
    Outcome,
    _fields,
    _jsonable,
    _kv_lines,
    load_code,
    parse_word,
)


def run(args: argparse.Namespace) -> Outcome:
    code = load_code(args.file)
    word = parse_word(args.pirate, code.length, code.q)
    if args.scheme == "ta":
        if args.t is not None:
            raise ValueError("--t is taken only by the parent-set scheme")
        accusation = trace.trace_ta(code, word)
    else:
        if args.t is None:
            raise ValueError("--t is required for the parent-set scheme")
        accusation = trace.trace_ipp(code, word, args.t)
    fields = _jsonable(accusation)
    del fields["method"]  # named by the scheme
    report = {"scheme": args.scheme, "pirate": word, **fields}
    shown = _fields(report, "scheme", "pirate", "accused", "status", "min_distance")
    pairs = [(label, value) for label, value in shown if value is not None]
    if accusation.family_size is not None:
        pairs.append(("parent sets", accusation.family_size))
    return EXIT_OK if accusation.status == "ok" else EXIT_VIOLATION, report, _kv_lines(pairs)
