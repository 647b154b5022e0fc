"""``tracecodes simulate``: forge pirate words, trace them, tally the rates."""

from __future__ import annotations

import argparse

from .. import trace
from .common import EXIT_OK, Outcome, _fields, _jsonable, _kv_lines, _table_lines, load_code


def run(args: argparse.Namespace) -> Outcome:
    code = load_code(args.file)
    strategy = trace.PirateStrategy(args.strategy)
    rep = trace.simulate_tracing(code, args.t, args.trials, strategy, args.seed)

    report = {
        **_jsonable(rep),
        "strategy": rep.strategy.kind,  # by name; the report's seed is the one used
    }
    lines = _kv_lines(_fields(report, "trials", "t", "strategy", "seed"))
    lines.append("")
    headers = ["method", *(label for label, _ in _fields(report["ta"]))]
    rows = [[method.upper(), *report[method].values()] for method in ("ta", "ipp")]
    lines += _table_lines(headers, rows)
    return EXIT_OK, report, lines
