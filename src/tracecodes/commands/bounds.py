"""``tracecodes bounds``: the closed-form size caps at (N, q, t)."""

from __future__ import annotations

import argparse

from .. import bounds, core
from .common import EXIT_OK, Outcome, _jsonable, _kv_lines, _table_lines


def run(args: argparse.Namespace) -> Outcome:
    report_obj = bounds.bound_report(args.N, args.q, args.t, evaluate_symbolic=args.evaluate)
    report = {"N": args.N, "q": args.q, "t": args.t, "bounds": report_obj.entries}
    status = None
    if args.q == 2 and args.t >= 3:
        status = bounds.binary_fp_status(args.N, args.t)
        fields = _jsonable(status)
        del fields["t"], fields["N"]  # the report's own
        report["binary_fp_status"] = fields

    lines = [f"bounds at N={args.N} q={args.q} t={args.t}", ""]
    with core.any_int_length():  # exact integers are written out in full
        # One column per entry field, in declaration order.
        lines += _table_lines(list(bounds.BoundEntry._fields), report_obj.entries)
        if status is not None:
            lines.append("")
            lines += _kv_lines(
                [
                    ("size cap guaranteed", status.guaranteed),
                    ("reason", status.reason),
                    ("cap can break from length (classical)", status.binomial_lower),
                    ("cap can break from length (quadratic)", status.quadratic_lower),
                    ("cap can break from length (conjectured)", status.conjectured),
                ]
            )
    return EXIT_OK, report, lines
