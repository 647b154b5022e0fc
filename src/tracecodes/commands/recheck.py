"""``tracecodes recheck``: replay an emitted witness by the definitions."""

from __future__ import annotations

import argparse

from .. import core, recheck
from .common import (
    _PROPERTIES,
    EXIT_OK,
    EXIT_VIOLATION,
    FileFormatError,
    Outcome,
    _fields,
    _kv_lines,
    _read_json,
)


def run(args: argparse.Namespace) -> Outcome:
    core.require_strength(args.t)
    data = _read_json(args.witness)
    if isinstance(data, dict) and isinstance(data.get("witness"), dict):
        data = data["witness"]
    if not isinstance(data, dict):
        raise FileFormatError("witness document must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in recheck.KINDS:
        raise FileFormatError(f"unknown witness kind {kind!r}")
    selected = _PROPERTIES[args.property]
    subject = selected.load(args.file)
    prop = args.property.upper()
    if kind != selected.witness:
        # Only the kind ``verify`` emits for the property is confirmed.
        problems = [f"{prop} witnesses are {selected.witness}, not {kind}"]
    else:
        problems = recheck.recheck_witness(data, subject, args.t)
    report = {"property": prop, "t": args.t, "confirmed": not problems, "problems": problems}
    pairs = _fields(report, "property", "t", "confirmed") + [("problem", p) for p in problems]
    return EXIT_OK if not problems else EXIT_VIOLATION, report, _kv_lines(pairs)
