"""``tracecodes verify``: run a property's checker, report the first witness."""

from __future__ import annotations

import argparse

from .. import verify
from ..core import Code, SetFamily
from .common import (
    _PROPERTIES,
    EXIT_OK,
    EXIT_VIOLATION,
    Outcome,
    _checker,
    _fields,
    _jsonable,
    _kv_lines,
)


def witness_to_json(witness: verify.Witness, subject: Code | SetFamily) -> dict:
    """The witness's fields under its ``kind``; a framed word adds ``framed_word``."""
    kinds = {getattr(verify, p.witness_class): p.witness for p in _PROPERTIES.values()}
    kind = kinds.get(type(witness))
    if kind is None:
        raise TypeError(f"unknown witness {witness!r}")
    data = {"kind": kind, **_jsonable(witness)}
    if isinstance(witness, verify.FramedWord):
        assert isinstance(subject, Code)
        data["framed_word"] = list(subject.words[witness.framed])
    return data


def _witness_text(data: dict) -> str:
    kind = data["kind"]
    if kind == "framed-word":
        return f"codeword {data['framed']} framed by coalition {data['coalition']}"
    if kind == "cover-violation":
        return f"member {data['covered']} covered by union of {data['covering']}"
    if kind == "ipp-violation":
        return (
            f"word {data['word']} explained by disjoint coalitions "
            + ", ".join(str(c) for c in data["coalitions"])
        )
    return (  # "ta-violation", the last of the kinds in _PROPERTIES
        f"coalition {data['coalition']} forges {data['pirate']}: outsider "
        f"{data['outsider']} at distance {data['outsider_distance']} matches "
        f"the best insider distance {data['insider_distance']}"
    )


def run(args: argparse.Namespace) -> Outcome:
    subject = _PROPERTIES[args.property].load(args.file)
    verdict = _checker(args.property)(subject, args.t)
    witness = (
        witness_to_json(verdict.witness, subject) if verdict.witness is not None else None
    )
    # The verdict's fields, its witness tagged with a kind.
    report = {**_jsonable(verdict), "witness": witness}
    pairs = _fields(report, "property", "t", "holds") + _fields(report["counters"])
    if witness is not None:
        pairs.append(("witness", _witness_text(witness)))
    return EXIT_OK if verdict.holds else EXIT_VIOLATION, report, _kv_lines(pairs)
