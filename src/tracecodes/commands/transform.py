"""``tracecodes transform``: rewrite a code or a family by one op."""

from __future__ import annotations

import argparse
import sys

from .. import core, transform
from ..core import SetFamily
from .common import (
    EXIT_OK,
    Outcome,
    _decimal,
    _fields,
    _fmt,
    _jsonable,
    _kv_lines,
    load_code,
    load_family,
    render_code_text,
    render_family_text,
)

#: Each transform op: (takes ``=VALUE``, takes ``--t``).
_OPS = {
    "double": (False, False),
    "tocode": (False, False),
    "restrict": (True, False),
    "pad": (True, False),
    "compose": (True, False),
    "prune": (False, True),
    "violate": (False, True),
    "strip": (False, True),
}


def _parse_op(raw: str) -> tuple[str, int | None]:
    name, _, arg = raw.partition("=")
    if name not in _OPS:
        raise ValueError(f"unknown op {raw!r}")
    if not _OPS[name][0]:
        if arg:
            raise ValueError(f"op {name} takes no =VALUE")
        return name, None
    if not arg:
        raise ValueError(f"op {name} needs =VALUE")
    try:
        value = _decimal(arg)
    except ValueError:
        raise ValueError(f"op {name} needs an integer value, got {arg!r}") from None
    if value > sys.maxsize:
        raise ValueError(f"op {name} value {value} exceeds the largest index {sys.maxsize}")
    return name, value


def run(args: argparse.Namespace) -> Outcome:
    op, value = _parse_op(args.op)
    t = args.t
    if _OPS[op][1] != (t is not None):
        raise ValueError(f"op {op} requires --t" if t is None else f"op {op} takes no --t")
    report: dict = {"op": args.op}
    lines: list[str]

    if op in ("prune", "violate"):
        code = load_code(args.file)
        partition = transform.make_row_partition(code.length, t)
        result = transform.prune_special_codewords(code, partition)
        subcode = result.subcode(code)

    if op in ("double", "tocode", "pad", "compose"):
        # One rewrite into a code or a family, printed in its file format.
        subject = (load_family if op == "tocode" else load_code)(args.file)
        if op == "double":
            out = transform.fpc_to_cff(subject)
            lines = [f"# doubled code -> family over {out.ground_size} rows"]
        elif op == "tocode":
            out = transform.cff_to_fpc(subject)
            lines = ["# family members as incidence words"]
        else:
            out = (transform.pad_code if op == "pad" else transform.block_compose)(subject, value)
            lines = []
        family = isinstance(out, SetFamily)
        report["family" if family else "code"] = out
        lines.append((render_family_text if family else render_code_text)(out).rstrip("\n"))
    elif op == "restrict":
        restriction = transform.cff_restrict(load_family(args.file), value)
        report["restriction"] = {
            **_jsonable(restriction),
            "clean": restriction.clean,
            "members": [list(core.elements(m)) for m in restriction.members],
        }
        lines = [
            f"# removed member {restriction.removed_member}; "
            f"ground set now {restriction.ground_size} elements",
        ]
        if restriction.clean:
            lines.append(render_family_text(restriction.family()).rstrip("\n"))
        elif not restriction.members:
            lines.append("# not a valid family: no member is left")
        else:
            lines.append(
                f"# not a valid family: empty members at {list(restriction.empty_indices)}, "
                f"duplicates at {list(restriction.duplicate_indices)}"
            )
    elif op == "prune":
        report["prune"] = {**_jsonable(result), "code": subcode}
        lines = [f"# pruned {len(result.steps)} codeword(s); survivors {list(result.survivors)}"]
        for s in result.steps:
            lines.append(f"# removed {s.removed}: private pattern {list(s.pattern)} on part {s.part}")
        if subcode:
            lines.append(render_code_text(subcode).rstrip("\n"))
        else:
            lines.append("# every codeword was pruned")
    elif op == "violate":
        if subcode is None:
            report["certificate"] = None
            report["reason"] = "every codeword was pruned; nothing to build on"
            return EXIT_OK, report, ["# " + report["reason"]]
        cert = transform.build_ipp_violation(subcode, partition, t)
        report["survivors"] = result.survivors
        report["certificate"] = cert
        lines = [
            f"# certificate indices refer to the {subcode.size} surviving codeword(s)",
            f"# survivors (original rows): {list(result.survivors)}",
        ]
        lines.extend(_kv_lines(_fields(cert._asdict())))
    else:  # strip
        code = load_code(args.file)
        removed, survivor_code, strace = transform.distance_strip(code, t)
        report["strip"] = {**_jsonable(strace), "code": survivor_code}
        lines = [
            f"# case {strace.case}: distance {strace.d_before} -> {_fmt(strace.d_after)}",
            f"# removed rows {list(strace.removed)}",
        ]
        if survivor_code:
            lines.append(render_code_text(survivor_code).rstrip("\n"))
        else:
            lines.append("# every codeword was removed")

    return EXIT_OK, report, lines
