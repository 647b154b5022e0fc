"""Command-line front end: file formats, subcommand dispatch, rendering.

File formats
------------
Code files carry a header line ``N n q`` followed by n lines of N
space-separated integers, one codeword per line (the transpose of the
N x n matrix view, which is column-per-codeword).  Family files carry a
header ``N n`` followed by n rows of N binary digits (each row is one
member's incidence vector over the ground set).  Blank lines and lines
starting with ``#`` are ignored everywhere; duplicate rows are rejected.
Input files, witness files included, are read as UTF-8 text.  A witness
file is a ``verify`` report or a bare witness object; one whose witness has
no known ``kind`` is malformed.  ``recheck --property P`` confirms only the
witness kind ``verify --property P`` emits and refutes any other kind.

Exit codes
----------
0  success / property holds
1  property fails (witness emitted) / witness did not re-verify
2  usage error (bad flags or parameters)
3  malformed input file
4  search budget exhausted before an answer
5  internal error (an unexpected exception; its traceback goes to stderr)

Reports
-------
``--format text`` renders aligned tables; ``--format machine`` emits one
JSON document tagged ``"schema": "tracecodes/1"`` with stable field names
(property, t, holds, witness{...}, counters{...}, bounds[{source, value,
exponent}, ...]).  The schema fixes field names and values, not the order
of keys within an object.  Infinite distances appear as the string ``"inf"``.
Bounds are exact: in both formats an integer is written out in full, in
JSON as a plain number of any length (Python's int-to-str digit limit is
lifted while a report is rendered; a reader needs big-integer support).
Seeds always surface in reports; the fallback is a fixed constant, never
the clock.  If ``TRACECODES_CACHE`` names a directory, search results are
checkpointed there and reused when they read back well formed and their
witness passes the checker again; a path that cannot be used as a directory
is a usage error, and an entry that cannot be written only draws a
``warning:`` line on stderr.

A subcommand imports only the modules it runs: this module loads ``core``
alone, and each ``_cmd_*`` imports the rest of the package that it needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from . import __version__, core
from .core import Code, SetFamily

if TYPE_CHECKING:
    from . import search as search_mod
    from . import verify

__all__ = [
    "EXIT_BAD_FILE",
    "EXIT_BUDGET",
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

SCHEMA = "tracecodes/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class FileFormatError(ValueError):
    """An input file does not conform to the documented format."""


# --------------------------------------------------------------------------
# file formats


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read_header(text: str, kind: str, fields: str, rows: str) -> tuple[list[int], list[str]]:
    """The integer header (named ``fields``) of a ``kind`` file and the rows it promises."""
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError(f"empty {kind} file")
    header = lines[0].split()
    if len(header) != len(fields.split()):
        raise FileFormatError(f"{kind} header must read '{fields}', got {lines[0]!r}")
    try:
        values = [int(x) for x in header]
    except ValueError:
        raise FileFormatError(f"non-integer {kind} header {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != values[1]:
        raise FileFormatError(f"header promises {values[1]} {rows}, file has {len(body)}")
    return values, body


def parse_code_text(text: str) -> Code:
    (N, _, q), body = _read_header(text, "code", "N n q", "codewords")
    words = []
    for ln in body:
        parts = ln.split()
        if len(parts) != N:
            raise FileFormatError(f"expected {N} symbols per row, got {len(parts)} in {ln!r}")
        try:
            words.append(tuple(int(p) for p in parts))
        except ValueError:
            raise FileFormatError(f"non-integer symbol in row {ln!r}") from None
    try:
        return Code(tuple(words), q)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def render_code_text(code: Code) -> str:
    lines = [f"{code.length} {code.size} {code.q}"]
    lines.extend(" ".join(str(s) for s in w) for w in code.words)
    return "\n".join(lines) + "\n"


def parse_family_text(text: str) -> SetFamily:
    (N, _), body = _read_header(text, "family", "N n", "members")
    masks = []
    for ln in body:
        digits = ln.replace(" ", "")
        if len(digits) != N:
            raise FileFormatError(f"expected {N} binary digits per row, got {len(digits)} in {ln!r}")
        if any(ch not in "01" for ch in digits):
            raise FileFormatError(f"non-binary digit in row {ln!r}")
        masks.append(sum(1 << e for e, ch in enumerate(digits) if ch == "1"))
    try:
        return SetFamily(N, tuple(masks))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def render_family_text(family: SetFamily) -> str:
    N = family.ground_size
    lines = [f"{N} {family.size}"]
    for m in family.members:
        lines.append("".join("1" if m >> e & 1 else "0" for e in range(N)))
    return "\n".join(lines) + "\n"


def _load(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: str | Path) -> Any:
    """The JSON document in ``path``; one Python cannot hold (nested too deep,
    an integer past the int-to-str digit limit) is malformed like bad JSON."""
    try:
        return json.loads(_load(path))
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path} does not read as JSON: {exc}") from None


def load_code(path: str) -> Code:
    return parse_code_text(_load(path))


def load_family(path: str) -> SetFamily:
    return parse_family_text(_load(path))


def parse_word(raw: str, N: int, q: int) -> core.Word:
    """A word argument: ``"0110"`` digit run (q <= 10) or ``"0,1,1,0"``."""
    raw = raw.strip()
    if "," in raw:
        parts = [p.strip() for p in raw.split(",")]
    elif q <= 10:
        parts = list(raw)
    else:
        raise ValueError(f"alphabet {q} needs the comma-separated word form")
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse word {raw!r}") from None
    if len(word) != N:
        raise ValueError(f"word {raw!r} has {len(word)} symbols, the code has length {N}")
    core.require_symbols(word, q)
    return word


# --------------------------------------------------------------------------
# report plumbing


def _jsonable(value: Any) -> Any:
    """The JSON form of a report value.

    A code is ``{N, n, q, words}`` and a set family ``{ground_size, n,
    members}`` with members as element lists; any other record is the
    dict of its fields in declaration order, never a list, though most
    records are tuples; infinity is ``"inf"``.
    """
    if isinstance(value, Code):
        words = [list(w) for w in value.words]
        return {"N": value.length, "n": value.size, "q": value.q, "words": words}
    if isinstance(value, SetFamily):
        return {
            "ground_size": value.ground_size,
            "n": value.size,
            "members": [list(value.member_elements(i)) for i in range(value.size)],
        }
    if hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _fmt(value: Any) -> str:
    """A report value as text; a record reads as its repr, fields by name."""
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (list, tuple)) and not hasattr(value, "_asdict"):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _fields(report: dict, *keys: str) -> list[tuple[str, Any]]:
    """Report fields as text labels: the keys named, or every key, with spaces for underscores."""
    return [(key.replace("_", " "), report[key]) for key in keys or report]


def _kv_lines(pairs: list[tuple[str, Any]]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    return [f"{k:<{width}}  {_fmt(v)}" for k, v in pairs]


def _table_lines(headers: list[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    return [
        "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
        for row in [headers, *cells]
    ]


def _emit(args: argparse.Namespace, report: dict, text_lines: list[str]) -> None:
    """Print the report; exact integers of any length render in full."""
    with core.any_int_length():
        if args.format == "machine":
            print(json.dumps(_jsonable(report), indent=2, sort_keys=False))
        else:
            print("\n".join(text_lines))


def witness_to_json(witness: verify.Witness, subject: Code | SetFamily) -> dict:
    """The witness's fields under its ``kind``; a framed word adds ``framed_word``."""
    from . import verify

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


def _is_index(value: Any, n: int | float) -> bool:
    """A JSON integer in 0..n-1 (n may be ``math.inf``); ``true``/``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n


def _distinct_indices(values: Any, n: int, label: str, problems: list[str]) -> list[int]:
    if not isinstance(values, (list, tuple)):
        problems.append(f"{label} is not a list")
        return []
    out = []
    for v in values:
        if not _is_index(v, n):
            problems.append(f"{label} index {v!r} out of range")
            return []
        out.append(v)
    if len(set(out)) != len(out):
        problems.append(f"{label} repeats indices")
    return out


def _word(values: Any, code: Code, label: str, problems: list[str]) -> core.Word:
    """A JSON word of the code's length whose symbols are integers in 0..q-1."""
    if not isinstance(values, (list, tuple)) or len(values) != code.length:
        problems.append(f"{label} has the wrong length")
        return ()
    for s in values:
        if not _is_index(s, code.q):
            problems.append(f"{label} symbol {s!r} out of range")
            return ()
    return tuple(values)


def recheck_witness(data: dict, subject: Code | SetFamily, t: int) -> list[str]:
    """Re-derive a violation witness from first principles; [] when it holds up."""
    problems: list[str] = []
    kind = data.get("kind")
    on_family = kind == "cover-violation"
    if isinstance(kind, str) and kind in _KINDS and on_family != isinstance(subject, SetFamily):
        return [f"{kind} witnesses apply to {'families' if on_family else 'codes'}"]
    if kind == "framed-word":
        framed = data.get("framed")
        if not _is_index(framed, subject.size):
            return [f"framed index {framed!r} out of range"]
        coalition = _distinct_indices(data.get("coalition"), subject.size, "coalition", problems)
        if problems:
            return problems
        if framed in coalition:
            problems.append("framed word sits inside the coalition")
        if len(coalition) > t or not coalition:
            problems.append(f"coalition size {len(coalition)} outside 1..{t}")
        if not problems and not core.is_descendant(
            subject.words[framed], subject.coalition_words(coalition)
        ):
            problems.append("coalition cannot produce the framed word")
        return problems
    if kind == "cover-violation":
        covered = data.get("covered")
        if not _is_index(covered, subject.size):
            return [f"covered index {covered!r} out of range"]
        covering = _distinct_indices(data.get("covering"), subject.size, "covering", problems)
        if problems:
            return problems
        if covered in covering:
            problems.append("covered member listed among the covering members")
        if len(covering) > t:
            problems.append(f"covering uses {len(covering)} members, cap is {t}")
        union = 0
        for j in covering:
            union |= subject.members[j]
        if not problems and subject.members[covered] & ~union:
            problems.append("union does not contain the covered member")
        return problems
    if kind == "ipp-violation":
        word = _word(data.get("word"), subject, "witness word", problems)
        if problems:
            return problems
        raw = data.get("coalitions")
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            return ["need at least two coalitions"]
        coalitions = []
        for which, c in enumerate(raw):
            idx = _distinct_indices(c, subject.size, f"coalition {which}", problems)
            if problems:
                return problems
            if not 1 <= len(idx) <= t:
                problems.append(f"coalition {which} size {len(idx)} outside 1..{t}")
            coalitions.append(idx)
        for which, c in enumerate(coalitions):
            if c and not core.is_descendant(word, subject.coalition_words(c)):
                problems.append(f"coalition {which} cannot produce the word")
        common = core.shared_members(coalitions)
        if common:
            problems.append(f"coalitions share members {list(common)}")
        return problems
    if kind == "ta-violation":
        coalition = _distinct_indices(data.get("coalition"), subject.size, "coalition", problems)
        if problems:
            return problems
        if not 1 <= len(coalition) <= t:
            problems.append(f"coalition size {len(coalition)} outside 1..{t}")
        pirate = _word(data.get("pirate"), subject, "pirate word", problems)
        if problems:
            return problems
        outsider = data.get("outsider")
        if not _is_index(outsider, subject.size):
            return [f"outsider index {outsider!r} out of range"]
        if outsider in coalition:
            problems.append("outsider sits inside the coalition")
        if problems:
            return problems
        if not core.is_descendant(pirate, subject.coalition_words(coalition)):
            problems.append("coalition cannot produce the pirate word")
        best_in = min(core.hamming_distance(pirate, subject.words[i]) for i in coalition)
        d_out = core.hamming_distance(pirate, subject.words[outsider])
        for key, value in (("insider", best_in), ("outsider", d_out)):
            claimed = data.get(f"{key}_distance")
            if type(claimed) is not int or claimed != value:  # no bools, no floats
                problems.append(f"{key} distance recomputes to {value}")
        if best_in < d_out:
            problems.append("every insider is strictly closer; no violation")
        return problems
    return [f"unknown witness kind {kind!r}"]


# --------------------------------------------------------------------------
# subcommands


class _Property(NamedTuple):
    """What ``--property`` selects: its ``verify`` checker and witness class (by
    name, read when a command runs), its file reader, its failures' witness kind."""

    check: str
    witness_class: str
    load: Callable[[str], Code | SetFamily]
    witness: str


_PROPERTIES = {
    "fp": _Property("check_frameproof", "FramedWord", load_code, "framed-word"),
    "ipp": _Property("check_ipp", "IppViolation", load_code, "ipp-violation"),
    "ta": _Property("check_ta", "TaViolation", load_code, "ta-violation"),
    "cff": _Property("check_cff", "CoverViolation", load_family, "cover-violation"),
}

#: Every witness kind that ``verify`` emits and ``recheck`` reads.
_KINDS = frozenset(p.witness for p in _PROPERTIES.values())


def _checker(prop: str) -> Callable[[Any, int], verify.Verdict]:
    """The ``verify`` checker of ``--property prop``, looked up when it is called."""
    from . import verify

    return getattr(verify, _PROPERTIES[prop].check)


#: A subcommand's exit code, report fields and text lines (see ``_emit``).
_Outcome = tuple[int, dict, list[str]]


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
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


def _cmd_trace(args: argparse.Namespace) -> _Outcome:
    from . import trace as trace_mod

    code = load_code(args.file)
    word = parse_word(args.pirate, code.length, code.q)
    if args.scheme == "ta":
        if args.t is not None:
            raise ValueError("--t is taken only by the parent-set scheme")
        accusation = trace_mod.trace_ta(code, word)
    else:
        if args.t is None:
            raise ValueError("--t is required for the parent-set scheme")
        accusation = trace_mod.trace_ipp(code, word, args.t)
    fields = _jsonable(accusation)
    del fields["method"]  # named by the scheme
    report = {"scheme": args.scheme, "pirate": word, **fields}
    shown = _fields(report, "scheme", "pirate", "accused", "status", "min_distance")
    pairs = [(label, value) for label, value in shown if value is not None]
    if accusation.family_size is not None:
        pairs.append(("parent sets", accusation.family_size))
    return EXIT_OK if accusation.status == "ok" else EXIT_VIOLATION, report, _kv_lines(pairs)


def _cmd_bounds(args: argparse.Namespace) -> _Outcome:
    from . import bounds as bounds_mod

    report_obj = bounds_mod.bound_report(args.N, args.q, args.t, evaluate_symbolic=args.evaluate)
    report = {"N": args.N, "q": args.q, "t": args.t, "bounds": report_obj.entries}
    status = None
    if args.q == 2 and args.t >= 3:
        status = bounds_mod.binary_fp_status(args.N, args.t)
        fields = _jsonable(status)
        del fields["t"], fields["N"]  # the report's own
        report["binary_fp_status"] = fields

    lines = [f"bounds at N={args.N} q={args.q} t={args.t}", ""]
    with core.any_int_length():  # exact integers are written out in full
        # One column per entry field, in declaration order.
        lines += _table_lines(list(bounds_mod.BoundEntry._fields), report_obj.entries)
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
        value = int(arg)
    except ValueError:
        raise ValueError(f"op {name} needs an integer value, got {arg!r}") from None
    if value > sys.maxsize:
        raise ValueError(f"op {name} value {value} exceeds the largest index {sys.maxsize}")
    return name, value


def _cmd_transform(args: argparse.Namespace) -> _Outcome:
    from . import transform

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


def _cache_path(problem: search_mod.SearchProblem, budget: int | None) -> Path | None:
    root = os.environ.get("TRACECODES_CACHE")
    if not root:
        return None
    import hashlib  # only a cached search pays for it

    key = json.dumps(
        {**_jsonable(problem), "budget": budget, "schema": SCHEMA, "version": __version__},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    directory = Path(root)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"TRACECODES_CACHE={root} is not a usable directory: {exc}") from None
    return directory / f"search-{digest}.json"


def _witness_json(witness: Code | SetFamily | None) -> dict | None:
    if witness is None:
        return None
    return {"type": "code" if isinstance(witness, Code) else "family", **_jsonable(witness)}


#: The search result fields a report shows and a cache entry stores.
_PAYLOAD_KEYS = ("optimum", "decided", "complete", "nodes", "elapsed", "budget", "witness")


def _search_payload(res: search_mod.SearchResult) -> dict:
    payload = {key: getattr(res, key) for key in _PAYLOAD_KEYS}
    payload["witness"] = _witness_json(res.witness)
    return payload


def _witness_subject(data: Any, problem: search_mod.SearchProblem) -> Code | SetFamily:
    """Rebuild a cached search witness; KeyError, TypeError or ValueError if malformed."""
    if problem.property == "CFF":
        members = data["members"]
        if data["type"] != "family" or data["ground_size"] != problem.N:
            raise ValueError("not a family over the problem's ground set")
        if not all(_is_index(e, problem.N) for m in members for e in m):
            raise ValueError("member element outside the ground set")
        return SetFamily.from_sets(problem.N, members)
    code = Code(tuple(tuple(w) for w in data["words"]), data["q"])
    if data["type"] != "code" or code.q != problem.q or code.length != problem.N:
        raise ValueError("not a code of the problem's length and alphabet")
    return code


def _cached_payload(
    cache_file: Path, problem: search_mod.SearchProblem, budget: int | None
) -> dict | None:
    """The cached search payload, or None when it must be computed again.

    An entry is rejected when it is unreadable, has a missing, extra or
    mistyped field, or reads as an outcome ``max_code_search`` never
    returns: a run is incomplete only when it stopped under a budget, one
    node past it; a decide run's answer is ``optimum >= goal`` once
    complete, and None before; a maximize run decides nothing; a witness
    comes with a decide "yes" and with a maximize run that reached a code,
    and with nothing else.  A witness must pass the property's checker and
    have exactly ``optimum`` members; an entry without one (a decide "no",
    a budget stop) is held to the rules above alone, as rechecking it
    means searching.
    """
    try:
        payload = _read_json(cache_file)
    except FileFormatError:
        return None
    if not isinstance(payload, dict) or set(payload) != set(_PAYLOAD_KEYS):
        return None
    optimum, decided, complete = payload["optimum"], payload["decided"], payload["complete"]
    if (
        not _is_index(optimum, math.inf)
        or not _is_index(payload["nodes"], math.inf)
        or type(payload["elapsed"]) not in (int, float)
        or not (decided is None or isinstance(decided, bool))
        or not isinstance(complete, bool)
        or type(payload["budget"]) is not type(budget)
        or payload["budget"] != budget
    ):
        return None
    limit = math.inf if budget is None else budget
    if problem.mode == "decide":
        answer, shown = (optimum >= problem.goal if complete else None), decided is True
    else:
        answer, shown = None, optimum > 0
    witness = payload["witness"]
    if (
        not (payload["nodes"] <= limit if complete else payload["nodes"] == limit + 1)
        or decided is not answer
        or (witness is not None) != shown
    ):
        return None
    if witness is None:
        return payload
    try:
        subject = _witness_subject(witness, problem)
    except (KeyError, TypeError, ValueError):
        return None
    check = _checker(problem.property.lower())
    if subject.size != payload["optimum"] or not check(subject, problem.t).holds:
        return None
    payload["witness"] = _witness_json(subject)
    return payload


def _write_cache_entry(cache_file: Path, payload: dict) -> None:
    """Write through a temp file and ``os.replace``; a failure only warns."""
    partial = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(json.dumps(_jsonable(payload), indent=2))
        os.replace(partial, cache_file)
    except OSError as exc:
        with suppress(OSError):
            partial.unlink(missing_ok=True)
        print(f"warning: search cache entry not written: {exc}", file=sys.stderr)


def _cmd_search(args: argparse.Namespace) -> _Outcome:
    from . import search as search_mod

    prop = args.property.upper()
    report: dict = {"property": prop, "t": args.t}
    # The length bounds given; min_length_search holds the defaults.
    lengths = {"start_length": args.start_length, "max_length": args.max_length}
    lengths = {k: v for k, v in lengths.items() if v is not None}

    if args.min_length:
        if args.q != 2 or args.N is not None or args.goal is not None or args.decide_exceeds_N:
            raise ValueError(
                "--min-length scans binary lengths: it takes no --N, --goal,"
                " --decide-exceeds-N or --q other than 2"
            )
        res = search_mod.min_length_search(args.t, prop, args.budget, **lengths)
        truncated = bool(res.probes) and res.probes[-1].decided is None
        report["min_length"] = {
            "value": res.value,
            "lower_bound": res.lower_bound,
            "complete": res.complete,
            "probes": res.probes,
            "witness": _witness_json(res.witness),
        }
        pairs = [
            *_fields(report, "property", "t"),
            ("min length", res.value),
            *_fields(report["min_length"], "lower_bound", "complete"),
            ("lengths probed", [p.N for p in res.probes]),
        ]
        return EXIT_BUDGET if truncated else EXIT_OK, report, _kv_lines(pairs)

    if lengths:
        raise ValueError("--start-length and --max-length bound a --min-length scan")
    if args.N is None:
        raise ValueError("--N is required unless --min-length is given")
    mode, goal = "maximize", None
    if args.decide_exceeds_N:
        mode, goal = "decide", args.N + 1
    elif args.goal is not None:
        mode, goal = "decide", args.goal
    problem = search_mod.SearchProblem(prop, N=args.N, t=args.t, q=args.q, mode=mode, goal=goal)

    cache_file = _cache_path(problem, args.budget)
    payload = None if cache_file is None else _cached_payload(cache_file, problem, args.budget)
    if payload is not None:
        payload["cached"] = True
    else:
        payload = _search_payload(search_mod.max_code_search(problem, args.budget))
        if cache_file is not None:
            _write_cache_entry(cache_file, payload)
        payload["cached"] = False
    exit_needs_budget = (mode == "decide" and payload["decided"] is None) or (
        mode == "maximize" and not payload["complete"]
    )

    report.update(
        {
            "N": args.N,
            "q": args.q,
            "mode": mode,
            "goal": goal,
            **payload,
        }
    )
    pairs = _fields(report, "property", "N", "q", "t", "mode")
    if goal is not None:
        pairs += _fields(report, "goal")
    pairs += _fields(report, "optimum", "decided", "complete", "nodes", "cached")
    if payload["witness"]:
        pairs.append(("witness size", payload["witness"]["n"]))
    return EXIT_BUDGET if exit_needs_budget else EXIT_OK, report, _kv_lines(pairs)


def _cmd_simulate(args: argparse.Namespace) -> _Outcome:
    from . import trace as trace_mod

    code = load_code(args.file)
    strategy = trace_mod.PirateStrategy(args.strategy)
    rep = trace_mod.simulate_tracing(code, args.t, args.trials, strategy, args.seed)

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


def _cmd_recheck(args: argparse.Namespace) -> _Outcome:
    core.require_strength(args.t)
    data = _read_json(args.witness)
    if isinstance(data, dict) and isinstance(data.get("witness"), dict):
        data = data["witness"]
    if not isinstance(data, dict):
        raise FileFormatError("witness document must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FileFormatError(f"unknown witness kind {kind!r}")
    selected = _PROPERTIES[args.property]
    subject = selected.load(args.file)
    prop = args.property.upper()
    if kind != selected.witness:
        # Only the kind ``verify`` emits for the property is confirmed.
        problems = [f"{prop} witnesses are {selected.witness}, not {kind}"]
    else:
        problems = recheck_witness(data, subject, args.t)
    report = {"property": prop, "t": args.t, "confirmed": not problems, "problems": problems}
    pairs = _fields(report, "property", "t", "confirmed") + [("problem", p) for p in problems]
    return EXIT_OK if not problems else EXIT_VIOLATION, report, _kv_lines(pairs)


# --------------------------------------------------------------------------
# parser


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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", parents=[common], help="accuse codewords from a pirate word")
    p.add_argument("--scheme", choices=("ta", "ipp"), required=True)
    p.add_argument("--t", type=int, help="coalition size bound (parent-set scheme)")
    p.add_argument("--pirate", required=True, help="word, e.g. 0110 or 0,1,1,0")
    p.add_argument("file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bounds", parents=[common], help="closed-form size caps at (N, q, t)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--evaluate", action="store_true", help="multiply symbolic entries out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("transform", parents=[common], help="rewrite codes and families")
    p.add_argument(
        "--op",
        required=True,
        help="double | tocode | restrict=IDX | pad=R | compose=A | prune | violate | strip",
    )
    p.add_argument("--t", type=int, help="coalition size bound (prune/violate/strip)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_transform)

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
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", parents=[common], help="forge pirates, trace them, tally rates")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--strategy", choices=core.STRATEGY_KINDS, default="interleave")
    p.add_argument("--seed", type=int, help="master seed (fixed default when omitted)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("recheck", parents=[common], help="re-verify an emitted witness")
    p.add_argument("--property", choices=_PROPERTIES, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--witness", required=True, help="JSON report or bare witness object")
    p.add_argument("file")
    p.set_defaults(func=_cmd_recheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, fields, text_lines = args.func(args)
        _emit(args, {"schema": SCHEMA, "command": args.command, **fields}, text_lines)
        return status
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except (core.DescendantSetTooLarge, ValueError, MemoryError, OverflowError) as exc:
        # A huge size parameter fails in the allocator; MemoryError carries no message.
        print(f"error: {str(exc) or 'instance too large for memory'}", file=sys.stderr)
        return EXIT_USAGE
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
