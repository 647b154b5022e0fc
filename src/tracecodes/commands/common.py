"""The CLI's shared front end: file formats, exit codes, report helpers.

Code files carry a header line ``N n q`` followed by n lines of N
space-separated integers, one codeword per line (the transpose of the
N x n matrix view, which is column-per-codeword).  Family files carry a
header ``N n`` followed by n rows of N binary digits (each row is one
member's incidence vector over the ground set).  Blank lines and lines
starting with ``#`` are ignored everywhere; duplicate rows are rejected.
Integers in files and word arguments are runs of ASCII digits.  Input
files, witness files included, are read as UTF-8 text.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .. import core
from ..core import Code, SetFamily

if TYPE_CHECKING:
    from .. import verify

SCHEMA = "tracecodes/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5
EXIT_CLOSED_STDOUT = 141

#: A subcommand's exit code, report fields and text lines (see ``cli._emit``).
Outcome = tuple[int, dict, list[str]]


class FileFormatError(ValueError):
    """An input file does not conform to the documented format."""


def _decimal(text: str) -> int:
    """A run of ASCII digits as an int; ``int`` would also take ``+3``, ``1_0``, ``٣``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of decimal digits: {text!r}")
    return int(text)


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
        values = [_decimal(x) for x in header]
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
            words.append(tuple(_decimal(p) for p in parts))
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
    import json  # only the commands that read a report pay for it

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
        word = tuple(_decimal(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse word {raw!r}") from None
    if len(word) != N:
        raise ValueError(f"word {raw!r} has {len(word)} symbols, the code has length {N}")
    core.require_symbols(word, q)
    return word


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


class _Property(NamedTuple):
    """What ``--property`` selects: its ``verify`` checker and witness class (by
    name, read when a command runs), its file reader and its witness kind."""

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


def _checker(prop: str) -> Callable[[Any, int], verify.Verdict]:
    """The ``verify`` checker of ``--property prop``, looked up when it is called."""
    from .. import verify

    return getattr(verify, _PROPERTIES[prop].check)
