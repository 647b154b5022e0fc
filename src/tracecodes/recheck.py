"""Re-derive a violation witness from the definitions alone.

A witness arrives as the JSON object ``tracecodes verify`` emits: its
``kind`` and the indices and words it names.  ``recheck_witness`` replays
it against the code or family by the plain definitions of descendant,
cover and Hamming distance, sharing no code with the checkers in
``verify``, so a checker's defect cannot confirm its own witness.  This
module imports ``core`` alone.
"""

from __future__ import annotations

from typing import Any

from . import core
from .core import Code, SetFamily

__all__ = ["KINDS", "recheck_witness"]

#: Every witness kind that ``verify`` emits and ``recheck_witness`` reads.
KINDS = frozenset({"framed-word", "cover-violation", "ipp-violation", "ta-violation"})


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
    if isinstance(kind, str) and kind in KINDS and on_family != isinstance(subject, SetFamily):
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
