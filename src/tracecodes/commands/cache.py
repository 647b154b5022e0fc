"""The search cache: entries keyed by problem, budget, schema and version.

``search`` imports this module only when ``TRACECODES_CACHE`` is set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .. import __version__
from ..core import Code, SetFamily
from ..recheck import _is_index
from .common import SCHEMA, FileFormatError, _checker, _jsonable, _read_json
from .search import _PAYLOAD_KEYS, _witness_json

if TYPE_CHECKING:
    from .. import search


def _cache_path(root: str, problem: search.SearchProblem, budget: int | None) -> Path:
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


def _witness_subject(data: Any, problem: search.SearchProblem) -> Code | SetFamily:
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
    cache_file: Path, problem: search.SearchProblem, budget: int | None
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
