"""``tracecodes search``: exhaustive extremal search, one length or a scan.

If ``TRACECODES_CACHE`` names a directory, search results are checkpointed
there and reused when they read back well formed and their witness passes
the checker again (``cache``, imported only then); a path that cannot be
used as a directory is a usage error, and an entry that cannot be written
only draws a ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os

from .. import search
from ..core import Code, SetFamily
from .common import EXIT_BUDGET, EXIT_OK, Outcome, _fields, _jsonable, _kv_lines

#: The search result fields a report shows and a cache entry stores.
_PAYLOAD_KEYS = ("optimum", "decided", "complete", "nodes", "elapsed", "budget", "witness")


def _witness_json(witness: Code | SetFamily | None) -> dict | None:
    if witness is None:
        return None
    return {"type": "code" if isinstance(witness, Code) else "family", **_jsonable(witness)}


def _search_payload(res: search.SearchResult) -> dict:
    payload = {key: getattr(res, key) for key in _PAYLOAD_KEYS}
    payload["witness"] = _witness_json(res.witness)
    return payload


def run(args: argparse.Namespace) -> Outcome:
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
        res = search.min_length_search(args.t, prop, args.budget, **lengths)
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
    problem = search.SearchProblem(prop, N=args.N, t=args.t, q=args.q, mode=mode, goal=goal)

    cache_root = os.environ.get("TRACECODES_CACHE")
    payload = cache_file = None
    if cache_root:
        from . import cache

        cache_file = cache._cache_path(cache_root, problem, args.budget)
        payload = cache._cached_payload(cache_file, problem, args.budget)
    if payload is not None:
        payload["cached"] = True
    else:
        payload = _search_payload(search.max_code_search(problem, args.budget))
        if cache_file is not None:
            cache._write_cache_entry(cache_file, payload)
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
