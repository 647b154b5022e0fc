"""Per-layer tracing of tracecodes from outside the package.

The wrappers replace public functions through their module attributes
(``tracecodes.verify.check_ipp``, never the ``tracecodes.*`` re-exports), so
calls that ``search``, ``verify``, ``trace`` and ``cli`` make into each other
pass through them as well.  Layer boundaries record spans; the kernel
functions of ``core`` only count calls, which keeps the overhead of the
millions of kernel calls a search makes bounded.

A span is ``(id, parent id, job id, name, start ns, end ns, work)``.  ``work``
holds the deterministic counters read off the call's result (verdict
counters, search nodes, parent-set family size, digits of a bound), so the
work done and the time taken come from the same place.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

SPANNED = {
    "search": ("max_code_search",),
    "verify": ("check_frameproof", "check_ipp", "check_ta", "check_cff"),
    "core": ("parent_sets", "min_distance"),
    "trace": ("trace_ta", "trace_ipp"),
    "transform": ("fpc_to_cff", "block_compose", "pad_code", "distance_strip"),
    "bounds": ("bound_report",),
}
COUNTED = {"core": ("is_descendant", "iter_coalitions", "desc_profile", "hamming_distance")}
CLI_SUBCOMMANDS = ("verify", "trace", "bounds", "transform", "search", "simulate", "recheck")

# (metric name, unit, better); the order is the order BENCHMARK.json lists them.
PER_LAYER = (
    [
        ("search.max_code_search.calls", "count", "lower"),
        ("search.max_code_search.busy_s", "s", "lower"),
        ("search.max_code_search.self_s", "s", "lower"),
        ("search.max_code_search.nodes", "count", "lower"),
        ("search.max_code_search.us_per_node", "us", "lower"),
        ("search.max_code_search.verify_calls", "count", "lower"),
        ("search.max_code_search.verify_s", "s", "lower"),
        ("search.max_code_search.accept_ratio", "ratio", "higher"),
        ("verify.check_frameproof.calls", "count", "lower"),
        ("verify.check_frameproof.busy_s", "s", "lower"),
        ("verify.check_frameproof.tests", "count", "lower"),
        ("verify.check_frameproof.ns_per_test", "ns", "lower"),
        ("verify.check_ipp.calls", "count", "lower"),
        ("verify.check_ipp.busy_s", "s", "lower"),
        ("verify.check_ipp.families", "count", "lower"),
        ("verify.check_ipp.intersections", "count", "lower"),
        ("verify.check_ipp.us_per_family", "us", "lower"),
        ("verify.check_ta.calls", "count", "lower"),
        ("verify.check_ta.busy_s", "s", "lower"),
        ("verify.check_ta.coalitions", "count", "lower"),
        ("verify.check_ta.leaves", "count", "lower"),
        ("verify.check_ta.us_per_leaf", "us", "lower"),
        ("verify.check_cff.calls", "count", "lower"),
        ("verify.check_cff.busy_s", "s", "lower"),
        ("verify.check_cff.subsets", "count", "lower"),
        ("verify.check_cff.ns_per_subset", "ns", "lower"),
    ]
    + [(f"core.{fn}.calls", "count", "lower") for fn in COUNTED["core"]]
    + [
        ("core.parent_sets.calls", "count", "lower"),
        ("core.parent_sets.busy_s", "s", "lower"),
        ("core.min_distance.calls", "count", "lower"),
        ("core.min_distance.busy_s", "s", "lower"),
        ("trace.trace_ta.calls", "count", "lower"),
        ("trace.trace_ta.busy_s", "s", "lower"),
        ("trace.trace_ta.us_per_call", "us", "lower"),
        ("trace.trace_ipp.calls", "count", "lower"),
        ("trace.trace_ipp.busy_s", "s", "lower"),
        ("trace.trace_ipp.us_per_call", "us", "lower"),
        ("trace.trace_ipp.parent_sets_mean", "count", "lower"),
        ("trace.trace_ipp.ok_ratio", "ratio", "higher"),
        ("trace.trace_ipp.parent_sets_share", "ratio", "lower"),
    ]
    + [
        (f"transform.{fn}.{m}", unit, "lower")
        for fn in SPANNED["transform"]
        for m, unit in (("calls", "count"), ("busy_s", "s"))
    ]
    + [
        ("bounds.bound_report.calls", "count", "lower"),
        ("bounds.bound_report.busy_s", "s", "lower"),
        ("bounds.bound_report.digits", "count", "lower"),
        ("cli.interp_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    + [(f"cli.main.{sub}.busy_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    + [("bench.trace_overhead_s", "s", "lower")]
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def decimal_digits(value: int) -> int:
    """Exact number of decimal digits of |value|, without str() and its 4300-digit cap."""
    value = abs(value)
    if value < 10:
        return 1
    guess = int((value.bit_length() - 1) * 0.30102999566398120) + 1
    while 10 ** (guess - 1) > value:
        guess -= 1
    while 10**guess <= value:
        guess += 1
    return guess


def _verify_work(verdict) -> tuple:
    return (verdict.holds, verdict.counters.subsets_examined, verdict.counters.words_examined)


def _bound_digits(report) -> tuple:
    digits = 0
    for entry in report.entries:
        exact = entry.value if entry.value is not None else entry.coefficient
        if exact is not None:
            digits += decimal_digits(exact)
    return (digits,)


WORK = {
    "search.max_code_search": lambda res: (res.nodes,),
    "verify.check_frameproof": _verify_work,
    "verify.check_ipp": _verify_work,
    "verify.check_ta": _verify_work,
    "verify.check_cff": _verify_work,
    "trace.trace_ipp": lambda acc: (acc.status == "ok", acc.family_size or 0),
    "bounds.bound_report": _bound_digits,
}


class Tracer:
    """Installs the wrappers, keeps spans and call counts in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for mod_name, fns in SPANNED.items():
            module = importlib.import_module(f"tracecodes.{mod_name}")
            for fn in fns:
                self._replace(module, fn, self._spanned(f"{mod_name}.{fn}", getattr(module, fn)))
        for mod_name, fns in COUNTED.items():
            module = importlib.import_module(f"tracecodes.{mod_name}")
            for fn in fns:
                self._replace(module, fn, self._counted(f"{mod_name}.{fn}", getattr(module, fn)))
        cli = importlib.import_module("tracecodes.cli")
        self._replace(cli, "main", self._cli_main(cli.main))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn, name_of=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        work_of = WORK.get(name)

        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(args, kwargs)
            counts[label] += 1
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.job, label, start, end, None)
            if work_of is not None:
                spans[sid] = (sid, parent, self.job, label, start, end, work_of(result))
            return result

        return wrapper

    def _cli_main(self, fn):
        def name_of(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            sub = argv[0] if argv else "none"
            return f"cli.main.{sub}"

        return self._spanned("cli.main", fn, name_of)

    # -- spans from other processes --------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def absorb(self, path: str, parent: int) -> None:
        """Append spans a traced child process dumped, re-numbered under ``parent``."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for sid, par, _job, label, start, end, work in data["spans"]:
            work = tuple(work) if work is not None else None
            self.spans.append(
                (base + sid, parent if par < 0 else base + par, self.job, label, start, end, work)
            )
        self.counts.update(data["counts"])

    def open_span(self, label: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, -1, self.job, label, time.perf_counter_ns(), None, None))
        return sid

    def close_span(self, sid: int) -> None:
        self.spans[sid] = self.spans[sid][:5] + (time.perf_counter_ns(), None)

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header) + "\n")
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for sid, parent, job, label, start, end, _work in self.spans:
                fh.write(f"{sid}\t{parent}\t{job}\t{label}\t{start}\t{end}\n")


def pass_summary(spans: list, counts: Counter, seconds) -> tuple[dict, dict]:
    """Fold one traced pass into (work counts, times).

    Work counts are exact integers that must repeat between passes; times
    are ``seconds(start_ns, end_ns)`` of the spans.  Both are keyed by
    per-layer metric name.
    """
    work: dict = defaultdict(int)
    times: dict = defaultdict(float)
    for name, n in counts.items():
        work[f"{name}.calls"] = n
    by_id = {s[0]: s for s in spans}
    for sid, parent, _job, label, start, end, res in spans:
        dur = seconds(start, end)
        times[f"{label}.busy_s"] += dur
        up = by_id.get(parent)
        up_label = up[3] if up is not None else ""
        if up_label == "search.max_code_search":
            times["search.max_code_search.child_s"] += dur
            if label.startswith("verify."):
                work["search.max_code_search.verify_calls"] += 1
                work["search.max_code_search.verify_held"] += int(res[0])
                times["search.max_code_search.verify_s"] += dur
        if label == "core.parent_sets" and up_label == "trace.trace_ipp":
            times["trace.trace_ipp.parent_sets_s"] += dur
        if res is None:
            continue
        if label == "search.max_code_search":
            work["search.max_code_search.nodes"] += res[0]
        elif label == "verify.check_frameproof":
            work["verify.check_frameproof.tests"] += res[2]
        elif label == "verify.check_cff":
            work["verify.check_cff.subsets"] += res[1]
        elif label == "verify.check_ipp":
            work["verify.check_ipp.families"] += res[1]
            work["verify.check_ipp.intersections"] += res[2]
        elif label == "verify.check_ta":
            work["verify.check_ta.coalitions"] += res[1]
            work["verify.check_ta.leaves"] += res[2]
        elif label == "trace.trace_ipp":
            work["trace.trace_ipp.ok"] += int(res[0])
            work["trace.trace_ipp.parent_sets"] += res[1]
        elif label == "bounds.bound_report":
            work["bounds.bound_report.digits"] += res[0]
    return dict(work), dict(times)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(works: list[dict], times: list[dict], extra: dict) -> dict:
    """Per-layer metric values from identical-work passes: counts once, times as medians."""
    work = works[0]
    t = {k: statistics.median(p.get(k, 0.0) for p in times) for k in set().union(*times)}
    out = {name: 0 for name, _, _ in PER_LAYER}
    for name in out:
        if name.endswith(".calls") or name in work:
            out[name] = work.get(name, 0)
        elif name.endswith(".busy_s") and name in t:
            out[name] = t[name]
    s = "search.max_code_search"
    out[f"{s}.self_s"] = t.get(f"{s}.busy_s", 0.0) - t.get(f"{s}.child_s", 0.0)
    out[f"{s}.verify_s"] = t.get(f"{s}.verify_s", 0.0)
    out[f"{s}.accept_ratio"] = _ratio(work.get(f"{s}.verify_held", 0), work.get(f"{s}.verify_calls", 0))
    for label, count, metric, scale in (
        ("search.max_code_search", "nodes", "us_per_node", 1e6),
        ("verify.check_frameproof", "tests", "ns_per_test", 1e9),
        ("verify.check_ipp", "families", "us_per_family", 1e6),
        ("verify.check_ta", "leaves", "us_per_leaf", 1e6),
        ("verify.check_cff", "subsets", "ns_per_subset", 1e9),
        ("trace.trace_ta", "calls", "us_per_call", 1e6),
        ("trace.trace_ipp", "calls", "us_per_call", 1e6),
    ):
        out[f"{label}.{metric}"] = _ratio(
            t.get(f"{label}.busy_s", 0.0), work.get(f"{label}.{count}", 0), scale
        )
    ipp = "trace.trace_ipp"
    out[f"{ipp}.parent_sets_mean"] = _ratio(work.get(f"{ipp}.parent_sets", 0), work.get(f"{ipp}.calls", 0))
    out[f"{ipp}.ok_ratio"] = _ratio(work.get(f"{ipp}.ok", 0), work.get(f"{ipp}.calls", 0))
    out[f"{ipp}.parent_sets_share"] = _ratio(t.get(f"{ipp}.parent_sets_s", 0.0), t.get(f"{ipp}.busy_s", 0.0))
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.busy_ms"] = t.get(f"cli.main.{sub}.busy_s", 0.0) * 1e3
    out.update(extra)
    return out
