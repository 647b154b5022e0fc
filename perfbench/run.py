#!/usr/bin/env python3
"""Benchmark of tracecodes: time to an exact answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from anywhere; it benchmarks the tracecodes sources in ``src/`` next
to this directory, using the standard library only.  One process runs one
workload as a closed loop with one client: each operation starts when the
previous one has answered, and the only other process ever alive is one CLI
child (cli-session, and the import probes of the set-up).

Set-up (``setup_s``) is the import of the package in a fresh interpreter
(median of three child processes), the generation of the inputs from the
seed (median of three), and one untimed warm-up pass over the job list.
Then whole passes run until ``--seconds`` have gone by, at least two of them
and as many as the workload needs for its percentiles.  Every answer of
every pass is checked after the pass, outside the timed section.

End-to-end metrics (``--trace 0``):

* ``wall_s``: one pass over the fixed job list, median over passes;
* ``op_tail_ms``: for trace-stream, p99 over the queries, each at its
  median over the passes; for the fixed lists of unlike jobs of the other
  workloads, the slowest operation of a pass, median over passes;
* ``peak_rss_mb``: the process's peak RSS, or the largest CLI child's.

Times are normalised by ``speed.SpeedClock`` to one machine speed.  The
latency percentiles of the two homogeneous workloads (query_p50_us,
query_p99_us, cmd_p50_ms, cmd_p90_ms) and failed_frac, which counts the
known defects too, are printed above the result line with their sample
counts.  Medians of single operations are not among the metrics: on a
shared 2-core machine they moved by up to 9% between sets of ten runs,
where the pass times and tails above moved by 5% at most.

``--trace 1`` alternates untraced passes with passes run under the
per-layer wrappers of ``layers.py`` and prints the per-layer metrics, the
tracing overhead (traced minus untraced pass time) among them; its spans
go to ``.perfbench_out/spans-<workload>.tsv``.

Work counts (nodes, families, tests, leaves, coalitions, subsets, call
counts) must repeat exactly in every pass, traced or not.  When they do not,
the run stops as a benchmark fault: exit code 3 and no result line.  Exit
code 2 means the sources are missing.

``--smoke`` runs every workload at a tiny size, untraced and traced, with
all answer and determinism checks and no timing assertions, and checks that
BENCHMARK.json lists what this script prints.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{"name": {"value", "unit"}}``).
The lines before it give the figures by name for people, with the Python
version, commit, CPU count, seed and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from speed import SpeedClock, held

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_MISSING = 2
EXIT_FAULT = 3
SETUP_REPEATS = 3
MIN_PASSES = 2
CLI_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchFault(Exception):
    """The benchmark itself misbehaved; no result may be printed."""


def child_span(code: str) -> tuple[int, int]:
    """Interval of one fresh interpreter running ``code``, start to exit."""
    from workloads import child_env

    with held():
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)
        return start, time.perf_counter_ns()


def import_span() -> tuple[int, int]:
    """Interval a fresh interpreter spends importing the whole package, CLI included."""
    from workloads import child_env

    probe = ("import time; s = time.perf_counter_ns(); import tracecodes.cli; "
             "print(s, time.perf_counter_ns())")
    with held():
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    start, end = map(int, out.stdout.split())
    return start, end


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[str] = []

    def add(self, wl, ops) -> None:
        failures, known = wl.check(ops)
        self.attempted += len(ops)
        self.failures += failures
        self.known += known


def same_work(reference, ops, wl, what: str) -> None:
    if wl.signature(ops) != reference:
        raise BenchFault(f"{wl.name}: answers or work counts of {what} differ from the warm-up pass")


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    from workloads import OUT, WORKLOADS, CliSession, SearchSweep

    cls = WORKLOADS[name]
    tally = Tally()
    with SpeedClock() as clock:
        imports = [import_span() for _ in range(SETUP_REPEATS)]
        gens, wl = [], None
        try:
            for _ in range(SETUP_REPEATS):
                previous = wl
                start = time.perf_counter_ns()
                wl = cls(seed, smoke)
                gens.append((start, time.perf_counter_ns()))
                if previous is not None and previous.inputs != wl.inputs:
                    raise BenchFault(f"{name}: inputs generated twice from seed {seed} differ")
            warm = list(wl.run_pass(None))
            reference = wl.signature(warm)
            tally.add(wl, warm)
            if traced:
                passes = traced_passes(wl, seconds, reference, tally)
            else:
                passes = plain_passes(wl, seconds, reference, tally)
            # A CLI command's memory is its child's: take the largest child.
            who = resource.RUSAGE_CHILDREN if isinstance(wl, CliSession) else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
            if traced and isinstance(wl, CliSession):
                probes = [(child_span("pass"), child_span("import tracecodes.cli"))
                          for _ in range(CLI_PROBES)]
        finally:
            if wl is not None:
                wl.close()

    def pass_seconds(spans) -> float:
        return sum(clock.seconds(*span) for span in spans)

    setup_s = (
        statistics.median(clock.seconds(*span) for span in imports)
        + statistics.median(clock.seconds(*span) for span in gens)
        + pass_seconds(span for _, span, _ in warm)
    )
    result = {"workload": name, "tally": tally, "setup_s": setup_s, "scale": clock.mean_scale()}
    if isinstance(wl, SearchSweep):
        result["moved"] = wl.moved_node_counts(warm)
    if not traced:
        per_pass = [[clock.seconds(*span) for span in pairs(spans)] for spans in passes]
        flat = sorted(dt for times in per_pass for dt in times)
        if wl.tail == "max":
            tail = statistics.median(max(times) for times in per_pass)
        else:
            # Each query at its median over the passes, then the percentile over
            # the queries: the tail of the query mix, not of the machine's hiccups.
            tail = percentile(sorted(statistics.median(t) for t in zip(*per_pass)), wl.tail)
        result.update(
            wall_s=statistics.median(map(sum, per_pass)),
            op_tail_ms=tail * 1e3,
            peak_rss_mb=peak_rss_mb,
            passes=len(per_pass),
            samples=len(flat),
            flat=flat,
            tail=wl.tail,
        )
        return result

    from layers import layer_metrics, pass_summary

    tracer, plain, traced_ops, marks = passes
    works, times = [], []
    for (lo, hi, counts) in marks:
        work, spent = pass_summary(tracer.spans[lo:hi], counts, clock.seconds)
        if works and work != works[0]:
            moved = sorted(k for k in set(work) | set(works[0]) if work.get(k) != works[0].get(k))
            raise BenchFault(f"{name}: traced work counts differ between passes: {moved}")
        works.append(work)
        times.append(spent)
    plain_s = statistics.median(pass_seconds(pairs(spans)) for spans in plain)
    traced_s = statistics.median(pass_seconds(pairs(spans)) for spans in traced_ops)
    extra = {"bench.trace_overhead_s": traced_s - plain_s}
    if isinstance(wl, CliSession):
        interp = statistics.median(clock.seconds(*bare) for bare, _ in probes)
        imported = statistics.median(clock.seconds(*full) for _, full in probes)
        extra["cli.interp_ms"] = interp * 1e3
        extra["cli.import_ms"] = (imported - interp) * 1e3
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}.tsv"
    tracer.write_spans(str(spans_file), {"workload": name, "seed": seed, "traced_passes": len(marks)})
    result.update(
        layers=layer_metrics(works, times, extra),
        passes=len(marks),
        plain_wall_s=plain_s,
        traced_wall_s=traced_s,
        spans_file=str(spans_file.relative_to(ROOT)),
        spans=len(tracer.spans),
    )
    return result


def spans_of(ops) -> array:
    """Start and end of each operation, packed flat.  Results are dropped once
    checked, so the benchmark's own memory stays small next to the program's."""
    return array("q", (t for _, span, _ in ops for t in span))


def pairs(packed: array):
    return zip(packed[::2], packed[1::2])


def plain_passes(wl, seconds: float, reference, tally: Tally) -> list:
    """Whole passes until ``seconds`` have gone by and the tail has enough samples."""
    passes = []
    begin = time.perf_counter()
    while (
        len(passes) < MIN_PASSES
        or time.perf_counter() - begin < seconds
        or sum(map(len, passes)) // 2 < wl.min_samples
    ):
        ops = list(wl.run_pass(None))
        same_work(reference, ops, wl, f"pass {len(passes) + 1}")
        tally.add(wl, ops)
        passes.append(spans_of(ops))
    return passes


def traced_passes(wl, seconds: float, reference, tally: Tally):
    """Untraced and traced passes in turn; returns the tracer and both kinds of pass."""
    from layers import Tracer

    tracer = Tracer()
    plain, traced, marks = [], [], []
    begin = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - begin < seconds:
        ops = list(wl.run_pass(None))
        same_work(reference, ops, wl, "an untraced pass")
        tally.add(wl, ops)
        plain.append(spans_of(ops))

        mark, before = len(tracer.spans), Counter(tracer.counts)
        tracer.install()
        try:
            ops = list(wl.run_pass(tracer))
        finally:
            tracer.uninstall()
        same_work(reference, ops, wl, "a traced pass")
        tally.add(wl, ops)
        traced.append(spans_of(ops))
        marks.append((mark, len(tracer.spans), tracer.counts - before))
    return tracer, plain, traced, marks


# ---------------------------------------------------------------------------
# reporting

# Percentiles over every operation timed, printed by the names people use for them.
PERCENTILES = {
    "trace-stream": (("query_p50_us", 50, 1e6, "us"), ("query_p99_us", 99, 1e6, "us")),
    "cli-session": (("cmd_p50_ms", 50, 1e3, "ms"), ("cmd_p90_ms", 90, 1e3, "ms")),
}


def report(result: dict, seed: int, traced: bool) -> dict:
    from layers import PER_LAYER, PER_LAYER_UNITS

    tally = result["tally"]
    name = result["workload"]
    scale = result["scale"]
    env = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "time_scale": scale,
        "workload": name,
        "trace": int(traced),
    }
    lines = [
        f"workload {name}  seed {seed}  trace {int(traced)}  passes {result['passes']}",
        f"  times are normalised to the speed kernel (mean scale {scale:.4f} in this run)",
    ]
    if traced:
        values = result["layers"]
        metrics = {m: {"value": values[m], "unit": PER_LAYER_UNITS[m]} for m, _, _ in PER_LAYER}
        idle = [m for m, _, _ in PER_LAYER if not values[m]]
        lines += [f"  {m:<44} {v['value']:.6g} {v['unit']}" for m, v in metrics.items() if v["value"]]
        lines.append(f"  not exercised by this workload (reported as 0): {len(idle)} metrics")
        lines.append("  dropped: none; FP searches check prefixes with private routines, "
                     "so their verify_* share reads 0 from outside")
        lines.append(
            f"  tracing overhead {values['bench.trace_overhead_s']:.4f} s per pass "
            f"(traced {result['traced_wall_s']:.4f} s, untraced {result['plain_wall_s']:.4f} s); "
            f"{result['spans']} spans in {result['spans_file']}"
        )
        env["samples"] = {"traced_passes": result["passes"]}
    else:
        metrics = {m: {"value": result[m], "unit": unit} for m, unit in END_TO_END.items()}
        for m, v in metrics.items():
            lines.append(f"  {m:<12} {v['value']:.6f} {v['unit']}")
        tail = "slowest op per pass" if result["tail"] == "max" else f"p{result['tail']}"
        lines.append(f"  op samples {result['samples']} over {result['passes']} passes; tail = {tail}")
        for alias, pct, factor, unit in PERCENTILES.get(name, ()):
            value = percentile(result["flat"], pct) * factor
            lines.append(f"  {alias:<12} {value:.3f} {unit} ({result['samples']} samples)")
        env["samples"] = {"ops": result["samples"], "passes": result["passes"], "tail": result["tail"]}
    failed_frac = (len(tally.failures) + len(tally.known)) / tally.attempted
    lines.append(
        f"  failed_frac  {failed_frac:.6f} ({len(tally.failures)} failed + {len(tally.known)} known "
        f"defect of {tally.attempted} ops)"
    )
    for known in sorted(set(tally.known)):
        lines.append(f"  known defect (counted in failed_frac, not in failed): {known}")
    for failure in tally.failures[:20]:
        lines.append(f"  FAILED {failure}")
    for moved in result.get("moved", []):
        lines.append(f"  node count moved (a count, not a failure): {moved}")
    print("\n".join(lines))
    print("env " + json.dumps(env))
    final = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    return final


def declared_matches() -> bool:
    """Does BENCHMARK.json name exactly the workloads and metrics this script prints?"""
    from layers import PER_LAYER
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    same = (
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
        and [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END.items())
        and [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)
    )
    print(f"smoke BENCHMARK.json: {'matches' if same else 'DIFFERS from'} run.py")
    return same


def smoke() -> int:
    from workloads import WORKLOADS

    ok = declared_matches()
    for name in WORKLOADS:
        for traced in (False, True):
            result = measure(name, seed=1, seconds=0, traced=traced, smoke=True)
            final = report(result, 1, traced)
            print(f"smoke {name} trace={int(traced)}: "
                  f"{'ok' if final['correct'] else 'FAILED'} ({final['attempted']} ops)")
            ok = ok and final["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("search-sweep", "verify-large", "trace-stream", "cli-session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at a tiny size, no timing")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "tracecodes" / "__init__.py").is_file():
        print(f"error: no tracecodes sources under {SRC}", file=sys.stderr)
        return EXIT_MISSING
    sys.path.insert(0, str(SRC))
    import tracecodes

    if Path(tracecodes.__file__).resolve().parent != SRC / "tracecodes":
        print(f"error: imported tracecodes from {tracecodes.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_MISSING
    try:
        if args.smoke:
            return smoke()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
        final = report(result, args.seed, bool(args.trace))
    except BenchFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
