"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one pass over a fixed job
list, and checks every answer against a reference that does not come from
the code path that produced it.  ``run_pass`` yields one ``(label, (start
ns, end ns), result)`` triple per operation, with only the call into
tracecodes inside the timed interval; checks run after the pass.

The seed changes the inputs but not the work: codes are relabelled symbol by
symbol per coordinate (which preserves every property, verdict, witness
index and counter the checkers report), search jobs are shuffled, and
pirate coalitions and forgeries are drawn at random from fixed mixes.  So
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from speed import held
from tracecodes import cli, search, trace, transform, verify
from tracecodes.core import Code
from tracecodes.transform import SetFamily

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

T = 2  # coalition bound of every tracing query and most checks


def child_env() -> dict:
    """Environment of every child interpreter: these sources, no search cache."""
    env = dict(os.environ)
    env.pop("TRACECODES_CACHE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# input generation


def affine_code(p: int, slopes: int, N: int, rng: random.Random) -> Code:
    """Words (a + b*i mod p)_i for b < slopes, a < p, relabelled per coordinate.

    Two words with different slopes agree on at most ceil(N/p) coordinates.
    """
    perms = [rng.sample(range(p), p) for _ in range(N)]
    words = tuple(
        tuple(perms[i][(a + b * i) % p] for i in range(N)) for b in range(slopes) for a in range(p)
    )
    return Code(words, p)


def one_hot(code: Code) -> Code:
    """Binary concatenation: symbol s becomes the q-bit unit vector e_s."""
    q = code.q
    return Code(tuple(tuple(int(s == x) for s in w for x in range(q)) for w in code.words), 2)


def with_forgery(code: Code) -> Code:
    """Prepend a word assembled from codewords 1 and q+1 (even/odd coordinates).

    The new word is a descendant of a 2-coalition, so the result is not
    2-frameproof, and the frameproof scan meets the violation early.
    """
    u, v = code.words[1], code.words[code.q + 1]
    forged = tuple(u[i] if i % 2 == 0 else v[i] for i in range(code.length))
    if forged in code.words:
        raise ValueError("forged word is already a codeword")
    return Code((forged,) + code.words, code.q)


def doubled(code: Code) -> tuple[int, ...]:
    """The benchmark's own FP -> CFF doubling: coordinate i, symbol s -> element 2i+s."""
    return tuple(sum(1 << (2 * i + s) for i, s in enumerate(w)) for w in code.words)


def fused(code: Code, a: int) -> tuple[tuple[int, ...], ...]:
    """The benchmark's own block composition of ``a`` coordinates into one symbol."""
    return tuple(
        tuple(sum(w[b + j] * code.q**j for j in range(a)) for b in range(0, code.length, a))
        for w in code.words
    )


def forge(members: list[tuple[int, ...]], strategy: str, rng: random.Random) -> tuple[int, ...]:
    """A descendant of ``members``: every coordinate copies some member's symbol."""
    N = len(members[0])
    if strategy == "alternate":
        return tuple(members[i % len(members)][i] for i in range(N))
    if strategy == "random":
        return tuple(rng.choice(members)[i] for i in range(N))
    pick = min if strategy == "min-symbol" else max
    return tuple(pick(m[i] for m in members) for i in range(N))


def recheck(witness, subject, t: int) -> str | None:
    """Confirm a violation witness through cli.recheck_witness, a separate code path."""
    problems = cli.recheck_witness(cli.witness_to_json(witness, subject), subject, t)
    return "; ".join(problems) if problems else None


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: op_tail_ms: "max" is the slowest operation of a pass (median over passes),
    #: a number is that percentile over the operations, each at its median over
    #: the passes.  A percentile of a short list of unlike jobs falls between
    #: two jobs and jumps from run to run, so such lists use "max".
    tail: str | int = "max"
    #: operations to time at least, so the printed percentiles have ten samples beyond them.
    min_samples = 1
    #: the job list every pass runs; the seed fixes it.
    inputs: object = None

    def run_pass(self, tracer):
        """Yield ``(label, (start ns, end ns), result)`` per operation, in job-list order."""
        raise NotImplementedError

    def check(self, ops) -> tuple[list[str], list[str]]:
        """(failures, known defects) among the pass's operations."""
        raise NotImplementedError

    def signature(self, ops) -> tuple:
        """Everything deterministic about a pass: answers and work counts."""
        return tuple((label, result) for label, _, result in ops)

    def close(self) -> None:
        pass


def _timed(tracer, job: int, fn):
    if tracer is not None:
        tracer.job = job
    start = time.perf_counter_ns()
    result = fn()
    return (start, time.perf_counter_ns()), result


# ---------------------------------------------------------------------------


class SearchSweep(Workload):
    """Fixed max_code_search problems; the search layer calls the checkers on tiny prefixes."""

    name = "search-sweep"
    # property, N, t, q, goal, budget, frozen optimum, frozen decision, nodes at the seed.
    # Budgeted jobs have no frozen answer: their optimum is only a lower bound.
    JOBS = (
        ("FP", 6, 3, 2, None, None, 6, None, 57982),
        ("FP", 6, 3, 2, 7, None, 6, False, 57974),
        ("CFF", 6, 2, 2, None, None, 6, None, 185431),
        ("CFF", 5, 2, 2, None, None, 5, None, 6882),
        ("FP", 3, 2, 3, None, None, 9, None, 3250),
        ("IPP", 3, 2, 3, None, None, 4, None, 1563),
        ("TA", 3, 2, 3, None, None, 3, None, 585),
        ("FP", 4, 2, 3, None, 5000, None, None, 5001),
        ("IPP", 4, 2, 3, None, 2000, None, None, 2001),
        ("TA", 4, 2, 3, None, 2000, None, None, 2001),
    )
    SMOKE_JOBS = (
        ("FP", 4, 2, 2, None, None, 5, None, 204),
        ("FP", 4, 2, 2, 6, None, 5, False, 197),
        ("CFF", 4, 2, 2, None, None, 4, None, 374),
        ("FP", 2, 2, 3, None, None, 4, None, 40),
        ("IPP", 2, 2, 3, None, None, 3, None, 53),
        ("TA", 2, 2, 3, None, None, 3, None, 36),
        ("IPP", 3, 2, 3, None, 50, None, None, 51),
        ("TA", 3, 2, 3, None, 50, None, None, 51),
    )
    CHECKERS = {"FP": "check_frameproof", "IPP": "check_ipp", "TA": "check_ta", "CFF": "check_cff"}

    def __init__(self, seed: int, smoke: bool) -> None:
        jobs = list(self.SMOKE_JOBS if smoke else self.JOBS)
        random.Random(seed).shuffle(jobs)
        self.jobs = jobs
        self.inputs = tuple(jobs)
        self.problems = [
            search.SearchProblem(
                prop, N=N, t=t, q=q, mode="maximize" if goal is None else "decide", goal=goal
            )
            for prop, N, t, q, goal, *_ in jobs
        ]

    def run_pass(self, tracer):
        for job, (spec, problem) in enumerate(zip(self.jobs, self.problems)):
            budget = spec[5]
            span, res = _timed(tracer, job, lambda: search.max_code_search(problem, budget))
            yield f"{spec[0]} q={spec[3]} N={spec[1]} t={spec[2]}", span, res

    def check(self, ops):
        failures = []
        for spec, (label, _, res) in zip(self.jobs, ops):
            prop, _N, t, _q, goal, budget, optimum, decided, _nodes = spec
            if budget is None:
                if not res.complete:
                    failures.append(f"{label}: search did not complete")
                if res.optimum != optimum or res.decided != decided:
                    failures.append(
                        f"{label}: got optimum {res.optimum} decided {res.decided}, "
                        f"expected {optimum} / {decided}"
                    )
            if decided is False:
                if res.witness is not None:
                    failures.append(f"{label}: a 'no' decision carries a witness")
                continue
            if res.witness is None or res.witness.size != res.optimum:
                failures.append(f"{label}: witness missing or not of the optimum size")
                continue
            if not getattr(verify, self.CHECKERS[prop])(res.witness, t).holds:
                failures.append(f"{label}: witness fails the {prop} checker")
        return failures, []

    def signature(self, ops):
        return tuple(
            (label, r.optimum, r.decided, r.complete, r.nodes, r.witness) for label, _, r in ops
        )

    def moved_node_counts(self, ops) -> list[str]:
        """Jobs whose node count differs from the one frozen at the seed (not a failure)."""
        return [
            f"{label}: {res.nodes} nodes (frozen {spec[8]})"
            for spec, (label, _, res) in zip(self.jobs, ops)
            if res.nodes != spec[8]
        ]


# ---------------------------------------------------------------------------


class VerifyLarge(Workload):
    """One checker call per instance large enough to matter, plus the transforms feeding them."""

    name = "verify-large"
    # Sizes are (p, slopes, N) of affine codes.  At the full size each of the four
    # checkers takes 20-30% of a pass.
    FULL = dict(fp=(11, 3, 5), fp_t=3, cff_t=4, ipp=(7, 2, 6), ta=(13, 3, 5), ta_fail_t=3,
                compose=(5, 3, 4), strip=(7, 2, 18))
    SMOKE = dict(fp=(5, 2, 4), fp_t=2, cff_t=2, ipp=(5, 2, 5), ta=(5, 2, 5), ta_fail_t=3,
                 compose=(3, 3, 3), strip=(5, 2, 9))

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        s = self.SMOKE if smoke else self.FULL
        big = affine_code(*s["fp"], rng)
        forged = with_forgery(big)
        ipp = affine_code(*s["ipp"], rng)
        inputs = {
            "big": big,
            "big bin": one_hot(big),
            "forged": forged,
            "forged bin": one_hot(forged),
            "ipp": ipp,
            "ipp bin": one_hot(ipp),
            "compose src": one_hot(affine_code(*s["compose"], rng)),
            "ta": affine_code(*s["ta"], rng),
            "strip src": affine_code(*s["strip"], rng),
        }
        self.inputs = inputs
        self.made: dict = {}
        width = s["compose"][0]
        fp_t, cff_t = s["fp_t"], s["cff_t"]
        # (label, call(made), check(result, made) -> problem or None); a step's
        # result is stored in ``made`` under its label for the steps after it.
        self.steps = [
            verdict("fp q-ary holds", "check_frameproof", "big", fp_t, True),
            verdict("fp binary holds", "check_frameproof", "big bin", fp_t, True),
            verdict("fp q-ary fails", "check_frameproof", "forged", fp_t, False),
            verdict("fp binary fails", "check_frameproof", "forged bin", fp_t, False),
            ("double", lambda m: transform.fpc_to_cff(m["big bin"]),
             lambda r, m: None if r.members == doubled(m["big bin"]) else "doubling differs"),
            verdict("cff holds", "check_cff", "double", cff_t, True),
            ("double forged", lambda m: transform.fpc_to_cff(m["forged bin"]),
             lambda r, m: None if r.members == doubled(m["forged bin"]) else "doubling differs"),
            verdict("cff fails", "check_cff", "double forged", T, False),
            verdict("ipp q-ary holds", "check_ipp", "ipp", T, True),
            ("pad", lambda m: transform.pad_code(m["ipp"], 3),
             lambda r, m: None if r.words == tuple(w + (0,) * 3 for w in m["ipp"].words)
             else "padding differs"),
            verdict("ipp padded holds", "check_ipp", "pad", T, True),
            verdict("ipp binary fails", "check_ipp", "ipp bin", T, False),
            ("compose", lambda m: transform.block_compose(m["compose src"], width),
             lambda r, m: None if r.words == fused(m["compose src"], width) else "composition differs"),
            verdict("ipp composed fails", "check_ipp", "compose", T, False),
            verdict("ta composed fails", "check_ta", "compose", T, False),
            verdict("ta holds", "check_ta", "ta", T, True),
            verdict("ta fails", "check_ta", "big", s["ta_fail_t"], False),
            ("strip", lambda m: transform.distance_strip(m["strip src"], m["strip src"].length // 9),
             lambda r, m: strip_problem(r, m["strip src"])),
        ]

    def run_pass(self, tracer):
        made = self.made
        made.clear()
        made.update(self.inputs)
        for job, (label, call, _) in enumerate(self.steps):
            span, res = _timed(tracer, job, lambda: call(made))
            made[label] = res
            yield label, span, res

    def check(self, ops):
        failures = []
        for (label, _, check), (_, _, res) in zip(self.steps, ops):
            problem = check(res, self.made)
            if problem:
                failures.append(f"{label}: {problem}")
        return failures, []


def verdict(label: str, checker: str, key: str, t: int, expected: bool):
    """A verify-large step: one checker call, its verdict, and any witness rechecked."""
    def problem(verdict, made) -> str | None:
        if verdict.holds != expected:
            return f"holds={verdict.holds}, expected {expected}"
        return None if verdict.holds else recheck(verdict.witness, made[key], t)

    return label, lambda made: getattr(verify, checker)(made[key], t), problem


def strip_problem(result, code: Code) -> str | None:
    removed, survivors, trace_ = result
    kept = survivors.words if survivors is not None else ()
    if sorted(removed + kept) != sorted(code.words) or set(removed) & set(kept):
        return "strip does not partition the code"
    if tuple(code.words[i] for i in trace_.removed) != removed:
        return "strip trace disagrees with the removed words"
    return None


# ---------------------------------------------------------------------------


class TraceStream(Workload):
    """A stream of forged pirate words, each traced by trace_ta and then trace_ipp."""

    name = "trace-stream"
    tail = 99
    STRATEGIES = ("alternate", "random", "min-symbol", "max-symbol")
    # (p, slopes, N): n = 33, 22 and 14 codes, all 2-traceable by minimum distance.
    FULL = ((11, 3, 5), (11, 2, 5), (7, 2, 6))
    SMOKE = ((5, 2, 5), (7, 2, 6))

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        sizes = self.SMOKE if smoke else self.FULL
        self.codes = [affine_code(*s, rng) for s in sizes]
        for code in self.codes:
            if not verify.ta_distance_sufficient(code, T):
                raise ValueError("trace-stream code is not 2-traceable by distance")
        queries = 60 if smoke else 1200
        self.min_samples = 1 if smoke else 1100
        stream = []
        for k in range(queries):
            code_ix = k % len(self.codes)
            code = self.codes[code_ix]
            size = 1 + (k // len(self.codes)) % T
            strategy = self.STRATEGIES[(k // (len(self.codes) * T)) % len(self.STRATEGIES)]
            coalition = tuple(sorted(rng.sample(range(code.size), size)))
            word = forge([code.words[i] for i in coalition], strategy, rng)
            stream.append((code_ix, coalition, word))
        rng.shuffle(stream)
        self.stream = stream
        self.inputs = tuple(stream)

    def run_pass(self, tracer):
        codes = self.codes
        for job, (code_ix, _, word) in enumerate(self.stream):
            code = codes[code_ix]
            if tracer is not None:
                tracer.job = job
            start = time.perf_counter_ns()
            by_distance = trace.trace_ta(code, word)
            by_parents = trace.trace_ipp(code, word, T)
            yield "query", (start, time.perf_counter_ns()), (by_distance, by_parents)

    def check(self, ops):
        failures = []
        for (code_ix, coalition, word), (_, _, accusations) in zip(self.stream, ops):
            for acc in accusations:
                if not acc.accused or not set(acc.accused) <= set(coalition) or acc.status != "ok":
                    failures.append(
                        f"{acc.method} on code {code_ix} word {word}: accused {acc.accused} "
                        f"({acc.status}), coalition {coalition}"
                    )
        return failures, []


# ---------------------------------------------------------------------------


def _kv(text: str) -> dict:
    """Parse the CLI's aligned ``key  value`` text report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("  ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _indices(text: str) -> set[int]:
    return {int(x) for x in text.strip("[]").split(",") if x.strip()}


def ok(read):
    """Check of a command that must exit 0; ``read(stdout)`` returns a problem or None."""

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        return read(out)

    return check


class CliSession(Workload):
    """A fixed script of ``python -m tracecodes.cli`` processes, one after another."""

    name = "cli-session"
    KNOWN_DEFECT = "integer string conversion"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        wide = affine_code(*((5, 2, 5) if smoke else (11, 3, 5)), rng)
        mid = affine_code(7, 2, 6, rng)
        small = affine_code(5, 2, 4, rng)
        binary = one_hot(small)
        bad = with_forgery(mid)
        family = SetFamily(2 * binary.length, doubled(binary))
        coalition = tuple(sorted(rng.sample(range(wide.size), T)))
        pirate = forge([wide.words[i] for i in coalition], "random", rng)
        verdict = verify.check_frameproof(bad, T)
        files = {
            "wide.txt": cli.render_code_text(wide),
            "mid.txt": cli.render_code_text(mid),
            "bin.txt": cli.render_code_text(binary),
            "bad.txt": cli.render_code_text(bad),
            "fam.txt": cli.render_family_text(family),
            "witness.json": json.dumps(cli.witness_to_json(verdict.witness, bad)),
        }
        for name, text in files.items():
            (self.work / name).write_text(text)
        self.inputs = tuple(sorted(files.items()))
        word = ",".join(map(str, pirate))
        sim_seed = rng.randrange(2**31)
        inside = set(coalition)
        m = ["--format", "machine"]

        def holds(expected: bool, machine: bool, witness_of=None):
            def check(rc, out, err):
                want_rc = 0 if expected else 1
                if rc != want_rc:
                    return f"exit {rc}, expected {want_rc}: {err.strip()[-200:]}"
                got = json.loads(out)["holds"] if machine else _kv(out).get("holds") == "yes"
                if got != expected:
                    return f"holds={got}, expected {expected}"
                if witness_of is not None:
                    return "; ".join(cli.recheck_witness(json.loads(out)["witness"], witness_of, T)) or None
                return None

            return check

        def accused_inside(out: str, machine: bool) -> str | None:
            if machine:
                report = json.loads(out)
                got, status = set(report["accused"]), report["status"]
            else:
                kv = _kv(out)
                got, status = _indices(kv.get("accused", "")), kv.get("status")
            if not got or not got <= inside or status != "ok":
                return f"accused {sorted(got)} ({status}), coalition {sorted(inside)}"
            return None

        def big_bound(rc, out, err):
            # The exact bound has 6021 digits; rendering it trips Python's
            # int-to-str limit today and exits 2 (a known defect, not a pass).
            if rc == 2 and self.KNOWN_DEFECT in err:
                return "known"
            return ok(lambda out: None)(rc, out, err)

        def fp_split(out: str) -> str | None:
            entries = {e["source"]: e for e in json.loads(out)["bounds"]}
            got = entries.get("fp-split", {}).get("value")
            return None if got == 2**668 + 2**666 - 3 else "fp-split bound differs"

        def search_fp(out: str) -> str | None:
            report = json.loads(out)
            if report["optimum"] != 6 or not report["complete"] or report["cached"]:
                return f"optimum {report['optimum']} complete {report['complete']}"
            return None

        def simulates(out: str) -> str | None:
            report = json.loads(out)
            rates = (report["ta"]["subset_rate"], report["ipp"]["subset_rate"])
            return None if rates == (1.0, 1.0) else f"subset rates {rates} on a traceable code"

        def members(out: str) -> tuple[int, ...]:
            return tuple(sum(1 << e for e in m) for m in json.loads(out)["family"]["members"])

        padded = tuple(w + (0, 0) for w in mid.words)
        composed = cli.render_code_text(Code(fused(binary, 5), 2**5))
        # argv, check(rc, stdout, stderr) -> None | "known" | problem
        self.script = [
            (["verify", "--property", "fp", "--t", "2", "wide.txt"], holds(True, False)),
            (["verify", "--property", "ipp", "--t", "2", "mid.txt", *m], holds(True, True)),
            (["verify", "--property", "ta", "--t", "2", "wide.txt"], holds(True, False)),
            (["verify", "--property", "cff", "--t", "3", "fam.txt", *m], holds(True, True)),
            (["verify", "--property", "fp", "--t", "2", "bad.txt", *m], holds(False, True, bad)),
            (["trace", "--scheme", "ta", "--pirate", word, "wide.txt"],
             ok(lambda out: accused_inside(out, False))),
            (["trace", "--scheme", "ipp", "--t", "2", "--pirate", word, "wide.txt", *m],
             ok(lambda out: accused_inside(out, True))),
            (["bounds", "--N", "4", "--q", "3", "--t", "2"], ok(lambda out: None)),
            (["bounds", "--N", "2000", "--q", "2", "--t", "3", *m], ok(fp_split)),
            (["bounds", "--N", "20000", "--q", "2", "--t", "1"], big_bound),
            (["transform", "--op", "double", "bin.txt", *m],
             ok(lambda out: None if members(out) == doubled(binary) else "doubling differs")),
            (["transform", "--op", "compose=5", "bin.txt"],
             ok(lambda out: None if out == composed else "composition differs")),
            (["transform", "--op", "pad=2", "mid.txt", *m],
             ok(lambda out: None if tuple(map(tuple, json.loads(out)["code"]["words"])) == padded
                else "padding differs")),
            (["search", "--property", "fp", "--N", "5", "--t", "2", *m], ok(search_fp)),
            (["simulate", "--t", "2", "--trials", "200", "--seed", str(sim_seed), "mid.txt", *m],
             ok(simulates)),
            (["recheck", "--property", "fp", "--t", "2", "--witness", "witness.json", "bad.txt"],
             ok(lambda out: None if _kv(out).get("confirmed") == "yes" else "witness not confirmed")),
        ]
        # Eight passes: cmd_p90_ms (printed beside the metrics) gets twelve
        # commands beyond it, and child-process medians settle.
        self.min_samples = 1 if smoke else 8 * len(self.script)

    def run_pass(self, tracer):
        for job, (argv, _) in enumerate(self.script):
            if tracer is None:
                cmd = [sys.executable, "-m", "tracecodes.cli", *argv]
            else:
                tracer.job = job
                dump = self.work / f"spans-{job}.json"
                cmd = [sys.executable, str(CLI_CHILD), str(dump), *argv]
                sid = tracer.open_span(f"cli.process.{argv[0]}")
            with held():
                start = time.perf_counter_ns()
                proc = subprocess.run(
                    cmd, cwd=self.work, env=child_env(), capture_output=True, text=True,
                    stdin=subprocess.DEVNULL, timeout=120,
                )
                span = (start, time.perf_counter_ns())
            if tracer is not None:
                tracer.close_span(sid)
                tracer.absorb(str(dump), sid)
                dump.unlink()
            yield argv[0], span, (proc.returncode, proc.stdout, proc.stderr)

    def check(self, ops):
        failures, known = [], []
        for (argv, check), (_, _, (rc, out, err)) in zip(self.script, ops):
            try:
                problem = check(rc, out, err)
            except (ValueError, KeyError, TypeError) as exc:  # unparsable report
                problem = f"report unreadable: {exc!r}"
            if problem == "known":
                known.append(" ".join(argv))
            elif problem:
                failures.append(f"{' '.join(argv)}: {problem}")
        return failures, known

    def signature(self, ops):
        # Exit codes, plus outputs minus the wall-clock fields the CLI prints.
        sig = []
        for (argv, _), (_, _, (rc, out, _err)) in zip(self.script, ops):
            if "--format" in argv and '"elapsed"' in out:
                try:
                    report = json.loads(out)
                except ValueError:  # check() reports it
                    pass
                else:
                    if isinstance(report, dict):
                        report.pop("elapsed", None)
                    out = json.dumps(report, sort_keys=True)
            sig.append((argv[0], rc, out))
        return tuple(sig)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SearchSweep, VerifyLarge, TraceStream, CliSession)}
