"""What the benchmark relies on in the package must hold.

``perfbench/layers.py`` replaces functions by module attribute; a name
removed from ``tracecodes`` would only surface when the benchmark runs.
``perfbench/workloads.py`` freezes the answer of each search job, checked
here and by the benchmark, and a node count that the benchmark checks
only for repeating across passes.  The counts there are those of the loop
before forward checking, so the counts and witnesses of the current loop are
frozen here instead.  The verify-large frameproof, cover-free,
parent-identifiability and traceability verdicts, witnesses and counters
are frozen here too, with its distance strip, and one search-sweep pass
(small and full), one small verify-large pass and one small trace-stream
pass run with their checks.
Both files are loaded as data here, without installing wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tracecodes import cli, search, transform, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    # workloads.py imports its sibling module ``speed``.
    sys.path.insert(0, str(PERFBENCH))
    try:
        path = PERFBENCH / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


_LAYERS = _load("layers")
WRAPPED = [
    (mod, fn)
    for table in (_LAYERS.SPANNED, _LAYERS.COUNTED)
    for mod, fns in table.items()
    for fn in fns
] + [("cli", "main")]


@pytest.mark.parametrize("mod,fn", WRAPPED, ids=[f"{m}.{f}" for m, f in WRAPPED])
def test_wrapped_name_exists(mod, fn):
    module = importlib.import_module(f"tracecodes.{mod}")
    assert callable(getattr(module, fn, None)), f"tracecodes.{mod}.{fn}"


WORKLOADS = _load("workloads")
SWEEP = WORKLOADS.SearchSweep
SWEEP_JOBS = SWEEP.JOBS + SWEEP.SMOKE_JOBS


# Each search-sweep job's test count and witness (words as digit strings,
# families as member masks).  Every complete witness is the one the loop
# before forward checking returned.  A budget buys a different search under
# each count, so the budget stops reach other codes: the q=3 IPP and TA
# jobs at N=4 reach 4 and 9 words where that loop reached 3, and at N=3
# reach 2 where it reached 3; the FP one reaches the same 10 words.
SWEEP_FROZEN = {
    ("FP", 6, 3, 2, None, None): (
        19685, ("000000", "000011", "000101", "001001", "010001", "100001"),
    ),
    ("FP", 6, 3, 2, 7, None): (19685, None),
    ("CFF", 6, 2, 2, None, None): (53428, (1, 2, 4, 8, 16, 32)),
    ("CFF", 5, 2, 2, None, None): (2912, (1, 2, 4, 8, 16)),
    ("FP", 3, 2, 3, None, None): (
        2261, ("000", "011", "022", "101", "112", "120", "202", "210", "221"),
    ),
    ("IPP", 3, 2, 3, None, None): (1213, ("000", "011", "102", "220")),
    ("TA", 3, 2, 3, None, None): (420, ("000", "001", "002")),
    ("FP", 4, 2, 3, None, 5000): (
        5001,
        ("0000", "0001", "0112", "0222", "1012", "1122", "1202", "2022", "2102", "2212"),
    ),
    ("IPP", 4, 2, 3, None, 2000): (2001, ("0000", "0011", "0102", "0220")),
    ("TA", 4, 2, 3, None, 2000): (
        2001,
        ("0000", "0111", "0222", "1012", "1120", "1201", "2021", "2102", "2210"),
    ),
    ("FP", 4, 2, 2, None, None): (155, ("0000", "0011", "0101", "1001", "1110")),
    ("FP", 4, 2, 2, 6, None): (154, None),
    ("CFF", 4, 2, 2, None, None): (236, (1, 2, 4, 8)),
    ("FP", 2, 2, 3, None, None): (45, ("00", "01", "12", "22")),
    ("IPP", 2, 2, 3, None, None): (51, ("00", "01", "02")),
    ("TA", 2, 2, 3, None, None): (35, ("00", "01", "02")),
    ("IPP", 3, 2, 3, None, 50): (51, ("000", "001")),
    ("TA", 3, 2, 3, None, 50): (51, ("000", "001")),
}


def _witness_key(witness):
    if witness is None:
        return None
    if isinstance(witness, transform.SetFamily):
        return witness.members
    return tuple("".join(map(str, word)) for word in witness.words)


@pytest.mark.parametrize(
    "job", SWEEP_JOBS, ids=["{}-N{}-t{}-q{}-goal{}-budget{}".format(*j[:6]) for j in SWEEP_JOBS]
)
def test_search_sweep_frozen_answers(job):
    """Each job's frozen optimum and decision from perfbench, its count and witness from here.

    perfbench's ``JOBS`` keep the node counts of the loop before forward
    checking, so ``run.py`` prints "node count moved (a count, not a
    failure)" for each job until the next benchmark change re-freezes that
    column from ``SWEEP_FROZEN``.
    """
    prop, N, t, q, goal, budget, optimum, decided, _ = job
    mode = "maximize" if goal is None else "decide"
    problem = search.SearchProblem(prop, N=N, t=t, q=q, mode=mode, goal=goal)
    res = search.max_code_search(problem, budget)
    assert (res.nodes, _witness_key(res.witness)) == SWEEP_FROZEN[job[:6]]
    if budget is None:  # a budget stop's optimum is only a lower bound
        assert res.complete
        assert (res.optimum, res.decided) == (optimum, decided)


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_search_sweep_pass_checks(smoke):
    # One pass and the benchmark's own checks: frozen optima and decisions
    # (a decide "no" included), complete runs, witnesses of the optimum size
    # that pass their checker.
    sweep = SWEEP(1, smoke=smoke)
    ops = list(sweep.run_pass(None))
    assert len(ops) == len(sweep.jobs)
    assert sweep.check(ops) == ([], [])


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_large_cover_verdicts(seed):
    # The relabelling a seed applies leaves every verdict, witness and counter as it is.
    large = WORKLOADS.VerifyLarge(seed, smoke=False)
    made, fp_t, cff_t = large.inputs, large.FULL["fp_t"], large.FULL["cff_t"]
    framed = verify.FramedWord(0, (2, 13))
    for key in ("big", "big bin"):
        assert verify.check_frameproof(made[key], fp_t) == verify.Verdict(
            "FP", fp_t, True, None, verify.Counters(181104, 181104)
        )
    for key in ("forged", "forged bin"):
        assert verify.check_frameproof(made[key], fp_t) == verify.Verdict(
            "FP", fp_t, False, framed, verify.Counters(76, 76)
        )
    assert verify.check_cff(transform.fpc_to_cff(made["big bin"]), cff_t) == verify.Verdict(
        "CFF", cff_t, True, None, verify.Counters(1367784, 0)
    )
    assert verify.check_cff(transform.fpc_to_cff(made["forged bin"]), WORKLOADS.T) == verify.Verdict(
        "CFF", WORKLOADS.T, False, verify.CoverViolation(0, (2, 13)), verify.Counters(76, 0)
    )


@pytest.mark.parametrize("seed,bin_blocks", [(1, 443), (2, 437)])
def test_verify_large_ipp_verdicts(seed, bin_blocks, no_walk):
    # The relabelling a seed applies moves the witness word, so it is rechecked.
    large = WORKLOADS.VerifyLarge(seed, smoke=False)
    made, T = large.inputs, WORKLOADS.T
    codes = {
        "ipp": made["ipp"],
        "pad": transform.pad_code(made["ipp"], 3),
        "ipp bin": made["ipp bin"],
        "compose": transform.block_compose(made["compose src"], large.FULL["compose"][0]),
    }
    expected = {
        "ipp": (True, None, verify.Counters(5824, 1468)),
        "pad": (True, None, verify.Counters(5824, 1468)),
        "ipp bin": (False, ((0, 1), (2, 3)), verify.Counters(1390, bin_blocks)),
        "compose": (False, ((0, 1), (5, 8)), verify.Counters(1742, 358)),
    }
    for key, code in codes.items():
        verdict = verify.check_ipp(code, T)
        coalitions = None if verdict.witness is None else verdict.witness.coalitions
        assert (verdict.holds, coalitions, verdict.counters) == expected[key], key
        if verdict.witness is not None:
            assert cli.recheck_witness(cli.witness_to_json(verdict.witness, code), code, T) == []


@pytest.mark.parametrize(
    "seed,big_witness,compose_witness",
    [(1, (19, 3, 3), (11, 2, 2)), (2, (20, 3, 2), (8, 2, 2))],
)
def test_verify_large_ta_verdicts(seed, big_witness, compose_witness):
    # The relabelling a seed applies moves the pirate word and the outsider,
    # so witnesses are frozen as (coalition, outsider, insider and outsider
    # distances) and rechecked.
    large = WORKLOADS.VerifyLarge(seed, smoke=False)
    made = large.inputs
    codes = {
        "ta": (made["ta"], WORKLOADS.T),
        "big": (made["big"], large.FULL["ta_fail_t"]),
        "compose": (
            transform.block_compose(made["compose src"], large.FULL["compose"][0]),
            WORKLOADS.T,
        ),
    }
    expected = {
        "ta": (True, None, verify.Counters(780, 0)),
        "big": (False, ((0, 1, 2), *big_witness), verify.Counters(562, 1)),
        "compose": (False, ((0, 1), *compose_witness), verify.Counters(16, 2)),
    }
    for key, (code, t) in codes.items():
        verdict = verify.check_ta(code, t)
        w = verdict.witness
        seen = None if w is None else (
            w.coalition, w.outsider, w.insider_distance, w.outsider_distance
        )
        assert (verdict.holds, seen, verdict.counters) == expected[key], key
        if w is not None:
            assert cli.recheck_witness(cli.witness_to_json(w, code), code, t) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_large_strip(seed):
    # The relabelling a seed applies moves the words but not the trace: at
    # d = 15 > 2t case C's threshold 2**2 * C(16, 2) = 480 exceeds every
    # pattern count of 14 words, so all of them are removed, in order.
    large = WORKLOADS.VerifyLarge(seed, smoke=False)
    code = large.inputs["strip src"]
    removed, survivors, trace_ = transform.distance_strip(code, code.length // 9)
    assert (code.size, code.length, code.q) == (14, 18, 7)
    assert trace_ == transform.StripTrace(
        case="C", d_before=15, d_after=float("inf"), delta=1, threshold=480,
        removed=tuple(range(14)), survivors=(), diagnostics=None,
    )
    assert removed == code.words and survivors is None


def test_verify_large_smoke_pass_checks():
    # One pass and its checks: every witness the workload rechecks, rechecked.
    large = WORKLOADS.VerifyLarge(1, smoke=True)
    ops = list(large.run_pass(None))
    assert [label for label, _, _ in ops] == [label for label, _, _ in large.steps]
    assert large.check(ops) == ([], [])


def test_trace_stream_smoke_pass_checks():
    # One pass and its checks: both accusations of every word non-empty,
    # "ok" and inside the coalition that forged it.
    stream = WORKLOADS.TraceStream(1, smoke=True)
    ops = list(stream.run_pass(None))
    assert len(ops) == len(stream.stream)
    assert stream.check(ops) == ([], [])
