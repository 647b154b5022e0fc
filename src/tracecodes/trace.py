"""Tracing algorithms and a pirate/tracer simulation harness."""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import NamedTuple, Sequence

from . import core
from .core import STRATEGY_KINDS, Coalition, Code, Record, Word, record

__all__ = [
    "Accusation",
    "DEFAULT_SEED",
    "MethodStats",
    "PirateStrategy",
    "STRATEGY_KINDS",
    "TracingReport",
    "forge_pirate",
    "simulate_tracing",
    "trace_ipp",
    "trace_ta",
]

#: Fixed fallback seed so unseeded runs are still reproducible.
DEFAULT_SEED = 0xC0DE


class PirateStrategy(Record):
    """How a coalition assembles its forgery, coordinate by coordinate.

    ``first`` copies the lowest-index member, ``interleave`` cycles through
    the members, ``majority``/``minority`` take the most/least frequent
    symbol among the members (ties to the smallest symbol), ``random`` draws
    uniformly from the symbols available at each coordinate.
    """

    _fields = ("kind", "seed")
    kind: str
    seed: int | None

    def __init__(self, kind: str, seed: int | None = None) -> None:
        self.__dict__.update(kind=kind, seed=seed)
        if kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {kind!r}")


@record
class Accusation(NamedTuple):
    """Outcome of one tracing run; ``accused`` holds code indices.

    For the parent-set method ``status`` separates "no coalition of size
    <= t could have produced the word" (``no-parents``) from "parents exist
    but share nobody" (``empty-intersection``); both leave ``accused`` empty.
    """

    method: str  # "TA" | "IPP"
    accused: tuple[int, ...]
    status: str  # "ok" | "no-parents" | "empty-intersection"
    min_distance: int | None = None
    family_size: int | None = None


def trace_ta(code: Code, x: Sequence[int]) -> Accusation:
    """Accuse every codeword at minimum distance from the pirate word: those
    that most of x's columns hold (``Code.word_cols``, ``core.most_held``)."""
    k, nearest = core.most_held(code.word_cols(x), (1 << code.size) - 1)
    return Accusation("TA", tuple(core.elements(nearest)), "ok", min_distance=code.length - k)


def trace_ipp(code: Code, x: Sequence[int], t: int) -> Accusation:
    """Accuse the codewords common to every coalition that could have forged x."""
    family = core.parent_sets(x, code, t)
    if not family.coalitions:
        return Accusation("IPP", (), "no-parents", family_size=0)
    common = family.common_members()
    status = "ok" if common else "empty-intersection"
    return Accusation("IPP", common, status, family_size=len(family.coalitions))


def forge_pirate(code: Code, coalition: Coalition, strategy: PirateStrategy) -> Word:
    """Build a coalition's forgery; always a descendant of the coalition."""
    indices = sorted(set(coalition))
    if not indices:
        raise ValueError("empty coalition")
    if indices[0] < 0 or indices[-1] >= code.size:
        raise ValueError(f"coalition indices out of range: {coalition}")
    members = [code.words[i] for i in indices]
    N = code.length
    if strategy.kind == "first":
        return members[0]
    if strategy.kind == "interleave":
        return tuple(members[i % len(members)][i] for i in range(N))
    if strategy.kind in ("majority", "minority"):
        out = []
        for i in range(N):
            counts = Counter(m[i] for m in members)
            if strategy.kind == "majority":
                out.append(min(counts, key=lambda s: (-counts[s], s)))
            else:
                out.append(min(counts, key=lambda s: (counts[s], s)))
        return tuple(out)
    rng = random.Random(DEFAULT_SEED if strategy.seed is None else strategy.seed)
    profile = core.desc_profile(members)
    return tuple(rng.choice(col) for col in profile)


def _derive_seed(seed: int, index: int) -> int:
    """Counter-split a master seed; stable across platforms and runs."""
    import hashlib  # loads OpenSSL; only a simulation pays for it

    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@record
class MethodStats(NamedTuple):
    subset_rate: float  # accused non-empty and within the coalition
    overlap_rate: float  # accused meets the coalition
    mean_accused: float


@record
class TracingReport(NamedTuple):
    trials: int
    t: int
    strategy: PirateStrategy
    seed: int
    ta: MethodStats
    ipp: MethodStats
    elapsed: float


def simulate_tracing(
    code: Code,
    t: int,
    trials: int,
    strategy: PirateStrategy,
    seed: int | None = None,
) -> TracingReport:
    """Sample random coalitions, forge, trace with both methods, tally rates.

    Coalition sizes are uniform over 1..min(t, n), then a uniform subset of
    that size.  Per-trial randomness is derived from the master seed by
    counter splitting, so reports are reproducible and independent of any
    worker configuration.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    core.require_strength(t)
    seed = DEFAULT_SEED if seed is None else seed
    n = code.size
    stats = {"TA": [0, 0, 0], "IPP": [0, 0, 0]}  # subset hits, overlap hits, accused total
    start = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(_derive_seed(seed, trial))
        size = rng.randint(1, min(t, n))
        coalition = tuple(sorted(rng.sample(range(n), size)))
        strat = strategy
        if strategy.kind == "random":
            strat = strategy._replace(seed=rng.getrandbits(63))
        pirate = forge_pirate(code, coalition, strat)
        inside = set(coalition)
        for accusation in (trace_ta(code, pirate), trace_ipp(code, pirate, t)):
            got = set(accusation.accused)
            row = stats[accusation.method]
            if got and got <= inside:
                row[0] += 1
            if got & inside:
                row[1] += 1
            row[2] += len(got)
    elapsed = time.perf_counter() - start

    def pack(row: list[int]) -> MethodStats:
        return MethodStats(
            subset_rate=row[0] / trials,
            overlap_rate=row[1] / trials,
            mean_accused=row[2] / trials,
        )

    return TracingReport(
        trials=trials,
        t=t,
        strategy=strategy,
        seed=seed,
        ta=pack(stats["TA"]),
        ipp=pack(stats["IPP"]),
        elapsed=elapsed,
    )
