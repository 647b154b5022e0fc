"""Exhaustive extremal searches by depth-first lexicographic extension.

Codes grow one word at a time in ascending base-q order (first coordinate
most significant, so numeric order is word order).  All the properties
searched here are hereditary — every subcode of a good code is good — so a
prefix that fails the property prunes its whole subtree.  One loop walks
every tree over an explicit frontier (the chosen prefix and the next
candidate at each depth), not the Python call stack, so a search may grow a
code or family as large as its candidate space.  Code searches fix the
all-zero word at the root: relabelling symbols coordinate-wise maps any
code onto one containing it and preserves frameproofness, identifiability
and traceability alike.  Set families get no such relabelling (covering is
not invariant under it), so family searches enumerate candidate members in
plain ascending mask order with no normalisation.

Frameproof codes and cover-free families share one incremental extension
test: a code is t-frameproof exactly when the family of its one-hot word
sets (``core.onehot``) is t-cover-free, and only covers involving the
incoming member need a look.  Identifiability and traceability re-run
their full verifier on the extended prefix: correctness first, these
searches live at desk scale.

Node counts are deterministic: one node per attempted extension, no
parallelism, no randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterable

from . import core, verify
from .core import Code, Word
from .transform import SetFamily

__all__ = [
    "LengthProbe",
    "MinLengthResult",
    "RegionEntry",
    "RegionReport",
    "SandwichReport",
    "SearchProblem",
    "SearchResult",
    "max_code_search",
    "min_length_sandwich",
    "min_length_search",
    "verify_upper_bound_region",
]

PROPERTIES = ("FP", "IPP", "TA", "CFF")

#: Refuse to enumerate candidate spaces larger than this.
DEFAULT_ENUMERATION_CAP = 2**22


@dataclass(frozen=True)
class SearchProblem:
    property: str
    N: int
    t: int
    q: int = 2
    mode: str = "maximize"  # or "decide"
    goal: int | None = None

    def __post_init__(self) -> None:
        if self.property not in PROPERTIES:
            raise ValueError(f"unknown property {self.property!r}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if self.t < 1:
            raise ValueError(f"need t >= 1, got {self.t}")
        if self.q < 2:
            raise ValueError(f"need q >= 2, got {self.q}")
        if self.property == "CFF" and self.q != 2:
            raise ValueError("family searches are binary by nature; leave q=2")
        if self.mode not in ("maximize", "decide"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "decide":
            if self.goal is None or self.goal < 1:
                raise ValueError("decide mode needs a positive goal")
        elif self.goal is not None:
            raise ValueError("goal only makes sense in decide mode")


@dataclass(frozen=True)
class SearchResult:
    problem: SearchProblem
    optimum: int
    decided: bool | None
    witness: Code | SetFamily | None
    nodes: int
    elapsed: float
    complete: bool
    budget: int | None


def _decode_word(value: int, N: int, q: int) -> Word:
    digits = []
    for _ in range(N):
        digits.append(value % q)
        value //= q
    return tuple(reversed(digits))


def _covered(target: int, base: int, pool: list[int], most: int) -> bool:
    """Is ``target`` inside ``base`` joined by at most ``most`` members of ``pool``?"""
    for size in range(min(most, len(pool)) + 1):
        for group in combinations(pool, size):
            union = base
            for m in group:
                union |= m
            if target & ~union == 0:
                return True
    return False


def _cover_free_ok(masks: list[int], new: int, t: int) -> bool:
    """Does adding ``new`` keep ``masks`` t-cover-free, given they already are?

    Only covers involving the new member need a look: the new member inside
    the union of at most t old ones, and an old member inside the new one
    joined by at most t-1 others.  Groups of size 0 count: the empty member
    is covered by the empty union, and an old member may lie inside the new
    one alone.
    """
    if _covered(new, 0, masks, t):
        return False
    return not any(
        _covered(target, new, masks[:ci] + masks[ci + 1 :], t - 1)
        for ci, target in enumerate(masks)
    )


def max_code_search(
    problem: SearchProblem,
    budget: int | None = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SearchResult:
    """Run the search to completion, a decision, or budget exhaustion.

    ``optimum`` is the largest size reached (a lower bound when truncated);
    ``complete`` certifies the tree was exhausted, which for maximize mode
    is the proof of optimality.  Decide mode reports ``decided=None`` when
    the budget ran out before either answer.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"need a node budget >= 0, got {budget}")
    start = time.perf_counter()
    N, q, t, prop = problem.N, problem.q, problem.t, problem.property
    total = q**N
    if total > enumeration_cap:
        raise ValueError(f"candidate space {q}**{N} exceeds enumeration cap {enumeration_cap}")
    decode = partial(_decode_word, N=N, q=q)
    cover_free_ok = partial(_cover_free_ok, t=t)
    check = verify.check_ipp if prop == "IPP" else verify.check_ta

    def holds_ok(items: list[Word], new: Word) -> bool:
        return check(Code(tuple(items) + (new,), q), t).holds

    # Codes start from the all-zero word, which relabelling symbols per
    # coordinate puts in any code.  Families have no root: candidate 0, the
    # empty member, is covered by the empty union.
    if prop == "CFF":
        encode, extend_ok, root = (lambda mask: mask), cover_free_ok, []
    elif prop == "FP":
        encode, extend_ok, root = (lambda cand: core.onehot(decode(cand), q)), cover_free_ok, [0]
    else:
        encode, extend_ok, root = decode, holds_ok, [0]
    best, decided, nodes, complete = _dfs(problem, budget, total, encode, extend_ok, root)
    if problem.mode == "decide" and decided is not True:
        witness = None
    elif prop == "CFF":
        witness = SetFamily(N, tuple(best)) if best else None
    else:
        witness = Code(tuple(decode(c) for c in best), q)
    return SearchResult(
        problem=problem,
        optimum=len(best),
        decided=decided,
        witness=witness,
        nodes=nodes,
        elapsed=time.perf_counter() - start,
        complete=complete,
        budget=budget,
    )


def _dfs(
    problem: SearchProblem,
    budget: int | None,
    total: int,
    encode: Callable[[int], Any],
    extend_ok: Callable[[list, Any], bool],
    root: list[int],
) -> tuple[list[int], bool | None, int, bool]:
    """Extend ``root`` by candidates 1..total-1 in ascending order, depth first.

    ``encode`` turns a candidate into the item ``extend_ok(items, item)``
    judges against the items already chosen; a rejected candidate prunes its
    subtree.  The frontier is plain data: ``chosen``/``items`` hold the
    current prefix and ``following[d]`` the next candidate to try at depth
    d, so depth is bounded only by the candidate space.  A depth is popped
    once too few candidates remain to beat the best (maximize) or to reach
    the goal (decide).  Returns the best candidate list, the decision (None
    unless deciding and answered), the node count and whether the tree was
    exhausted or the goal met.
    """
    deciding = problem.mode == "decide"
    goal = problem.goal or 0
    chosen = list(root)
    items = [encode(c) for c in root]
    following = [1]
    best = list(chosen)
    nodes = 0
    while True:
        if deciding and len(chosen) >= goal:
            return best, True, nodes, True
        cand = following[-1]
        room = len(chosen) + (total - cand)
        if (room < goal) if deciding else (room <= len(best)):
            if len(following) == 1:
                return best, (False if deciding else None), nodes, True
            following.pop()
            chosen.pop()
            items.pop()
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            return best, None, nodes, False
        following[-1] = cand + 1
        item = encode(cand)
        if extend_ok(items, item):
            chosen.append(cand)
            items.append(item)
            following.append(cand + 1)
            if len(chosen) > len(best):
                best = list(chosen)


@dataclass(frozen=True)
class RegionEntry:
    N: int
    in_window: bool  # within the guaranteed band t+1 <= N <= 3t (t >= 3)
    confirmed: bool | None
    nodes: int
    witness: Code | None


@dataclass(frozen=True)
class RegionReport:
    t: int
    entries: tuple[RegionEntry, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(e.confirmed is True for e in self.entries)


def verify_upper_bound_region(
    t: int, lengths: Iterable[int], budget: int | None = None
) -> RegionReport:
    """Decide, per length, whether any binary t-frameproof code beats N words.

    ``confirmed=True`` means the cap M <= N holds by exhaustion; a
    counterexample (confirmed=False) comes with its witness.  Lengths
    outside the guaranteed band are still decided and flagged as
    search-only facts.
    """
    entries = []
    for N in lengths:
        problem = SearchProblem("FP", N=N, t=t, q=2, mode="decide", goal=N + 1)
        res = max_code_search(problem, budget)
        confirmed = None if res.decided is None else not res.decided
        entries.append(
            RegionEntry(
                N=N,
                in_window=t >= 3 and t + 1 <= N <= 3 * t,
                confirmed=confirmed,
                nodes=res.nodes,
                witness=res.witness if res.decided else None,
            )
        )
    return RegionReport(t=t, entries=tuple(entries))


@dataclass(frozen=True)
class LengthProbe:
    N: int
    decided: bool | None
    nodes: int


@dataclass(frozen=True)
class MinLengthResult:
    property: str
    t: int
    value: int | None
    lower_bound: int
    probes: tuple[LengthProbe, ...]
    witness: Code | SetFamily | None
    complete: bool


def min_length_search(
    t: int,
    property: str = "CFF",
    budget: int | None = None,
    start_length: int = 1,
    max_length: int = 16,
) -> MinLengthResult:
    """Smallest length where the property admits more objects than coordinates.

    Scans N upward, deciding "size N+1 achievable?" at each length.  On
    budget exhaustion the first undecided length is reported as a lower
    bound on the answer.  Note the degenerate fact at length 1 for codes:
    the two-word binary line is t-frameproof for every t, so the literal
    answer for FP is 1; pass ``start_length=2`` to ask about longer lengths.
    """
    if property not in ("FP", "CFF"):
        raise ValueError(f"min-length search covers FP and CFF, got {property!r}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if start_length > max_length:
        raise ValueError(f"empty length range {start_length}..{max_length}")
    probes: list[LengthProbe] = []
    for N in range(start_length, max_length + 1):
        problem = SearchProblem(property, N=N, t=t, q=2, mode="decide", goal=N + 1)
        res = max_code_search(problem, budget)
        probes.append(LengthProbe(N=N, decided=res.decided, nodes=res.nodes))
        if res.decided is not False:
            break
    # Found (True), budget stop (None), or every length in range refuted (False).
    return MinLengthResult(
        property=property,
        t=t,
        value=N if res.decided else None,
        lower_bound=N + 1 if res.decided is False else N,
        probes=tuple(probes),
        witness=res.witness,
        complete=res.decided is True,
    )


@dataclass(frozen=True)
class SandwichReport:
    t: int
    code: MinLengthResult
    family_lower: MinLengthResult
    family_upper: MinLengthResult
    consistent: bool | None


def min_length_sandwich(
    t: int,
    budget: int | None = None,
    start_length: int = 2,
    max_length: int = 12,
) -> SandwichReport:
    """Bracket the code min-length between the family answers at t-2 and t.

    Only meaningful for t >= 3.  The code scan starts at length 2 by default
    to step over the degenerate two-word line.  ``consistent`` stays None
    unless both inequalities could actually be evaluated.
    """
    if t < 3:
        raise ValueError(f"the sandwich needs t >= 3, got {t}")
    code_res = min_length_search(t, "FP", budget, start_length, max_length)
    fam_lo = min_length_search(t - 2, "CFF", budget, 1, max_length)
    fam_hi = min_length_search(t, "CFF", budget, 1, max_length)
    consistent: bool | None = None
    if code_res.value is not None:
        if fam_hi.value is not None and code_res.value > fam_hi.value:
            consistent = False
        elif fam_lo.value is not None and code_res.value < fam_lo.value:
            consistent = False
        elif fam_hi.value is not None and fam_lo.value is not None:
            consistent = True
    return SandwichReport(
        t=t,
        code=code_res,
        family_lower=fam_lo,
        family_upper=fam_hi,
        consistent=consistent,
    )
