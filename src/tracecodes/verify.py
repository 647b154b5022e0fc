"""Exact property checkers returning verdicts with re-checkable witnesses.

Frameproofness and cover-freeness share one cover scan: a code is
t-frameproof exactly when the family of its one-hot word sets
(``core.onehot``) is t-cover-free.  Traceability is checked straight off
its definition.  Parent identifiability needs a word-free reformulation
to stay exact without enumerating the whole ambient space: a code fails the
t-check exactly when some family of at most t+1 coalitions (each of size at
most t) has empty common intersection while their descendant profiles still
intersect coordinate-wise.  Sufficiency is immediate (any word assembled
from the coordinate intersections has all family members as parents);
necessity follows because, given a bad word, one starts from any of its
parent sets and adds, at most once per member, a parent set avoiding that
member — after at most t steps the running intersection is empty.  On
one-hot sets a coalition's descendant profile is the OR of its members'
sets, so a family's profile intersection is the AND of those ORs, and the
family passes the test when every q-bit coordinate block of the AND is
non-empty.

Every checker scans candidates in a fixed order (coalitions by size then
lexicographically, words lexicographically) and reports the first violation
it meets, so verdicts and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import core
from .core import Coalition, Code, Word
from .transform import SetFamily

__all__ = [
    "Counters",
    "CoverViolation",
    "FramedWord",
    "IppViolation",
    "TaViolation",
    "Verdict",
    "Witness",
    "check_cff",
    "check_frameproof",
    "check_ipp",
    "check_ta",
    "ta_distance_sufficient",
]


@dataclass(frozen=True)
class Counters:
    """How much work a check performed (deterministic for a given input)."""

    subsets_examined: int = 0
    words_examined: int = 0


@dataclass(frozen=True)
class FramedWord:
    """Codeword ``framed`` lies in the descendant set of a coalition excluding it."""

    framed: int
    coalition: Coalition


@dataclass(frozen=True)
class CoverViolation:
    """Member ``covered`` is contained in the union of the ``covering`` members."""

    covered: int
    covering: tuple[int, ...]


@dataclass(frozen=True)
class IppViolation:
    """Coalitions of size <= t that all explain ``word`` yet share no member."""

    word: Word
    coalitions: tuple[Coalition, ...]


@dataclass(frozen=True)
class TaViolation:
    """A pirate word an outsider matches at least as well as every insider."""

    coalition: Coalition
    pirate: Word
    outsider: int
    insider_distance: int
    outsider_distance: int


Witness = FramedWord | CoverViolation | IppViolation | TaViolation


@dataclass(frozen=True)
class Verdict:
    property: str  # "FP" | "CFF" | "IPP" | "TA"
    t: int
    holds: bool
    witness: Witness | None
    counters: Counters


def _require_strength(t: int) -> None:
    if t < 1:
        raise ValueError(f"coalition bound must be >= 1, got {t}")


def _first_cover(members: Sequence[int], t: int) -> tuple[tuple[int, Coalition] | None, int]:
    """The first member inside the union of at most t others, and the groups tried.

    Members are scanned in order and, for each, groups of the others by size
    then lexicographically; an empty member is covered by the empty group at
    once.  Returns ``((member, group), tried)`` or ``(None, tried)``.
    """
    n = len(members)
    tried = 0
    for a0, m in enumerate(members):
        if m == 0:
            return (a0, ()), tried
        pool = [j for j in range(n) if j != a0]
        for size in range(1, min(t, len(pool)) + 1):
            for group in combinations(pool, size):
                tried += 1
                union = 0
                for j in group:
                    union |= members[j]
                if m & ~union == 0:
                    return (a0, group), tried
    return None, tried


def check_frameproof(code: Code, t: int, mode: str = "def3") -> Verdict:
    """Is no codeword producible by a coalition of <= t others?

    Codewords are compared as one-hot sets (``core.onehot``): a codeword is
    producible by a coalition exactly when its set lies inside the union of
    theirs.  ``def3`` iterates (codeword, coalition) pairs, which is the
    cover-free scan of ``check_cff`` run on the one-hot family; ``def1``
    checks desc(D) n C = D over all coalitions.  Both modes agree on the
    verdict (the witness may differ since the scan order differs).
    """
    _require_strength(t)
    if mode not in ("def1", "def3"):
        raise ValueError(f"unknown mode {mode!r}")
    sets = [core.onehot(w, code.q) for w in code.words]
    if mode == "def3":
        hit, subsets = _first_cover(sets, t)
        witness = None if hit is None else FramedWord(*hit)
        return Verdict("FP", t, hit is None, witness, Counters(subsets, subsets))

    n = code.size
    subsets = tested = 0
    for size in range(1, min(t, n) + 1):
        for coalition in combinations(range(n), size):
            subsets += 1
            union = 0
            for d in coalition:
                union |= sets[d]
            for ci in range(n):
                if ci in coalition:
                    continue
                tested += 1
                if sets[ci] & ~union == 0:
                    return Verdict(
                        "FP", t, False, FramedWord(ci, coalition), Counters(subsets, tested)
                    )
    return Verdict("FP", t, True, None, Counters(subsets, tested))


def check_cff(family: SetFamily, t: int) -> Verdict:
    """Is no member contained in the union of at most t other members?

    The "at most" reading makes the empty set always covered (by the union
    of zero members) and matches the frameproof correspondence for families
    with fewer than t+1 members.
    """
    _require_strength(t)
    hit, subsets = _first_cover(family.members, t)
    witness = None if hit is None else CoverViolation(*hit)
    return Verdict("CFF", t, hit is None, witness, Counters(subsets, 0))


def check_ipp(code: Code, t: int) -> Verdict:
    """Can every traceable word be pinned on at least one shared parent?

    Enumerates families of 2..t+1 coalitions (size <= t each, ordered by
    size then lexicographically) whose members have empty intersection; the
    code fails exactly when some such family's descendant profiles still
    intersect on every coordinate.  A coalition is one n-bit member mask and
    one profile, the OR of its members' one-hot sets, so a family's shared
    members and its coordinate-wise profile intersection are each an AND.
    ``words_examined`` counts the q-bit blocks of that AND looked at, in
    coordinate order up to and including the first empty one.  The witness
    word takes the smallest symbol from each coordinate intersection.
    """
    _require_strength(t)
    n, N, q = code.size, code.length, code.q
    sets = [core.onehot(w, q) for w in code.words]
    coalitions = []
    for size in range(1, min(t, n) + 1):
        for c in combinations(range(n), size):
            mask = union = 0
            for i in c:
                mask |= 1 << i
                union |= sets[i]
            coalitions.append((mask, union, c))
    # Lowest and highest bit of every block: (x - low) & ~x & high sets the
    # high bit of every empty block of x, and of other blocks only above an
    # empty one (through borrows), so its lowest set bit is in the first.
    low = core.onehot((0,) * N, q)
    high = low << (q - 1)
    families = 0
    intersections = 0
    for k in range(2, min(t + 1, len(coalitions)) + 1):
        for fam in combinations(coalitions, k):
            families += 1
            common = fam[0][0]
            for mask, _, _ in fam[1:]:
                common &= mask
            if common:
                continue
            inter = fam[0][1]
            for _, union, _ in fam[1:]:
                inter &= union
            empty = (inter - low) & ~inter & high
            if empty:
                intersections += (empty & -empty).bit_length() // q
                continue
            intersections += N
            word = []
            for i in range(N):
                symbols = inter >> (i * q) & ((1 << q) - 1)
                word.append((symbols & -symbols).bit_length() - 1)
            witness = IppViolation(tuple(word), tuple(c for _, _, c in fam))
            return Verdict("IPP", t, False, witness, Counters(families, intersections))
    return Verdict("IPP", t, True, None, Counters(families, intersections))


def _ta_coalition_violation(
    code: Code, coalition: Coalition, profile: core.DescProfile, outsiders: list[int]
) -> tuple[TaViolation | None, int]:
    """Depth-first scan of the coalition's descendants for a tracing failure.

    Partial distances prune a branch as soon as every completion keeps some
    insider strictly closer than every outsider.  The walk keeps its own
    stack of (depth, symbol, distances over the prefix before it), so the
    code length is not limited by Python's recursion depth.
    """
    words = code.words
    N = code.length
    members = [words[i] for i in coalition]
    others = [words[o] for o in outsiders]
    x = [0] * N
    leaves = 0
    # The empty prefix is never pruned: every distance starts at 0.
    stack = [(0, s, [0] * len(members), [0] * len(others)) for s in reversed(profile[0])]
    while stack:
        depth, s, ins, outs = stack.pop()
        x[depth] = s
        ins = [d + (m[depth] != s) for d, m in zip(ins, members)]
        outs = [d + (o[depth] != s) for d, o in zip(outs, others)]
        if depth + 1 == N:
            leaves += 1
            best_in = min(ins)
            k = min(range(len(outsiders)), key=outs.__getitem__)
            if best_in >= outs[k]:
                return TaViolation(coalition, tuple(x), outsiders[k], best_in, outs[k]), leaves
        elif min(ins) + (N - depth - 1) >= min(outs):
            # Otherwise insiders stay strictly closer whatever we append.
            stack.extend((depth + 1, c, ins, outs) for c in reversed(profile[depth + 1]))
    return None, leaves


def check_ta(code: Code, t: int, cap: int = core.DEFAULT_DESCENDANT_CAP) -> Verdict:
    """Is the nearest codeword to any coalition's forgery always an insider?

    Coalitions covering the whole code are vacuous (nobody to misaccuse) and
    skipped.  Raises DescendantSetTooLarge when some coalition's descendant
    set exceeds ``cap``.
    """
    _require_strength(t)
    n = code.size
    subsets = 0
    leaves_total = 0
    for coalition in core.iter_coalitions(range(n), min(t, n)):
        if len(coalition) == n:
            continue
        subsets += 1
        profile = core.desc_profile(code.coalition_words(coalition))
        if core.profile_size(profile) > cap:
            raise core.DescendantSetTooLarge(
                f"instance too large for exact TA check: coalition {coalition} "
                f"spans {core.profile_size(profile)} words (cap {cap})"
            )
        inside = set(coalition)
        outsiders = [i for i in range(n) if i not in inside]
        violation, leaves = _ta_coalition_violation(code, coalition, profile, outsiders)
        leaves_total += leaves
        if violation is not None:
            return Verdict("TA", t, False, violation, Counters(subsets, leaves_total))
    return Verdict("TA", t, True, None, Counters(subsets, leaves_total))


def ta_distance_sufficient(code: Code, t: int) -> bool:
    """Exact integer test of the sufficient condition d > N(1 - 1/t**2)."""
    _require_strength(t)
    if code.size < 2:
        raise ValueError("need at least two codewords to speak of a minimum distance")
    d = int(core.min_distance(code))
    return d * t * t > code.length * (t * t - 1)
