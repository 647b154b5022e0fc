"""Exact property checkers returning verdicts with re-checkable witnesses.

Every checker reads a word as its one-hot set (``core.onehot``), bit i*q + s
for symbol s at coordinate i: as the list of its bit positions, through the
word columns (``Code.cols``), or, for IPP at t other than 2, as an int over
each coordinate's symbols renumbered.
Frameproofness reads equivalently as desc(D) n C = D for every coalition D
of at most t codewords, or as no codeword lying in the descendant set of t
others.  The check scans the second reading, which is cover-freeness: a
code is t-frameproof exactly when the family of its one-hot sets is
t-cover-free, so FP and CFF share one cover scan.  For each member a
branch search over its elements, the one with the fewest holders first
(the MRV rule of Knuth's Algorithm X), finds the fewest others, up to t,
whose union holds it; groups are walked only at that size, to name the
first cover.

Traceability walks each coalition's descendants depth-first as one-hot
prefixes (``core.untraced_descendant``), taking coordinate i's symbols from
the members' words.  The codewords are bits of a mask, and each one-hot bit
has a column, the mask of the codewords holding it.  A prefix keeps its
agreement levels, level k the codewords agreeing with it on more than k
coordinates, and a new coordinate updates them from its column; so a branch
is cut, by one AND with the outsiders, as soon as every completion keeps
some insider strictly nearer than every outsider.  Only outsiders that could
tie are walked against.  By pigeonhole some member of a coalition of s
words agrees with each of its descendants on at least ceil(N/s)
coordinates, and an outsider agrees with one on at most the coordinates
where it holds one of the members' symbols, so an outsider holding fewer
than ceil(N/s) is never as near; when every outsider is such, the walk is
skipped (the pigeonhole step of the distance condition of Staddon, Stinson
and Wei, *Combinatorial properties of frameproof and traceability codes*,
IEEE Trans. IT 47 (2001)).  An outsider shares at most N - d coordinates
with each member, so every size s with s*(N - d) < ceil(N/s) is settled
whole, without forming a coalition.

Parent identifiability needs a word-free reformulation to stay exact
without enumerating the whole ambient space: a code fails the t-check
exactly when some family of at most t+1 coalitions (each of size at most
t) has empty common intersection while their descendant profiles still
intersect coordinate-wise.  Sufficiency is immediate (any word assembled
from the coordinate intersections has all family members as parents);
necessity follows because, given a bad word, one starts from any of its
parent sets and adds, at most once per member, a parent set avoiding that
member — after at most t steps the running intersection is empty.  On
one-hot sets a coalition's descendant profile is the OR of its members'
sets, so a family's profile intersection is the AND of those ORs, and the
family passes the test when every q-bit coordinate block of the AND is
non-empty.  ``core.failing_family`` walks them by size up to min(t, n)+1,
past pairs adding only coalitions that shrink the shared members: a failing
family with one that shrinks nothing fails one size smaller without it, so
the first witness is the flat scan's.  At t=2 nothing is walked.  Once
no family of two fails, every two coalitions of a failing family of three
share a member (else those two would fail), so it is {a,b}, {a,c}, {b,c}
for three codewords, and the code is 2-IPP exactly when every codeword
triple has a coordinate where all three symbols differ and every two
disjoint coalitions one where they share no symbol (the criterion of
Hollmann, van Lint, Linnartz and Tolhuizen, *On codes with the
identifiable parent property*, JCTA 82 (1998)).  Both are ANDs of word
columns, as in ``core.parent_sets``, so no one-hot set is formed.  Pairs
are ordered lexicographically, so the families {a,b}, {a,c}, {b,c} sort as
their triples do, and the first failing triple gives the first failing
family of three and its word.

Every checker scans candidates in a fixed order (coalitions by size then
lexicographically, words lexicographically) and reports the first violation
it meets, so verdicts and witnesses are deterministic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, combinations
from operator import eq, or_
from typing import NamedTuple, Sequence

from . import core
from .core import Coalition, Code, SetFamily, Word, record

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


@record
class Counters(NamedTuple):
    """How far a check went in its scan order (deterministic for a given input).

    Each checker counts in its own scan order, up to and including the
    first violation, or to the end when the property holds:

    * FP and CFF: ``subsets_examined`` is the witness's position among the
      (codeword or member, group of at most t others) pairs, or their number
      when the property holds, not how many were tested; FP's
      ``words_examined`` repeats it and CFF's is always 0.
    * IPP: ``subsets_examined`` counts the families of coalitions formed
      (at t=2 the first failing family's position, families of two then
      codeword triples) and ``words_examined`` the q-bit blocks of their
      profile intersections looked at (at t=2 the column ANDs taken);
      ``check_ipp`` gives both orders.
    * TA: ``subsets_examined`` counts coalitions (all C(n, s) of a size
      settled whole from the minimum distance), and ``words_examined`` the
      leaves (full descendant words) the walks reach.  A coalition with no
      outsider that could tie is not walked (``check_ta``), so a code that
      holds by that pigeonhole bound alone reads 0.
    """

    subsets_examined: int = 0
    words_examined: int = 0


@record
class FramedWord(NamedTuple):
    """Codeword ``framed`` lies in the descendant set of a coalition excluding it."""

    framed: int
    coalition: Coalition


@record
class CoverViolation(NamedTuple):
    """Member ``covered`` is contained in the union of the ``covering`` members."""

    covered: int
    covering: tuple[int, ...]


@record
class IppViolation(NamedTuple):
    """Coalitions of size <= t that all explain ``word`` yet share no member."""

    word: Word
    coalitions: tuple[Coalition, ...]


@record
class TaViolation(NamedTuple):
    """A pirate word an outsider matches at least as well as every insider."""

    coalition: Coalition
    pirate: Word
    outsider: int
    insider_distance: int
    outsider_distance: int


Witness = FramedWord | CoverViolation | IppViolation | TaViolation


@record
class Verdict(NamedTuple):
    property: str  # "FP" | "CFF" | "IPP" | "TA"
    t: int
    holds: bool
    witness: Witness | None
    counters: Counters


def _first_cover(
    elements: Sequence[Sequence[int]], t: int
) -> tuple[tuple[int, Coalition] | None, int]:
    """The first member inside the union of at most t others, and the groups tried.

    Members, given by their elements, are scanned in order and, for each,
    groups of the others by size then lexicographically; an empty member is
    covered by the empty group at once.  Returns ``((member, group), tried)``
    or ``(None, tried)``, ``tried`` counting the groups in that order up to
    and including the cover.

    Members become compact sets, one bit per element, fewest holders first,
    and ``cols`` maps each bit to its holders.  A depth-first search finds a
    member's smallest cover size: it branches on the holders of the lowest
    uncovered bit, each banning those tried before it, and cuts a node when
    the members it may still add, below the smallest cover found so far,
    times the most elements of the member one other holds, fall short of
    what is uncovered.  Each size below the smallest cover (up to t if none)
    adds comb(P, size) for the P others, and the plain lexicographic loop
    names the first cover at that size.
    """
    holders: dict[int, int] = {}
    for j, es in enumerate(elements):
        for e in es:
            holders[e] = holders.get(e, 0) | 1 << j
    ranked = sorted(holders, key=lambda e: holders[e].bit_count())
    bit = {e: i for i, e in enumerate(ranked)}
    cols = [holders[e] for e in ranked]
    sets = [sum(1 << bit[e] for e in es) for es in elements]
    tried = 0
    for a0, m in enumerate(sets):
        if m == 0:
            return (a0, ()), tried
        pool = [j for j in range(len(sets)) if j != a0]
        top = reach = min(t, len(pool))  # reach: the largest size still worth trying
        widest = max([(m & sets[j]).bit_count() for j in pool], default=0)
        stack = [(m, 1 << a0, 0)]  # (uncovered, banned, depth)
        while stack:
            left, banned, depth = stack.pop()
            if (reach - depth) * widest < left.bit_count():
                continue
            free = cols[(left & -left).bit_length() - 1] & ~banned
            while free:
                low = free & -free
                rest = left & ~sets[low.bit_length() - 1]
                if not rest:
                    reach = depth
                    break
                stack.append((rest, banned, depth + 1))
                banned |= low
                free ^= low
        tried += sum(math.comb(len(pool), size) for size in range(1, reach + 1))
        if reach < top:  # a cover of size reach + 1 exists
            for group in combinations(pool, reach + 1):
                tried += 1
                if not m & ~reduce(or_, map(sets.__getitem__, group)):
                    return (a0, group), tried
    return None, tried


def check_frameproof(code: Code, t: int) -> Verdict:
    """Is no codeword producible by a coalition of <= t others?

    Codewords are compared as one-hot sets, given by their bits i*q + s
    rather than as ints (``core.onehot``): a codeword is producible by a
    coalition exactly when its set lies inside the union of theirs.  So this
    is the cover-free scan of ``check_cff`` run on the one-hot family
    (``_first_cover``): codewords in order and, for each, coalitions of the
    others by size then lexicographically.  The witness
    is the first framed codeword and coalition in that order, and both
    counters are its position there (the number of coalitions when the
    code holds), not how many coalitions were tested.
    """
    core.require_strength(t)
    hit, subsets = _first_cover([[i * code.q + s for i, s in enumerate(w)] for w in code.words], t)
    witness = None if hit is None else FramedWord(*hit)
    return Verdict("FP", t, hit is None, witness, Counters(subsets, subsets))


def check_cff(family: SetFamily, t: int) -> Verdict:
    """Is no member contained in the union of at most t other members?

    The "at most" reading makes the empty set always covered (by the union
    of zero members) and matches the frameproof correspondence for families
    with fewer than t+1 members.  The scan is ``_first_cover``: members in
    order and, for each, groups of the others by size then lexicographically.
    ``subsets_examined`` is the witness's position in that order (all the
    groups when the family holds); ``words_examined`` is 0.
    """
    core.require_strength(t)
    hit, subsets = _first_cover(list(map(family.member_elements, range(family.size))), t)
    witness = None if hit is None else CoverViolation(*hit)
    return Verdict("CFF", t, hit is None, witness, Counters(subsets, 0))


def _first_failing_pair(code: Code) -> tuple[tuple[Coalition, ...] | None, int, int]:
    """The 2-IPP scan's first failing family, from word columns alone.

    A coalition X and a later disjoint pair {c, d} fail when at every
    coordinate c or d holds a symbol of X: for each c the valid d are one
    AND of the columns of X's symbols (``Code.cols``, ORed for a pair) over
    the coordinates where c holds none, stopped at 0, and the lowest set
    bit is the first family.  A triple a < b < c fails when c holds a's or
    b's symbol wherever those differ: the same AND over the words after b.
    Returns (that family or None, its position in the scan, closed form,
    and the column ANDs taken).
    """
    n = code.size
    held = code.own_cols()
    above = [(1 << n) - (2 << c) for c in range(n)]  # the words after c
    E = n + math.comb(n, 2)
    ands = 0
    # X against every later disjoint pair; a codeword a is the coalition (a, a).
    coalitions = chain(zip(range(n), range(n)), combinations(range(n), 2))
    for x, (a, b) in enumerate(coalitions):
        meet = list(map(or_, held[a], held[b]))
        members = 1 << a | 1 << b
        for c in range(a + 1 if a < b else 0, n - 1):
            bit, m = 1 << c, above[c] & ~members
            if bit & members or not m:
                continue
            for col in meet:
                if not col & bit:
                    ands += 1
                    m &= col
                    if not m:
                        break
            else:
                d = (m & -m).bit_length() - 1
                y = n + c * (2 * n - c - 1) // 2 + d - c - 1  # {c, d}'s coalition index
                family = ((a,) if a == b else (a, b), (c, d))
                return family, x * (2 * E - x - 1) // 2 + y - x, ands
    for a, b in combinations(range(n - 1), 2):  # the triples a < b < c
        bit, m = 1 << b, above[b]
        for ca, cb in zip(held[a], held[b]):
            if not ca & bit:
                ands += 1
                m &= ca | cb
                if not m:
                    break
        else:
            c = (m & -m).bit_length() - 1
            rank = math.comb(n, 3) - math.comb(n - a, 3) + math.comb(n - a - 1, 2)
            rank += c - b - math.comb(n - b, 2)
            return ((a, b), (a, c), (b, c)), math.comb(E, 2) + rank, ands
    return None, math.comb(E, 2) + math.comb(n, 3), ands


def _shared_word(code: Code, family: Sequence[Coalition]) -> Word:
    """The word taking at each coordinate the smallest symbol every coalition holds."""
    rows = [list(zip(*code.coalition_words(c))) for c in family]  # each coalition's symbols
    return tuple(min(set(first).intersection(*rest)) for first, *rest in zip(*rows))


def check_ipp(code: Code, t: int) -> Verdict:
    """Can every traceable word be pinned on at least one shared parent?

    The code fails exactly when some family of 2..t+1 coalitions (size <= t
    each, ordered by size then lexicographically) with no shared member has
    descendant profiles that still intersect on every coordinate.  The
    witness is the first such family, and its word takes the smallest
    shared symbol at each coordinate.

    At t=2 the codeword triples stand for the families of three (the module
    docstring gives the reduction), and each family of two and each triple
    is decided by ANDs of word columns (``_first_failing_pair``), so nothing
    is walked and no one-hot set is formed.  ``subsets_examined`` is the
    first failing family's position, among the families of two and then
    the triples, or C(E,2) + C(n,3) for E = n + C(n,2) coalitions when the
    code holds; ``words_examined`` counts the column ANDs taken.

    At other t a coalition is a member mask and the OR of its members'
    one-hot sets, taken with each coordinate's symbols numbered by first
    appearance (so a block is as wide as the most symbols a coordinate
    holds, not q), and ``core.failing_family`` walks the families of each
    size k = 2..min(t, n)+1, past pairs only through coalitions that shrink
    the shared members.  ``subsets_examined`` counts the families formed
    and ``words_examined`` the blocks of their profile intersections
    looked at.
    """
    core.require_strength(t)
    if t == 2:
        found, families, work = _first_failing_pair(code)
    else:
        # IPP is blind to symbol names: number each coordinate's symbols by
        # first appearance, so a block is at most n bits wide, not q.
        n, N, labels = code.size, code.length, [{} for _ in range(code.length)]
        words = [[lab.setdefault(s, len(lab)) for lab, s in zip(labels, w)] for w in code.words]
        q = max(map(len, labels))
        sets = [core.onehot(w, q) for w in words]
        coalitions = [c for size in range(1, min(t, n) + 1) for c in combinations(range(n), size)]
        entries = [(sum(1 << i for i in c), reduce(or_, [sets[i] for i in c])) for c in coalitions]
        found, families, work = None, 0, 0
        for k in range(2, min(t, n) + 2):
            hit, tried, blocks = core.failing_family(entries, len(entries), k, N, q)
            families += tried
            work += blocks
            if hit is not None:
                found = tuple(coalitions[j] for j in hit)
                break
    witness = None if found is None else IppViolation(_shared_word(code, found), found)
    return Verdict("IPP", t, found is None, witness, Counters(families, work))


def _in_at_least(masks: Sequence[int], k: int) -> int:
    """The bits set in at least ``k`` of ``masks``, for k >= 1.

    The counts come from ``core.bit_counts`` and are compared with k from
    the top digit down: ``tied`` holds the bits whose digits so far equal
    k's, ``above`` those already past it.
    """
    digits = core.bit_counts(masks)
    above, tied = 0, -1
    for d in reversed(range(max(len(digits), k.bit_length()))):
        digit = digits[d] if d < len(digits) else 0
        if k >> d & 1:
            tied &= digit
        else:
            above |= tied & digit
            tied &= ~digit
    return above | tied


def _first_open_size(code: Code, top: int) -> int:
    """The smallest coalition size in 1..top whose screen may keep an outsider,
    or top + 1 when there is none.

    Two distinct words agree on at most shared = N - d coordinates, so an
    outsider holds a member's symbol on at most size*shared coordinates of
    a coalition of ``size`` words; when that falls short of ceil(N/size),
    ``check_ta``'s screen keeps no outsider for any coalition of that size.
    size*shared grows with the size and ceil(N/size) does not, so the sizes
    settled run from 1 up to the first that fails.  Size 1 always is
    (shared <= N - 1), so d is computed only when size 2 is reached.
    """
    if top < 2:
        return top + 1
    N = code.length
    shared = N - int(core.min_distance(code))  # finite: top >= 2 needs three words
    size = 2
    while size <= top and size * shared < -(-N // size):
        size += 1
    return size


def check_ta(code: Code, t: int) -> Verdict:
    """Is the nearest codeword to any coalition's forgery always an insider?

    Coalitions of size 1..t, by size then lexicographically, are scanned.
    At coordinate i a coalition's descendants take the symbols s its
    members hold there, read from ``code.words`` as one-hot bit positions
    i*q + s, so no N*q-bit set is formed.  The coalition is the insider
    mask, and the outsiders tested are those that could tie: by pigeonhole
    some insider agrees with each descendant on at least ceil(N/s) of its N
    coordinates, while an outsider agrees on at most as many as those where
    it holds a member's symbol, so one holding fewer is never as near (the
    step behind the distance condition of Staddon, Stinson and Wei, IEEE
    Trans. IT 47 (2001)).  A coordinate's holders are the OR of the
    members' word columns there (``Code.cols``), and ``_in_at_least``
    counts them.  When no outsider is left the coalition holds; otherwise
    its descendants are walked depth-first, smallest symbol first
    (``core.untraced_descendant``).  Dropping outsiders that cannot tie
    changes neither the first failing descendant nor the witness, whose
    outsider is the first of all outsiders nearest it.

    Whole sizes are settled first (``_first_open_size``): an outsider
    shares at most N - d coordinates with each of the s members, so when
    s*(N - d) < ceil(N/s) the screen would leave no outsider for any
    coalition of s words.  Such a size adds its C(n, s) coalitions to
    ``subsets_examined`` without forming one, exactly what screening each
    would count, so verdicts, witnesses and counters are those of screening
    every coalition; a code meeting ``ta_distance_sufficient`` costs one
    ``core.min_distance``.  From the first size left open every coalition
    is screened.

    ``words_examined`` counts the full words the walks reach.  Coalitions
    covering the whole code are vacuous (nobody to misaccuse) and skipped.
    Raises DescendantSetTooLarge when a coalition that is walked spans (the
    product of its symbol counts) more than ``core.DEFAULT_DESCENDANT_CAP``
    words; one left with no outsider is decided whatever its span.
    """
    core.require_strength(t)
    n, N, q, words = code.size, code.length, code.q, code.words
    top = min(t, n - 1)
    first = _first_open_size(code, top)
    subsets = sum(math.comb(n, size) for size in range(1, first))
    cols, cap = code.cols, core.DEFAULT_DESCENDANT_CAP
    positions = [tuple(map(int.__add__, range(0, N * q, q), w)) for w in words]
    held = code.own_cols()
    leaves_total = 0
    for size in range(first, top + 1):
        need = -(-N // size)  # some insider agrees with every descendant this often
        for coalition in combinations(range(n), size):
            subsets += 1
            holders = held[coalition[0]]
            for i in coalition[1:]:
                holders = list(map(or_, holders, held[i]))
            members = sum(1 << i for i in coalition)
            outs = _in_at_least(holders, need) & ~members
            if not outs:
                continue
            rows = [positions[i] for i in coalition]
            kids = [sorted(set(c), reverse=True) for c in zip(*rows)]
            span = math.prod(map(len, kids))
            if span > cap:
                raise core.DescendantSetTooLarge(
                    f"instance too large for exact TA check: coalition {coalition} "
                    f"spans {span} words (cap {cap})"
                )
            x, leaves = core.untraced_descendant(cols, members, outs, kids, q)
            leaves_total += leaves
            if x is not None:
                a_in = max(sum(map(eq, x, words[i])) for i in coalition)
                outsiders = [o for o in range(n) if o not in coalition]
                agree = [sum(map(eq, x, words[o])) for o in outsiders]
                a_out = max(agree)
                outsider = outsiders[agree.index(a_out)]
                witness = TaViolation(coalition, x, outsider, N - a_in, N - a_out)
                return Verdict("TA", t, False, witness, Counters(subsets, leaves_total))
    return Verdict("TA", t, True, None, Counters(subsets, leaves_total))


def ta_distance_sufficient(code: Code, t: int) -> bool:
    """Exact integer test of the sufficient condition d > N(1 - 1/t**2)."""
    core.require_strength(t)
    if code.size < 2:
        raise ValueError("need at least two codewords to speak of a minimum distance")
    d = int(core.min_distance(code))
    return d * t * t > code.length * (t * t - 1)
