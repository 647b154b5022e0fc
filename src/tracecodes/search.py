"""Exhaustive extremal searches by forward-checked depth-first lexicographic extension.

Codes grow one word at a time in ascending base-q order (first coordinate
most significant, so numeric order is word order).  All the properties
searched here are hereditary — every subcode of a good code is good — so a
candidate that breaks a prefix is dead in that prefix's whole subtree, and
one that keeps a prefix keeps every shorter one.  One loop walks every tree
over an explicit frontier (the chosen prefix), not the Python call stack,
so a search may grow a code or family as large as its candidate space.
Code searches fix the all-zero word at the root: relabelling symbols
coordinate-wise maps any code onto one containing it and preserves
frameproofness, identifiability and traceability alike.  Set families get
no such relabelling (covering is not invariant under it), so family
searches enumerate candidate members in plain ascending mask order with no
normalisation.

The loop is plain forward checking (Haralick and Elliott, AI 14 (1980),
over the candidate sets of Carraghan and Pardalos, Oper. Res. Lett. 9
(1990)).  A node's live candidates are those above its last one that keep
the property with its prefix.  The root tests every candidate, and each
push tests every live candidate above the pushed one, so a child's live
candidates are its parent's above it that keep the longer prefix.  A
node's room is its size plus its live candidates left: it pushes its live
candidates in ascending order while the room can beat the best size
(maximize) or reach the goal (decide), and is then popped.  So it cuts only
subtrees that cannot beat the best or reach the goal: it finds the same
maximum, decisions and witnesses as a walk with no cut.

The search holds its prefix in a state with one interface on candidate
indices: ``push`` adds a candidate and tests the live candidates above it,
``pop`` takes the last one off, ``ahead`` counts the live candidates from
an index on and names the first, and ``breaks`` says whether a candidate
breaks the prefix.  The state owns the encoding of a candidate into its
set, done on first use: a word's one-hot set (``core.onehot``, encoded
straight from the base-q digits) or a family member's mask.  The prefix is
known to hold, so a candidate is tested only for what it can break.
Frameproof codes and cover-free families share one state, because a code
is t-frameproof exactly when the family of its one-hot word sets is
t-cover-free: each push ANDs out of a bitset over every candidate those
that its new sets kill, so a push's tests are one AND.  Identifiable and
traceable codes share one state, which keeps a list of live candidates per
depth and, chosen by t alone, a table of every two prefix words from t=2
and every coalition of at most t from t=3.  At t=2 a new word is judged
with the pair table: a code is 2-IPP exactly when every three words have a
coordinate with three distinct symbols and every two disjoint pairs one
where they share no symbol (Hollmann, van Lint, Linnartz and Tolhuizen,
JCTA 82 (1998)), and whether an outsider ties a descendant of a pair
follows from agreement counts (``core.pair_tied``, after the outsider test
of Staddon, Stinson and Wei, IEEE Trans. IT 47 (2001)).  Larger coalitions
are walked: families by ``core.failing_family`` for t-IPP at t >= 3, and
traceable coalitions of three or more words by ``core.untraced_descendant``.

Node counts are deterministic: ``nodes`` counts the tests plain forward
checking makes, one per candidate at the root and one per live candidate
above each push (a cover-free push makes its tests in one AND, but each
counts), with no parallelism and no randomness.  A live candidate c makes
the prefix plus c a code that holds, so it counts as reached: the
``optimum`` of a decide "no" is the largest code the tests certified on
the way, a lower bound like the optimum of a budget stop.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from functools import lru_cache, reduce
from itertools import islice, repeat
from operator import and_, or_
from typing import Iterable, NamedTuple, Sequence

from . import core
from .core import Code, Record, SetFamily, Word, elements, record

__all__ = [
    "LengthProbe",
    "MinLengthResult",
    "SearchProblem",
    "SearchResult",
    "max_code_search",
    "min_length_search",
]

PROPERTIES = ("FP", "IPP", "TA", "CFF")

#: Refuse to enumerate candidate spaces larger than this.
DEFAULT_ENUMERATION_CAP = 2**22


class SearchProblem(Record):
    _fields = ("property", "N", "t", "q", "mode", "goal")
    property: str
    N: int
    t: int
    q: int
    mode: str  # "maximize" or "decide"
    goal: int | None

    def __init__(
        self,
        property: str,
        N: int,
        t: int,
        q: int = 2,
        mode: str = "maximize",
        goal: int | None = None,
    ) -> None:
        self.__dict__.update(property=property, N=N, t=t, q=q, mode=mode, goal=goal)
        if property not in PROPERTIES:
            raise ValueError(f"unknown property {property!r}")
        if N < 1:
            raise ValueError(f"need N >= 1, got {N}")
        if t < 1:
            raise ValueError(f"need t >= 1, got {t}")
        if q < 2:
            raise ValueError(f"need q >= 2, got {q}")
        # Both limits are checked before any search runs.  q >= 2, so a
        # length past the cap's bit length is over the cap without q**N.
        cap = DEFAULT_ENUMERATION_CAP
        if N >= cap.bit_length() or q**N > cap:
            raise ValueError(f"candidate space {q}**{N} exceeds enumeration cap {cap}")
        if q > core.MAX_ALPHABET:
            raise ValueError(f"need q <= {core.MAX_ALPHABET} to hold the witness, got {q}")
        if property == "CFF" and q != 2:
            raise ValueError("family searches are binary by nature; leave q=2")
        if mode not in ("maximize", "decide"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "decide":
            if goal is None or goal < 1:
                raise ValueError("decide mode needs a positive goal")
        elif goal is not None:
            raise ValueError("goal only makes sense in decide mode")


@record
class SearchResult(NamedTuple):
    """What ``max_code_search`` found.

    ``nodes`` counts the tests of plain forward checking: every candidate
    at the root, and every live candidate above each push; a budget stop
    reports the budget plus one.  ``optimum`` is the size of the
    largest code reached: a complete maximize run proves it optimal, and
    after a budget stop or a decide "no" it is a lower bound.  ``witness``
    is that code in maximize mode and for a decide "yes", else None.
    ``decided`` is None in maximize mode and after a budget stop.
    ``complete`` says the tree was exhausted or the goal met.
    """

    problem: SearchProblem
    optimum: int
    decided: bool | None
    witness: Code | SetFamily | None
    nodes: int
    elapsed: float
    complete: bool
    budget: int | None


def _decode_word(value: int, N: int, q: int) -> Word:
    return tuple(value // q**i % q for i in range(N - 1, -1, -1))


def _encode_word(value: int, N: int, q: int) -> int:
    """``core.onehot(_decode_word(value, N, q), q)``, straight from the base-q digits."""
    word = 0
    for shift in range((N - 1) * q, -1, -q):
        word |= 1 << (shift + value % q)
        value //= q
    return word


#: The kill memos of a cover-free search start over past this many bits of
#: values, or past this many sets over every candidate when that is more.
_MEMO_BITS = 1 << 23
_MEMO_SETS = 1 << 10


class _CoverFreePrefix:
    """A t-cover-free family grown and shrunk one member at a time, with its live candidates.

    Candidates are the search's indices: words in base q, each standing for
    its one-hot set, or (``family``) masks over N elements, each its own set.
    ``unions[j]`` (j = 0..t) lists the union of every group of at most j
    members, ``unions[j][0]`` being the empty union 0; ``residues[j]``
    (j = 0..t-1) lists every member minus the union of every group of at
    most j other members, so ``residues[0]`` is the members themselves.
    Given the family is t-cover-free, adding a set keeps it so unless the
    set lies inside some union in ``unions[t]`` (the empty member lies
    inside 0), or some residue in ``residues[t-1]`` lies inside it: an old
    member covered by the new one joined by at most t-1 others.  So a union
    U kills down(U), the candidates whose sets lie inside U, and a residue r
    kills up(r), those whose sets hold r.  The lists only grow with the
    family, so a push appends to each the sets whose latest member it is,
    and a pop truncates each to its length before the push.

    ``_live`` is a stack of bitsets over every candidate (candidate c as
    bit c): ``_live[k]`` holds the candidates that the first k members kill
    none of, ``_live[0]`` those the empty union spares.  Each push ANDs out
    the kills of its new top-layer sets once, and the stack is all the
    state reads liveness from.  up(r) is the AND of the columns of r's
    elements (the candidates whose sets hold the element, periodic in the
    index); down(U) is, for a word, the AND over coordinates of the OR of
    U's columns there, and for a mask, the candidates in none of the
    columns outside U.  Both are memoised by set, and the memos start over
    when their values pass ``_MEMO_BITS`` bits or ``_MEMO_SETS`` sets' worth,
    whichever is more: a deep chain meets a new set at every push.
    """

    def __init__(self, t: int, N: int, q: int, family: bool = False) -> None:
        self.N, self.q, self.family = N, q, family
        self.unions: list[list[int]] = [[0] for _ in range(t + 1)]
        self.residues: list[list[int]] = [[] for _ in range(t)]
        self._layers = self.unions + self.residues
        self._marks: list[list[int]] = []
        self._total = q**N
        self._all = (1 << self._total) - 1
        self._cols: dict[int, int] = {}
        self._downs: dict[int, int] = {}
        self._ups: dict[int, int] = {}
        self._memo_bits, self._memo_cap = 0, max(_MEMO_BITS, _MEMO_SETS * self._total)
        self._live = [self._all & ~self._kill([0], ())]

    def breaks(self, c: int) -> bool:
        """Whether adding candidate ``c`` breaks the family."""
        return not self._live[-1] >> c & 1

    def ahead(self, c: int) -> tuple[int, int]:
        """How many live candidates lie at or above ``c``, and the least of them (-1 if none)."""
        rest = self._live[-1] >> c
        return rest.bit_count(), c + (rest & -rest).bit_length() - 1 if rest else -1

    def push(self, c: int) -> None:
        """Add candidate ``c``, and drop every candidate it kills from the live set."""
        new = c if self.family else _encode_word(c, self.N, self.q)
        unions, residues = self.unions, self.residues
        marks = [len(layer) for layer in self._layers]
        self._marks.append(marks)
        # High j first, residues before unions: each layer grows from the
        # old contents of the layers below it.
        for j in range(len(residues) - 1, 0, -1):
            residues[j] += map(and_, repeat(~new), residues[j - 1])
            residues[j] += [new & ~u for u in unions[j]]
        residues[0].append(new)
        for j in range(len(unions) - 1, 0, -1):
            unions[j] += map(or_, repeat(new), unions[j - 1])
        t = len(residues)
        kill = self._kill(islice(unions[t], marks[t], None), islice(residues[-1], marks[-1], None))
        self._live.append(self._live[-1] & ~kill)

    def pop(self) -> None:
        """Take off the member added last."""
        for layer, size in zip(self._layers, self._marks.pop()):
            del layer[size:]
        self._live.pop()

    def _kill(self, unions: Iterable[int], residues: Iterable[int]) -> int:
        """The candidates inside one of ``unions`` or holding one of ``residues``."""
        kill, downs, ups = 0, self._downs, self._ups
        for u in unions:
            k = downs.get(u)
            if k is None:
                k = self._remember(downs, u, self._down(u))
            kill |= k
        for r in residues:
            k = ups.get(r)
            if k is None:
                k = self._remember(ups, r, self._up(r))
            kill |= k
        return kill

    def _remember(self, memo: dict[int, int], s: int, kill: int) -> int:
        """Memoise ``kill`` for set ``s``; both memos start over past their cap."""
        self._memo_bits += kill.bit_length()
        if self._memo_bits > self._memo_cap:
            self._downs.clear()
            self._ups.clear()
            self._memo_bits = kill.bit_length()
        memo[s] = kill
        return kill

    def _up(self, r: int) -> int:
        """The candidates whose sets hold ``r``."""
        return reduce(and_, map(self._column, elements(r)), self._all)

    def _down(self, u: int) -> int:
        """The candidates whose sets lie inside ``u``."""
        column = self._column
        if self.family:
            outside = (column(e) for e in range(self.N) if not u >> e & 1)
            return self._all & ~reduce(or_, outside, 0)
        # A word holds one element per coordinate: one of u's there.
        q, ors = self.q, [0] * self.N
        for e in elements(u):
            ors[e // q] |= column(e)
        return reduce(and_, ors)

    def _column(self, e: int) -> int:
        """The candidates whose sets hold element ``e``, memoised.

        The element is base-q digit d = s of the index (digit N-1-i = s for
        one-hot bit i*q + s, digit e = 1 for a mask): runs of q**d candidates
        every q**(d+1), built by doubling.
        """
        col = self._cols.get(e)
        if col is not None:
            return col
        if self.family:
            q, d, s = 2, e, 1
        else:
            q = self.q
            i, s = divmod(e, q)
            d = self.N - 1 - i
        total, run = self._total, q**d
        col, span = ((1 << run) - 1) << s * run, run * q
        while span < total:
            col |= col << span
            span *= 2
        col &= self._all
        self._cols[e] = col
        return col


class _CoalitionPrefix:
    """A code grown and shrunk one word at a time, with its pairs and coalitions of words.

    What it keeps is set by t alone.  ``sets`` lists the words' one-hot
    sets.  From t=2, ``pairs`` lists (a, b, a | b, a & b, |a & b|) for every
    two words a before b.  From t=3, ``groups`` lists every group of at most
    t words as (member mask, OR of the members' sets); the empty group is
    always first.  The pairs and groups of the code plus one more word are
    the old ones and the new word joined to every old word and every old
    group of at most t-1 words, so a push appends those and records the
    three lengths before it, and a pop truncates the lists to them:
    coalitions never outgrow the code, whatever t is.  ``breaks`` looks for
    a failure that the new word brings into the code, which is held to have
    the property.  ``_live`` keeps, per depth, the live candidates in
    ascending order: the empty code's are every candidate (a range), and a
    push lists those of its parent above the new word that ``breaks`` keeps.
    """

    def __init__(self, t: int, N: int, q: int) -> None:
        self.t, self.N, self.q = t, N, q
        self.sets: list[int] = []
        self.pairs: list[tuple[int, int, int, int, int]] = []
        self.groups: list[tuple[int, int]] = [(0, 0)]
        self._lists = (self.sets, self.pairs, self.groups)
        self._marks: list[tuple[int, int, int]] = []
        # Candidate index -> its one-hot word set, each encoded on first use.
        self._encoded = lru_cache(maxsize=None)(lambda c: _encode_word(c, N, q))
        self._live: list[Sequence[int]] = [range(q**N)]

    def ahead(self, c: int) -> tuple[int, int]:
        """How many live candidates lie at or above ``c``, and the least of them (-1 if none)."""
        live = self._live[-1]
        i = bisect_left(live, c)
        return len(live) - i, live[i] if i < len(live) else -1

    def push(self, c: int) -> None:
        """Add candidate ``c``, and test every live candidate above it."""
        live = self._live[-1]
        above = live[bisect_right(live, c) :]
        new, t, sets = self._encoded(c), self.t, self.sets
        self._marks.append(tuple(map(len, self._lists)))
        if t >= 2:
            self.pairs += [(a, new, a | new, a & new, (a & new).bit_count()) for a in sets]
        if t >= 3:
            bit = 1 << len(sets)
            self.groups += [(m | bit, u | new) for m, u in self.groups if m.bit_count() < t]
        sets.append(new)
        breaks = self.breaks
        self._live.append([d for d in above if not breaks(d)])

    def pop(self) -> None:
        """Take off the word added last."""
        self._live.pop()
        for kept, size in zip(self._lists, self._marks.pop()):
            del kept[size:]


class _IdentifiablePrefix(_CoalitionPrefix):
    """A t-IPP code: a new word can only add failing families that it joins.

    Every failing family (see ``verify``) of the extended code has a
    coalition holding the new word x, so ``core.failing_family`` walks from
    those, then the old ones, up to t+1 coalitions; at t=1 x's lone entry
    forms no family, as every code is 1-IPP.  At t=2 (see the module
    docstring) x breaks the code when it and an old pair {a, b} have no
    coordinate with three distinct symbols, or {x, d} meets {a, b} on every
    coordinate for an old word d outside the pair.  Only the pair table is
    read: its pairs with each other word d give all three splits of x and
    every three old words into two pairs.
    """

    def breaks(self, c: int) -> bool:
        """Whether adding candidate ``c`` breaks the code, tested against every word."""
        new, t, sets = self._encoded(c), self.t, self.sets
        if t != 2:
            bit = 1 << len(sets)
            joined = [(m | bit, u | new) for m, u in self.groups if m.bit_count() < t]
            entries = joined + self.groups[1:]
            return core.failing_family(entries, len(joined), t + 1, self.N, self.q)[0] is not None
        low, high, pairs = *core.block_masks(self.N, self.q), self.pairs
        for _, _, either, both, _ in pairs:
            v = new & either | both
            if not (v - low) & ~v & high:
                return True
        for d in sets:
            xd = new | d
            for a, b, either, _, _ in pairs:
                v = xd & either
                if not (v - low) & ~v & high and d != a and d != b:
                    return True
        return False


@lru_cache(maxsize=1024)
def _block_positions(union: int, N: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The set bit positions of each q-bit block of ``union``, highest first.

    For a union of one-hot sets these are the children at each depth of
    ``core.untraced_descendant``.  A search asks for the same few unions at
    every candidate, so the answers, immutable, are cached.
    """
    blocks = (sorted(elements(union >> i * q & (1 << q) - 1), reverse=True) for i in range(N))
    return tuple(tuple(i * q + s for s in block) for i, block in enumerate(blocks))


class _TraceablePrefix(_CoalitionPrefix):
    """A t-traceable code: a new word can only fail as an outsider or an insider.

    A coalition of one word has only that word as a descendant, so it never
    fails.  An old coalition of 2..t words already beats every old
    outsider, so only the new word x is tested as its outsider; a coalition
    of 2..t words holding x is tested against every other word.  For t >= 2,
    each old pair {a, b} and x are tested with each of the three words as
    the outsider, by agreement counts (``core.pair_tied``) read from the
    pair table.  Larger coalitions run the walk of
    ``core.untraced_descendant`` on ``cols``, which maps each one-hot bit
    to the mask of the words holding it, word j as bit j, with x as bit
    ``len(sets)`` for the length of the test.  At t <= 2 no walk runs, so
    no columns are kept.
    """

    def __init__(self, t: int, N: int, q: int) -> None:
        super().__init__(t, N, q)
        self.cols: dict[int, int] = {}

    def _toggle(self, s: int, bit: int) -> None:
        """Flip ``bit`` in the columns of the one-hot bits of ``s``."""
        cols = self.cols
        for pos in elements(s):
            cols[pos] = cols.get(pos, 0) ^ bit

    def breaks(self, c: int) -> bool:
        """Whether adding candidate ``c`` breaks the code, tested against every word."""
        N, q, t, sets, cols = self.N, self.q, self.t, self.sets, self.cols
        new, tied = self._encoded(c), core.pair_tied
        for a, b, _, ab, n in self.pairs:
            ax, bx, e = (new & a).bit_count(), (new & b).bit_count(), (new & ab).bit_count()
            if tied(ax, bx, e, n, N) or tied(n, bx, e, ax, N) or tied(n, ax, e, bx, N):
                return True
        if t < 3:
            return False
        walk, kids = core.untraced_descendant, _block_positions
        bit = 1 << len(sets)
        old = bit - 1
        self._toggle(new, bit)
        try:
            for m, u in self.groups:
                size = m.bit_count()
                if size >= 3 and walk(cols, m, bit, kids(u, N, q), q)[0] is not None:
                    return True
                if 1 < size < min(t, len(sets)):
                    if walk(cols, m | bit, old ^ m, kids(u | new, N, q), q)[0] is not None:
                        return True
            return False
        finally:
            self._toggle(new, bit)

    def push(self, c: int) -> None:
        if self.t >= 3:
            self._toggle(self._encoded(c), 1 << len(self.sets))
        super().push(c)

    def pop(self) -> None:
        if self.t >= 3:
            self._toggle(self.sets[-1], 1 << (len(self.sets) - 1))
        super().pop()


def max_code_search(problem: SearchProblem, budget: int | None = None) -> SearchResult:
    """Run the search to completion, a decision, or budget exhaustion (see ``SearchResult``).

    Codes are extended from the all-zero word, which relabelling symbols
    per coordinate puts in any code; families have no root, as candidate 0,
    the empty member, is covered by the empty union.  ``chosen`` is the
    whole frontier, and the prefix state holds its candidates and each
    depth's live ones.  At each step a node reads ``ahead(cand)``: how many
    live candidates are left from the next one on, and the first of them.
    The first time a node is met, that candidate reaches a code one longer,
    which becomes the best if no code of that size was reached before.
    Then, if the node's size plus the live candidates left can beat the
    best size as it was before that step (maximize) or reach the goal
    (decide), the node pushes the first of them, and the push tests every
    live candidate above it; otherwise the node is popped.  The budget is
    checked before a push's tests are made, and the prefix state is built
    only once the root's tests fit in it, so a stop encodes and builds
    nothing more.  ``SearchProblem`` has refused a candidate space q**N
    beyond ``DEFAULT_ENUMERATION_CAP`` and a q beyond ``core.MAX_ALPHABET``.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"need a node budget >= 0, got {budget}")
    start = time.perf_counter()

    # A helper, not a closure over the loop's names: those stay fast locals.
    def result(best: list[int], decided: bool | None, nodes: int, complete: bool) -> SearchResult:
        N, q = problem.N, problem.q
        if problem.mode == "decide" and decided is not True:
            witness = None
        elif problem.property == "CFF":
            witness = SetFamily(N, tuple(best)) if best else None
        else:
            witness = Code(tuple(_decode_word(c, N, q) for c in best), q)
        elapsed = time.perf_counter() - start
        return SearchResult(problem, len(best), decided, witness, nodes, elapsed, complete, budget)

    N, q, prop = problem.N, problem.q, problem.property
    deciding = problem.mode == "decide"
    goal = problem.goal or 0
    limit = math.inf if budget is None else budget
    root = [] if prop == "CFF" else [0]
    chosen = list(root)
    best = list(chosen)
    if deciding and len(best) >= goal:
        return result(best, True, 0, True)
    nodes = q**N - 1
    if nodes > limit:
        return result(best, None, budget + 1, False)
    # A word has at most q**N - 1 others, so any larger t decides every
    # property alike; the cover-free state would otherwise keep 2t lists.
    t = min(problem.t, nodes)
    prefix: _CoverFreePrefix | _CoalitionPrefix
    if prop in ("FP", "CFF"):
        prefix = _CoverFreePrefix(t, N, q, family=prop == "CFF")
    elif prop == "IPP":
        prefix = _IdentifiablePrefix(t, N, q)
    else:
        prefix = _TraceablePrefix(t, N, q)
    for c in root:
        prefix.push(c)
    cand = 1
    while True:
        depth = len(chosen)
        need = goal - depth if deciding else len(best) - depth + 1
        live, first = prefix.ahead(cand)
        if live and depth == len(best):
            best = chosen + [first]
            if deciding and len(best) >= goal:
                return result(best, True, nodes, True)
        if live < need:
            if depth == len(root):
                return result(best, False if deciding else None, nodes, True)
            prefix.pop()
            cand = chosen.pop() + 1
            continue
        nodes += live - 1  # the push's tests: the live candidates above ``first``
        if nodes > limit:
            return result(best, None, budget + 1, False)
        prefix.push(first)
        chosen.append(first)
        cand = first + 1


@record
class LengthProbe(NamedTuple):
    N: int
    decided: bool | None
    nodes: int


@record
class MinLengthResult(NamedTuple):
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
