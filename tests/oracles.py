"""Slow reference implementations, straight from the definitions.

Everything here works on plain tuples/frozensets by value, never on the
package's Code/SetFamily types or index conventions, and never shares code
with the package.  The point is independence: when a fast checker and its
oracle agree on an exhaustive family of inputs, both are probably right.
Two exceptions pin an order rather than a verdict: ``untraced_walk``
takes one-hot sets (bit i*q + s for symbol s at coordinate i) and reads
every agreement as the popcount of an AND, and ``parent_sets_flat`` lists
parent sets by index in the package's order.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from operator import and_


def all_words(N: int, q: int) -> list[tuple[int, ...]]:
    return list(product(range(q), repeat=N))


def desc_set(members) -> set[tuple[int, ...]]:
    """Every word assembled by picking, per coordinate, a symbol some member has."""
    members = list(members)
    columns = [sorted({m[i] for m in members}) for i in range(len(members[0]))]
    return set(product(*columns))


def hamming(x, y) -> int:
    return sum(a != b for a, b in zip(x, y))


def min_distance(words) -> float:
    words = list(words)
    if len(words) < 2:
        return float("inf")
    return min(hamming(x, y) for x, y in combinations(words, 2))


def min_pattern_frequency(words, t: int) -> list[int]:
    """Per word, the fewest words showing its pattern on some t positions."""
    words = list(words)
    return [
        min(
            sum(all(y[i] == w[i] for i in positions) for y in words)
            for positions in combinations(range(len(w)), t)
        )
        for w in words
    ]


def coalitions_by_value(words, t):
    """All sub-multisets of distinct words, sizes 1..t."""
    words = list(words)
    for size in range(1, min(t, len(words)) + 1):
        yield from combinations(words, size)


def frameproof_holds(words, t: int) -> bool:
    words = list(words)
    for coalition in coalitions_by_value(words, t):
        dset = desc_set(coalition)
        inside = set(coalition)
        for c in words:
            if c not in inside and c in dset:
                return False
    return True


def cff_holds(sets, t: int) -> bool:
    """No member inside the union of at most t others (empty union included)."""
    sets = [frozenset(s) for s in sets]
    for i, target in enumerate(sets):
        others = sets[:i] + sets[i + 1 :]
        for size in range(0, min(t, len(others)) + 1):
            for group in combinations(others, size):
                union = frozenset().union(*group) if group else frozenset()
                if target <= union:
                    return False
    return True


def parent_coalitions(x, words, t):
    return [D for D in coalitions_by_value(words, t) if x in desc_set(D)]


def parent_sets_flat(x, words, q: int, t: int):
    """Index tuples of the coalitions of at most t words that have x as a descendant.

    Every coalition is tested, by size then lexicographically, on one-hot
    sets: x's agreements with the members must cover x's set.  The flat
    scan of parent-set tracing, kept for its order.
    """
    def onehot(w):
        return sum(1 << (i * q + s) for i, s in enumerate(w))

    need = onehot(x)
    agree = [need & onehot(w) for w in words]
    found = []
    for size in range(1, min(t, len(words)) + 1):
        for coalition in combinations(range(len(words)), size):
            covered = 0
            for idx in coalition:
                covered |= agree[idx]
            if covered == need:
                found.append(coalition)
    return tuple(found)


def ipp_holds(words, q: int, t: int) -> bool:
    """Every word of the ambient space with parents has a common parent."""
    words = list(words)
    N = len(words[0])
    # Each coalition's descendants, listed once for the whole space.
    coalitions = [(D, desc_set(D)) for D in coalitions_by_value(words, t)]
    for x in all_words(N, q):
        parents = [D for D, dset in coalitions if x in dset]
        if not parents:
            continue
        common = set(parents[0])
        for D in parents[1:]:
            common &= set(D)
        if not common:
            return False
    return True


def ta_holds(words, t: int) -> bool:
    """Insiders strictly closer than every outsider, for every forgeable word."""
    words = list(words)
    for coalition in coalitions_by_value(words, t):
        inside = set(coalition)
        outsiders = [w for w in words if w not in inside]
        if not outsiders:
            continue
        for x in desc_set(coalition):
            best_in = min(hamming(x, c) for c in coalition)
            best_out = min(hamming(x, y) for y in outsiders)
            if best_in >= best_out:
                return False
    return True


def ta_first_violation(words, t: int):
    """The first forgery an outsider matches at least as well as every insider.

    Coalitions are tuples of word indices, sizes 1..t, by size then
    lexicographically, skipping those with no outsider; each one's
    descendants are taken in lexicographic order.  A descendant fails when
    some outsider is no farther from it than the nearest insider, and the
    witness names the first outsider at the smallest distance.  Returns
    ``(True, None, scanned)`` when none fails, otherwise ``(False,
    (coalition, word, outsider, insider distance, outsider distance),
    scanned)``, where ``scanned`` counts the coalitions up to and including
    the failing one: the scan order, witness and coalition counter of the
    traceability checker.
    """
    words = list(words)
    scanned = 0
    for size in range(1, t + 1):
        for coalition in combinations(range(len(words)), size):
            outsiders = [o for o in range(len(words)) if o not in coalition]
            if not outsiders:
                continue
            scanned += 1
            for x in sorted(desc_set(words[i] for i in coalition)):
                d_in = min(hamming(x, words[i]) for i in coalition)
                d_out = [hamming(x, words[o]) for o in outsiders]
                if min(d_out) <= d_in:
                    outsider = outsiders[d_out.index(min(d_out))]
                    return False, (coalition, x, outsider, d_in, min(d_out)), scanned
    return True, None, scanned


def max_code_size(N: int, q: int, holds) -> int:
    """Largest code satisfying ``holds`` by plain unnormalized DFS.

    No symmetry assumptions at all: every word may start a code.  Use only
    at tiny parameters.
    """
    universe = all_words(N, q)
    best = 0

    def grow(prefix: list, start: int) -> None:
        nonlocal best
        if len(prefix) > best:
            best = len(prefix)
        for k in range(start, len(universe)):
            if len(prefix) + (len(universe) - k) <= best:
                break
            candidate = prefix + [universe[k]]
            if holds(candidate):
                grow(candidate, k + 1)

    grow([], 0)
    return best


def exists_code_of_size(N: int, q: int, size: int, holds) -> bool:
    """Plain unnormalized decision search for a code of the given size."""
    universe = all_words(N, q)

    def grow(prefix: list, start: int) -> bool:
        if len(prefix) == size:
            return True
        for k in range(start, len(universe)):
            if len(prefix) + (len(universe) - k) < size:
                break
            candidate = prefix + [universe[k]]
            if holds(candidate) and grow(candidate, k + 1):
                return True
        return False

    return grow([], 0)


def forward_checked_pushes(universe, holds, root, goal=None, limit=None) -> tuple[list, int]:
    """Every prefix that plain forward checking pushes, in order, and its count of ``holds`` calls.

    The root filters the whole ``universe`` down to the candidates that
    extend it to a code that ``holds``, and each push filters the live
    candidates after the pushed one the same way, one ``holds`` call per
    candidate.  A depth pushes its live candidates in order while,
    counting from the next one, enough are left to beat the best size
    reached (``goal`` None) or to reach the goal; the next live candidate
    counts as reached with its prefix before the count is compared.  The
    search starts from ``root`` and stops at the goal, or (``limit``) in
    place of the push after the first ``limit``.  Use only at tiny
    parameters.
    """
    pushes = []
    best = len(root)
    tests = 0

    def keeps(prefix: list, candidate) -> bool:
        nonlocal tests
        tests += 1
        return holds(prefix + [candidate])

    def live_after(prefix: list, candidates) -> list:
        return [c for c in candidates if keeps(prefix, c)]

    def grow(prefix: list, live: list) -> bool:
        nonlocal best
        for i, candidate in enumerate(live):
            need = best - len(prefix) + 1 if goal is None else goal - len(prefix)
            best = max(best, len(prefix) + 1)
            if goal is not None and best >= goal:
                return True
            if len(live) - i < need:
                return False
            if len(pushes) == limit:
                return True
            extended = prefix + [candidate]
            pushes.append(extended)
            if grow(extended, live_after(extended, live[i + 1 :])):
                return True
        return False

    if goal is None or best < goal:
        grow(list(root), live_after(list(root), universe))
    return pushes, tests


def max_family_size(N: int, t: int) -> int:
    """Largest cover-free family on a tiny ground set, unnormalized DFS."""
    universe = [frozenset(s) for size in range(1, N + 1) for s in combinations(range(N), size)]
    best = 0

    def grow(prefix: list, start: int) -> None:
        nonlocal best
        if len(prefix) > best:
            best = len(prefix)
        for k in range(start, len(universe)):
            if len(prefix) + (len(universe) - k) <= best:
                break
            candidate = prefix + [universe[k]]
            if cff_holds(candidate, t):
                grow(candidate, k + 1)

    grow([], 0)
    return best


def first_cover(members, t: int):
    """The first member inside the union of at most t others, and the groups tried.

    Members (iterables of hashable elements) are scanned in order and, for
    each, groups of the other members' indices by size then
    lexicographically; an empty member is covered by the empty group at
    once.  Returns ``((member, group), tried)`` or ``(None, tried)``, where
    ``tried`` counts the groups in that order up to and including the cover:
    the scan order and counter of the frameproof and cover-free checkers.
    """
    sets = [frozenset(m) for m in members]
    tried = 0
    for i, target in enumerate(sets):
        if not target:
            return (i, ()), tried
        others = [j for j in range(len(sets)) if j != i]
        for size in range(1, min(t, len(others)) + 1):
            for group in combinations(others, size):
                tried += 1
                if target <= frozenset().union(*(sets[j] for j in group)):
                    return (i, group), tried
    return None, tried


def ipp_first_family(words, t: int):
    """The first family of coalitions that shares no member yet explains one word.

    Coalitions are tuples of word indices, sizes 1..t, by size then
    lexicographically; families are groups of 2..t+1 coalitions in the
    same order.  A family whose coalitions share no member fails when at
    every coordinate their symbol sets share a symbol: the word taking the
    smallest shared symbol at each coordinate has every coalition as
    parents.  Returns ``(True, None)`` when no family fails, otherwise
    ``(False, (word, family))`` for the first that does: the flat scan of
    the parent-identifiability checker.
    """
    words = list(words)
    N = len(words[0])
    coalitions = [c for size in range(1, t + 1) for c in combinations(range(len(words)), size)]
    for k in range(2, t + 2):
        for family in combinations(coalitions, k):
            if set.intersection(*(set(c) for c in family)):
                continue
            shared = [
                set.intersection(*({words[j][i] for j in c} for c in family)) for i in range(N)
            ]
            if all(shared):
                return False, (tuple(min(s) for s in shared), family)
    return True, None


def two_ipp_scan_position(n: int, family) -> int:
    """Where the 2-IPP scan of an n-word code stops at ``family``.

    Coalitions of one and two words, by size then lexicographically, form
    the families of two in lexicographic order; codeword triples follow,
    each standing for its family {a,b}, {a,c}, {b,c}.  Returns the
    family's 1-based position in that order, counted by enumeration, or
    the number of all of them when ``family`` is None (the code holds).
    """
    coalitions = [c for size in (1, 2) for c in combinations(range(n), size)]
    pairs = list(combinations(coalitions, 2))
    triples = list(combinations(range(n), 3))
    if family is None:
        return len(pairs) + len(triples)
    if len(family) == 2:
        return pairs.index(tuple(family)) + 1
    return len(pairs) + triples.index(tuple(sorted(set().union(*family)))) + 1


def untraced_walk(ins, outs, union: int, N: int, q: int):
    """The first descendant to which no insider is nearer than every outsider.

    ``ins`` and ``outs`` are the one-hot sets of a coalition's members and
    of the words outside it, and ``union`` is the OR of ``ins``.  The
    descendants are walked depth-first as one-hot prefixes, smallest symbol
    first: the stack holds (depth, prefix set), a prefix agrees with a word
    on the popcount of their AND, and the children of a prefix are the set
    bits of the union's next q-bit block, pushed highest first.  A branch
    is cut when a_out + rest < a_in.  Returns (that descendant's set, or
    None, and the full words reached): the order and counter of the
    traceability checker's walk.
    """
    mask = (1 << q) - 1
    leaves = 0
    stack = [(-1, 0)]
    while stack:
        depth, x = stack.pop()
        a_in = max(map(int.bit_count, map(and_, repeat(x), ins)))
        if depth + 1 == N:
            leaves += 1
            if a_in <= max(map(int.bit_count, map(and_, repeat(x), outs))):
                return x, leaves
            continue
        rest = N - depth - 1
        if rest < a_in and max(map(int.bit_count, map(and_, repeat(x), outs))) + rest < a_in:
            continue
        depth += 1
        block = union >> (depth * q) & mask
        while block:
            high = 1 << (block.bit_length() - 1)
            stack.append((depth, x | high << (depth * q)))
            block ^= high
    return None, leaves
