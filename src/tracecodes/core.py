"""Data model for q-ary codes and set families: words, coalitions, descendants.

Words are plain tuples of symbols drawn from {0, .., q-1}.  A Code fixes the
length N and alphabet size q and owns an ordered tuple of distinct words; all
index-based structures (coalitions, parent-set families, witnesses) refer to
positions in that tuple.  A SetFamily, the other subject type, is an ordered
tuple of distinct subsets of a ground set.  Everything is immutable and hashable.

Fast paths see a word of any alphabet as its one-hot set (``onehot``), an
N*q-bit integer with bit i*q + s set when coordinate i holds s.  Then x is a
descendant of D exactly when onehot(x) lies inside the union of the
members' sets, so frameproofness is cover-freeness of the one-hot family.
A Code owns one encoding, the transpose of these sets: its word columns
``Code.cols``, where bit i*q + s maps to the mask of the words holding s
at coordinate i.  A word is read as its symbols, one column per coordinate
(``Code.word_cols``), so x agrees with word j on as many coordinates as
there are columns of x holding bit j; ``bit_counts`` and ``most_held``
count those agreements bit-sliced.  Tracing, the traceability check and
walk, parent sets and the minimum distance all read columns, so none of
them forms an N*q-bit set or grows with q.

Results across the package are records: immutable values with named
fields, equal and hashed by value, and equal only to a record of their own
class.  Pure values are ``typing.NamedTuple`` classes marked ``@record``;
those that validate or cache their fields (``Code``, ``SetFamily``, ...)
derive from ``Record``.  Both read as ``_fields`` and ``_asdict()`` and
copy with changes by ``_replace``.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import combinations, islice, repeat
from operator import add, and_, or_
from typing import Any, Iterable, Iterator, Mapping, Sequence, TypeVar

__all__ = [
    "Code",
    "Coalition",
    "DescendantSetTooLarge",
    "DEFAULT_DESCENDANT_CAP",
    "INFINITE_DISTANCE",
    "MAX_ALPHABET",
    "ParentSetFamily",
    "Record",
    "STRATEGY_KINDS",
    "SetFamily",
    "Word",
    "any_int_length",
    "bit_counts",
    "block_masks",
    "desc_profile",
    "elements",
    "failing_family",
    "hamming_distance",
    "is_descendant",
    "iter_coalitions",
    "min_distance",
    "most_held",
    "onehot",
    "pair_tied",
    "parent_sets",
    "record",
    "require_strength",
    "require_symbols",
    "row_parts",
    "shared_members",
    "untraced_descendant",
]

Word = tuple[int, ...]
Coalition = tuple[int, ...]  # sorted code indices

#: Minimum distance of a code with fewer than two words.  ``math.inf``
#: compares above every integer, which is exactly the ordering we need.
INFINITE_DISTANCE = math.inf

#: Guard against enumerating descendant sets with more members than this.
DEFAULT_DESCENDANT_CAP = 2**32

#: Symbols are kept as small non-negative integers.
MAX_ALPHABET = 2**16

#: How a coalition may assemble a pirate word (``trace.PirateStrategy``).
STRATEGY_KINDS = ("first", "interleave", "majority", "minority", "random")


class DescendantSetTooLarge(RuntimeError):
    """An exact descendant enumeration would exceed the configured cap."""


@contextmanager
def any_int_length() -> Iterator[None]:
    """Lift Python's int-to-str digit limit for the duration of the block.

    Bounds are exact integers of any length; a report writes them in full.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # Pythons without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _same_record(self: tuple, other: object) -> Any:
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    # A bare tuple or a record of another class, even with equal fields.
    return False if isinstance(other, tuple) else NotImplemented


def _other_record(self: tuple, other: object) -> Any:
    same = _same_record(self, other)
    return same if same is NotImplemented else not same


_T = TypeVar("_T", bound=type)


def record(cls: _T) -> _T:
    """Make a ``typing.NamedTuple`` class a record: equal only to a record of
    its own class.  Hash and repr stay the tuple's: by value, and
    ``Name(field=value, ...)``."""
    cls.__eq__, cls.__ne__ = _same_record, _other_record
    return cls


class Record:
    """Base of the records that validate or cache their fields.

    A subclass names its fields in ``_fields`` and sets them once, in
    ``__init__``, through ``__dict__``; attributes are read-only after
    that.  The fields alone make the repr, ``Name(field=value, ...)``, and
    equality and hash, by value and with a record of the same class only,
    so a value cached in ``__dict__`` (``functools.cached_property``, or
    the hash itself, kept under ``_hash`` on first use) stays outside all
    three.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _asdict(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._astuple()))

    def _replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` to some fields, validated anew."""
        return type(self)(**{**self._asdict(), **changes})

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._astuple()))
        return f"{type(self).__name__}({pairs})"

    def __eq__(self, other: Any) -> Any:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        # Fields never change, so the hash is taken once: a memo lookup
        # (``transform.fpc_to_cff``) would otherwise re-hash every word.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._astuple())
        return h

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Code(Record):
    """An (N, n, q) code: ``n`` distinct length-``N`` words over {0..q-1}.

    Word order is significant (file order / construction order); every
    tie-break in the package resolves to the lowest index.  ``cols`` holds
    the word columns, built on first use and outside equality, hash and
    repr; ``word_cols`` reads any word through them, and ``own_cols`` the
    code's own words.
    """

    _fields = ("words", "q")
    words: tuple[Word, ...]
    q: int

    def __init__(self, words: Iterable[Iterable[int]], q: int) -> None:
        words = tuple(tuple(int(s) for s in w) for w in words)
        self.__dict__.update(words=words, q=q)
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {q}")
        if q > MAX_ALPHABET:
            raise ValueError(f"alphabet size {q} exceeds supported maximum {MAX_ALPHABET}")
        if not words:
            raise ValueError("a code needs at least one word")
        if not words[0]:
            raise ValueError("words must have length >= 1")
        for w in words:
            self.check_word(w)
        if len(set(words)) != len(words):
            raise ValueError("duplicate words are not allowed")

    @property
    def length(self) -> int:
        return len(self.words[0])

    @property
    def size(self) -> int:
        return len(self.words)

    @classmethod
    def from_strings(cls, rows: Iterable[str], q: int) -> "Code":
        """Build a code from digit strings like ``"0110"`` (requires q <= 10)."""
        if q > 10:
            raise ValueError("digit-string construction only supports q <= 10")
        return cls(tuple(tuple(int(ch) for ch in row) for row in rows), q)

    def coalition_words(self, indices: Iterable[int]) -> tuple[Word, ...]:
        return tuple(self.words[i] for i in indices)

    @cached_property
    def cols(self) -> dict[int, int]:
        """Word columns: one-hot bit position i*q + s maps to the mask of the
        words holding s at coordinate i (bit j for word j).  Only positions
        some word holds are keys, so a wide alphabet costs N*n entries at
        most.  Built on first use; as it is no record field, it stays
        outside equality, hash and repr."""
        cols: dict[int, int] = {}
        q = self.q
        for j, word in enumerate(self.words):
            for pos in map(add, range(0, len(word) * q, q), word):
                cols[pos] = cols.get(pos, 0) | 1 << j
        return cols

    def check_word(self, x: Sequence[int]) -> None:
        """Raise ValueError unless ``x`` is a length-N word over {0..q-1}."""
        if len(x) != self.length:
            raise ValueError(f"length mismatch: {len(x)} vs {self.length}")
        require_symbols(x, self.q)

    def own_cols(self) -> list[list[int]]:
        """Each codeword's columns, ``cols[i*q + w_i]`` for each coordinate i:
        ``word_cols`` of every word, without its check, as the words were
        checked when the code was built."""
        cols, q = self.cols, self.q
        offsets = range(0, self.length * q, q)
        return [list(map(cols.__getitem__, map(add, offsets, w))) for w in self.words]

    def word_cols(self, x: Sequence[int]) -> list[int]:
        """``cols[i*q + x_i]`` for each coordinate i, 0 where no word holds x_i:
        the words agreeing with x there.  ValueError unless x is a length-N
        word over {0..q-1}."""
        self.check_word(x)
        cols, q = self.cols, self.q
        return [cols.get(pos, 0) for pos in map(add, range(0, len(x) * q, q), x)]


class ParentSetFamily(Record):
    """All coalitions of size <= t that could have produced a word.

    Coalitions are index tuples into the owning code, ordered by size and
    then lexicographically.  Its length and iteration are the coalitions'.
    """

    _fields = ("word", "t", "coalitions")
    word: Word
    t: int
    coalitions: tuple[Coalition, ...]

    def __init__(self, word: Word, t: int, coalitions: tuple[Coalition, ...]) -> None:
        self.__dict__.update(word=word, t=t, coalitions=coalitions)

    def __len__(self) -> int:
        return len(self.coalitions)

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.coalitions)

    def common_members(self) -> tuple[int, ...]:
        """Indices present in every parent set (empty when none or no parents)."""
        return shared_members(self.coalitions)


class SetFamily(Record):
    """An ordered family of distinct subsets of {0..ground_size-1}.

    Members are stored as bitmasks (bit e set = element e present), which
    makes union/containment checks single integer operations.
    """

    _fields = ("ground_size", "members")
    ground_size: int
    members: tuple[int, ...]

    def __init__(self, ground_size: int, members: Iterable[int]) -> None:
        members = tuple(int(m) for m in members)
        self.__dict__.update(ground_size=ground_size, members=members)
        if ground_size < 1:
            raise ValueError("ground set must be non-empty")
        if not members:
            raise ValueError("a family needs at least one member")
        limit = 1 << ground_size
        for m in members:
            if not 0 <= m < limit:
                raise ValueError("member outside the ground set")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members are not allowed")

    @property
    def size(self) -> int:
        return len(self.members)

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        masks = []
        for s in sets:
            mask = 0
            for e in s:
                mask |= 1 << e
            masks.append(mask)
        return cls(ground_size, tuple(masks))

    def member_elements(self, i: int) -> tuple[int, ...]:
        return tuple(elements(self.members[i]))

    def member_size(self, i: int) -> int:
        return self.members[i].bit_count()


def require_strength(t: int) -> None:
    """Raise ValueError unless the coalition bound ``t`` is at least 1."""
    if t < 1:
        raise ValueError(f"coalition bound must be >= 1, got {t}")


def require_symbols(x: Iterable[int], q: int) -> None:
    """Raise ValueError at the first symbol of ``x`` outside {0..q-1}."""
    for s in x:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for q={q}")


def elements(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def shared_members(coalitions: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """The indices every coalition holds, ascending; () when there is no coalition."""
    if not coalitions:
        return ()
    first, *rest = coalitions
    return tuple(sorted(set(first).intersection(*rest)))


def row_parts(N: int, t: int) -> tuple[int, int, int, int]:
    """``(k, r, hi, lo)``: the IPP row partition of N coordinates for coalitions
    of at most t >= 2 words has k = v - 1 parts, v = floor((t/2 + 1)**2), and
    the first r = N mod k of them hold hi = ceil(N/k) coordinates, the rest
    lo = floor(N/k).  Closed form, so a huge t costs no more than a small one."""
    k = (t + 2) ** 2 // 4 - 1
    return k, N % k, -(-N // k), N // k


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of coordinates where the two words differ."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a != b for a, b in zip(x, y))


def onehot(word: Sequence[int], q: int) -> int:
    """The word as an N*q-bit set: bit i*q + s is set when coordinate i holds s.

    Every coordinate sets exactly one bit, so x is a descendant of D exactly
    when ``onehot(x) & ~union == 0`` for the union of D's sets, and x and y
    agree on ``(onehot(x) & onehot(y)).bit_count()`` coordinates.  At q=2
    this is the paper's doubling of a code into a set family.  Linear in N*q.
    """
    buf, bit = bytearray((len(word) * q + 7) >> 3), 0
    for s in word:
        buf[(bit + s) >> 3] |= 1 << ((bit + s) & 7)
        bit += q
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=8)
def block_masks(N: int, q: int) -> tuple[int, int]:
    """The lowest and highest bit of each q-bit block: ``(v - low) & ~v & high``
    is 0 exactly when no block of v is empty, else its lowest bit is in the first."""
    low = onehot((0,) * N, q)
    return low, low << (q - 1)


def bit_counts(masks: Iterable[int]) -> list[int]:
    """How many of ``masks`` hold each bit, bit-sliced: digit d holds the bits
    whose count has bit d set.  Each mask is added with its carries, so m
    masks cost O(m log m) ANDs."""
    digits: list[int] = []
    for c in masks:
        for d, digit in enumerate(digits):
            digits[d] = digit ^ c
            c &= digit
            if not c:
                break
        else:
            digits.append(c)
    return digits


def most_held(masks: Iterable[int], among: int) -> tuple[int, int]:
    """``(k, bits)``: the largest count k in ``masks`` of a bit of ``among``,
    and the bits of ``among`` that reach it, read off ``bit_counts`` from the
    top digit down.  k is 0, with all of ``among``, when no mask holds any."""
    k, bits = 0, among
    digits = bit_counts(masks)
    for d in reversed(range(len(digits))):
        top = bits & digits[d]
        if top:
            k, bits = k | 1 << d, top
    return k, bits


def min_distance(code: Code) -> int | float:
    """Smallest pairwise distance; INFINITE_DISTANCE for codes with < 2 words.
    N minus the most agreements of a word with a later one (``most_held``
    over ``Code.own_cols``)."""
    n, N = code.size, code.length
    if n < 2:
        return INFINITE_DISTANCE
    best = 0
    for j, held in enumerate(code.own_cols()[:-1]):
        k = most_held(held, (1 << n) - (2 << j))[0]
        if k > best:
            best = k
            if best == N - 1:  # distinct words agree on at most N-1 coordinates
                break
    return N - best


def untraced_descendant(
    cols: Mapping[int, int], ins: int, outs: int, kids: Sequence[Sequence[int]], q: int
) -> tuple[Word | None, int]:
    """The first descendant to which no insider is nearer than every outsider.

    Words are bits of a mask: ``cols`` maps a one-hot bit position to the
    mask of the words holding it (at least every bit in ``kids``; a sparse
    dict needs only the bits some word holds), and ``ins`` and ``outs`` are
    the masks of a coalition's members and of the words outside it that
    are tested.  ``kids[i]`` lists the bit positions i*q + s of the symbols
    s the members hold at coordinate i, highest first, so N is its length.
    The descendants are walked depth-first as one-hot prefixes, smallest
    symbol first: the children of a prefix are the next depth's positions.
    A prefix has agreement levels, level k the mask of the words agreeing
    with it on more than k coordinates; appending a bit with column c makes
    level k the old level k OR the old level k-1 AND c.  The insiders' best
    agreement a_in is the number of levels meeting ``ins``, and some
    outsider agrees on at least a coordinates when level a-1 meets
    ``outs``.  So a branch is cut as soon as every completion keeps some
    insider strictly nearer than every outsider (a_out + rest < a_in, one
    AND with ``outs``), and a full word fails when an outsider is as near
    (another).  A node costs O(depth) ANDs of word masks, whatever the
    number of words.  Returns (that descendant as a word, or None when
    there is none, and the full words reached).
    """
    N = len(kids)
    path = [0] * N
    # Each depth's parent prefix, as the DFS has it: its a_in and its levels
    # kept as [every word, level 0, .., level depth-1, no word], so level k
    # of a child is levels[k + 1] | levels[k] & c.  A stack entry is a bit
    # position, and its depth is position // q.
    ain = [0] * N
    lv = [[-1, 0]] * N
    leaves = 0
    stack = list(kids[0])
    while stack:
        pos = stack.pop()
        depth = pos // q
        path[depth] = pos
        levels, a_in = lv[depth], ain[depth]
        c = cols[pos]
        # No insider is at level a_in, so the child's insiders reach it through c.
        if levels[a_in] & c & ins:
            a_in += 1
        rest = N - depth - 1
        if not rest:
            leaves += 1
            if (levels[a_in] | levels[a_in - 1] & c) & outs:
                return tuple(p - i * q for i, p in enumerate(path)), leaves
            continue
        # Only rest < a_in can cut: a_out + rest < a_in.
        k = a_in - rest
        if k > 0 and not (levels[k] | levels[k - 1] & c) & outs:
            continue
        depth += 1
        lv[depth] = [-1, *map(or_, islice(levels, 1, None), map(and_, levels, repeat(c))), 0]
        ain[depth] = a_in
        stack += kids[depth]
    return None, leaves


def pair_tied(ya: int, yb: int, yab: int, ab: int, N: int) -> bool:
    """Whether outsider y is as near as both members to some descendant of {a, b}.

    The arguments are agreement counts, popcounts of one-hot ANDs:
    |y∧a|, |y∧b|, |y∧a∧b| and |a∧b|, at length N.  A descendant x copies
    a∧b and picks a's or b's symbol elsewhere.  Off a∧b, y holds a's symbol
    on α = |y∧a| − |y∧a∧b| coordinates, b's on β, neither on
    γ = N − |a∧b| − α − β, and on a∧b it misses r = |a∧b| − |y∧a∧b|.  The
    best x picks y's symbol on α and β and splits γ, so a tie exists exactly
    when α ≥ r, β ≥ r and α + β ≥ 2r + γ (Staddon, Stinson and Wei's
    outsider test for a pair): |y∧a| ≥ |a∧b|, |y∧b| ≥ |a∧b| and
    2(|y∧a| + |y∧b|) ≥ N + |a∧b| + 2|y∧a∧b|.  ``untraced_descendant``
    finds such an x exactly when this holds for some outsider.
    """
    return ya >= ab and yb >= ab and 2 * (ya + yb) >= N + ab + 2 * yab


def failing_family(
    entries: Sequence[tuple[int, int]], starts: int, size: int, N: int, q: int
) -> tuple[tuple[int, ...] | None, int, int]:
    """The first family of 2..size entries sharing no member, with no empty block.

    An entry is (member mask, OR of the members' one-hot sets); a family is
    judged on the AND of each.  Families start at one of the first
    ``starts`` entries and add later ones, met in lexicographic order of
    indices; below ``size`` an added entry must shrink the shared members
    and leave every q-bit block non-empty.  Returns (indices or None,
    families formed, blocks looked at): a family's blocks up to the first
    empty one, or all N, count when its last entry shrinks the shared
    members, and at ``size`` only when it leaves none shared.
    """
    low, high = block_masks(N, q)
    families = blocks = 0
    # A frame: the next entry to try, the family's two ANDs and its indices.
    frames = [(i + 1, m, u, (i,)) for i, (m, u) in enumerate(entries[:starts])][::-1]
    while frames:
        start, common, inter, path = frames.pop()
        last = len(path) + 1 == size
        # No tuple per family: ``index`` recovers j, as an equal earlier entry would be taken.
        for m, u in entries[start:]:
            c = common & m
            if c and (last or c == common):
                continue
            v = inter & u
            empty = (v - low) & ~v & high
            if empty:
                blocks += (empty & -empty).bit_length() // q
                continue
            j = entries.index((m, u), start)
            families += j - start + 1
            blocks += N
            if not c:
                return (*path, j), families, blocks
            frames += [(j + 1, common, inter, path), (j + 1, c, v, (*path, j))]
            break
        else:
            families += len(entries) - start
    return None, families, blocks


def desc_profile(members: Iterable[Word]) -> tuple[tuple[int, ...], ...]:
    """Per-coordinate symbol sets available to a coalition, sorted tuples."""
    members = tuple(members)
    if not members:
        raise ValueError("empty coalition")
    n0 = len(members[0])
    for m in members:
        if len(m) != n0:
            raise ValueError("length mismatch inside coalition")
    return tuple(tuple(sorted(set(col))) for col in zip(*members))


def is_descendant(x: Sequence[int], members: Iterable[Word]) -> bool:
    """True when every coordinate of ``x`` occurs in some coalition member there."""
    members = tuple(members)
    if not members:
        raise ValueError("empty coalition")
    if len(x) != len(members[0]):
        raise ValueError(f"length mismatch: {len(x)} vs {len(members[0])}")
    return all(any(m[i] == s for m in members) for i, s in enumerate(x))


def iter_coalitions(pool: Iterable[int], max_size: int) -> Iterator[Coalition]:
    """Index tuples of sizes 1..max_size: smaller sizes first, lexicographic within."""
    pool = tuple(pool)
    for size in range(1, min(max_size, len(pool)) + 1):
        yield from combinations(pool, size)


def parent_sets(x: Sequence[int], code: Code, t: int) -> ParentSetFamily:
    """Every coalition of size <= t whose descendant set contains ``x``.

    A coalition is a parent set when each coordinate of x is held by some
    member there, and it is found from its head, the coalition of all its
    members but the last.  Heads are walked by size (the empty head first)
    and lexicographically within a size.  A head's last members are the
    words after its last index that hold x wherever no head member does:
    the AND of the columns ``Code.cols[i*q + x_i]`` over the coordinates i
    the head leaves open, stopped once it reaches 0.  Its set bits, in
    ascending order, extend the head in lexicographic order, so the family
    comes out by size and then lexicographically.  At t=2 that is n+1 heads
    of at most N ANDs each, in place of C(n,1) + C(n,2) unions.
    """
    require_strength(t)
    x = tuple(x)
    holders = code.word_cols(x)
    n = code.size
    top = min(t, n)
    found = []
    # A head: its indices, the columns open before its last member j, j
    # itself (n for the empty head: no column holds word n), and the mask
    # of the words after j.  A column is open to the head when j lacks it.
    heads = [((), holders, n, (1 << n) - 1)]
    for size in range(1, top + 1):
        grown = []
        for head, open_cols, j, last in heads:
            for c in open_cols:
                if not c >> j & 1:
                    last &= c
                    if not last:
                        break
            while last:
                low = last & -last
                found.append((*head, low.bit_length() - 1))
                last ^= low
            if size < top:
                own = [c for c in open_cols if not c >> j & 1]
                start = head[-1] + 1 if head else 0
                grown += [((*head, k), own, k, (1 << n) - (2 << k)) for k in range(start, n - 1)]
        heads = grown
    return ParentSetFamily(word=x, t=t, coalitions=tuple(found))
