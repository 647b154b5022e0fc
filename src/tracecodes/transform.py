"""Constructive transforms between codes and set families.

Besides the simple rewrites (binary code <-> set family, padding, block
composition) this module houses the constructive routines behind the
package's structural results: pruning codewords that own a private pattern
on a row partition (``core.row_parts``), assembling an explicit
parent-identifiability violation for any code that survives pruning, and
the distance strip.  Patterns are read from word columns (``Code.cols``):
the words showing w's pattern on some coordinates are the AND of w's
columns there, and pair agreements come from ``core.most_held``.  A
violation is replayed by ``recheck.recheck_witness`` before it is returned.
``SetFamily`` lives in ``core`` and is re-exported here.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import combinations
from math import comb
from operator import and_
from typing import Iterable, NamedTuple, Sequence

from . import core
from .core import Code, Record, SetFamily, Word, record

__all__ = [
    "IppViolationCertificate",
    "PairDiagnostics",
    "PatternPartition",
    "PruneResult",
    "PruneStep",
    "Restriction",
    "SetFamily",
    "StripTrace",
    "block_compose",
    "build_ipp_violation",
    "certificate_problems",
    "cff_restrict",
    "cff_to_fpc",
    "distance_strip",
    "fpc_to_cff",
    "make_row_partition",
    "pad_code",
    "prune_special_codewords",
]


@lru_cache(maxsize=8)
def fpc_to_cff(code: Code) -> SetFamily:
    """Double a binary code into a set family: 0 -> rows (1,0), 1 -> rows (0,1).

    Each codeword becomes the member containing, for every coordinate i, row
    2i when the symbol is 0 and row 2i+1 when it is 1, so every member has
    exactly N elements over a 2N ground set: the one-hot sets at q=2
    (``core.onehot``).  Memoised, as checks often double one code again.
    """
    if code.q != 2:
        raise ValueError("doubling requires a binary code")
    return SetFamily(2 * code.length, [core.onehot(w, 2) for w in code.words])


def cff_to_fpc(family: SetFamily) -> Code:
    """Members as incidence vectors give the columns of a binary code."""
    words = tuple(
        tuple(family.members[j] >> e & 1 for e in range(family.ground_size))
        for j in range(family.size)
    )
    return Code(words, 2)


@record
class Restriction(NamedTuple):
    """Outcome of restricting a family away from one member.

    Empty or repeated members are kept visible here rather than silently
    dropped; ``family()`` refuses to build a SetFamily unless ``clean``:
    some member is left, and none is empty or repeated.
    """

    ground_size: int
    members: tuple[int, ...]
    removed_member: int
    empty_indices: tuple[int, ...]
    duplicate_indices: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return bool(self.members) and not self.empty_indices and not self.duplicate_indices

    def family(self) -> SetFamily:
        if not self.clean:
            raise ValueError(
                "restriction is not a valid family: "
                f"empty members at {self.empty_indices}, duplicates at {self.duplicate_indices}"
            )
        return SetFamily(self.ground_size, self.members)


def cff_restrict(family: SetFamily, a: int) -> Restriction:
    """Remove member ``a`` and its elements: survivors become B \\ A.

    The surviving ground elements are renumbered in increasing order.
    """
    if not 0 <= a < family.size:
        raise ValueError(f"member index {a} out of range")
    removed = family.members[a]
    kept = [e for e in range(family.ground_size) if not removed >> e & 1]
    new_members = [
        sum(1 << p for p, e in enumerate(kept) if m >> e & 1)
        for j, m in enumerate(family.members)
        if j != a
    ]
    # Walked backwards, the lowest index showing a member is written last.
    first_seen = {m: i for i, m in reversed(list(enumerate(new_members)))}
    return Restriction(
        ground_size=len(kept),
        members=tuple(new_members),
        removed_member=a,
        empty_indices=tuple(i for i, m in enumerate(new_members) if m == 0),
        duplicate_indices=tuple(i for i, m in enumerate(new_members) if first_seen[m] != i),
    )


def pad_code(code: Code, r: int) -> Code:
    """Append ``r`` zero coordinates to every word."""
    if r < 0:
        raise ValueError("padding length must be >= 0")
    if r == 0:
        return code
    tail = (0,) * r
    return Code(tuple(w + tail for w in code.words), code.q)


def block_compose(code: Code, a: int) -> Code:
    """Fuse blocks of ``a`` coordinates into single symbols over q**a.

    Block (s_0, .., s_{a-1}) becomes the symbol sum(s_j * q**j), so a code of
    length a*L over q turns into one of length L over q**a.
    """
    if a < 1:
        raise ValueError("block width must be >= 1")
    if code.length % a:
        raise ValueError(f"length {code.length} is not divisible by block width {a}")
    q_new = code.q**a
    if q_new > core.MAX_ALPHABET:
        raise ValueError(f"composed alphabet {q_new} exceeds supported maximum {core.MAX_ALPHABET}")
    words = []
    for w in code.words:
        fused = []
        for b in range(code.length // a):
            block = w[b * a : (b + 1) * a]
            fused.append(sum(s * code.q**j for j, s in enumerate(block)))
        words.append(tuple(fused))
    return Code(tuple(words), q_new)


class PatternPartition(Record):
    """Parts V_1..V_{v-1} of the coordinate set 0..N-1, each non-empty."""

    _fields = ("parts",)
    parts: tuple[tuple[int, ...], ...]

    def __init__(self, parts: Iterable[Iterable[int]]) -> None:
        parts = tuple(tuple(p) for p in parts)
        self.__dict__.update(parts=parts)
        flat = [i for part in parts for i in part]
        if not flat or sorted(flat) != list(range(len(flat))):
            raise ValueError("parts must partition 0..N-1")
        if any(not part for part in parts):
            raise ValueError("empty part")

    @property
    def length(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def v(self) -> int:
        return len(self.parts) + 1


def make_row_partition(N: int, t: int) -> PatternPartition:
    """Split 0..N-1 into v-1 consecutive parts, v = floor((t/2 + 1)**2).

    ``N mod (v-1)`` parts of size ceil(N/(v-1)) come first, the rest take the
    floor (``core.row_parts``); every part must be non-empty.
    """
    if t < 2:
        raise ValueError(f"coalition bound must be >= 2, got {t}")
    k, r, _, lo = core.row_parts(N, t)
    if N < k:
        raise ValueError(f"need N >= {k} coordinates for {k} non-empty parts")
    starts = [p * lo + min(p, r) for p in range(k + 1)]  # the r larger parts first
    return PatternPartition(map(range, starts, starts[1:]))


@record
class PruneStep(NamedTuple):
    removed: int
    part: int
    pattern: tuple[int, ...]


@record
class PruneResult(NamedTuple):
    """Surviving indices (ascending) plus the ordered deletion log."""

    survivors: tuple[int, ...]
    steps: tuple[PruneStep, ...]

    def subcode(self, code: Code) -> Code | None:
        if not self.survivors:
            return None
        return Code(tuple(code.words[i] for i in self.survivors), code.q)


def _require_partition_fits(code: Code, partition: PatternPartition) -> None:
    if partition.length != code.length:
        raise ValueError(
            f"partition covers {partition.length} coordinates, code has {code.length}"
        )


def _sharers(code: Code, parts: Sequence[Sequence[int]]) -> list[list[int]]:
    """Per codeword i and part p, the mask of the other codewords showing word
    i's pattern on part p: the AND of word i's columns (``Code.own_cols``)
    over the part, less word i itself."""
    return [
        [reduce(and_, map(row.__getitem__, part)) & ~(1 << i) for part in parts]
        for i, row in enumerate(code.own_cols())
    ]


def _first_special(
    code: Code, parts: Sequence[Sequence[int]], sharers: Sequence[Sequence[int]], alive: int
) -> PruneStep | None:
    """The lowest codeword of the mask ``alive`` with a pattern, parts taken in
    order, that no other alive codeword shows, as a ``PruneStep``, or None."""
    for ci in core.elements(alive):
        for p, shared in enumerate(sharers[ci]):
            if not shared & alive:
                pattern = tuple(map(code.words[ci].__getitem__, parts[p]))
                return PruneStep(removed=ci, part=p, pattern=pattern)
    return None


def prune_special_codewords(code: Code, partition: PatternPartition) -> PruneResult:
    """Iteratively delete codewords owning a pattern nobody else shows.

    A codeword is special when, on some part, no other surviving codeword
    matches its pattern.  Each round removes the lowest-index special
    codeword (parts scanned in order to find its witnessing pattern), so the
    outcome is deterministic.  The result may be empty.
    """
    _require_partition_fits(code, partition)
    parts = partition.parts
    sharers = _sharers(code, parts)
    alive = (1 << code.size) - 1
    steps: list[PruneStep] = []
    while (special := _first_special(code, parts, sharers, alive)) is not None:
        alive ^= 1 << special.removed
        steps.append(special)
    return PruneResult(tuple(core.elements(alive)), tuple(steps))


@record
class IppViolationCertificate(NamedTuple):
    """Explicit evidence that a code is not t-parent-identifiable.

    ``chain`` lists the backbone codewords x_1..x_k (indices), ``milestones``
    the 0-based positions into the partition's parts where consecutive backbone
    members agree, ``descendant`` the word assembled blockwise from the
    backbone.  ``coalitions`` holds X_0 = chain plus, per backbone member,
    the coalition with that member swapped for its replacement family; all
    have size <= t, all can produce ``descendant``, and their intersection
    is empty.
    """

    chain: tuple[int, ...]
    milestones: tuple[int, ...]
    descendant: Word
    replacements: tuple[tuple[int, ...], ...]
    coalitions: tuple[tuple[int, ...], ...]


def certificate_problems(
    cert: IppViolationCertificate, code: Code, t: int
) -> list[str]:
    """Check a violation certificate from first principles; [] when sound.
    Its descendant and coalitions are replayed as an IPP violation by
    ``recheck.recheck_witness``; the chain and replacements are checked here."""
    from .recheck import recheck_witness

    problems: list[str] = []
    if len(set(cert.chain)) != len(cert.chain):
        problems.append("chain members repeat")
    if len(cert.coalitions) != len(cert.chain) + 1:
        problems.append("expected one coalition per chain member plus the chain itself")
    for i, (member, repl) in enumerate(zip(cert.chain, cert.replacements)):
        if member in repl:
            problems.append(f"replacement family {i} contains the member it replaces")
    witness = {"kind": "ipp-violation", "word": cert.descendant, "coalitions": cert.coalitions}
    return problems + recheck_witness(witness, code, t)


def build_ipp_violation(
    code: Code, partition: PatternPartition, t: int
) -> IppViolationCertificate:
    """Assemble a t-identifiability violation for a code with no private patterns.

    Parts are numbered from 0.  A *sharer* of word x on a part is another
    codeword agreeing with x there.  Walk a backbone: start at word 0; the
    next milestone is the first part, from ``t//2`` for the first and at
    least ``t//2 + 1`` past the previous one after, where no earlier backbone
    member shares the current word's pattern; nothing is private, so its
    lowest-index sharer exists and becomes the next member.  Member x_i's
    segment runs from the part after milestone i-1 through milestone i, and
    the descendant copies x_i there.  Swapping x_i for its replacement
    family, the lowest-index sharers on the first ``t//2`` parts of its
    segment (the few patterns only x_i contributed), yields coalitions of
    size <= t that all explain the descendant and share no member.
    """
    if t < 2:
        raise ValueError(f"coalition bound must be >= 2, got {t}")
    _require_partition_fits(code, partition)
    k = core.row_parts(code.length, t)[0]
    if len(partition.parts) != k:
        raise ValueError(
            f"partition was built for v={partition.v}, coalition bound {t} needs v={k + 1}"
        )
    words = code.words
    parts = partition.parts
    P = len(parts)
    sharers = _sharers(code, parts)

    special = _first_special(code, parts, sharers, (1 << code.size) - 1)
    if special is not None:
        raise ValueError(
            f"codeword {special.removed} owns a private pattern on part {special.part}; "
            "prune first"
        )

    step = t // 2 + 1
    chain = [0]
    before = 0  # the backbone members before the last, as a word mask
    milestones: list[int] = []
    m = step - 1
    while m < P:
        x = chain[-1]
        if sharers[x][m] & before:
            m += 1
        else:
            milestones.append(m)
            before |= 1 << x
            chain.append(next(core.elements(sharers[x][m])))
            m += step

    # Each member's segment runs from the part after the previous milestone
    # through its own milestone (the last part for the last member).
    bounds = [0, *(m + 1 for m in milestones), P]
    descendant = [0] * code.length
    replacements: list[tuple[int, ...]] = []
    for x, first, end in zip(chain, bounds, bounds[1:]):
        for part in parts[first:end]:
            for coord in part:
                descendant[coord] = words[x][coord]
        ys = {next(core.elements(s)) for s in sharers[x][first : min(first + step - 1, end)]}
        replacements.append(tuple(sorted(ys)))

    coalitions = [tuple(sorted(chain))]
    for x, repl in zip(chain, replacements):
        swapped = (set(chain) - {x}) | set(repl)
        coalitions.append(tuple(sorted(swapped)))

    cert = IppViolationCertificate(
        chain=tuple(chain),
        milestones=tuple(milestones),
        descendant=tuple(descendant),
        replacements=tuple(replacements),
        coalitions=tuple(coalitions),
    )
    problems = certificate_problems(cert, code, t)
    if problems:
        raise RuntimeError("violation certificate failed self-check: " + "; ".join(problems))
    return cert


@record
class PairDiagnostics(NamedTuple):
    """A minimum-distance pair that survived a strip.

    Such a pair can only exist when the input was not 3-traceable.
    """

    pair: tuple[int, int]


@record
class StripTrace(NamedTuple):
    """What a distance strip did and why."""

    case: str  # "A" (d > N-t), "B" (d <= 2t), "C" (otherwise)
    d_before: int
    d_after: int | float
    delta: int | None
    threshold: int | None
    removed: tuple[int, ...]
    survivors: tuple[int, ...]
    diagnostics: PairDiagnostics | None


def _min_pattern_frequency(code: Code, t: int) -> list[int]:
    """Per codeword, the smallest t-coordinate pattern frequency (t <= N).

    The words sharing w's pattern on positions P are the AND of w's word
    columns over P (``Code.own_cols``), so the frequency is its popcount.
    Each word's t-subsets of columns are transposed into t sequences and
    ANDed elementwise."""
    ands = partial(reduce, partial(map, and_))
    return [min(map(int.bit_count, ands(zip(*combinations(row, t))))) for row in code.own_cols()]


def distance_strip(
    code: Code, t: int
) -> tuple[tuple[Word, ...], Code | None, StripTrace]:
    """Remove rare-pattern codewords so the minimum distance must rise.

    The length must equal 9t.  With d = d(C): when d > N - t everything is
    removed; when d <= 2t every codeword showing some t-coordinate pattern
    exactly once is removed; otherwise, with delta = N - t - d, every
    codeword showing some t-coordinate pattern at most
    2**(delta+1) * C(N-t, delta+1) times is removed.  For 3-traceable inputs
    the survivors satisfy d(C') >= d + 1 (infinite when fewer than two
    survive); on other inputs only the partition of the word set is
    guaranteed, and any surviving minimum-distance pair is documented in the
    trace diagnostics.
    """
    if t < 1:
        raise ValueError(f"strip parameter must be >= 1, got {t}")
    N = code.length
    if N % 9:
        raise ValueError(f"length {N} is not a multiple of 9")
    if N != 9 * t:
        raise ValueError(f"length {N} does not equal 9*{t}")
    if code.size < 3:
        raise ValueError(f"need at least three codewords, got {code.size}")
    d = int(core.min_distance(code))  # finite: at least three distinct words

    delta: int | None = None
    threshold: int | None = None
    if d > N - t:
        case = "A"
        removed_idx = tuple(range(code.size))
    else:
        if d <= 2 * t:
            case = "B"
            threshold = 1
        else:
            case = "C"
            delta = N - t - d
            threshold = 2 ** (delta + 1) * comb(N - t, delta + 1)
        freq = _min_pattern_frequency(code, t)
        removed_idx = tuple(i for i in range(code.size) if freq[i] <= threshold)

    removed_set = set(removed_idx)
    survivors = tuple(i for i in range(code.size) if i not in removed_set)
    survivor_code = (
        Code(tuple(code.words[i] for i in survivors), code.q) if survivors else None
    )
    d_after = core.min_distance(survivor_code) if survivor_code else core.INFINITE_DISTANCE

    diagnostics = None
    if survivor_code is not None and survivor_code.size >= 2 and d_after == d:
        # The first survivor with a later one N - d agreements away, and the
        # first such later one (``core.most_held`` over word columns).
        held, alive = code.own_cols(), sum(1 << i for i in survivors)
        for a in survivors[:-1]:
            k, later = core.most_held(held[a], alive & -(2 << a))
            if k == N - d:
                diagnostics = PairDiagnostics((a, next(core.elements(later))))
                break

    trace = StripTrace(
        case=case,
        d_before=d,
        d_after=d_after,
        delta=delta,
        threshold=threshold,
        removed=removed_idx,
        survivors=survivors,
        diagnostics=diagnostics,
    )
    return tuple(code.words[i] for i in removed_idx), survivor_code, trace
