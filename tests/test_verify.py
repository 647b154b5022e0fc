"""Exact property checks and their witnesses."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_code, random_code_stream, random_family
from tracecodes import cli, core, verify
from tracecodes.core import Code, DescendantSetTooLarge, hamming_distance, is_descendant, onehot
from tracecodes.transform import SetFamily, cff_to_fpc, fpc_to_cff

IDENTITY3 = Code.from_strings(["100", "010", "001"], 2)
SQUARE = Code.from_strings(["10", "01", "11"], 2)
REPS3 = Code(tuple(tuple(s for _ in range(4)) for s in range(3)), 3)


def reverify(verdict, code=None, family=None):
    """Re-check a witness against the raw definitions, without the library."""
    w = verdict.witness
    if verdict.holds:
        assert w is None
        return
    assert w is not None
    if isinstance(w, verify.FramedWord):
        members = code.coalition_words(w.coalition)
        assert w.framed not in w.coalition
        assert code.words[w.framed] in oracles.desc_set(members)
    elif isinstance(w, verify.CoverViolation):
        target = set(family.member_elements(w.covered))
        union = set()
        for j in w.covering:
            union |= set(family.member_elements(j))
        assert w.covered not in w.covering
        assert len(w.covering) <= verdict.t
        assert target <= union
    elif isinstance(w, verify.IppViolation):
        sets = [set(c) for c in w.coalitions]
        assert not set.intersection(*sets)
        for c in w.coalitions:
            assert len(c) <= verdict.t
            assert w.word in oracles.desc_set(code.coalition_words(c))
    elif isinstance(w, verify.TaViolation):
        assert is_descendant(w.pirate, code.coalition_words(w.coalition))
        assert w.outsider not in w.coalition
        d_in = min(
            oracles.hamming(w.pirate, code.words[i]) for i in w.coalition
        )
        d_out = oracles.hamming(w.pirate, code.words[w.outsider])
        assert d_in == w.insider_distance
        assert d_out == w.outsider_distance
        assert d_in >= d_out
    else:  # pragma: no cover - exhaustiveness guard
        raise AssertionError(f"unknown witness {w!r}")


def word_sets(code):
    """Each codeword as the set of its (coordinate, symbol) pairs."""
    return [set(enumerate(w)) for w in code.words]


def member_sets(family):
    return [family.member_elements(i) for i in range(family.size)]


def assert_scan_matches_oracle(verdict, sets, t):
    """An FP or CFF verdict has the plain scan's witness and counters."""
    hit, tried = oracles.first_cover(sets, t)
    if verdict.property == "FP":
        witness = None if hit is None else verify.FramedWord(*hit)
        counters = verify.Counters(tried, tried)
    else:
        witness = None if hit is None else verify.CoverViolation(*hit)
        counters = verify.Counters(tried, 0)
    assert (verdict.holds, verdict.witness, verdict.counters) == (hit is None, witness, counters)


def random_cover_instances(seed, count):
    """(family, code, t): up to 14 members or codewords, in shuffled order, t up to 5."""
    rng = random.Random(seed)
    for _ in range(count):
        ground = rng.randint(2, 12)
        members = list(random_family(rng, ground, rng.randint(1, min(14, (1 << ground) - 1))).members)
        rng.shuffle(members)
        N, q = rng.randint(1, 6), rng.randint(2, 3)
        words = list(random_code(rng, N, q, rng.randint(1, min(14, q**N))).words)
        rng.shuffle(words)
        yield SetFamily(ground, tuple(members)), Code(tuple(words), q), rng.randint(1, 5)


def bit_elements(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def dense_cover_instances(seed, count):
    """(member masks, code, t): heavily overlapping, with the smallest covers past the first.

    The masks start with one or two members holding a private top element
    and random shared ones, then members made of whole pieces (pairs of
    elements) and one holder per piece that may reach one element into
    another piece, a duplicated holder at times and an empty member at
    times.  The code starts with one or two words holding a private symbol
    on a late coordinate; its other words are 0 on some blocks of
    coordinates and take symbols 1..q-2 elsewhere, one per block (a holder)
    or several.
    """
    rng = random.Random(seed)
    for _ in range(count):
        pieces = rng.randint(2, 6)
        low = 2 * pieces
        hard = [
            1 << low + i | rng.getrandbits(low) & rng.getrandbits(low)
            for i in range(rng.randint(1, 2))
        ]
        holders = [3 << 2 * i | rng.choice([0, 1 << rng.randrange(low)]) for i in range(pieces)]
        mixed = [
            sum(3 << 2 * i for i in rng.sample(range(pieces), rng.randint(1, pieces)))
            for _ in range(rng.randint(1, 2))
        ]
        rest = holders + rng.sample(holders, rng.randint(0, 1)) + [0] * (rng.random() < 0.3)
        rng.shuffle(rest)
        N, q = rng.randint(3, 7), rng.randint(3, 5)
        cuts = sorted(rng.sample(range(1, N), rng.randint(1, min(4, N - 1))))
        blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [N])]

        def word(zero):
            return tuple(
                0 if any(i in blocks[b] for b in zero) else rng.randint(1, q - 2) for i in range(N)
            )

        tagged = [
            tuple(q - 1 if i == N - 1 - k else rng.randrange(q - 1) for i in range(N))
            for k in range(rng.randint(1, 2))
        ]
        blended = [
            word(rng.sample(range(len(blocks)), rng.randint(1, len(blocks))))
            for _ in range(rng.randint(1, 2))
        ]
        words = dict.fromkeys(tagged + blended + [word([b]) for b in range(len(blocks))])
        yield hard + mixed + rest, Code(tuple(words), q), rng.randint(1, 5)


class TestFrameproof:
    def test_identity_holds(self):
        assert verify.check_frameproof(IDENTITY3, 2).holds

    def test_square_fails_with_witness(self):
        verdict = verify.check_frameproof(SQUARE, 2)
        assert not verdict.holds
        assert verdict.witness == verify.FramedWord(framed=2, coalition=(0, 1))
        assert verdict.counters.subsets_examined == 9
        assert verdict.counters.words_examined == 9
        reverify(verdict, code=SQUARE)

    def test_single_codeword_holds(self):
        lonely = Code.from_strings(["0101"], 2)
        for t in (1, 2, 5):
            assert verify.check_frameproof(lonely, t).holds

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            verify.check_frameproof(SQUARE, 0)

    def test_modes_agree_on_stream(self):
        # The cover scan against the coalition-major reading desc(D) n C = D.
        for code in random_code_stream(seed=101, count=250):
            got = verify.check_frameproof(code, 2)
            assert got.holds == oracles.frameproof_holds(code.words, 2), code

    def test_matches_oracle_on_stream(self):
        for code in random_code_stream(seed=102, count=150):
            for t in (1, 2, 3):
                got = verify.check_frameproof(code, t)
                assert got.holds == oracles.frameproof_holds(code.words, t)
                reverify(got, code=code)

    def test_packed_path_agrees_with_generic(self):
        # The one-hot bitset scan against word-level descendant enumeration.
        for code in random_code_stream(seed=103, count=150, max_q=2):
            fast = verify.check_frameproof(code, 2)
            assert fast.holds == oracles.frameproof_holds(code.words, 2), code
            reverify(fast, code=code)


class TestOneHotKernel:
    """The one-hot checkers (FP, CFF, IPP, TA) against the oracles at tiny sizes."""

    def test_checkers_match_oracles_exhaustively(self):
        for N, q in ((2, 3), (3, 2)):
            universe = list(product(range(q), repeat=N))
            for x, y in combinations(universe, 2):
                agree = (onehot(x, q) & onehot(y, q)).bit_count()
                assert agree == N - hamming_distance(x, y)
            for n in range(1, 5):
                for words in combinations(universe, n):
                    code = Code(words, q)
                    for t in (1, 2, 3):
                        want = oracles.frameproof_holds(words, t)
                        fp = verify.check_frameproof(code, t)
                        assert fp.holds == want, (words, t)
                        reverify(fp, code=code)
                        assert_scan_matches_oracle(fp, word_sets(code), t)
                        ipp = verify.check_ipp(code, t)
                        assert ipp.holds == oracles.ipp_holds(words, q, t), (words, t)
                        reverify(ipp, code=code)
                        ta = verify.check_ta(code, t)
                        assert ta.holds == oracles.ta_holds(words, t), (words, t)
                        reverify(ta, code=code)
                        if q == 2:
                            family = fpc_to_cff(code)
                            cff = verify.check_cff(family, t)
                            assert cff.holds == want
                            assert_scan_matches_oracle(cff, member_sets(family), t)
                            assert cff.counters.subsets_examined == fp.counters.subsets_examined
                            if not want:
                                assert (cff.witness.covered, cff.witness.covering) == (
                                    fp.witness.framed,
                                    fp.witness.coalition,
                                )


class TestCoverFree:
    def test_disjoint_singletons_hold(self):
        fam = SetFamily.from_sets(3, [[0], [1], [2]])
        assert verify.check_cff(fam, 2).holds

    def test_literal_cover_fails(self):
        fam = SetFamily.from_sets(2, [[0], [1], [0, 1]])
        verdict = verify.check_cff(fam, 2)
        assert not verdict.holds
        # first violation in scan order: member 0 sits inside member 2 alone
        assert verdict.witness == verify.CoverViolation(covered=0, covering=(2,))
        reverify(verdict, family=fam)

    def test_empty_member_always_covered(self):
        fam = SetFamily.from_sets(3, [[0], [], [1, 2]])
        for t in (1, 2, 3):
            verdict = verify.check_cff(fam, t)
            assert not verdict.holds
            assert verdict.witness.covered == 1
            assert verdict.witness.covering == ()

    def test_matches_oracle_on_random_families(self):
        rng = random.Random(202)
        for _ in range(200):
            ground = rng.randint(1, 6)
            n = rng.randint(1, 5)
            seen: dict[frozenset, None] = {}
            while len(seen) < n:
                seen.setdefault(
                    frozenset(e for e in range(ground) if rng.random() < 0.45)
                )
                if len(seen) >= (1 << ground):
                    break
            sets = [sorted(s) for s in seen]
            fam = SetFamily.from_sets(ground, sets)
            t = rng.randint(1, 3)
            got = verify.check_cff(fam, t)
            elems = [set(fam.member_elements(i)) for i in range(fam.size)]
            assert got.holds == oracles.cff_holds(elems, t)
            reverify(got, family=fam)

    def test_cff_implies_frameproof_incidence(self):
        rng = random.Random(203)
        found = 0
        while found < 60:
            ground = rng.randint(2, 6)
            n = rng.randint(2, 5)
            sets = [
                [e for e in range(ground) if rng.random() < 0.5]
                for _ in range(n)
            ]
            try:
                fam = SetFamily.from_sets(ground, sets)
            except ValueError:
                continue
            if not verify.check_cff(fam, 2).holds:
                continue
            found += 1
            code = cff_to_fpc(fam)
            assert verify.check_frameproof(code, 2).holds


class TestCoverScan:
    """FP and CFF give the plain (size, lexicographic) scan's witness and counters."""

    def test_every_small_family(self):
        subsets = [s for size in range(5) for s in combinations(range(4), size)]
        for n in range(1, 6):
            for sets in combinations(subsets, n):
                family = SetFamily.from_sets(4, sets)
                code = Code(tuple(tuple(int(e in s) for e in range(4)) for s in sets), 2)
                for t in range(1, 6):
                    assert_scan_matches_oracle(verify.check_cff(family, t), sets, t)
                    fp = verify.check_frameproof(code, t)
                    assert_scan_matches_oracle(fp, word_sets(code), t)

    def test_random_families_and_codes(self):
        for family, code, t in random_cover_instances(seed=301, count=150):
            assert_scan_matches_oracle(verify.check_cff(family, t), member_sets(family), t)
            assert_scan_matches_oracle(verify.check_frameproof(code, t), word_sets(code), t)

    def test_uncovered_singletons_walk_no_group(self, monkeypatch):
        # No other member holds a singleton's element, so the plain loop,
        # which names a cover only at the smallest size that has one, never
        # runs, whatever t is.
        plain = []

        def recorded(pool, size):
            plain.append(size)
            return combinations(pool, size)

        monkeypatch.setattr(verify, "combinations", recorded)
        singletons = SetFamily.from_sets(8, [[e] for e in range(8)])
        for t in range(1, 6):
            assert_scan_matches_oracle(verify.check_cff(singletons, t), member_sets(singletons), t)
        assert plain == []
        for family, code, t in random_cover_instances(seed=303, count=100):
            assert_scan_matches_oracle(verify.check_cff(family, t), member_sets(family), t)
            assert_scan_matches_oracle(verify.check_frameproof(code, t), word_sets(code), t)

    @pytest.mark.parametrize("k,t", [(1, 2), (10, 3)])
    def test_past_the_level_cap(self, monkeypatch, k, t):
        # Member 0 holds elements 0..k-1 and x = k + 80; members 1..k are its
        # singletons, 80 singletons of other elements follow and {x} comes
        # last, so member 0's smallest cover has size k + 1.  The sizes below
        # a member's smallest cover are counted in closed form, and the plain
        # loop runs at one size only: k + 1 for member 0 when k < t, else 1
        # for member 1, which member 0 covers.
        plain = []

        def recorded(pool, size):
            plain.append(size)
            return combinations(pool, size)

        monkeypatch.setattr(verify, "combinations", recorded)
        x = k + 80
        sets = [[*range(k), x]] + [[e] for e in range(x)] + [[x]]
        family = SetFamily.from_sets(x + 1, sets)
        P = family.size - 1
        verdict = verify.check_cff(family, t)
        if k < t:
            witness = verify.CoverViolation(0, (*range(1, k + 1), P))
            tried = sum(math.comb(P, size) for size in range(1, k + 1)) + P - k
        else:
            witness = verify.CoverViolation(1, (0,))
            tried = sum(math.comb(P, size) for size in range(1, t + 1)) + 1
        assert (verdict.witness, verdict.counters) == (witness, verify.Counters(tried, 0))
        assert plain == [k + 1 if k < t else 1]
        assert_scan_matches_oracle(verdict, member_sets(family), t)

    def test_dense_overlapping_families_and_codes(self):
        # The first member or codeword holds an element no other holds, above
        # its shared ones, and the smallest covers of sizes 1..5 fall later.
        sizes = {"CFF": set(), "FP": set()}
        for members, code, t in dense_cover_instances(seed=401, count=300):
            hit, tried = oracles.first_cover(map(bit_elements, members), t)
            assert verify._first_cover(list(map(bit_elements, members)), t) == (hit, tried)
            if 0 not in members and len(set(members)) == len(members):
                family = SetFamily(max(members).bit_length(), tuple(members))
                assert_scan_matches_oracle(verify.check_cff(family, t), member_sets(family), t)
            assert_scan_matches_oracle(verify.check_frameproof(code, t), word_sets(code), t)
            for prop, found in (("CFF", hit), ("FP", oracles.first_cover(word_sets(code), t)[0])):
                if found is not None:
                    assert found[0] > 0
                    sizes[prop].add(len(found[1]))
        assert sizes == {"CFF": {0, 1, 2, 3, 4, 5}, "FP": {2, 3, 4, 5}}

    def test_deep_cover(self):
        # A member of k elements and its k singletons: no group of fewer than
        # k others covers it, and the first of size k is every singleton.
        for k in range(1, 8):
            members = [(1 << k) - 1] + [1 << e for e in range(k)]
            hit, tried = oracles.first_cover(map(bit_elements, members), k)
            assert hit == (0, tuple(range(1, k + 1))) and tried == 2**k - 1
            assert verify._first_cover(list(map(bit_elements, members)), k) == (hit, tried)
        k = 1200
        family = SetFamily.from_sets(k, [range(k)] + [[e] for e in range(k)])
        start = time.perf_counter()
        verdict = verify.check_cff(family, k)
        assert time.perf_counter() - start < 1.0
        assert verdict.witness == verify.CoverViolation(0, tuple(range(1, k + 1)))
        assert verdict.counters == verify.Counters(2**k - 1, 0)
        assert cli.recheck_witness(cli.witness_to_json(verdict.witness, family), family, k) == []

    def test_wide_alphabet_stays_sparse(self):
        # The scan reads the positions of a codeword's one-hot bits, not its
        # one-hot set: one such set here is 320 KB, so keeping one per other
        # member or per element would exceed the bound.
        rng = random.Random(65536)
        code = Code(tuple(tuple(rng.randrange(2**16) for _ in range(40)) for _ in range(8)), 2**16)
        tracemalloc.start()
        try:
            verdict = verify.check_frameproof(code, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and verdict.counters == verify.Counters(56, 56)
        assert peak < 4 * 2**20

    def test_uncoverable_element_cuts_the_search(self):
        # Member 0 holds elements 0..k and no other member holds k.  The
        # others tile 0..k-1 with singletons and neighbouring pairs in far
        # too many ways for a search that branched on element 0 first.
        k = 20
        sets = [range(k + 1)] + [[e] for e in range(k)] + [[e, e + 1] for e in range(k - 1)]
        family = SetFamily.from_sets(k + 1, sets)
        start = time.perf_counter()
        verdict = verify.check_cff(family, k)
        assert time.perf_counter() - start < 1.0
        P = len(sets) - 1
        tried = sum(math.comb(P, size) for size in range(1, k + 1)) + 1
        assert verdict.witness == verify.CoverViolation(1, (0,))
        assert verdict.counters == verify.Counters(tried, 0)


AFFINE7 = Code(
    tuple(tuple((a + b * i) % 7 for i in range(6)) for b in range(2) for a in range(7)), 7
)


class TestIdentifiableParents:
    def test_two_words_hold(self):
        assert verify.check_ipp(Code.from_strings(["00", "11"], 2), 2).holds

    def test_three_words_fail(self):
        code = Code.from_strings(["00", "11", "01"], 2)
        verdict = verify.check_ipp(code, 2)
        assert not verdict.holds
        assert verdict.witness.word == (0, 1)
        assert verdict.witness.coalitions == ((2,), (0, 1))
        reverify(verdict, code=code)

    def test_single_codeword_holds(self):
        lonely = Code.from_strings(["01"], 2)
        for t in (1, 3):
            assert verify.check_ipp(lonely, t).holds

    def test_frozen_verdicts_on_affine_code(self, no_walk):
        # AFFINE7 is {(a + b*i) mod 7 : i < 6}, b < 2 outer, a < 7 inner:
        # n=14, N=6, q=7.  Its E = 14 + 91 coalitions give C(E,2) + C(14,3)
        # = 5824 families and triples; the second counter is column ANDs.
        assert verify.check_ipp(AFFINE7, 2) == verify.Verdict(
            "IPP", 2, True, None, verify.Counters(5824, 1468)
        )
        image = Code(
            tuple(tuple(onehot(w, 7) >> j & 1 for j in range(42)) for w in AFFINE7.words), 2
        )
        verdict = verify.check_ipp(image, 2)
        assert verdict == verify.Verdict(
            "IPP",
            2,
            False,
            verify.IppViolation((0,) * 42, ((0, 1), (2, 3))),
            verify.Counters(1390, 433),
        )
        reverify(verdict, code=image)

    def test_frozen_counters_past_two(self):
        # Families of three and more coalitions are walked (core.failing_family)
        # only through coalitions that shrink the shared members.
        assert verify.check_ipp(AFFINE7, 3) == verify.Verdict(
            "IPP",
            3,
            False,
            verify.IppViolation((0, 1, 0, 1, 0, 1), ((0, 1), (7, 10, 12))),
            verify.Counters(6891, 6938),
        )
        constant = Code(tuple((s,) * 7 for s in range(7)), 7)
        assert verify.check_ipp(constant, 3) == verify.Verdict(
            "IPP", 3, True, None, verify.Counters(55957, 57532)
        )
        code = Code(((0, 0, 2, 2), (0, 3, 0, 0), (1, 3, 1, 2), (3, 1, 2, 0)), 4)
        verdict = verify.check_ipp(code, 3)
        assert verdict == verify.Verdict(
            "IPP",
            3,
            False,
            verify.IppViolation((0, 3, 2, 2), ((0, 1), (0, 2), (1, 2, 3))),
            verify.Counters(146, 85),
        )
        reverify(verdict, code=code)

    def test_two_ipp_matches_flat_family_scan(self, no_walk):
        # At t=2 a code passing every family of two coalitions is decided by
        # the codeword triples; the first failing triple names the first
        # failing family of three, so the flat scan's witness must not move.
        triple = Code.from_strings(["000", "011", "101"], 3)
        # C(6, 2) = 15 families of two, then the one triple.  Four column
        # ANDs rule out the families of two, and two find the triple.
        assert verify.check_ipp(triple, 2) == verify.Verdict(
            "IPP",
            2,
            False,
            verify.IppViolation((0, 0, 1), ((0, 1), (0, 2), (1, 2))),
            verify.Counters(16, 6),
        )
        codes = [triple, *random_code_stream(seed=211, count=3000, max_N=4, max_q=5, max_n=8)]
        sizes = []
        for code in codes:
            verdict = verify.check_ipp(code, 2)
            holds, first = oracles.ipp_first_family(code.words, 2)
            assert verdict.holds == holds, code
            if not holds:
                assert (verdict.witness.word, verdict.witness.coalitions) == first, code
                sizes.append(len(first[1]))
            if code.q**code.length <= 27:
                assert holds == oracles.ipp_holds(code.words, code.q, 2), code
        assert sizes.count(3) >= 20 and sizes.count(2) >= 500
        assert len(sizes) < len(codes) - 500

    def test_two_ipp_matches_oracle_exhaustively(self, no_walk):
        # Every binary code with N <= 3 and every ternary code with N = 2, in
        # both word orders: the witness is the flat scan's, and the position
        # reported is that family's, or the whole scan's when the code holds.
        shapes = {2: 0, 3: 0, None: 0}
        for N, q in ((1, 2), (2, 2), (3, 2), (2, 3)):
            universe = list(product(range(q), repeat=N))
            for n in range(1, len(universe) + 1):
                for words in combinations(universe, n):
                    for order in (words, words[::-1]):
                        verdict = verify.check_ipp(Code(order, q), 2)
                        holds, first = oracles.ipp_first_family(order, 2)
                        family = None if holds else first[1]
                        assert verdict.holds == holds, order
                        if not holds:
                            assert (verdict.witness.word, verdict.witness.coalitions) == first
                        position = oracles.two_ipp_scan_position(n, family)
                        assert verdict.counters.subsets_examined == position, order
                        shapes[family and len(family)] += 1
        assert shapes[3] >= 10 and shapes[2] >= 1000 and shapes[None] >= 50, shapes

    def test_walk_matches_flat_family_scan_past_two(self):
        # Past t=2 the families of three and more are walked, not replaced.
        for t, seed, max_n in ((3, 212, 7), (4, 213, 6)):
            sizes = []
            for code in random_code_stream(seed=seed, count=2000, max_N=4, max_q=4, max_n=max_n):
                verdict = verify.check_ipp(code, t)
                holds, first = oracles.ipp_first_family(code.words, t)
                assert verdict.holds == holds, (code, t)
                if not holds:
                    assert (verdict.witness.word, verdict.witness.coalitions) == first, (code, t)
                    sizes.append(len(first[1]))
            assert sum(k >= 3 for k in sizes) >= 15 and sizes.count(2) >= 500, t
            assert len(sizes) < 2000 - 500, t

    def test_reed_solomon_five_holds(self, no_walk):
        # {a + b*x mod 5 : x < 5}, words sorted: n=25, N=5, q=5.  Every
        # family of two coalitions is scanned, then the C(25, 3) triples.
        words = sorted(tuple((a + b * x) % 5 for x in range(5)) for a in range(5) for b in range(5))
        assert verify.check_ipp(Code(tuple(words), 5), 2) == verify.Verdict(
            "IPP", 2, True, None, verify.Counters(54950, 9831)
        )

    def test_reed_solomon_121_words(self, no_walk):
        # {a + b*x mod 11 : x < N}, n=121: a 2-IPP code, so the scan runs to
        # its end, C(E,2) + C(n,3) for its E = n + C(n,2) coalitions.
        for N in (6, 11):
            words = tuple(
                tuple((a + b * x) % 11 for x in range(N)) for a in range(11) for b in range(11)
            )
            verdict = verify.check_ipp(Code(words, 11), 2)
            E = 121 + math.comb(121, 2)
            assert verdict.holds
            assert verdict.counters.subsets_examined == math.comb(E, 2) + math.comb(121, 3)

    def test_wide_alphabet_reads_columns(self, no_walk):
        # Only word columns are read, so no N*q-bit set (1.6 MB each here)
        # is formed: the family walk over one-hot unions took 154 s and
        # peaked at 364 MB under tracemalloc on this code.
        rng = random.Random(200)
        words = tuple(tuple(rng.randrange(2**16) for _ in range(200)) for _ in range(20))
        start = time.perf_counter()
        verdict = verify.check_ipp(Code(words, 2**16), 2)
        assert time.perf_counter() - start < 1.0
        # C(210, 2) + C(20, 3) families and triples; every first AND is 0.
        assert verdict == verify.Verdict("IPP", 2, True, None, verify.Counters(23085, 2622))
        code = Code(words, 2**16)
        tracemalloc.start()
        try:
            assert verify.check_ipp(code, 2) == verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert "sets" not in code.__dict__

    def test_wide_alphabet_past_two_numbers_symbols(self):
        # Past t=2 each coordinate numbers its symbols by first appearance,
        # so a one-hot block is n bits wide, not q: with 65,536-bit blocks
        # this check took about 1 s and peaked at 4.3 MB under tracemalloc.
        rng = random.Random(65536)
        columns = [rng.sample(range(2**16), 6) for _ in range(10)]
        code = Code(tuple(zip(*columns)), 2**16)
        relabelled = Code(tuple((i,) * 10 for i in range(6)), 6)
        want = verify.Verdict("IPP", 3, True, None, verify.Counters(13012, 18724))
        assert verify.check_ipp(relabelled, 3) == want
        start = time.perf_counter()
        assert verify.check_ipp(code, 3) == want
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            assert verify.check_ipp(code, 3) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20
        # The witness word keeps the code's own symbols: spread order-keeping
        # over the wide alphabet, a failing code fails on the spread word.
        small = ((0, 0, 2, 2), (0, 3, 0, 0), (1, 3, 1, 2), (3, 1, 2, 0))
        wide = Code(tuple(tuple(s * 16000 + i for i, s in enumerate(w)) for w in small), 2**16)
        verdict = verify.check_ipp(wide, 3)
        assert verdict == verify.Verdict(
            "IPP",
            3,
            False,
            verify.IppViolation((0, 48001, 32002, 32003), ((0, 1), (0, 2), (1, 2, 3))),
            verify.Counters(146, 85),
        )
        reverify(verdict, code=wide)

    def test_matches_exhaustive_oracle_sample(self):
        # Full exhaustion over every small binary code lives in the
        # acceptance suite; here a randomized slice keeps feedback fast.
        rng = random.Random(204)
        for _ in range(120):
            N = rng.randint(1, 3)
            n = rng.randint(1, min(5, 2**N))
            code = random_code(rng, N, 2, n)
            for t in (1, 2):
                got = verify.check_ipp(code, t)
                assert got.holds == oracles.ipp_holds(code.words, 2, t), (code, t)
                reverify(got, code=code)


class TestTraceability:
    def test_repetition_code_holds(self):
        assert verify.check_ta(REPS3, 2).holds

    def test_square_fails(self):
        verdict = verify.check_ta(SQUARE, 2)
        assert not verdict.holds
        assert verdict.witness == verify.TaViolation(
            coalition=(0, 1),
            pirate=(1, 1),
            outsider=2,
            insider_distance=1,
            outsider_distance=0,
        )
        reverify(verdict, code=SQUARE)

    def test_vacuous_when_no_outsider(self):
        pair = Code.from_strings(["00", "11"], 2)
        assert verify.check_ta(pair, 2).holds
        assert verify.check_ta(pair, 5).holds

    def test_cap_surfaces_as_error(self):
        wide = Code(
            (tuple([0] * 48), tuple([1] * 48), tuple([0] * 24 + [1] * 24)), 2
        )
        with pytest.raises(DescendantSetTooLarge) as err:
            verify.check_ta(wide, 2)
        assert "too large" in str(err.value)

    def test_cap_spares_coalitions_with_no_outsider_left(self):
        # Two constant words span 2^33 descendants, past the cap, but no
        # outsider holds either's symbol anywhere, so nothing is walked.
        constant = Code(tuple((j,) * 33 for j in range(5)), 5)
        assert verify.check_ta(constant, 2) == verify.Verdict(
            "TA", 2, True, None, verify.Counters(15, 0)
        )
        # {(a + b*i) mod 37 : i < 37}: 111 words whose pairs span up to 2^37.
        p = 37
        affine = Code(
            tuple(tuple((a + b * i) % p for i in range(p)) for b in range(3) for a in range(p)), p
        )
        assert verify.check_ta(affine, 2) == verify.Verdict(
            "TA", 2, True, None, verify.Counters(111 + math.comb(111, 2), 0)
        )

    @staticmethod
    def affine(p):
        # {(a + b*i) mod p : i < 5}, b < 3 outer, a < p inner.
        return Code(
            tuple(tuple((a + b * i) % p for i in range(5)) for b in range(3) for a in range(p)), p
        )

    @staticmethod
    def screens(monkeypatch):
        """The thresholds of every outsider screen ``check_ta`` runs from now on."""
        seen = []
        real = verify._in_at_least

        def counted(masks, k):
            seen.append(k)
            return real(masks, k)

        monkeypatch.setattr(verify, "_in_at_least", counted)
        return seen

    def test_frozen_verdicts_on_affine_codes(self):
        affine = self.affine
        assert verify.check_ta(affine(13), 2) == verify.Verdict(
            "TA", 2, True, None, verify.Counters(780, 0)
        )
        code = affine(11)
        verdict = verify.check_ta(code, 3)
        assert verdict == verify.Verdict(
            "TA",
            3,
            False,
            verify.TaViolation((0, 1, 2), (0, 0, 0, 1, 2), 20, 2, 2),
            verify.Counters(562, 3),
        )
        reverify(verdict, code=code)

    def test_wide_alphabet_stays_sparse(self):
        # The walk reads columns only for the symbols the words hold: a
        # column per one-hot bit would take about 20 MB here.
        rng = random.Random(65536)
        code = Code(tuple(tuple(rng.randrange(2**16) for _ in range(40)) for _ in range(8)), 2**16)
        tracemalloc.start()
        try:
            verdict = verify.check_ta(code, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak < 4 * 2**20

    def test_wide_alphabet_reads_symbols(self):
        # Symbols come from the words, so no N*q-bit set (1.6 MB each here)
        # is formed: the union, the span and the walk's children all used to
        # shift one per coordinate (2.6-2.9 s for this check).  At t=1 no
        # outsider can tie a lone insider, so nothing is walked.
        rng = random.Random(200)
        code = Code(tuple(tuple(rng.randrange(2**16) for _ in range(200)) for _ in range(20)), 2**16)
        tracemalloc.start()
        try:
            verdict = verify.check_ta(code, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == verify.Verdict("TA", 1, True, None, verify.Counters(20, 0))
        assert peak < 1.5 * 2**20

    @staticmethod
    def assert_first_violation(code, t):
        holds, witness, scanned = oracles.ta_first_violation(code.words, t)
        verdict = verify.check_ta(code, t)
        w = verdict.witness
        got = None if w is None else (
            w.coalition, w.pirate, w.outsider, w.insider_distance, w.outsider_distance
        )
        assert (verdict.holds, got, verdict.counters.subsets_examined) == (
            holds, witness, scanned
        ), (code, t)
        return holds

    def test_first_violation_matches_oracle_exhaustively(self):
        # Every code with q=2, N <= 3 and with q=3, N=2.
        held = failed = 0
        for N, q in ((1, 2), (2, 2), (3, 2), (2, 3)):
            universe = list(product(range(q), repeat=N))
            for n in range(1, len(universe) + 1):
                for words in combinations(universe, n):
                    for t in (1, 2, 3):
                        if self.assert_first_violation(Code(words, q), t):
                            held += 1
                        else:
                            failed += 1
        assert held > 900 and failed > 1300

    def test_first_violation_matches_oracle_on_random_codes(self):
        rng = random.Random(2101)
        held = 0
        for _ in range(2000):
            q, N = rng.randint(2, 4), rng.randint(1, 5)
            code = random_code(rng, N, q, rng.randint(1, min(9, q**N)))
            held += self.assert_first_violation(code, rng.randint(1, 3))
        assert 1000 < held < 1400

    def test_witness_outsider_is_the_first_nearest(self):
        # The witness reads agreements off word columns; recount them by
        # Hamming distance, word by word, on codes too big for the oracle.
        rng = random.Random(2103)
        failed = 0
        for _ in range(400):
            q, N = rng.randint(2, 4), rng.randint(2, 7)
            code = random_code(rng, N, q, rng.randint(3, min(12, q**N)))
            w = verify.check_ta(code, rng.randint(1, 3)).witness
            if w is None:
                continue
            failed += 1
            outsiders = [o for o in range(code.size) if o not in w.coalition]
            far = [hamming_distance(w.pirate, code.words[o]) for o in outsiders]
            near = min(hamming_distance(w.pirate, code.words[i]) for i in w.coalition)
            assert (w.outsider, w.outsider_distance, w.insider_distance) == (
                outsiders[far.index(min(far))], min(far), near
            ), code
        assert failed > 200

    def test_in_at_least_counts_every_threshold(self):
        rng = random.Random(2102)
        for _ in range(300):
            masks = [rng.getrandbits(12) for _ in range(rng.randint(1, 20))]
            for k in range(1, len(masks) + 2):
                want = sum(
                    1 << b for b in range(12) if sum(m >> b & 1 for m in masks) >= k
                )
                assert verify._in_at_least(masks, k) == want, (masks, k)
            # most_held: the top count over ``among`` and the bits reaching it,
            # also for bits 12..15 that no mask touches (count 0).
            for among in (rng.getrandbits(16), rng.getrandbits(4) << 12):
                counts = {b: sum(m >> b & 1 for m in masks) for b in core.elements(among)}
                top = max(counts.values(), default=0)
                bits = sum(1 << b for b, c in counts.items() if c == top)
                assert core.most_held(masks, among) == (top, bits), (masks, among)
        assert core.most_held([0b1010, 0b0010], 0b0101) == (0, 0b0101)
        assert core.most_held([0b1010], 0) == (0, 0)

    def test_reed_solomon_121_words(self):
        # {a + b*x mod 11 : x < N}: minimum distance N-1, so the distance
        # condition (d > 3N/4 at t=2) holds from N=5 on.  No outsider of any
        # coalition shares half the coordinates, so no descendant is walked.
        for N in (6, 11):
            words = tuple(
                tuple((a + b * x) % 11 for x in range(N)) for a in range(11) for b in range(11)
            )
            code = Code(words, 11)
            assert verify.ta_distance_sufficient(code, 2)
            assert verify.check_ta(code, 2) == verify.Verdict(
                "TA", 2, True, None, verify.Counters(7381, 0)
            )

    def test_reed_solomon_tie_fails(self):
        # {a + b*x mod 5 : x < 4}: at t=2 the outsider shares exactly N/2 = 2
        # coordinates with the coalition's symbols and ties the insiders.
        words = tuple(tuple((a + b * x) % 5 for x in range(4)) for a in range(5) for b in range(5))
        code = Code(words, 5)
        assert not verify.ta_distance_sufficient(code, 2)
        verdict = verify.check_ta(code, 2)
        assert verdict == verify.Verdict(
            "TA",
            2,
            False,
            verify.TaViolation((0, 5), (0, 0, 1, 1), 2, 2, 2),
            verify.Counters(30, 18),
        )
        assert cli.recheck_witness(cli.witness_to_json(verdict.witness, code), code, 2) == []

    def test_sizes_settled_by_distance_form_no_coalition(self, monkeypatch):
        # Two affine words share at most one coordinate, so an outsider holds
        # a member's symbol on at most 2 of the 5 coordinates of a pair, short
        # of the ceil(5/2) = 3 a tie needs: both sizes are settled whole.
        screens = self.screens(monkeypatch)
        assert verify.check_ta(self.affine(13), 2) == verify.Verdict(
            "TA", 2, True, None, verify.Counters(780, 0)
        )
        assert screens == []
        # At t=3 sizes 1 and 2 are settled (33 + 528 coalitions) and triples
        # are screened, the first of them failing.
        verdict = verify.check_ta(self.affine(11), 3)
        assert (verdict.holds, verdict.counters) == (False, verify.Counters(562, 3))
        assert screens == [2]

    def test_distance_condition_costs_no_screen(self, monkeypatch):
        screens = self.screens(monkeypatch)
        settled = 0
        for code in random_code_stream(seed=208, count=1500, max_N=6, max_q=5, max_n=8):
            n = code.size
            for t in (1, 2, 3):
                if n < 2 or not verify.ta_distance_sufficient(code, t):
                    continue
                subsets = sum(math.comb(n, s) for s in range(1, min(t, n - 1) + 1))
                assert verify.check_ta(code, t) == verify.Verdict(
                    "TA", t, True, None, verify.Counters(subsets, 0)
                ), (code, t)
                assert screens == [], (code, t)
                settled += t > 1 and n > 2
        assert settled > 150

    def test_tie_on_the_size_bound_is_screened(self, monkeypatch):
        # The GF(5) Reed-Solomon code below has d = 3: pairs reach
        # 2*(4 - 3) = ceil(4/2) exactly, so they cannot be settled whole.
        screens = self.screens(monkeypatch)
        words = tuple(tuple((a + b * x) % 5 for x in range(4)) for a in range(5) for b in range(5))
        assert not verify.check_ta(Code(words, 5), 2).holds
        assert screens == [2] * (30 - 25)

    def test_matches_oracle_on_stream(self):
        for code in random_code_stream(seed=205, count=150, max_N=4, max_n=5):
            for t in (1, 2):
                got = verify.check_ta(code, t)
                assert got.holds == oracles.ta_holds(code.words, t), (code, t)
                reverify(got, code=code)


class TestDistanceCondition:
    def test_examples(self):
        assert verify.ta_distance_sufficient(REPS3, 2) is True  # 4 > 3
        assert verify.ta_distance_sufficient(Code.from_strings(["000", "011"], 2), 2) is False
        reps9 = Code((tuple([0] * 9), tuple([1] * 9)), 2)
        assert verify.ta_distance_sufficient(reps9, 3) is True  # 9 > 8

    def test_sufficiency_is_sound(self):
        for code in random_code_stream(seed=206, count=200, max_N=5, max_n=5):
            if code.size < 2:
                continue
            for t in (2, 3):
                if verify.ta_distance_sufficient(code, t):
                    assert verify.check_ta(code, t).holds, (code, t)


class TestHierarchy:
    def test_ta_implies_ipp_implies_fp(self):
        for code in random_code_stream(seed=207, count=300):
            for t in (1, 2):
                ta = verify.check_ta(code, t).holds
                ipp = verify.check_ipp(code, t).holds
                fp = verify.check_frameproof(code, t).holds
                if ta:
                    assert ipp, (code, t)
                if ipp:
                    assert fp, (code, t)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hierarchy_fuzz(self, seed):
        rng = random.Random(seed)
        N, q = rng.randint(1, 4), rng.randint(2, 3)
        code = random_code(rng, N, q, rng.randint(1, min(5, q**N)))
        t = rng.randint(1, 3)
        if verify.check_ta(code, t).holds:
            assert verify.check_ipp(code, t).holds
        if verify.check_ipp(code, t).holds:
            assert verify.check_frameproof(code, t).holds
