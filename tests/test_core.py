"""Data-model tests: distances, descendants, parent sets."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_code, random_code_stream
from tracecodes import bounds, core, trace, transform, verify
from tracecodes.core import Code, SetFamily


def words_strategy(max_N=5, max_q=4, max_n=6):
    def build(draw):
        N = draw(st.integers(1, max_N))
        q = draw(st.integers(2, max_q))
        n = draw(st.integers(1, min(max_n, q**N)))
        pool = st.tuples(*[st.integers(0, q - 1)] * N)
        words = draw(st.lists(pool, min_size=n, max_size=n, unique=True))
        return Code(tuple(words), q)

    return st.composite(lambda draw: build(draw))()


class TestCodeConstruction:
    def test_basic_properties(self):
        code = Code(((0, 1, 2), (1, 1, 1)), 3)
        assert code.length == 3
        assert code.size == 2

    def test_from_strings(self):
        assert Code.from_strings(["01", "10"], 2).words == ((0, 1), (1, 0))

    @pytest.mark.parametrize(
        "words, q",
        [
            (((0, 1), (0, 1)), 2),  # duplicate
            (((0, 1), (0,)), 2),  # ragged
            (((0, 2),), 2),  # symbol out of range
            ((), 2),  # empty
        ],
    )
    def test_rejects_bad_input(self, words, q):
        with pytest.raises(ValueError):
            Code(words, q)

    def test_sets_leave_equality_hash_and_repr_alone(self):
        code = Code(((0, 1), (1, 0)), 2)
        same = Code([[0, 1], [1, 0]], 2)
        assert code == same and hash(code) == hash(same)
        assert repr(code) == "Code(words=((0, 1), (1, 0)), q=2)"
        assert code != Code(((1, 0), (0, 1)), 2)
        assert code != Code(((0, 1), (1, 0)), 3)

    def test_cols_are_the_word_columns(self):
        for code in random_code_stream(seed=36, count=100, max_q=4):
            N, q = code.length, code.q
            want = {
                i * q + s: sum(1 << j for j, w in enumerate(code.words) if w[i] == s)
                for i in range(N)
                for s in range(q)
            }
            assert code.cols == {pos: m for pos, m in want.items() if m}

    def test_cols_leave_equality_hash_and_repr_alone(self):
        code = Code(((0, 1), (1, 0)), 2)
        fresh = Code(((0, 1), (1, 0)), 2)
        assert code.cols == {0: 1, 1: 2, 2: 2, 3: 1}
        assert code == fresh and hash(code) == hash(fresh)
        assert repr(code) == repr(fresh) == "Code(words=((0, 1), (1, 0)), q=2)"
        assert "cols" not in Code._fields

    def test_cols_stay_sparse_on_a_wide_alphabet(self):
        # One column per one-hot bit would be 40 * 2**16 entries here.
        rng = random.Random(65536)
        code = Code(tuple(tuple(rng.randrange(2**16) for _ in range(40)) for _ in range(8)), 2**16)
        tracemalloc.start()
        try:
            cols = code.cols
            family = core.parent_sets(code.words[3], code, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cols) == 320
        pairs = [(j, 3) for j in range(3)] + [(3, j) for j in range(4, 8)]
        assert family.coalitions == ((3,), *pairs)
        assert peak < 4 * 2**20

    def test_agreement_counts_stay_small_on_a_wide_alphabet(self):
        # One N*q-bit set per word would be 20 sets of 1.6 MB here.
        rng = random.Random(200)
        words = tuple(tuple(rng.randrange(2**16) for _ in range(200)) for _ in range(20))
        pirate = tuple(rng.choice(words)[i] for i in range(200))
        for run in (lambda code: trace.trace_ta(code, pirate), core.min_distance):
            code = Code(words, 2**16)
            tracemalloc.start()
            try:
                run(code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, run
        assert core.min_distance(code) == min(
            core.hamming_distance(a, b) for a, b in combinations(words, 2)
        )

    def test_word_cols_checks_length_and_alphabet(self):
        code = Code(((0, 1), (1, 0)), 2)
        assert code.word_cols((1, 1)) == [0b10, 0b01]
        assert Code(((0, 1), (1, 1)), 3).word_cols((2, 1)) == [0, 0b11]
        with pytest.raises(ValueError, match=r"^length mismatch: 1 vs 2$"):
            code.word_cols((0,))
        with pytest.raises(ValueError, match=r"^symbol 2 out of range for q=2$"):
            code.word_cols((0, 2))
        with pytest.raises(ValueError, match=r"^symbol -1 out of range for q=2$"):
            code.word_cols((-1, 0))

    def test_own_cols_are_every_words_columns(self):
        for code in random_code_stream(seed=106, count=100, max_N=5, max_q=4, max_n=8):
            assert code.own_cols() == [code.word_cols(w) for w in code.words], code

    def test_min_distance_reads_own_columns_unchecked(self, monkeypatch):
        # The code's own words were checked when it was built.
        code = Code.from_strings(["0000", "0111", "1011", "1101"], 2)
        monkeypatch.setattr(Code, "check_word", lambda self, x: pytest.fail("re-checked"))
        assert core.min_distance(code) == 2

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            Code(((0,),), 1)
        with pytest.raises(ValueError):
            Code(((0,),), 2**16 + 1)


class TestDistances:
    def test_examples(self):
        assert core.hamming_distance((0, 1, 2), (0, 2, 2)) == 1
        assert core.hamming_distance((0, 1, 2), (0, 1, 2)) == 0
        assert core.hamming_distance((0, 0), (1, 1)) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            core.hamming_distance((0, 1), (0, 1, 2))

    @given(st.data())
    def test_metric_properties(self, data):
        N = data.draw(st.integers(1, 6))
        sym = st.integers(0, 3)
        x = data.draw(st.tuples(*[sym] * N))
        y = data.draw(st.tuples(*[sym] * N))
        z = data.draw(st.tuples(*[sym] * N))
        assert core.hamming_distance(x, y) == core.hamming_distance(y, x)
        assert (core.hamming_distance(x, y) == 0) == (x == y)
        assert core.hamming_distance(x, z) <= core.hamming_distance(x, y) + core.hamming_distance(y, z)

    def test_min_distance_examples(self):
        assert core.min_distance(Code.from_strings(["000", "011"], 2)) == 2
        reps = Code(tuple(tuple(s for _ in range(9)) for s in range(3)), 3)
        assert core.min_distance(reps) == 9
        assert core.min_distance(Code(((0, 1),), 2)) == core.INFINITE_DISTANCE
        assert math.isinf(core.INFINITE_DISTANCE)
        assert core.INFINITE_DISTANCE > 10**100

    @given(words_strategy())
    @settings(max_examples=150)
    def test_min_distance_matches_oracle(self, code):
        got = core.min_distance(code)
        want = oracles.min_distance(code.words)
        assert got == want or (math.isinf(got) and math.isinf(want))


class TestDescendants:
    def test_profile_examples(self):
        assert core.desc_profile([(0, 1), (1, 1)]) == ((0, 1), (1,))
        assert core.desc_profile([(0, 1, 2)]) == ((0,), (1,), (2,))
        assert core.desc_profile([(0, 0), (1, 1)]) == ((0, 1), (0, 1))

    def test_is_descendant_examples(self):
        assert core.is_descendant((1, 1), [(0, 1), (1, 1)])
        assert not core.is_descendant((0, 0), [(0, 1), (1, 1)])
        assert core.is_descendant((0, 1), [(0, 1)])

    def test_empty_coalition_rejected(self):
        with pytest.raises(ValueError):
            core.desc_profile([])
        with pytest.raises(ValueError):
            core.is_descendant((0,), [])

    @given(st.data())
    @settings(max_examples=100)
    def test_membership_matches_oracle(self, data):
        N = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(2, 3))
        sym = st.integers(0, q - 1)
        members = data.draw(
            st.lists(st.tuples(*[sym] * N), min_size=1, max_size=3, unique=True)
        )
        x = data.draw(st.tuples(*[sym] * N))
        want = x in oracles.desc_set(members)
        assert core.is_descendant(x, members) == want
        union = 0
        for m in members:
            union |= core.onehot(m, q)
        assert (core.onehot(x, q) & ~union == 0) == want

    @given(st.data())
    @settings(max_examples=60)
    def test_profile_monotone_under_growth(self, data):
        N = data.draw(st.integers(1, 4))
        sym = st.integers(0, 2)
        small = data.draw(st.lists(st.tuples(*[sym] * N), min_size=1, max_size=2, unique=True))
        extra = data.draw(st.lists(st.tuples(*[sym] * N), min_size=0, max_size=2))
        big = list(dict.fromkeys(small + extra))
        p_small = core.desc_profile(small)
        p_big = core.desc_profile(big)
        for a, b in zip(p_small, p_big):
            assert set(a) <= set(b)
        x = data.draw(st.tuples(*[sym] * N))
        if core.is_descendant(x, small):
            assert core.is_descendant(x, big)


class TestParentSets:
    def test_coalition_enumeration_order(self):
        got = list(core.iter_coalitions(range(3), 2))
        assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_family_example(self):
        code = Code.from_strings(["00", "11", "01"], 2)
        family = core.parent_sets((0, 1), code, 2)
        assert family.coalitions == ((2,), (0, 1), (0, 2), (1, 2))
        as_words = {code.coalition_words(c) for c in family}
        assert as_words == {
            ((0, 1),),
            ((0, 0), (1, 1)),
            ((0, 0), (0, 1)),
            ((1, 1), (0, 1)),
        }
        # (2,) and (0, 1) are disjoint, so no index lies in every parent set.
        assert family.common_members() == ()

    def test_common_members_nonempty(self):
        code = Code.from_strings(["00", "11", "01"], 2)
        family = core.parent_sets((1, 1), code, 2)
        assert all(1 in c for c in family.coalitions)
        assert family.common_members() == (1,)

    def test_no_parents(self):
        code = Code.from_strings(["00", "11"], 2)
        # symbol 2 is legal for q=3 words but never occurs in this code
        family = core.parent_sets((2, 2), Code(code.words, 3), 2)
        assert family.coalitions == ()
        assert family.common_members() == ()

    def test_own_singleton_listed(self):
        code = Code.from_strings(["00", "11", "01"], 2)
        family = core.parent_sets((1, 1), code, 1)
        assert (1,) in family.coalitions

    def test_rejects_bad_strength(self):
        code = Code.from_strings(["00"], 2)
        with pytest.raises(ValueError):
            core.parent_sets((0, 0), code, 0)

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_per_subset_oracle(self, data):
        N = data.draw(st.integers(1, 3))
        q = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 10**6))
        code = random_code(random.Random(seed), N, q, min(n, q**N))
        sym = st.integers(0, q - 1)
        x = data.draw(st.tuples(*[sym] * N))
        t = data.draw(st.integers(1, 3))
        family = core.parent_sets(x, code, t)
        for size in range(1, min(t, code.size) + 1):
            for idx in combinations(range(code.size), size):
                expected = x in oracles.desc_set(code.coalition_words(idx))
                assert (idx in family.coalitions) == expected

    def test_matches_flat_scan_in_order(self):
        # Four kinds of pirate word per code: a codeword, a descendant of a
        # random coalition of up to t+1 words, a uniform word, and a word
        # taking at one coordinate a symbol no codeword holds there.
        rng = random.Random(20)
        instances = 0
        for _ in range(600):
            q, N = rng.randint(2, 5), rng.randint(1, 6)
            words = list(random_code(rng, N, q, rng.randint(1, min(12, q**N))).words)
            rng.shuffle(words)
            code = Code(tuple(words), q)
            t = rng.randint(1, 4)
            members = rng.sample(words, rng.randint(1, min(t + 1, len(words))))
            pirates = [
                rng.choice(words),
                tuple(rng.choice(column) for column in core.desc_profile(members)),
                tuple(rng.randrange(q) for _ in range(N)),
            ]
            gaps = [(i, s) for i in range(N) for s in range(q) if all(w[i] != s for w in words)]
            if gaps:
                i, s = rng.choice(gaps)
                pirates.append((*pirates[2][:i], s, *pirates[2][i + 1 :]))
            for x in pirates:
                family = core.parent_sets(x, code, t)
                assert family.coalitions == oracles.parent_sets_flat(x, words, q, t), (words, q, x, t)
                instances += 1
        assert instances >= 2000



class TestPackedRepresentation:
    @given(st.data())
    @settings(max_examples=80)
    def test_packed_distance_agrees(self, data):
        N = data.draw(st.integers(1, 6))
        q = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(2, min(6, q**N)))
        seed = data.draw(st.integers(0, 10**6))
        code = random_code(random.Random(seed), N, q, n)
        sets = [core.onehot(w, q) for w in code.words]
        for (i, wi), (j, wj) in combinations(enumerate(code.words), 2):
            assert sets[i].bit_count() == N
            assert (sets[i] & sets[j]).bit_count() == N - core.hamming_distance(wi, wj)

    def test_onehot_is_its_definition_up_to_the_largest_alphabet(self):
        rng = random.Random(61)
        shapes = [(200, core.MAX_ALPHABET), (1, 2), (200, 2)]
        shapes += [(rng.randint(1, 200), rng.randint(2, 2 ** rng.randint(1, 16))) for _ in range(30)]
        for N, q in shapes:
            word = [rng.randrange(q) for _ in range(N)]
            assert core.onehot(word, q) == sum(1 << (i * q + s) for i, s in enumerate(word)), (N, q)

    def test_block_masks(self):
        for N, q in [(1, 2), (3, 5), (7, 7), (4, 16)]:
            low, high = core.block_masks(N, q)
            assert low == sum(1 << (i * q) for i in range(N))
            assert high == sum(1 << (i * q + q - 1) for i in range(N))


def first_failing_family_by_definition(entries, starts, size, N, q):
    """The lexicographically first family ``core.failing_family`` may return.

    Families are index tuples starting below ``starts``, of 2..``size``
    entries, in which every entry after the first shrinks the shared
    members and every prefix keeps each q-bit block of its AND non-empty;
    the first such family sharing no member is returned.
    """
    def blocks_full(v):
        return all(v >> (i * q) & ((1 << q) - 1) for i in range(N))

    best = None
    for k in range(2, size + 1):
        for fam in combinations(range(len(entries)), k):
            if fam[0] >= starts:
                continue
            common, inter = entries[fam[0]]
            ok = True
            for j in fam[1:]:
                m, u = entries[j]
                if common & m == common or not blocks_full(inter & u):
                    ok = False
                    break
                common, inter = common & m, inter & u
            if ok and not common and (best is None or fam < best):
                best = fam
    return best


class TestFailingFamily:
    def test_matches_its_definition_on_random_entries(self):
        rng = random.Random(73)
        hits = set()
        for _ in range(400):
            N, q, n = rng.randint(1, 3), rng.randint(2, 3), rng.randint(2, 5)
            words = [[rng.randrange(q) for _ in range(N)] for _ in range(n)]
            entries = []
            for _ in range(rng.randint(2, 8)):
                members = rng.sample(range(n), rng.randint(1, min(3, n)))
                union = 0
                for i in members:
                    union |= core.onehot(words[i], q)
                entries.append((sum(1 << i for i in members), union))
            starts, size = rng.randint(1, len(entries)), rng.randint(2, 4)
            found = core.failing_family(entries, starts, size, N, q)[0]
            assert found == first_failing_family_by_definition(entries, starts, size, N, q)
            if found is not None:
                hits.add(len(found))
        assert hits >= {2, 3}

    def test_pairs_count_as_a_flat_scan(self):
        # At size 2 every pair is formed, and blocks are counted only for
        # pairs sharing no member: up to the first empty block, N for the hit.
        sets = [core.onehot(w, 3) for w in [(0, 0), (1, 1), (0, 1)]]
        entries = [(1, sets[0]), (2, sets[1]), (4, sets[2]), (3, sets[0] | sets[1])]
        assert core.failing_family(entries, 4, 2, 2, 3) == ((2, 3), 6, 1 + 2 + 1 + 2)
        assert core.failing_family(entries[:3], 3, 2, 2, 3) == (None, 3, 1 + 2 + 1)


class TestUntracedDescendant:
    """The levels walk against the AND-and-popcount walk, descendant and leaves alike."""

    @staticmethod
    def both_walks(words, members, outsiders, q):
        N = len(words[0])
        cols: dict[int, int] = {}
        for j, w in enumerate(words):
            for i, s in enumerate(w):
                cols[i * q + s] = cols.get(i * q + s, 0) | 1 << j
        sets = [core.onehot(w, q) for w in words]
        union = 0
        for i in members:
            union |= sets[i]
        ins, outs = sum(1 << i for i in members), sum(1 << o for o in outsiders)
        kids = [sorted({i * q + words[j][i] for j in members}, reverse=True) for i in range(N)]
        x, leaves = core.untraced_descendant(cols, ins, outs, kids, q)
        fast = (None if x is None else core.onehot(x, q), leaves)
        slow = oracles.untraced_walk(
            [sets[i] for i in members], [sets[o] for o in outsiders], union, N, q
        )
        return fast, slow

    @staticmethod
    def draw(rng, N, n, symbols):
        words = []
        while len(words) < n:
            w = tuple(rng.choice(symbols) for _ in range(N))
            if w not in words:
                words.append(w)
        return words

    def test_matches_the_and_walk_on_random_instances(self):
        rng = random.Random(2001)
        seen = set()
        for _ in range(2400):
            q, N = rng.randint(2, 5), rng.randint(1, 6)
            n = rng.randint(2, min(q**N, 9))
            words = self.draw(rng, N, n, range(q))
            members = sorted(rng.sample(range(n), rng.randint(1, min(3, n - 1))))
            others = [i for i in range(n) if i not in members]
            # One outsider is the search's test of a new word; all of them the checker's.
            single = rng.random() < 0.5
            outsiders = [rng.choice(others)] if single else others
            fast, slow = self.both_walks(words, members, outsiders, q)
            assert fast == slow, (words, members, outsiders, q)
            seen.add((single, fast[0] is None))
        assert seen == {(s, f) for s in (True, False) for f in (True, False)}

    def test_matches_the_and_walk_on_a_wide_alphabet(self):
        rng = random.Random(2002)
        q = core.MAX_ALPHABET
        found = 0
        for _ in range(40):
            N = rng.randint(1, 3)
            n = rng.randint(2, min(5**N, 6))
            symbols = rng.sample(range(1, q - 1), 3) + [0, q - 1]
            words = self.draw(rng, N, n, symbols)
            members = sorted(rng.sample(range(n), rng.randint(1, min(3, n - 1))))
            outsiders = [i for i in range(n) if i not in members]
            fast, slow = self.both_walks(words, members, outsiders, q)
            assert fast == slow, (words, members, q)
            found += fast[0] is not None
        assert 0 < found < 40


class TestPairTied:
    """The pair rule against every descendant of the pair, by brute force."""

    def test_matches_every_descendant(self):
        # Every triple of distinct words at q <= 4, N <= 3: pair {a, b}, outsider y.
        outcomes = set()
        for q in (2, 3, 4):
            for N in (1, 2, 3):
                universe = oracles.all_words(N, q)
                sets = {w: core.onehot(w, q) for w in universe}
                for a, b in combinations(universe, 2):
                    A, B = sets[a], sets[b]
                    # Each descendant with the agreement of its nearer member.
                    near = [
                        (x, N - min(oracles.hamming(x, a), oracles.hamming(x, b)))
                        for x in oracles.desc_set([a, b])
                    ]
                    for y in universe:
                        if y == a or y == b:
                            continue
                        Y = sets[y]
                        want = any(N - oracles.hamming(x, y) >= best for x, best in near)
                        got = core.pair_tied(
                            (Y & A).bit_count(), (Y & B).bit_count(),
                            (Y & A & B).bit_count(), (A & B).bit_count(), N,
                        )
                        assert got == want, (a, b, y, q)
                        outcomes.add(got)
        assert outcomes == {True, False}


class TestSharedRules:
    def test_elements_are_the_set_bits_lowest_first(self):
        assert list(core.elements(0)) == []
        assert list(core.elements(0b101100)) == [2, 3, 5]
        big = 1 << 200 | 1 << 3
        assert list(core.elements(big)) == [3, 200]
        family = SetFamily(6, (0b101100, 1))
        assert family.member_elements(0) == (2, 3, 5)
        assert family.member_elements(1) == (0,)

    def test_shared_members(self):
        assert core.shared_members(()) == ()
        assert core.shared_members([(3, 1, 2)]) == (1, 2, 3)
        assert core.shared_members([(0, 2, 5), [5, 2], (2, 5, 7)]) == (2, 5)
        assert core.shared_members([(0, 1), (2,)]) == ()


SQUARE = Code.from_strings(["10", "01", "11"], 2)

#: Every library call that takes a coalition bound t, at that t.
BOUNDED_CALLS = {
    "check_frameproof": lambda t: verify.check_frameproof(SQUARE, t),
    "check_cff": lambda t: verify.check_cff(SetFamily(2, (1, 2, 3)), t),
    "check_ipp": lambda t: verify.check_ipp(SQUARE, t),
    "check_ta": lambda t: verify.check_ta(SQUARE, t),
    "ta_distance_sufficient": lambda t: verify.ta_distance_sufficient(SQUARE, t),
    "parent_sets": lambda t: core.parent_sets((1, 1), SQUARE, t),
    "trace_ipp": lambda t: trace.trace_ipp(SQUARE, (1, 1), t),
    "simulate_tracing": lambda t: trace.simulate_tracing(
        SQUARE, t, 3, trace.PirateStrategy("first")
    ),
}


@pytest.mark.parametrize("t", [0, -2])
@pytest.mark.parametrize("call", sorted(BOUNDED_CALLS))
def test_coalition_bound_below_one_is_refused(call, t):
    with pytest.raises(ValueError) as err:
        BOUNDED_CALLS[call](t)
    assert str(err.value) == f"coalition bound must be >= 1, got {t}"
    BOUNDED_CALLS[call](1)  # the smallest bound is taken

#: Library refusals no other test reaches, each with its own message.
REFUSALS = {
    "digit-strings-past-ten": (
        lambda: Code.from_strings(["0a"], 11),
        "digit-string construction only supports q <= 10",
    ),
    "profile-length-mismatch": (
        lambda: core.desc_profile([(0, 1), (1,)]),
        "length mismatch inside coalition",
    ),
    "descendant-length-mismatch": (
        lambda: core.is_descendant((0,), [(0, 1)]),
        "length mismatch: 1 vs 2",
    ),
    "bound-entry-unevaluated": (
        lambda: bounds.BoundEntry("ta3-ninth", coefficient=3, exponent=1).evaluate(),
        "entry 'ta3-ninth' cannot be evaluated",
    ),
    "quadratic-below-three": (
        lambda: bounds.min_exceed_length_quadratic(2),
        "need t >= 3, got 2",
    ),
    "binary-fp-length-zero": (lambda: bounds.binary_fp_status(0, 3), "need N >= 1, got 0"),
    # Raised by ``min_exceed_length_quadratic``, before C(t+1, 2) is taken.
    "binary-fp-negative": (lambda: bounds.binary_fp_status(None, -2), "need t >= 3, got -2"),
    "ipp-bound-one": (
        lambda: bounds.ipp_bound(4, 2, 1),
        "need N >= 1, q >= 2, t >= 2, got (4, 2, 1)",
    ),
    "ta-bound-unary": (lambda: bounds.ta_bound(4, 1, 2), "need N >= 1, q >= 2, got (4, 1)"),
    "forge-empty": (
        lambda: trace.forge_pirate(SQUARE, (), trace.PirateStrategy("first")),
        "empty coalition",
    ),
    "forge-out-of-range": (
        lambda: trace.forge_pirate(SQUARE, (0, 3), trace.PirateStrategy("first")),
        "coalition indices out of range: (0, 3)",
    ),
    "simulate-no-trials": (
        lambda: trace.simulate_tracing(SQUARE, 2, 0, trace.PirateStrategy("first")),
        "need at least one trial",
    ),
    "compose-width-zero": (
        lambda: transform.block_compose(SQUARE, 0),
        "block width must be >= 1",
    ),
    "row-partition-one": (
        lambda: transform.make_row_partition(4, 1),
        "coalition bound must be >= 2, got 1",
    ),
    "strip-zero": (
        lambda: transform.distance_strip(SQUARE, 0),
        "strip parameter must be >= 1, got 0",
    ),
    "distance-condition-one-word": (
        lambda: verify.ta_distance_sufficient(Code(((0, 1),), 2), 2),
        "need at least two codewords to speak of a minimum distance",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_library_refusal_names_its_rule(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_bound_entry_evaluates_exact_and_symbolic_values():
    assert bounds.BoundEntry("fp-split", value=21).evaluate() == 21
    assert bounds.BoundEntry("fp-split", value=21).evaluate(q=5) == 21
    assert bounds.BoundEntry("ta3-ninth", coefficient=3, exponent=2).evaluate(q=5) == 75
