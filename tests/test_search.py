"""Exhaustive extremal searches and their frozen small-parameter answers."""

from __future__ import annotations

import inspect
import math
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import pytest

import oracles
from tracecodes import bounds, core, search, verify
from tracecodes.search import SearchProblem, max_code_search


class TestProblemValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SearchProblem("XYZ", N=3, t=2)
        with pytest.raises(ValueError):
            SearchProblem("FP", N=0, t=2)
        with pytest.raises(ValueError):
            SearchProblem("FP", N=3, t=0)
        with pytest.raises(ValueError):
            SearchProblem("CFF", N=3, t=2, q=3)
        with pytest.raises(ValueError):
            SearchProblem("FP", N=3, t=2, mode="decide")  # missing goal
        with pytest.raises(ValueError):
            SearchProblem("FP", N=3, t=2, goal=4)  # goal without decide

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            max_code_search(SearchProblem("FP", N=30, t=2, q=2))

    def test_alphabet_beyond_the_witness_is_refused_before_searching(self):
        # q**N is within the enumeration cap, but no Code could hold the witness.
        refusal = f"^need q <= {core.MAX_ALPHABET} to hold the witness, got 100000$"
        with pytest.raises(ValueError, match=refusal):
            SearchProblem("FP", N=1, t=3, q=100000)
        widest = SearchProblem("FP", N=1, t=3, q=core.MAX_ALPHABET)
        res = max_code_search(widest, budget=5)
        assert (res.nodes, res.complete, res.witness.q) == (6, False, core.MAX_ALPHABET)

    def test_enumeration_cap_without_the_candidate_space(self):
        # q**N would have six million digits; the refusal must not build it.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^candidate space 1000000\*\*1000000 exceeds"):
            max_code_search(SearchProblem("FP", N=10**6, t=2, q=10**6))
        assert time.perf_counter() - start < 1.0
        # The same problems are refused on either side of the shortcut.
        for N, q, refused in ((22, 2, False), (23, 2, True), (13, 3, False), (14, 3, True)):
            if refused:
                with pytest.raises(ValueError, match=f"^candidate space {q}\\*\\*{N} exceeds"):
                    max_code_search(SearchProblem("FP", N=N, t=2, q=q), budget=0)
            else:
                assert max_code_search(SearchProblem("FP", N=N, t=2, q=q), budget=0).nodes == 1


class TestMaximumSizes:
    def test_two_coordinates(self):
        res = max_code_search(SearchProblem("FP", N=2, t=2, q=2))
        assert res.optimum == 2
        assert res.complete
        assert res.witness.words == ((0, 0), (0, 1))
        assert verify.check_frameproof(res.witness, 2).holds
        assert res.nodes == 6

    def test_three_coordinates_even_weight_code(self):
        res = max_code_search(SearchProblem("FP", N=3, t=2, q=2))
        # The even-weight code pairs agree somewhere on every coordinate
        # pattern, so four words fit at length three for pairs of traitors.
        assert res.optimum == 4
        assert res.witness.words == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert verify.check_frameproof(res.witness, 2).holds
        assert res.nodes == 26

    def test_matches_unnormalized_oracle(self):
        # The production search fixes the all-zero first word by relabeling;
        # the oracle DFS does no such thing and must land on the same sizes.
        assert oracles.max_code_size(2, 2, lambda w: oracles.frameproof_holds(w, 2)) == 2
        assert oracles.max_code_size(3, 2, lambda w: oracles.frameproof_holds(w, 2)) == 4
        assert oracles.max_code_size(3, 2, lambda w: oracles.ipp_holds(w, 2, 2)) == 2
        assert oracles.max_code_size(3, 2, lambda w: oracles.ta_holds(w, 2)) == 2

    def test_three_traitors(self):
        res = max_code_search(SearchProblem("FP", N=4, t=3, q=2))
        assert res.optimum == 4
        assert res.complete
        assert res.nodes == 163
        assert verify.check_frameproof(res.witness, 3).holds

        res = max_code_search(SearchProblem("FP", N=5, t=3, q=2))
        assert res.optimum == 5
        assert res.complete
        assert res.nodes == 1479

    def test_identifiable_and_traceable_maxima(self):
        ipp = max_code_search(SearchProblem("IPP", N=3, t=2, q=2))
        assert ipp.optimum == 2
        assert ipp.nodes == 28
        assert verify.check_ipp(ipp.witness, 2).holds
        ta = max_code_search(SearchProblem("TA", N=3, t=2, q=2))
        assert ta.optimum == 2
        assert verify.check_ta(ta.witness, 2).holds

    def test_hierarchy_of_maxima(self):
        fp = max_code_search(SearchProblem("FP", N=3, t=2, q=2)).optimum
        ipp = max_code_search(SearchProblem("IPP", N=3, t=2, q=2)).optimum
        ta = max_code_search(SearchProblem("TA", N=3, t=2, q=2)).optimum
        assert fp >= ipp >= ta

    def test_maxima_respect_closed_form_caps(self):
        for N, t, got in ((2, 2, 2), (3, 2, 4), (4, 3, 4), (5, 3, 5)):
            assert got <= bounds.fp_bound(N, 2, t).value
        balanced, _, _ = bounds.ipp_bound(3, 2, 2)
        assert 2 <= balanced.value

    def test_sperner_family(self):
        res = max_code_search(SearchProblem("CFF", N=4, t=1))
        assert res.optimum == math.comb(4, 2)
        assert res.nodes == 219
        fam = res.witness
        assert fam.size == 6
        assert all(fam.member_size(i) == 2 for i in range(6))
        assert verify.check_cff(fam, 1).holds

    def test_determinism(self):
        a = max_code_search(SearchProblem("FP", N=4, t=3, q=2))
        b = max_code_search(SearchProblem("FP", N=4, t=3, q=2))
        assert (a.optimum, a.nodes, a.witness) == (b.optimum, b.nodes, b.witness)


TERNARY_CASES = [
    (prop, N, t)
    for prop in ("FP", "IPP", "TA")
    for N, t in ((2, 1), (2, 2), (3, 1), (3, 2))
    if (prop, N, t) != ("IPP", 3, 2)  # the oracle takes about 9 s there
]
# Node counts shared with the benchmark's search jobs.
TERNARY_NODES = {
    ("FP", 3, 2): 2261,
    ("FP", 2, 2): 45,
    ("IPP", 2, 2): 51,
    ("TA", 2, 2): 35,
    ("TA", 3, 2): 420,
}


class TestTernarySearches:
    ORACLES = {
        "FP": lambda t: lambda words: oracles.frameproof_holds(words, t),
        "IPP": lambda t: lambda words: oracles.ipp_holds(words, 3, t),
        "TA": lambda t: lambda words: oracles.ta_holds(words, t),
    }
    CHECKERS = {"FP": verify.check_frameproof, "IPP": verify.check_ipp, "TA": verify.check_ta}

    @pytest.mark.parametrize("prop,N,t", TERNARY_CASES)
    def test_matches_unnormalized_oracle(self, prop, N, t):
        res = max_code_search(SearchProblem(prop, N=N, t=t, q=3))
        assert res.complete
        assert res.optimum == oracles.max_code_size(N, 3, self.ORACLES[prop](t))
        assert res.witness.size == res.optimum
        assert self.CHECKERS[prop](res.witness, t).holds
        if (prop, N, t) in TERNARY_NODES:
            assert res.nodes == TERNARY_NODES[prop, N, t]


# The spaces the oracles search exhaustively, about 5 s in all over t = 1..3: (property, N, q).
ORACLE_SPACES = [
    *((prop, N, 2) for prop in ("FP", "IPP", "TA", "CFF") for N in (1, 2, 3, 4)),
    *((prop, N, 3) for prop in ("FP", "IPP", "TA") for N in (1, 2)),
    ("CFF", 5, 2),
    ("FP", 2, 4),
    ("TA", 2, 4),
]


class TestOracleAgreement:
    """The search loop against the unnormalized oracle searches, exhaustively at tiny sizes."""

    HOLDS = {
        "FP": lambda q, t: lambda words: oracles.frameproof_holds(words, t),
        "IPP": lambda q, t: lambda words: oracles.ipp_holds(words, q, t),
        "TA": lambda q, t: lambda words: oracles.ta_holds(words, t),
        # A binary word stands for the member it is the incidence vector of.
        "CFF": lambda q, t: lambda words: oracles.cff_holds(
            [[i for i, bit in enumerate(w) if bit] for w in words], t
        ),
    }
    CHECKERS = {
        "FP": verify.check_frameproof,
        "IPP": verify.check_ipp,
        "TA": verify.check_ta,
        "CFF": verify.check_cff,
    }

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize(
        "prop,N,q", ORACLE_SPACES, ids=["{}-N{}-q{}".format(*s) for s in ORACLE_SPACES]
    )
    def test_optimum_and_decisions(self, prop, N, q, t):
        holds = self.HOLDS[prop](q, t)
        res = max_code_search(SearchProblem(prop, N=N, t=t, q=q))
        assert res.complete
        assert res.optimum == oracles.max_code_size(N, q, holds)
        assert res.witness.size == res.optimum
        assert self.CHECKERS[prop](res.witness, t).holds
        for goal in range(max(1, res.optimum - 1), res.optimum + 3):
            dec = max_code_search(SearchProblem(prop, N=N, t=t, q=q, mode="decide", goal=goal))
            assert dec.complete
            assert dec.decided == oracles.exists_code_of_size(N, q, goal, holds), goal
            if dec.decided:
                assert dec.witness.size == goal
                assert self.CHECKERS[prop](dec.witness, t).holds
            else:
                assert dec.witness is None
                # A "no" still reports a code it reached: a lower bound.
                assert dec.optimum <= res.optimum


class TestForwardCheckedTree:
    """The loop pushes exactly the prefixes of plain forward checking, and counts its tests.

    Equal answers do not show this: a loop that wrongly counts a live
    candidate as dead may cut only subtrees that hold no better code, and
    still find every optimum.  The reference filters whole lists with the
    oracles.
    """

    @staticmethod
    def space(prop, N, q, t):
        """Every candidate in index order, the property on a list of them, and their sets."""
        if prop == "CFF":
            def holds(masks):
                return oracles.cff_holds([_elements(m) for m in masks], t)

            return list(range(1 << N)), holds, lambda mask: mask
        holds = TestOracleAgreement.HOLDS[prop](q, t)
        return oracles.all_words(N, q), holds, lambda word: core.onehot(word, q)

    @staticmethod
    def pushes(monkeypatch, problem, set_of, budget=None):
        """The result of ``max_code_search`` and every prefix it pushes, as its
        list of sets (``set_of`` a candidate index)."""
        stack, seen = [], []
        for cls in (search._CoverFreePrefix, search._CoalitionPrefix):
            def push(self, c, push=cls.push):
                stack.append(set_of(c))
                seen.append(list(stack))
                push(self, c)

            def pop(self, pop=cls.pop):
                stack.pop()
                pop(self)

            monkeypatch.setattr(cls, "push", push)
            monkeypatch.setattr(cls, "pop", pop)
        return max_code_search(problem, budget), seen

    def check_pushes(self, monkeypatch, problem, budget=None):
        """The pushes and the test count against the reference's.

        Under a budget the pushes are the reference's first ones, and a
        stop comes at the first push whose tests would pass the budget.
        """
        prop, N, q, t, goal = problem.property, problem.N, problem.q, problem.t, problem.goal
        candidates, holds, as_set = self.space(prop, N, q, t)
        # Codes start from their first word; the reference starts from it too.
        root = [] if prop == "CFF" else candidates[:1]
        res, got = self.pushes(monkeypatch, problem, lambda c: as_set(candidates[c]), budget)
        if budget is not None and budget < len(candidates) - 1:
            # The root's tests of every other candidate pass the budget: no push at all.
            assert (got, res.nodes, res.complete) == ([], budget + 1, False)
            return res
        made = None if budget is None else len(got) - len(root)

        def reference(limit):
            return oracles.forward_checked_pushes(candidates[1:], holds, root, goal, limit)

        want, tests = reference(made)
        assert got[len(root):] == [[as_set(c) for c in prefix] for prefix in want], goal
        if res.complete:
            assert res.nodes == tests, goal
        else:
            assert res.nodes == budget + 1
            assert tests <= budget < reference(made + 1)[1], (budget, goal)
        return res

    @pytest.mark.parametrize(
        "prop,N,q,t",
        [
            ("FP", 4, 2, 2),
            ("FP", 4, 2, 3),
            ("FP", 2, 4, 2),
            ("CFF", 4, 2, 1),
            ("CFF", 4, 2, 2),
            ("IPP", 2, 4, 2),
            ("TA", 2, 4, 2),
            ("TA", 3, 3, 2),
        ],
        ids=["fp-4-2", "fp-4-3", "fp-q4-2", "cff-4-1", "cff-4-2", "ipp-q4-2", "ta-q4-2", "ta-q3-3"],
    )
    def test_same_pushes_as_eager_forward_checking(self, monkeypatch, prop, N, q, t):
        optimum = max_code_search(SearchProblem(prop, N=N, t=t, q=q)).optimum
        for goal in [None, *range(max(1, optimum - 1), optimum + 3)]:
            mode = "maximize" if goal is None else "decide"
            problem = SearchProblem(prop, N=N, t=t, q=q, mode=mode, goal=goal)
            assert self.check_pushes(monkeypatch, problem).complete

    @pytest.mark.parametrize(
        "problem",
        [
            SearchProblem("FP", N=4, t=2),
            SearchProblem("FP", N=4, t=2, mode="decide", goal=6),
            SearchProblem("CFF", N=4, t=2),
            SearchProblem("IPP", N=2, t=2, q=3),
            SearchProblem("TA", N=2, t=2, q=4, mode="decide", goal=5),
        ],
        ids=["fp", "fp-decide", "cff", "ipp", "ta-decide"],
    )
    def test_budget_ladder_stops_where_the_tests_pass_it(self, monkeypatch, problem):
        free = self.check_pushes(monkeypatch, problem)
        step = max(1, free.nodes // 30)
        for budget in [*range(0, free.nodes, step), free.nodes - 1, free.nodes]:
            res = self.check_pushes(monkeypatch, problem, budget)
            assert res.complete == (budget >= free.nodes), budget

    # 128 candidates.  The whole FP and CFF trees at t=2 take 14,606,262
    # and 1,478,750 tests, so a budget cuts the maximize runs, after 100
    # to 240 pushes at these budgets, and decide goals met early add more;
    # CFF meets its t=2 goals early, so its decide runs are at t=1.
    @pytest.mark.parametrize(
        "prop,t,budget,goals",
        [("FP", 2, 1500, (5, 6, 7, 8)), ("CFF", 2, 2000, ()), ("CFF", 1, 1500, (10, 11, 12))],
        ids=["fp-7-2", "cff-7-2", "cff-7-1"],
    )
    def test_same_pushes_over_128_candidates(self, monkeypatch, prop, t, budget, goals):
        runs = [(SearchProblem(prop, N=7, t=t), budget)]
        runs += [(SearchProblem(prop, N=7, t=t, mode="decide", goal=g), None) for g in goals]
        for problem, cap in runs:
            res = self.check_pushes(monkeypatch, problem, cap)
            assert res.complete == (cap is None), problem


# The benchmark's cover-free search jobs, plus the deepest tree it never
# reaches: 999 accepted words.  Every word is live, so the root tests the
# 1,023 words after it and the push of word k the 1,023 - k after that,
# until the 999th word has one live word ahead: 1,023 + (1,022 + ... + 25)
# tests.
COVER_FREE_JOBS = [
    (SearchProblem("FP", N=6, t=3), 6, None, 19685),
    (SearchProblem("FP", N=6, t=3, mode="decide", goal=7), 6, False, 19685),
    (SearchProblem("CFF", N=5, t=2), 5, None, 2912),
    (SearchProblem("CFF", N=6, t=2), 6, None, 53428),
    (SearchProblem("FP", N=10, t=1, mode="decide", goal=1000), 1000, True, 523476),
]


class TestCoverFreeNodeCounts:
    @pytest.mark.parametrize(
        "problem,optimum,decided,nodes",
        COVER_FREE_JOBS,
        ids=["fp-6-3", "fp-6-3-decide-7", "cff-5-2", "cff-6-2", "fp-10-1-decide-1000"],
    )
    def test_frozen_counts(self, problem, optimum, decided, nodes):
        res = max_code_search(problem)
        assert (res.optimum, res.decided, res.nodes, res.complete) == (
            optimum, decided, nodes, True,
        )
        if decided is not False:
            assert res.witness.size == optimum


# Identifiable and traceable searches off t=2, where no benchmark job
# reaches: (property, N, t, q) -> (optimum, nodes).
OFF_PAIR_JOBS = {
    ("IPP", 3, 3, 3): (3, 1234),
    ("TA", 3, 3, 3): (3, 420),
    ("TA", 4, 3, 2): (2, 120),
    ("IPP", 2, 3, 4): (4, 485),
    ("IPP", 3, 1, 3): (27, 351),
    ("TA", 3, 1, 3): (27, 351),
}


class TestOffPairNodeCounts:
    @pytest.mark.parametrize(
        "job", OFF_PAIR_JOBS, ids=["{}-N{}-t{}-q{}".format(*job) for job in OFF_PAIR_JOBS]
    )
    def test_frozen_counts(self, job):
        prop, N, t, q = job
        res = max_code_search(SearchProblem(prop, N=N, t=t, q=q))
        assert (res.optimum, res.nodes, res.complete) == (*OFF_PAIR_JOBS[job], True)
        assert res.witness.size == res.optimum


# Identifiable and traceable searches at t=2 over a wider alphabet than the
# benchmark's, frozen from the failing-family and descendant walks they
# replaced: (property, N, q) -> (optimum, nodes, witness).
WIDE_PAIR_JOBS = {
    ("IPP", 3, 4): (5, 105084, ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 3), (2, 3, 0))),
    ("TA", 3, 4): (4, 11572, ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3))),
}


class TestPairCriteria:
    """At t=2 identifiable and traceable searches run on two-word tests alone."""

    @pytest.mark.parametrize(
        "job", WIDE_PAIR_JOBS, ids=["{}-N{}-q{}".format(*job) for job in WIDE_PAIR_JOBS]
    )
    def test_wide_alphabet_counts(self, job):
        prop, N, q = job
        res = max_code_search(SearchProblem(prop, N=N, t=2, q=q))
        assert (res.optimum, res.nodes, res.witness.words, res.complete) == (
            *WIDE_PAIR_JOBS[job], True,
        )

    def test_no_walk_at_t2(self, monkeypatch):
        def walk(*args):
            raise AssertionError("a t=2 search walked")

        monkeypatch.setattr(core, "failing_family", walk)
        monkeypatch.setattr(core, "untraced_descendant", walk)
        for prop, optimum, nodes in (("IPP", 4, 1213), ("TA", 3, 420)):
            res = max_code_search(SearchProblem(prop, N=3, t=2, q=3))
            assert (res.optimum, res.nodes, res.complete) == (optimum, nodes, True)


def _elements(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _groups(members, most):
    for size in range(most + 1):
        yield from combinations(members, size)


def _union(group):
    out = 0
    for m in group:
        out |= m
    return out


class TestCoverFreePrefix:
    """The incremental prefix state against its definition and the oracles.

    The prefix takes candidate indices: masks that are their own sets for
    families, base-q words standing for their one-hot sets for codes.
    """

    @staticmethod
    def layers(prefix):
        return [list(layer) for layer in prefix.unions + prefix.residues]

    @staticmethod
    def check_layers(prefix, sets):
        """The lists against their definition on the members' ``sets``."""
        # unions[j]: one union per group of at most j members; residues[j]:
        # one member-minus-union per member and group of at most j others.
        for j, layer in enumerate(prefix.unions):
            assert sorted(layer) == sorted(_union(g) for g in _groups(sets, j))
        for j, layer in enumerate(prefix.residues):
            want = [
                m & ~_union(g)
                for i, m in enumerate(sets)
                for g in _groups(sets[:i] + sets[i + 1 :], j)
            ]
            assert sorted(layer) == sorted(want)

    def grow(self, prefix, members, sets):
        """Push ``members``, standing for ``sets``, one at a time; none may break the family."""
        for c in members:
            assert not prefix.breaks(c)
            prefix.push(c)
        self.check_layers(prefix, sets)
        return prefix

    def check_extensions(self, prefix, members, candidates, holds):
        """``breaks`` and ``ahead`` on every candidate against ``holds``, the oracle on a list.

        ``candidates`` are every candidate, the members possibly left out
        (each kills itself): ``ahead`` counts over them from any index on.
        """
        before = self.layers(prefix)
        kept = [new for new in candidates if holds(members + [new])]
        for new in candidates:
            assert prefix.breaks(new) == (new not in kept), (members, new)
        for c in candidates:
            rest = [new for new in kept if new >= c]
            assert prefix.ahead(c) == (len(rest), rest[0] if rest else -1), (members, c)
        assert self.layers(prefix) == before

    def check_code_extensions(self, prefix, universe, words, t):
        """``check_extensions`` for a ternary code: every other word against the FP oracle."""
        self.check_extensions(
            prefix,
            words,
            [c for c in range(len(universe)) if c not in words],
            lambda group: oracles.frameproof_holds([universe[c] for c in group], t),
        )

    @staticmethod
    def random_family(rng, ground, t):
        order = list(range(1, 1 << ground))
        rng.shuffle(order)
        size = rng.randint(0, 3 * ground)
        members: list[int] = []
        for m in order:
            if len(members) == size:
                break
            if oracles.cff_holds([_elements(x) for x in members + [m]], t):
                members.append(m)
        return members

    @staticmethod
    def family_holds(t):
        return lambda group: oracles.cff_holds([_elements(x) for x in group], t)

    @staticmethod
    def random_code(rng, universe, N, t):
        order = list(range(len(universe)))
        rng.shuffle(order)
        size = rng.randint(1, 3 * N + 1)
        words: list[int] = []
        for w in order:
            if len(words) == size:
                break
            if oracles.frameproof_holds([universe[c] for c in words + [w]], t):
                words.append(w)
        return words

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_families_match_cff_oracle(self, t):
        rng = random.Random(600 + t)
        for ground in range(1, 7):
            for _ in range(6):
                members = self.random_family(rng, ground, t)
                prefix = search._CoverFreePrefix(t, ground, 2, family=True)
                self.grow(prefix, members, members)
                space = range(1 << ground)  # the empty candidate 0 included
                self.check_extensions(prefix, members, space, self.family_holds(t))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_ternary_codes_match_frameproof_oracle(self, t):
        rng = random.Random(700 + t)
        for N in (1, 2, 3):
            universe = oracles.all_words(N, 3)  # candidate c is universe[c]
            for _ in range(5):
                words = self.random_code(rng, universe, N, t)
                prefix = search._CoverFreePrefix(t, N, 3)
                self.grow(prefix, words, [core.onehot(universe[c], 3) for c in words])
                self.check_code_extensions(prefix, universe, words, t)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_pops_restore_the_live_set(self, t):
        # Popping back to half the members leaves the lists and the live set
        # of that half; pushing the rest again rebuilds those of the whole.
        rng = random.Random(800 + t)
        runs = []
        for _ in range(4):
            ground = rng.randint(3, 6)
            members = self.random_family(rng, ground, t)
            prefix = search._CoverFreePrefix(t, ground, 2, family=True)
            runs.append((prefix, members, members, 1 << ground, self.family_holds(t)))
        for N in (2, 3):
            universe = oracles.all_words(N, 3)
            words = self.random_code(rng, universe, N, t)
            runs.append((
                search._CoverFreePrefix(t, N, 3),
                words,
                [core.onehot(universe[c], 3) for c in words],
                3**N,
                lambda group, u=universe: oracles.frameproof_holds([u[c] for c in group], t),
            ))
        for prefix, members, sets, total, holds in runs:
            half = len(members) // 2
            for c in members:
                prefix.push(c)
            for _ in members[half:]:
                prefix.pop()
            for pushed in (half, len(members)):
                self.check_layers(prefix, sets[:pushed])
                others = [c for c in range(total) if c not in members[:pushed]]
                self.check_extensions(prefix, members[:pushed], others, holds)
                for c in members[pushed:]:
                    prefix.push(c)


class _CoalitionPrefixCase:
    """A coalition prefix state against its definition and an oracle on words.

    The prefix takes candidate indices: word c is ``all_words(N, q)[c]``.
    """

    PREFIX = None  # the state class under test

    @staticmethod
    def holds(words, q, t):
        raise NotImplementedError

    @staticmethod
    def reads_groups(t):
        """Whether ``breaks`` reads the coalition groups at this t."""
        raise NotImplementedError

    @staticmethod
    def state(prefix):
        return list(prefix.sets), list(prefix.groups), list(prefix._marks)

    def grow(self, words, N, q, t):
        """Push ``words`` one at a time; none may break the property."""
        prefix = self.PREFIX(t, N, q)
        index = {w: c for c, w in enumerate(oracles.all_words(N, q))}
        for w in words:
            assert not prefix.breaks(index[w])
            prefix.push(index[w])
        sets = [core.onehot(w, q) for w in words]
        # One group per set of at most t words, the empty one included;
        # where no test reads them, the empty group alone.
        want = [
            (sum(1 << i for i in g), _union(sets[i] for i in g))
            for g in _groups(range(len(words)), min(t, len(words)))
        ]
        assert sorted(prefix.groups) == (sorted(want) if self.reads_groups(t) else [(0, 0)])
        return prefix

    # A huge t must keep no group beyond the words there are.
    # At q=4 the pairs of disjoint symbols that the t=2 tests judge are common.
    @pytest.mark.parametrize("t", [1, 2, 3, 10**5])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_extensions_match_oracle(self, q, t):
        rng = random.Random(100 * q + t)
        for N in (1, 2, 3):
            universe = oracles.all_words(N, q)  # word c is candidate c
            for _ in range(10):
                order = list(universe)
                rng.shuffle(order)
                size = rng.randint(1, len(universe))
                words: list[tuple[int, ...]] = []
                for w in order:
                    if len(words) == size:
                        break
                    if self.holds(words + [w], q, t):
                        words.append(w)
                prefix = self.grow(words, N, q, t)
                kept = []
                for c, w in enumerate(universe):
                    if w in words:
                        continue
                    before = self.state(prefix)
                    broken = prefix.breaks(c)
                    assert broken != self.holds(words + [w], q, t), (words, w, t)
                    assert self.state(prefix) == before
                    if not broken and w > max(words):
                        kept.append(c)
                # Each push keeps the live words after it, so those after every
                # word that keep the code are live, from any index past them on.
                last = universe.index(max(words))
                for c in range(last + 1, len(universe)):
                    rest = [k for k in kept if k >= c]
                    assert prefix.ahead(c) == (len(rest), rest[0] if rest else -1)


class TestIdentifiablePrefix(_CoalitionPrefixCase):
    PREFIX = search._IdentifiablePrefix

    @staticmethod
    def holds(words, q, t):
        return oracles.ipp_holds(words, q, t)

    @staticmethod
    def reads_groups(t):
        return t >= 3  # t=2 reads the pair table; every code is 1-IPP


class TestTraceablePrefix(_CoalitionPrefixCase):
    PREFIX = search._TraceablePrefix

    @staticmethod
    def holds(words, q, t):
        return oracles.ta_holds(words, t)

    @staticmethod
    def reads_groups(t):
        return t >= 3  # smaller coalitions are judged by agreement counts

    @staticmethod
    def state(prefix):
        # ``breaks`` must also leave the columns of words and the pairs as they were.
        cols = {pos: m for pos, m in prefix.cols.items() if m}
        return (*_CoalitionPrefixCase.state(prefix), cols, list(prefix.pairs))

    def test_columns_follow_pushes_and_pops(self):
        # Only the walks of coalitions of three or more words read the columns.
        for t, want in ((3, {0: 0b11, 3: 0b1, 4: 0b10}), (2, {})):
            prefix = self.PREFIX(t, 2, 3)
            for c in (0, 1, 7):  # the words (0, 0), (0, 1), (2, 1)
                prefix.push(c)
            prefix.pop()
            assert {pos: m for pos, m in prefix.cols.items() if m} == want
            # The one pair left: (0, 0) and (0, 1), which agree on their first coordinate.
            assert prefix.pairs == [(0b001001, 0b010001, 0b011001, 0b000001, 1)]

    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_old_coalition_walk_decides(self, reverse):
        # The three old words, as one coalition, forge a word the candidate
        # ties with: only the walk of old coalitions of three or more sees it.
        words = [(0, 1, 0, 2, 2), (1, 0, 2, 3, 0), (3, 2, 3, 1, 3)]
        if reverse:
            words.reverse()
        candidate = (2, 0, 1, 2, 1)
        N, q = 5, 4
        c = oracles.all_words(N, q).index(candidate)
        assert not oracles.ta_holds(words + [candidate], 3)
        assert self.grow(words, N, q, 3).breaks(c)
        assert not self.grow(words, N, q, 2).breaks(c)  # no pair test breaks it
        verdict = verify.check_ta(core.Code(tuple(words) + (candidate,), q), 3)
        w = verdict.witness
        assert (w.coalition, w.outsider, w.insider_distance, w.outsider_distance) == (
            (0, 1, 2), 3, 3, 3
        )


class TestBudgets:
    def test_truncated_maximize_is_flagged(self):
        res = max_code_search(SearchProblem("FP", N=4, t=3, q=2), budget=50)
        assert not res.complete
        assert res.budget == 50
        assert res.nodes == 51  # the stopping probe is counted
        assert res.optimum <= 4
        assert verify.check_frameproof(res.witness, 3).holds

    def test_truncated_decision_is_none(self):
        res = max_code_search(
            SearchProblem("FP", N=5, t=3, q=2, mode="decide", goal=6), budget=100
        )
        assert res.decided is None
        assert not res.complete
        assert res.witness is None

    @pytest.mark.parametrize(
        "prop,N,q", [("FP", 22, 2), ("IPP", 22, 2), ("TA", 2, 2048)], ids=["fp", "ipp", "ta"]
    )
    def test_zero_budget_builds_nothing_over_the_space(self, prop, N, q):
        # The root's 4,194,303 tests pass the budget before any candidate is encoded.
        start = time.perf_counter()
        tracemalloc.start()
        try:
            res = max_code_search(SearchProblem(prop, N=N, t=2, q=q), budget=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.optimum, res.nodes, res.complete) == (1, 1, False)
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            max_code_search(SearchProblem("FP", N=3, t=2, q=2), budget=-1)
        stopped = max_code_search(SearchProblem("FP", N=3, t=2, q=2), budget=0)
        assert (stopped.nodes, stopped.complete) == (1, False)

    @pytest.mark.parametrize(
        "problem,nodes",
        [
            (SearchProblem("FP", N=3, t=2, q=3), 2261),
            (SearchProblem("CFF", N=5, t=2), 2912),
            (SearchProblem("IPP", N=3, t=2, q=3), 1213),
            (SearchProblem("TA", N=3, t=2, q=3), 420),
            (SearchProblem("FP", N=4, t=2, mode="decide", goal=6), 154),
        ],
        ids=["FP", "CFF", "IPP", "TA", "FP-decide"],
    )
    def test_ladder_of_budgets(self, problem, nodes):
        # A budget counts candidate tests: a push whose tests pass it is not made.
        free = max_code_search(problem)
        assert (free.nodes, free.complete) == (nodes, True)
        optima = []
        for budget in [*range(61), nodes - 1]:
            stopped = max_code_search(problem, budget)
            assert (stopped.nodes, stopped.decided, stopped.complete) == (budget + 1, None, False)
            optima.append(stopped.optimum)
        assert optima == sorted(optima)
        assert optima[-1] <= free.optimum
        for budget in (nodes, nodes + 1, 10**6):
            roomy = max_code_search(problem, budget)
            assert (roomy.optimum, roomy.decided, roomy.nodes, roomy.witness, roomy.complete) == (
                free.optimum, free.decided, free.nodes, free.witness, True,
            )

    def test_budget_does_not_change_the_answer(self):
        free = max_code_search(SearchProblem("FP", N=3, t=2, q=2))
        roomy = max_code_search(SearchProblem("FP", N=3, t=2, q=2), budget=10**6)
        assert roomy.complete
        assert (free.optimum, free.nodes) == (roomy.optimum, roomy.nodes)


class TestWideWindows:
    """Budgeted runs over wide candidate spaces, frozen: each push tests every live candidate."""

    def test_shallow_binary_codes(self):
        # The root's 65,535 tests reach two words; the first push's would pass the budget.
        res = max_code_search(SearchProblem("FP", N=16, t=2), budget=65535)
        assert (res.optimum, res.nodes, res.complete) == (2, 65536, False)
        assert verify.check_frameproof(res.witness, 2).holds

    def test_shallow_families(self):
        # The least budget that reaches 15 members: the singletons, each
        # push halving the live members.
        res = max_code_search(SearchProblem("CFF", N=16, t=2), budget=196571)
        assert (res.optimum, res.nodes, res.complete) == (15, 196572, False)
        assert res.witness.members == tuple(1 << e for e in range(15))
        assert verify.check_cff(res.witness, 2).holds
        stopped = max_code_search(SearchProblem("CFF", N=16, t=2), budget=196570)
        assert stopped.optimum == 14

    def test_every_word_under_a_budget(self):
        # Every binary word is 1-frameproof, and the push of word k tests the
        # 4,095 - k after it: 4,096 * 4,095 / 2 tests in all.
        res = max_code_search(SearchProblem("FP", N=12, t=1), budget=8386560)
        assert (res.optimum, res.nodes, res.complete) == (4096, 8386560, True)
        assert res.witness.words == tuple(oracles.all_words(12, 2))

    def test_every_word_in_bounded_memory(self):
        # One live bitset per depth, and kill memos that start over: no more
        # than the 5.2 MB that the loop with levels and a trail took.
        tracemalloc.start()
        try:
            res = max_code_search(SearchProblem("FP", N=12, t=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.optimum, res.complete) == (4096, True)
        assert peak <= 5.2 * 2**20


@contextmanager
def shallow_stack(headroom=60):
    """Allow only ``headroom`` Python frames above the caller's."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestDeepTrees:
    """A chain of 128 accepted words is deeper than a shortened stack allows."""

    def test_maximize_every_binary_word(self):
        with shallow_stack():
            res = max_code_search(SearchProblem("FP", N=7, t=1))
        assert (res.optimum, res.nodes, res.complete) == (128, 128 * 127 // 2, True)

    def test_decide_every_binary_word(self):
        # The goal is met as the 127th word finds the last one live: the same tests.
        with shallow_stack():
            res = max_code_search(SearchProblem("FP", N=7, t=1, mode="decide", goal=128))
        assert (res.decided, res.nodes) == (True, 128 * 127 // 2)
        assert res.witness.size == 128

    def test_each_push_tests_the_words_after_it(self):
        # Every word is live: the root tests the 1,023 after it, and the push
        # of word k the 1,023 - k after that.
        res = max_code_search(SearchProblem("FP", N=10, t=1))
        assert (res.optimum, res.nodes, res.complete) == (1024, 1024 * 1023 // 2, True)
        assert res.witness.words == tuple(oracles.all_words(10, 2))


class TestDecisions:
    def test_positive_decision_comes_with_witness(self):
        res = max_code_search(
            SearchProblem("FP", N=3, t=2, q=2, mode="decide", goal=4)
        )
        assert res.decided is True
        assert res.witness.size == 4
        assert verify.check_frameproof(res.witness, 2).holds

    def test_negative_decision_has_no_witness(self):
        res = max_code_search(
            SearchProblem("FP", N=2, t=2, q=2, mode="decide", goal=3)
        )
        assert res.decided is False
        assert res.complete
        assert res.witness is None

    def test_trivial_goal(self):
        res = max_code_search(
            SearchProblem("FP", N=2, t=2, q=2, mode="decide", goal=1)
        )
        assert res.decided is True


class TestUpperBoundRegion:
    """The size cap M <= N at each length, decided by the length scan."""

    def test_guaranteed_band_for_three_traitors(self):
        res = search.min_length_search(3, "FP", start_length=4, max_length=5)
        assert [(p.N, p.decided, p.nodes) for p in res.probes] == [
            (4, False, 163),
            (5, False, 1479),
        ]
        assert res.value is None
        assert res.lower_bound == 6
        assert res.witness is None
        assert bounds.binary_fp_status(4, 3).guaranteed
        assert bounds.binary_fp_status(5, 3).guaranteed

    def test_pair_coalitions_break_at_length_three(self):
        # For two traitors the length-N cap does not hold at N=3: the
        # even-weight code packs four words, and the guaranteed window
        # t+1..3t is stated for t >= 3 only.
        res = search.min_length_search(2, "FP", start_length=3, max_length=3)
        assert res.value == 3
        assert res.witness.size == 4
        assert verify.check_frameproof(res.witness, 2).holds
        with pytest.raises(ValueError):
            bounds.binary_fp_status(3, 2)

    def test_budget_exhaustion_is_per_length(self):
        res = search.min_length_search(3, "FP", budget=200, start_length=4, max_length=5)
        # N=4 finishes in 163 tests; N=5 needs 1479.
        assert [(p.N, p.decided, p.nodes) for p in res.probes] == [
            (4, False, 163),
            (5, None, 201),
        ]
        assert res.lower_bound == 5


class TestMinimumLengths:
    def test_smallest_useful_family_length(self):
        res = search.min_length_search(1, "CFF")
        assert res.value == 4
        assert res.complete
        assert [(p.N, p.decided, p.nodes) for p in res.probes] == [
            (1, False, 1),
            (2, False, 5),
            (3, False, 29),
            (4, True, 117),
        ]
        fam = res.witness
        assert fam.size == 5
        assert verify.check_cff(fam, 1).holds
        assert all(fam.member_size(i) <= 2 for i in range(fam.size))

    def test_code_length_beyond_degenerate_line(self):
        res = search.min_length_search(2, "FP", start_length=2)
        assert res.value == 3
        assert [(p.N, p.decided) for p in res.probes] == [(2, False), (3, True)]
        assert res.witness.words == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_degenerate_literal_answer(self):
        res = search.min_length_search(2, "FP")
        assert res.value == 1
        assert res.probes[0].decided is True

    def test_budget_gives_lower_bound(self):
        res = search.min_length_search(2, "CFF", budget=1000)
        assert res.value is None
        assert not res.complete
        assert res.lower_bound == 5
        assert res.probes[-1] == search.LengthProbe(N=5, decided=None, nodes=1001)

    def test_errors(self):
        with pytest.raises(ValueError):
            search.min_length_search(0, "CFF")
        with pytest.raises(ValueError):
            search.min_length_search(2, "TA")
        with pytest.raises(ValueError):
            search.min_length_search(2, "CFF", start_length=5, max_length=3)

    def test_exhausting_the_window_reports_a_bound(self):
        res = search.min_length_search(2, "CFF", start_length=1, max_length=4)
        assert res.value is None
        assert res.lower_bound == 5
        assert all(p.decided is False for p in res.probes)

    @pytest.mark.parametrize("budget", [None, 50, 500])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("prop,start", [("FP", 2), ("CFF", 1)])
    def test_probes_are_single_decisions(self, prop, start, t, budget):
        # Each probe is the decision "more than N words at length N?" on its
        # own, so one scan answers every per-length question.
        res = search.min_length_search(t, prop, budget, start_length=start, max_length=6)
        assert [p.N for p in res.probes] == list(range(start, start + len(res.probes)))
        for probe in res.probes:
            alone = max_code_search(
                SearchProblem(prop, N=probe.N, t=t, mode="decide", goal=probe.N + 1), budget
            )
            assert (probe.decided, probe.nodes) == (alone.decided, alone.nodes)
        assert res.witness == alone.witness


class TestHugeStrength:
    """A member never has more than total-1 others, so any larger t decides alike."""

    HUGE = 10**5

    @pytest.mark.parametrize(
        "prop,N,q,goals",
        [
            ("FP", 3, 2, (3, 4)),
            ("CFF", 3, 2, (3, 4)),
            ("FP", 2, 3, (4, 5)),
            ("IPP", 3, 2, (2, 3)),
            ("IPP", 2, 3, (3, 4)),
            ("TA", 3, 2, (2, 3)),
            ("TA", 2, 3, (3, 4)),
        ],
        ids=["fp-3-q2", "cff-3", "fp-2-q3", "ipp-3-q2", "ipp-2-q3", "ta-3-q2", "ta-2-q3"],
    )
    def test_same_search_as_every_other_member(self, prop, N, q, goals):
        total = q**N
        for mode, goal in [("maximize", None)] + [("decide", g) for g in goals]:
            def run(t):
                return max_code_search(SearchProblem(prop, N=N, t=t, q=q, mode=mode, goal=goal))

            tracemalloc.start()
            try:
                huge = run(self.HUGE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capped = run(total - 1)
            assert huge.problem.t == self.HUGE
            assert (huge.optimum, huge.decided, huge.nodes, huge.witness, huge.complete) == (
                capped.optimum, capped.decided, capped.nodes, capped.witness, True,
            )
            # Nothing is allocated per unit of t: no 2t lists.
            assert peak < 1 << 20

    @pytest.mark.parametrize("prop,start", [("CFF", 1), ("FP", 2)])
    def test_min_length_scan_as_every_other_member(self, prop, start):
        # 2**4 - 1 others is the most any length up to 4 allows.
        huge = search.min_length_search(self.HUGE, prop, start_length=start, max_length=4)
        capped = search.min_length_search(15, prop, start_length=start, max_length=4)
        assert huge.t == self.HUGE
        assert (huge.value, huge.lower_bound, huge.probes, huge.witness, huge.complete) == (
            capped.value, capped.lower_bound, capped.probes, capped.witness, capped.complete,
        )
        assert [p.decided for p in huge.probes] == [False] * (5 - start)


class TestSandwich:
    """The scans that bracket the code answer between the family answers at t-2 and t."""

    def test_budgeted_run_shapes(self):
        lower = search.min_length_search(1, "CFF", budget=2000)
        code = search.min_length_search(3, "FP", budget=2000, start_length=2)
        upper = search.min_length_search(3, "CFF", budget=2000)
        assert lower.value == 4  # pairs-of-others answer
        assert code.value is None
        assert code.lower_bound == 6  # N=5 is refuted in 1479 tests
        assert [p.nodes for p in code.probes] == [6, 28, 163, 1479, 2001]
        assert upper.value is None
        assert upper.lower_bound == 5
