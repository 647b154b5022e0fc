"""Tracing algorithms, pirate forgery, and the simulator."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import oracles
from conftest import random_code, random_code_stream, sample_verified
from tracecodes import core, trace, verify
from tracecodes.core import Code, is_descendant

REPS4 = Code(tuple(tuple(s for _ in range(4)) for s in range(3)), 3)
REPS9 = Code(tuple(tuple(s for _ in range(9)) for s in range(3)), 3)


class TestTraceTa:
    def test_two_way_tie(self):
        acc = trace.trace_ta(REPS4, (0, 0, 1, 1))
        assert acc.method == "TA"
        assert acc.status == "ok"
        assert acc.accused == (0, 1)
        assert acc.min_distance == 2

    def test_exact_codeword_unique(self):
        for i, w in enumerate(REPS4.words):
            acc = trace.trace_ta(REPS4, w)
            assert acc.accused == (i,)
            assert acc.min_distance == 0

    def test_lopsided_pirate(self):
        acc = trace.trace_ta(REPS9, (0, 0, 0, 0, 0, 1, 1, 1, 1))
        assert acc.accused == (0,)
        assert acc.min_distance == 4

    def test_accused_set_invariant_under_reordering(self):
        rng = random.Random(31)
        for code in random_code_stream(seed=31, count=100, max_N=4, max_n=5):
            x = tuple(rng.randrange(code.q) for _ in range(code.length))
            base = {code.words[i] for i in trace.trace_ta(code, x).accused}
            perm = list(range(code.size))
            rng.shuffle(perm)
            shuffled = Code(tuple(code.words[i] for i in perm), code.q)
            other = {shuffled.words[i] for i in trace.trace_ta(shuffled, x).accused}
            assert base == other

    def test_matches_brute_force_nearest(self):
        rng = random.Random(34)
        ties = 0
        for _ in range(600):
            q = rng.randint(2, 4)
            N = rng.randint(1, 5)
            code = random_code(rng, N, q, rng.randint(1, min(6, q**N)))
            if rng.random() < 0.25:
                x = rng.choice(code.words)
            else:
                x = tuple(rng.randrange(q) for _ in range(N))
            distances = [oracles.hamming(x, w) for w in code.words]
            best = min(distances)
            acc = trace.trace_ta(code, x)
            assert acc.min_distance == best
            assert acc.accused == tuple(i for i, d in enumerate(distances) if d == best)
            ties += len(acc.accused) > 1
        assert ties > 100


class TestTraceIpp:
    def test_exact_codeword(self):
        code = Code.from_strings(["00", "11"], 2)
        acc = trace.trace_ipp(code, (1, 1), 2)
        assert acc.status == "ok"
        assert acc.accused == (1,)

    def test_single_parent_set(self):
        code = Code.from_strings(["00", "11"], 2)
        acc = trace.trace_ipp(code, (0, 1), 2)
        assert acc.status == "ok"
        assert acc.accused == (0, 1)
        assert acc.family_size == 1

    def test_empty_intersection_flagged(self):
        code = Code.from_strings(["00", "11", "01"], 2)
        acc = trace.trace_ipp(code, (0, 1), 2)
        assert acc.status == "empty-intersection"
        assert acc.accused == ()
        assert acc.family_size == 4

    def test_no_parents_flagged(self):
        code = Code(((0, 0), (1, 1)), 3)
        acc = trace.trace_ipp(code, (2, 2), 2)
        assert acc.status == "no-parents"
        assert acc.accused == ()
        assert acc.family_size == 0

    def test_intersection_matches_oracle(self):
        rng = random.Random(32)
        for code in random_code_stream(seed=32, count=120, max_N=4, max_n=5):
            x = tuple(rng.randrange(code.q) for _ in range(code.length))
            t = rng.randint(1, 3)
            acc = trace.trace_ipp(code, x, t)
            parents = oracles.parent_coalitions(x, code.words, t)
            if not parents:
                assert acc.status == "no-parents"
            else:
                want = set.intersection(*[set(p) for p in parents])
                assert {code.words[i] for i in acc.accused} == want
                assert acc.family_size == len(parents)


class TestOneEncoding:
    def test_a_query_encodes_the_pirate_word_once(self, monkeypatch):
        # trace_ta and parent_sets both read the word's columns, not a one-hot set.
        code = Code(tuple((i, (2 * i) % 5, (3 * i) % 5) for i in range(5)), 5)
        calls = []
        onehot = core.onehot
        monkeypatch.setattr(core, "onehot", lambda w, q: calls.append(w) or onehot(w, q))
        x = (1, 2, 3)
        assert trace.trace_ta(code, x).accused == (1,)
        assert trace.trace_ipp(code, x, 2).accused == (1,)
        assert calls == []


class TestWordBoundary:
    def test_symbol_outside_the_alphabet_is_rejected(self):
        code = Code.from_strings(["00", "11"], 2)
        calls = [
            lambda x: trace.trace_ta(code, x),
            lambda x: trace.trace_ipp(code, x, 2),
            lambda x: core.parent_sets(x, code, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^symbol 2 out of range for q=2$"):
                call((0, 2))
            with pytest.raises(ValueError, match=r"^length mismatch: 3 vs 2$"):
                call((0, 1, 1))


class TestForgery:
    def test_first_copies_lowest_index_member(self):
        code = Code.from_strings(["00", "11"], 2)
        out = trace.forge_pirate(code, (0, 1), trace.PirateStrategy("first"))
        assert out == (0, 0)

    def test_interleave_example(self):
        code = Code.from_strings(["00", "11"], 2)
        out = trace.forge_pirate(code, (0, 1), trace.PirateStrategy("interleave"))
        assert out == (0, 1)

    def test_interleave_frames_outsider(self):
        # {10, 01} can assemble 11 and thereby frame the third codeword.
        code = Code.from_strings(["10", "01", "11"], 2)
        out = trace.forge_pirate(code, (0, 1), trace.PirateStrategy("interleave"))
        assert out == (1, 1)
        assert out == code.words[2]

    def test_majority_example(self):
        code = Code.from_strings(["00", "01", "11"], 2)
        out = trace.forge_pirate(code, (0, 1, 2), trace.PirateStrategy("majority"))
        assert out == (0, 1)

    def test_minority_prefers_rare_symbol(self):
        code = Code.from_strings(["00", "01", "11"], 2)
        out = trace.forge_pirate(code, (0, 1, 2), trace.PirateStrategy("minority"))
        assert out == (1, 0)

    def test_random_is_seeded(self):
        code = REPS9
        a = trace.forge_pirate(code, (0, 1, 2), trace.PirateStrategy("random", seed=7))
        b = trace.forge_pirate(code, (0, 1, 2), trace.PirateStrategy("random", seed=7))
        c = trace.forge_pirate(code, (0, 1, 2), trace.PirateStrategy("random", seed=8))
        assert a == b
        assert a != c  # 3^9 outcomes; a collision would be a red flag

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            trace.PirateStrategy("clone")

    def test_output_always_descendant(self):
        rng = random.Random(33)
        strategies = [trace.PirateStrategy(k) for k in ("first", "interleave", "majority", "minority")]
        strategies.append(trace.PirateStrategy("random", seed=5))
        for code in random_code_stream(seed=33, count=80, max_N=4, max_n=5):
            size = rng.randint(1, code.size)
            coalition = tuple(sorted(rng.sample(range(code.size), size)))
            members = code.coalition_words(coalition)
            for strategy in strategies:
                out = trace.forge_pirate(code, coalition, strategy)
                assert is_descendant(out, members), (code, coalition, strategy)


class TestTracingGuarantees:
    def choose_coalitions(self, code, t):
        for size in range(1, min(t, code.size) + 1):
            yield from combinations(range(code.size), size)

    def test_ta_traces_exactly_on_verified_codes(self):
        rng = random.Random(34)
        codes = sample_verified(
            rng,
            12,
            lambda r: next(iter(random_code_stream(r.randrange(10**9), 1, max_N=4, max_n=4))),
            lambda c: c.size >= 3 and verify.check_ta(c, 2).holds,
        )
        for code in codes:
            for coalition in self.choose_coalitions(code, 2):
                members = code.coalition_words(coalition)
                for x in oracles.desc_set(members):
                    acc = trace.trace_ta(code, x)
                    assert acc.accused, (code, coalition, x)
                    assert set(acc.accused) <= set(coalition)

    def test_ipp_traces_exactly_on_verified_codes(self):
        rng = random.Random(35)
        codes = sample_verified(
            rng,
            12,
            lambda r: next(iter(random_code_stream(r.randrange(10**9), 1, max_N=4, max_n=4))),
            lambda c: c.size >= 3 and verify.check_ipp(c, 2).holds,
        )
        for code in codes:
            for coalition in self.choose_coalitions(code, 2):
                members = code.coalition_words(coalition)
                for x in oracles.desc_set(members):
                    acc = trace.trace_ipp(code, x, 2)
                    assert acc.status == "ok"
                    assert acc.accused
                    assert set(acc.accused) <= set(coalition)


class TestSimulator:
    def test_verified_ta_code_rate_one(self):
        report = trace.simulate_tracing(
            REPS4, 2, 300, trace.PirateStrategy("random", seed=3), seed=99
        )
        assert report.trials == 300
        assert report.ta.subset_rate == 1.0
        assert report.ta.overlap_rate == 1.0
        assert report.ipp.subset_rate == 1.0
        assert 1.0 <= report.ta.mean_accused <= 2.0

    def test_single_codeword_code(self):
        lonely = Code.from_strings(["0101"], 2)
        report = trace.simulate_tracing(lonely, 2, 50, trace.PirateStrategy("first"), seed=1)
        assert report.ta.subset_rate == 1.0
        assert report.ta.mean_accused == 1.0

    def test_deterministic_given_seed(self):
        a = trace.simulate_tracing(REPS4, 2, 120, trace.PirateStrategy("random", seed=2), seed=5)
        b = trace.simulate_tracing(REPS4, 2, 120, trace.PirateStrategy("random", seed=2), seed=5)
        assert (a.ta, a.ipp) == (b.ta, b.ipp)
        c = trace.simulate_tracing(REPS4, 2, 120, trace.PirateStrategy("random", seed=2), seed=6)
        assert (a.ta, a.ipp, a.seed) != (c.ta, c.ipp, c.seed)

    def test_framing_shows_up_for_weak_code(self):
        # On a non-FP code an interleaving pirate lands on an outsider's
        # word, so TA accusations must sometimes leave the coalition.
        code = Code.from_strings(["10", "01", "11"], 2)
        report = trace.simulate_tracing(
            code, 2, 400, trace.PirateStrategy("interleave"), seed=11
        )
        assert report.ta.subset_rate < 1.0

    def test_default_seed_applied(self):
        report = trace.simulate_tracing(REPS4, 2, 10, trace.PirateStrategy("first"))
        assert report.seed == trace.DEFAULT_SEED
