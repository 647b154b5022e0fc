"""Constructive procedures: translations, padding, composition, pruning, stripping."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest

import oracles
from conftest import random_code, random_code_stream, random_family, sample_verified
from tracecodes import transform as tr
from tracecodes import verify
from tracecodes.core import Code

FULL2 = Code(tuple(product(range(2), repeat=2)), 2)
FULL3 = Code(tuple(product(range(2), repeat=3)), 2)
SINGLETON2 = tr.PatternPartition(((0,), (1,)), v=3, r=0)
SINGLETON3 = tr.PatternPartition(((0,), (1,), (2,)), v=4, r=0)


class TestSetFamily:
    def test_from_sets_round_trip(self):
        fam = tr.SetFamily.from_sets(3, [[0], [1, 2]])
        assert fam.size == 2
        assert fam.member_elements(0) == (0,)
        assert fam.member_elements(1) == (1, 2)
        assert fam.member_size(1) == 2

    def test_rejects_duplicates_and_strays(self):
        with pytest.raises(ValueError):
            tr.SetFamily.from_sets(2, [[0], [0]])
        with pytest.raises(ValueError):
            tr.SetFamily.from_sets(2, [[5]])
        with pytest.raises(ValueError):
            tr.SetFamily.from_sets(2, [])


class TestDoubling:
    def test_substitution_rule(self):
        fam = tr.fpc_to_cff(Code(((0, 1),), 2))
        assert fam.ground_size == 4
        assert fam.member_elements(0) == (0, 3)  # rows (1,0,0,1)

    def test_identity_code(self):
        fam = tr.fpc_to_cff(Code.from_strings(["10", "01"], 2))
        assert fam.ground_size == 4
        assert {fam.member_elements(0), fam.member_elements(1)} == {(1, 2), (0, 3)}
        assert all(fam.member_size(i) == 2 for i in range(2))

    def test_requires_binary(self):
        with pytest.raises(ValueError):
            tr.fpc_to_cff(Code(((0, 2),), 3))

    def test_constant_column_weight(self):
        for code in random_code_stream(seed=41, count=80, max_q=2):
            fam = tr.fpc_to_cff(code)
            assert fam.ground_size == 2 * code.length
            assert all(fam.member_size(i) == code.length for i in range(fam.size))

    def test_fp_input_gives_cff_output(self):
        rng = random.Random(42)
        codes = sample_verified(
            rng,
            100,
            lambda r: next(iter(random_code_stream(r.randrange(10**9), 1, max_q=2))),
            lambda c: verify.check_frameproof(c, 2).holds,
        )
        for code in codes:
            assert verify.check_cff(tr.fpc_to_cff(code), 2).holds


class TestIncidenceCode:
    def test_disjoint_singletons_to_identity(self):
        fam = tr.SetFamily.from_sets(3, [[0], [1], [2]])
        code = tr.cff_to_fpc(fam)
        assert set(code.words) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_round_trip_shape(self):
        for code in random_code_stream(seed=43, count=50, max_q=2):
            back = tr.cff_to_fpc(tr.fpc_to_cff(code))
            assert back.length == 2 * code.length
            assert back.size == code.size

    def test_duplicate_columns_rejected(self):
        fam = tr.SetFamily.from_sets(2, [[0], [1]])
        tr.cff_to_fpc(fam)  # fine: distinct columns
        # A family cannot hold duplicate members, so collapse can only come
        # from the (rejected) constructor path; nothing to collapse here.
        assert tr.cff_to_fpc(fam).size == 2


class TestRestriction:
    def test_basic_example(self):
        fam = tr.SetFamily.from_sets(3, [[0], [1], [2]])
        res = tr.cff_restrict(fam, 0)
        assert res.clean
        out = res.family()
        assert out.ground_size == 2
        assert {out.member_elements(0), out.member_elements(1)} == {(0,), (1,)}

    def test_whole_ground_member_flags_everything(self):
        fam = tr.SetFamily.from_sets(2, [[0, 1], [0], [1]])
        res = tr.cff_restrict(fam, 0)
        assert not res.clean
        assert res.ground_size == 0
        assert res.empty_indices == (0, 1)
        assert res.duplicate_indices == (1,)
        with pytest.raises(ValueError):
            res.family()

    @pytest.mark.parametrize("ground,kept", [(3, 1), (2, 0)])
    def test_no_member_left_is_not_clean(self, ground, kept):
        # A one-member family restricted away from its member leaves none.
        res = tr.cff_restrict(tr.SetFamily.from_sets(ground, [[0, 1]]), 0)
        assert (res.ground_size, res.members, res.empty_indices, res.duplicate_indices) == (
            kept, (), (), ()
        )
        assert not res.clean
        with pytest.raises(ValueError, match="not a valid family"):
            res.family()

    def test_renumbering_with_empty_and_duplicate_members(self):
        # Removing {0, 1} keeps elements 2, 3, 4, renumbered 0, 1, 2. Members
        # 1 and 4 empty out, and 4 and 8 repeat 1 and 2; survivors are
        # indexed without member 0, so these are reported one lower.
        sets = [[0, 1], [0], [2], [2, 3], [1], [1, 2, 4], [3], [0, 4], [0, 2]]
        res = tr.cff_restrict(tr.SetFamily.from_sets(5, sets), 0)
        assert res.ground_size == 3
        assert res.members == (0b000, 0b001, 0b011, 0b000, 0b101, 0b010, 0b100, 0b001)
        assert res.removed_member == 0
        assert res.empty_indices == (0, 3)
        assert res.duplicate_indices == (3, 7)

    def test_out_of_range_member(self):
        fam = tr.SetFamily.from_sets(2, [[0], [1]])
        with pytest.raises(ValueError):
            tr.cff_restrict(fam, 2)

    def test_strength_drops_by_one(self):
        rng = random.Random(44)
        found = 0
        while found < 60:
            ground = rng.randint(2, 6)
            fam = random_family(rng, ground, rng.randint(2, min(5, (1 << ground) - 1)))
            if not verify.check_cff(fam, 2).holds:
                continue
            found += 1
            res = tr.cff_restrict(fam, rng.randrange(fam.size))
            if res.clean:
                assert verify.check_cff(res.family(), 1).holds


class TestPadding:
    def test_examples(self):
        assert tr.pad_code(Code(((0, 1),), 2), 2).words == ((0, 1, 0, 0),)
        code = Code.from_strings(["01", "10"], 2)
        assert tr.pad_code(code, 0) is code
        with pytest.raises(ValueError):
            tr.pad_code(code, -1)

    def test_verdicts_preserved(self):
        for code in random_code_stream(seed=45, count=60, max_N=4, max_n=5):
            padded = tr.pad_code(code, 3)
            assert padded.length == code.length + 3
            for t in (1, 2):
                assert (
                    verify.check_frameproof(padded, t).holds
                    == verify.check_frameproof(code, t).holds
                )
                assert verify.check_ta(padded, t).holds == verify.check_ta(code, t).holds
                assert verify.check_ipp(padded, t).holds == verify.check_ipp(code, t).holds


class TestBlockComposition:
    def test_examples(self):
        fused = tr.block_compose(Code.from_strings(["00", "11"], 2), 2)
        assert fused.q == 4
        assert fused.words == ((0,), (3,))

    def test_width_one_is_identity(self):
        code = Code.from_strings(["0110", "1001"], 2)
        out = tr.block_compose(code, 1)
        assert out.words == code.words
        assert out.q == code.q

    def test_errors(self):
        code = Code.from_strings(["011", "100"], 2)
        with pytest.raises(ValueError):
            tr.block_compose(code, 2)  # 2 does not divide 3
        wide = Code((tuple([0] * 17), tuple([1] * 17)), 2)
        with pytest.raises(ValueError):
            tr.block_compose(wide, 17)  # 2**17 symbols is past the cap

    def test_fp_and_ipp_preserved(self):
        rng = random.Random(46)
        codes = sample_verified(
            rng,
            50,
            lambda r: random_code(r, 4, 2, r.randint(2, 5)),
            lambda c: verify.check_frameproof(c, 2).holds,
        )
        for code in codes:
            fused = tr.block_compose(code, 2)
            assert verify.check_frameproof(fused, 2).holds
            if verify.check_ipp(code, 2).holds:
                assert verify.check_ipp(fused, 2).holds


class TestRowPartition:
    def test_profile_examples(self):
        p = tr.make_row_partition(4, 2)
        assert (p.v, p.r) == (4, 1)
        assert tuple(len(part) for part in p.parts) == (2, 1, 1)
        assert p.parts == ((0, 1), (2,), (3,))

        p = tr.make_row_partition(3, 2)
        assert p.r == 0
        assert tuple(len(part) for part in p.parts) == (1, 1, 1)

        p = tr.make_row_partition(5, 3)
        assert p.v == 6
        assert tuple(len(part) for part in p.parts) == (1, 1, 1, 1, 1)

    def test_too_short(self):
        with pytest.raises(ValueError):
            tr.make_row_partition(2, 2)  # needs at least v-1 = 3 coordinates

    def test_partition_invariants(self):
        for N in range(3, 14):
            for t in (2, 3, 4):
                v = (t + 2) ** 2 // 4
                if N < v - 1:
                    continue
                p = tr.make_row_partition(N, t)
                flat = [i for part in p.parts for i in part]
                assert sorted(flat) == list(range(N))
                assert len(flat) == len(set(flat))
                assert p.r == N % (v - 1)
                sizes = [len(part) for part in p.parts]
                assert sizes == sorted(sizes, reverse=True)
                assert max(sizes) - min(sizes) <= 1

    def test_bad_partitions_rejected(self):
        with pytest.raises(ValueError):
            tr.PatternPartition(((0,), (0,)), v=3, r=0)  # overlap
        with pytest.raises(ValueError):
            tr.PatternPartition(((0,), (2,)), v=3, r=0)  # gap


class TestPruning:
    def test_full_square_unchanged(self):
        res = tr.prune_special_codewords(FULL2, SINGLETON2)
        assert res.survivors == (0, 1, 2, 3)
        assert res.steps == ()

    def test_cascade_to_empty(self):
        code = Code.from_strings(["00", "01", "10"], 2)
        res = tr.prune_special_codewords(code, SINGLETON2)
        assert res.survivors == ()
        assert [s.removed for s in res.steps] == [1, 0, 2]
        assert res.subcode(code) is None

    def test_full_cube_survives(self):
        res = tr.prune_special_codewords(FULL3, SINGLETON3)
        assert res.survivors == tuple(range(8))

    def test_fixed_point_and_deletion_cap(self):
        rng = random.Random(47)
        for _ in range(60):
            N = rng.randint(3, 5)
            t = 2
            partition = tr.make_row_partition(N, t)
            q = rng.randint(2, 3)
            code = random_code(rng, N, q, rng.randint(1, min(7, q**N)))
            first = tr.prune_special_codewords(code, partition)
            cap = sum(q ** len(part) for part in partition.parts)
            assert len(first.steps) <= cap
            sub = first.subcode(code)
            if sub is None:
                assert first.survivors == ()
                continue
            again = tr.prune_special_codewords(sub, partition)
            assert again.survivors == tuple(range(sub.size))
            assert again.steps == ()

    def test_partition_must_fit(self):
        with pytest.raises(ValueError):
            tr.prune_special_codewords(FULL3, SINGLETON2)


class TestViolationCertificate:
    def test_full_cube_certificate(self):
        cert = tr.build_ipp_violation(FULL3, SINGLETON3, 2)
        assert cert.chain == (0, 1)
        assert cert.descendant == (0, 0, 1)
        assert cert.coalitions == ((0, 1), (1,), (0, 3))
        assert tr.certificate_problems(cert, FULL3, 2) == []
        assert not verify.check_ipp(FULL3, 2).holds

    @pytest.mark.parametrize(
        "t, q, words, survivors, chain, milestones, descendant, replacements, coalitions",
        [
            (
                3, 2, ["000010", "000101", "010010", "010011", "011111", "100000", "110110", "110111"],
                (2, 3, 6, 7), (0, 1, 3), (1, 4), (0, 1, 0, 0, 1, 1),
                ((1,), (0,), ()), ((0, 1, 3), (1, 3), (0, 3), (0, 1)),
            ),
            (
                3, 2, ["10101", "10111", "11100", "11110"],
                (0, 1, 2, 3), (0, 1, 3), (1, 3), (1, 0, 1, 1, 0),
                ((1,), (0,), (2,)), ((0, 1, 3), (1, 3), (0, 3), (0, 1, 2)),
            ),
            (
                3, 3, ["00000", "00210", "01122", "01202", "02010", "02211", "11102", "12022", "12121"],
                tuple(range(9)), (0, 1, 4), (1, 3), (0, 0, 2, 1, 0),
                ((1,), (3,), (0,)), ((0, 1, 4), (1, 4), (0, 3, 4), (0, 1)),
            ),
            (
                4, 2, ["00000000", "00000101", "00010001", "00010011", "01001001", "01100001",
                       "01110111", "11011011"],
                (1, 2, 3, 5, 6), (0, 1, 2), (2, 5), (0, 0, 0, 1, 0, 0, 1, 1),
                ((1,), (0, 2), (0, 4)), ((0, 1, 2), (1, 2), (0, 2), (0, 1, 4)),
            ),
            (
                # Nine coordinates over eight parts: the first part has two.
                4, 2, ["000010001", "000010011", "000101010", "001100111", "001101100",
                       "010000100", "100100001", "101011110", "110100101"],
                (0, 1, 2, 3, 4, 6, 7), (0, 1, 2), (2, 6), (0, 0, 0, 0, 1, 0, 0, 1, 0),
                ((1,), (0,), (4,)), ((0, 1, 2), (1, 2), (0, 2), (0, 1, 4)),
            ),
            (
                4, 3, ["01022002", "02010221", "10000100", "10020020", "11210122", "12000220",
                       "20202221", "22122111", "22202120"],
                (0, 1, 2, 3, 4, 5, 6, 8), (0, 1, 5), (2, 5), (0, 1, 0, 1, 0, 2, 2, 0),
                ((1, 4), (2, 4), (1, 2)), ((0, 1, 5), (1, 4, 5), (0, 2, 4, 5), (0, 1, 2)),
            ),
        ],
    )
    def test_three_member_backbones(
        self, t, q, words, survivors, chain, milestones, descendant, replacements, coalitions
    ):
        code = Code.from_strings(words, q)
        partition = tr.make_row_partition(code.length, t)
        res = tr.prune_special_codewords(code, partition)
        assert res.survivors == survivors
        cert = tr.build_ipp_violation(res.subcode(code), partition, t)
        assert cert == tr.IppViolationCertificate(
            chain, milestones, descendant, replacements, coalitions
        )

    def test_private_pattern_is_an_error(self):
        code = Code.from_strings(["000", "001", "010"], 2)
        with pytest.raises(ValueError, match="private"):
            tr.build_ipp_violation(code, SINGLETON3, 2)

    def test_partition_shape_is_checked(self):
        with pytest.raises(ValueError):
            tr.build_ipp_violation(FULL3, SINGLETON3, 3)  # t=3 needs v=6
        with pytest.raises(ValueError):
            tr.build_ipp_violation(FULL3, SINGLETON3, 1)

    def test_certificates_on_oversized_codes(self):
        # Any 7 words of the binary cube exceed the size-6 ceiling for
        # 2-identifiability at length 3, so the pipeline must always
        # produce a sound certificate and the checker must agree.
        space = tuple(product(range(2), repeat=3))
        for skip in range(8):
            words = tuple(w for i, w in enumerate(space) if i != skip)
            code = Code(words, 2)
            res = tr.prune_special_codewords(code, SINGLETON3)
            sub = res.subcode(code)
            assert sub is not None and sub.size >= 2
            cert = tr.build_ipp_violation(sub, SINGLETON3, 2)
            assert tr.certificate_problems(cert, sub, 2) == []
            assert not verify.check_ipp(code, 2).holds

    @pytest.mark.parametrize(
        "damage, problem",
        [
            ({"chain": (0, 0)}, "chain members repeat"),
            (
                {"coalitions": ((1,), (0, 3))},
                "expected one coalition per chain member plus the chain itself",
            ),
            ({"coalitions": ((0, 1), (), (0, 3))}, "coalition 1 is empty"),
            ({"coalitions": ((0, 1), (1,), (0, 3, 5))}, "coalition 2 has 3 members, cap is 2"),
            ({"replacements": ((0,), (3,))}, "replacement family 0 contains the member it replaces"),
            ({"coalitions": ((0, 1), (1,), (1, 3))}, "coalitions share members [1]"),
        ],
    )
    def test_each_problem_line(self, damage, problem):
        cert = tr.build_ipp_violation(FULL3, SINGLETON3, 2)
        assert cert.replacements == ((1,), (3,))
        broken = cert._replace(**damage)
        assert tr.certificate_problems(broken, FULL3, 2) == [problem]

    def test_problem_listing_catches_damage(self):
        cert = tr.build_ipp_violation(FULL3, SINGLETON3, 2)
        broken = tr.IppViolationCertificate(
            chain=cert.chain,
            milestones=cert.milestones,
            descendant=(1, 1, 0),  # not producible by coalition 1
            replacements=cert.replacements,
            coalitions=cert.coalitions,
        )
        assert tr.certificate_problems(broken, FULL3, 2)


class TestDistanceStrip:
    def test_case_a_removes_everything(self):
        reps = Code(tuple(tuple(s for _ in range(9)) for s in range(3)), 3)
        removed, sub, trace = tr.distance_strip(reps, 1)
        assert trace.case == "A"
        assert removed == reps.words
        assert sub is None
        assert trace.survivors == ()

    def test_case_b_hand_example(self):
        code = Code.from_strings(["000000000", "000000011", "111111111"], 2)
        removed, sub, trace = tr.distance_strip(code, 1)
        assert trace.case == "B"
        assert set(removed) == {code.words[0], code.words[2]}
        assert sub.words == ((0, 0, 0, 0, 0, 0, 0, 1, 1),)
        assert trace.d_before == 2
        assert math.isinf(trace.d_after)

    def test_case_c_thresholds(self):
        code = Code.from_strings(["000000000", "000111111", "111111111"], 2)
        removed, sub, trace = tr.distance_strip(code, 1)
        assert trace.case == "C"
        assert trace.delta == 5  # 9 - 1 - 3
        assert trace.threshold == 2**6 * math.comb(8, 6)
        assert sub is None

    def test_errors(self):
        with pytest.raises(ValueError, match="multiple of 9"):
            tr.distance_strip(Code(tuple(product(range(2), repeat=2))[:3], 2), 1)
        three = Code.from_strings(["000000000", "000000011", "111111111"], 2)
        with pytest.raises(ValueError, match="9"):
            tr.distance_strip(three, 2)  # length 9 != 18
        small = Code.from_strings(["000000000", "111111111"], 2)
        with pytest.raises(ValueError):
            tr.distance_strip(small, 1)

    def test_pattern_frequency_matches_oracle(self):
        # The strip counts a pattern's words as one AND of word columns.
        rng = random.Random(50)
        for _ in range(300):
            q, N = rng.randint(2, 5), rng.randint(1, 7)
            code = random_code(rng, N, q, rng.randint(1, min(12, q**N)))
            t = rng.randint(1, N)
            assert tr._min_pattern_frequency(code, t) == oracles.min_pattern_frequency(
                code.words, t
            ), (code, t)

    def test_partition_identity_on_arbitrary_inputs(self):
        rng = random.Random(48)
        for _ in range(40):
            q = rng.randint(2, 3)
            code = random_code(rng, 9, q, rng.randint(3, 8))
            removed, sub, trace = tr.distance_strip(code, 1)
            got = set(removed) | (set(sub.words) if sub else set())
            assert got == set(code.words)
            assert not set(removed) & (set(sub.words) if sub else set())
            assert len(trace.removed) + len(trace.survivors) == code.size

    def test_distance_gain_on_traceable_inputs(self):
        from tracecodes.core import min_distance

        # Pure random draws essentially never satisfy 3-traceability, so
        # perturb a ternary repetition code and keep the draws that verify.
        def noisy_repetition(r):
            words = []
            for s in range(3):
                words.append(
                    tuple((s + (1 if r.random() < 0.12 else 0)) % 3 for _ in range(9))
                )
            if len(set(words)) < 3:
                words = [tuple([s] * 9) for s in range(3)]
            return Code(tuple(sorted(set(words))), 3)

        rng = random.Random(49)
        codes = sample_verified(
            rng, 10, noisy_repetition, lambda c: verify.check_ta(c, 3).holds
        )
        for code in codes:
            before = min_distance(code)
            removed, sub, trace = tr.distance_strip(code, 1)
            after = math.inf if sub is None or sub.size < 2 else min_distance(sub)
            assert after >= before + 1, (code, trace)
