"""Closed-form size caps and their internal consistency."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import bounds


def entry_value(entry, q):
    return entry.value if entry.value is not None else entry.evaluate(q)


class TestFrameproofBound:
    def test_square_case(self):
        e = bounds.fp_bound(4, 3, 2)
        assert e.value == 16
        assert "r=0" in e.note

    def test_remainder_one_caps_at_power(self):
        assert bounds.fp_bound(3, 3, 2).value == 9

    def test_length_equals_strength(self):
        # one coordinate per coalition slot: max(q, t*(q-1))
        assert bounds.fp_bound(2, 2, 2).value == 2
        assert bounds.fp_bound(3, 4, 3).value == 9

    def test_degenerate_single_coordinate(self):
        # the full binary line is frameproof for every t, and the formula
        # agrees: two words, no more
        assert bounds.fp_bound(1, 2, 5).value == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bounds.fp_bound(0, 2, 2)
        with pytest.raises(ValueError):
            bounds.fp_bound(4, 1, 2)
        with pytest.raises(ValueError):
            bounds.fp_bound(4, 2, 0)

    @given(st.integers(2, 12), st.integers(2, 9), st.integers(1, 6))
    @settings(max_examples=200)
    def test_monotone_in_alphabet(self, N, q, t):
        if N < t:
            return
        lo = bounds.fp_bound(N, q, t).value
        hi = bounds.fp_bound(N, q + 1, t).value
        assert lo <= hi


class TestQuadraticThreshold:
    def test_reference_values(self):
        s = bounds.binary_fp_status(None, 10)
        assert s.quadratic_lower == 56
        assert s.binomial_lower == 55
        assert s.conjectured == 100

        s = bounds.binary_fp_status(None, 20)
        assert s.quadratic_lower == 281
        assert s.binomial_lower == 210

    def test_threshold_matches_brute_force(self):
        # The closed form must agree with directly testing the quadratic.
        for t in range(3, 40):
            cutoff = bounds.min_exceed_length_quadratic(t)
            for N in range(2, cutoff):
                assert bounds._below_quadratic_threshold(N, t), (N, t)
            assert not bounds._below_quadratic_threshold(cutoff, t)

    def test_cutoff_matches_integer_search(self):
        # N lies below (15 + sqrt(33)) * b / 24 exactly when 24N - 15b < sqrt(33) * b.
        for t in range(3, 201):
            b = (t - 2) ** 2
            N = 15 * b // 24  # 24N <= 15b: below
            while 24 * N - 15 * b <= 0 or (24 * N - 15 * b) ** 2 < 33 * b * b:
                N += 1
            assert bounds.min_exceed_length_quadratic(t) == N, t

    def test_quadratic_window_at_t8(self):
        # The guaranteed window ends at 3t = 24, the quadratic threshold covers
        # 25..31 (31.12 = (15 + sqrt(33)) * 36 / 24), and 32 is beyond it.
        assert bounds.min_exceed_length_quadratic(8) == 32
        medium = "medium length: within the guaranteed window (t+1 .. 3t)"
        for N, guaranteed, reason in (
            (24, True, medium),
            (25, True, "below the quadratic threshold"),
            (31, True, "below the quadratic threshold"),
            (32, False, "beyond every known guarantee"),
        ):
            status = bounds.binary_fp_status(N, 8)
            assert (status.guaranteed, status.reason) == (guaranteed, reason), N

    def test_status_windows(self):
        assert bounds.binary_fp_status(9, 3).guaranteed is True
        assert "medium" in bounds.binary_fp_status(9, 3).reason
        assert bounds.binary_fp_status(2, 3).guaranteed is True
        assert bounds.binary_fp_status(1, 3).guaranteed is False
        assert bounds.binary_fp_status(10**6, 3).guaranteed is False

    def test_needs_strength_three(self):
        with pytest.raises(ValueError):
            bounds.binary_fp_status(4, 2)


class TestIppBound:
    def test_reference_triple(self):
        balanced, uniform, quadratic = bounds.ipp_bound(4, 3, 2)
        assert balanced.value == 15
        assert uniform.value == 27
        assert quadratic.value == 54
        assert balanced.source == "ipp-balanced-parts"
        assert uniform.source == "ipp-uniform-parts"
        assert quadratic.source == "ipp-quadratic-parts"

    def test_three_coordinates_collapse(self):
        for q in (2, 3, 5):
            balanced, uniform, _ = bounds.ipp_bound(3, q, 2)
            assert balanced.value == 3 * q
            assert uniform.value == 3 * q

    def test_longer_strength_three(self):
        balanced, _, _ = bounds.ipp_bound(5, 2, 3)
        assert balanced.value == 10

    @given(st.integers(2, 10), st.integers(2, 8), st.integers(2, 4))
    @settings(max_examples=200)
    def test_triple_is_ordered(self, N, q, t):
        v = (t + 2) ** 2 // 4
        if N < v - 1:
            return
        balanced, uniform, quadratic = bounds.ipp_bound(N, q, t)
        assert balanced.value <= uniform.value <= quadratic.value

    @given(st.integers(3, 10), st.integers(2, 8), st.integers(2, 3))
    @settings(max_examples=120)
    def test_monotone_in_alphabet(self, N, q, t):
        v = (t + 2) ** 2 // 4
        if N < v - 1:
            return
        for a, b in zip(bounds.ipp_bound(N, q, t), bounds.ipp_bound(N, q + 1, t)):
            assert a.value <= b.value


class TestTaBound:
    def test_strength_two_short(self):
        entries = bounds.ta_bound(4, 3, 2)
        exact = [e for e in entries if e.usable]
        assert exact and exact[0].value == 12
        rough = [e for e in entries if not e.usable]
        assert rough and rough[0].value is None
        assert rough[0].exponent == 1
        assert str(4 * comb(4, 1)) in rough[0].note

    def test_strength_three_symbolic(self):
        entries = bounds.ta_bound(10, 5, 3)
        e = entries[0]
        assert e.value is None
        assert e.coefficient == 18 * 2**54
        assert e.exponent == 2
        assert e.evaluate(5) == 18 * 2**54 * 25

    def test_strength_three_exact_length(self):
        e = bounds.ta_bound(9, 2, 3)[0]
        assert e.coefficient == 9 * 2**27
        assert e.exponent == 1

    def test_unsupported_strength(self):
        with pytest.raises(ValueError):
            bounds.ta_bound(8, 2, 4)


class TestSingleton:
    def test_examples(self):
        assert bounds.singleton_bound(9, 2, 9) == 2
        assert bounds.singleton_bound(4, 3, 4) == 3
        assert bounds.singleton_bound(5, 2, 1) == 2**5

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            bounds.singleton_bound(4, 2, 5)
        with pytest.raises(ValueError):
            bounds.singleton_bound(4, 2, 0)


class TestReport:
    def test_reference_report(self):
        report = bounds.bound_report(4, 3, 2)
        values = {e.source: e.value for e in report.entries}
        assert values["fp-split"] == 16
        assert values["ipp-balanced-parts"] == 15
        assert values["ipp-uniform-parts"] == 27
        assert values["ta2-length4"] == 12

    def test_symbolic_entries_expand_on_request(self):
        lazy = bounds.bound_report(9, 2, 3)
        assert any(e.value is None for e in lazy.entries)
        eager = bounds.bound_report(9, 2, 3, evaluate_symbolic=True)
        assert all(e.value is not None for e in eager.entries)

    def test_strength_one_keeps_fp_only(self):
        report = bounds.bound_report(4, 3, 1)
        assert [e.source for e in report.entries] == ["fp-split"]
