"""Release gate: one test per shipped guarantee, each with a wall-clock budget.

Every test prints a single pass/fail line (run ``pytest -s tests/test_acceptance.py``
to watch them scroll by).  These are deliberately end-to-end and heavier than
the per-module suites; they re-derive nothing from the implementation under
test — expectations are either frozen constants or independent oracles.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import oracles
from conftest import random_code, random_code_stream, random_family, sample_verified
from tracecodes import Code, bounds, core, search, trace, transform, verify


@contextmanager
def criterion(num: int, title: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS  {title}  ({elapsed:.2f}s / {limit:g}s)")
    assert elapsed < limit, f"{title}: {elapsed:.2f}s blew the {limit:g}s budget"


def test_01_frameproof_scan_orders_agree():
    # The checker scans codewords against the coalitions of the others; the
    # oracle scans coalitions D for desc(D) n C = D.
    with criterion(1, "frameproof checker == coalition-major oracle on 1000 codes", 10.0):
        rng = random.Random(0xAC01)
        for code in random_code_stream(seed=0xAC01, count=1000, max_N=5, max_q=3, max_n=6):
            t = rng.randint(1, 3)
            assert verify.check_frameproof(code, t).holds == oracles.frameproof_holds(
                code.words, t
            )


def test_02_property_hierarchy():
    with criterion(2, "traceable => identifiable parents => frameproof, 1000 codes", 60.0):
        for code in random_code_stream(seed=0xAC02, count=1000, max_N=5, max_q=3, max_n=6):
            ta = verify.check_ta(code, 2).holds
            ipp = verify.check_ipp(code, 2).holds
            fp = verify.check_frameproof(code, 2).holds
            if ta:
                assert ipp, f"traceable but no guaranteed parent: {code.words}"
            if ipp:
                assert fp, f"identifiable parents but frameable: {code.words}"


def test_03_parent_check_matches_word_enumeration():
    with criterion(3, "parent-set check == word enumeration on all 236 tiny codes", 300.0):
        total = 0
        for N in (1, 2, 3):
            universe = oracles.all_words(N, 2)
            for n in range(1, min(5, len(universe)) + 1):
                for combo in itertools.combinations(universe, n):
                    code = Code(combo, 2)
                    for t in (2, 3):
                        assert verify.check_ipp(code, t).holds == oracles.ipp_holds(
                            list(combo), 2, t
                        )
                    total += 1
        assert total == 236


def test_04_binary_frameproof_maxima():
    with criterion(4, "exhaustive maxima: 3-frameproof binary is 4@N=4, 5@N=5", 600.0):
        for N, expect in ((4, 4), (5, 5)):
            res = search.max_code_search(search.SearchProblem("FP", N=N, t=3))
            assert res.complete is True, f"search at N={N} did not finish"
            assert res.optimum == expect
            assert verify.check_frameproof(res.witness, 3).holds


def test_05_short_binary_ipp_ceiling():
    with criterion(5, "2-IPP ceiling at (N=3, q=2): maximum <= 6, 7 words always fail", 300.0):
        res = search.max_code_search(search.SearchProblem("IPP", N=3, t=2))
        assert res.complete is True
        assert res.optimum <= 6
        for combo in itertools.combinations(oracles.all_words(3, 2), 7):
            assert not verify.check_ipp(Code(combo, 2), 2).holds


def test_06_doubling_yields_cover_free_families():
    with criterion(6, "doubled frameproof codes are cover-free, members weigh N", 120.0):
        rng = random.Random(0xAC06)
        produced = attempts = 0
        while produced < 500:
            attempts += 1
            assert attempts < 400 * 500, "frameproof sampling is not converging"
            t = rng.randint(1, 3)
            code = random_code(rng, rng.randint(2, 5), 2, rng.randint(1, 4))
            if not verify.check_frameproof(code, t).holds:
                continue
            family = transform.fpc_to_cff(code)
            assert verify.check_cff(family, t).holds
            assert all(
                family.member_size(i) == code.length for i in range(family.size)
            )
            produced += 1


def test_07_restriction_lowers_cover_strength():
    with criterion(7, "restricted families stay cover-free one level down", 120.0):
        rng = random.Random(0xAC07)
        produced = attempts = 0
        while produced < 500:
            attempts += 1
            assert attempts < 400 * 500, "cover-free sampling is not converging"
            ground = rng.randint(2, 6)
            family = random_family(rng, ground, rng.randint(2, min(6, (1 << ground) - 1)))
            if not verify.check_cff(family, 2).holds:
                continue
            restriction = transform.cff_restrict(family, rng.randrange(family.size))
            if not restriction.clean:
                continue  # removed member swallowed the ground set or merged members
            assert verify.check_cff(restriction.family(), 1).holds
            produced += 1


def test_08_cube_violation_certificate():
    with criterion(8, "full binary cube: nothing prunes, certificate re-verifies", 10.0):
        cube = Code(tuple(oracles.all_words(3, 2)), 2)
        partition = transform.make_row_partition(3, 2)
        pruned = transform.prune_special_codewords(cube, partition)
        assert list(pruned.survivors) == list(range(8))
        assert list(pruned.steps) == []
        cert = transform.build_ipp_violation(cube, partition, 2)
        assert transform.certificate_problems(cert, cube, 2) == []
        # spell the invariants out rather than trust the bundled checker alone
        assert all(1 <= len(c) <= 2 for c in cert.coalitions)
        for coalition in cert.coalitions:
            assert core.is_descendant(cert.descendant, cube.coalition_words(coalition))
        shared = set(cert.coalitions[0])
        for coalition in cert.coalitions[1:]:
            shared &= set(coalition)
        assert not shared
        assert not verify.check_ipp(cube, 2).holds


def test_09_distance_strip_gains():
    with criterion(9, "distance stripping gains >= 1 on every length-9 corpus code", 120.0):
        rng = random.Random(0xAC09)
        corpus = [Code(tuple(tuple([s] * 9) for s in range(3)), 3)]
        for _ in range(25):
            # one distinct symbol per codeword per coordinate: pairwise distance 9
            q = rng.choice((3, 4))
            n = rng.randint(3, q)
            columns = [rng.sample(range(q), n) for _ in range(9)]
            code = Code(tuple(tuple(col[k] for col in columns) for k in range(n)), q)
            assert verify.ta_distance_sufficient(code, 3)
            corpus.append(code)

        def noisy_repetition(r):
            words = [
                tuple((s + (1 if r.random() < 0.12 else 0)) % 3 for _ in range(9))
                for s in range(3)
            ]
            if len(set(words)) < 3:
                words = [tuple([s] * 9) for s in range(3)]
            return Code(tuple(sorted(set(words))), 3)

        corpus.extend(
            sample_verified(rng, 3, noisy_repetition, lambda c: verify.check_ta(c, 3).holds)
        )
        for code in corpus:
            removed, _survivors, report = transform.distance_strip(code, 1)
            assert report.d_after >= report.d_before + 1
            assert len(removed) <= 2**27 * code.q


def test_10_tracing_never_accuses_outsiders():
    with criterion(10, "1000 forgeries per scheme, accusations always inside", 120.0):
        rng = random.Random(0xAC10)

        def near_repetition(r):
            words = [
                tuple((s + (1 if r.random() < 0.1 else 0)) % 3 for _ in range(5))
                for s in range(3)
            ]
            if len(set(words)) < 3:
                words = [tuple([s] * 5) for s in range(3)]
            return Code(tuple(sorted(set(words))), 3)

        kinds = itertools.cycle(trace.STRATEGY_KINDS)
        for code in sample_verified(
            rng, 10, near_repetition, lambda c: verify.check_ta(c, 2).holds
        ):
            report = trace.simulate_tracing(
                code, 2, 100, trace.PirateStrategy(next(kinds)), rng.randrange(2**30)
            )
            assert report.ta.subset_rate == 1.0

        def small_code(r):
            return random_code(r, r.randint(3, 5), 3, r.randint(3, 4))

        for code in sample_verified(
            rng, 10, small_code, lambda c: verify.check_ipp(c, 2).holds
        ):
            report = trace.simulate_tracing(
                code, 2, 100, trace.PirateStrategy(next(kinds)), rng.randrange(2**30)
            )
            assert report.ipp.subset_rate == 1.0


def test_11_bound_regressions():
    with criterion(11, "closed-form caps match their frozen values", 1.0):
        assert bounds.fp_bound(4, 3, 2).value == 16
        by_source = {e.source: e.value for e in bounds.ipp_bound(4, 3, 2)}
        assert by_source["ipp-balanced-parts"] == 15
        assert by_source["ipp-uniform-parts"] == 27
        for q in (2, 3, 5, 9):
            head = bounds.ta_bound(4, q, 2)[0]
            assert head.source == "ta2-length4"
            assert head.value == 4 * q
        status = bounds.binary_fp_status(None, 20)
        assert status.quadratic_lower == 281
        assert status.binomial_lower == 210


def test_12_block_composition_preserves_verdicts():
    with criterion(12, "pairing coordinates preserves both verdicts, 200 codes each", 120.0):
        rng = random.Random(0xAC12)

        def even_length_code(r):
            N = r.choice((2, 4))
            q = r.randint(2, 3)
            return random_code(r, N, q, r.randint(1, min(5, q**N)))

        for code in sample_verified(
            rng, 200, even_length_code, lambda c: verify.check_frameproof(c, 2).holds
        ):
            assert verify.check_frameproof(transform.block_compose(code, 2), 2).holds
        for code in sample_verified(
            rng, 200, even_length_code, lambda c: verify.check_ipp(c, 2).holds
        ):
            assert verify.check_ipp(transform.block_compose(code, 2), 2).holds
