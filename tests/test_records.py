"""Record semantics: every result class reads, compares and renders by its fields.

Records are ``typing.NamedTuple`` classes or, where they validate or cache,
plain ``core.Record`` classes; both must behave as immutable values that
equal only a record of their own class.
"""

from __future__ import annotations

import math

import pytest

import tracecodes
from tracecodes import search, trace, transform, verify
from tracecodes.bounds import BoundEntry
from tracecodes.commands.common import _fmt, _jsonable
from tracecodes.core import Code

# One instance of each record class in ``tracecodes.__all__``: its fields in
# declaration order, and one field changed to another valid value.
EXAMPLES = {
    "Accusation": (
        dict(method="IPP", accused=(0, 2), status="ok", min_distance=None, family_size=3),
        ("accused", (1,)),
    ),
    "BinaryFpStatus": (
        dict(
            t=3,
            N=5,
            guaranteed=True,
            reason="medium length",
            binomial_lower=6,
            quadratic_lower=5,
            conjectured=9,
        ),
        ("N", 6),
    ),
    "BoundEntry": (
        dict(source="fp-split", value=16, coefficient=None, exponent=None, usable=True, note="r=0"),
        ("value", 17),
    ),
    "BoundReport": (
        dict(N=4, q=2, t=2, entries=(BoundEntry("fp-split", 4), BoundEntry("ipp", None, 2, 3))),
        ("q", 3),
    ),
    "Code": (dict(words=((0, 1), (1, 0)), q=2), ("q", 3)),
    "Counters": (dict(subsets_examined=3, words_examined=4), ("words_examined", 5)),
    "CoverViolation": (dict(covered=0, covering=(1, 2)), ("covered", 3)),
    "FramedWord": (dict(framed=0, coalition=(1, 2)), ("framed", 3)),
    "IppViolation": (dict(word=(0, 1), coalitions=((0,), (1,))), ("word", (1, 1))),
    "IppViolationCertificate": (
        dict(
            chain=(0, 1),
            milestones=(0,),
            descendant=(0, 1),
            replacements=((2,), (3,)),
            coalitions=((0, 1), (2, 1), (0, 3)),
        ),
        ("chain", (1, 0)),
    ),
    "MinLengthResult": (
        dict(
            property="CFF",
            t=1,
            value=3,
            lower_bound=3,
            probes=(search.LengthProbe(N=3, decided=True, nodes=7),),
            witness=None,
            complete=True,
        ),
        ("value", 4),
    ),
    "ParentSetFamily": (dict(word=(0, 1), t=2, coalitions=((0,), (0, 1))), ("t", 3)),
    "PatternPartition": (dict(parts=((0, 1), (2,)), v=3, r=1), ("r", 0)),
    "PirateStrategy": (dict(kind="random", seed=7), ("seed", 8)),
    "PruneResult": (
        dict(survivors=(1, 2), steps=(transform.PruneStep(removed=0, part=1, pattern=(0,)),)),
        ("survivors", (2,)),
    ),
    "Restriction": (
        dict(ground_size=3, members=(1, 2), removed_member=0, empty_indices=(), duplicate_indices=()),
        ("removed_member", 1),
    ),
    "SearchProblem": (dict(property="FP", N=3, t=2, q=2, mode="decide", goal=4), ("goal", 5)),
    "SearchResult": (
        dict(
            problem=search.SearchProblem("FP", 3, 2),
            optimum=2,
            decided=None,
            witness=Code(((0, 1), (1, 0)), 2),
            nodes=20,
            elapsed=0.5,
            complete=True,
            budget=None,
        ),
        ("nodes", 21),
    ),
    "SetFamily": (dict(ground_size=3, members=(1, 6)), ("ground_size", 4)),
    "StripTrace": (
        dict(
            case="B",
            d_before=2,
            d_after=math.inf,
            delta=None,
            threshold=1,
            removed=(0, 2),
            survivors=(1,),
            diagnostics=transform.PairDiagnostics(pair=(0, 1)),
        ),
        ("case", "C"),
    ),
    "TaViolation": (
        dict(coalition=(0, 1), pirate=(0, 1), outsider=2, insider_distance=1, outsider_distance=1),
        ("outsider", 3),
    ),
    "TracingReport": (
        dict(
            trials=3,
            t=2,
            strategy=trace.PirateStrategy("first"),
            seed=1,
            ta=trace.MethodStats(1.0, 1.0, 1.0),
            ipp=trace.MethodStats(0.5, 1.0, 2.0),
            elapsed=0.25,
        ),
        ("trials", 4),
    ),
    "Verdict": (
        dict(
            property="FP",
            t=2,
            holds=False,
            witness=verify.FramedWord(0, (1, 2)),
            counters=verify.Counters(3, 4),
        ),
        ("t", 3),
    ),
}


def build(name, **changes):
    fields, _ = EXAMPLES[name]
    return getattr(tracecodes, name)(**{**fields, **changes})


def test_every_public_record_has_an_example():
    public = {n for n in tracecodes.__all__ if hasattr(getattr(tracecodes, n), "_fields")}
    assert public == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
class TestRecord:
    def test_fields_and_repr_in_declaration_order(self, name):
        fields, _ = EXAMPLES[name]
        rec = build(name)
        assert rec._fields == tuple(fields)
        assert rec._asdict() == fields and list(rec._asdict()) == list(fields)
        assert repr(rec) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"

    def test_equality_and_hash_by_value(self, name):
        field, other = EXAMPLES[name][1]
        rec, twin = build(name), build(name)
        assert rec is not twin and rec == twin and not rec != twin
        assert hash(rec) == hash(twin) and len({rec, twin}) == 1
        changed = build(name, **{field: other})
        assert rec != changed and not rec == changed
        assert rec._replace(**{field: other}) == changed

    def test_differs_from_other_classes_and_bare_tuples(self, name):
        rec = build(name)
        bare = tuple(rec._asdict().values())
        assert rec != bare and bare != rec and not rec == bare and not bare == rec
        for other in EXAMPLES:
            if other != name:
                assert rec != build(other) and not rec == build(other)

    def test_fields_are_read_only(self, name):
        rec = build(name)
        for field, value in EXAMPLES[name][0].items():
            with pytest.raises(AttributeError):
                setattr(rec, field, value)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        assert rec == build(name)

    def test_cli_renders_the_fields(self, name):
        rec = build(name)
        doc = _jsonable(rec)
        assert isinstance(doc, dict)
        if name == "Code":
            assert doc == {"N": 2, "n": 2, "q": 2, "words": [[0, 1], [1, 0]]}
        elif name == "SetFamily":
            assert doc == {"ground_size": 3, "n": 2, "members": [[0], [1, 2]]}
        else:
            assert list(doc) == list(EXAMPLES[name][0])
        assert _fmt(rec) == repr(rec)
        assert _fmt([rec]) == f"[{rec!r}]"


def test_framed_word_and_cover_violation_with_equal_fields_differ():
    framed, cover = verify.FramedWord(0, (1, 2)), verify.CoverViolation(0, (1, 2))
    assert framed != cover and not framed == cover
    assert framed != (0, (1, 2)) and (0, (1, 2)) != framed
    assert len({framed, cover}) == 2


def test_nested_records_render_as_objects():
    doc = _jsonable(build("Verdict"))
    assert doc == {
        "property": "FP",
        "t": 2,
        "holds": False,
        "witness": {"framed": 0, "coalition": [1, 2]},
        "counters": {"subsets_examined": 3, "words_examined": 4},
    }
    assert _jsonable(build("StripTrace"))["d_after"] == "inf"


def test_parent_set_family_reads_as_its_coalitions():
    family = build("ParentSetFamily")
    assert len(family) == 2 and list(family) == [(0,), (0, 1)]
    assert family.common_members() == (0,)
    assert not tracecodes.ParentSetFamily((0, 1), 2, ())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Code(((0, 1),), 1), "alphabet size must be an integer >= 2, got 1"),
        (lambda: Code(((0, 2),), 2), "symbol 2 out of range for q=2"),
        (lambda: Code(((0, 1), (0, 1)), 2), "duplicate words are not allowed"),
        (lambda: Code(((),), 2), "words must have length >= 1"),
        (lambda: tracecodes.SetFamily(0, (1,)), "ground set must be non-empty"),
        (lambda: tracecodes.SetFamily(2, (4,)), "member outside the ground set"),
        (lambda: search.SearchProblem("XX", 3, 2), "unknown property 'XX'"),
        (lambda: search.SearchProblem("FP", 3, 2, mode="decide"), "decide mode needs a positive goal"),
        (lambda: search.SearchProblem("FP", 3, 2, goal=4), "goal only makes sense in decide mode"),
        (lambda: search.SearchProblem("FP", 3, 2, q=1), "need q >= 2, got 1"),
        (lambda: search.SearchProblem("FP", 3, 2, mode="minimize"), "unknown mode 'minimize'"),
        (lambda: trace.PirateStrategy("bogus"), "unknown strategy 'bogus'"),
        (lambda: trace.PirateStrategy("first")._replace(kind="bogus"), "unknown strategy 'bogus'"),
        (lambda: transform.PatternPartition(((0,), (1,)), 4, 0), "expected v-1=3 parts, got 2"),
        (lambda: transform.PatternPartition(((0,), (2,)), 3, 0), "parts must partition 0..N-1"),
        (lambda: transform.PatternPartition(((0, 1), ()), 3, 0), "empty part"),
    ],
)
def test_validating_records_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_cached_values_stay_outside_the_fields(monkeypatch):
    code, twin = Code(((0, 1), (1, 0)), 2), Code(((0, 1), (1, 0)), 2)
    assert code.cols
    assert code == twin and hash(code) == hash(twin) and repr(code) == repr(twin)
    assert code._asdict() == {"words": ((0, 1), (1, 0)), "q": 2}
    # The hash is taken once and kept beside the fields, not among them.
    assert code.__dict__["_hash"] == hash((code.words, code.q))
    assert "_hash" not in twin._replace().__dict__
    assert code._asdict() == twin._replace()._asdict() and repr(code) == repr(twin._replace())
    # So a memo hit (``transform.fpc_to_cff``) reads no field to hash its key.
    reads = []
    real = Code._astuple
    monkeypatch.setattr(Code, "_astuple", lambda self: reads.append(1) or real(self))
    transform.fpc_to_cff.cache_clear()  # an equal key memoised elsewhere would be compared
    assert transform.fpc_to_cff(code) is transform.fpc_to_cff(code)
    assert reads == []
