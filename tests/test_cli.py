"""Command-line contract: file formats, exit codes, machine reports."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from conftest import random_code_stream, random_family
from tracecodes import cli, core, recheck, trace, verify
from tracecodes.cli import (
    EXIT_BAD_FILE,
    EXIT_BUDGET,
    EXIT_CLOSED_STDOUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    FileFormatError,
    main,
    parse_code_text,
    parse_family_text,
    parse_word,
    render_code_text,
    render_family_text,
)
from tracecodes.commands import bounds as bounds_cmd
from tracecodes.commands import cache as search_cache
from tracecodes.commands.common import _PROPERTIES
from tracecodes.commands.transform import _OPS, _parse_op
from tracecodes.core import Code

IDENTITY3 = "3 3 2\n1 0 0\n0 1 0\n0 0 1\n"
SQUARE = "# the length-two square minus 00\n2 3 2\n1 0\n0 1\n1 1\n"
REPS4 = "4 3 3\n0 0 0 0\n1 1 1 1\n2 2 2 2\n"
TRIANGLE_FAMILY = "2 3\n10\n01\n11\n"
STRIP9 = "9 3 2\n0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 1 1\n1 1 1 1 1 1 1 1 1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out)


def text_fields(out):
    """A text report's ``key  value`` lines, for single-word values."""
    return dict(line.rsplit(None, 1) for line in out.splitlines() if line.strip())


class TestFileFormats:
    def test_code_round_trip(self):
        for code in random_code_stream(seed=61, count=60, max_q=4):
            assert parse_code_text(render_code_text(code)) == code

    def test_family_round_trip(self):
        rng = random.Random(62)
        for _ in range(40):
            ground = rng.randint(1, 7)
            fam = random_family(rng, ground, rng.randint(1, min(5, (1 << ground) - 1)))
            assert parse_family_text(render_family_text(fam)) == fam

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n2 2 2\n0 1\n# body comment\n1 0\n\n"
        code = parse_code_text(text)
        assert code.words == ((0, 1), (1, 0))

    BAD_CODE_FILES = [
        ("", "^empty code file$"),
        ("2 2\n0 1\n1 0\n", "^code header must read 'N n q', got '2 2'$"),
        ("2 x 2\n0 1\n1 0\n", "^non-integer code header '2 x 2'$"),
        ("2 2 2\n0 1\n", "^header promises 2 codewords, file has 1$"),
        ("2 2 2\n0 1\n1 0\n1 1\n", "^header promises 2 codewords, file has 3$"),
        ("2 2 2\n0 1\n0 1\n", "^duplicate words are not allowed$"),
        ("2 2 2\n0 2\n1 0\n", "^symbol 2 out of range for q=2$"),
        ("2 2 2\n0\n1 0\n", "^expected 2 symbols per row, got 1 in '0'$"),
        ("2 2 2\n0 x\n1 0\n", "^non-integer symbol in row '0 x'$"),
        # Python's int reads all of these; the format takes ASCII digits alone.
        ("2 2 11\n1_0 0\n\u0663 1\n", "^non-integer symbol in row '1_0 0'$"),
        ("2 2 11\n1 0\n\u0663 1\n", "^non-integer symbol in row '\u0663 1'$"),
        ("2 2 11\n+3 0\n1 1\n", r"^non-integer symbol in row '\+3 0'$"),
        ("2 2 11\n-0 0\n1 1\n", "^non-integer symbol in row '-0 0'$"),
        ("2 2 1_1\n0 1\n1 0\n", "^non-integer code header '2 2 1_1'$"),
        ("2 +2 2\n0 1\n1 0\n", r"^non-integer code header '2 \+2 2'$"),
        ("\u0662 2 2\n0 1\n1 0\n", "^non-integer code header '\u0662 2 2'$"),
    ]

    @pytest.mark.parametrize("text,match", BAD_CODE_FILES, ids=[t for t, _ in BAD_CODE_FILES])
    def test_bad_code_files(self, text, match):
        with pytest.raises(FileFormatError, match=match):
            parse_code_text(text)

    BAD_FAMILY_FILES = [
        ("2 2\n10\n02\n", "^non-binary digit in row '02'$"),
        ("2 2\n10\n10\n", "^duplicate members are not allowed$"),
        ("3 1\n10\n", "^expected 3 binary digits per row, got 2 in '10'$"),
        ("", "^empty family file$"),
        ("2 2 2\n10\n01\n", "^family header must read 'N n', got '2 2 2'$"),
        ("2 x\n10\n01\n", "^non-integer family header '2 x'$"),
        ("2 +2\n10\n01\n", r"^non-integer family header '2 \+2'$"),
        ("2 0_2\n10\n01\n", "^non-integer family header '2 0_2'$"),
        ("\u0662 2\n10\n01\n", "^non-integer family header '\u0662 2'$"),
        ("2 2\n10\n", "^header promises 2 members, file has 1$"),
        ("2 2\n10\n01\n11\n", "^header promises 2 members, file has 3$"),
    ]

    @pytest.mark.parametrize(
        "text,match", BAD_FAMILY_FILES, ids=[t for t, _ in BAD_FAMILY_FILES]
    )
    def test_bad_family_files(self, text, match):
        with pytest.raises(FileFormatError, match=match):
            parse_family_text(text)

    def test_family_rows_tolerate_spaces(self):
        fam = parse_family_text("3 2\n1 0 1\n010\n")
        assert fam.members == (0b101, 0b010)

    def test_word_parsing(self):
        assert parse_word("0110", 4, 2) == (0, 1, 1, 0)
        assert parse_word("0,1,1,0", 4, 2) == (0, 1, 1, 0)
        assert parse_word("10,3", 2, 12) == (10, 3)
        with pytest.raises(ValueError):
            parse_word("012", 3, 2)  # symbol 2 outside binary
        with pytest.raises(ValueError):
            parse_word("01", 3, 2)  # wrong length

    def test_word_symbols_checked_as_code_words_are(self):
        # One rule decides whether a symbol fits the alphabet, with one message.
        code = Code(((0, 1, 0), (1, 0, 1)), 2)
        for raw, word in (("012", (0, 1, 2)), ("5,0,0", (5, 0, 0))):
            with pytest.raises(ValueError) as parsed:
                parse_word(raw, 3, 2)
            with pytest.raises(ValueError) as encoded:
                code.word_cols(word)
            message = f"symbol {max(word)} out of range for q=2"
            assert str(parsed.value) == str(encoded.value) == message


class TestVerifyCommand:
    def test_pass_and_fail(self, files, capsys):
        good = files("id3.code", IDENTITY3)
        bad = files("square.code", SQUARE)
        assert run(capsys, "verify", "--property", "fp", "--t", "2", good)[0] == EXIT_OK
        assert run(capsys, "verify", "--property", "fp", "--t", "2", bad)[0] == EXIT_VIOLATION

    def test_machine_report_shape(self, files, capsys):
        bad = files("square.code", SQUARE)
        code, doc = run_json(capsys, "verify", "--property", "fp", "--t", "2", bad)
        assert code == EXIT_VIOLATION
        assert doc["schema"] == "tracecodes/1"
        assert doc["property"] == "FP"
        assert doc["holds"] is False
        assert doc["witness"]["kind"] == "framed-word"
        assert doc["witness"]["framed"] == 2
        assert doc["witness"]["framed_word"] == [1, 1]
        assert doc["witness"]["coalition"] == [0, 1]
        assert doc["counters"] == {"subsets_examined": 9, "words_examined": 9}

    def test_holding_report_has_no_witness(self, files, capsys):
        good = files("id3.code", IDENTITY3)
        _, doc = run_json(capsys, "verify", "--property", "fp", "--t", "2", good)
        assert doc["holds"] is True
        assert doc["witness"] is None

    def test_family_property(self, files, capsys):
        fam = files("triangle.family", TRIANGLE_FAMILY)
        code, doc = run_json(capsys, "verify", "--property", "cff", "--t", "2", fam)
        assert code == EXIT_VIOLATION
        assert doc["witness"]["kind"] == "cover-violation"
        assert doc["witness"]["covered"] == 0
        assert doc["witness"]["covering"] == [2]

    def test_usage_errors(self, files, capsys):
        good = files("id3.code", IDENTITY3)
        assert run(capsys, "verify", "--property", "fp", good)[0] == EXIT_USAGE
        assert run(capsys, "verify", "--property", "fp", "--t", "0", good)[0] == EXIT_USAGE
        assert (
            run(capsys, "verify", "--property", "fp", "--t", "2", "--threads", "4", good)[0]
            == EXIT_USAGE
        )

    def test_scan_mode_flag_is_refused(self, files, capsys):
        # FP has one scan: no property takes a scan mode, and the one scan
        # frames the same word the old def1 and def3 orders did.
        bad = files("square.code", SQUARE)
        for prop in ("fp", "ipp", "ta", "cff"):
            for mode in ("def1", "def3"):
                argv = ["verify", "--property", prop, "--t", "2", "--mode", mode, bad]
                assert run(capsys, *argv)[0] == EXIT_USAGE, (prop, mode)
        code, doc = run_json(capsys, "verify", "--property", "fp", "--t", "2", bad)
        assert code == EXIT_VIOLATION
        assert doc["witness"]["framed"] == 2

    def test_traceability_past_the_recursion_limit(self, files, capsys):
        # The descendant scan goes one level per coordinate.
        N = 1500
        rows = [[0] * N, [1] * N, [0] * (N - 1) + [1]]
        text = f"{N} 3 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        code, out = run(capsys, "verify", "--property", "ta", "--t", "1", files("long.code", text))
        assert code == EXIT_OK
        assert text_fields(out)["holds"] == "yes"

    def test_descendant_set_too_large(self, files, capsys):
        # A pair of length-48 binary words spans 2^48 descendants, past the cap.
        rows = [[0] * 48, [1] * 48, [0] * 24 + [1] * 24]
        text = "48 3 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        argv = ["verify", "--property", "ta", "--t", "2", files("wide.code", text)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: instance too large ")
        assert "Traceback" not in captured.err

    def test_wide_span_without_outsiders_holds(self, files, capsys):
        # Constant words of length 33 span 2^33 descendants in pairs, past the
        # cap, yet no outsider could tie, so the code holds without a walk.
        text = "33 5 5\n" + "".join(" ".join([str(j)] * 33) + "\n" for j in range(5))
        argv = ["verify", "--property", "ta", "--t", "2", files("constant.code", text)]
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert doc["holds"] is True
        assert doc["counters"] == {"subsets_examined": 15, "words_examined": 0}

    def test_malformed_file(self, files, capsys):
        bad = files("broken.code", "2 2 2\n0 1\n")
        assert run(capsys, "verify", "--property", "fp", "--t", "2", bad)[0] == EXIT_BAD_FILE
        assert (
            run(capsys, "verify", "--property", "fp", "--t", "2", "/no/such/file")[0]
            == EXIT_BAD_FILE
        )

    @pytest.mark.parametrize(
        "text", ["2 2 11\n1_0 0\n\u0663 1\n", "2 2 11\n+3 0\n1 1\n"], ids=["1_0", "+3"]
    )
    def test_symbols_beyond_ascii_digits_are_malformed(self, capsys, tmp_path, text):
        path = tmp_path / "odd.code"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", "--property", "fp", "--t", "1", str(path)]) == EXIT_BAD_FILE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-integer symbol in row ")

    def test_non_utf8_code_file(self, capsys, tmp_path):
        bad = tmp_path / "not-utf8.code"
        bad.write_bytes(b"\xff\xfe2 2 2\n0 1\n1 0\n")
        assert main(["verify", "--property", "fp", "--t", "1", str(bad)]) == EXIT_BAD_FILE
        assert capsys.readouterr().err.startswith("error: ")

    def test_checker_is_looked_up_when_it_runs(self, files, capsys, tmp_path, monkeypatch):
        # A wrapper put on tracecodes.verify (as the benchmark's tracer does)
        # sees the checks of verify and of a cache entry's witness.
        calls = []
        original = verify.check_ipp

        def spy(subject, t):
            calls.append(t)
            return original(subject, t)

        monkeypatch.setattr(verify, "check_ipp", spy)
        reps = files("reps.code", REPS4)
        assert run(capsys, "verify", "--property", "ipp", "--t", "2", reps)[0] == EXIT_OK
        assert calls == [2]
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path / "cache"))
        args = ("search", "--property", "ipp", "--N", "2", "--q", "3", "--t", "2")
        assert run(capsys, *args)[0] == EXIT_OK
        calls.clear()
        assert text_fields(run(capsys, *args)[1])["cached"] == "yes"
        assert calls == [2]  # _cached_payload rechecked the entry's witness


class TestTraceCommand:
    def test_distance_scheme(self, files, capsys):
        reps = files("reps.code", REPS4)
        code, doc = run_json(capsys, "trace", "--scheme", "ta", "--pirate", "0011", reps)
        assert code == EXIT_OK
        assert doc["accused"] == [0, 1]
        assert doc["min_distance"] == 2
        assert doc["status"] == "ok"

    def test_comma_pirate(self, files, capsys):
        reps = files("reps.code", REPS4)
        code, doc = run_json(capsys, "trace", "--scheme", "ta", "--pirate", "2,2,2,2", reps)
        assert doc["accused"] == [2]

    def test_parent_scheme_needs_t(self, files, capsys):
        reps = files("reps.code", REPS4)
        assert run(capsys, "trace", "--scheme", "ipp", "--pirate", "0011", reps)[0] == EXIT_USAGE
        # ... and only the parent-set scheme takes it.
        argv = ["trace", "--scheme", "ta", "--t", "5", "--pirate", "0011", reps]
        assert run(capsys, *argv)[0] == EXIT_USAGE

    def test_untraceable_pirate_exits_one(self, files, capsys):
        code_file = files("three.code", "2 3 2\n0 0\n1 1\n0 1\n")
        code, doc = run_json(
            capsys, "trace", "--scheme", "ipp", "--t", "2", "--pirate", "01", code_file
        )
        assert code == EXIT_VIOLATION
        assert doc["status"] == "empty-intersection"
        assert doc["accused"] == []

    def test_bad_pirate_word(self, files, capsys):
        reps = files("reps.code", REPS4)
        assert run(capsys, "trace", "--scheme", "ta", "--pirate", "001", reps)[0] == EXIT_USAGE
        pair = files("pair.code", "2 2 2\n0 0\n1 1\n")
        assert main(["trace", "--scheme", "ta", "--pirate", "0x", pair]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: cannot parse word '0x'\n")
        # Past q=10 a digit run is ambiguous, so only the comma form is read.
        wide = files("wide.code", "2 2 12\n0 11\n1 10\n")
        assert main(["trace", "--scheme", "ta", "--pirate", "011", wide]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: alphabet 12 needs the comma-separated word form\n"
        )
        code, doc = run_json(capsys, "trace", "--scheme", "ta", "--pirate", "0,11", wide)
        assert (code, doc["accused"]) == (EXIT_OK, [0])

    @pytest.mark.parametrize("pirate", ["1_0,0", "+1,0", "0,-0", "\u0661,0", "0\u0661"])
    def test_pirate_symbols_are_ascii_digits(self, files, capsys, pirate):
        wide = files("wide.code", "2 2 11\n10 0\n1 1\n")
        pair = files("pair.code", "2 2 2\n0 0\n1 1\n")
        subject = wide if "," in pirate else pair
        assert main(["trace", "--scheme", "ta", "--pirate", pirate, subject]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: cannot parse word {pirate!r}\n")


class TestBoundsCommand:
    def test_text_table(self, capsys):
        code, out = run(capsys, "bounds", "--N", "4", "--q", "3", "--t", "2")
        assert code == EXIT_OK
        assert "16" in out and "15" in out

    def test_machine_entries(self, capsys):
        _, doc = run_json(capsys, "bounds", "--N", "4", "--q", "3", "--t", "2")
        values = {e["source"]: e["value"] for e in doc["bounds"]}
        assert values["fp-split"] == 16
        assert values["ipp-balanced-parts"] == 15
        assert values["ipp-uniform-parts"] == 27

    def test_symbolic_entry_and_status_block(self, capsys):
        _, doc = run_json(capsys, "bounds", "--N", "9", "--q", "2", "--t", "3")
        ta = [e for e in doc["bounds"] if e["source"] == "ta3-ninth"][0]
        assert ta["value"] is None
        assert ta["coefficient"] == 9 * 2**27
        assert ta["exponent"] == 1
        status = doc["binary_fp_status"]
        assert status["guaranteed"] is True
        assert status["conjectured"] == 9

    def test_evaluate_flag(self, capsys):
        _, doc = run_json(capsys, "bounds", "--N", "9", "--q", "2", "--t", "3", "--evaluate")
        assert all(e["value"] is not None for e in doc["bounds"])

    def test_bounds_of_any_size(self, capsys):
        # Each integer is longer than Python's default 4300-digit limit on
        # int-to-str conversion, which the report must not be held to.
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else None
        cases = [
            (("--N", "20000", "--q", "2", "--t", "1"), "fp-split", "value", 2**20000),
            (("--N", "9000", "--q", "2", "--t", "3"), "ta3-ninth", "coefficient", 9000 * 2**27000),
            # The estimate is written into the entry's note.
            (
                ("--N", "20000", "--q", "2", "--t", "2"),
                "ta2-quarter",
                "note",
                20000 * comb(20000, 5000),
            ),
        ]
        for argv, source, field, want in cases:
            code, text = run(capsys, "bounds", *argv)
            assert code == EXIT_OK
            code, machine = run(capsys, "bounds", *argv, "--format", "machine")
            assert code == EXIT_OK
            if get_limit is None:
                continue
            assert get_limit() == limit  # lifted only while rendering
            sys.set_int_max_str_digits(0)
            try:
                entry = next(e for e in json.loads(machine)["bounds"] if e["source"] == source)
                if field == "note":
                    assert entry[field].endswith(f"lower estimate on it: {want}")
                else:
                    assert entry[field] == want
                assert str(want) in text
            finally:
                sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, value",
    [
        (("transform", "--op", "pad=1_0", "pair.code"), "1_0"),
        (("transform", "--op", "compose=\u0663", "pair.code"), "\u0663"),
        (("bounds", "--N", "1_0", "--q", "2", "--t", "2"), "1_0"),
        (("bounds", "--N", "10", "--q", "2", "--t", "\u0662"), "\u0662"),
        (("simulate", "--t", "2", "--trials", "3", "--seed", "+5", "pair.code"), "+5"),
    ],
    ids=["pad", "compose", "N", "t", "seed"],
)
def test_integer_values_are_ascii_digits(files, capsys, argv, value):
    # As in the file formats and --pirate: no sign but "-", no "_", no other digits.
    pair = files("pair.code", "2 2 2\n0 0\n1 1\n")
    assert main([pair if a == "pair.code" else a for a in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and repr(value) in err


class TestTransformCommand:
    def test_double_then_tocode(self, files, capsys, tmp_path):
        code_file = files("id3.code", IDENTITY3)
        code, out = run(capsys, "transform", "--op", "double", code_file)
        assert code == EXIT_OK
        family_text = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        fam_file = tmp_path / "doubled.family"
        fam_file.write_text(family_text + "\n")
        code, out2 = run(capsys, "transform", "--op", "tocode", str(fam_file))
        assert code == EXIT_OK
        back = parse_code_text("\n".join(l for l in out2.splitlines() if not l.startswith("#")) + "\n")
        assert back.length == 6
        assert back.size == 3

    def test_restrict(self, files, capsys):
        fam = files("singles.family", "3 3\n100\n010\n001\n")
        code, doc = run_json(capsys, "transform", "--op", "restrict=0", fam)
        assert code == EXIT_OK
        assert doc["restriction"]["clean"] is True
        assert doc["restriction"]["ground_size"] == 2
        assert doc["restriction"]["members"] == [[0], [1]]

    @pytest.mark.parametrize("text,ground", [("3 1\n110\n", 1), ("2 1\n11\n", 0)])
    def test_restrict_leaving_no_member(self, files, capsys, text, ground):
        fam = files("one.family", text)
        code, out = run(capsys, "transform", "--op", "restrict=0", fam)
        assert code == EXIT_OK
        assert out == (
            f"# removed member 0; ground set now {ground} elements\n"
            "# not a valid family: no member is left\n"
        )
        code, doc = run_json(capsys, "transform", "--op", "restrict=0", fam)
        assert code == EXIT_OK
        assert doc["restriction"] == {
            "ground_size": ground,
            "members": [],
            "removed_member": 0,
            "empty_indices": [],
            "duplicate_indices": [],
            "clean": False,
        }

    def test_pad_and_compose(self, files, capsys):
        code_file = files("pair.code", "2 2 2\n0 0\n1 1\n")
        code, doc = run_json(capsys, "transform", "--op", "pad=2", code_file)
        assert doc["code"]["N"] == 4
        assert doc["code"]["words"] == [[0, 0, 0, 0], [1, 1, 0, 0]]
        code, doc = run_json(capsys, "transform", "--op", "compose=2", code_file)
        assert doc["code"]["q"] == 4
        assert doc["code"]["words"] == [[0], [3]]

    def test_prune_cascade(self, files, capsys):
        code_file = files("tri.code", "3 3 2\n0 0 0\n0 0 1\n0 1 0\n")
        code, doc = run_json(capsys, "transform", "--op", "prune", "--t", "2", code_file)
        assert code == EXIT_OK
        assert doc["prune"]["survivors"] == []
        assert [s["removed"] for s in doc["prune"]["steps"]] == [1, 0, 2]
        assert doc["prune"]["code"] is None

    def test_violation_certificate(self, files, capsys):
        rows = "\n".join(f"{a} {b} {c}" for a in (0, 1) for b in (0, 1) for c in (0, 1))
        code_file = files("cube.code", f"3 8 2\n{rows}\n")
        code, doc = run_json(capsys, "transform", "--op", "violate", "--t", "2", code_file)
        assert code == EXIT_OK
        cert = doc["certificate"]
        assert cert["chain"] == [0, 1]
        assert cert["descendant"] == [0, 0, 1]
        assert cert["coalitions"] == [[0, 1], [1], [0, 3]]

    def test_violate_on_fully_pruned_code(self, files, capsys):
        code_file = files("tri.code", "3 3 2\n0 0 0\n0 0 1\n0 1 0\n")
        code, doc = run_json(capsys, "transform", "--op", "violate", "--t", "2", code_file)
        assert code == EXIT_OK
        assert doc["certificate"] is None
        assert "pruned" in doc["reason"]

    def test_strip(self, files, capsys):
        code_file = files("strip.code", STRIP9)
        code, doc = run_json(capsys, "transform", "--op", "strip", "--t", "1", code_file)
        assert code == EXIT_OK
        assert doc["strip"]["case"] == "B"
        assert sorted(doc["strip"]["removed"]) == [0, 2]
        assert doc["strip"]["d_after"] == "inf"
        assert doc["strip"]["diagnostics"] is None
        # Not 3-traceable: the distance-1 pair (0, 1) survives and is reported.
        pair_file = files("pair.code", "9 4 2\n" + "".join(
            " ".join(w) + "\n" for w in ("000000000", "000000001", "111111110", "111111111")
        ))
        code, doc = run_json(capsys, "transform", "--op", "strip", "--t", "1", pair_file)
        assert code == EXIT_OK
        assert doc["strip"]["removed"] == []
        assert doc["strip"]["diagnostics"] == {"pair": [0, 1]}

    def test_op_validation(self, files, capsys):
        code_file = files("pair.code", "2 2 2\n0 0\n1 1\n")
        assert run(capsys, "transform", "--op", "pad", code_file)[0] == EXIT_USAGE
        assert run(capsys, "transform", "--op", "pad=x", code_file)[0] == EXIT_USAGE
        assert run(capsys, "transform", "--op", "double=3", code_file)[0] == EXIT_USAGE
        assert run(capsys, "transform", "--op", "prune", code_file)[0] == EXIT_USAGE
        assert run(capsys, "transform", "--op", "shrink", code_file)[0] == EXIT_USAGE
        fam_file = files("singles.family", "3 3\n100\n010\n001\n")
        for op, subject in (
            ("double", code_file),
            ("tocode", fam_file),
            ("restrict=0", fam_file),
            ("pad=1", code_file),
            ("compose=2", code_file),
        ):
            argv = ["transform", "--op", op, "--t", "7", subject]
            assert run(capsys, *argv)[0] == EXIT_USAGE, op


    def test_strip_that_removes_every_codeword(self, files, capsys):
        # d = 4 (case C): no pattern can show more than three times, far
        # below the threshold of 1,792, so all three words go.
        rows = ("000000000", "111100000", "000011110")
        code_file = files("strip.code", "9 3 2\n" + "".join(" ".join(w) + "\n" for w in rows))
        code, out = run(capsys, "transform", "--op", "strip", "--t", "1", code_file)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "# case C: distance 4 -> inf",
            "# removed rows [0, 1, 2]",
            "# every codeword was removed",
        ]
        _, doc = run_json(capsys, "transform", "--op", "strip", "--t", "1", code_file)
        assert (doc["strip"]["survivors"], doc["strip"]["code"]) == ([], None)

    @pytest.mark.parametrize("op", ["pad", "compose", "restrict"])
    def test_value_beyond_the_index_range_names_the_op(self, files, capsys, op):
        subject = files("pair.code", "2 2 2\n0 0\n1 1\n")
        if op == "restrict":
            subject = files("singles.family", "3 3\n100\n010\n001\n")
        huge = sys.maxsize + 1
        assert main(["transform", "--op", f"{op}={huge}", subject]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: op {op} value {huge} exceeds the largest index {sys.maxsize}\n"
        # The largest index itself is left to the op to judge.
        assert main(["transform", "--op", f"{op}={sys.maxsize}", subject]) == EXIT_USAGE
        assert "exceeds the largest index" not in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["4611686018427387904", "100000000000000000000"])
    def test_huge_padding_is_a_usage_error(self, files, capsys, r):
        # Both fail in the allocator before anything is allocated.
        code_file = files("pair.code", "2 2 2\n0 0\n1 1\n")
        assert main(["transform", "--op", f"pad={r}", code_file]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSearchCommand:
    def test_maximize(self, capsys):
        code, doc = run_json(
            capsys, "search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2"
        )
        assert code == EXIT_OK
        assert doc["optimum"] == 4
        assert doc["complete"] is True
        assert doc["witness"]["n"] == 4

    def test_decide_exceeds(self, capsys):
        code, doc = run_json(
            capsys,
            "search", "--property", "fp", "--N", "4", "--q", "2", "--t", "3",
            "--decide-exceeds-N",
        )
        assert code == EXIT_OK
        assert doc["decided"] is False
        assert doc["goal"] == 5

    def test_budget_exhaustion_exits_four(self, capsys):
        code, doc = run_json(
            capsys,
            "search", "--property", "fp", "--N", "5", "--q", "2", "--t", "3",
            "--decide-exceeds-N", "--budget", "100",
        )
        assert code == EXIT_BUDGET
        assert doc["decided"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ("fp", "--N", "3", "--t", "2", "--budget", "-1"),
            ("cff", "--t", "2", "--min-length", "--start-length", "5", "--max-length", "3"),
            ("fp", "--t", "2", "--min-length", "--q", "3", "--start-length", "2"),
            ("fp", "--t", "2", "--min-length", "--N", "4"),
            ("fp", "--t", "2", "--min-length", "--goal", "5"),
            ("cff", "--t", "1", "--min-length", "--decide-exceeds-N"),
            ("fp", "--N", "3", "--t", "2", "--start-length", "4", "--max-length", "5"),
            ("fp", "--N", "3", "--t", "2", "--start-length", "2"),
            ("cff", "--N", "3", "--t", "1", "--max-length", "16"),
            ("fp", "--t", "2"),
        ],
        ids=[
            "negative-budget",
            "inverted-length-range",
            "min-length-ternary",
            "min-length-with-N",
            "min-length-with-goal",
            "min-length-with-decide",
            "range-without-min-length",
            "range-without-min-length-start",
            "range-without-min-length-max",
            "no-N",
        ],
    )
    def test_bad_search_ranges(self, capsys, argv):
        assert main(["search", "--property", *argv]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_alphabet_beyond_a_code_is_refused_before_searching(self, capsys, monkeypatch):
        from tracecodes import search

        def searched(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(search, "SearchResult", searched)
        argv = ["search", "--property", "fp", "--N", "1", "--t", "3", "--q", "100000"]
        assert main([*argv, "--budget", "300"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need q <= 65536 to hold the witness, got 100000\n"

    def test_goal_and_decide_exceeds_exclude_each_other(self, capsys):
        argv = ["search", "--property", "fp", "--N", "4", "--t", "2", "--goal", "3"]
        assert main([*argv, "--decide-exceeds-N"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --decide-exceeds-N: not allowed with argument --goal" in err

    def test_min_length_scan(self, capsys):
        code, doc = run_json(
            capsys, "search", "--property", "cff", "--t", "1", "--min-length"
        )
        assert code == EXIT_OK
        scan = doc["min_length"]
        assert scan["value"] == 4
        assert scan["complete"] is True
        assert [p["N"] for p in scan["probes"]] == [1, 2, 3, 4]
        assert [p["decided"] for p in scan["probes"]] == [False, False, False, True]

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path))
        args = ("search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2")
        code, first = run_json(capsys, *args)
        assert code == EXIT_OK
        assert first["cached"] is False
        assert len(list(tmp_path.iterdir())) == 1
        code, second = run_json(capsys, *args)
        assert code == EXIT_OK
        assert second["cached"] is True
        assert second["optimum"] == first["optimum"]
        assert second["nodes"] == first["nodes"]

    def test_entry_of_the_version_before_is_not_served(self, capsys, tmp_path, monkeypatch):
        # Version 0.2.0 searched by lazy forward checking, so its counts differ:
        # 24 tests here, where this version's plain forward checking takes 26.
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path))
        args = ("search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2")
        with monkeypatch.context() as before:
            before.setattr(search_cache, "__version__", "0.2.0")
            assert run(capsys, *args)[0] == EXIT_OK
            (entry,) = tmp_path.iterdir()
            doc = json.loads(entry.read_text())
            entry.write_text(json.dumps({**doc, "nodes": 24}))
            # Well-formed: that version serves it.
            fields = text_fields(run(capsys, *args)[1])
            assert (fields["cached"], fields["nodes"]) == ("yes", "24")
        assert search_cache.__version__ == "0.3.0"
        code, out = run(capsys, *args)
        assert code == EXIT_OK
        fields = text_fields(out)
        assert (fields["cached"], fields["nodes"]) == ("no", "26")
        assert len(list(tmp_path.iterdir())) == 2

    def test_unwritable_cache_entry_warns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path))
        args = ("search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2")
        assert run(capsys, *args)[0] == EXIT_OK
        (entry,) = tmp_path.iterdir()
        entry.unlink()
        entry.mkdir()  # os.replace cannot put a file there
        code = main(list(args))
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert text_fields(out)["optimum"] == "4"
        assert text_fields(out)["cached"] == "no"
        assert err.startswith("warning: search cache entry not written:")
        assert list(tmp_path.iterdir()) == [entry]  # no temp file left behind

    def test_cache_path_that_is_a_file(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("TRACECODES_CACHE", str(blocker))
        code = main(["search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: TRACECODES_CACHE=")

    @pytest.mark.parametrize(
        "extra, tamper",
        [
            pytest.param((), {"optimum": 99}, id="optimum-99"),
            pytest.param((), "truncated", id="truncated"),
            pytest.param((), "nested", id="nested"),
            # Entries that contradict themselves: max_code_search writes none.
            pytest.param((), {"decided": True}, id="maximize-decided"),
            pytest.param((), {"decided": False}, id="maximize-decided-no"),
            pytest.param((), {"complete": False}, id="stop-without-budget"),
            pytest.param((), {"witness": None}, id="maximize-no-witness"),
            pytest.param(("--goal", "4"), {"decided": False}, id="no-beside-witness"),
            pytest.param(("--goal", "4"), {"decided": None}, id="undecided-without-budget"),
            pytest.param(
                ("--goal", "4"), {"decided": None, "witness": None}, id="undecided-bare"
            ),
            pytest.param(("--goal", "4"), {"witness": None}, id="yes-without-witness"),
            pytest.param(("--goal", "5"), {"decided": True}, id="yes-below-goal"),
            pytest.param(("--goal", "5"), {"decided": None}, id="complete-undecided"),
            pytest.param(
                ("--goal", "4", "--budget", "1000"), {"nodes": 1001}, id="complete-past-budget"
            ),
            pytest.param(("--goal", "4", "--budget", "2"), {"nodes": 2}, id="stop-inside-budget"),
            pytest.param(("--goal", "4", "--budget", "2"), {"complete": True}, id="stop-complete"),
            pytest.param(("--goal", "4", "--budget", "2"), {"decided": False}, id="stop-decided"),
            # Entries of the wrong shape, or whose witness is not the problem's.
            pytest.param(
                (), lambda e: {k: v for k, v in e.items() if k != "elapsed"}, id="missing-key"
            ),
            pytest.param((), {"frontier": None}, id="extra-key"),
            pytest.param((), {"nodes": "5"}, id="nodes-as-string"),
            pytest.param(
                (),
                lambda e: {**e, "witness": {**e["witness"], "type": "family"}},
                id="witness-type",
            ),
            pytest.param(
                (), lambda e: {**e, "witness": {**e["witness"], "q": 3}}, id="witness-alphabet"
            ),
            pytest.param(
                ("--property", "cff", "--t", "1"),
                lambda e: {**e, "witness": {**e["witness"], "ground_size": 4}},
                id="witness-ground-set",
            ),
            pytest.param(
                ("--property", "cff", "--t", "1"),
                lambda e: {**e, "witness": {**e["witness"], "members": [[0, 1], [0, 2], [1, 3]]}},
                id="witness-element-range",
            ),
        ],
    )
    def test_bad_cache_entry_is_recomputed(self, capsys, tmp_path, monkeypatch, extra, tamper):
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path))
        args = ("search", "--property", "fp", "--N", "3", "--q", "2", "--t", "2", *extra)
        status, out = run(capsys, *args)
        want = {**text_fields(out), "cached": "no"}
        (entry,) = tmp_path.iterdir()
        if tamper == "truncated":
            entry.write_text("{")
        elif tamper == "nested":
            entry.write_text("[" * 200_000)
        elif callable(tamper):
            entry.write_text(json.dumps(tamper(json.loads(entry.read_text()))))
        else:
            entry.write_text(json.dumps({**json.loads(entry.read_text()), **tamper}))
        code, out = run(capsys, *args)
        assert code == status
        assert text_fields(out) == want
        # The entry was rewritten and is served again.
        assert text_fields(run(capsys, *args)[1]) == {**want, "cached": "yes"}

    def test_cached_budget_exit_is_preserved(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACECODES_CACHE", str(tmp_path))
        args = (
            "search", "--property", "fp", "--N", "5", "--q", "2", "--t", "3",
            "--decide-exceeds-N", "--budget", "100",
        )
        assert run_json(capsys, *args)[0] == EXIT_BUDGET
        assert run_json(capsys, *args)[0] == EXIT_BUDGET


class TestSimulateCommand:
    def test_deterministic_report(self, files, capsys):
        reps = files("reps.code", REPS4)
        args = ("simulate", "--t", "2", "--trials", "60", reps)
        code, doc = run_json(capsys, *args)
        assert code == EXIT_OK
        assert doc["trials"] == 60
        assert doc["seed"] == 0xC0DE
        assert doc["ta"]["subset_rate"] == 1.0
        _, again = run_json(capsys, *args)
        assert again["ta"] == doc["ta"] and again["ipp"] == doc["ipp"]

    def test_strategy_and_seed_flags(self, files, capsys):
        reps = files("reps.code", REPS4)
        code, doc = run_json(
            capsys,
            "simulate", "--t", "2", "--trials", "10",
            "--strategy", "majority", "--seed", "7", reps,
        )
        assert doc["strategy"] == "majority"
        assert doc["seed"] == 7

    def test_unknown_strategy_is_a_usage_error(self, files, capsys):
        reps = files("reps.code", REPS4)
        code = main(["simulate", "--t", "2", "--trials", "1", "--strategy", "bogus", reps])
        assert code == EXIT_USAGE
        usage = capsys.readouterr().err.split("error:")[0]
        assert "[--strategy {first,interleave,majority,minority,random}]" in usage
        assert trace.STRATEGY_KINDS is core.STRATEGY_KINDS


# Per property: the subject file and a witness ``recheck`` confirms on it at t=2.
VALID_WITNESSES = {
    "fp": (SQUARE, {"kind": "framed-word", "framed": 2, "coalition": [0, 1]}),
    "cff": (TRIANGLE_FAMILY, {"kind": "cover-violation", "covered": 2, "covering": [0, 1]}),
    "ipp": (
        "2 3 2\n0 0\n1 1\n0 1\n",
        {"kind": "ipp-violation", "word": [0, 1], "coalitions": [[2], [0, 1]]},
    ),
    "ta": (
        SQUARE,
        {
            "kind": "ta-violation", "coalition": [0, 1], "pirate": [1, 1],
            "outsider": 2, "insider_distance": 1, "outsider_distance": 0,
        },
    ),
}

# One tampering per refutation: (property, t, changed fields, the one problem line).
REFUTATIONS = [
    ("fp", 2, {"framed": 3}, "framed index 3 out of range"),
    ("fp", 2, {"coalition": 1}, "coalition is not a list"),
    ("fp", 2, {"coalition": [0, 5]}, "coalition index 5 out of range"),
    ("fp", 2, {"coalition": [0, 0]}, "coalition repeats indices"),
    ("fp", 2, {"coalition": [0, 2]}, "framed word sits inside the coalition"),
    ("fp", 2, {"coalition": []}, "coalition size 0 outside 1..2"),
    ("fp", 1, {}, "coalition size 2 outside 1..1"),
    ("fp", 2, {"coalition": [0]}, "coalition cannot produce the framed word"),
    ("cff", 2, {"covered": 3}, "covered index 3 out of range"),
    ("cff", 2, {"covering": {}}, "covering is not a list"),
    ("cff", 2, {"covering": [0, 4]}, "covering index 4 out of range"),
    ("cff", 2, {"covering": [0, 0]}, "covering repeats indices"),
    ("cff", 2, {"covering": [1, 2]}, "covered member listed among the covering members"),
    ("cff", 1, {}, "covering uses 2 members, cap is 1"),
    ("cff", 2, {"covering": [0]}, "union does not contain the covered member"),
    ("ipp", 2, {"word": [0]}, "witness word has the wrong length"),
    ("ipp", 2, {"word": [0, 2]}, "witness word symbol 2 out of range"),
    ("ipp", 2, {"coalitions": [[2]]}, "need at least two coalitions"),
    ("ipp", 2, {"coalitions": [[2], 1]}, "coalition 1 is not a list"),
    ("ipp", 2, {"coalitions": [[2], [0, 5]]}, "coalition 1 index 5 out of range"),
    ("ipp", 2, {"coalitions": [[2], [0, 0]]}, "coalition 1 repeats indices"),
    ("ipp", 1, {}, "coalition 1 size 2 outside 1..1"),
    ("ipp", 2, {"coalitions": [[2], [0]]}, "coalition 1 cannot produce the word"),
    ("ipp", 2, {"coalitions": [[2], [1, 2]]}, "coalitions share members [2]"),
    ("ta", 2, {"coalition": "01"}, "coalition is not a list"),
    ("ta", 2, {"coalition": [0, 3]}, "coalition index 3 out of range"),
    ("ta", 2, {"coalition": [0, 0]}, "coalition repeats indices"),
    ("ta", 2, {"coalition": []}, "coalition size 0 outside 1..2"),
    ("ta", 2, {"pirate": [1]}, "pirate word has the wrong length"),
    ("ta", 2, {"pirate": [1, 2]}, "pirate word symbol 2 out of range"),
    ("ta", 2, {"outsider": 3}, "outsider index 3 out of range"),
    ("ta", 2, {"outsider": 0}, "outsider sits inside the coalition"),
    ("ta", 2, {"coalition": [0]}, "coalition cannot produce the pirate word"),
    ("ta", 2, {"insider_distance": 2}, "insider distance recomputes to 1"),
    ("ta", 2, {"outsider_distance": 1}, "outsider distance recomputes to 0"),
    (
        "ta", 2, {"pirate": [1, 0], "insider_distance": 0, "outsider_distance": 1},
        "every insider is strictly closer; no violation",
    ),
]


class TestRecheckCommand:
    @pytest.mark.parametrize("prop", sorted(VALID_WITNESSES))
    def test_valid_witness_is_confirmed(self, files, capsys, tmp_path, prop):
        subject, witness = VALID_WITNESSES[prop]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness))
        argv = ["recheck", "--property", prop, "--t", "2", "--witness", str(path)]
        code, doc = run_json(capsys, *argv, files("subject", subject))
        assert (code, doc["problems"]) == (EXIT_OK, [])

    @pytest.mark.parametrize(
        "prop, t, tamper, problem", REFUTATIONS, ids=[f"{r[0]}: {r[3]}" for r in REFUTATIONS]
    )
    def test_each_refutation(self, files, capsys, tmp_path, prop, t, tamper, problem):
        subject, witness = VALID_WITNESSES[prop]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({**witness, **tamper}))
        argv = ["recheck", "--property", prop, "--t", str(t), "--witness", str(path)]
        code, doc = run_json(capsys, *argv, files("subject", subject))
        assert code == EXIT_VIOLATION
        assert doc["problems"] == [problem]

    def test_kinds_are_the_witnesses_of_the_properties(self):
        # recheck states the kinds it reads without the --property table: they agree.
        assert recheck.KINDS == {p.witness for p in _PROPERTIES.values()}

    def test_library_guards(self):
        # The CLI matches kinds to properties and refuses unknown kinds first.
        code = parse_code_text(SQUARE)
        family = parse_family_text(TRIANGLE_FAMILY)
        framed = VALID_WITNESSES["fp"][1]
        cover = VALID_WITNESSES["cff"][1]
        assert cli.recheck_witness(framed, family, 2) == ["framed-word witnesses apply to codes"]
        assert cli.recheck_witness(cover, code, 2) == [
            "cover-violation witnesses apply to families"
        ]
        assert cli.recheck_witness({"kind": "bogus"}, code, 2) == ["unknown witness kind 'bogus'"]
        assert cli.recheck_witness({"kind": ["x"]}, code, 2) == ["unknown witness kind ['x']"]

    def emit_witness(self, capsys, tmp_path, *argv):
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_VIOLATION
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_framed_word_round_trip(self, files, capsys, tmp_path):
        bad = files("square.code", SQUARE)
        w = self.emit_witness(capsys, tmp_path, "verify", "--property", "fp", "--t", "2", bad)
        code, doc = run_json(
            capsys, "recheck", "--property", "fp", "--t", "2", "--witness", w, bad
        )
        assert code == EXIT_OK
        assert doc["confirmed"] is True

    def test_cover_violation_round_trip(self, files, capsys, tmp_path):
        fam = files("triangle.family", TRIANGLE_FAMILY)
        w = self.emit_witness(capsys, tmp_path, "verify", "--property", "cff", "--t", "2", fam)
        code, doc = run_json(
            capsys, "recheck", "--property", "cff", "--t", "2", "--witness", w, fam
        )
        assert code == EXIT_OK and doc["confirmed"] is True

    def test_ipp_and_ta_round_trips(self, files, capsys, tmp_path):
        three = files("three.code", "2 3 2\n0 0\n1 1\n0 1\n")
        w = self.emit_witness(capsys, tmp_path, "verify", "--property", "ipp", "--t", "2", three)
        assert (
            run_json(capsys, "recheck", "--property", "ipp", "--t", "2", "--witness", w, three)[0]
            == EXIT_OK
        )
        bad = files("square.code", SQUARE)
        w = self.emit_witness(capsys, tmp_path, "verify", "--property", "ta", "--t", "2", bad)
        assert (
            run_json(capsys, "recheck", "--property", "ta", "--t", "2", "--witness", w, bad)[0]
            == EXIT_OK
        )

    def test_tampered_witness_fails(self, files, capsys, tmp_path):
        bad = files("square.code", SQUARE)
        code, doc = run_json(capsys, "verify", "--property", "fp", "--t", "2", bad)
        doc["witness"]["framed"] = 0  # point the finger elsewhere
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, doc = run_json(
            capsys, "recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad
        )
        assert code == EXIT_VIOLATION
        assert doc["confirmed"] is False
        assert doc["problems"]

    def test_boolean_is_not_an_index(self, files, capsys, tmp_path):
        # Each witness would hold with ``true``/``false`` read as 1/0.
        square = files("square.code", SQUARE)
        middle = files("middle.code", "2 3 2\n1 0\n1 1\n0 1\n")  # SQUARE with 11 second
        three = files("three.code", "2 3 2\n0 0\n1 1\n0 1\n")
        fam = files("triangle.family", TRIANGLE_FAMILY)
        ta_bools = {
            "kind": "ta-violation", "coalition": [0, 2], "pirate": [True, 1],
            "outsider": 1, "insider_distance": True, "outsider_distance": False,
        }
        cases = [
            ("ta", middle, ta_bools),
            ("ta", middle, {**ta_bools, "pirate": [1, 1]}),
            (
                "ipp", three,
                {"kind": "ipp-violation", "word": [False, True], "coalitions": [[2], [0, 1]]},
            ),
            ("fp", square, {"kind": "framed-word", "framed": 2, "coalition": [True, 0]}),
            ("fp", middle, {"kind": "framed-word", "framed": True, "coalition": [0, 2]}),
            ("cff", fam, {"kind": "cover-violation", "covered": True, "covering": [2]}),
            (
                "ta", middle,
                {"kind": "ta-violation", "coalition": [0, 2], "pirate": [1, 1],
                 "outsider": True, "insider_distance": 1, "outsider_distance": 0},
            ),
        ]
        for prop, subject, witness in cases:
            path = tmp_path / "bool.json"
            path.write_text(json.dumps(witness))
            code, doc = run_json(
                capsys, "recheck", "--property", prop, "--t", "2", "--witness", str(path), subject
            )
            assert code == EXIT_VIOLATION, witness
            assert doc["confirmed"] is False

    def test_witness_of_another_property_is_refuted(self, files, capsys, tmp_path):
        # A 2-frameproof code that is not 2-IPP (so not 2-TA either). Its IPP
        # witness shows no FP failure, and TA fails with a witness of its own
        # kind: only the IPP recheck may confirm it.
        fpc = files("fpc.code", "2 4 3\n0 0\n0 1\n1 2\n2 2\n")
        assert run(capsys, "verify", "--property", "fp", "--t", "2", fpc)[0] == EXIT_OK
        w = self.emit_witness(capsys, tmp_path, "verify", "--property", "ipp", "--t", "2", fpc)
        witness = json.loads(Path(w).read_text())["witness"]
        assert (witness["word"], witness["coalitions"]) == ([0, 2], [[0, 2], [1, 3]])
        argv = ["recheck", "--t", "2", "--witness", w, fpc]
        assert run_json(capsys, *argv, "--property", "ipp")[0] == EXIT_OK
        for prop, kind in (("fp", "framed-word"), ("ta", "ta-violation")):
            code, doc = run_json(capsys, *argv, "--property", prop)
            assert code == EXIT_VIOLATION
            assert doc["confirmed"] is False
            assert doc["problems"] == [f"{prop.upper()} witnesses are {kind}, not ipp-violation"]
            code, out = run(capsys, *argv, "--property", prop)
            assert code == EXIT_VIOLATION
            assert text_fields(out)["confirmed"] == "no"

    @pytest.mark.parametrize(
        "witness",
        [
            {"framed": 2, "coalition": [0, 1]},
            {"kind": "framed"},
            {"kind": None},
            {"kind": 3},
            {"kind": ["framed-word"], "framed": 2, "coalition": [0, 1]},
            {"kind": {"a": 1}},
        ],
        ids=["missing", "unknown", "null", "number", "list", "object"],
    )
    def test_witness_without_a_known_kind_is_a_bad_file(self, files, capsys, tmp_path, witness):
        bad = files("square.code", SQUARE)
        path = tmp_path / "kindless.json"
        path.write_text(json.dumps(witness))
        argv = ["recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad]
        assert main(argv) == EXIT_BAD_FILE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unknown witness kind {witness.get('kind')!r}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000,
            '{"kind": "framed-word", "framed": 1' + "0" * 5000 + ', "coalition": [0]}',
        ],
        ids=["nested", "5001-digits"],
    )
    def test_witness_python_cannot_hold_is_a_bad_file(self, files, capsys, tmp_path, text):
        path = tmp_path / "witness.json"
        path.write_text(text)
        bad = files("square.code", SQUARE)
        argv = ["recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad]
        assert main(argv) == EXIT_BAD_FILE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path} does not read as JSON: ")

    def test_witness_document_that_is_not_an_object(self, files, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([{"kind": "framed-word", "framed": 2, "coalition": [0, 1]}]))
        bad = files("square.code", SQUARE)
        argv = ["recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad]
        assert main(argv) == EXIT_BAD_FILE
        assert capsys.readouterr() == ("", "error: witness document must be a JSON object\n")

    def test_search_report_is_not_a_witness(self, files, capsys, tmp_path):
        # Its "witness" is the code found, an object without a kind.
        _, doc = run_json(capsys, "search", "--property", "fp", "--N", "2", "--t", "2")
        path = tmp_path / "search.json"
        path.write_text(json.dumps(doc))
        bad = files("square.code", SQUARE)
        argv = ["recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad]
        assert main(argv) == EXIT_BAD_FILE
        assert capsys.readouterr() == ("", "error: unknown witness kind None\n")

    def test_empty_ipp_coalition_is_refuted(self, files, capsys, tmp_path):
        three = files("three.code", "2 3 2\n0 0\n1 1\n0 1\n")
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"kind": "ipp-violation", "word": [0, 1], "coalitions": [[2], []]}))
        code, doc = run_json(
            capsys, "recheck", "--property", "ipp", "--t", "2", "--witness", str(path), three
        )
        assert code == EXIT_VIOLATION
        assert doc["problems"] == ["coalition 1 size 0 outside 1..2"]

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_strength_below_one_is_a_usage_error(self, files, capsys, tmp_path, t):
        bad = files("square.code", SQUARE)
        path = tmp_path / "framed.json"
        path.write_text(json.dumps({"kind": "framed-word", "framed": 2, "coalition": [0, 1]}))
        argv = ["recheck", "--property", "fp", "--t", t, "--witness", str(path), bad]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: coalition bound must be >= 1, got {t}\n"

    @pytest.mark.parametrize("t", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--property", "fp"],
            ["verify", "--property", "ipp"],
            ["verify", "--property", "ta"],
            ["verify", "--property", "cff"],
            ["trace", "--scheme", "ipp", "--pirate", "11"],
        ],
        ids=["verify-fp", "verify-ipp", "verify-ta", "verify-cff", "trace-ipp"],
    )
    def test_other_commands_refuse_a_bound_below_one(self, files, capsys, argv, t):
        # The same rule and message as recheck's, above.
        subject = files("subject", TRIANGLE_FAMILY if "cff" in argv else SQUARE)
        assert main([*argv, "--t", t, subject]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: coalition bound must be >= 1, got {t}\n"

    def test_garbage_witness_file(self, files, capsys, tmp_path):
        bad = files("square.code", SQUARE)
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        assert (
            run(capsys, "recheck", "--property", "fp", "--t", "2", "--witness", str(path), bad)[0]
            == EXIT_BAD_FILE
        )

    def test_non_utf8_witness_file(self, files, capsys, tmp_path):
        code = files("square.code", SQUARE)
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"kind": "framed-word", "framed": 2, "coalition": [0, 1]}')
        argv = ["recheck", "--property", "fp", "--t", "2", "--witness", str(path), code]
        assert main(argv) == EXIT_BAD_FILE
        assert capsys.readouterr().err.startswith("error: ")


class TestInternalErrors:
    def test_unexpected_exception_exits_five(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("broken handler")

        monkeypatch.setattr(bounds_cmd, "run", broken)
        assert main(["bounds", "--N", "3", "--q", "2", "--t", "1"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.rstrip().endswith("RuntimeError: broken handler")


class TestReadmeSynopsis:
    def test_synopsis_lists_each_subcommands_options(self):
        # The README's "Command line" block gives one synopsis per subcommand;
        # lines that do not start with "tracecodes" continue the one above.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
        synopses: dict[str, str] = {}
        for line in section.split("```", 2)[1].strip().splitlines():
            if line.startswith("tracecodes "):
                command = line.split()[1]
                synopses[command] = ""
            synopses[command] += line
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(synopses) == set(sub.choices)
        for command, subparser in sub.choices.items():
            options = {o for a in subparser._actions for o in a.option_strings if o[:2] == "--"}
            listed = set(re.findall(r"--[\w-]+", synopses[command]))
            assert listed == options - {"--format", "--help"}, command


class TestReadmeTransformOps:
    def test_op_lists_agree(self, files, capsys):
        # README's "Transform ops" line, the --op help string and the ops
        # _parse_op accepts are one list; exactly the ops README says need
        # --t refuse to run without it.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        line = readme.read_text(encoding="utf-8").split("Transform ops:", 1)[1].split("\n\n")[0]
        listed, needs_t_note = line.split("(", 1)
        readme_ops = set(re.findall(r"`([\w=]+)`", listed))
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        (op,) = (a for a in sub.choices["transform"]._actions if "--op" in a.option_strings)
        assert readme_ops == {item.strip() for item in op.help.split("|")}
        valued = {o.split("=")[0] for o in readme_ops if "=" in o}
        plain = {o for o in readme_ops if "=" not in o}
        assert valued == {name for name, (takes_value, _) in _OPS.items() if takes_value}
        assert plain == set(_OPS) - valued

        needs_t = set(re.findall(r"`(\w+)`", needs_t_note))
        code_file = files("pair.code", "2 2 2\n0 0\n1 1\n")
        fam_file = files("pair.family", "2 2\n10\n01\n")
        refused = set()
        for name in plain | valued:
            raw = f"{name}=1" if name in valued else name
            assert _parse_op(raw) == (name, 1 if name in valued else None)
            subject = fam_file if name in ("tocode", "restrict") else code_file
            if main(["transform", "--op", raw, subject]) == EXIT_USAGE:
                refused.add(name)
            capsys.readouterr()
        assert refused == needs_t == {name for name, (_, takes_t) in _OPS.items() if takes_t}
        assert needs_t == {"prune", "violate", "strip"}


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        target = tmp_path / "id3.code"
        target.write_text(IDENTITY3)
        proc = subprocess.run(
            [sys.executable, "-m", "tracecodes.cli", "verify", "--property", "fp", "--t", "2", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_closed_stdout_exits_without_a_traceback(self, fmt, buffered):
        # The reader of stdout is gone before the report is written: a
        # buffered stdout fails in the flush, an unbuffered one in the print.
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["bounds", "--N", "4", "--q", "3", "--t", "2", "--format", fmt]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tracecodes.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CLOSED_STDOUT
        assert proc.stderr == ""


# Every subcommand and transform op, each report frozen (exit code, text
# and machine document) in cli_golden.json, written before the reports were
# built from the result records.  Documents are compared as parsed
# values: tracecodes/1 does not fix key order.  Paths are relative to a
# directory holding GOLDEN_FILES.
GOLDEN_FILES = {
    "id3.code": IDENTITY3,
    "square.code": SQUARE,
    "reps.code": REPS4,
    "three.code": "2 3 2\n0 0\n1 1\n0 1\n",
    "pair.code": "2 2 2\n0 0\n1 1\n",
    "tri.code": "3 3 2\n0 0 0\n0 0 1\n0 1 0\n",
    "six.code": "4 6 2\n0 0 0 1\n0 0 1 0\n0 0 1 1\n0 1 0 1\n0 1 1 1\n1 1 1 0\n",
    "cube.code": "3 8 2\n" + "".join(
        f"{a} {b} {c}\n" for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ),
    "strip.code": STRIP9,
    "strip-pair.code": "9 4 2\n" + "".join(
        " ".join(w) + "\n" for w in ("000000000", "000000001", "111111110", "111111111")
    ),
    "triangle.family": TRIANGLE_FAMILY,
    "singles.family": "3 3\n100\n010\n001\n",
    "odd.family": "3 3\n110\n011\n010\n",
    "twins.family": "3 3\n100\n110\n010\n",
    "framed.json": '{"kind": "framed-word", "framed": 2, "coalition": [0, 1]}',
    "not-framed.json": '{"kind": "framed-word", "framed": 0, "coalition": [1, 2]}',
}

GOLDEN_CASES = {
    "verify-fp-holds": ("verify", "--property", "fp", "--t", "2", "id3.code"),
    "verify-fp-fails": ("verify", "--property", "fp", "--t", "2", "square.code"),
    "verify-ipp-holds": ("verify", "--property", "ipp", "--t", "2", "reps.code"),
    "verify-ipp-fails": ("verify", "--property", "ipp", "--t", "2", "three.code"),
    "verify-ta-holds": ("verify", "--property", "ta", "--t", "2", "reps.code"),
    "verify-ta-fails": ("verify", "--property", "ta", "--t", "2", "square.code"),
    "verify-cff-holds": ("verify", "--property", "cff", "--t", "2", "singles.family"),
    "verify-cff-fails": ("verify", "--property", "cff", "--t", "2", "triangle.family"),
    "trace-ta": ("trace", "--scheme", "ta", "--pirate", "0011", "reps.code"),
    "trace-ipp-ok": ("trace", "--scheme", "ipp", "--t", "2", "--pirate", "0000", "reps.code"),
    "trace-ipp-no-parents": (
        "trace", "--scheme", "ipp", "--t", "2", "--pirate", "0012", "reps.code",
    ),
    "trace-ipp-empty": ("trace", "--scheme", "ipp", "--t", "2", "--pirate", "01", "three.code"),
    "bounds-q3": ("bounds", "--N", "4", "--q", "3", "--t", "2"),
    "bounds-binary-status": ("bounds", "--N", "9", "--q", "2", "--t", "3"),
    "bounds-binary-short": ("bounds", "--N", "2", "--q", "2", "--t", "3"),
    "bounds-evaluate": ("bounds", "--N", "9", "--q", "2", "--t", "3", "--evaluate"),
    "transform-double": ("transform", "--op", "double", "id3.code"),
    "transform-tocode": ("transform", "--op", "tocode", "singles.family"),
    "transform-restrict-clean": ("transform", "--op", "restrict=0", "singles.family"),
    "transform-restrict-empty": ("transform", "--op", "restrict=0", "odd.family"),
    "transform-restrict-duplicate": ("transform", "--op", "restrict=0", "twins.family"),
    "transform-pad": ("transform", "--op", "pad=2", "pair.code"),
    "transform-compose": ("transform", "--op", "compose=2", "pair.code"),
    "transform-prune-none": ("transform", "--op", "prune", "--t", "2", "cube.code"),
    "transform-prune-some": ("transform", "--op", "prune", "--t", "2", "six.code"),
    "transform-prune-all": ("transform", "--op", "prune", "--t", "2", "tri.code"),
    "transform-violate": ("transform", "--op", "violate", "--t", "2", "cube.code"),
    "transform-violate-no-survivors": ("transform", "--op", "violate", "--t", "2", "tri.code"),
    "transform-strip": ("transform", "--op", "strip", "--t", "1", "strip.code"),
    "transform-strip-diagnostics": ("transform", "--op", "strip", "--t", "1", "strip-pair.code"),
    "search-maximize": ("search", "--property", "fp", "--N", "3", "--t", "2"),
    "search-maximize-budget": (
        "search", "--property", "fp", "--N", "4", "--t", "2", "--budget", "10",
    ),
    "search-decide-no": (
        "search", "--property", "fp", "--N", "4", "--t", "3", "--decide-exceeds-N",
    ),
    "search-decide-yes": ("search", "--property", "fp", "--N", "3", "--t", "2", "--goal", "4"),
    "search-decide-budget": (
        "search", "--property", "fp", "--N", "5", "--t", "3", "--decide-exceeds-N",
        "--budget", "100",
    ),
    "search-cff-family": ("search", "--property", "cff", "--N", "4", "--t", "1"),
    "search-ipp-ternary": ("search", "--property", "ipp", "--N", "2", "--q", "3", "--t", "2"),
    "search-ta-ternary": ("search", "--property", "ta", "--N", "2", "--q", "3", "--t", "2"),
    "search-min-length": ("search", "--property", "cff", "--t", "1", "--min-length"),
    "search-min-length-fp": (
        "search", "--property", "fp", "--t", "2", "--min-length", "--start-length", "2",
    ),
    "search-min-length-budget": (
        "search", "--property", "cff", "--t", "2", "--min-length", "--budget", "50",
    ),
    "simulate": ("simulate", "--t", "2", "--trials", "60", "reps.code"),
    "simulate-majority": (
        "simulate", "--t", "2", "--trials", "10", "--strategy", "majority", "--seed", "7",
        "reps.code",
    ),
    "recheck-confirmed": (
        "recheck", "--property", "fp", "--t", "2", "--witness", "framed.json", "square.code",
    ),
    "recheck-refuted": (
        "recheck", "--property", "fp", "--t", "2", "--witness", "not-framed.json", "square.code",
    ),
}

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def timeless(doc):
    """A report without its wall-clock ``elapsed`` fields."""
    if isinstance(doc, dict):
        return {k: timeless(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [timeless(v) for v in doc]
    return doc


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRACECODES_CACHE", raising=False)
    return tmp_path


class TestGoldenDocuments:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_report(self, golden_dir, capsys, case):
        want = GOLDEN[case]
        argv = list(GOLDEN_CASES[case])
        assert main(argv) == want["exit"]
        out, err = capsys.readouterr()
        assert (out, err) == (want["text"], "")
        assert main(argv + ["--format", "machine"]) == want["exit"]
        out, err = capsys.readouterr()
        assert err == ""
        assert timeless(json.loads(out)) == want["doc"]

    def test_recheck_confirms_only_its_own_witness_kind(self, golden_dir, capsys):
        # Each failing verify report, passed back as the witness file: its own
        # property confirms it, every other property on the same file type refutes it.
        readers = {"fp": ".code", "ipp": ".code", "ta": ".code", "cff": ".family"}
        failing = {
            case: argv for case, argv in GOLDEN_CASES.items()
            if argv[0] == "verify" and GOLDEN[case]["exit"] == EXIT_VIOLATION
        }
        assert len(failing) == len(readers)
        for case, (_, _, own, _, t, subject) in failing.items():
            Path("witness.json").write_text(json.dumps(GOLDEN[case]["doc"]))
            for prop, suffix in readers.items():
                if not subject.endswith(suffix):
                    continue
                argv = ["recheck", "--property", prop, "--t", t, "--witness", "witness.json"]
                code, out = run(capsys, *argv, subject, "--format", "machine")
                doc = json.loads(out)
                if prop == own:
                    assert (code, doc["problems"]) == (EXIT_OK, []), case
                else:
                    assert code == EXIT_VIOLATION, (case, prop)
                    (problem,) = doc["problems"]
                    assert GOLDEN[case]["doc"]["witness"]["kind"] in problem, (case, prop)

    def test_search_cache_entries(self, golden_dir, capsys, monkeypatch):
        # An entry holds the search payload of the report; read back, it
        # gives the same report with ``cached`` set.
        keys = ("optimum", "decided", "complete", "nodes", "budget", "witness")
        for case, argv in GOLDEN_CASES.items():
            if argv[0] != "search" or "--min-length" in argv:
                continue
            cache = golden_dir / f"cache-{case}"
            monkeypatch.setenv("TRACECODES_CACHE", str(cache))
            want = GOLDEN[case]
            for cached in (False, True):
                assert main([*argv, "--format", "machine"]) == want["exit"]
                doc = timeless(json.loads(capsys.readouterr().out))
                assert doc == {**want["doc"], "cached": cached}, case
            (entry,) = cache.iterdir()
            assert timeless(json.loads(entry.read_text())) == {k: want["doc"][k] for k in keys}
