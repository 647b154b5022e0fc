"""Lazy loading: what each CLI process imports, and the public API under it.

Every check that depends on what is already imported runs in a fresh
interpreter, since the test session has loaded the whole package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tracecodes

SRC = Path(tracecodes.__file__).resolve().parent.parent

# The public names of tracecodes 0.2.0, when ``__init__`` imported eagerly, less
# the per-length region report and the sandwich report, two library-only length
# scans deleted since: ``min_length_search`` answers their questions.
PUBLIC_NAMES = set(
    """
    Accusation BinaryFpStatus BoundEntry BoundReport Code Counters CoverViolation
    DEFAULT_SEED DescendantSetTooLarge FramedWord INFINITE_DISTANCE IppViolation
    IppViolationCertificate MinLengthResult ParentSetFamily PatternPartition
    PirateStrategy PruneResult Restriction SearchProblem SearchResult SetFamily
    StripTrace TaViolation TracingReport Verdict binary_fp_status block_compose
    bound_report build_ipp_violation certificate_problems cff_restrict cff_to_fpc
    check_cff check_frameproof check_ipp check_ta desc_profile distance_strip
    forge_pirate fp_bound fpc_to_cff hamming_distance ipp_bound is_descendant
    make_row_partition max_code_search min_distance min_exceed_length_quadratic
    min_length_search pad_code parent_sets prune_special_codewords
    simulate_tracing singleton_bound ta_bound ta_distance_sufficient trace_ipp trace_ta
    """.split()
)

# What every ``python -m tracecodes.cli`` process loads.  The front end runs as
# ``__main__``, so ``tracecodes.cli`` is never among them: a module that
# imported it would compile and run it a second time.
BASE = {"tracecodes", "tracecodes.commands", "tracecodes.commands.common", "tracecodes.core"}


def fresh(script: str, cwd: Path | None = None, cache: Path | None = None) -> dict:
    """Run ``script`` in a new interpreter on these sources, with the search
    cache at ``cache`` or none; its last line is JSON."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("TRACECODES_CACHE", None)
    if cache is not None:
        env["TRACECODES_CACHE"] = str(cache)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'tracecodes')))"
)

SEARCH = ["search", "--property", "fp", "--N", "3", "--t", "2"]

# Each subcommand and the package modules it adds to ``BASE``; "import" is a
# bare ``import tracecodes.cli``, and "search-cached" runs with a cache set.
COMMANDS = {
    "import": ([], {"cli"}),
    "bounds": (["bounds", "--N", "4", "--q", "3", "--t", "2"], {"commands.bounds", "bounds"}),
    "verify-fp": (
        ["verify", "--property", "fp", "--t", "2", "id3.code"],
        {"commands.verify", "verify"},
    ),
    "verify-cff": (
        ["verify", "--property", "cff", "--t", "2", "id3.family"],
        {"commands.verify", "verify"},
    ),
    "trace": (
        ["trace", "--scheme", "ta", "--pirate", "100", "id3.code"],
        {"commands.trace", "trace"},
    ),
    "simulate": (
        ["simulate", "--t", "2", "--trials", "3", "id3.code"],
        {"commands.simulate", "trace"},
    ),
    "transform": (
        ["transform", "--op", "double", "id3.code"],
        {"commands.transform", "transform"},
    ),
    # Pruning leaves the cube whole, and its certificate is checked by ``recheck``.
    "violate": (
        ["transform", "--op", "violate", "--t", "2", "cube.code"],
        {"commands.transform", "transform", "recheck"},
    ),
    "search": (SEARCH, {"commands.search", "search"}),
    "search-cached": (SEARCH, {"commands.search", "commands.cache", "search", "recheck"}),
    "recheck": (
        ["recheck", "--property", "fp", "--t", "2", "--witness", "w.json", "id3.code"],
        {"commands.recheck", "recheck"},
    ),
}


def after_command(tmp_path: Path, name: str, probe: str) -> dict:
    """Run the ``COMMANDS`` entry ``name`` in a fresh interpreter, as ``python -m
    tracecodes.cli`` runs it, then ``probe``."""
    argv = COMMANDS[name][0]
    (tmp_path / "id3.code").write_text("3 3 2\n1 0 0\n0 1 0\n0 0 1\n")
    (tmp_path / "id3.family").write_text("3 3\n100\n010\n001\n")
    cube = "".join(f"{i >> 2} {i >> 1 & 1} {i & 1}\n" for i in range(8))
    (tmp_path / "cube.code").write_text("3 8 2\n" + cube)
    (tmp_path / "w.json").write_text('{"kind": "framed-word", "framed": 0, "coalition": [1, 2]}')
    run = "import tracecodes.cli\n"
    if argv:
        run = textwrap.dedent(
            f"""
            import runpy, sys
            sys.argv = ["tracecodes", *{argv!r}]
            try:
                runpy.run_module("tracecodes.cli", run_name="__main__")
            except SystemExit as exc:
                assert exc.code in (0, 1), exc.code
            """
        )
    cache = tmp_path / "cache" if name == "search-cached" else None
    return fresh(run + probe, cwd=tmp_path, cache=cache)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_subcommand_loads_only_what_it_runs(tmp_path, name):
    loaded = after_command(tmp_path, name, LOADED)
    assert set(loaded) == BASE | {f"tracecodes.{m}" for m in COMMANDS[name][1]}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_subcommand_leaves_dataclasses_unloaded(tmp_path, name):
    # Records are NamedTuples and plain classes; ``dataclasses`` would load
    # ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) at every start.
    probe = (
        "import json, sys\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    assert after_command(tmp_path, name, probe) == []


def test_recheck_loads_only_where_a_witness_is_checked():
    # ``recheck`` itself, a cached search's stored witnesses, and an IPP
    # violation certificate.
    loads = {name for name, (_, added) in COMMANDS.items() if "recheck" in added}
    assert loads == {"recheck", "search-cached", "violate"}


def test_recheck_imports_only_core():
    loaded = fresh("import tracecodes.recheck\n" + LOADED)
    assert loaded == ["tracecodes", "tracecodes.core", "tracecodes.recheck"]


def test_names_read_through_the_front_end():
    # The benchmark reads these four from tracecodes.cli; they live elsewhere
    # now, and importing the front end compiles none of their modules.
    doc = fresh(
        textwrap.dedent(
            """
            import json, sys
            import tracecodes.cli as cli
            before = sorted(m for m in sys.modules if m.startswith("tracecodes"))
            from tracecodes import recheck
            from tracecodes.commands import common, verify as verify_cmd
            from tracecodes.core import Code, SetFamily
            from tracecodes.verify import FramedWord

            code = Code(((0, 0), (1, 1), (0, 1)), 2)
            witness = cli.witness_to_json(FramedWord(2, (0, 1)), code)
            print(json.dumps({
                "before": before,
                "homes": [
                    cli.render_code_text is common.render_code_text,
                    cli.render_family_text is common.render_family_text,
                    cli.witness_to_json is verify_cmd.witness_to_json,
                    cli.recheck_witness is recheck.recheck_witness,
                ],
                "code": cli.render_code_text(code),
                "family": cli.render_family_text(SetFamily.from_sets(3, [[0], [1, 2]])),
                "witness": witness,
                "recheck": cli.recheck_witness(witness, code, 2),
                "refuted": cli.recheck_witness({**witness, "framed": 0}, code, 2),
            }))
            """
        )
    )
    assert doc["before"] == sorted(BASE | {"tracecodes.cli"})
    assert doc["homes"] == [True] * 4
    assert doc["code"] == "2 3 2\n0 0\n1 1\n0 1\n"
    assert doc["family"] == "3 2\n100\n011\n"
    assert doc["witness"] == {
        "kind": "framed-word", "framed": 2, "coalition": [0, 1], "framed_word": [0, 1]
    }
    assert doc["recheck"] == []
    assert doc["refuted"] == ["framed word sits inside the coalition"]


def test_unknown_front_end_attribute_raises():
    from tracecodes import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "run",
    [
        "import tracecodes.trace\n",
        "from tracecodes import cli\n"
        "cli.main(['trace', '--scheme', 'ipp', '--t', '2', '--pirate', '100', 'id3.code'])\n",
    ],
    ids=["import", "subcommand"],
)
def test_tracing_leaves_hashlib_unloaded(tmp_path, run):
    # hashlib loads OpenSSL; only a simulation's seed splitting needs it.
    (tmp_path / "id3.code").write_text("3 3 2\n1 0 0\n0 1 0\n0 0 1\n")
    probe = "import json, sys\nprint(json.dumps(sorted({'hashlib', '_hashlib'} & set(sys.modules))))"
    assert fresh(run + probe, cwd=tmp_path) == []


def test_public_api_resolves_lazily():
    doc = fresh(
        textwrap.dedent(
            """
            import json, sys
            from importlib import import_module
            import tracecodes
            before = sorted(m for m in sys.modules if m.startswith("tracecodes"))
            star = {}
            exec("from tracecodes import *", star)
            del star["__builtins__"]
            home = {n: import_module("tracecodes." + tracecodes._SUBMODULE[n]) for n in star}
            print(json.dumps({
                "before": before,
                "all": tracecodes.__all__,
                "star": sorted(star),
                "not_in_dir": sorted(set(tracecodes.__all__) - set(dir(tracecodes))),
                "same": [n for n in home if getattr(tracecodes, n) is getattr(home[n], n)],
                "family": tracecodes.SetFamily is tracecodes.transform.SetFamily
                is tracecodes.core.SetFamily,
            }))
            """
        )
    )
    assert doc["before"] == ["tracecodes"]
    assert set(doc["all"]) == PUBLIC_NAMES and len(doc["all"]) == 59
    assert set(doc["star"]) == PUBLIC_NAMES
    assert doc["not_in_dir"] == []
    assert set(doc["same"]) == PUBLIC_NAMES
    assert doc["family"] is True


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tracecodes.no_such_name  # noqa: B018


def test_submodules_resolve_as_attributes():
    doc = fresh(
        "import json, tracecodes\n"
        "print(json.dumps([tracecodes.verify.__name__, tracecodes.trace.STRATEGY_KINDS]))"
    )
    assert doc == ["tracecodes.verify", ["first", "interleave", "majority", "minority", "random"]]
