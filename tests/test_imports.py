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

BASE = {"tracecodes", "tracecodes.cli", "tracecodes.core"}


def fresh(script: str, cwd: Path | None = None) -> dict:
    """Run ``script`` in a new interpreter on these sources; its last line is JSON."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("TRACECODES_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'tracecodes')))"
)

# Each subcommand and the package modules it adds to those of ``import tracecodes.cli``.
COMMANDS = {
    "import": ([], set()),
    "bounds": (["bounds", "--N", "4", "--q", "3", "--t", "2"], {"bounds"}),
    "verify-fp": (["verify", "--property", "fp", "--t", "2", "id3.code"], {"verify"}),
    "verify-cff": (["verify", "--property", "cff", "--t", "2", "id3.family"], {"verify"}),
    "trace": (["trace", "--scheme", "ta", "--pirate", "100", "id3.code"], {"trace"}),
    "simulate": (["simulate", "--t", "2", "--trials", "3", "id3.code"], {"trace"}),
    "transform": (["transform", "--op", "double", "id3.code"], {"transform"}),
    "search": (["search", "--property", "fp", "--N", "3", "--t", "2"], {"search"}),
    "recheck": (
        ["recheck", "--property", "fp", "--t", "2", "--witness", "w.json", "id3.code"],
        set(),
    ),
}


def after_command(tmp_path: Path, name: str, probe: str) -> dict:
    """Run the ``COMMANDS`` entry ``name`` in a fresh interpreter, then ``probe``."""
    argv = COMMANDS[name][0]
    (tmp_path / "id3.code").write_text("3 3 2\n1 0 0\n0 1 0\n0 0 1\n")
    (tmp_path / "id3.family").write_text("3 3\n100\n010\n001\n")
    (tmp_path / "w.json").write_text('{"kind": "framed-word", "framed": 0, "coalition": [1, 2]}')
    run = f"from tracecodes import cli\ncli.main({argv!r})\n" if argv else "import tracecodes.cli\n"
    return fresh(run + probe, cwd=tmp_path)


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
