"""The names the benchmark's layer tracer wraps must exist in the package.

``perfbench/layers.py`` replaces functions by module attribute; a name
removed from ``tracecodes`` would only surface when the benchmark runs.
The file is loaded as data here, without installing its wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _layers()
WRAPPED = [
    (mod, fn)
    for table in (_LAYERS.SPANNED, _LAYERS.COUNTED)
    for mod, fns in table.items()
    for fn in fns
] + [("cli", "main")]


@pytest.mark.parametrize("mod,fn", WRAPPED, ids=[f"{m}.{f}" for m, f in WRAPPED])
def test_wrapped_name_exists(mod, fn):
    module = importlib.import_module(f"tracecodes.{mod}")
    assert callable(getattr(module, fn, None)), f"tracecodes.{mod}.{fn}"
