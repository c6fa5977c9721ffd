"""The benchmark's traced functions must exist in csgp.

perfbench/layers.py names the csgp functions a traced run wraps; a src
change that deletes or renames one would break `perfbench/run.py --trace 1`,
so it fails here first.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    found = layers.targets()
    assert list(found) == list(layers.TRACED)
    for name, (fn, _) in found.items():
        assert callable(fn) and fn.__name__ == name.split(".")[1], name
