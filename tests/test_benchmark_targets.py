"""The benchmark's traced round wraps functions of the package by name
(`perfbench/layers.py`) and fails when one is no longer defined.  This test
resolves every traced name the same way, so that a rename fails here too."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = []
    for module_name, qualname, _hook, _span in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
