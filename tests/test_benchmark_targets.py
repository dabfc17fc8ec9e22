"""The benchmark's traced round wraps functions of the package by name
(`perfbench/layers.py`) and fails when one is no longer defined, or when a
function it expects on a workload records no call.  These tests resolve
every traced name the same way, and run one sweep task of each sweep
workload under the benchmark's tracer, so that a rename or a rerouted call
fails here too."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


# The tracer rebinds every package namespace that imported a traced function
# by name, so it runs in a child interpreter: the wrappers never reach the
# modules that the other tests import.
_TRACED_SWEEPS = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import isogeny_lab.verify as V
import layers
from tracer import Tracer

tracer = Tracer()
tracer.install(layers.TARGETS)
silent = {{}}
for workload, q, ell in [("sweep-ell7", 43, 7), ("sweep-ell3", 19, 3)]:
    tracer.reset()
    V.run_sweep([ell], q_min=q, q_max=q + 1)
    stats = tracer.snapshot()["stats"]
    silent[workload] = [n for n in layers.EXPECTED[workload] if not stats[n][0]]
print(json.dumps({{"absent": tracer.absent, "silent": silent}}))
"""


def test_sweep_tasks_record_every_expected_call():
    script = _TRACED_SWEEPS.format(perfbench=str(PERFBENCH), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"absent": [], "silent": {"sweep-ell7": [], "sweep-ell3": []}}
