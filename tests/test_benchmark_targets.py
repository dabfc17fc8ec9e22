"""The benchmark's traced round wraps functions of the package by name
(`perfbench/layers.py`) and fails when one is no longer defined, or when a
function it expects on a workload records no call.  These tests resolve
every traced name the same way, and run one sweep task of each sweep
workload, two `theorem2-ext` product checks and a short `theorem2-ext` module
round under the benchmark's tracer, so that a rename or a rerouted call
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


# The module calls of `theorem2-ext`: the necessity witness and short seeded
# runs of the lattice and construction suites.
_TRACED_MODULES = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import isogeny_lab.verify as V
import layers
from tracer import Tracer

tracer = Tracer()
tracer.install(layers.TARGETS)
V.abstract_necessity_witness()
V.run_trials(V.lemma42_trial, 20, 1)
V.run_trials(V.theorem2_trial, 4, 1)
stats = tracer.snapshot()["stats"]
names = [n for n in layers.EXPECTED["theorem2-ext"] if n.startswith("galois_modules.")]
print(json.dumps({{"absent": tracer.absent, "checked": len(names),
                  "silent": [n for n in names if not stats[n][0]]}}))
"""


def test_theorem2_module_calls_record_every_expected_galois_call():
    script = _TRACED_MODULES.format(perfbench=str(PERFBENCH), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["absent"] == [] and result["silent"] == []
    assert result["checked"] > 0


# Two product checks of `theorem2-ext`.  Their torsion splits only over
# F_{q^k}, so their root searches take the F_p-factor path of `poly_roots`.
# At (11, 3), k = 2, every factor there is linear or quadratic and needs no
# splitting, so `_roots_large_field` records no call; at (7, 5), which the
# workload runs at every seed, psi_5 has quartic factors over F_7 (k = 4),
# and their split reaches the object-layer splitting that the workload
# expects to record (`_roots_large_field`, `Polynomial.pow_mod`).  The Q
# counterexample and the module suites of the workload reach the names left
# over.
_TRACED_PRODUCT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import isogeny_lab.verify as V
import layers
from tracer import Tracer

tracer = Tracer()
tracer.install(layers.TARGETS)
V.verify_theorem2_products(11, 3)
split_at_11_3 = tracer.snapshot()["stats"]["fields._roots_large_field"][0]
V.verify_theorem2_products(7, 5)
stats = tracer.snapshot()["stats"]
names = [n for n in layers.EXPECTED["theorem2-ext"] if not n.startswith("galois_modules.")]
print(json.dumps({{"absent": tracer.absent, "checked": len(names),
                  "silent": [n for n in names if not stats[n][0]],
                  "split_at_11_3": split_at_11_3}}))
"""

_NOT_REACHED_BY_A_PRODUCT_CHECK = [
    "isogenies.velu_quotient", "isogenies.family_e3", "verify._brute_fixed_vectors",
]


def test_theorem2_product_check_records_every_expected_call():
    script = _TRACED_PRODUCT.format(perfbench=str(PERFBENCH), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["absent"] == []
    assert sorted(result["silent"]) == sorted(_NOT_REACHED_BY_A_PRODUCT_CHECK)
    assert result["checked"] > len(_NOT_REACHED_BY_A_PRODUCT_CHECK)
    assert result["split_at_11_3"] == 0
