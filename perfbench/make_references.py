"""Regenerate perfbench/references.json from the program in this checkout.

    python3 perfbench/make_references.py

Runs every input any seed can draw (every prime of each sweep band, every
product pair, every mixed band) once and records the digest of each
deterministic report, the trial count and the (empty) failure list of each
suite, and the `pmul` call profile of each task that the workload
descriptors quote.  Takes a few minutes.  Only regenerate at a commit
whose verdicts are known to be right: a run is judged against this file.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import isogeny_lab  # noqa: E402
import isogeny_lab.verify as V  # noqa: E402
import layers  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

PMUL = [t for t in layers.TARGETS if t[:2] == ("isogeny_lab.intpoly", "pmul")]


def every_input(name: str) -> list[dict]:
    """One inputs dict per unit of work any seed of the workload can draw."""
    if name in W.SWEEPS:
        ell, q_min, q_max, _ = W.SWEEPS[name]
        return [{"kind": "sweep", "ell": ell, "qs": [q]}
                for q in W.primes_in_range(q_min, q_max) if q != ell]
    if name == "theorem2-ext":
        pairs = [list(p) for block in W.PRODUCT_BLOCKS for p in block]
        return [{"kind": "theorem2", "products": [p], "trials": {}, "trial_seed": 0}
                for p in pairs]
    return [{"kind": "mixed", "ells": list(W.MIXED_ELLS), "q_min": lo, "q_max": hi,
             "threads": W.MIXED_THREADS} for lo, hi in W.MIXED_BANDS]


def main() -> int:
    tracer = Tracer()
    tracer.install(PMUL)
    refs = {"generated_with": {"python": platform.python_version(),
                               "isogeny_lab": isogeny_lab.__version__}}
    for name in W.WORKLOADS + (W.SMOKE_WORKLOAD,):
        digests, pmul = {}, {}
        for inputs in every_input(name):
            tracer.reset()
            out = W.run(inputs, V, tracer)
            for op in out["ops"]:
                if op["error"]:
                    print(f"{name} {op['key']}: {op['error']}", file=sys.stderr)
                    return 1
                digests[op["key"]] = op["digest"]
            stats, extra = tracer.stats, tracer.extra
            if inputs["kind"] == "mixed":
                for w in out["worker_traces"]:
                    pmul[w["op"]] = [w["trace"]["stats"]["intpoly.pmul"][0],
                                     w["trace"]["extra"].get("intpoly.pmul.long_calls", 0)]
            else:
                key = W.task_keys(inputs)[0]
                pmul[key] = [stats["intpoly.pmul"][0], extra.get("intpoly.pmul.long_calls", 0)]
            print(f"{name}: {', '.join(op['key'] for op in out['ops'])}", flush=True)
        refs[name] = {"digests": digests, "pmul": pmul}
    for key, fn in (("counterexample", V.reproduce_paper_counterexample),
                    ("necessity", V.abstract_necessity_witness)):
        refs["theorem2-ext"]["digests"][key] = W.digest(fn().to_json())
    refs["theorem2-ext"]["suites"] = {
        suite: {"trials": count, "failures": []} for suite, count in W.TRIALS.items()
    }
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
