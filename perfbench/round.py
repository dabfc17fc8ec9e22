"""One benchmark round in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N [--trace] [--setup-only]

Imports the package from the checkout's `src/`, draws the workload's
inputs, runs every verification call once with cold caches (the F_q table
cache and the pairing's auxiliary-point cache live for one process, as they
do for a CLI user), measuring the machine's speed (speed.py) around set-up
and during every call, and prints one JSON object on stdout.  `run.py` starts
this script once per round and never imports the package itself.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced round writes its spans to")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "isogeny_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 3
    import speed

    # the machine's speed at the start and at the end of set-up
    start_loop_s = speed.loop_s()
    sys.path.insert(0, str(src))
    import isogeny_lab.verify as V
    import workloads as W

    inputs = W.make_inputs(args.workload, args.seed)
    result = {"setup_end": time.monotonic(), "setup_loop_s": start_loop_s}
    result["setup_speed_s"] = (start_loop_s + speed.loop_s()) / 2
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.TARGETS)
    out = W.run(inputs, V, tracer)
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_traces = out.pop("worker_traces", [])
    result.update(out)
    # ru_maxrss is in KiB on Linux; pooled workers are reaped by run_sweep
    result["rss_mb"] = max(own.ru_maxrss, children.ru_maxrss) / 1024
    result["child_cpu_s"] = children.ru_utime + children.ru_stime
    if tracer is not None:
        from tracer import merge_snapshots

        snap = tracer.snapshot()
        snap["extra"]["aux.hits"], snap["extra"]["aux.misses"] = W.aux_cache_counts()
        result["trace"] = merge_snapshots([snap] + [w["trace"] for w in worker_traces])
        result["trace_absent"] = tracer.absent
        result["trace_sites"] = tracer.sites
        result["processes"] = 1 + out.get("workers", 0)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump([{"pid": "round", "spans": tracer.spans}]
                          + [{"pid": w["pid"], "op": w["op"], "spans": w["spans"]}
                             for w in worker_traces], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
