"""isogeny-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs the named workload in fresh interpreters, one per round (see
round.py), until about S seconds have been measured, checks every verdict
against the committed references and prints the metrics, with every time
at the reference speed of speed.py.  The last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  A traced run measures the same
untraced rounds and then one traced round, whose spans it writes to
`.perfbench/` at the root of the checkout.

Exit codes: 0 after a result line (also when a verdict is wrong: that shows
as `correct: false`), 1 when a round or the smoke check fails, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as W  # noqa: E402
from speed import REFERENCE_S, at_reference  # noqa: E402

REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 3
ROUNDS_BUDGET = 100  # seconds; fewer rounds when one round is this slow
SETUP_SPAWNS = 8  # setup-only interpreters per run, on top of the rounds
ROUND_TIMEOUT = 150  # seconds


class BenchError(Exception):
    pass


# --- rounds ----------------------------------------------------------------------


def spawn(workload: str, seed: int, trace=False, setup_only=False, spans=None) -> dict:
    """Run round.py in a fresh interpreter and return its JSON result.

    `setup_s` runs from the moment the interpreter is started to the moment
    the round has imported the package and drawn its inputs (both clocks
    are the system-wide monotonic clock), less the speed slice the round
    ran on the way; `setup_ref_s` is the same time at reference speed (see
    speed.py).
    """
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"round of {workload} exceeded {ROUND_TIMEOUT} s") from None
    finally:
        # the round's pool workers are in its session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"round of {workload} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    data = json.loads(stdout.strip().splitlines()[-1])
    data["setup_s"] = data["setup_end"] - t0 - data["setup_loop_s"]
    data["setup_ref_s"] = at_reference(data["setup_s"], data["setup_speed_s"])
    data["round_s"] = t1 - t0
    return data


# --- verdicts ----------------------------------------------------------------------


def expected_keys(inputs: dict) -> list[str]:
    keys = W.task_keys(inputs)
    if inputs["kind"] == "theorem2":
        keys += ["counterexample", "necessity"] + [f"suite:{s}" for s in inputs["trials"]]
    if inputs["kind"] == "mixed":
        keys.append(W.mixed_key(inputs))
    return keys


def check_round(rnd: dict, inputs: dict, refs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one round against the references.

    An operation is a (q, ell) task, a product check, a reproduction call
    or a trial.  Errors, reported violations and digest mismatches all
    count as failed, and so does an operation without a reference.
    """
    ops = {op["key"]: op for op in rnd["ops"]}
    digests, suites = refs.get("digests", {}), refs.get("suites", {})
    attempted = failed = 0
    problems = []
    for key in expected_keys(inputs):
        op = ops.get(key)
        if key.startswith("suite:"):
            suite = key.split(":", 1)[1]
            ref = suites.get(suite)
            count = inputs["trials"][suite]
            attempted += count
            if op is None or op["error"] or ref is None or op["trials"] != ref["trials"]:
                failed += count
                problems.append(f"{key}: {op and op['error'] or 'missing run or reference'}")
            elif op["failures"] != ref["failures"]:
                failed += max(1, len(op["failures"]))
                problems.append(f"{key}: {len(op['failures'])} trial failures")
            continue
        if key.startswith("sweep:"):
            # the merged report of the pooled sweep; its tasks are counted
            # one by one below, a wrong merge fails every one of them
            if op is None or op["error"] or op["digest"] != digests.get(key):
                n = len(W.task_keys(inputs))
                failed += n
                problems.append(f"{key}: {op and op['error'] or 'merged report mismatch'}")
            continue
        attempted += 1
        if op is None or op["error"] or op["digest"] != digests.get(key):
            failed += 1
            why = (op and op["error"]) or ("no reference" if key not in digests else
                                           "missing" if op is None else "digest mismatch")
            problems.append(f"{key}: {why}")
    return attempted, min(failed, attempted), problems


# --- the benchmark ------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def describe(inputs: dict, rnd: dict, refs: dict) -> dict:
    """Workload descriptors: what share of the work has each property."""
    counts = rnd.get("counts", [])
    pmul = [refs.get("pmul", {}).get(k, [0, 0]) for k in W.task_keys(inputs)]
    calls = sum(p[0] for p in pmul)
    return {
        "tasks": len(W.task_keys(inputs)),
        "q1_share": W.q1_share(inputs),
        "order_two_targets": sum(c.get("graphs_order_2", 0) for c in counts),
        "isogenies": sum(c.get("soundness", {}).get("isogenies", 0) for c in counts),
        # not measured in this run: the share in the profile that
        # make_references.py took of these tasks.  The measured share is
        # the traced run's intpoly.pmul.long_share.
        "pmul_long_share_ref": sum(p[1] for p in pmul) / calls if calls else 0.0,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, refs_all: dict,
                  log=print) -> dict:
    inputs = W.make_inputs(workload, seed)
    refs = refs_all.get(workload, {})
    spawn(workload, seed, setup_only=True)  # writes bytecode caches; not measured
    rounds = []
    start = time.monotonic()
    while True:
        rnd = spawn(workload, seed)
        rounds.append(rnd)
        elapsed = time.monotonic() - start
        if elapsed + rnd["round_s"] > (seconds if len(rounds) >= MIN_ROUNDS else ROUNDS_BUDGET):
            break
    setups = [r["setup_ref_s"] for r in rounds]
    setups += [spawn(workload, seed, setup_only=True)["setup_ref_s"] for _ in range(SETUP_SPAWNS)]
    traced = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-{seed}.json"
        traced = spawn(workload, seed, trace=True, spans=spans)

    attempted = failed = 0
    problems = []
    for rnd in rounds + ([traced] if traced else []):
        a, f, p = check_round(rnd, inputs, refs)
        attempted += a
        failed += f
        problems += p
    if traced is not None:
        problems += _trace_problems(workload, traced)

    # Every time is taken at reference speed: the machine's speed drifts
    # by up to 1.8x, and the speed slices run during each call cancel that
    # drift (speed.py).  Every round runs the same inputs.
    task_times: dict[str, list[float]] = {}
    for r in rounds:
        for op in r["ops"]:
            if op["key"].startswith(("task:", "product:")) and not op["error"]:
                task_times.setdefault(op["key"], []).append(
                    at_reference(op["seconds"], op["speed_s"]))
    e2e = {
        "setup_s": _median(setups),
        "wall_s": _median([wall_at_reference(r) for r in rounds]),
        "task_p50_s": _median([_median(v) for v in task_times.values()]),
        "peak_rss_mb": _median([r["rss_mb"] for r in rounds]),
    }
    desc = describe(inputs, rounds[0], refs)
    child_cpu = _median([r["child_cpu_s"] for r in rounds])
    measured_wall = _median([r["wall_s"] for r in rounds])
    workers = inputs.get("threads", 1) if inputs["kind"] == "mixed" else 0

    log(f"perfbench {workload} seed={seed}: {len(rounds)} rounds of {len(W.task_keys(inputs))} "
        f"tasks, {len(setups)} set-ups, each in a fresh interpreter")
    log("inputs: " + json.dumps(inputs, sort_keys=True))
    log("descriptors: " + json.dumps(desc, sort_keys=True))
    slices = [s for r in rounds for s in r["slices"]]
    log(f"speed slices: median {_median(slices) * 1e3:.4g} ms over {len(slices)} "
        f"(reference speed: {REFERENCE_S * 1e3:.4g} ms)")
    log("round wall_s as measured: " + " ".join(f"{r['wall_s']:.4g}" for r in rounds))
    log("round wall_s at reference speed: "
        + " ".join(f"{wall_at_reference(r):.4g}" for r in rounds))
    for name, value in e2e.items():
        note = (f"  (median over {len(task_times)} tasks of their median over the rounds)"
                if name == "task_p50_s" else "")
        log(f"{name} = {value:.6g} {layers.END_TO_END[name]}{note}")
    log(f"failed_share = {failed / attempted if attempted else 1.0:.6g} "
        f"({failed} of {attempted} operations)")
    for p in problems[:20]:
        log(f"problem: {p}")

    if trace:
        ctx = {
            "isogenies": desc["isogenies"],
            "order_two_targets": desc["order_two_targets"],
            "child_cpu_s": child_cpu,
            "worker_util": child_cpu / (workers * measured_wall) if workers else 0.0,
            "json_bytes": traced["json_bytes"],
            "tasks": desc["tasks"],
            "q1_share": desc["q1_share"],
            "traced_wall_s": traced["wall_s"],
            "overhead_s": wall_at_reference(traced) - e2e["wall_s"],
            "processes": traced["processes"],
        }
        values = layers.per_layer_metrics(traced["trace"], ctx)
        metrics = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER.items()}
        sites = traced["trace_sites"]
        log(f"traced round: wall {traced['wall_s']:.6g} s; {len(sites)} functions wrapped in "
            f"{sum(sites.values())} namespaces; not defined by the program: "
            f"{traced['trace_absent'] or 'none'}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in layers.END_TO_END.items()}
    correct = failed == 0 and not problems and attempted > 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def wall_at_reference(rnd: dict) -> float:
    """The round's wall time at reference speed, call by call."""
    return sum(at_reference(seconds, speed_s) for seconds, speed_s in rnd["timed"])


def _trace_problems(workload: str, traced: dict) -> list[str]:
    stats = traced["trace"]["stats"]
    absent = set(traced["trace_absent"])
    problems = []
    for name in layers.EXPECTED.get(workload, []):
        if name in absent:
            problems.append(f"trace: {name} is not defined by the program")
        elif stats.get(name, [0])[0] == 0:
            problems.append(f"trace: {name} recorded no calls on {workload}")
    return problems


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def program_present() -> bool:
    return (ROOT / "src" / "isogeny_lab" / "__init__.py").is_file()


# --- smoke mode -------------------------------------------------------------------


def smoke() -> int:
    """Tiny-band self-check of the benchmark itself (about half a minute)."""
    name = W.SMOKE_WORKLOAD
    refs = load_references()
    quiet = lambda *a: None  # noqa: E731
    checks = []

    a = run_benchmark(name, 1, 1, False, refs, log=quiet)
    b = run_benchmark(name, 2, 1, False, refs, log=quiet)
    t = run_benchmark(name, 1, 1, True, refs, log=quiet)
    declared = {}
    if (ROOT / "BENCHMARK.json").is_file():
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        declared = {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                    "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}

    def named_with_units(res, wanted):
        return (set(res["metrics"]) == set(wanted)
                and all(res["metrics"][k]["unit"] == u
                        and isinstance(res["metrics"][k]["value"], (int, float))
                        for k, u in wanted.items()))

    checks.append(("clean verdicts at seeds 1 and 2, traced and untraced",
                   all(r["correct"] and r["failed"] == 0 for r in (a, b, t))))
    checks.append(("every end-to-end metric printed with its unit",
                   named_with_units(a, layers.END_TO_END)
                   and declared.get("end_to_end", layers.END_TO_END) == layers.END_TO_END))
    checks.append(("every per-layer metric printed with its unit",
                   named_with_units(t, layers.PER_LAYER)
                   and declared.get("per_layer", layers.PER_LAYER) == layers.PER_LAYER))
    checks.append(("another seed changes the task set, not the metric names",
                   W.task_keys(W.make_inputs(name, 1)) != W.task_keys(W.make_inputs(name, 2))
                   and set(a["metrics"]) == set(b["metrics"])))
    expected = layers.EXPECTED[name]
    gone = {"trace": {"stats": {f: [1, 0.0] for f in expected[1:]}, "extra": {}},
            "trace_absent": expected[:1]}
    checks.append(("an expected function the program no longer defines fails the trace",
                   len(_trace_problems(name, gone)) == 1))
    corrupted = json.loads(json.dumps(refs))
    victim = W.task_keys(W.make_inputs(name, 1))[0]
    corrupted[name]["digests"][victim] = "0" * 64
    c = run_benchmark(name, 1, 1, False, corrupted, log=quiet)
    checks.append(("a corrupted reference digest raises failed_share",
                   c["failed"] > 0 and not c["correct"]))
    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


# --- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's self-check")
    args = ap.parse_args(argv)
    if not program_present():
        print(f"perfbench: the program's source is missing ({ROOT / 'src' / 'isogeny_lab'})",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               load_references())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
