"""The benchmark's workloads: inputs drawn from a seed, the verification
calls each workload makes, and the digests its verdicts are checked by.

Every workload is a closed loop with one caller: a batch verification job
with no arrival rate, driven from one process (`sweep-mixed-2w` fans its
tasks out to a pool of two workers from that process).

This module imports nothing from the package at import time, so run.py
can draw inputs without loading the program; the round process passes
the imported `isogeny_lab.verify` module to `run`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

import speed

WORKLOADS = ("sweep-ell3", "sweep-ell7", "theorem2-ext", "sweep-mixed-2w")
SMOKE_WORKLOAD = "smoke-ell3"

# Sweep bands (ell, q_min, q_max, block).  Primes are stratified by the
# order of q in (Z/ell)^*, which fixes the degrees in which psi_ell factors
# over F_q and so the cost class of a task (for ell = 3 the strata are the
# residues mod 3).  Within a stratum consecutive primes form blocks and the
# seed picks one prime per block, so every seed draws the same mix of
# residues and sizes.  The bands are narrower than a full acceptance sweep
# so that a run repeats the whole sample in several fresh interpreters.
SWEEPS = {
    "sweep-ell3": (3, 60, 90, 2),
    "sweep-ell7": (7, 100, 127, 2),
    SMOKE_WORKLOAD: (3, 5, 30, 2),
}

# theorem2-ext: (q, ell) product checks whose factor targets split E[ell]
# only over F_{q^k} with k > 1 (k = 2 for ell = 3 and q = 2 mod 3; k = 4 at
# (7, 5)).  The seed picks one pair per block; the pairs of a block cost
# about the same.  (41, 3) costs between the other two blocks, so it is the
# median product check whatever the seed.  (19, 5), k = 2, costs a fifth
# more than (7, 5), so it has no block of its own to share with it.
PRODUCT_BLOCKS = (
    ((11, 3), (17, 3)),
    ((41, 3),),
    ((7, 5),),
)
# Trials per suite; the seed is the suites' trial seed.  The cost of one
# theorem2_trial is heavy-tailed (median 6 ms, 99th percentile 0.4 s, and
# about one draw in a few hundred spends 10 s or more closing a large group
# in galois_modules), so its count is kept small.
TRIALS = {"lemma42_trial": 20, "theorem2_trial": 4, "cyclic_law_trial": 80}

# sweep-mixed-2w: one run_sweep over ell in {3, 5, 7} with two pool
# workers; the seed picks one band [q_min, q_max) of two consecutive primes.
# The bands have about equal total cost, and in each the dearest task
# (ell = 3) costs six to eight times the cheapest (ell = 7).
MIXED_ELLS = (3, 5, 7)
MIXED_BANDS = ((97, 102), (101, 104))
MIXED_THREADS = 2


def primes_in_range(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _mult_order(q: int, ell: int) -> int:
    k, x = 1, q % ell
    while x != 1:
        x = x * q % ell
        k += 1
    return k


def sweep_sample(ell: int, q_min: int, q_max: int, block: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    strata: dict[int, list[int]] = {}
    for q in primes_in_range(q_min, q_max):
        if q != ell:
            strata.setdefault(_mult_order(q, ell), []).append(q)
    picked = []
    for order in sorted(strata):
        qs = strata[order]
        for i in range(0, len(qs), block):
            picked.append(rng.choice(qs[i:i + block]))
    return sorted(picked)


def make_inputs(name: str, seed: int) -> dict:
    """The inputs of one workload at one seed; equal seeds give equal inputs."""
    if name in SWEEPS:
        ell, q_min, q_max, block = SWEEPS[name]
        return {"kind": "sweep", "ell": ell, "qs": sweep_sample(ell, q_min, q_max, block, seed)}
    if name == "theorem2-ext":
        rng = random.Random(seed)
        return {"kind": "theorem2",
                "products": [list(rng.choice(block)) for block in PRODUCT_BLOCKS],
                "trials": dict(TRIALS), "trial_seed": seed}
    if name == "sweep-mixed-2w":
        q_min, q_max = random.Random(seed).choice(MIXED_BANDS)
        return {"kind": "mixed", "ells": list(MIXED_ELLS), "q_min": q_min,
                "q_max": q_max, "threads": MIXED_THREADS}
    raise ValueError(f"unknown workload {name!r}")


def tasks(inputs: dict) -> list[tuple[int, int]]:
    """The (q, ell) tasks or product checks the inputs ask for."""
    kind = inputs["kind"]
    if kind == "sweep":
        return [(q, inputs["ell"]) for q in inputs["qs"]]
    if kind == "theorem2":
        return [(q, ell) for q, ell in inputs["products"]]
    return [(q, ell) for ell in inputs["ells"]
            for q in primes_in_range(inputs["q_min"], inputs["q_max"]) if q != ell]


def task_keys(inputs: dict) -> list[str]:
    key = product_key if inputs["kind"] == "theorem2" else task_key
    return [key(q, ell) for q, ell in tasks(inputs)]


def task_key(q: int, ell: int) -> str:
    return f"task:{q},{ell}"


def product_key(q: int, ell: int) -> str:
    return f"product:{q},{ell}"


def mixed_key(inputs: dict) -> str:
    return f"sweep:{inputs['q_min']}-{inputs['q_max']}"


def q1_share(inputs: dict) -> float:
    pairs = tasks(inputs)
    return sum(1 for q, ell in pairs if q % ell == 1) / len(pairs)


def digest(report_json: str) -> str:
    """SHA-256 of the deterministic part of a report: all but `timing`."""
    data = json.loads(report_json)
    data.pop("timing", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# --- running a workload ---------------------------------------------------------


def run(inputs: dict, V, tracer=None) -> dict:
    """Make every verification call of the inputs once.

    Returns the operations with their times and verdict digests, the wall
    time from the first call's start to the last call's end, and the report
    JSON volume.  Digests are taken after the timed calls.  An exception
    inside a call is recorded as that operation's error; it never stops the
    remaining calls.

    A speed.Meter runs while the calls do.  Each operation's `seconds`
    leaves out the slices run inside it, and its `speed_s` is their mean
    time; `timed` lists both for the calls that make up the wall time.  A
    pooled sweep's workers meter their own tasks, and the sweep's `speed_s`
    is the mean of all their slices.
    """
    kind = inputs["kind"]
    meter = speed.Meter()
    if kind == "sweep":
        calls = [(task_key(q, inputs["ell"]), V.run_sweep, ([inputs["ell"]],),
                  {"q_min": q, "q_max": q + 1, "threads": 1}) for q in inputs["qs"]]
    elif kind == "theorem2":
        calls = [(product_key(q, ell), V.verify_theorem2_products, (q, ell), {})
                 for q, ell in inputs["products"]]
        calls += [("counterexample", V.reproduce_paper_counterexample, (), {}),
                  ("necessity", V.abstract_necessity_witness, (), {})]
        calls += [(f"suite:{suite}", _run_suite, (V, suite, count, inputs["trial_seed"]), {})
                  for suite, count in inputs["trials"].items()]
    else:
        calls = [(mixed_key(inputs), V.run_sweep, (inputs["ells"],),
                  {"q_min": inputs["q_min"], "q_max": inputs["q_max"],
                   "threads": inputs["threads"]})]
        probe = SweepTaskProbe(V, tracer)
    if kind != "mixed":
        # the caller of a pooled sweep only waits; its workers meter
        meter.start()
    done = []  # (key, report or None, error, seconds, speed_s)
    first = time.perf_counter()
    for key, fn, args, kwargs in calls:
        if tracer is not None:
            tracer.op = key
        t0 = time.perf_counter()
        rep, error = None, None
        try:
            rep = fn(*args, **kwargs)
        except Exception as exc:  # recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        done.append((key, rep, error) + meter.split(t0, time.perf_counter()))
    wall_s = time.perf_counter() - first
    meter.stop()

    if kind == "mixed":
        probe.restore()
        slices = probe.slices or [speed.loop_s()]
        done = [d[:4] + (sum(slices) / len(slices),) for d in done]
    out = {"wall_s": wall_s, "timed": [[d[3], d[4]] for d in done],
           "slices": [s for _, s in meter.slices] + (probe.slices if kind == "mixed" else []),
           "ops": [], "json_bytes": 0, "counts": []}
    if kind == "mixed":
        done += probe.tasks
    for key, rep, error, seconds, speed_s in done:
        op = {"key": key, "seconds": seconds, "speed_s": speed_s, "error": error,
              "digest": None}
        if isinstance(rep, dict):  # a trial suite
            op.update(rep)
        elif rep is not None:
            text = rep.to_json()
            out["json_bytes"] += len(text)
            op["digest"] = digest(text)
        out["ops"].append(op)
        if rep is not None and (kind == "sweep" or key.startswith("sweep:")):
            # sweep counts describe the workload: one report per task, or
            # the merged report of the pooled sweep
            out["counts"].append(rep.counts)
    if kind == "mixed":
        out["worker_traces"] = probe.traces
        out["workers"] = len(probe.pids)
    return out


def _run_suite(V, suite: str, count: int, seed: int) -> dict:
    """The suite's trial count and failures; an error inside a trial raises."""
    trial_fn = getattr(V, suite)
    ran = [0]

    def counted(rng):
        ran[0] += 1
        return trial_fn(rng)

    failures = V.run_trials(counted, count, seed)
    return {"trials": ran[0], "failures": failures}


class SweepTaskProbe:
    """Per-task times and reports of a pooled `run_sweep`.

    `run_sweep` returns only the merged report, so the probe wraps the
    sweep's task function, which the pool workers look up by name: each
    worker meters its tasks with a speed.Meter of its own and attaches the
    task's time, the slices run during it and, when tracing, the task's
    trace delta to the task report it sends back.  The probe collects the
    task reports that `run_sweep` hands to `merge_reports`.
    """

    def __init__(self, V, tracer):
        self.V = V
        self.tasks: list[tuple] = []  # (key, report, error, seconds, speed_s)
        self.slices: list[float] = []  # the workers' slice times
        self.traces: list[dict] = []
        self.pids: set[int] = set()
        self._orig_task = task_fn = V._sweep_task
        self._orig_merge = merge_fn = V.merge_reports
        state = {"pid": os.getpid()}

        def _sweep_task(args):
            if state["pid"] != os.getpid():
                # a fresh worker: drop what it inherited from the parent,
                # and start its own meter, as a fork keeps no timer
                state["pid"] = os.getpid()
                state["meter"] = speed.Meter()
                state["meter"].start()
                if tracer is not None:
                    tracer.reset()
            meter = state["meter"]
            key = task_key(args[0], args[1])
            if tracer is not None:
                tracer.op = key
                aux0 = aux_cache_counts()
            t0 = time.perf_counter()
            rep = task_fn(args)
            t1 = time.perf_counter()
            seconds, speed_s = meter.split(t0, t1)
            info = {"key": key, "seconds": seconds, "speed_s": speed_s, "pid": os.getpid(),
                    "slices": [s for start, s in meter.slices if t0 <= start <= t1]}
            if tracer is not None:
                snap = tracer.snapshot()
                aux1 = aux_cache_counts()
                snap["extra"]["aux.hits"] = aux1[0] - aux0[0]
                snap["extra"]["aux.misses"] = aux1[1] - aux0[1]
                info["trace"] = {"trace": snap, "spans": list(tracer.spans),
                                 "pid": os.getpid(), "op": key}
                tracer.reset()
            rep._bench = info
            return rep

        def merge_reports(parameters, reports):
            for rep in reports:
                info = getattr(rep, "_bench", None)
                if info is not None:
                    self.pids.add(info["pid"])
                    if "trace" in info:
                        self.traces.append(info["trace"])
                    self.slices += info["slices"]
                    self.tasks.append((info["key"], rep, None, info["seconds"],
                                       info["speed_s"]))
            return merge_fn(parameters, reports)

        _sweep_task.__module__ = task_fn.__module__
        _sweep_task.__qualname__ = task_fn.__qualname__
        V._sweep_task = _sweep_task
        V.merge_reports = merge_reports

    def restore(self):
        self.V._sweep_task = self._orig_task
        self.V.merge_reports = self._orig_merge


def aux_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the auxiliary-point cache of the pairing code."""
    cached = getattr(sys.modules.get("isogeny_lab.curves"), "_aux_point_stream", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses
