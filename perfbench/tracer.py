"""Call tracer for the traced benchmark round.

Wraps named functions of the package from outside: every namespace that
bound the original object (the defining module, modules that imported it by
name, the package root) gets the wrapper, so calls are seen whichever name
the caller used.  Kernel-level functions run millions of times, so every
wrapped function only aggregates calls, self time and raises by exception
type; full spans (name, start, end, parent, operation) are kept for the
coarse boundaries only, held in memory and written once when the round ends.

Self time of a call is its duration minus the time spent in wrapped calls
it made, so the self times of one process never overlap and their sum is at
most the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "isogeny_lab"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.op = None  # key of the operation whose calls are running
        self.absent: list[str] = []
        self.sites: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []

    # --- installation -------------------------------------------------------

    def install(self, targets):
        """Wrap every (module, qualname, hook, span) target that exists.

        A target the program no longer defines is listed in `absent` and
        reports zero calls; the caller decides whether that is an error.
        """
        for module_name, qualname, hook, span in targets:
            name = traced_name(module_name, qualname)
            owner = sys.modules.get(module_name)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None) if owner is not None else None
            self.stats[name] = [0, 0.0]
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, hook, span)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                self.sites[name] = 1
            else:
                self.sites[name] = _rebind(orig, wrapper)

    def _wrap(self, name, fn, hook, span):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                span_id = tracer._open_span()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.extra[f"{name}.raise.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    tracer._close_span(span_id, name, t0, t1)
            if hook is not None:
                hook(tracer.extra, args, result)
            return result

        return wrapper

    # --- spans ----------------------------------------------------------------

    def _open_span(self) -> int:
        span_id = len(self.spans) + len(self._span_stack)
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id, name, t0, t1):
        self._span_stack.pop()
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append((span_id, parent, name, self.op, t0, t1))

    # --- results ----------------------------------------------------------------

    def reset(self):
        for row in self.stats.values():
            row[:] = [0, 0.0]
        self.extra.clear()
        self.spans.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "extra": dict(self.extra)}


def traced_name(module_name: str, qualname: str) -> str:
    """`isogeny_lab.graphs`, `FqTables._build_orders` -> `graphs.FqTables._build_orders`."""
    return f"{module_name.rsplit('.', 1)[-1]}.{qualname}"


def _rebind(orig, wrapper) -> int:
    """Replace `orig` by `wrapper` in every package namespace bound to it."""
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                sites += 1
    return sites


def merge_snapshots(snaps) -> dict:
    stats: dict[str, list] = {}
    extra: Counter = Counter()
    for snap in snaps:
        for name, (calls, self_s) in snap["stats"].items():
            row = stats.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        extra.update(snap["extra"])
    return {"stats": stats, "extra": dict(extra)}
