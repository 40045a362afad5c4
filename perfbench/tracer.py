"""Span tracer for the traced bench run.

It wraps synthrf's public functions from outside the package, in every
module namespace that holds a reference to them (``synthrf.cdma.resample``
as well as ``synthrf.dsp.resample``), so a call made anywhere inside the
package opens a span whose parent is the span of its caller.  Spans are kept
in memory and handed out at the end of the run.

Each span records its name, start, end and parent.  With memory tracing on,
it also records the peak of memory traced by ``tracemalloc`` while it was
open, counted from the span's start; tracemalloc slows Python-level loops
several-fold, so timings are taken from passes run without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from pathlib import Path

MODULES = ("prn", "dsp", "channel", "cdma", "prs", "receiver", "iqio", "cli")
MIB = 1 << 20


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


# Per-call counts taken from a function's arguments or result, keyed by span
# name, so ratios can be formed where the work happens.
COUNTERS = {
    "receiver.acquire": lambda args, res: {"accepted": int(res.acquired)},
    "receiver.track": lambda args, res: {"epochs": len(res)},
    "iqio.write_iq": lambda args, res: {"bytes": _file_bytes(args[0])},
    "channel.store_channel": lambda args, res: {"bytes": _file_bytes(args[1])},
    "channel.propagate_and_sum": lambda args, res: {
        "paths": sum(len(args[1].source(sid).paths) for sid in args[0])},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "base", "high", "extra")

    def __init__(self, name: str, parent: int, base: int):
        self.name = name
        self.parent = parent
        self.base = base
        self.high = base
        self.start = self.end = 0.0
        self.extra = None

    def as_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "peak_alloc": self.high - self.base,
                "extra": self.extra}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, Span]] = []
        self.enabled = False
        self.memory = False

    def install(self) -> None:
        """Replace every public synthrf function by a span-recording wrapper."""
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(f"synthrf.{modname}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("synthrf.")):
                    continue
                # the CLI's subcommand handlers and helpers are the CLI
                # layer's own work: they count as self time of cli.main
                if obj.__module__ == "synthrf.cli" and attr != "main":
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(mod, attr, wrappers[obj])

    def start(self, memory: bool) -> None:
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.enabled = True

    def stop(self) -> list[dict]:
        """Stop recording and hand out the spans recorded since start()."""
        self.enabled = False
        if self.memory:
            tracemalloc.stop()
        spans, self.spans = [s.as_dict() for s in self.spans], []
        return spans

    @contextlib.contextmanager
    def paused(self):
        """Run bench-side checks that call synthrf without recording spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = COUNTERS.get(name)
        per_command = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = f"{name}.{args[0][0]}" if per_command else name
            index = self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                self.spans[index].extra = count(args, result)
            return result

        return wrapper

    def _mark(self) -> int:
        """Fold the allocation peak since the last mark into every open span."""
        if not self.memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _, span in self._stack:
            span.high = max(span.high, peak)
        return current

    def _enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        span = Span(name, parent, self._mark())
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append((index, span))
        span.start = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._mark()
        self._stack.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total and self seconds, calls, peak allocation, counts."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        agg = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                         "peak_alloc_mib": 0.0})
        agg["s"] += s["end"] - s["start"]
        agg["self_s"] += self_s
        agg["calls"] += 1
        agg["peak_alloc_mib"] = max(agg["peak_alloc_mib"], s["peak_alloc"] / MIB)
        for key, value in (s["extra"] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def subtree_self_sum(spans: list[dict], root_name: str) -> tuple[float, float]:
    """(sum of span durations named root_name, sum of self times in their subtrees)."""
    own = self_times(spans)
    in_tree = [False] * len(spans)
    total = covered = 0.0
    for i, s in enumerate(spans):  # parents always precede their children
        if s["name"] == root_name:
            in_tree[i] = True
            total += s["end"] - s["start"]
        elif s["parent"] >= 0 and in_tree[s["parent"]]:
            in_tree[i] = True
        if in_tree[i]:
            covered += own[i]
    return total, covered
