"""Timing and tracing of the public calls the benchmark makes.

A ``Probe`` times every call routed through it and adds the time to a
per-name total, so the untraced run pays two clock reads per call. With
tracing on it also keeps one span per call, ``(id, name, start, end,
parent, op)``, whose parent is the span of the operation that made the call.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from pinassign import Infeasible

LAYERS = ("board", "request", "solver", "counting", "codegen", "configops", "cli")
# Time of one reference_task() on the idle host the benchmark was built on.
REFERENCE_S = 0.0012


class Probe:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear the totals (spans are kept)."""
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.values: defaultdict[str, float] = defaultdict(float)
        self.verdicts: list[tuple[int, float]] = []  # (op index, seconds)
        self.delivered = 0
        self.deliver_s = 0.0
        self.op_index = -1
        self._op_span: int | None = None
        self._first_span = len(self.spans)

    def begin_op(self, index: int) -> None:
        self.op_index = index
        self._op_span = next(self._ids)
        self._op_start = perf_counter()

    def end_op(self, name: str) -> float:
        end = perf_counter()
        if self.tracing:
            self.spans.append((self._op_span, f"op.{name}", self._op_start, end, None, self.op_index))
        return end - self._op_start

    def _record(self, name: str, start: float, end: float) -> None:
        self.busy[name] += end - start
        self.calls[name] += 1
        if self.tracing:
            self.spans.append((next(self._ids), name, start, end, self._op_span, self.op_index))

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call; the duration is left in ``self.last_s``."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.last_s = end - start
            self._record(name, start, end)

    def verdict(self, fn, *args):
        """A ``find_feasible`` call, kept as a latency sample even if it raises."""
        try:
            outcome = self.call("solver.find_feasible", fn, *args)
        finally:
            self.verdicts.append((self.op_index, self.last_s))
        if isinstance(outcome, Infeasible):
            self.add("solver.find_feasible.infeasible", 1)
        return outcome

    def stream(self, name: str, fn, *args, read: bool = False):
        """Consume every solution ``fn(*args)`` yields; one span covers it all.

        Count-only unless ``read``, which folds each solution's pins and
        total cost into a digest the way a reader would touch them. Returns
        (solutions, seconds to the first solution, hex digest or None).
        """
        digest = hashlib.sha256() if read else None
        start = perf_counter()
        try:
            solutions = iter(fn(*args))
            first = next(solutions, None)
            first_at = perf_counter()
            count = 0
            if first is not None:
                if digest is None:
                    count = 1 + sum(1 for _ in solutions)
                else:
                    for solution in itertools.chain((first,), solutions):
                        fold(digest, solution)
                        count += 1
        finally:
            end = perf_counter()
            self.last_s = end - start
            self._record(name, start, end)
        return count, first_at - start, digest.hexdigest() if digest else None

    def deliver(self, count: int, seconds: float) -> None:
        """Solutions (or answers) the solver delivered, and the time it took."""
        self.delivered += count
        self.deliver_s += seconds

    def add(self, name: str, value: float) -> None:
        self.values[name] += value

    def pass_spans(self) -> list[tuple]:
        return self.spans[self._first_span :]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def reference_task() -> int:
    """Fixed pure-Python work that shares no code with pinassign: tuple, dict,
    set, sort and call operations. Its time tracks the machine's speed."""
    counts: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * 7 % 11
        seen.add(i * 31 % 257)
    return len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))) + len(seen)


def time_reference() -> float:
    """The fastest of three back-to-back runs: the first runs with caches the
    program under test left cold, which the program's changes would move."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
    return min(times)


def machine_factor(samples: list[float]) -> float:
    """How much slower than nominal the machine ran, from reference timings.

    The host this benchmark runs on is shared, and its speed drifts by up to
    two fifths within minutes. Times divided by this factor are the times on
    the host at REFERENCE_S per reference task.
    """
    return statistics.median(samples) / REFERENCE_S


def fold(digest, assignment) -> None:
    """Fold one solution's pins and total cost into a running digest."""
    pins = ",".join(b.pin for b in assignment.bindings)
    digest.update(f"{pins}:{assignment.total_cost};".encode())


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Busy time, self time and call count per layer.

    A span's layer is its name up to the first dot. Self time is the span's
    duration minus the time its child spans cover.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
    for span_id, name, start, end, _, _ in spans:
        layer = name.split(".", 1)[0]
        if layer not in out:
            continue
        out[layer]["busy_s"] += end - start
        out[layer]["self_s"] += end - start - child_time[span_id]
        out[layer]["calls"] += 1
    return out
