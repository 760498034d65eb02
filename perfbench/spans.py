"""In-memory span tracer and counters for the benchmark harness.

A span records one call into a layer of the package: its name, start, end,
parent span and run id. Spans are kept in memory and written out once the run
ends. With tracing disabled ``span`` returns a shared no-op context, so the
untraced run pays one method call per layer boundary.

Counters (work done, as exact counts) are always recorded: they feed the
repeat checks in every run, traced or not.
"""
from __future__ import annotations

import contextlib
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str, iteration: int, enabled: bool):
        self.run_id = run_id
        self.iteration = iteration
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one layer call; ``name`` starts with the
        layer (module) name, e.g. ``dataset.load``."""
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        record = {
            "name": name,
            "run_id": self.run_id,
            "iteration": self.iteration,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the part of it
        that its child spans cover, summed by the span name's first part."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return out


def span_cost(n: int = 20000, trials: int = 5) -> float:
    """Seconds one enabled span costs more than a disabled one: the fastest
    of ``trials`` loops of ``n`` empty spans each way, per span."""

    def fastest(enabled: bool) -> float:
        tr = Tracer("span_cost", 0, enabled)
        times = []
        for _ in range(trials):
            tr.spans.clear()
            t0 = time.perf_counter()
            for _ in range(n):
                with tr.span("span_cost"):
                    pass
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(fastest(True) - fastest(False), 0.0) / n
