"""In-memory spans around the benchmark's calls into the library.

A span has a name, start and end (seconds since the tracer was made), the
id of the span that encloses it, and the run id shared by every span of one
benchmark process. The span's layer is the part of its name before the
first dot, so ``chains.spectral_gap`` belongs to the ``chains`` module.
A span can also record the tracemalloc peak of what was allocated inside
it.

``NullTracer`` has the same interface and records nothing, so untraced
runs execute the same workload code.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

MB = float(1 << 20)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    peak_mb: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    enabled = False

    def span(self, name: str, memory: bool = False):
        return nullcontext()


class Tracer:
    """Records nested spans. A span opened with ``memory=True`` runs
    tracemalloc for its duration and stores the peak of what was allocated
    inside it; tracemalloc slows allocation-heavy Python several times, so
    only the calls whose memory matters turn it on."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, memory: bool = False):
        parent = self._stack[-1].id if self._stack else None
        if memory:
            tracemalloc.start()
        sp = Span(id=len(self.spans), parent=parent, name=name, start=self.now())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.now()
            self._stack.pop()
            if memory:
                sp.peak_mb = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sp.id, "parent": sp.parent,
                    "name": sp.name, "start": sp.start, "end": sp.end,
                    "peak_mb": sp.peak_mb}) + "\n")


def self_times(spans: list[Span], until: float | None = None) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the time its direct
    children cover. Only spans ending by ``until`` count, when given."""
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
    out: dict[str, float] = {}
    for sp in spans:
        if until is not None and sp.end > until:
            continue
        own = sp.duration - child_time.get(sp.id, 0.0)
        out[sp.layer] = out.get(sp.layer, 0.0) + own
    return out
