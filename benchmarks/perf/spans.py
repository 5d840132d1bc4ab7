"""In-memory span recorder for the traced (``--trace 1``) run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/`` is instrumented.
A span carries its name, start, end, the span that caused it (``parent``)
and an ``op`` identifier shared by every span of one operation.  Spans
stay in memory until the run ends; :meth:`SpanRecorder.chrome_trace`
then renders them for ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block; a span opened with none open starts an op."""
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._ops += 1
        s = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            op=self._ops if parent is None else parent.op,
            start=perf_counter(),
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    @contextmanager
    def wrapping(self, owner: type, attr: str, name: str):
        """While the block runs, every call of ``owner.attr`` is a span.

        ``owner`` is the class that defines the public method; the
        original is put back on exit, also when the block raises.
        """
        original = vars(owner)[attr]

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading the spans back -------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def children(self, root_name: str) -> dict[str, list[float]]:
        """Name -> durations of the spans whose parent is called ``root_name``."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].name == root_name:
                out.setdefault(s.name, []).append(s.duration)
        return out

    def chrome_trace(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": s.id, "parent": s.parent, "op": s.op},
                }
                for s in self.spans
            ],
        }
