"""Execution-event tracing (Section V.B of the paper).

The paper instruments DASHMM to emit events marking the beginning and
end of every operation class (translations, evaluations, accumulations,
direct interactions); utilization fractions are computed from these
traces via Eq. (1)-(2).  The tracer here records one interval per
operation segment: ``(worker, op_class, t_start, t_end)``.

Intervals accumulate in plain lists and are exported as numpy arrays on
demand; :mod:`repro.analysis.utilization` bins them into the
utilization fractions.

Besides busy intervals this module also defines the *schedule decision
trace* (:class:`ScheduleTrace`): the flat, replayable record of every
nondeterministic scheduling choice a fuzzed run made - ready-queue
tie-breaks, steal victim selection, idle-worker wakeups, task placement
and parcel coalescing order.  Feeding a saved trace back through
``RuntimeConfig(replay_schedule=...)`` reproduces the run decision for
decision, which is what turns a fuzzer-found failure into a committed
regression test (see DESIGN.md, "Happens-before model & replay").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TraceEvent:
    worker: int
    op_class: str
    t_start: float
    t_end: float


class Tracer:
    """Collects per-worker, per-class busy intervals on the virtual clock."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._worker: list[int] = []
        self._cls: list[str] = []
        self._t0: list[float] = []
        self._t1: list[float] = []

    def record(self, worker: int, op_class: str, t_start: float, t_end: float) -> None:
        if not self.enabled or t_end <= t_start:
            return
        self._worker.append(worker)
        self._cls.append(op_class)
        self._t0.append(t_start)
        self._t1.append(t_end)

    def __len__(self) -> int:
        return len(self._t0)

    @property
    def classes(self) -> list[str]:
        return sorted(set(self._cls))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(worker, class-id, t0, t1) arrays plus see :attr:`classes`."""
        cls_index = {c: i for i, c in enumerate(self.classes)}
        return (
            np.array(self._worker, dtype=np.int64),
            np.array([cls_index[c] for c in self._cls], dtype=np.int64),
            np.array(self._t0),
            np.array(self._t1),
        )

    def events(self) -> list[TraceEvent]:
        return [
            TraceEvent(w, c, a, b)
            for w, c, a, b in zip(self._worker, self._cls, self._t0, self._t1)
        ]

    def to_csv(self, path) -> None:
        """Export the trace (worker, op_class, t_start, t_end) as CSV."""
        with open(path, "w") as f:
            f.write("worker,op_class,t_start,t_end\n")
            for w, c, a, b in zip(self._worker, self._cls, self._t0, self._t1):
                f.write(f"{w},{c},{a!r},{b!r}\n")

    @classmethod
    def from_csv(cls, path) -> "Tracer":
        """Load a trace written by :meth:`to_csv`."""
        tr = cls(enabled=True)
        with open(path) as f:
            next(f)  # header
            for line in f:
                w, c, a, b = line.rstrip("\n").split(",")
                tr.record(int(w), c, float(a), float(b))
        return tr

    def busy_time(self, op_class: str | None = None) -> float:
        """Total busy time, optionally restricted to one class."""
        if op_class is None:
            return float(np.sum(np.array(self._t1) - np.array(self._t0))) if self._t0 else 0.0
        tot = 0.0
        for c, a, b in zip(self._cls, self._t0, self._t1):
            if c == op_class:
                tot += b - a
        return tot


#: decision kinds a schedule trace may contain, in the vocabulary of the
#: fuzzer/replayer (see :mod:`repro.hpx.scheduler`):
#:
#: * ``tie``        - ready-queue tie-break key for one event push
#: * ``victim``     - steal victim worker id
#: * ``wake``       - idle worker chosen to receive a fresh task
#: * ``place``      - worker a task is placed on when nobody is idle
#: * ``coalesce``   - destination-locality order of one out-edge wave
#: * ``interleave`` - near/far pipelining pick: critical level vs the
#:   filler (near-field) level, when both hold work under an
#:   interleaving policy
SCHEDULE_DECISION_KINDS = ("tie", "victim", "wake", "place", "coalesce", "interleave")


@dataclass
class ScheduleTrace:
    """A replayable record of every schedule decision of one run.

    ``decisions`` is a flat list of ``[kind, value]`` pairs in the exact
    order the run consumed them; ``meta`` carries provenance (the fuzz
    seed, free-form workload notes) so a trace file is self-describing.
    All values are JSON-native (ints or lists of ints), so a trace
    round-trips losslessly through :meth:`save`/:meth:`load` and can be
    committed next to the regression test that replays it.
    """

    meta: dict = field(default_factory=dict)
    decisions: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    def counts(self) -> dict[str, int]:
        """Decision tally by kind (diagnostic/diversity metric)."""
        out: dict[str, int] = {}
        for kind, _ in self.decisions:
            out[kind] = out.get(kind, 0) + 1
        return out

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"meta": self.meta, "decisions": self.decisions}, f)

    @classmethod
    def load(cls, path) -> "ScheduleTrace":
        with open(path) as f:
            raw = json.load(f)
        return cls(meta=raw.get("meta", {}), decisions=raw["decisions"])
