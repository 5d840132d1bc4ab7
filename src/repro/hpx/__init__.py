"""An HPX-5-like asynchronous many-tasking runtime on a simulated cluster.

This package reproduces the HPX-5 programming model of Section III of
the paper - a global address space, active-message *parcels* that are
the only way to spawn lightweight threads, and event-driven *LCOs*
(local control objects) that co-locate data and control - on top of a
discrete-event simulation of a cluster: L localities x W worker cores,
a virtual clock, per-worker task deques with local randomized work
stealing, and a latency/bandwidth network with per-NIC serialization.

The simulation executes *real* task bodies (arbitrary Python callables,
e.g. actual expansion translations), so the dataflow is genuine; only
*time* is virtual, advanced by the per-task cost the body charges from a
calibrated cost model (or the task's static cost).  This is the documented
substitution for the paper's Big Red II runs (see DESIGN.md): scaling
behaviour emerges from DAG structure, task grain and communication,
all of which are modelled explicitly.

Like HPX-5 itself, the runtime is application-agnostic; everything
FMM-specific lives in :mod:`repro.dashmm`.
"""

from repro.hpx.checkpoint import RuntimeCheckpoint
from repro.hpx.gas import GlobalAddress, GlobalAddressSpace
from repro.hpx.hazards import HazardDetector, HazardReport, concurrent, happens_before
from repro.hpx.lco import AndLCO, Future, LCO, LCOError, ReductionLCO
from repro.hpx.network import FaultyNetwork, InfiniteNetwork, NetworkModel
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.hpx.scheduler import (
    ReplayDivergence,
    ScheduleFuzzer,
    ScheduleReplayer,
    Task,
)
from repro.hpx.tracing import ScheduleTrace, TraceEvent, Tracer
from repro.hpx.transport import DirectTransport, ReliableTransport, TransportError

__all__ = [
    "GlobalAddress",
    "GlobalAddressSpace",
    "HazardDetector",
    "HazardReport",
    "happens_before",
    "concurrent",
    "LCO",
    "LCOError",
    "Future",
    "AndLCO",
    "ReductionLCO",
    "NetworkModel",
    "InfiniteNetwork",
    "FaultyNetwork",
    "Parcel",
    "Runtime",
    "RuntimeConfig",
    "RuntimeCheckpoint",
    "Task",
    "ScheduleFuzzer",
    "ScheduleReplayer",
    "ScheduleTrace",
    "ReplayDivergence",
    "Tracer",
    "TraceEvent",
    "DirectTransport",
    "ReliableTransport",
    "TransportError",
]
