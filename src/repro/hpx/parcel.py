"""Parcels: active messages, the basis of parallel computation.

A parcel contains a description of the action to perform, argument
data, and (optionally) continuation information, and is sent to the
global address on which the action should run.  The scheduler invokes
arriving parcels as lightweight threads; *sending a parcel is the only
way to spawn a thread* - in shared-memory execution all targets simply
live on one locality (Section III).
"""

from __future__ import annotations

from repro.hpx.gas import GlobalAddress


class Parcel:
    """An active message.

    ``action`` is a registered action name; ``target`` the global
    address (or bare locality index) it runs at; ``args`` arbitrary
    argument data; ``size_bytes`` the modelled wire size (argument data
    plus header) used by the network model; ``op_class`` labels the
    spawned thread's work for tracing; ``priority`` is the scheduling
    hint evaluated only when the runtime has priorities enabled (the
    paper's proposed HPX-5 extension - 0 is high, 1 is low).

    ``target_locality`` is resolved once, here: the scheduler, the
    transport and the delivery path read it for every send.
    """

    __slots__ = (
        "action",
        "target",
        "target_locality",
        "args",
        "size_bytes",
        "op_class",
        "priority",
        "origin",
        "seq",
        "hb",
    )

    def __init__(
        self,
        action: str,
        target: GlobalAddress | int,
        args: tuple = (),
        *,
        size_bytes: int = 64,
        op_class: str = "parcel",
        priority: int = 1,
    ):
        self.action = action
        self.target = target
        self.target_locality = (
            target.locality if isinstance(target, GlobalAddress) else int(target)
        )
        self.args = args
        self.size_bytes = size_bytes
        self.op_class = op_class
        self.priority = priority
        #: stamped by the scheduler at send time; None for externally injected
        self.origin: int | None = None
        #: reliable-transport sequence id ``(src_locality, n)``; stamped by
        #: :class:`repro.hpx.transport.ReliableTransport`, None otherwise
        self.seq: tuple | None = None
        #: happens-before event of the sending task (hazard detection);
        #: shared by every delivered copy, so a retransmission carries the
        #: same causal history as the original send
        self.hb: object | None = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"Parcel(action={self.action!r}, target={self.target!r},"
            f" size_bytes={self.size_bytes}, op_class={self.op_class!r},"
            f" origin={self.origin!r}, seq={self.seq!r})"
        )
