"""Global address space (Section III).

HPX-5 exposes a global shared-memory abstraction: global allocation,
address resolution, and asynchronous memput/memget.  Global addresses
are the targets of parcels, and localities are mapped into the address
space so messages can target them by index.

Here a :class:`GlobalAddress` is an opaque (locality, slot) pair.  The
statically partitioned configuration used in the paper ("HPX-5 was
configured with a statically partitioned global address space") means
an address's home locality never changes, which is what this
implementation provides.  Resolution (`translate`) only succeeds on the
home locality - remote access must go through parcels or memget,
exactly the discipline DASHMM has to follow.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Any, NamedTuple

import numpy as np


class GlobalAddress(NamedTuple):
    """An address in the global address space: (home locality, slot).

    A named tuple: an evaluation allocates one per LCO, and a tuple is
    the cheapest immutable, hashable, ordered record to construct."""

    locality: int
    slot: int

    def __repr__(self) -> str:  # compact, shows up in traces/debugging
        return f"ga({self.locality}:{self.slot})"


class GlobalAddressSpace:
    """Statically partitioned GAS with per-locality heaps.

    When a ``monitor`` (the happens-before hazard detector,
    :mod:`repro.hpx.hazards`) is attached, every resolution is reported
    as a read and every replacement as a write, so unsynchronized
    accesses to one address - e.g. racing asynchronous ``memput`` s -
    are flagged.  Allocation is not monitored: a fresh slot cannot
    race.  With no monitor the hooks cost one attribute check.
    """

    def __init__(self, n_localities: int):
        if n_localities < 1:
            raise ValueError("need at least one locality")
        self.n_localities = n_localities
        self._heaps: list[dict[int, Any]] = [dict() for _ in range(n_localities)]
        self._next: list[int] = [0] * n_localities
        #: optional access monitor with on_gas_read/on_gas_write hooks
        self.monitor = None

    def alloc(self, locality: int, obj: Any = None) -> GlobalAddress:
        """Allocate a slot on ``locality`` holding ``obj``."""
        self._check(locality)
        slot = self._next[locality]
        self._next[locality] += 1
        self._heaps[locality][slot] = obj
        return GlobalAddress(locality, slot)

    def alloc_cyclic(self, count: int, objs=None) -> list[GlobalAddress]:
        """Block-cyclic allocation across localities (one per locality,
        round-robin), mirroring HPX-5's cyclic allocator."""
        out = []
        for i in range(count):
            obj = objs[i] if objs is not None else None
            out.append(self.alloc(i % self.n_localities, obj))
        return out

    def translate(self, addr: GlobalAddress, at_locality: int) -> Any:
        """Resolve a global address to its object - home locality only."""
        if addr.locality != at_locality:
            raise ValueError(
                f"cannot translate {addr} at locality {at_locality}: "
                "remote access must use parcels/memget"
            )
        if self.monitor is not None:
            self.monitor.on_gas_read(addr)
        return self._heaps[addr.locality][addr.slot]

    def put_local(self, addr: GlobalAddress, obj: Any, at_locality: int) -> None:
        """Replace the object at ``addr`` - home locality only."""
        if addr.locality != at_locality:
            raise ValueError(f"cannot put to {addr} from locality {at_locality}")
        if self.monitor is not None:
            self.monitor.on_gas_write(addr)
        self._heaps[addr.locality][addr.slot] = obj

    def free(self, addr: GlobalAddress) -> None:
        self._heaps[addr.locality].pop(addr.slot, None)

    def _check(self, locality: int) -> None:
        if not (0 <= locality < self.n_localities):
            raise ValueError(f"locality {locality} out of range")


# -- shared-memory GAS blocks (real-parallel backend) ----------------------------
#
# The real-parallel backend (repro.hpx.parallel) keeps the bulk data of
# an evaluation - source/target points, weights, the result vector, the
# parent's fitted translation operators - in POSIX shared memory so
# every locality process maps the same pages instead of receiving
# pickled copies.  ShmArena is the small allocator/registry: the parent
# allocates named blocks (many small ones may share one segment, see
# put_many), ships a manifest (segment names + shapes + dtypes +
# offsets) to the workers, and the workers attach read-write NumPy
# views.  Ownership is strict: only the creating arena unlinks;
# attached arenas only close.  Segments a worker makes itself (its
# mailbox) are named under the arena's worker_prefix, so the owner
# unlinks what a crashed worker left.  The registry tracks every
# segment it created so tests can assert nothing leaked into /dev/shm
# even after worker crashes.

#: packed blocks (put_many, a worker's mailbox) start on cache-line boundaries
_ALIGN = 64


class ShmBlock:
    """A NumPy array at ``offset`` bytes into a named shared-memory
    segment - the whole segment, or one of the blocks
    :meth:`ShmArena.put_many` packs into one."""

    __slots__ = ("label", "name", "shape", "dtype", "offset", "_shm", "array", "_closed")

    def __init__(self, label: str, shm, shape, dtype, offset: int = 0):
        self.label = label
        self.name = shm.name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.offset = offset
        self._shm = shm
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf, offset=offset)
        self._closed = False

    def close(self) -> None:
        """Unmap the segment (idempotent; safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        self.array = None  # drop the exported buffer before unmapping
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment name (owner side; idempotent)."""
        unlink_segment(self._shm)


def unlink_segment(shm) -> None:
    """Remove a segment name that never entered the resource tracker
    (idempotent).

    The segment's owner handles its lifetime outright (every register
    is balanced by an immediate unregister, see ShmArena), so the name
    is re-registered just before ``SharedMemory.unlink`` - which
    unconditionally unregisters - to keep the shared tracker's
    bookkeeping balanced across the process tree.
    """
    _tracker_register(shm)
    try:
        shm.unlink()
    except FileNotFoundError:
        _tracker_unregister(shm)


def _tracker_register(shm) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass


def _tracker_unregister(shm) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass


class _suppress_tracker:
    """Keep ``SharedMemory`` construction out of the resource tracker.

    On CPython <= 3.12 every construction - create *and* attach -
    registers the segment with the process-tree-shared tracker daemon,
    whose cache is a set: when the parent (create) and a worker (attach)
    each register+unregister one name, interleaved messages collapse the
    double-register and the second unregister raises a KeyError inside
    the daemon.  Arena segments are cleaned up explicitly by the owner's
    ``destroy()``, so the tracker is not wanted at all; suppressing the
    register call at construction (the 3.13 ``track=False`` behaviour)
    removes the race instead of racing to undo it.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        self._mod = resource_tracker
        self._orig = resource_tracker.register

        def register(name, rtype, _orig=self._orig):
            if rtype != "shared_memory":  # pragma: no cover - defensive
                _orig(name, rtype)

        resource_tracker.register = register
        return self

    def __exit__(self, *exc):
        self._mod.register = self._orig
        return False


def _unlink_segments(names) -> None:
    """Best-effort unlink of shared-memory segments by name.

    The module-level cleanup path shared by the ``weakref.finalize``
    guard on owning arenas (runs at garbage collection, interpreter
    exit, and on the unwind of a fatal exception) and the orphan reaper
    - i.e. every path where the arena's own ``destroy()`` did not run.
    ``names`` is mutated in place: successfully removed (or already
    absent) segments are dropped, so calling ``destroy()`` after the
    guard fired (or vice versa) is a no-op.
    """
    from multiprocessing import shared_memory

    for name in list(names):
        try:
            with _suppress_tracker():
                seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            names.discard(name)
            continue
        except OSError:  # pragma: no cover - platform-specific failure
            continue
        seg.close()
        unlink_segment(seg)
        names.discard(name)


def _release(names, worker_prefix: str) -> None:
    """The finalize guard of an owning arena: its own segments, then
    whatever its workers left."""
    _unlink_segments(names)
    _unlink_segments(set(ShmArena.leaked(worker_prefix + "_")))


#: segment numbers are drawn process-wide: names live in one /dev/shm
#: namespace per pid, so two live arenas must never restart at 0
_segment_numbers = itertools.count()


class ShmArena:
    """Allocator/registry of shared-memory blocks for one evaluation.

    Parent side::

        arena = ShmArena()
        arena.put("sources", sources)      # allocate + copy
        arena.alloc("result", (n,), float) # zero-filled
        spec = arena.manifest()            # picklable, ship to workers
        ... run workers ...
        arena.destroy()                    # close + unlink everything

    Worker side::

        arena = ShmArena.attach(spec)      # maps the same pages
        pts = arena.get("sources")
        ... work ...
        arena.close()                      # unmap only; parent unlinks
    """

    def __init__(self, prefix: str = "hmmgas"):
        self.prefix = prefix
        self.owner = True
        #: where processes attached to this arena name segments of their
        #: own (a worker's mailbox, :class:`repro.hpx.parallel.Mailbox`):
        #: under the owner's pid, so its leak checks see them, and a
        #: number of this arena, so two live arenas' workers never
        #: collide.  The owner unlinks whatever is left under it
        #: (:meth:`unlink_worker_segments`) - a SIGKILLed worker runs
        #: no cleanup of its own.
        self.worker_prefix = f"{prefix}_{os.getpid()}_w{next(_segment_numbers)}"
        self._blocks: dict[str, ShmBlock] = {}
        # fail-safe cleanup: if the owning process dies without running
        # destroy() (exception unwind, gc of a leaked arena, interpreter
        # exit), the finalizer unlinks whatever segments are still live.
        # The callback closes over the name set, not the arena, so it
        # cannot keep the arena alive; destroy() empties the set, making
        # a later firing a no-op.  (A SIGKILL skips finalizers entirely
        # - that is what :meth:`reap_orphans` is for.)
        self._live_names: set[str] = set()
        self._finalizer = weakref.finalize(
            self, _release, self._live_names, self.worker_prefix
        )

    # -- parent (owner) side ---------------------------------------------------
    def alloc(self, label: str, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a zero-filled named block; returns the array view."""
        dt = np.dtype(dtype)
        shm = self._segment([label], int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        block = self._blocks[label] = ShmBlock(label, shm, shape, dt)
        return block.array

    def put(self, label: str, array: np.ndarray) -> np.ndarray:
        """Allocate a block holding a copy of ``array``."""
        view = self.alloc(label, array.shape, array.dtype)
        view[...] = array
        return view

    def put_many(self, arrays: dict) -> None:
        """Copy every array of ``arrays`` (label -> array) into one
        segment, each its own block at a cache-line-aligned offset: a
        process that attaches maps one segment and holds one descriptor
        for all of them, however many there are."""
        if not arrays:
            return  # a segment no block names would never be unlinked
        offsets, end = [], 0
        for array in arrays.values():
            offsets.append(end)
            end += -(-array.nbytes // _ALIGN) * _ALIGN
        shm = self._segment(arrays, end)
        for (label, array), at in zip(arrays.items(), offsets):
            block = self._blocks[label] = ShmBlock(label, shm, array.shape, array.dtype, at)
            block.array[...] = array

    def _segment(self, labels, nbytes: int):
        """A new segment of this arena for the blocks ``labels``."""
        from multiprocessing import shared_memory

        taken = [label for label in labels if label in self._blocks]
        if taken:
            raise ValueError(f"shm block {taken[0]!r} already allocated")
        name = f"{self.prefix}_{os.getpid()}_{next(_segment_numbers)}"
        # the arena owns cleanup (destroy()/unlink() in a finally), so
        # the segment never enters the resource tracker
        with _suppress_tracker():
            shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        self._live_names.add(name)
        return shm

    def manifest(self) -> dict:
        """Picklable description workers use to attach the same blocks.

        Carries the creator pid for diagnostics (leak reports name the
        owning process).
        """
        return {
            "pid": os.getpid(),
            "worker_prefix": self.worker_prefix,
            "blocks": {
                label: (b.name, b.shape, b.dtype.str, b.offset)
                for label, b in self._blocks.items()
            },
        }

    # -- worker side -----------------------------------------------------------
    @classmethod
    def attach(cls, manifest: dict) -> "ShmArena":
        """Attach to the blocks described by a parent's manifest.

        Attachments stay out of the (process-tree-shared)
        ``resource_tracker`` (see :class:`_suppress_tracker`): a worker
        exiting would otherwise unlink segments the parent still owns
        (and warn about "leaked" memory that is not leaked).  The owning
        arena's explicit ``destroy()`` is the sole cleanup path.
        """
        from multiprocessing import shared_memory

        arena = cls.__new__(cls)
        arena.prefix = ""
        arena.owner = False
        arena.worker_prefix = manifest["worker_prefix"]
        arena._blocks = {}
        arena._live_names = set()  # attached arenas never unlink
        segments: dict = {}
        with _suppress_tracker():
            for label, (name, shape, dtype, offset) in manifest["blocks"].items():
                shm = segments.get(name)
                if shm is None:
                    shm = segments[name] = shared_memory.SharedMemory(name=name)
                arena._blocks[label] = ShmBlock(label, shm, shape, dtype, offset)
        return arena

    # -- both sides ------------------------------------------------------------
    def get(self, label: str) -> np.ndarray:
        return self._blocks[label].array

    def close(self) -> None:
        """Unmap every block (idempotent)."""
        for b in self._blocks.values():
            b.close()

    def unlink(self) -> None:
        """Remove every segment name (owner only; idempotent)."""
        if not self.owner:
            raise ValueError("only the owning arena may unlink its segments")
        for b in {b.name: b for b in self._blocks.values()}.values():
            b.unlink()
        self._live_names.clear()  # disarm the finalize guard
        self.unlink_worker_segments()

    def unlink_worker_segments(self, names=None) -> None:
        """Remove the segments ``names`` attached processes made, or
        everything they left under :attr:`worker_prefix` (owner only;
        then call with them stopped)."""
        if not self.owner:
            raise ValueError("only the owning arena may unlink worker segments")
        if names is None:
            names = ShmArena.leaked(self.worker_prefix + "_")
        _unlink_segments(set(names))

    def destroy(self) -> None:
        """Owner teardown: unmap and unlink everything."""
        self.close()
        if self.owner:
            self.unlink()

    def segment_names(self) -> list[str]:
        return list(dict.fromkeys(b.name for b in self._blocks.values()))

    @staticmethod
    def leaked(prefix: str = "hmmgas") -> list[str]:
        """Names of segments with ``prefix`` still present in /dev/shm."""
        try:
            return sorted(
                n for n in os.listdir("/dev/shm") if n.startswith(prefix)
            )
        except FileNotFoundError:  # pragma: no cover - non-Linux
            return []

    @staticmethod
    def reap_orphans(prefix: str = "hmmgas") -> list[str]:
        """Unlink segments whose owning process no longer exists.

        The last line of defense: ``weakref.finalize``/atexit cannot run
        when the owner is SIGKILLed or crashes hard, so its segments
        stay in ``/dev/shm`` until reboot.  Arena segment names embed
        the creator pid (``{prefix}_{pid}_{count}``); any segment whose
        creator is dead is an orphan and is removed.  Segments of live
        owners - including the calling process - are left alone.
        Returns the names reaped.
        """
        orphans: set[str] = set()
        for name in ShmArena.leaked(prefix):
            parts = name[len(prefix) :].split("_")
            if len(parts) < 3 or not parts[1].isdigit():
                continue  # not an arena segment of this prefix
            pid = int(parts[1])
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                orphans.add(name)
            except PermissionError:  # pragma: no cover - other user's pid
                pass
        reaped = sorted(orphans)
        _unlink_segments(orphans)
        return reaped
