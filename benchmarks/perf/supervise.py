"""Run the ledger in a child interpreter and leave no process behind.

The real-parallel backend spawns workers, and with the first of them
Python starts multiprocessing's resource tracker, which ends only some
time *after* the interpreter that started it has exited.  A caller that
looks for stray processes right after a run finds it.  So ``run.py``
does its work in a child of this supervisor, which imports nothing of
the program under test and cannot fail with it.  The supervisor is the
*subreaper* of its descendants: whatever the child leaves behind -
however the child ended - becomes a child of the supervisor, which lets
it end (the tracker does, as soon as its pipe has closed), kills what
does not (workers of a child that was killed block on their queues for
ever), and waits for every one of them before it exits itself.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from pathlib import Path

#: set in the environment of the supervised child
SUPERVISED = "PERF_LEDGER_SUPERVISED"
PR_SET_CHILD_SUBREAPER = 36
#: how long orphans may take to end by themselves before they are killed
GRACE_S = 2.0


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def supervise(cmd: list[str]) -> int:
    """Run ``cmd``; return its exit code once no descendant of it is left."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    child = subprocess.Popen(cmd, env={**os.environ, SUPERVISED: "1"})
    # a terminated run ends its child and still reaps what that leaves
    signal.signal(signal.SIGTERM, lambda signum, frame: child.terminate())
    code = child.wait()
    deadline = time.monotonic() + GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # nobody left
            return code if code >= 0 else 128 - code
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in child_pids():
                os.kill(orphan, signal.SIGKILL)
        time.sleep(0.01)
