"""Nothing the benchmark starts outlives it.

The server child is stopped and waited for where it is started
(``loadgen.ServerProcess``).  This module is the net under everything else:
the process becomes a *child subreaper*, so a grandchild whose parent has gone
is handed to it instead of to init, and ``reap`` — called on every way out of
``python3 -m bench`` — returns only once no child is left, killing what will
not end by itself.

The one process that needs it on the ordinary path is
``multiprocessing``'s resource tracker: creating the shared-memory segment of
the traced run's process-sharded probe starts it, and it lives until its pipe
from this process closes — which, left alone, is after this process has gone.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36

#: How long children get to end by themselves, and then to die of SIGKILL.
GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make every orphaned descendant this process's child (Linux only)."""
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children() -> "list[int]":
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we were listing
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """Close the tracker's pipe (its cue to clean up and exit) and wait for it."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def reap() -> None:
    """Wait until this process has no child left; SIGKILL the ones that linger."""
    stop_resource_tracker()
    kill_at = time.monotonic() + GRACE_S
    give_up_at = kill_at + GRACE_S
    while time.monotonic() < give_up_at:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child of any kind is left
        if pid:
            continue
        if time.monotonic() >= kill_at:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            kill_at = give_up_at
        time.sleep(0.01)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so that ``finally`` blocks (and ``reap``) run."""

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
