"""Graceful-stop signal handling shared by the daemon entry points.

Every long-running process (file server, catalog, keeper, database)
wants the same discipline:

- the first SIGTERM/SIGINT requests a *graceful* stop -- the handler
  sets an event the main thread is waiting on;
- a repeated signal means the operator is done waiting: escalate to
  ``os._exit`` so a wedged drain can never hold the process hostage.

The kernel may deliver a process-directed signal to any thread that
does not block it.  CPython's C-level handler then only records it; the
Python handler runs later, on the main thread, when that thread next
returns to the interpreter loop.  A main thread parked in an untimed
``Event.wait`` never does, so the signal would sit unhandled until
another one happened to land on the main thread -- and a second signal
only re-sets the same pending flag.  Hence every wait on the stop path
(here and in :meth:`repro.util.server.ServerCore.drain`) is bounded.
"""

from __future__ import annotations

import os
import signal
import threading

__all__ = ["GracefulSignals"]

#: Longest a pending stop signal waits for its Python handler.
_WAKE_INTERVAL = 0.2


class GracefulSignals:
    """Install handlers that stop gracefully once, forcefully twice."""

    def __init__(self, escalate_status: int = 1):
        self.stop = threading.Event()
        self.escalate_status = escalate_status
        self._hits = 0

    def install(self) -> "GracefulSignals":
        signal.signal(signal.SIGINT, self._handle)
        signal.signal(signal.SIGTERM, self._handle)
        return self

    def _handle(self, signum, frame) -> None:
        self._hits += 1
        if self._hits > 1:
            # Second signal: the graceful path is taking too long (or is
            # stuck).  _exit skips atexit/finally machinery on purpose --
            # anything durable was already made durable by the first
            # pass, and the operator asked twice.
            os._exit(self.escalate_status)
        self.stop.set()

    def wait(self) -> None:
        """Block the main thread until the first stop signal."""
        while not self.stop.wait(_WAKE_INTERVAL):
            pass
