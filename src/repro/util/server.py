"""One server core for every daemon: listen, admit, serve, drain, reap, stop.

The Chirp file server, the metadata database, the catalog's query port
and the NFS-like baseline differ only in what they do with one
connection.  Everything else lives here, once, so every daemon has the
same overload and shutdown semantics:

- one thread polls ``accept()`` and admits or refuses each connection;
  a refusal is one inline ``-10 BUSY ... retry_after_ms=`` line and a
  close (no worker thread, no auth), so a flood costs one small write
  per refused connection;
- every admitted connection gets its own thread running the subclass's
  :meth:`ServerCore.serve`; the socket is tracked until that returns;
- :meth:`ServerCore.serve_requests` is the request loop for line
  protocols: every request passes an atomic gate that counts it in
  flight (or refuses it with ``BUSY``), which is what lets
  :meth:`ServerCore.drain` finish every admitted request and refuse the
  rest;
- an optional reaper closes connections that completed no request line
  within ``idle_timeout``;
- :meth:`ServerCore.stop` closes the listener and every tracked session
  and joins every thread the server started.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Callable, Optional

from repro.util.errors import (
    ChirpError,
    DisconnectedError,
    StatusCode,
    busy_message,
    status_from_exception,
)
from repro.util.wire import LineStream, pack_line

__all__ = ["ServerCore", "Session"]

log = logging.getLogger("repro.util.server")

#: Accept poll interval and drain wait slice (seconds).  Bounded waits
#: keep stop() prompt where closing a socket does not wake a blocked
#: accept(), and let a repeated SIGTERM's handler run during a drain
#: (CPython runs signal handlers only when the main thread returns to
#: the interpreter loop).
_POLL = 0.2

#: Reason carried by refusals from a draining (or stopping) server; the
#: session ends after such a refusal.
_DRAINING = "draining"


def _shutdown(sock: socket.socket) -> None:
    """Wake whatever thread is blocked on ``sock``; its owner closes it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class Session:
    """One established connection: its stream and the peer's subject."""

    def __init__(self, stream: LineStream, subject: str):
        self.stream = stream
        self.subject = subject


class ServerCore:
    """A threaded TCP server; subclasses supply :meth:`serve`.

    :param max_conns: admit at most this many concurrent connections
        (``None`` = unbounded).
    :param max_inflight_per_subject: refuse a subject's request while it
        already has this many in flight (``None`` = unbounded).
    :param idle_timeout: reap connections that completed no request line
        for this many seconds (``None`` = never).
    :param drain_timeout: default window :meth:`drain` waits for
        in-flight requests.
    :param busy_retry_ms: backoff hint carried by saturation refusals.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_conns: Optional[int] = None,
        max_inflight_per_subject: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain_timeout: float = 10.0,
        busy_retry_ms: int = 250,
    ):
        self.address: tuple[str, int] = (host, port)
        self.max_conns = max_conns
        self.max_inflight_per_subject = max_inflight_per_subject
        self.idle_timeout = idle_timeout
        self.drain_timeout = drain_timeout
        self.busy_retry_ms = busy_retry_ms
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        # The accept loop, the reaper and any helper a subclass spawns.
        self._threads: list[threading.Thread] = []
        # One lock guards connection tracking and the in-flight gate, so
        # admission, the drain wait and the reaper never race each other:
        # a request is either admitted (counted, and drain waits for it)
        # or refused.
        self._flow_lock = threading.Lock()
        self._idle_cv = threading.Condition(self._flow_lock)
        self._conns: dict[socket.socket, threading.Thread] = {}
        # socket -> monotonic time of its last completed request line.
        self._activity: dict[socket.socket, float] = {}
        self._draining = False
        self._drain_deadline = 0.0
        self._inflight = 0
        self._inflight_by_subject: dict[str, int] = {}
        self.shed_connections = 0
        self.shed_requests = 0
        self.drain_refusals = 0
        self.reaped_connections = 0

    # -- what a daemon supplies ---------------------------------------

    def serve(self, sock: socket.socket, addr) -> None:
        """Serve one admitted connection until it ends (runs on its own
        thread; the core closes ``sock`` afterwards)."""
        raise NotImplementedError

    def handle(self, session: Session, tokens: list[str]) -> None:
        """Answer one admitted request (for :meth:`serve_requests`).

        A :class:`ChirpError`, ``OSError``, ``ValueError`` or
        ``IndexError`` it raises is answered with the matching status
        line.
        """
        raise NotImplementedError

    def payload_length(self, tokens: list[str]) -> int:
        """Bytes of payload that follow this request line on the wire.

        A refused request's payload is discarded so the next request
        line parses; protocols whose requests carry payloads say where
        the length is.
        """
        return 0

    def announce_drain(self) -> None:
        """Tell the outside world this server is draining."""

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._listener is not None:
            raise RuntimeError("server already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(self.address)
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        sock.settimeout(_POLL)
        self._listener = sock
        self.address = sock.getsockname()[:2]
        self.spawn(self._accept_loop, "accept")
        if self.idle_timeout is not None:
            self.spawn(self._reap_loop, "reaper")
        log.info("%s listening on %s:%d", type(self).__name__, *self.address)
        return self

    def spawn(self, target: Callable[[], None], role: str) -> None:
        """Start a helper thread that :meth:`stop` joins."""
        t = threading.Thread(
            target=target, name=f"{type(self).__name__}-{role}", daemon=True
        )
        t.start()
        self._threads.append(t)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, stop.

        Flips the server to *draining* (announced immediately), refuses
        new connections and new requests with ``BUSY`` whose hint is the
        remaining drain window, waits up to ``timeout`` (default
        ``drain_timeout``) for every in-flight request to finish, then
        stops.  Returns ``True`` when all in-flight work finished inside
        the window -- an acknowledged request is never dropped by a
        clean drain.
        """
        if timeout is None:
            timeout = self.drain_timeout
        with self._flow_lock:
            first = not self._draining
            self._draining = True
            self._drain_deadline = deadline = time.monotonic() + timeout
        if first:
            log.info("%s %s:%d draining (timeout %.1fs)",
                     type(self).__name__, *self.address, timeout)
            self.announce_drain()
        with self._idle_cv:
            while self._inflight:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._idle_cv.wait(min(left, _POLL))
            drained = self._inflight == 0
        self.stop()
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self) -> None:
        """Close the listener and every session; join every thread."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        # The accept thread exits within one poll, so no connection is
        # admitted after the snapshot below.
        for t in self._threads:
            t.join(timeout=5)
        self._threads.clear()
        with self._flow_lock:
            conns = list(self._conns.items())
        for sock, _ in conns:
            _shutdown(sock)
        for _, t in conns:
            t.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept / admit ------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while not self._stop.is_set():
            try:
                sock, addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._flow_lock:
                refusal = self._admit_locked()
                if refusal is None:
                    t = threading.Thread(
                        target=self._run,
                        args=(sock, addr),
                        name=f"{type(self).__name__}-conn-{addr[1]}",
                        daemon=True,
                    )
                    self._conns[sock] = t
                    self._activity[sock] = time.monotonic()
            if refusal is None:
                t.start()
            else:
                self._refuse_connection(sock, addr, refusal)

    def _admit_locked(self) -> Optional[tuple[str, int]]:
        """``None`` to admit a fresh connection, else ``(reason, retry_ms)``.

        Deterministic: connections are admitted in accept order up to
        the cap, everything past it is refused.
        """
        if self._draining:
            self.drain_refusals += 1
            return (_DRAINING, self._drain_hint_ms_locked())
        if self.max_conns is not None and len(self._conns) >= self.max_conns:
            self.shed_connections += 1
            return ("server at max-conns", self.busy_retry_ms)
        return None

    def _refuse_connection(self, sock: socket.socket, addr, refusal) -> None:
        """Answer a refused connection with one BUSY line and close it.

        Runs inline in the accept thread: the line is a few dozen bytes
        and carries a short timeout.  The client has not been read from
        -- clients speak first, so its auth line dies with the socket
        and the refusal is the only thing it reads.
        """
        reason, retry_ms = refusal
        log.debug("shedding connection from %s: %s", addr, reason)
        try:
            sock.settimeout(0.5)
            sock.sendall(pack_line(int(StatusCode.BUSY), busy_message(retry_ms, reason)))
        except OSError:
            pass
        finally:
            sock.close()

    def _drain_hint_ms_locked(self) -> int:
        """Backoff hint for drain refusals: the remaining drain window.

        A client retrying after that long finds either a dead address
        (fail over) or a restarted, non-draining server.
        """
        remaining = max(0.0, self._drain_deadline - time.monotonic())
        return int(remaining * 1000) + self.busy_retry_ms

    def _run(self, sock: socket.socket, addr) -> None:
        try:
            self.serve(sock, addr)
        except DisconnectedError:
            pass
        except Exception:  # pragma: no cover - diagnostic guard
            log.exception("%s connection handler crashed", type(self).__name__)
        finally:
            sock.close()
            with self._flow_lock:
                self._conns.pop(sock, None)
                self._activity.pop(sock, None)

    # -- the request gate ----------------------------------------------

    def serve_requests(self, sock: socket.socket, session: Session) -> None:
        """Read request lines and pass each admitted one to :meth:`handle`.

        Returns when the server stops or refuses a request for draining
        (closing the session prompts the client to reconnect or fail
        over); a disconnect raises :class:`DisconnectedError`.
        """
        stream, subject = session.stream, session.subject
        self._touch(sock)
        while not self._stop.is_set():
            tokens = stream.read_tokens()
            if not tokens:
                continue
            refusal = self._begin_request(sock, subject)
            if refusal is None:
                try:
                    self.handle(session, tokens)
                except DisconnectedError:
                    raise
                except ChirpError as exc:
                    stream.write_line(int(exc.status), str(exc))
                except (ValueError, IndexError) as exc:
                    stream.write_line(int(StatusCode.INVALID_REQUEST), str(exc))
                except OSError as exc:
                    stream.write_line(int(status_from_exception(exc)), str(exc))
                finally:
                    self._end_request(subject)
                continue
            reason, retry_ms = refusal
            try:
                length = self.payload_length(tokens)
            except (ValueError, IndexError):
                length = 0
            stream.discard(length)
            stream.write_line(int(StatusCode.BUSY), busy_message(retry_ms, reason))
            if reason == _DRAINING:
                return

    def _touch(self, sock: socket.socket) -> None:
        with self._flow_lock:
            self._activity[sock] = time.monotonic()

    def _begin_request(self, sock: socket.socket, subject: str) -> Optional[tuple[str, int]]:
        """Mark activity, then admit (and count) or refuse one request.

        Check and count are atomic under ``_flow_lock``, so once drain
        has observed no request in flight none can slip in: it was
        counted before the observation (and drain waited for it) or it
        sees the draining flag and is refused.
        """
        with self._flow_lock:
            self._activity[sock] = time.monotonic()
            if self._draining or self._stop.is_set():
                self.drain_refusals += 1
                return (_DRAINING, self._drain_hint_ms_locked())
            held = self._inflight_by_subject.get(subject, 0)
            cap = self.max_inflight_per_subject
            if cap is not None and held >= cap:
                self.shed_requests += 1
                return ("subject at in-flight cap", self.busy_retry_ms)
            self._inflight += 1
            self._inflight_by_subject[subject] = held + 1
            return None

    def _end_request(self, subject: str) -> None:
        with self._flow_lock:
            self._inflight -= 1
            left = self._inflight_by_subject[subject] - 1
            if left:
                self._inflight_by_subject[subject] = left
            else:
                del self._inflight_by_subject[subject]
            if self._inflight == 0:
                self._idle_cv.notify_all()

    # -- idle reaper ---------------------------------------------------

    def _reap_loop(self) -> None:
        """Close connections silent for longer than ``idle_timeout``.

        "Silent" means no completed request line (or auth) since the
        last mark -- a slow-loris client dribbling bytes without ever
        finishing a line is reaped like one sending nothing.  Shutting
        the socket down wakes its thread, whose normal disconnect path
        frees the session.
        """
        timeout = self.idle_timeout
        assert timeout is not None
        interval = max(0.05, min(timeout / 4.0, 1.0))
        while not self._stop.wait(interval):
            now = time.monotonic()
            with self._flow_lock:
                stale = [s for s, last in self._activity.items() if now - last > timeout]
                for s in stale:
                    del self._activity[s]
            for s in stale:
                log.info("reaping idle connection %r", s)
                self.reaped_connections += 1
                _shutdown(s)

    # -- metrics -------------------------------------------------------

    def snapshot(self) -> dict:
        """Lifecycle counters (published as the ``server`` metrics section)."""
        with self._flow_lock:
            return {
                "draining": self._draining,
                "connections": len(self._conns),
                "max_conns": self.max_conns,
                "in_flight": self._inflight,
                "in_flight_subjects": len(self._inflight_by_subject),
                "shed_connections": self.shed_connections,
                "shed_requests": self.shed_requests,
                "drain_refusals": self.drain_refusals,
                "reaped_connections": self.reaped_connections,
            }
