"""One authenticated wire session to one server.

A :class:`Connection` owns exactly one TCP socket wrapped in a
:class:`~repro.util.wire.LineStream`, speaks the line-oriented RPC
protocol, and records per-verb metrics for every exchange.  It is the
only place in the client stack that touches a socket.

Protocol discipline: one outstanding call per connection -- the lock
serializes exchanges on *this* connection only.  Concurrency across
callers comes from the :class:`~repro.transport.endpoint.Endpoint`
holding several connections, not from pipelining one.

Every exchange is one :meth:`Connection.call`, read by the shape the
verb declares in :data:`~repro.chirp.protocol.VERBS` (or
:data:`~repro.chirp.protocol.DB_VERBS`); decoding the reply into stats,
listings or ACLs is the session's business.

File descriptors returned by ``open`` are scoped to this
connection: the server frees them when the connection dies, and a fd
number must never be replayed against a different connection.  The
:class:`~repro.chirp.client.ChirpClient` enforces that by mapping its
public fds to ``(connection, raw fd)`` pairs.

On a mid-exchange failure the stream can never be resynchronized, so the
connection closes itself before the error propagates, and reports its
death to the endpoint via ``on_death`` when the wire is what failed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, NamedTuple, Optional

from repro.chirp.protocol import DB_VERBS, LINES, PAYLOAD, VERBS
from repro.transport.deadline import Deadline
from repro.transport.metrics import MetricsRegistry, default_registry
from repro.util.errors import (
    DisconnectedError,
    InvalidRequestError,
    error_from_status,
)
from repro.util.wire import LineStream, pack_line, unpack_line

__all__ = ["Connection", "Reply"]

_STREAM_CHUNK = 1 << 20
#: payloads up to this size are sent in one write with their request line
_COALESCE_MAX = 64 * 1024
_SHAPES = {**VERBS, **DB_VERBS}


class Reply(NamedTuple):
    """A successful reply, read by its verb's shape."""

    #: the leading status token (>= 0)
    status: int
    #: every token of the status line, the status first
    tokens: list[str]
    #: ``payload`` shape: the bytes (None when the stated length is
    #: negative), or their count when a sink took them; ``lines`` shape:
    #: one token list per line; ``status`` shape: None
    body: Any


class Connection:
    """An authenticated, metered RPC session over one TCP connection."""

    def __init__(
        self,
        host: str,
        port: int,
        stream: LineStream,
        subject: Optional[str],
        generation: int,
        metrics: Optional[MetricsRegistry] = None,
        on_death: Optional[Callable[["Connection"], None]] = None,
    ):
        self.host = host
        self.port = int(port)
        self.subject = subject
        #: The endpoint generation this connection was dialed under; fds
        #: opened here die with it.
        self.generation = generation
        self.label = f"{host}:{port}"
        self._stream: Optional[LineStream] = stream
        # The timeout the socket was dialed with; deadline-bounded
        # exchanges clamp to min(base, remaining) and restore it after.
        try:
            self._base_timeout: Optional[float] = stream.socket.gettimeout()
        except (AttributeError, OSError):
            self._base_timeout = None
        self._metrics = metrics if metrics is not None else default_registry()
        self._on_death = on_death
        self._lock = threading.RLock()
        #: Outstanding checkouts; maintained by the owning Endpoint under
        #: its own lock.  Purely a routing hint -- mutual exclusion is
        #: this connection's ``_lock``.
        self.busy = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._stream is None

    @property
    def stream(self) -> Optional[LineStream]:
        """Raw wire access; protocol tests poke malformed lines with it."""
        return self._stream

    def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()

    def _teardown(self) -> None:
        """Close after a mid-exchange failure and tell the endpoint."""
        self.close()
        if self._on_death is not None:
            self._on_death(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"Connection({self.label}, gen={self.generation}, {state})"

    # -- the exchange ----------------------------------------------------

    def _apply_deadline(
        self, stream: LineStream, deadline: Optional[Deadline]
    ) -> None:
        """Clamp the socket timeout to the deadline's remaining budget.

        Called under ``_lock`` before the exchange sends anything.  With
        no deadline the dialed timeout is restored (a previous bounded
        exchange may have shrunk it).  A spent deadline raises
        :class:`TimedOutError` before any bytes move.  A timeout firing
        mid-exchange surfaces as :class:`DisconnectedError` from the
        stream, which tears the connection down -- correct, because the
        reply stream can never be resynchronized anyway.
        """
        if deadline is None:
            timeout = self._base_timeout
        else:
            timeout = deadline.bound(self._base_timeout)
        sock = stream.socket
        if sock.gettimeout() != timeout:
            try:
                sock.settimeout(timeout)
            except OSError:
                pass

    def call(
        self,
        verb: str,
        *args: object,
        payload: Any = None,
        sink: Any = None,
        metric: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> Reply:
        """One exchange: the request line ``verb args``, then the reply.

        ``payload`` (bytes, or a file object to read from) follows the
        line; its length is the argument the verb's shape points at.
        Payloads up to 64 KiB leave in the same write as the line.  The
        reply is read by the verb's shape (:class:`Reply`); with a
        ``sink`` a ``payload`` reply is streamed into it instead of
        returned.  With a ``deadline`` the socket timeout is clamped to
        the remaining budget for this exchange.

        A negative status raises the mapped
        :class:`~repro.util.errors.ChirpError`; the reply was read whole,
        so the connection stays open.  Any other failure between the
        first byte sent and the last byte of the reply closes the
        connection, because the stream can never be resynchronized: a
        wire failure or a malformed reply raises
        :class:`DisconnectedError` and reports the death to the
        endpoint; the caller's own failure (a sink or source raising) is
        re-raised as it is.

        The call is observed under ``metric`` (default: the verb) with
        one byte rule: out is the request line plus its payload; in is
        the payload when the reply carries one, else every reply line.
        """
        shape = _SHAPES[verb]
        line = pack_line(verb, *args)
        size = 0 if payload is None else int(args[shape.payload])
        sent = len(line) + size
        received = 0
        error = True
        start = time.perf_counter()
        with self._lock:
            try:
                stream = self._stream
                if stream is None:
                    raise DisconnectedError("connection is closed")
                self._apply_deadline(stream, deadline)
                try:
                    if payload is None:
                        stream.write(line)
                    elif not isinstance(payload, (bytes, bytearray, memoryview)):
                        stream.write(line)
                        stream.write_from_file(payload, size, _STREAM_CHUNK)
                    elif size <= _COALESCE_MAX:
                        stream.write(line + payload)
                    else:
                        stream.write(line)
                        stream.write(payload)
                    tokens, received = _read_tokens(stream)
                    status = _integer(tokens, 0)
                    body = None
                    if status < 0:
                        pass  # an error reply is one line, whatever the shape
                    elif shape.reply == PAYLOAD:
                        length = _integer(tokens, -1)
                        if length < 0:
                            pass  # no payload: the line is the whole reply
                        elif sink is None:
                            body = stream.read_payload(length)
                            received = length
                        else:
                            stream.read_into_file(sink, length, _STREAM_CHUNK)
                            body = received = length
                    elif shape.reply == LINES:
                        body = []
                        for _ in range(status):
                            entry, n = _read_tokens(stream)
                            body.append(entry)
                            received += n
                except DisconnectedError:
                    self._teardown()
                    raise
                except BaseException:
                    # The caller's sink or source failed mid-transfer:
                    # the stream is out of step all the same, but the
                    # server is not at fault.
                    self.close()
                    raise
                if status < 0:
                    raise error_from_status(status, tokens[1] if len(tokens) > 1 else "")
                error = False
                return Reply(status, tokens, body)
            finally:
                self._metrics.observe(
                    metric or verb,
                    time.perf_counter() - start,
                    bytes_in=received,
                    bytes_out=sent,
                    error=error,
                    endpoint=self.label,
                )


def _read_tokens(stream: LineStream) -> tuple[list[str], int]:
    """One reply line's tokens and its length on the wire."""
    try:
        raw = stream.read_line()
        return unpack_line(raw), len(raw)
    except (ValueError, InvalidRequestError) as exc:
        raise DisconnectedError(f"malformed reply line: {exc}") from exc


def _integer(tokens: list[str], index: int) -> int:
    try:
        return int(tokens[index])
    except (IndexError, ValueError):
        raise DisconnectedError(f"malformed reply line: {tokens!r}") from None
