"""One authenticated wire session to one server.

A :class:`Connection` owns exactly one TCP socket wrapped in a
:class:`~repro.util.wire.LineStream`, speaks the line-oriented RPC
protocol, and records per-verb metrics for every exchange.  It is the
only place in the client stack that touches a socket.

Protocol discipline: one outstanding call per connection -- the lock
serializes exchanges on *this* connection only.  Concurrency across
callers comes from the :class:`~repro.transport.endpoint.Endpoint`
holding several connections, not from pipelining one.

File descriptors returned by :meth:`open_fd` are scoped to this
connection: the server frees them when the connection dies, and a fd
number must never be replayed against a different connection.  The
:class:`~repro.chirp.client.ChirpClient` enforces that by mapping its
public fds to ``(connection, raw fd)`` pairs.

On a mid-exchange failure the stream can never be resynchronized, so the
connection tears itself down (and reports its death to the endpoint via
``on_death``) before the error propagates.
"""

from __future__ import annotations

import io
import socket
import threading
import time
from typing import BinaryIO, Callable, Optional, Union

from repro.auth.acl import Acl, AclEntry, parse_rights
from repro.chirp.protocol import ChirpStat, StatFs
from repro.transport.deadline import Deadline
from repro.transport.metrics import MetricsRegistry, default_registry
from repro.util.errors import (
    DisconnectedError,
    TimedOutError,
    error_from_status,
)
from repro.util.wire import LineStream, pack_line

__all__ = ["Connection"]

_STREAM_CHUNK = 1 << 20
#: payloads up to this size are sent in one write with their request line
_COALESCE_MAX = 64 * 1024


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

    # -- metered exchange plumbing ---------------------------------------

    def _require_stream(self) -> LineStream:
        if self._stream is None:
            raise DisconnectedError("connection is closed")
        return self._stream

    def _apply_deadline(
        self, stream: LineStream, deadline: Optional[Deadline]
    ) -> None:
        """Clamp the socket timeout to the deadline's remaining budget.

        Called under ``_lock`` at the start of an exchange.  With no
        deadline the dialed timeout is restored (a previous bounded
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
        try:
            stream.socket.settimeout(timeout)
        except OSError:
            pass

    def _observe(
        self,
        verb: str,
        start: float,
        bytes_in: int,
        bytes_out: int,
        error: bool,
    ) -> None:
        self._metrics.observe(
            verb,
            time.perf_counter() - start,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            error=error,
            endpoint=self.label,
        )

    def rpc(
        self,
        verb: str,
        *tokens: object,
        payload: Optional[bytes] = None,
        metric: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> list[str]:
        """One request line (plus optional payload), one reply line.

        Returns the reply tokens including the leading status; negative
        statuses raise the mapped :class:`~repro.util.errors.ChirpError`.
        On transport failure the connection tears down and
        :class:`DisconnectedError`/:class:`TimedOutError` propagates.
        With a ``deadline`` the socket timeout is clamped to the
        remaining budget for this exchange.
        """
        name = metric or verb
        start = time.perf_counter()
        line = pack_line(verb, *tokens)
        bytes_out = len(line) + (len(payload) if payload else 0)
        bytes_in = 0
        error = True
        with self._lock:
            try:
                stream = self._require_stream()
                self._apply_deadline(stream, deadline)
                try:
                    stream.write(line)
                    if payload:
                        stream.write(payload)
                    reply = stream.read_tokens()
                except (DisconnectedError, socket.timeout) as exc:
                    self._teardown()
                    if isinstance(exc, socket.timeout):
                        raise TimedOutError(verb) from exc
                    raise
                if not reply:
                    self._teardown()
                    raise DisconnectedError("empty reply line")
                bytes_in = sum(len(t) for t in reply) + len(reply)
                status = int(reply[0])
                if status < 0:
                    message = reply[1] if len(reply) > 1 else ""
                    raise error_from_status(status, message)
                error = False
                return reply
            finally:
                self._observe(name, start, bytes_in, bytes_out, error)

    # -- file I/O (raw, connection-scoped fds) ---------------------------

    def open_fd(self, path: str, flags_text: str, mode: int) -> int:
        reply = self.rpc("open", path, flags_text, mode)
        return int(reply[0])

    def close_fd(self, fd: int) -> None:
        self.rpc("close", fd)

    def fetch(
        self,
        verb: str,
        *tokens: object,
        metric: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        """One request line; the reply is ``<n>`` then ``n`` payload bytes.

        Negative statuses raise like :meth:`rpc`; a transport failure
        tears the connection down.
        """
        return self._fetch(verb, tokens, metric, deadline)[1]

    def _fetch(
        self,
        verb: str,
        tokens: tuple,
        metric: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> tuple[list[str], Optional[bytes]]:
        """One request line; a reply line whose *last* token is a payload
        length (negative: no payload), then that many bytes.

        Returns the reply tokens and the payload (None when the length
        was negative).
        """
        start = time.perf_counter()
        line = pack_line(verb, *tokens)
        bytes_in = 0
        error = True
        with self._lock:
            try:
                stream = self._require_stream()
                self._apply_deadline(stream, deadline)
                try:
                    stream.write(line)
                    reply = stream.read_tokens()
                    status = int(reply[0])
                    if status < 0:
                        raise error_from_status(
                            status, reply[1] if len(reply) > 1 else ""
                        )
                    length = int(reply[-1])
                    data = stream.read_exact(length) if length >= 0 else None
                except DisconnectedError:
                    self._teardown()
                    raise
                bytes_in = length if data is not None else 0
                error = False
                return reply, data
            finally:
                self._observe(metric or verb, start, bytes_in, len(line), error)

    def pread(
        self,
        fd: int,
        length: int,
        offset: int,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        return self.fetch("pread", fd, length, offset, deadline=deadline)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        reply = self.rpc("pwrite", fd, len(data), offset, payload=bytes(data))
        return int(reply[0])

    def fsync(self, fd: int) -> None:
        self.rpc("fsync", fd)

    def fstat(self, fd: int) -> ChirpStat:
        reply = self.rpc("fstat", fd)
        return ChirpStat.from_tokens(reply[1:])

    def ftruncate(self, fd: int, size: int) -> None:
        self.rpc("ftruncate", fd, size)

    # -- namespace -------------------------------------------------------

    def stat(self, path: str, deadline: Optional[Deadline] = None) -> ChirpStat:
        reply = self.rpc("stat", path, deadline=deadline)
        return ChirpStat.from_tokens(reply[1:])

    def lstat(self, path: str) -> ChirpStat:
        reply = self.rpc("lstat", path)
        return ChirpStat.from_tokens(reply[1:])

    def statget(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """``stat`` plus, for a regular file of at most ``limit`` bytes the
        subject may read, its content (protocol v4; else None)."""
        reply, data = self._fetch("statget", (path, limit))
        return ChirpStat.from_tokens(reply[1:-1]), data

    def access(self, path: str, rights: str = "l") -> None:
        self.rpc("access", path, rights)

    def unlink(self, path: str) -> None:
        self.rpc("unlink", path)

    def rename(self, old: str, new: str) -> None:
        self.rpc("rename", old, new)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.rpc("mkdir", path, mode)

    def rmdir(self, path: str) -> None:
        self.rpc("rmdir", path)

    def truncate(self, path: str, size: int) -> None:
        self.rpc("truncate", path, size)

    def utime(self, path: str, atime: int, mtime: int) -> None:
        self.rpc("utime", path, atime, mtime)

    def checksum(self, path: str, deadline: Optional[Deadline] = None) -> str:
        reply = self.rpc("checksum", path, deadline=deadline)
        return reply[1]

    # -- content-addressed verbs (protocol v3; older or non-CAS servers
    # answer InvalidRequestError, which callers catch to fall back) ----

    def lookup(self, key: str) -> bool:
        """Whether the server already holds a sealed blob with this key."""
        reply = self.rpc("lookup", key)
        return len(reply) > 1 and reply[1] == "1"

    def putkey(self, path: str, key: str, mode: int = 0o644) -> int:
        """Bind a path to an existing blob by key: copy-by-reference.

        Returns the blob size.  Raises DoesNotExistError when the key is
        absent (caller falls back to putfile) and InvalidRequestError on
        non-CAS servers.
        """
        reply = self.rpc("putkey", path, mode, key)
        return int(reply[0])

    def keyof(self, path: str) -> str:
        """The content key a path is bound to (metadata-only)."""
        reply = self.rpc("keyof", path)
        return reply[1]

    def getdir(self, path: str, deadline: Optional[Deadline] = None) -> list[str]:
        start = time.perf_counter()
        error = True
        with self._lock:
            try:
                stream = self._require_stream()
                self._apply_deadline(stream, deadline)
                try:
                    stream.write_line("getdir", path)
                    reply = stream.read_tokens()
                    status = int(reply[0])
                    if status < 0:
                        raise error_from_status(
                            status, reply[1] if len(reply) > 1 else ""
                        )
                    names = []
                    for _ in range(status):
                        toks = stream.read_tokens()
                        names.append(toks[0] if toks else "")
                except (DisconnectedError, socket.timeout) as exc:
                    self._teardown()
                    if isinstance(exc, socket.timeout):
                        raise TimedOutError("getdir") from exc
                    raise
                error = False
                return names
            finally:
                self._observe("getdir", start, 0, 0, error)

    # -- streaming whole files -------------------------------------------

    def getfile(
        self, path: str, sink: Optional[BinaryIO] = None
    ) -> Union[bytes, int]:
        start = time.perf_counter()
        bytes_in = 0
        error = True
        with self._lock:
            try:
                stream = self._require_stream()
                self._apply_deadline(stream, None)
                try:
                    stream.write_line("getfile", path)
                    reply = stream.read_tokens()
                    status = int(reply[0])
                    if status < 0:
                        raise error_from_status(
                            status, reply[1] if len(reply) > 1 else ""
                        )
                    if sink is None:
                        data = stream.read_payload(status)
                        bytes_in = status
                        error = False
                        return data
                    stream.read_into_file(sink, status, _STREAM_CHUNK)
                    bytes_in = status
                    error = False
                    return status
                except DisconnectedError:
                    self._teardown()
                    raise
            finally:
                self._observe("getfile", start, bytes_in, 0, error)

    def putfile(
        self,
        path: str,
        data: Union[bytes, BinaryIO],
        mode: int = 0o644,
        length: Optional[int] = None,
    ) -> int:
        return self._put("putfile", (path, mode), data, length)

    def putflags(self, path: str, data: bytes, flags_text: str, mode: int = 0o644) -> int:
        """A whole-file put opened with ``flags_text`` (protocol v4)."""
        return self._put("putflags", (path, flags_text, mode), data, None)

    def _put(
        self,
        verb: str,
        tokens: tuple,
        data: Union[bytes, BinaryIO],
        length: Optional[int],
    ) -> int:
        """One request line ending in the payload length, the payload, and
        a one-token reply."""
        start = time.perf_counter()
        error = True
        with self._lock:
            if isinstance(data, (bytes, bytearray, memoryview)):
                payload: Optional[bytes] = bytes(data)
                total = len(payload)
            else:
                payload = None
                if length is None:
                    pos = data.tell()
                    data.seek(0, io.SEEK_END)
                    length = data.tell() - pos
                    data.seek(pos)
                total = length
            try:
                line = pack_line(verb, *tokens, total)
                stream = self._require_stream()
                self._apply_deadline(stream, None)
                try:
                    if payload is None:
                        stream.write(line)
                        stream.write_from_file(data, total, _STREAM_CHUNK)
                    elif total <= _COALESCE_MAX:
                        # A small file leaves in the same send as its line.
                        stream.write(line + payload)
                    else:
                        stream.write(line)
                        stream.write(payload)
                    reply = stream.read_tokens()
                    status = int(reply[0])
                    if status < 0:
                        raise error_from_status(
                            status, reply[1] if len(reply) > 1 else ""
                        )
                    error = False
                    return status
                except DisconnectedError:
                    self._teardown()
                    raise
            finally:
                self._observe(verb, start, 0, total if not error else 0, error)

    # -- ACLs and server state -------------------------------------------

    def getacl(self, path: str) -> Acl:
        start = time.perf_counter()
        error = True
        with self._lock:
            try:
                stream = self._require_stream()
                self._apply_deadline(stream, None)
                try:
                    stream.write_line("getacl", path)
                    reply = stream.read_tokens()
                    status = int(reply[0])
                    if status < 0:
                        raise error_from_status(
                            status, reply[1] if len(reply) > 1 else ""
                        )
                    entries = []
                    for _ in range(status):
                        toks = stream.read_tokens()
                        if len(toks) == 2:
                            entries.append(AclEntry(toks[0], parse_rights(toks[1])))
                except DisconnectedError:
                    self._teardown()
                    raise
                error = False
                return Acl(entries)
            finally:
                self._observe("getacl", start, 0, 0, error)

    def setacl(self, path: str, pattern: str, rights: str) -> None:
        self.rpc("setacl", path, pattern, rights)

    def whoami(self) -> str:
        reply = self.rpc("whoami")
        return reply[1]

    def statfs(self) -> StatFs:
        reply = self.rpc("statfs")
        return StatFs.from_tokens(reply[1:])
