"""Client library for the Chirp protocol.

Mirrors the RPC fragment printed in the paper::

    conn = chirp_connect( host, port, timeout );
    chirp_open   ( conn, path, flags, mode, timeout );
    chirp_pread  ( conn, fd, data, length, off, timeout );
    chirp_pwrite ( conn, fd, data, length, off, timeout );
    chirp_close  ( conn, fd, timeout );
    chirp_stat   ( conn, path, statbuf, timeout );
    chirp_unlink ( conn, path, timeout );
    chirp_rename ( conn, path, newpath, timeout );

The client is deliberately stateless about file positions: ``pread`` and
``pwrite`` take explicit offsets, so the *caller* (normally the adapter)
owns seek state.

Since the transport refactor a ``ChirpClient`` is a *session* over an
:class:`~repro.transport.endpoint.Endpoint`, which may hold several
warm TCP connections to the same server.  Stateless operations (stat,
getfile, putfile, namespace calls) check a connection out for exactly
one exchange, so threads sharing one client proceed concurrently up to
the endpoint's connection cap instead of serializing on a global lock.

File descriptors remain *connection*-scoped, exactly as the paper's
server frees them on disconnect.  The client therefore hands out virtual
fds and routes each one to the connection that opened it; a fd whose
connection died surfaces :class:`~repro.util.errors.DisconnectedError`,
and handle-level recovery (see :mod:`repro.core.cfs`) re-opens.  The
endpoint's ``generation`` advances exactly once per reconnect-from-dead,
so a stale fd is never replayed against a newer connection.
"""

from __future__ import annotations

import io
import itertools
import threading
from typing import BinaryIO, Optional, Union

from repro.auth.acl import Acl, AclEntry, parse_rights
from repro.auth.methods import ClientCredentials
from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.transport.connection import Connection, Reply
from repro.transport.deadline import Deadline
from repro.transport.endpoint import Endpoint, EndpointSession
from repro.transport.metrics import MetricsRegistry
from repro.util.checksum import data_checksum
from repro.util.errors import (
    BadFileDescriptorError,
    BusyError,
    ChirpError,
    DisconnectedError,
    IntegrityError,
)

__all__ = ["ChirpClient"]


class _HashingSink:
    """Tees a streamed download into a sink while hashing it."""

    def __init__(self, sink: BinaryIO):
        from repro.util.checksum import new_hash

        self._sink = sink
        self._hash = new_hash()

    def write(self, data: bytes) -> int:
        self._hash.update(data)
        return self._sink.write(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class ChirpClient(EndpointSession):
    """A session with one Chirp file server.

    Thread-safe.  All errors surface as
    :class:`~repro.util.errors.ChirpError` subclasses.  Like the server
    it talks to, the client caches nothing: every call is an RPC.
    Client caching is one filesystem layer above the abstractions, the
    ``CachedFilesystem`` decorator.

    :param endpoint: share an existing endpoint session (the
        :class:`~repro.core.pool.ClientPool` path); when omitted, the
        client owns a private endpoint built from ``credentials``,
        ``timeout`` and ``max_conns``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        credentials: Optional[ClientCredentials] = None,
        timeout: float = 30.0,
        endpoint: Optional[Endpoint] = None,
        max_conns: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        # Virtual fd -> (connection, raw server fd).  Virtual fds are
        # never reused (monotonic counter), so a stale number can never
        # alias an fd opened after a reconnect.
        self._fd_lock = threading.Lock()
        self._fds: dict[int, tuple[Connection, int]] = {}
        self._next_fd = itertools.count(3)
        super().__init__(
            host, port, credentials, timeout, endpoint,
            max_conns=max_conns, metrics=metrics,
        )
        self.connect()

    # -- connection management -------------------------------------------

    def connect(self) -> None:
        """(Re)establish the session: drop every connection (and every
        fd with them) and dial afresh.  Advances the generation.

        Only this clears the fd table; ``close()`` does not: outstanding
        handles probing their fds must keep seeing DisconnectedError
        (their connections are closed), exactly as if the server had
        vanished.
        """
        with self._fd_lock:
            self._fds.clear()
        self.endpoint.connect()

    @property
    def generation(self) -> int:
        """Advances exactly once per reconnect; fds opened under an older
        generation died with their connections."""
        return self.endpoint.generation

    def ensure_connected(self) -> None:
        """Reconnect only if every connection is down.

        Used by handle recovery: when several handles notice the same
        dead server, only the first reconnects (one generation bump);
        the rest just re-open their files on the new connection.
        """
        self.endpoint.ensure_connected()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.is_connected else "closed"
        return f"ChirpClient({self.host}:{self.port}, {state}, subject={self.subject})"

    # -- RPC plumbing -------------------------------------------------------

    def _call(self, verb: str, *args: object, **options) -> Reply:
        """One stateless exchange (:meth:`Endpoint.call`, which redials a
        fully dead endpoint first) on any available connection.

        A ``BUSY`` refusal (admission control or a draining server) is
        retried here with the server's retry-after hint as the backoff,
        falling back to the endpoint policy's schedule when the refusal
        carries none.  The connection is checked in *before* sleeping --
        it is perfectly healthy, the server just declined the work -- so
        the breaker never moves and the pool is not held hostage.
        """
        policy = self.endpoint.policy
        delays = None
        while True:
            try:
                return self.endpoint.call(verb, *args, **options)
            except BusyError as busy:
                if delays is None:
                    delays = policy.delays()
                delay = next(delays, None)
                if delay is None:
                    raise
                if busy.retry_after_s is not None:
                    delay = min(busy.retry_after_s, policy.max_delay)
            policy.clock.sleep(delay)

    def _stat(self, verb: str, *args: object, **options) -> ChirpStat:
        return ChirpStat.from_tokens(self._call(verb, *args, **options).tokens[1:])

    def _fd_conn(self, fd: int) -> tuple[Connection, int]:
        """Route a virtual fd to its owning connection."""
        with self._fd_lock:
            entry = self._fds.get(fd)
        if entry is None:
            # Never issued, or explicitly closed.  Dead-connection fds
            # stay mapped (to a closed connection) so recovery still sees
            # DisconnectedError below.
            raise BadFileDescriptorError(f"fd {fd} is not open on this client")
        conn, raw_fd = entry
        if conn.closed:
            # Keep the mapping: the caller may probe the dead fd again
            # before recovery runs, and each probe must keep reading as a
            # disconnect.  connect()/close() clear the table.
            raise DisconnectedError(f"fd {fd}: its connection is gone")
        return conn, raw_fd

    # -- file I/O -------------------------------------------------------

    def open(
        self,
        path: str,
        flags: Union[str, OpenFlags] = "r",
        mode: int = 0o644,
    ) -> int:
        """Open a remote file; returns a connection-scoped fd.

        The returned fd is bound to the connection that opened it; all
        later operations on it route there, concurrent with traffic on
        the endpoint's other connections.
        """
        if isinstance(flags, str):
            try:
                flags = OpenFlags.decode(flags)
            except ChirpError:
                flags = OpenFlags.parse_mode_string(flags)
        conn = self.endpoint.checkout()
        try:
            raw_fd = conn.call("open", path, flags.encode(), mode).status
        finally:
            self.endpoint.checkin(conn)
        with self._fd_lock:
            fd = next(self._next_fd)
            self._fds[fd] = (conn, raw_fd)
        return fd

    def close_fd(self, fd: int) -> None:
        try:
            conn, raw_fd = self._fd_conn(fd)
        except DisconnectedError:
            # Explicit close is end-of-life even for a dead connection's
            # fd; the server freed it on disconnect already.
            with self._fd_lock:
                self._fds.pop(fd, None)
            raise
        try:
            conn.call("close", raw_fd)
        finally:
            with self._fd_lock:
                self._fds.pop(fd, None)

    def pread(self, fd: int, length: int, offset: int, deadline=None) -> bytes:
        conn, raw_fd = self._fd_conn(fd)
        return conn.call("pread", raw_fd, length, offset, deadline=deadline).body

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        conn, raw_fd = self._fd_conn(fd)
        return conn.call("pwrite", raw_fd, len(data), offset, payload=data).status

    def fsync(self, fd: int) -> None:
        conn, raw_fd = self._fd_conn(fd)
        conn.call("fsync", raw_fd)

    def fstat(self, fd: int) -> ChirpStat:
        conn, raw_fd = self._fd_conn(fd)
        return ChirpStat.from_tokens(conn.call("fstat", raw_fd).tokens[1:])

    def ftruncate(self, fd: int, size: int) -> None:
        conn, raw_fd = self._fd_conn(fd)
        conn.call("ftruncate", raw_fd, size)

    # -- namespace ------------------------------------------------------

    def stat(self, path: str, deadline: Optional[Deadline] = None) -> ChirpStat:
        return self._stat("stat", path, deadline=deadline)

    def lstat(self, path: str) -> ChirpStat:
        return self._stat("lstat", path)

    # -- protocol v4: compound verbs -------------------------------------

    def statget(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """``stat`` plus the content of a small regular file, one RPC.

        The content is None for anything but a regular file of at most
        ``limit`` bytes that the subject may read.
        """
        reply = self._call("statget", path, limit)
        return ChirpStat.from_tokens(reply.tokens[1:-1]), reply.body

    def putflags(
        self, path: str, data: bytes, flags: OpenFlags, mode: int = 0o644
    ) -> int:
        """Open with ``flags``, write ``data`` whole and close, in one RPC.

        ``wcx`` is an exclusive create-and-write; ``wt`` replaces an
        existing file and never creates one.
        """
        return self._call(
            "putflags", path, flags.encode(), mode, len(data), payload=data
        ).status

    def access(self, path: str, rights: str = "l") -> None:
        self._call("access", path, rights)

    def exists(self, path: str) -> bool:
        """Convenience: stat without raising for a missing path."""
        try:
            self.stat(path)
            return True
        except ChirpError:
            return False

    def unlink(self, path: str) -> None:
        self._call("unlink", path)

    def rename(self, old: str, new: str) -> None:
        self._call("rename", old, new)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._call("mkdir", path, mode)

    def rmdir(self, path: str) -> None:
        self._call("rmdir", path)

    def getdir(self, path: str, deadline: Optional[Deadline] = None) -> list[str]:
        return [
            entry[0] if entry else ""
            for entry in self._call("getdir", path, deadline=deadline).body
        ]

    def truncate(self, path: str, size: int) -> None:
        self._call("truncate", path, size)

    def utime(self, path: str, atime: int, mtime: int) -> None:
        self._call("utime", path, atime, mtime)

    def checksum(self, path: str, deadline: Optional[Deadline] = None) -> str:
        return self._call("checksum", path, deadline=deadline).tokens[1]

    # -- content-addressed operations (CAS servers only) -----------------

    def lookup(self, key: str) -> bool:
        """Whether the server already holds a sealed blob with this key."""
        tokens = self._call("lookup", key).tokens
        return len(tokens) > 1 and tokens[1] == "1"

    def putkey(self, path: str, key: str, mode: int = 0o644) -> int:
        """Copy-by-reference: bind ``path`` to an existing blob by key.

        Returns the blob size.  Raises DoesNotExistError when the key is
        absent (caller falls back to putfile) and InvalidRequestError on
        non-CAS servers.
        """
        return self._call("putkey", path, mode, key).status

    def keyof(self, path: str) -> str:
        """The content key a path is bound to (metadata-only)."""
        return self._call("keyof", path).tokens[1]

    # -- streaming whole files -------------------------------------------

    def getfile(self, path: str, sink: Optional[BinaryIO] = None) -> bytes | int:
        """Stream a whole file.

        With no ``sink``, returns the contents as bytes.  With a ``sink``,
        streams into it and returns the byte count (never materializing
        the file in client memory).
        """
        return self._call("getfile", path, sink=sink).body

    def getfile_verified(
        self, path: str, expected: str, sink: Optional[BinaryIO] = None
    ) -> bytes | int:
        """Stream a whole file and verify it hashes to ``expected``.

        On a digest mismatch -- the server holds (or served) corrupted
        bytes -- raises :class:`~repro.util.errors.IntegrityError`.
        With no ``sink`` the corrupt bytes are never returned; with a
        ``sink`` they may already have been streamed into it, so the
        caller must discard the sink's contents on error (or fetch
        through a spool, as :meth:`repro.core.dsdb.DSDB.fetch` does).
        """
        if sink is None:
            data = self.getfile(path)
            if data_checksum(data) != expected:
                raise IntegrityError(
                    f"{path}: content digest mismatch (expected {expected})"
                )
            return data
        tee = _HashingSink(sink)
        count = self.getfile(path, tee)
        if tee.hexdigest() != expected:
            raise IntegrityError(
                f"{path}: content digest mismatch (expected {expected})"
            )
        return count

    def putfile(
        self,
        path: str,
        data: Union[bytes, BinaryIO],
        mode: int = 0o644,
        length: Optional[int] = None,
    ) -> int:
        """Stream a whole file to the server (create/truncate semantics).

        ``data`` is bytes or a file object read from its position; for a
        file object ``length`` defaults to the bytes left in it.
        """
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
            length = len(data)
        elif length is None:
            pos = data.tell()
            data.seek(0, io.SEEK_END)
            length = data.tell() - pos
            data.seek(pos)
        return self._call("putfile", path, mode, length, payload=data).status

    # -- ACLs and server state ---------------------------------------------

    def getacl(self, path: str) -> Acl:
        lines = self._call("getacl", path).body
        return Acl([AclEntry(t[0], parse_rights(t[1])) for t in lines if len(t) == 2])

    def setacl(self, path: str, pattern: str, rights: str) -> None:
        self._call("setacl", path, pattern, rights)

    def whoami(self) -> str:
        return self._call("whoami").tokens[1]

    def statfs(self) -> StatFs:
        return StatFs.from_tokens(self._call("statfs").tokens[1:])
