"""The Chirp personal file server.

Deployable by an ordinary user with one call::

    server = FileServer(ServerConfig(root="/scratch/me", owner="unix:me"))
    server.start()

The accept loop, admission control, drain and the idle reaper are the
shared :class:`~repro.util.server.ServerCore`; this module supplies one
connection's work: authenticate the client, then serve Unix-like RPCs
against a :class:`~repro.chirp.backend.Backend` layered over the
configured :class:`~repro.store.BlobStore` (``--store local|memory|cas``).
A reporter thread announces the server to its catalogs over UDP.
Failure semantics follow the paper: when a connection drops, every
resource associated with it -- in particular all open file descriptors
-- is freed immediately.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from dataclasses import dataclass, field

from repro.auth.methods import AuthContext, AuthFailed, authenticate_server
from repro.chirp.backend import Backend
from repro.chirp.protocol import (
    OpenFlags,
    PROTOCOL_VERSION,
    STATGET_MAX_BYTES,
    VERBS,
    payload_length,
)
from repro.store import FileHandle, HandleReader, HandleWriter, make_store
from repro.util.errors import (
    BadFileDescriptorError,
    ChirpError,
    DisconnectedError,
    InvalidRequestError,
    StatusCode,
)
from repro.util.server import ServerCore, Session
from repro.util.wire import LineStream, pack_line

__all__ = ["ServerConfig", "FileServer"]

log = logging.getLogger("repro.chirp.server")


@dataclass
class ServerConfig:
    """Everything needed to deploy a file server.

    The defaults make "run one command with no configuration" true: an
    ephemeral port on loopback, hostname+unix auth, and no catalogs.
    """

    root: str
    owner: str
    host: str = "127.0.0.1"
    port: int = 0
    name: str = ""
    auth: AuthContext = field(default_factory=AuthContext)
    catalog_addrs: tuple[tuple[str, int], ...] = ()
    report_interval: float = 5.0
    quota_bytes: int | None = None
    #: fsync parent directories after namespace changes (unlink, rename,
    #: mkdir, rmdir) so a host crash cannot silently undo them.  Costs a
    #: disk flush per metadata operation; operators who accept that risk
    #: for speed can turn it off with ``--no-sync-meta``.
    sync_meta: bool = True
    max_open_files: int = 256
    #: Close connections silent for this many seconds (``None`` disables
    #: the reaper).  Protects worker threads from slow-loris clients that
    #: hold a session open without ever completing a request.
    idle_timeout: float | None = None
    #: Which storage resource serves the abstraction: "local" (the
    #: classic confined directory, byte-identical semantics), "memory"
    #: (RAM; tests and simulations), or "cas" (content-addressed blobs
    #: with dedup and copy-by-reference).
    store: str = "local"
    #: Optional metrics registry; when set, per-store counters are
    #: published under the "store" section (and degraded-mode state
    #: under "volume").
    metrics: object | None = None
    #: Consecutive store write I/O errors before the volume degrades to
    #: read-only (a store-raised NO_SPACE degrades immediately).
    eio_degrade_threshold: int = 3
    #: Minimum seconds between degraded-mode recovery probes.
    recovery_probe_interval: float = 5.0
    #: Admission control: accept at most this many concurrent
    #: connections (``None`` = unbounded, the historical behaviour).
    #: Connections past the cap are answered with one ``BUSY`` status
    #: line and closed -- no worker thread, no auth, no fd table -- so
    #: a connection flood costs the server one tiny write per refusal.
    max_conns: int | None = None
    #: Per-subject in-flight request cap (``None`` = unbounded).  A
    #: subject already running this many requests across its
    #: connections gets ``BUSY`` on the next one instead of queueing.
    max_inflight_per_subject: int | None = None
    #: How long :meth:`FileServer.drain` waits for in-flight requests
    #: before closing anyway.
    drain_timeout: float = 10.0
    #: The backoff hint (milliseconds) embedded in ``BUSY`` refusals
    #: caused by saturation; drain refusals hint the remaining drain
    #: window instead.
    busy_retry_ms: int = 250


class _CountingWriter:
    """A :class:`HandleWriter` that counts the bytes offered to it.

    ``read_into_file`` consumes exactly the bytes it passes to
    ``write``, so ``consumed`` tells the putfile handler how much of
    the request payload is left to drain after a mid-write store
    failure.
    """

    def __init__(self, handle: FileHandle):
        self._writer = HandleWriter(handle)
        self.consumed = 0

    def write(self, data: bytes) -> int:
        self.consumed += len(data)
        return self._writer.write(data)


class _Connection(Session):
    """Per-connection state: the stream, the subject, and the fd table."""

    def __init__(self, stream: LineStream, subject: str, max_open: int):
        super().__init__(stream, subject)
        self.max_open = max_open
        self.fds: dict[int, FileHandle] = {}  # client fd -> store handle
        self.next_fd = 3

    def install_fd(self, handle: FileHandle) -> int:
        if len(self.fds) >= self.max_open:
            try:
                handle.close()
            except ChirpError:
                pass
            from repro.util.errors import TooManyOpenError

            raise TooManyOpenError("per-connection open file limit")
        cfd = self.next_fd
        self.next_fd += 1
        self.fds[cfd] = handle
        return cfd

    def lookup_fd(self, cfd: int) -> FileHandle:
        try:
            return self.fds[cfd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {cfd}") from None

    def drop_fd(self, cfd: int) -> FileHandle:
        try:
            return self.fds.pop(cfd)
        except KeyError:
            raise BadFileDescriptorError(f"fd {cfd}") from None

    def close_all(self) -> None:
        for handle in self.fds.values():
            try:
                handle.close()
            except Exception:
                pass
        self.fds.clear()


class FileServer(ServerCore):
    """A running Chirp file server; also usable as a context manager."""

    def __init__(self, config: ServerConfig):
        super().__init__(
            config.host,
            config.port,
            max_conns=config.max_conns,
            max_inflight_per_subject=config.max_inflight_per_subject,
            idle_timeout=config.idle_timeout,
            drain_timeout=config.drain_timeout,
            busy_retry_ms=config.busy_retry_ms,
        )
        self.config = config
        self.store = make_store(
            config.store, config.root, sync_meta=config.sync_meta
        )
        self.backend = Backend(
            self.store,
            config.owner,
            quota_bytes=config.quota_bytes,
            eio_degrade_threshold=config.eio_degrade_threshold,
            recovery_probe_interval=config.recovery_probe_interval,
        )
        if config.metrics is not None:
            config.metrics.attach_section("store", self.store)
            config.metrics.attach_section("volume", self.backend)
            config.metrics.attach_section("server", self)
        # verb -> (fewest args, most args, handler), resolved once
        self._verbs = {
            verb: (shape.nargs - shape.optional, shape.nargs, getattr(self, f"_op_{verb}"))
            for verb, shape in VERBS.items()
        }
        self._started_at = 0.0
        self.janitor_swept = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "FileServer":
        if self._listener is None:  # a second start() is refused below
            self._run_janitor()
        super().start()
        self._started_at = time.time()
        if self.config.catalog_addrs:
            self.spawn(self._report_loop, "reporter")
        return self

    def _run_janitor(self) -> None:
        """Crash janitor: sweep staging files a dead predecessor left.

        A SIGKILL mid-write leaks the store's private staging files (CAS
        spool/tmp objects, LocalDirStore rename staging) forever; they
        occupy disk but belong to no namespace entry.  Sweeping happens
        before the listener opens so no request ever races the sweep,
        and usage is reconciled afterwards so ``used_bytes`` (and hence
        quota and statfs) is correct after a crash.
        """
        try:
            swept = self.store.janitor()
        except (ChirpError, OSError) as exc:  # never block boot on cleanup
            log.warning("boot janitor failed: %s", exc)
            return
        self.janitor_swept = swept
        if swept:
            log.info("boot janitor swept %d orphaned staging file(s)", swept)
            try:
                self.store.reconcile_usage()
            except (ChirpError, OSError) as exc:
                log.warning("post-janitor usage reconcile failed: %s", exc)

    def announce_drain(self) -> None:
        try:
            self.report_now()
        except OSError:
            pass

    @property
    def name(self) -> str:
        return self.config.name or f"{self.address[0]}:{self.address[1]}"

    # -- serve / dispatch -------------------------------------------------

    payload_length = staticmethod(payload_length)

    def serve(self, sock: socket.socket, addr) -> None:
        stream = LineStream(sock)
        try:
            subject = authenticate_server(stream, self.config.auth, addr[0])
        except AuthFailed:
            return
        log.debug("connection from %s authenticated as %s", addr, subject)
        conn = _Connection(stream, subject, self.config.max_open_files)
        try:
            self.serve_requests(sock, conn)
        finally:
            # Failure semantics: free everything on disconnect.
            conn.close_all()

    def handle(self, conn: _Connection, tokens: list[str]) -> None:
        verb, args = tokens[0], tokens[1:]
        entry = self._verbs.get(verb)
        if entry is None:
            raise InvalidRequestError(f"unknown verb {verb}")
        fewest, most, op = entry
        if not fewest <= len(args) <= most:
            raise InvalidRequestError(f"{verb} takes {most} arguments")
        op(conn, args)

    # Each _op_* reads any request payload, performs the operation, and
    # writes exactly one status line (plus reply payload where defined).

    def _op_open(self, conn: _Connection, args: list[str]) -> None:
        path, flags_text, mode_text = args
        flags = OpenFlags.decode(flags_text)
        handle = self.backend.open(conn.subject, path, flags, int(mode_text))
        cfd = conn.install_fd(handle)
        conn.stream.write_line(cfd)

    def _op_close(self, conn: _Connection, args: list[str]) -> None:
        handle = conn.drop_fd(int(args[0]))
        self.backend.close(handle)
        conn.stream.write_line(0)

    def _op_pread(self, conn: _Connection, args: list[str]) -> None:
        cfd, length, offset = int(args[0]), int(args[1]), int(args[2])
        data = self.backend.pread(conn.lookup_fd(cfd), length, offset)
        # Header and payload leave in one sendall: the hot read path
        # costs one syscall (and one segment burst) per RPC.
        conn.stream.write(pack_line(len(data)) + data)

    def _op_pwrite(self, conn: _Connection, args: list[str]) -> None:
        cfd, length, offset = int(args[0]), int(args[1]), int(args[2])
        data = conn.stream.read_exact(length)
        try:
            handle = conn.lookup_fd(cfd)
        except BadFileDescriptorError:
            conn.stream.write_line(int(StatusCode.BAD_FD), f"fd {cfd}")
            return
        n = self.backend.pwrite(handle, data, offset)
        conn.stream.write_line(n)

    def _op_fsync(self, conn: _Connection, args: list[str]) -> None:
        self.backend.fsync(conn.lookup_fd(int(args[0])))
        conn.stream.write_line(0)

    def _op_fstat(self, conn: _Connection, args: list[str]) -> None:
        st = self.backend.fstat(conn.lookup_fd(int(args[0])))
        conn.stream.write_line(0, *st.to_tokens())

    def _op_ftruncate(self, conn: _Connection, args: list[str]) -> None:
        self.backend.ftruncate(conn.lookup_fd(int(args[0])), int(args[1]))
        conn.stream.write_line(0)

    def _op_stat(self, conn: _Connection, args: list[str]) -> None:
        st = self.backend.stat(conn.subject, args[0])
        conn.stream.write_line(0, *st.to_tokens())

    def _op_statget(self, conn: _Connection, args: list[str]) -> None:
        path, limit_text = args
        limit = int(limit_text)
        if limit < 0:
            raise InvalidRequestError("negative statget limit")
        st, data = self.backend.stat_read(
            conn.subject, path, min(limit, STATGET_MAX_BYTES)
        )
        if data is None:
            conn.stream.write_line(0, *st.to_tokens(), -1)
        else:
            conn.stream.write(pack_line(0, *st.to_tokens(), len(data)) + data)

    def _op_lstat(self, conn: _Connection, args: list[str]) -> None:
        st = self.backend.lstat(conn.subject, args[0])
        conn.stream.write_line(0, *st.to_tokens())

    def _op_access(self, conn: _Connection, args: list[str]) -> None:
        self.backend.access(conn.subject, args[0], args[1] if len(args) > 1 else "l")
        conn.stream.write_line(0)

    def _op_unlink(self, conn: _Connection, args: list[str]) -> None:
        self.backend.unlink(conn.subject, args[0])
        conn.stream.write_line(0)

    def _op_rename(self, conn: _Connection, args: list[str]) -> None:
        self.backend.rename(conn.subject, args[0], args[1])
        conn.stream.write_line(0)

    def _op_mkdir(self, conn: _Connection, args: list[str]) -> None:
        self.backend.mkdir(conn.subject, args[0], int(args[1]) if len(args) > 1 else 0o755)
        conn.stream.write_line(0)

    def _op_rmdir(self, conn: _Connection, args: list[str]) -> None:
        self.backend.rmdir(conn.subject, args[0])
        conn.stream.write_line(0)

    def _op_getdir(self, conn: _Connection, args: list[str]) -> None:
        names = self.backend.getdir(conn.subject, args[0])
        # Count line + one line per entry, coalesced into one sendall.
        conn.stream.write_lines([(len(names),), *((name,) for name in names)])

    def _op_getfile(self, conn: _Connection, args: list[str]) -> None:
        path = args[0]
        flags = OpenFlags(read=True)
        handle = self.backend.open(conn.subject, path, flags, 0)
        try:
            size = handle.fstat().size
            conn.stream.write_line(size)
            fd = handle.fileno()
            try:
                if fd is None:
                    conn.stream.write_from_file(HandleReader(handle), size)
                else:
                    conn.stream.sendfile(fd, 0, size)
            except ChirpError as exc:
                # The size line is out: a status line now would be read
                # as payload, so the only honest answer is to hang up.
                raise DisconnectedError(f"getfile {path}: {exc}") from exc
        finally:
            try:
                handle.close()
            except ChirpError:
                pass

    def _op_putfile(self, conn: _Connection, args: list[str]) -> None:
        path, mode_text, length_text = args
        self._put(conn, path, "wct", mode_text, length_text)

    def _op_putflags(self, conn: _Connection, args: list[str]) -> None:
        self._put(conn, *args)

    def _put(
        self, conn: _Connection, path: str, flags_text: str, mode_text: str, length_text: str
    ) -> None:
        """Open ``path`` with ``flags_text``, write the request payload
        whole, close: ``putfile`` is the ``wct`` case of ``putflags``.

        Every refusal drains the payload first, so the error travels as
        a status line and the next request still parses.
        """
        length = int(length_text)
        if length < 0:
            raise InvalidRequestError("negative put length")
        try:
            flags = OpenFlags.decode(flags_text)
            if not flags.write:
                raise InvalidRequestError("a put needs the w flag")
            handle = self.backend.open(
                conn.subject, path, flags, int(mode_text), charge=length
            )
        except (ChirpError, ValueError) as exc:
            status = exc.status if isinstance(exc, ChirpError) else StatusCode.INVALID_REQUEST
            conn.stream.discard(length)
            conn.stream.write_line(int(status), str(exc))
            return
        # Count bytes consumed from the stream so a store failure midway
        # through the payload (ENOSPC, EIO) can drain the unread tail and
        # keep the connection usable -- the error goes back as a status
        # line instead of a desynced stream.
        sink = _CountingWriter(handle)
        try:
            conn.stream.read_into_file(sink, length)
        except ChirpError as exc:
            self.backend.record_write_error(exc)
            try:
                handle.close()
            except ChirpError:
                pass
            if flags.exclusive:
                # This request created the file: a failed exclusive put
                # leaves nothing behind, so a retry may reuse the name.
                try:
                    self.backend.unlink(conn.subject, path)
                except ChirpError:
                    pass
            conn.stream.discard(length - sink.consumed)
            conn.stream.write_line(int(exc.status), str(exc))
            return
        try:
            handle.close()
        except ChirpError:
            pass
        self.backend.record_write_ok()
        conn.stream.write_line(length)

    # -- content-addressed verbs (CAS stores; others answer
    # INVALID_REQUEST, indistinguishable from an unknown verb, so
    # clients probe and fall back uniformly) --------------------------

    def _op_lookup(self, conn: _Connection, args: list[str]) -> None:
        present = self.backend.lookup(conn.subject, args[0])
        conn.stream.write_line(0, 1 if present else 0)

    def _op_putkey(self, conn: _Connection, args: list[str]) -> None:
        path, mode_text, key = args
        size = self.backend.putkey(conn.subject, path, int(mode_text), key)
        conn.stream.write_line(size)

    def _op_keyof(self, conn: _Connection, args: list[str]) -> None:
        key = self.backend.keyof(conn.subject, args[0])
        conn.stream.write_line(0, key)

    def _op_getacl(self, conn: _Connection, args: list[str]) -> None:
        acl = self.backend.getacl(conn.subject, args[0])
        conn.stream.write_lines(
            [(len(acl),), *((entry.pattern, str(entry.rights)) for entry in acl)]
        )

    def _op_setacl(self, conn: _Connection, args: list[str]) -> None:
        path, pattern, rights_text = args
        self.backend.setacl(conn.subject, path, pattern, rights_text)
        conn.stream.write_line(0)

    def _op_whoami(self, conn: _Connection, args: list[str]) -> None:
        conn.stream.write_line(0, conn.subject)

    def _op_statfs(self, conn: _Connection, args: list[str]) -> None:
        fs = self.backend.statfs()
        conn.stream.write_line(0, *fs.to_tokens())

    def _op_truncate(self, conn: _Connection, args: list[str]) -> None:
        self.backend.truncate(conn.subject, args[0], int(args[1]))
        conn.stream.write_line(0)

    def _op_utime(self, conn: _Connection, args: list[str]) -> None:
        self.backend.utime(conn.subject, args[0], int(args[1]), int(args[2]))
        conn.stream.write_line(0)

    def _op_checksum(self, conn: _Connection, args: list[str]) -> None:
        digest = self.backend.checksum(conn.subject, args[0])
        conn.stream.write_line(0, digest)

    # -- metrics ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Lifecycle metrics, published as the ``server`` section."""
        return {**super().snapshot(), "janitor_swept": self.janitor_swept}

    # -- catalog reporting --------------------------------------------------

    def build_report(self) -> dict:
        """The JSON document periodically sent to catalogs."""
        fs = self.backend.statfs()
        return {
            "type": "chirp",
            "name": self.name,
            "owner": self.config.owner,
            "host": self.address[0],
            "port": self.address[1],
            "version": PROTOCOL_VERSION,
            "store": self.store.kind,
            "total_bytes": fs.total_bytes,
            "free_bytes": fs.free_bytes,
            "root_acl": self.backend.root_acl_text(),
            "read_only": self.backend.read_only,
            "read_only_reason": self.backend.read_only_reason,
            "draining": self.draining,
            "uptime": time.time() - self._started_at,
            "report_time": time.time(),
        }

    def report_now(self) -> None:
        """Send one report to every configured catalog (used by tests)."""
        payload = json.dumps(self.build_report()).encode("utf-8")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            for addr in self.config.catalog_addrs:
                try:
                    s.sendto(payload, addr)
                except OSError:
                    log.warning("catalog report to %s failed", addr)

    def _report_loop(self) -> None:
        while not self._stop.is_set():
            # A degraded volume probes for recovery on the report cadence
            # (the probe throttles itself), so the catalog sees the
            # read_only flag drop as soon as the resource heals.
            self.backend.try_recover()
            self.report_now()
            self._stop.wait(self.config.report_interval)
