"""The ``BlobStore`` interface: storage resources behind the Chirp RPCs.

The paper's thesis is that storage *abstractions* should be separable
from the *resources* that serve them.  Before this package existed the
Chirp server was hard-wired to one POSIX directory, so "resources" meant
exactly one thing.  A :class:`BlobStore` is the minimal storage surface
the server's abstraction layer (ACLs, quotas, fd bookkeeping in
:mod:`repro.chirp.backend`) needs underneath it:

- a POSIX-ish namespace of files and directories addressed by *virtual*
  absolute paths (``/a/b/c``).  The store normalizes and confines each
  path it is given, unless the path is one its own ``resolve`` returned:
  that one comes back already walked, so the layer above can resolve a
  request path once and hand the result to every call of the request;
- random-access file handles (:class:`FileHandle`) with explicit-offset
  reads and writes, mirroring the wire protocol's ``pread``/``pwrite``;
- whole-blob helpers used by the layer above for its own bookkeeping
  (ACL files travel through the store like any other blob, so every
  store persists them without knowing what they are), plus an optional
  ``stamp`` -- a cheap content identity -- so that layer can keep what
  it parsed from a blob until the blob changes;
- an incrementally maintained usage counter so quota checks are O(1)
  instead of an O(files) tree walk;
- an optional content-addressed surface (``lookup_key``/``link_key``/
  ``key_of``) that non-CAS stores refuse with
  :class:`~repro.util.errors.InvalidRequestError` -- the same error an
  old server returns for an unknown verb, so clients probe and fall
  back uniformly.

Implementations: :class:`~repro.store.localdir.LocalDirStore` (the
original confined-directory semantics, byte-identical on disk),
:class:`~repro.store.memory.MemoryStore` (tests and simulations), and
:class:`~repro.store.cas.CasStore` (content-addressed, deduplicated,
refcounted blobs behind a path namespace).
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from typing import Hashable, Optional

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.util.errors import InvalidRequestError, NotAuthorizedError, UnknownError
from repro.util.paths import PathEscapeError, normalize_virtual

__all__ = [
    "BlobStore",
    "FileHandle",
    "HandleReader",
    "HandleWriter",
    "read_all",
    "write_all",
    "stat_stamp",
]

#: How long after a change a file's stat stops vouching for its content.
#: The kernel stamps files from a clock that ticks every 1-10 ms, so a
#: second write within the tick of the first can leave inode, times and
#: size all unchanged; filesystems with whole-second timestamps need a
#: second or more.
_SETTLE_NS = 20_000_000
_SETTLE_WHOLE_SECOND_NS = 2_000_000_000


def stat_stamp(st: os.stat_result) -> Hashable:
    """The :meth:`BlobStore.stamp` of a file, from its ``os.stat``.

    ``(inode, mtime, ctime, size)`` identifies the content once the last
    change has settled.  Until then the stamp is a fresh token equal to
    nothing, so callers keep re-reading.  ``ctime`` is the witness
    because no caller can set it back.
    """
    ctime = st.st_ctime_ns
    settle = _SETTLE_NS if ctime % 1_000_000_000 else _SETTLE_WHOLE_SECOND_NS
    if time.time_ns() - ctime < settle:
        return object()
    return (st.st_ino, st.st_mtime_ns, ctime, st.st_size)


class FileHandle(ABC):
    """An open file: the one handle contract of every layer.

    Store handles, :class:`~repro.core.cfs.ChirpFileHandle`, the layout
    handles and the client cache's handles all subclass this class, so
    a server serves, and a client stacks, any of them alike.

    Handles own no seek position: ``pread``/``pwrite`` carry explicit
    offsets, exactly like the wire protocol, so one handle may serve
    concurrent requests.  Streaming callers wrap a handle in
    :class:`HandleReader`/:class:`HandleWriter` for a cursor.

    ``close`` is idempotent: a second call is a no-op, never a second
    release of a resource (an fd number the kernel may already have
    handed to another file).

    Handles own their recovery: an implementation that talks to a remote
    server transparently reconnects and re-opens according to its
    :class:`~repro.transport.recovery.RetryPolicy`, raising
    :class:`~repro.util.errors.StaleHandleError` if the file changed
    identity underneath (the paper's NFS-style stale-handle rule).
    """

    @abstractmethod
    def pread(self, length: int, offset: int) -> bytes: ...

    @abstractmethod
    def pwrite(self, data: bytes, offset: int) -> int: ...

    @abstractmethod
    def fsync(self) -> None: ...

    @abstractmethod
    def fstat(self) -> ChirpStat: ...

    @abstractmethod
    def ftruncate(self, size: int) -> None: ...

    @abstractmethod
    def close(self) -> None: ...

    def fileno(self) -> Optional[int]:
        """An OS fd whose bytes are exactly this handle's content, or None.

        An optional capability: the server sends ``getfile`` straight
        from such an fd (``os.sendfile``), so the bytes never enter user
        space.  A handle that transforms, checks or spools what it reads
        must answer None, or the kernel would serve around it.
        """
        return None

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HandleReader:
    """A read-cursor over a handle (file-object ``read`` protocol).

    Lets the server stream ``getfile`` replies from any store through
    :meth:`~repro.util.wire.LineStream.write_from_file` without knowing
    whether an OS fd backs the handle.
    """

    def __init__(self, handle: FileHandle, offset: int = 0):
        self._handle = handle
        self._offset = offset

    def read(self, length: int) -> bytes:
        chunk = self._handle.pread(length, self._offset)
        self._offset += len(chunk)
        return chunk


class HandleWriter:
    """A write-cursor over a handle (file-object ``write`` protocol)."""

    def __init__(self, handle: FileHandle, offset: int = 0):
        self._handle = handle
        self._offset = offset

    def write(self, data: bytes) -> int:
        """Write all of ``data``: a store may honestly write a prefix
        (POSIX permits short writes), so loop on the rest; a handle that
        makes no progress raises rather than losing the tail."""
        view = memoryview(data)
        done = 0
        while done < len(view):
            n = self._handle.pwrite(view[done:], self._offset)
            if n <= 0:
                raise UnknownError("store wrote 0 bytes")
            self._offset += n
            done += n
        return done


def read_all(handle: FileHandle, chunk_size: int = 1 << 20) -> bytes:
    """Drain a handle from offset 0 (helper for whole-blob reads)."""
    chunks = []
    offset = 0
    while True:
        chunk = handle.pread(chunk_size, offset)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
        offset += len(chunk)


def write_all(handle: FileHandle, data: bytes, chunk_size: int = 1 << 20) -> int:
    """Write a whole byte string from offset 0."""
    writer = HandleWriter(handle)
    view = memoryview(data)
    for start in range(0, len(view), chunk_size):
        writer.write(view[start : start + chunk_size])
    return len(view)


class BlobStore(ABC):
    """Abstract storage resource behind one Chirp server (see module doc).

    All paths are *virtual* absolute paths; the store normalizes and
    confines them itself, once per path: a path its :meth:`resolve`
    returned is not walked again.  Errors surface as
    :class:`~repro.util.errors.ChirpError` subclasses so the protocol
    layer maps them without translation.

    Thread-safety contract: namespace mutations and usage accounting are
    serialized by ``self._lock``; data-path I/O on distinct handles may
    proceed concurrently.
    """

    #: short identifier reported to catalogs and metrics ("local", ...)
    kind: str = "abstract"
    #: True when the content-addressed surface is real (CasStore only)
    supports_cas: bool = False
    #: True when :meth:`stamp` is implemented
    supports_stamp: bool = False

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}

    # -- paths ----------------------------------------------------------

    def resolve(self, vpath: str) -> str:
        """``vpath`` normalized and confined, to hand back to this store.

        Stores on a disk walk the path here and return a
        :class:`~repro.util.paths.Resolved` that carries the walk; every
        method of the store accepts it in place of ``vpath`` and reuses
        the walk.  This default, for stores with no disk, normalizes
        only.  An escaping path raises
        :class:`~repro.util.errors.NotAuthorizedError`.
        """
        try:
            return normalize_virtual(vpath)
        except PathEscapeError as exc:
            raise NotAuthorizedError(str(exc)) from exc

    # -- file I/O -------------------------------------------------------

    @abstractmethod
    def open(self, vpath: str, flags: OpenFlags, mode: int) -> FileHandle: ...

    # -- namespace ------------------------------------------------------

    @abstractmethod
    def stat(self, vpath: str) -> ChirpStat: ...

    @abstractmethod
    def lstat(self, vpath: str) -> ChirpStat: ...

    @abstractmethod
    def exists(self, vpath: str) -> bool: ...

    @abstractmethod
    def isdir(self, vpath: str) -> bool: ...

    @abstractmethod
    def listdir(self, vpath: str) -> list[str]: ...

    @abstractmethod
    def unlink(self, vpath: str) -> None: ...

    @abstractmethod
    def rename(self, vold: str, vnew: str) -> None: ...

    @abstractmethod
    def mkdir(self, vpath: str, mode: int) -> None: ...

    @abstractmethod
    def rmdir(self, vpath: str) -> None: ...

    @abstractmethod
    def truncate(self, vpath: str, size: int) -> None: ...

    @abstractmethod
    def utime(self, vpath: str, atime: int, mtime: int) -> None: ...

    @abstractmethod
    def checksum(self, vpath: str) -> str: ...

    def stat_read(self, vpath: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """``stat`` plus the content of a small regular file.

        The content comes back only when ``vpath`` is a regular file of
        at most ``limit`` bytes (a negative ``limit`` asks for the stat
        alone); otherwise it is None.  Stores that can answer both from
        one open override this two-step default.
        """
        vpath = self.resolve(vpath)
        st = self.stat(vpath)
        if limit < 0 or not st.is_file or st.size > limit:
            return st, None
        with self.open(vpath, OpenFlags(read=True), 0) as handle:
            data = handle.pread(st.size, 0)
        return st, data

    # -- whole blobs (backend bookkeeping, e.g. ACL files) --------------

    def read_blob(self, vpath: str) -> bytes:
        """Read a whole blob (raises DoesNotExistError when absent)."""
        with self.open(vpath, OpenFlags(read=True), 0) as handle:
            return read_all(handle)

    def try_read_blob(self, vpath: str) -> Optional[bytes]:
        """Read a whole blob, or None when it does not exist."""
        from repro.util.errors import DoesNotExistError

        try:
            return self.read_blob(vpath)
        except DoesNotExistError:
            return None

    def write_blob(self, vpath: str, data: bytes) -> None:
        """Replace a blob's contents whole (atomically where possible)."""
        flags = OpenFlags(write=True, create=True, truncate=True)
        with self.open(vpath, flags, 0o644) as handle:
            write_all(handle, data)

    def stamp(self, vpath: str) -> Optional[Hashable]:
        """A cheap identity of a blob's current content, None when absent.

        Equal stamps promise equal content, so a caller may keep what it
        parsed from a blob for as long as the stamp stays the same.  An
        optional capability (``supports_stamp``): stores that cannot
        answer more cheaply than a read leave it unimplemented and their
        callers re-read.
        """
        raise InvalidRequestError(f"{self.kind} store does not stamp blobs")

    # -- capacity -------------------------------------------------------

    @abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently stored, maintained incrementally (O(1))."""

    @abstractmethod
    def capacity(self) -> tuple[int, int]:
        """(total_bytes, free_bytes) of the underlying resource, used
        when the server has no quota configured."""

    def reconcile_usage(self) -> int:
        """Recompute ``used_bytes`` from ground truth and return it.

        The incremental counter can drift when an operation fails
        partway (a ``pwrite`` that hit ENOSPC mid-call wrote *some*
        bytes); stores that track usage incrementally override this to
        re-derive the counter from the backing resource.  The default
        covers stores whose counter cannot drift.
        """
        return self.used_bytes()

    def janitor(self) -> int:
        """Sweep staging files a crashed predecessor left behind.

        Stores that stage writes through private temporary files (CAS
        spool/ingest temps, LocalDirStore rename staging) override this;
        a SIGKILL mid-write orphans those files forever otherwise.  Only
        wholly store-owned staging locations may be swept -- never
        client-visible namespace entries.  Returns the number of files
        removed.  Called by the server once at boot, before the
        listener opens.
        """
        return 0

    # -- content-addressed surface (CAS stores only) --------------------

    def lookup_key(self, key: str) -> bool:
        """Whether a sealed blob with this content key is present."""
        raise InvalidRequestError(f"{self.kind} store is not content-addressed")

    def link_key(self, vpath: str, key: str, mode: int = 0o644) -> int:
        """Bind ``vpath`` to an already-present blob; returns its size.

        The copy-by-reference primitive: no payload bytes move.  Raises
        :class:`~repro.util.errors.DoesNotExistError` when the key is
        absent (the caller falls back to a byte transfer).
        """
        raise InvalidRequestError(f"{self.kind} store is not content-addressed")

    def key_of(self, vpath: str) -> str:
        """The content key a path is bound to, from metadata (O(1))."""
        raise InvalidRequestError(f"{self.kind} store is not content-addressed")

    # -- observability --------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def snapshot(self) -> dict:
        """Per-store counters for ``MetricsRegistry.attach_section``."""
        with self._lock:
            snap = dict(self._counters)
        snap["kind"] = self.kind
        snap["used_bytes"] = self.used_bytes()
        return snap

    def close(self) -> None:
        """Release store resources (default: nothing to release)."""
