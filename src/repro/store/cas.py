"""CasStore: content-addressed storage behind a POSIX-ish namespace.

Blobs are keyed by their checksum (the same hex digest the ``checksum``
RPC reports, so keys and wire checksums are one vocabulary).  The store
splits into two planes:

- ``objects/<k:2>/<key>`` -- sealed, immutable blobs, chmod read-only,
  written once via temp-file + rename and deduplicated by construction:
  ingesting content that already exists is a refcount bump, not a write;
- ``ns/...`` -- an ordinary directory tree whose *files* are one-line
  JSON pointer records ``{key, size, mode, atime, mtime}`` binding a
  virtual path to a blob.  Directories are real directories, so rename
  and rmdir inherit kernel atomicity.

Invariants:

- an object file's name always equals the checksum of its bytes (bitrot
  breaks this; ``scrub`` detects and optionally quarantines it);
- the empty blob (``EMPTY_KEY``) is implicit: no object file backs it,
  so it is never ingested, GC'd or scrubbed, and every store holds it;
- refcount(key) == number of ns pointers naming ``key``, rebuilt by a
  startup walk and maintained under the store lock (a truncating open
  keeps the blob it unbinds referenced until its handle seals);
- refcount 0 => the object is deleted immediately (eager GC);
- pointer replacement is atomic (write-temp + rename), so readers see
  either the old or the new binding, never a torn one; a new pointer is
  created exclusively (staged, then hard-linked into place).

Mutation happens on a write-handle *spool* (seeded from the current blob
when opening an existing file without truncate) and is sealed back --
hash, ingest, repoint -- on ``fsync``/``close``.  Mid-write bytes are
thus invisible to other readers: snapshot isolation at file granularity,
slightly stronger than the local store, identical at whole-op
granularity.

Durability is the seal's, and a seal pays the crash-atomic floor: fsync
the object, fsync its shard directory, fsync the pointer, fsync its
namespace directory -- four fsyncs for new content, two for a dedup hit
(the object is already durable under its name).  A create or truncate
open only makes the empty file visible, with no fsync, just as the local
store's ``O_CREAT``/``O_TRUNC`` promise no more.  ``snapshot()`` counts
``fsyncs`` and ``files_created`` so tests can pin this ledger.

Copy-by-reference falls out of the naming scheme: ``link_key`` binds a
path to an already-present blob without moving payload bytes, and
``key_of`` answers integrity audits from metadata in O(1).
"""

from __future__ import annotations

import io
import json
import os
import stat as stat_mod
import tempfile
import time
from typing import Optional

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.interface import BlobStore, FileHandle, stat_stamp
from repro.util.checksum import data_checksum, file_checksum, stream_checksum
from repro.util.errors import (
    AlreadyExistsError,
    BadFileDescriptorError,
    DoesNotExistError,
    IsADirectoryError_,
    NotAuthorizedError,
    UnknownError,
    wrap_os_error,
)
from repro.util.jsonlog import fsync_dir
from repro.util.paths import PathEscapeError, Resolved, resolve

__all__ = ["CasStore", "EMPTY_KEY"]

_PTR_MAGIC = "casptr"
_SPOOL_MAX = 8 << 20  # spill write spools to disk beyond 8 MiB
# The empty blob is implicit: every store holds it and no object file
# backs it, so it is never ingested, never GC'd and never scrubbed.
EMPTY_KEY = data_checksum(b"")


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class _Pointer:
    """A decoded namespace pointer record."""

    __slots__ = ("key", "size", "mode", "atime", "mtime")

    def __init__(self, key: str, size: int, mode: int, atime: int, mtime: int):
        self.key = key
        self.size = size
        self.mode = mode
        self.atime = atime
        self.mtime = mtime

    def to_bytes(self) -> bytes:
        record = {
            "tss": _PTR_MAGIC,
            "key": self.key,
            "size": self.size,
            "mode": self.mode,
            "atime": self.atime,
            "mtime": self.mtime,
        }
        return (json.dumps(record, separators=(",", ":")) + "\n").encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes) -> "_Pointer":
        record = json.loads(data.decode("ascii"))
        if record.get("tss") != _PTR_MAGIC:
            raise ValueError("not a CAS pointer record")
        return cls(
            str(record["key"]),
            int(record["size"]),
            int(record["mode"]),
            int(record["atime"]),
            int(record["mtime"]),
        )


class _CasReadHandle(FileHandle):
    """A read-only handle: an OS fd on the sealed object itself (on
    ``/dev/null`` for the implicit empty blob).  ``close`` sets the fd
    to -1, so a later call can never reach a reused fd number."""

    def __init__(self, fd: int, ptr: _Pointer, ptr_real: str):
        self._fd = fd
        self._ptr = ptr
        self._ptr_real = ptr_real

    def _check_open(self) -> None:
        if self._fd < 0:
            raise BadFileDescriptorError("handle is closed")

    def pread(self, length: int, offset: int) -> bytes:
        try:
            return os.pread(self._fd, length, offset)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def pwrite(self, data: bytes, offset: int) -> int:
        raise BadFileDescriptorError("handle not open for writing")

    def fileno(self) -> int:
        return self._fd

    def fsync(self) -> None:
        self._check_open()  # sealed objects are already durable

    def fstat(self) -> ChirpStat:
        self._check_open()
        try:
            return _stat_from_pointer(self._ptr, os.stat(self._ptr_real))
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def ftruncate(self, size: int) -> None:
        raise BadFileDescriptorError("handle not open for writing")

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd < 0:
            return
        try:
            os.close(fd)
        except OSError as exc:
            raise BadFileDescriptorError(str(exc)) from exc


class _CasWriteHandle(FileHandle):
    """A writable handle: mutations accumulate on a spool, sealed back
    into the object plane on fsync/close."""

    def __init__(self, store: "CasStore", vpath: str, flags: OpenFlags, mode: int):
        self._store = store
        self._vpath = vpath
        self._flags = flags
        self._mode = mode & 0o777
        self._spool = tempfile.SpooledTemporaryFile(
            max_size=_SPOOL_MAX, dir=store.tmp_root
        )
        self._closed = False
        # The blob a truncating open unbound from this path.  The
        # open's empty pointer is not durable, so the blob stays
        # referenced until the seal's pointer is.
        self._held: str | None = None

    def _check_open(self) -> None:
        if self._closed:
            raise BadFileDescriptorError("handle is closed")

    def _size(self) -> int:
        self._spool.seek(0, os.SEEK_END)
        return self._spool.tell()

    def pread(self, length: int, offset: int) -> bytes:
        self._check_open()
        if not self._flags.read:
            raise BadFileDescriptorError("handle not open for reading")
        with self._store._lock:
            self._spool.seek(offset)
            return self._spool.read(length)

    def pwrite(self, data: bytes, offset: int) -> int:
        self._check_open()
        if not data:
            return 0  # POSIX: a zero-length write never extends the file
        with self._store._lock:
            if self._flags.append:
                offset = self._size()
            end = self._size()
            if offset > end:
                self._spool.seek(0, os.SEEK_END)
                self._spool.write(b"\x00" * (offset - end))
            self._spool.seek(offset)
            self._spool.write(data)
            return len(data)

    def fsync(self) -> None:
        self._check_open()
        self._seal()

    def fstat(self) -> ChirpStat:
        self._check_open()
        with self._store._lock:
            size = self._size()
        ptr_real = self._store.resolve(self._vpath).real
        try:
            pst = os.stat(ptr_real)
        except OSError as exc:
            raise wrap_os_error(exc, self._vpath) from exc
        st = ChirpStat.from_os(pst)
        return ChirpStat(
            device=st.device,
            inode=st.inode,
            mode=stat_mod.S_IFREG | self._mode,
            nlink=1,
            uid=st.uid,
            gid=st.gid,
            size=size,
            atime=st.atime,
            mtime=st.mtime,
            ctime=st.ctime,
        )

    def ftruncate(self, size: int) -> None:
        self._check_open()
        with self._store._lock:
            end = self._size()
            if size < end:
                self._spool.seek(size)
                self._spool.truncate(size)
            elif size > end:
                self._spool.seek(0, os.SEEK_END)
                self._spool.write(b"\x00" * (size - end))

    def _seal(self) -> None:
        self._spool.seek(0)
        key = stream_checksum(self._spool)
        size = self._size()
        self._spool.seek(0)
        self._store._ingest(self._spool, key, size)
        self._store._repoint(self._vpath, key, size, self._mode)
        if self._held is not None:
            with self._store._lock:
                self._store._decref(self._held)
            self._held = None
        self._store._count("seals")

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._seal()
        finally:
            self._closed = True
            self._spool.close()


def _stat_from_pointer(ptr: _Pointer, pst: os.stat_result) -> ChirpStat:
    """Synthesize a file stat: identity from the pointer file's stat
    ``pst``, size and times from the pointer record, type always
    regular-file."""
    st = ChirpStat.from_os(pst)
    return ChirpStat(
        device=st.device,
        inode=st.inode,
        mode=stat_mod.S_IFREG | (ptr.mode & 0o777),
        nlink=1,
        uid=st.uid,
        gid=st.gid,
        size=ptr.size,
        atime=ptr.atime,
        mtime=ptr.mtime,
        ctime=st.ctime,
    )


class CasStore(BlobStore):
    """Content-addressed store (see module doc)."""

    kind = "cas"
    supports_cas = True
    supports_stamp = True

    def __init__(self, root: str, *, sync_meta: bool = True):
        super().__init__()
        self.root = os.path.realpath(root)
        if not os.path.isdir(self.root):
            raise NotADirectoryError(f"store root {root!r} is not a directory")
        self.sync_meta = sync_meta
        self.ns_root = os.path.join(self.root, "ns")
        self.obj_root = os.path.join(self.root, "objects")
        self.tmp_root = os.path.join(self.root, "tmp")
        self.quarantine_root = os.path.join(self.root, "quarantine")
        for d in (self.ns_root, self.obj_root, self.tmp_root, self.quarantine_root):
            os.makedirs(d, exist_ok=True)
        self._refs: dict[str, int] = {}
        self._used = 0
        self._counters.update(fsyncs=0, files_created=0)
        self._rebuild()

    # -- startup --------------------------------------------------------

    def _rebuild(self) -> None:
        """Rebuild refcounts from the namespace and usage from the object
        plane (physical truth; orphaned objects count until GC'd)."""
        for dirpath, _dirnames, filenames in os.walk(self.ns_root):
            for name in filenames:
                try:
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        ptr = _Pointer.from_bytes(fh.read())
                except (OSError, ValueError, KeyError):
                    continue
                self._refs[ptr.key] = self._refs.get(ptr.key, 0) + 1
        for dirpath, _dirnames, filenames in os.walk(self.obj_root):
            for name in filenames:
                try:
                    self._used += os.lstat(os.path.join(dirpath, name)).st_size
                except OSError:
                    continue

    # -- plumbing -------------------------------------------------------

    def resolve(self, vpath: str) -> Resolved:
        try:
            return resolve(self.ns_root, vpath)
        except PathEscapeError as exc:
            raise NotAuthorizedError(str(exc)) from exc

    def _file_ns(self, vpath: str) -> str:
        """The pointer file of ``vpath``; a directory is refused."""
        path = self.resolve(vpath)
        if path.isdir():
            raise IsADirectoryError_(vpath)
        return path.real

    def _object_path(self, key: str) -> str:
        if not key or "/" in key or key.startswith("."):
            raise DoesNotExistError(f"malformed content key {key!r}")
        return os.path.join(self.obj_root, key[:2], key)

    def _content_path(self, key: str) -> str:
        """Where ``key``'s bytes are read from (``/dev/null`` for the
        implicit empty blob)."""
        return os.devnull if key == EMPTY_KEY else self._object_path(key)

    def _fsync(self, fd: int) -> None:
        os.fsync(fd)
        self._count("fsyncs")

    def _fsync_dir(self, real_path: str) -> None:
        if self.sync_meta and fsync_dir(real_path):
            self._count("fsyncs")

    def _mkstemp(self) -> tuple[int, str]:
        self._count("files_created")
        return tempfile.mkstemp(dir=self.tmp_root)

    def _read_pointer(self, real: str, vpath: str) -> _Pointer:
        try:
            with open(real, "rb") as fh:
                data = fh.read()
        except FileNotFoundError as exc:
            raise DoesNotExistError(vpath) from exc
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        try:
            return _Pointer.from_bytes(data)
        except (ValueError, KeyError) as exc:
            raise UnknownError(f"{vpath}: corrupt CAS pointer record") from exc

    def _write_pointer(self, real: str, ptr: _Pointer, *, exclusive: bool = False,
                       sync: bool = True) -> None:
        """Bind ``real`` to ``ptr`` whole: readers see the old record or
        the new one, never a torn one.

        ``exclusive`` is ``O_CREAT|O_EXCL`` with the content already in
        place: the staged record is hard-linked to ``real``, which fails
        with EEXIST if anything got there first.  ``sync`` fsyncs the
        record before it becomes visible; the directory entry is the
        caller's to fsync.
        """
        # Stage through tmp_root, not next to the pointer: a crashed
        # predecessor's staging files must be sweepable by the boot
        # janitor, and only tmp_root is wholly store-owned -- an
        # ns-plane ``<name>.tmp`` could be a legitimate pointer for a
        # client file literally named ``<name>.tmp``.
        fd, tmp = self._mkstemp()
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(ptr.to_bytes())
                if sync:
                    fh.flush()
                    self._fsync(fh.fileno())
            if exclusive:
                os.link(tmp, real)
            else:
                os.replace(tmp, real)
        except OSError as exc:
            _discard(tmp)
            if exclusive:
                raise wrap_os_error(exc, real) from exc
            raise
        if exclusive:
            _discard(tmp)

    # -- object plane ---------------------------------------------------

    def _ingest(self, source, key: str, size: int) -> None:
        """Copy a readable stream into the object plane (no-op when the
        key is already present -- dedup -- or is the empty blob)."""
        if key == EMPTY_KEY:
            return
        obj = self._object_path(key)
        shard = os.path.dirname(obj)
        with self._lock:
            if os.path.exists(obj):
                self._count("dedup_hits")
                return
            if not os.path.isdir(shard):
                os.makedirs(shard, exist_ok=True)
                self._fsync_dir(self.obj_root)  # the shard's own name
            fd, tmp = self._mkstemp()
            try:
                with os.fdopen(fd, "wb") as out:
                    while True:
                        chunk = source.read(1 << 20)
                        if not chunk:
                            break
                        out.write(chunk)
                    out.flush()
                    self._fsync(out.fileno())
                    os.fchmod(out.fileno(), 0o444)
                os.replace(tmp, obj)
            except OSError:
                _discard(tmp)
                raise
            self._fsync_dir(shard)
            self._used += size
            self._count("objects_ingested")
            self._count("bytes_ingested", size)

    def _incref(self, key: str) -> None:
        self._refs[key] = self._refs.get(key, 0) + 1

    def _decref(self, key: str) -> None:
        count = self._refs.get(key, 0) - 1
        if count > 0:
            self._refs[key] = count
            return
        self._refs.pop(key, None)
        if key == EMPTY_KEY:
            return
        obj = self._object_path(key)
        try:
            size = os.lstat(obj).st_size
            os.unlink(obj)
            self._used -= size
            self._count("objects_gc")
        except OSError:
            pass

    def _key_at(self, real: str, vpath: str) -> str | None:
        """The key ``vpath`` is bound to; None when unbound or corrupt."""
        if not os.path.isfile(real):
            return None
        try:
            return self._read_pointer(real, vpath).key
        except UnknownError:
            return None

    def _repoint(self, vpath: str, key: str, size: int, mode: int,
                 atime: int | None = None, mtime: int | None = None) -> None:
        """Atomically bind ``vpath`` to ``key``, releasing the old blob."""
        real = self.resolve(vpath).real
        now = int(time.time())
        ptr = _Pointer(key, size, mode, atime if atime is not None else now,
                       mtime if mtime is not None else now)
        with self._lock:
            old_key = self._key_at(real, vpath)
            self._write_pointer(real, ptr)
            self._incref(key)
            if old_key is not None:
                self._decref(old_key)
        self._fsync_dir(os.path.dirname(real))

    # -- file I/O -------------------------------------------------------

    def open(self, vpath: str, flags: OpenFlags, mode: int) -> FileHandle:
        real = self._file_ns(vpath)
        writable = flags.write or flags.create or flags.truncate
        if not writable:
            ptr = self._read_pointer(real, vpath)
            try:
                fd = os.open(self._content_path(ptr.key), os.O_RDONLY)
            except OSError as exc:
                raise wrap_os_error(exc, vpath) from exc
            self._count("open")
            return _CasReadHandle(fd, ptr, real)

        # The handle outlives this call: it keeps the path, not the walk.
        handle = _CasWriteHandle(self, str(vpath), flags, mode)
        with self._lock:
            exists = os.path.isfile(real)
            if not exists:
                if not flags.create:
                    raise DoesNotExistError(vpath)
                if not os.path.isdir(os.path.dirname(real)):
                    raise DoesNotExistError(vpath)
            elif flags.exclusive and flags.create:
                raise AlreadyExistsError(vpath)
            if not exists or flags.truncate:
                # A created or truncated file is visible as empty right
                # away, like the local store -- and, like its O_CREAT,
                # not yet durable: durability is the seal's.  The check
                # above and this write share the lock, and a new pointer
                # is created exclusively, so two exclusive creates of one
                # path never both succeed.
                now = int(time.time())
                empty = _Pointer(EMPTY_KEY, 0, handle._mode, now, now)
                if exists:
                    handle._held = self._key_at(real, vpath)
                self._write_pointer(real, empty, exclusive=not exists, sync=False)
                self._incref(EMPTY_KEY)

        if exists and not flags.truncate:
            # r+/w-without-truncate: seed the spool with current content
            # so offset writes edit in place.
            ptr = self._read_pointer(real, vpath)
            handle._mode = ptr.mode
            try:
                with open(self._content_path(ptr.key), "rb") as src:
                    while True:
                        chunk = src.read(1 << 20)
                        if not chunk:
                            break
                        handle._spool.write(chunk)
            except OSError as exc:
                raise wrap_os_error(exc, vpath) from exc
        self._count("open")
        return handle

    # -- namespace ------------------------------------------------------

    def stat(self, vpath: str) -> ChirpStat:
        path = self.resolve(vpath)
        try:
            if path.isdir():
                return ChirpStat.from_os(path.stat())
            ptr = self._read_pointer(path.real, vpath)
            return _stat_from_pointer(ptr, path.stat())
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    def lstat(self, vpath: str) -> ChirpStat:
        return self.stat(vpath)  # pointer files are not symlinks

    def stamp(self, vpath: str):
        """Stamped on the pointer file: rebinding a path rewrites it."""
        path = self.resolve(vpath)
        if path.st is None:
            return None
        try:
            return stat_stamp(path.stat())
        except OSError:
            return None

    def exists(self, vpath: str) -> bool:
        return os.path.exists(self.resolve(vpath).real)

    def isdir(self, vpath: str) -> bool:
        return self.resolve(vpath).isdir()

    def listdir(self, vpath: str) -> list[str]:
        try:
            return os.listdir(self.resolve(vpath).real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    def unlink(self, vpath: str) -> None:
        real = self._file_ns(vpath)
        with self._lock:
            ptr = self._read_pointer(real, vpath)
            try:
                os.unlink(real)
            except OSError as exc:
                raise wrap_os_error(exc, vpath) from exc
            self._decref(ptr.key)
        self._fsync_dir(os.path.dirname(real))

    def rename(self, vold: str, vnew: str) -> None:
        old, new = self.resolve(vold), self.resolve(vnew)
        real_old, real_new = old.real, new.real
        with self._lock:
            clobbered = None
            # Renaming a file onto itself, or onto a hard link to itself,
            # is a no-op (POSIX): its blob is still named, so it must not
            # be released.
            if (not old.same_entry(new) and os.path.isfile(real_new)
                    and not os.path.isdir(real_old)):
                try:
                    clobbered = self._read_pointer(real_new, vnew).key
                except (DoesNotExistError, UnknownError):
                    clobbered = None
            try:
                os.rename(real_old, real_new)
            except OSError as exc:
                raise wrap_os_error(exc, vold) from exc
            if clobbered is not None:
                self._decref(clobbered)
        self._fsync_dir(os.path.dirname(real_new))
        if os.path.dirname(real_old) != os.path.dirname(real_new):
            self._fsync_dir(os.path.dirname(real_old))

    def mkdir(self, vpath: str, mode: int) -> None:
        real = self.resolve(vpath).real
        try:
            os.mkdir(real, mode & 0o777)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        self._fsync_dir(os.path.dirname(real))

    def rmdir(self, vpath: str) -> None:
        real = self.resolve(vpath).real
        try:
            os.rmdir(real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        self._fsync_dir(os.path.dirname(real))

    def truncate(self, vpath: str, size: int) -> None:
        real = self._file_ns(vpath)
        ptr = self._read_pointer(real, vpath)
        if size == ptr.size:
            return
        # Immutable blobs: truncation re-seals resized content.
        data = self.read_blob(vpath)
        if size < len(data):
            data = data[:size]
        else:
            data = data + b"\x00" * (size - len(data))
        key = data_checksum(data)
        self._ingest(io.BytesIO(data), key, len(data))
        self._repoint(vpath, key, len(data), ptr.mode, ptr.atime, None)

    def utime(self, vpath: str, atime: int, mtime: int) -> None:
        path = self.resolve(vpath)
        real = path.real
        if path.isdir():
            try:
                os.utime(real, (atime, mtime))
            except OSError as exc:
                raise wrap_os_error(exc, vpath) from exc
            return
        with self._lock:
            ptr = self._read_pointer(real, vpath)
            ptr.atime, ptr.mtime = int(atime), int(mtime)
            self._write_pointer(real, ptr)

    def checksum(self, vpath: str) -> str:
        """O(1): the stored key *is* the checksum (scrub audits bitrot).

        Still O(1), but honest about absence: a pointer whose object was
        quarantined (or otherwise lost) must not keep advertising the
        old digest -- an auditor comparing checksums would count the
        replica intact forever.  The content is gone, so this raises
        DoesNotExist just as reading the file would.
        """
        real = self._file_ns(vpath)
        key = self._read_pointer(real, vpath).key
        if key != EMPTY_KEY and not os.path.exists(self._object_path(key)):
            raise DoesNotExistError(f"{vpath}: object {key} is missing")
        return key

    # -- capacity -------------------------------------------------------

    def used_bytes(self) -> int:
        with self._lock:
            return max(0, self._used)

    def reconcile_usage(self) -> int:
        """Recompute usage from the object plane (drift repair hook)."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.obj_root):
            for name in filenames:
                try:
                    total += os.lstat(os.path.join(dirpath, name)).st_size
                except OSError:
                    continue
        with self._lock:
            self._used = total
        return total

    def capacity(self) -> tuple[int, int]:
        vfs = os.statvfs(self.root)
        return (vfs.f_blocks * vfs.f_frsize, vfs.f_bavail * vfs.f_frsize)

    # -- crash recovery -------------------------------------------------

    def janitor(self) -> int:
        """Empty ``tmp/``: ingest temps, spooled uploads, pointer staging.

        Everything under ``tmp_root`` is store-private scratch -- ingest
        stages objects there, write handles spill their payloads there,
        and pointer rewrites stage there -- and all of it is garbage the
        moment no operation is running, which is exactly when the boot
        janitor runs.  Returns the number of files removed.
        """
        removed = 0
        with self._lock:
            for name in os.listdir(self.tmp_root):
                try:
                    os.unlink(os.path.join(self.tmp_root, name))
                except OSError:
                    continue
                removed += 1
        return removed

    # -- content-addressed surface --------------------------------------

    def lookup_key(self, key: str) -> bool:
        self._count("lookups")
        if key == EMPTY_KEY:
            return True
        try:
            return os.path.isfile(self._object_path(key))
        except DoesNotExistError:
            return False

    def link_key(self, vpath: str, key: str, mode: int = 0o644) -> int:
        real = self._file_ns(vpath)
        if not os.path.isdir(os.path.dirname(real)):
            raise DoesNotExistError(vpath)
        try:
            size = 0 if key == EMPTY_KEY else os.lstat(self._object_path(key)).st_size
        except OSError as exc:
            raise DoesNotExistError(f"content key {key} not present") from exc
        self._repoint(vpath, key, size, mode & 0o777)
        self._count("links")
        return size

    def key_of(self, vpath: str) -> str:
        real = self._file_ns(vpath)
        return self._read_pointer(real, vpath).key

    # -- integrity ------------------------------------------------------

    def refcount(self, key: str) -> int:
        with self._lock:
            return self._refs.get(key, 0)

    def object_count(self) -> int:
        total = 0
        for _dirpath, _dirnames, filenames in os.walk(self.obj_root):
            total += len(filenames)
        return total

    def scrub(self, *, quarantine: bool = False) -> dict:
        """Verify every blob hashes to its key.

        Returns a report dict: objects scanned, ok count, corrupt keys,
        quarantined keys (when requested), and orphaned (unreferenced)
        keys.  Corrupt objects are moved aside to ``quarantine/`` rather
        than deleted -- forensics over convenience.
        """
        report = {
            "kind": self.kind,
            "objects": 0,
            "ok": 0,
            "corrupt": [],
            "quarantined": [],
            "orphans": [],
        }
        for dirpath, _dirnames, filenames in os.walk(self.obj_root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                report["objects"] += 1
                try:
                    actual = file_checksum(path)
                except OSError:
                    actual = None
                if actual == name:
                    report["ok"] += 1
                    if self.refcount(name) == 0:
                        report["orphans"].append(name)
                    continue
                report["corrupt"].append(name)
                self._count("scrub_corrupt")
                if quarantine:
                    dest = os.path.join(self.quarantine_root, name)
                    try:
                        os.replace(path, dest)
                        report["quarantined"].append(name)
                        with self._lock:
                            self._used -= os.lstat(dest).st_size
                    except OSError:
                        pass
        self._count("scrubs")
        return report
