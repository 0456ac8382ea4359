"""LocalDirStore: the original confined-directory resource.

Files and directories are stored *without transformation* in an ordinary
filesystem under an exported root -- the recursive-abstraction property
that lets any existing directory be exported as-is, and lets the owner
inspect what users are doing with ordinary tools.  This store is the
default and must stay byte-identical in semantics to the server's
original directory-backed implementation: same on-disk layout, same
error mapping, same durability (``fsync_dir`` on namespace changes
when ``sync_meta``).

The one behavioral upgrade lives here: ``used_bytes`` is maintained
incrementally.  The first call performs the old full-tree walk; every
write, truncate, unlink, rename-over and blob replacement afterwards
adjusts the counter by the observed size delta, so quota checks are O(1)
instead of O(files).  Servers without a quota never trigger the scan.
"""

from __future__ import annotations

import os
import stat as stat_mod
from typing import Optional

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.interface import BlobStore, FileHandle, stat_stamp
from repro.util import checksum as checksum_mod
from repro.util.jsonlog import fsync_dir
from repro.util.errors import (
    BadFileDescriptorError,
    IsADirectoryError_,
    NotAuthorizedError,
    wrap_os_error,
)
from repro.util.paths import PathEscapeError, Resolved, resolve

__all__ = ["LocalDirStore", "STAGING_PREFIX"]

#: Reserved basename prefix for write_blob staging files.  The prefix
#: must be distinctive: a plain ``<name>.tmp`` convention would make the
#: boot janitor delete legitimate client files that happen to be named
#: ``*.tmp``, whereas nothing legitimate starts with this marker.
STAGING_PREFIX = ".tss-tmp."


def stat_read_path(path: Resolved, limit: int) -> tuple[os.stat_result, Optional[bytes]]:
    """The stat of ``path`` plus its bytes when it is a regular file of
    at most ``limit`` bytes, from one open/fstat/pread/close.

    The open is non-blocking, so a FIFO or device is stat'ed and never
    read or waited on; an entry that cannot be opened at all (no read
    permission, a socket) is stat'ed only.  Raises ``OSError`` when the
    entry does not exist.
    """
    if limit >= 0:
        try:
            fd = os.open(path.real, os.O_RDONLY | os.O_NONBLOCK | os.O_NOCTTY)
        except OSError:
            pass
        else:
            try:
                st = os.fstat(fd)
                if not stat_mod.S_ISREG(st.st_mode) or st.st_size > limit:
                    return st, None
                return st, os.pread(fd, st.st_size, 0)
            finally:
                os.close(fd)
    return path.stat(), None


class _OsFdHandle(FileHandle):
    """A handle backed by an OS file descriptor.

    ``close`` sets the fd to -1, so every later call fails with EBADF
    (``BadFileDescriptorError``) and can never reach another file that
    the kernel has since given the old fd number.
    """

    def __init__(self, store: "LocalDirStore", fd: int):
        self._store = store
        self._fd = fd

    def pread(self, length: int, offset: int) -> bytes:
        try:
            return os.pread(self._fd, length, offset)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def pwrite(self, data: bytes, offset: int) -> int:
        try:
            if not self._store.tracking_usage:
                return os.pwrite(self._fd, data, offset)
            # Account in a finally so a partial failure (ENOSPC/EIO mid-op
            # may still have extended the file) cannot skew the counter.
            before = os.fstat(self._fd).st_size
            try:
                return os.pwrite(self._fd, data, offset)
            finally:
                self._account_after(before)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def fileno(self) -> int:
        return self._fd

    def fsync(self) -> None:
        if self._fd < 0:  # os.fsync refuses -1 with ValueError, not EBADF
            raise BadFileDescriptorError("handle is closed")
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def fstat(self) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.fstat(self._fd))
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def ftruncate(self, size: int) -> None:
        try:
            if not self._store.tracking_usage:
                os.ftruncate(self._fd, size)
                return
            before = os.fstat(self._fd).st_size
            try:
                os.ftruncate(self._fd, size)
            finally:
                self._account_after(before)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def _account_after(self, before: int) -> None:
        """Charge the *observed* size delta, success or failure.

        When even re-stating the fd fails, the truth is unknowable from
        here: invalidate the counter so the next quota check re-scans
        instead of trusting a number that may be wrong.
        """
        try:
            after = os.fstat(self._fd).st_size
        except OSError:
            self._store._invalidate_usage()
        else:
            self._store._account(after - before)

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd < 0:
            return
        try:
            os.close(fd)
        except OSError as exc:
            raise wrap_os_error(exc) from exc


class LocalDirStore(BlobStore):
    """A confined view of a local directory tree (see module doc)."""

    kind = "local"
    supports_stamp = True

    def __init__(self, root: str, *, sync_meta: bool = True):
        super().__init__()
        self.root = os.path.realpath(root)
        if not os.path.isdir(self.root):
            raise NotADirectoryError(f"export root {root!r} is not a directory")
        self.sync_meta = sync_meta
        # None until the first used_bytes() call triggers the startup
        # scan; incrementally maintained from then on.
        self._used: int | None = None

    # -- path plumbing --------------------------------------------------

    def resolve(self, vpath: str) -> Resolved:
        try:
            return resolve(self.root, vpath)
        except PathEscapeError as exc:
            raise NotAuthorizedError(str(exc)) from exc

    # -- usage accounting -----------------------------------------------

    @property
    def tracking_usage(self) -> bool:
        return self._used is not None

    def _account(self, delta: int) -> None:
        with self._lock:
            if self._used is not None:
                self._used = max(0, self._used + delta)

    def _invalidate_usage(self) -> None:
        """Forget the counter; the next ``used_bytes`` re-walks the tree."""
        with self._lock:
            self._used = None

    def reconcile_usage(self) -> int:
        """Recompute usage with a fresh tree walk (drift repair hook)."""
        self._invalidate_usage()
        return self.used_bytes()

    def _size_if_file(self, real: str) -> int:
        """Size of a regular file or symlink at ``real``, else 0."""
        try:
            st = os.lstat(real)
        except OSError:
            return 0
        if stat_mod.S_ISDIR(st.st_mode):
            return 0
        return st.st_size

    def used_bytes(self) -> int:
        with self._lock:
            if self._used is None:
                total = 0
                for dirpath, _dirnames, filenames in os.walk(self.root):
                    for name in filenames:
                        try:
                            total += os.lstat(os.path.join(dirpath, name)).st_size
                        except OSError:
                            continue
                self._used = total
            return self._used

    def capacity(self) -> tuple[int, int]:
        vfs = os.statvfs(self.root)
        return (vfs.f_blocks * vfs.f_frsize, vfs.f_bavail * vfs.f_frsize)

    # -- file I/O -------------------------------------------------------

    def open(self, vpath: str, flags: OpenFlags, mode: int) -> FileHandle:
        path = self.resolve(vpath)
        if path.isdir():
            raise IsADirectoryError_(vpath)
        try:
            fd = os.open(path.real, flags.to_os_flags(), mode & 0o777)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        self._count("open")
        return _OsFdHandle(self, fd)

    # -- namespace ------------------------------------------------------

    def stat(self, vpath: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(self.resolve(vpath).stat())
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    def lstat(self, vpath: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(self.resolve(vpath).lstat())
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    def stat_read(self, vpath: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        try:
            st, data = stat_read_path(self.resolve(vpath), limit)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        return ChirpStat.from_os(st), data

    def stamp(self, vpath: str):
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
        real = self.resolve(vpath).real
        freed = self._size_if_file(real) if self.tracking_usage else 0
        try:
            os.unlink(real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        self._account(-freed)
        if self.sync_meta:
            fsync_dir(os.path.dirname(real))

    def rename(self, vold: str, vnew: str) -> None:
        old, new = self.resolve(vold), self.resolve(vnew)
        real_old, real_new = old.real, new.real
        clobbered = 0
        # Onto itself, or onto a hard link to itself, rename does nothing.
        if self.tracking_usage and not old.same_entry(new):
            clobbered = self._size_if_file(real_new)
        try:
            os.rename(real_old, real_new)
        except OSError as exc:
            raise wrap_os_error(exc, vold) from exc
        self._account(-clobbered)
        # Both directory entries changed; a crash must not resurrect the
        # old name or lose the new one.
        if self.sync_meta:
            fsync_dir(os.path.dirname(real_new))
            if os.path.dirname(real_old) != os.path.dirname(real_new):
                fsync_dir(os.path.dirname(real_old))

    def mkdir(self, vpath: str, mode: int) -> None:
        real = self.resolve(vpath).real
        try:
            os.mkdir(real, mode & 0o777)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        if self.sync_meta:
            fsync_dir(os.path.dirname(real))

    def rmdir(self, vpath: str) -> None:
        real = self.resolve(vpath).real
        try:
            os.rmdir(real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        if self.sync_meta:
            fsync_dir(os.path.dirname(real))

    def truncate(self, vpath: str, size: int) -> None:
        real = self.resolve(vpath).real
        before = self._size_if_file(real) if self.tracking_usage else 0
        try:
            os.truncate(real, size)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        if self.tracking_usage:
            self._account(self._size_if_file(real) - before)

    def utime(self, vpath: str, atime: int, mtime: int) -> None:
        try:
            os.utime(self.resolve(vpath).real, (atime, mtime))
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    def checksum(self, vpath: str) -> str:
        try:
            return checksum_mod.file_checksum(self.resolve(vpath).real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc

    # -- whole blobs ----------------------------------------------------

    def write_blob(self, vpath: str, data: bytes) -> None:
        """Atomic whole-blob replacement (write-temp, fsync, rename).

        ACL files are persisted through this path.
        """
        real = self.resolve(vpath).real
        before = self._size_if_file(real) if self.tracking_usage else 0
        tmp = os.path.join(
            os.path.dirname(real), STAGING_PREFIX + os.path.basename(real)
        )
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, real)
        except OSError as exc:
            raise wrap_os_error(exc, vpath) from exc
        if self.tracking_usage:
            self._account(len(data) - before)

    # -- crash recovery -------------------------------------------------

    def janitor(self) -> int:
        """Remove orphaned ``write_blob`` staging files across the tree.

        Only basenames carrying :data:`STAGING_PREFIX` are touched;
        every other name is client data and sacred.  A staging file
        observed here is guaranteed orphaned: live ones exist only
        inside a ``write_blob`` call, and the janitor runs before the
        server accepts connections.
        """
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.startswith(STAGING_PREFIX):
                    continue
                try:
                    os.unlink(os.path.join(dirpath, name))
                except OSError:
                    continue
                removed += 1
        if removed:
            self._invalidate_usage()
        return removed
