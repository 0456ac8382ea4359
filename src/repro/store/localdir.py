"""LocalDirStore: the original confined-directory resource.

Files and directories are stored *without transformation* in an ordinary
filesystem under an exported root -- the recursive-abstraction property
that lets any existing directory be exported as-is, and lets the owner
inspect what users are doing with ordinary tools.  This store is the
default and must stay byte-identical in semantics to the server's
original directory-backed implementation: same on-disk layout, same
error mapping, same durability (``_fsync_dir`` on namespace changes
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

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.interface import BlobHandle, BlobStore, stat_stamp
from repro.util import checksum as checksum_mod
from repro.util.errors import (
    IsADirectoryError_,
    NotAuthorizedError,
    error_from_status,
    status_from_exception,
)
from repro.util.paths import PathEscapeError, confine

__all__ = ["LocalDirStore", "STAGING_PREFIX"]

#: Reserved basename prefix for write_blob staging files.  The prefix
#: must be distinctive: a plain ``<name>.tmp`` convention would make the
#: boot janitor delete legitimate client files that happen to be named
#: ``*.tmp``, whereas nothing legitimate starts with this marker.
STAGING_PREFIX = ".tss-tmp."


def _wrap_os_error(exc: OSError, path: str = "") -> Exception:
    return error_from_status(status_from_exception(exc), f"{path}: {exc.strerror or exc}")


class _OsFdHandle(BlobHandle):
    """A handle backed by an OS file descriptor."""

    def __init__(self, store: "LocalDirStore", fd: int):
        self._store = store
        self._fd = fd

    def pread(self, length: int, offset: int) -> bytes:
        try:
            return os.pread(self._fd, length, offset)
        except OSError as exc:
            raise _wrap_os_error(exc) from exc

    def pwrite(self, data: bytes, offset: int) -> int:
        if not self._store.tracking_usage:
            try:
                return os.pwrite(self._fd, data, offset)
            except OSError as exc:
                raise _wrap_os_error(exc) from exc
        # Account in a finally so a partial failure (ENOSPC/EIO mid-op
        # may still have extended the file) cannot skew the counter.
        before = os.fstat(self._fd).st_size
        try:
            return os.pwrite(self._fd, data, offset)
        except OSError as exc:
            raise _wrap_os_error(exc) from exc
        finally:
            self._account_after(before)

    def fsync(self) -> None:
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise _wrap_os_error(exc) from exc

    def fstat(self) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.fstat(self._fd))
        except OSError as exc:
            raise _wrap_os_error(exc) from exc

    def ftruncate(self, size: int) -> None:
        if not self._store.tracking_usage:
            try:
                os.ftruncate(self._fd, size)
            except OSError as exc:
                raise _wrap_os_error(exc) from exc
            return
        before = os.fstat(self._fd).st_size
        try:
            os.ftruncate(self._fd, size)
        except OSError as exc:
            raise _wrap_os_error(exc) from exc
        finally:
            self._account_after(before)

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
        try:
            os.close(self._fd)
        except OSError as exc:
            raise _wrap_os_error(exc) from exc


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

    def _real(self, vpath: str) -> str:
        try:
            return confine(self.root, vpath)
        except PathEscapeError as exc:
            raise NotAuthorizedError(str(exc)) from exc

    def _fsync_dir(self, real_path: str) -> None:
        """Flush a directory's entry table to stable storage.

        An unlink/rename/mkdir that only reaches the page cache can be
        undone by a crash, leaving the namespace disagreeing with what a
        client was told succeeded -- fatal for a replica store whose
        database trusts those answers.  POSIX requires fsyncing the
        *parent directory* to make a namespace change durable; syncing
        the file alone is not enough.
        """
        if not self.sync_meta:
            return
        try:
            fd = os.open(real_path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        except OSError:
            return  # directory vanished or platform refuses; best effort
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

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

    def open(self, vpath: str, flags: OpenFlags, mode: int) -> BlobHandle:
        real = self._real(vpath)
        if os.path.isdir(real):
            raise IsADirectoryError_(vpath)
        try:
            fd = os.open(real, flags.to_os_flags(), mode & 0o777)
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc
        self._count("open")
        return _OsFdHandle(self, fd)

    # -- namespace ------------------------------------------------------

    def stat(self, vpath: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.stat(self._real(vpath)))
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc

    def lstat(self, vpath: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.lstat(self._real(vpath)))
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc

    def stamp(self, vpath: str):
        try:
            return stat_stamp(os.stat(self._real(vpath)))
        except OSError:
            return None

    def exists(self, vpath: str) -> bool:
        return os.path.exists(self._real(vpath))

    def isdir(self, vpath: str) -> bool:
        return os.path.isdir(self._real(vpath))

    def listdir(self, vpath: str) -> list[str]:
        try:
            return os.listdir(self._real(vpath))
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc

    def unlink(self, vpath: str) -> None:
        real = self._real(vpath)
        freed = self._size_if_file(real) if self.tracking_usage else 0
        try:
            os.unlink(real)
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc
        self._account(-freed)
        self._fsync_dir(os.path.dirname(real))

    def rename(self, vold: str, vnew: str) -> None:
        real_old, real_new = self._real(vold), self._real(vnew)
        clobbered = self._size_if_file(real_new) if self.tracking_usage else 0
        try:
            os.rename(real_old, real_new)
        except OSError as exc:
            raise _wrap_os_error(exc, vold) from exc
        self._account(-clobbered)
        # Both directory entries changed; a crash must not resurrect the
        # old name or lose the new one.
        self._fsync_dir(os.path.dirname(real_new))
        if os.path.dirname(real_old) != os.path.dirname(real_new):
            self._fsync_dir(os.path.dirname(real_old))

    def mkdir(self, vpath: str, mode: int) -> None:
        real = self._real(vpath)
        try:
            os.mkdir(real, mode & 0o777)
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc
        self._fsync_dir(os.path.dirname(real))

    def rmdir(self, vpath: str) -> None:
        real = self._real(vpath)
        try:
            os.rmdir(real)
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc
        self._fsync_dir(os.path.dirname(real))

    def truncate(self, vpath: str, size: int) -> None:
        real = self._real(vpath)
        before = self._size_if_file(real) if self.tracking_usage else 0
        try:
            os.truncate(real, size)
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc
        if self.tracking_usage:
            self._account(self._size_if_file(real) - before)

    def utime(self, vpath: str, atime: int, mtime: int) -> None:
        try:
            os.utime(self._real(vpath), (atime, mtime))
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc

    def checksum(self, vpath: str) -> str:
        try:
            return checksum_mod.file_checksum(self._real(vpath))
        except OSError as exc:
            raise _wrap_os_error(exc, vpath) from exc

    # -- whole blobs ----------------------------------------------------

    def write_blob(self, vpath: str, data: bytes) -> None:
        """Atomic whole-blob replacement (write-temp, fsync, rename).

        ACL files are persisted through this path; the write-then-rename
        keeps the exact durability the old ``store_acl`` provided.
        """
        real = self._real(vpath)
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
            raise _wrap_os_error(exc, vpath) from exc
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
