"""Any storage resource seen through the abstraction interface.

A :class:`~repro.store.interface.BlobStore` already is a confined Unix
namespace with POSIX error mapping and position-less handles: the
surface a file server exports.  :class:`StoreFilesystem` lets the same
resource be mounted directly, with no server in between -- a local
directory in the adapter (the ``Unix`` baseline in the paper's tables),
or DPFS's private directory tree, recursion all the way down.  The
store's own handles are the filesystem's handles.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.interface import FileHandle, Filesystem
from repro.store.interface import BlobStore, write_all
from repro.util.jsonlog import fsync_dir
from repro.util.paths import Resolved

__all__ = ["StoreFilesystem"]


class StoreFilesystem(Filesystem):
    """The :class:`Filesystem` interface over one :class:`BlobStore`."""

    def __init__(self, store: BlobStore):
        self.store = store

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle:
        return self.store.open(path, flags, mode)

    def stat(self, path: str) -> ChirpStat:
        return self.store.stat(path)

    def lstat(self, path: str) -> ChirpStat:
        return self.store.lstat(path)

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        return self.store.stat_read(path, limit)

    def put(self, path: str, data: bytes, flags: OpenFlags, mode: int = 0o644) -> int:
        """A whole-file put; an exclusive create on a store that syncs
        its metadata is durable when this returns.

        The file is fsynced, and on a store with a disk so is the
        directory holding the new entry: the stub engine's crash-safe
        create (the stub before the data) rests on that.
        """
        where = self.store.resolve(path)
        durable = flags.exclusive and getattr(self.store, "sync_meta", False)
        with self.store.open(where, flags, mode) as handle:
            written = write_all(handle, data)
            if durable:
                handle.fsync()
        if durable and isinstance(where, Resolved):
            fsync_dir(os.path.dirname(where.real))
        return written

    def listdir(self, path: str) -> list[str]:
        return sorted(self.store.listdir(path))

    def unlink(self, path: str) -> None:
        self.store.unlink(path)

    def rename(self, old: str, new: str) -> None:
        self.store.rename(old, new)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.store.mkdir(path, mode)

    def rmdir(self, path: str) -> None:
        self.store.rmdir(path)

    def truncate(self, path: str, size: int) -> None:
        self.store.truncate(path, size)

    def utime(self, path: str, atime: int, mtime: int) -> None:
        self.store.utime(path, atime, mtime)

    def statfs(self) -> StatFs:
        return StatFs(*self.store.capacity())
