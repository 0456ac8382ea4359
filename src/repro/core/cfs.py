"""CFS: the central filesystem abstraction.

"The user simply accesses files and directories on a single file server
without translation. ... CFS is roughly analogous to NFS, except that it
provides grid security and Unix-like consistency by dispensing with
buffering and caching."

All operations pass straight through to one Chirp server; consistency is
whatever the server's host kernel provides.  What CFS adds over the raw
client is *recovery*: handles transparently reconnect with exponential
backoff, re-open their file, and verify (by inode) that it is still the
same file -- otherwise the caller gets a stale-handle error, as in NFS.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Optional

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.interface import FileHandle, Filesystem
from repro.transport.recovery import RetryPolicy
from repro.util.errors import DisconnectedError, StaleHandleError
from repro.util.paths import normalize_virtual

__all__ = ["CFS", "ChirpFileHandle"]


class ChirpFileHandle(FileHandle):
    """An open file on a Chirp server, with transparent recovery.

    File descriptors are connection-scoped, so the handle records the
    client's connection *generation* at open.  If the generation moves
    (because this or any other handle reconnected), the fd is dead and the
    handle re-opens before the next operation.  Re-opens strip the
    create/truncate/exclusive bits -- recovering must never clobber data --
    and verify the inode is unchanged, else :class:`StaleHandleError`.
    """

    def __init__(
        self,
        client: ChirpClient,
        path: str,
        flags: OpenFlags,
        mode: int,
        policy: RetryPolicy,
    ):
        self.client = client
        self.path = path
        self.mode = mode
        self.policy = policy
        self._open_flags = flags
        self._reopen_flags = replace(
            flags, create=False, truncate=False, exclusive=False
        )
        self._lock = threading.RLock()
        self._closed = False
        self.fd = self.policy.run(self._first_open, self.client.ensure_connected)

    def _first_open(self) -> int:
        fd = self.client.open(self.path, self._open_flags, self.mode)
        st = self.client.fstat(fd)
        self.inode = st.inode
        self.generation = self.client.generation
        return fd

    def _reopen(self) -> None:
        """Open again on the current connection; verify file identity."""
        fd = self.client.open(self.path, self._reopen_flags, self.mode)
        st = self.client.fstat(fd)
        if st.inode != self.inode:
            try:
                self.client.close_fd(fd)
            except DisconnectedError:
                pass
            raise StaleHandleError(
                f"{self.path}: file changed identity across reconnect"
            )
        self.fd = fd
        self.generation = self.client.generation

    def _recover(self) -> None:
        self.client.ensure_connected()
        self._reopen()

    def _run(self, op, deadline=None):
        with self._lock:
            if self._closed:
                raise DisconnectedError("handle is closed")

            def guarded():
                if self.client.generation != self.generation:
                    # Someone else reconnected; our fd died with the old
                    # connection.  Re-open in place -- no backoff needed,
                    # the new connection is already up.
                    self._reopen()
                return op()

            return self.policy.run(guarded, self._recover, deadline=deadline)

    # -- FileHandle interface -------------------------------------------

    def pread(self, length: int, offset: int, deadline=None) -> bytes:
        return self._run(
            lambda: self.client.pread(self.fd, length, offset, deadline=deadline),
            deadline=deadline,
        )

    def pwrite(self, data: bytes, offset: int) -> int:
        return self._run(lambda: self.client.pwrite(self.fd, data, offset))

    def fsync(self) -> None:
        self._run(lambda: self.client.fsync(self.fd))

    def fstat(self) -> ChirpStat:
        return self._run(lambda: self.client.fstat(self.fd))

    def ftruncate(self, size: int) -> None:
        self._run(lambda: self.client.ftruncate(self.fd, size))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self.client.generation == self.generation:
                    self.client.close_fd(self.fd)
                # else: the fd died with its connection; nothing to close.
            except DisconnectedError:
                pass


class CFS(Filesystem):
    """Direct, untranslated access to one file server (or a subtree).

    :param client: connection to the file server.
    :param root: subtree of the server to expose (default: whole export).
    :param policy: reconnection policy shared by all handles.
    :param sync_writes: transparently add ``O_SYNC`` to every open -- the
        adapter's synchronous-write switch.

    CFS itself caches nothing, as the paper's does; a client cache is a
    decorator over it like over any other filesystem.
    """

    def __init__(
        self,
        client: ChirpClient,
        root: str = "/",
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
    ):
        self.client = client
        self.root = normalize_virtual(root)
        self.policy = policy or RetryPolicy()
        self.sync_writes = sync_writes

    def _path(self, path: str) -> str:
        inner = normalize_virtual(path)
        if self.root == "/":
            return inner
        return self.root if inner == "/" else self.root + inner

    def _run(self, op):
        return self.policy.run(op, self.client.ensure_connected)

    # -- Filesystem interface ---------------------------------------------

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle:
        if self.sync_writes and flags.write and not flags.sync:
            flags = replace(flags, sync=True)
        return ChirpFileHandle(self.client, self._path(path), flags, mode, self.policy)

    def stat(self, path: str) -> ChirpStat:
        return self._run(lambda: self.client.stat(self._path(path)))

    def lstat(self, path: str) -> ChirpStat:
        return self._run(lambda: self.client.lstat(self._path(path)))

    def listdir(self, path: str) -> list[str]:
        return self._run(lambda: self.client.getdir(self._path(path)))

    def unlink(self, path: str) -> None:
        target = self._path(path)
        self._run(lambda: self.client.unlink(target))

    def rename(self, old: str, new: str) -> None:
        src, dst = self._path(old), self._path(new)
        self._run(lambda: self.client.rename(src, dst))

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        target = self._path(path)
        self._run(lambda: self.client.mkdir(target, mode))

    def rmdir(self, path: str) -> None:
        target = self._path(path)
        self._run(lambda: self.client.rmdir(target))

    def truncate(self, path: str, size: int) -> None:
        target = self._path(path)
        self._run(lambda: self.client.truncate(target, size))

    def utime(self, path: str, atime: int, mtime: int) -> None:
        target = self._path(path)
        self._run(lambda: self.client.utime(target, atime, mtime))

    def statfs(self) -> StatFs:
        return self._run(self.client.statfs)

    # -- Streaming fast paths ---------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file read as a single ``getfile`` exchange.

        One RPC instead of an open/pread-loop/close sequence -- the
        streaming fast path of the adapter's bulk helpers.
        """
        target = self._path(path)
        return self._run(lambda: self.client.getfile(target))

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """One ``statget``."""
        target = self._path(path)
        return self._run(lambda: self.client.statget(target, limit))

    def put(self, path: str, data: bytes, flags: OpenFlags, mode: int = 0o644) -> int:
        """One ``putflags``: the flags travel with the bytes."""
        if self.sync_writes and not flags.sync:
            flags = replace(flags, sync=True)
        target = self._path(path)
        return self._run(lambda: self.client.putflags(target, data, flags, mode))

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        """Whole-file replacement as a single ``putfile`` exchange.

        ``putfile`` cannot carry ``O_SYNC``, so a sync-writes CFS falls
        back to the open/pwrite/fsync path of the base implementation.
        """
        if self.sync_writes:
            return super().write_file(path, data, mode)
        target = self._path(path)
        return self._run(lambda: self.client.putfile(target, data, mode))
