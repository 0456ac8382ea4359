"""MemoryStore: a RAM-resident store for tests and simulations.

The whole namespace is a tree of dict nodes behind one lock.  Semantics
track POSIX closely enough to pass the backend-conformance battery --
create/exclusive/truncate open flags, EISDIR/ENOTDIR/ENOTEMPTY error
mapping, directory renames -- but nothing touches the disk, so chaos
and placement simulations can spin up hundreds of "servers" cheaply.
"""

from __future__ import annotations

import itertools
import os
import stat as stat_mod
import time

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.interface import BlobStore, FileHandle
from repro.util.checksum import data_checksum
from repro.util.errors import (
    AlreadyExistsError,
    BadFileDescriptorError,
    DoesNotExistError,
    InvalidRequestError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotEmptyError,
)
from repro.util.paths import normalize_virtual, split_virtual

__all__ = ["MemoryStore"]

_inodes = itertools.count(2)


class _File:
    __slots__ = ("data", "mode", "atime", "mtime", "ctime", "inode")

    def __init__(self, mode: int):
        self.data = bytearray()
        self.mode = mode & 0o777
        now = time.time()
        self.atime = self.mtime = self.ctime = now
        self.inode = next(_inodes)


class _Dir:
    __slots__ = ("entries", "mode", "atime", "mtime", "ctime", "inode")

    def __init__(self, mode: int = 0o755):
        self.entries: dict[str, object] = {}
        self.mode = mode & 0o777
        now = time.time()
        self.atime = self.mtime = self.ctime = now
        self.inode = next(_inodes)


def _stat_of(node) -> ChirpStat:
    is_dir = isinstance(node, _Dir)
    return ChirpStat(
        device=0,
        inode=node.inode,
        mode=(stat_mod.S_IFDIR if is_dir else stat_mod.S_IFREG) | node.mode,
        nlink=2 if is_dir else 1,
        uid=os.getuid() if hasattr(os, "getuid") else 0,
        gid=os.getgid() if hasattr(os, "getgid") else 0,
        size=0 if is_dir else len(node.data),
        atime=int(node.atime),
        mtime=int(node.mtime),
        ctime=int(node.ctime),
    )


class _MemHandle(FileHandle):
    def __init__(self, store: "MemoryStore", node: _File, flags: OpenFlags):
        self._store = store
        self._node = node
        self._flags = flags
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BadFileDescriptorError("handle is closed")

    def pread(self, length: int, offset: int) -> bytes:
        self._check_open()
        if self._flags.write and not self._flags.read:
            # Mirror EBADF on a write-only OS fd.
            raise BadFileDescriptorError("handle not open for reading")
        with self._store._lock:
            return bytes(self._node.data[offset : offset + length])

    def pwrite(self, data: bytes, offset: int) -> int:
        self._check_open()
        if not self._flags.write:
            raise BadFileDescriptorError("handle not open for writing")
        if not data:
            return 0  # POSIX: a zero-length write never extends the file
        with self._store._lock:
            buf = self._node.data
            old_len = len(buf)
            if self._flags.append:
                offset = old_len
            if offset > old_len:
                buf.extend(b"\x00" * (offset - old_len))
            buf[offset : offset + len(data)] = data
            self._store._used += len(buf) - old_len
            self._node.mtime = time.time()
            return len(data)

    def fsync(self) -> None:
        self._check_open()

    def fstat(self) -> ChirpStat:
        self._check_open()
        with self._store._lock:
            return _stat_of(self._node)

    def ftruncate(self, size: int) -> None:
        self._check_open()
        if not self._flags.write:
            raise BadFileDescriptorError("handle not open for writing")
        with self._store._lock:
            buf = self._node.data
            delta = size - len(buf)
            if delta < 0:
                del buf[size:]
            elif delta > 0:
                buf.extend(b"\x00" * delta)
            self._store._used += delta
            self._node.mtime = time.time()

    def close(self) -> None:
        self._closed = True


class MemoryStore(BlobStore):
    """An in-memory store (see module doc).  ``root`` is ignored."""

    kind = "memory"

    #: virtual capacity reported by statfs when no quota is configured
    VIRTUAL_CAPACITY = 1 << 40

    def __init__(self, root: str = "", *, sync_meta: bool = True):
        super().__init__()
        self.root = root
        self._root_dir = _Dir()
        self._used = 0

    # -- tree navigation (caller holds no lock; these take it) ----------

    def _node(self, vpath: str):
        """The node at ``vpath`` or None.  Lock must be held."""
        norm = normalize_virtual(vpath)
        node = self._root_dir
        if norm == "/":
            return node
        for part in norm.strip("/").split("/"):
            if not isinstance(node, _Dir):
                return None
            node = node.entries.get(part)
            if node is None:
                return None
        return node

    def _parent_of(self, vpath: str) -> tuple[_Dir, str]:
        """(parent dir node, basename); raises if the parent is invalid."""
        parent_v, name = split_virtual(vpath)
        parent = self._node(parent_v)
        if parent is None:
            raise DoesNotExistError(parent_v)
        if not isinstance(parent, _Dir):
            raise NotADirectoryError_(parent_v)
        return parent, name

    # -- file I/O -------------------------------------------------------

    def open(self, vpath: str, flags: OpenFlags, mode: int) -> FileHandle:
        with self._lock:
            parent, name = self._parent_of(vpath)
            if not name:
                raise IsADirectoryError_(vpath)
            node = parent.entries.get(name)
            if isinstance(node, _Dir):
                raise IsADirectoryError_(vpath)
            if node is None:
                if not flags.create:
                    raise DoesNotExistError(vpath)
                node = _File(mode)
                parent.entries[name] = node
                parent.mtime = time.time()
            elif flags.exclusive and flags.create:
                raise AlreadyExistsError(vpath)
            if flags.truncate:
                self._used -= len(node.data)
                node.data = bytearray()
            self._count("open")
            return _MemHandle(self, node, flags)

    # -- namespace ------------------------------------------------------

    def stat(self, vpath: str) -> ChirpStat:
        with self._lock:
            node = self._node(vpath)
            if node is None:
                raise DoesNotExistError(vpath)
            return _stat_of(node)

    def lstat(self, vpath: str) -> ChirpStat:
        return self.stat(vpath)  # no symlinks in the memory tree

    def exists(self, vpath: str) -> bool:
        with self._lock:
            return self._node(vpath) is not None

    def isdir(self, vpath: str) -> bool:
        with self._lock:
            return isinstance(self._node(vpath), _Dir)

    def listdir(self, vpath: str) -> list[str]:
        with self._lock:
            node = self._node(vpath)
            if node is None:
                raise DoesNotExistError(vpath)
            if not isinstance(node, _Dir):
                raise NotADirectoryError_(vpath)
            return list(node.entries)

    def unlink(self, vpath: str) -> None:
        with self._lock:
            parent, name = self._parent_of(vpath)
            node = parent.entries.get(name)
            if node is None or not name:
                raise DoesNotExistError(vpath)
            if isinstance(node, _Dir):
                raise IsADirectoryError_(vpath)
            del parent.entries[name]
            parent.mtime = time.time()
            self._used -= len(node.data)

    def rename(self, vold: str, vnew: str) -> None:
        with self._lock:
            src_parent, src_name = self._parent_of(vold)
            src = src_parent.entries.get(src_name)
            if src is None or not src_name:
                raise DoesNotExistError(vold)
            dst_parent, dst_name = self._parent_of(vnew)
            if not dst_name:
                raise InvalidRequestError("cannot rename onto the root")
            if normalize_virtual(vnew).startswith(normalize_virtual(vold) + "/"):
                # POSIX EINVAL: the move would detach the subtree from the tree.
                raise InvalidRequestError(f"cannot move {vold!r} into itself")
            dst = dst_parent.entries.get(dst_name)
            if dst is src:
                return  # POSIX: renaming an entry onto itself does nothing
            if dst is not None:
                if isinstance(src, _Dir):
                    if not isinstance(dst, _Dir):
                        raise NotADirectoryError_(vnew)
                    if dst.entries:
                        raise NotEmptyError(vnew)
                elif isinstance(dst, _Dir):
                    raise IsADirectoryError_(vnew)
                else:
                    self._used -= len(dst.data)
            del src_parent.entries[src_name]
            dst_parent.entries[dst_name] = src
            now = time.time()
            src_parent.mtime = dst_parent.mtime = now

    def mkdir(self, vpath: str, mode: int) -> None:
        with self._lock:
            parent, name = self._parent_of(vpath)
            if not name:
                raise AlreadyExistsError("/")
            if name in parent.entries:
                raise AlreadyExistsError(vpath)
            parent.entries[name] = _Dir(mode)
            parent.mtime = time.time()

    def rmdir(self, vpath: str) -> None:
        with self._lock:
            parent, name = self._parent_of(vpath)
            node = parent.entries.get(name)
            if node is None or not name:
                raise DoesNotExistError(vpath)
            if not isinstance(node, _Dir):
                raise NotADirectoryError_(vpath)
            if node.entries:
                raise NotEmptyError(vpath)
            del parent.entries[name]
            parent.mtime = time.time()

    def truncate(self, vpath: str, size: int) -> None:
        with self._lock:
            node = self._node(vpath)
            if node is None:
                raise DoesNotExistError(vpath)
            if isinstance(node, _Dir):
                raise IsADirectoryError_(vpath)
            delta = size - len(node.data)
            if delta < 0:
                del node.data[size:]
            elif delta > 0:
                node.data.extend(b"\x00" * delta)
            self._used += delta
            node.mtime = time.time()

    def utime(self, vpath: str, atime: int, mtime: int) -> None:
        with self._lock:
            node = self._node(vpath)
            if node is None:
                raise DoesNotExistError(vpath)
            node.atime = atime
            node.mtime = mtime

    def checksum(self, vpath: str) -> str:
        with self._lock:
            node = self._node(vpath)
            if node is None:
                raise DoesNotExistError(vpath)
            if isinstance(node, _Dir):
                raise IsADirectoryError_(vpath)
            return data_checksum(bytes(node.data))

    # -- capacity -------------------------------------------------------

    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def reconcile_usage(self) -> int:
        """Recompute usage by walking the tree (drift repair hook)."""
        with self._lock:
            total = 0
            stack = [self._root_dir]
            while stack:
                node = stack.pop()
                for child in node.entries.values():
                    if isinstance(child, _Dir):
                        stack.append(child)
                    else:
                        total += len(child.data)
            self._used = total
            return total

    def capacity(self) -> tuple[int, int]:
        with self._lock:
            return (self.VIRTUAL_CAPACITY, max(0, self.VIRTUAL_CAPACITY - self._used))
