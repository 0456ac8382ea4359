"""The recursive Unix interface every abstraction implements.

"A TSS uses the same interface at every layer from the file server all the
way up to the user interface: a filesystem with the familiar interface of
open, read, rename, and so forth."  This module pins that interface down
as an abstract class so the adapter can bind any abstraction -- and so new
abstractions (striped, replicated, versioned filesystems, the paper's
future work, each a layout of :mod:`repro.core.stubfs`) plug in without
touching the adapter.

Positions are explicit (``pread``/``pwrite``): seek state belongs to the
caller, exactly like the Chirp protocol itself.  The handle contract,
:class:`FileHandle`, is the storage resources' own
(:mod:`repro.store.interface`), re-exported here: a store's handle *is* a
filesystem handle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional

from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.store.interface import FileHandle, write_all

__all__ = ["FileHandle", "Filesystem", "StatResult", "to_stat_result"]


class StatResult(NamedTuple):
    """An ``os.stat_result``-compatible view of remote metadata.

    Field order matches ``os.stat_result`` so unmodified code using
    ``st_mode``/``st_size``/... works against interposed stats.
    """

    st_mode: int
    st_ino: int
    st_dev: int
    st_nlink: int
    st_uid: int
    st_gid: int
    st_size: int
    st_atime: int
    st_mtime: int
    st_ctime: int


def to_stat_result(st: ChirpStat) -> StatResult:
    return StatResult(
        st_mode=st.mode,
        st_ino=st.inode,
        st_dev=st.device,
        st_nlink=st.nlink,
        st_uid=st.uid,
        st_gid=st.gid,
        st_size=st.size,
        st_atime=st.atime,
        st_mtime=st.mtime,
        st_ctime=st.ctime,
    )


class Filesystem(ABC):
    """The Unix-like namespace interface shared by every abstraction.

    Paths are virtual absolute paths within the abstraction.  Methods
    raise :class:`~repro.util.errors.ChirpError` subclasses on failure;
    the adapter translates those to ``OSError`` at the syscall surface.
    """

    @abstractmethod
    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle: ...

    @abstractmethod
    def stat(self, path: str) -> ChirpStat: ...

    def lstat(self, path: str) -> ChirpStat:
        return self.stat(path)

    @abstractmethod
    def listdir(self, path: str) -> list[str]: ...

    @abstractmethod
    def unlink(self, path: str) -> None: ...

    @abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    @abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None: ...

    @abstractmethod
    def rmdir(self, path: str) -> None: ...

    @abstractmethod
    def truncate(self, path: str, size: int) -> None: ...

    def utime(self, path: str, atime: int, mtime: int) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support utime")

    @abstractmethod
    def statfs(self) -> StatFs: ...

    def exists(self, path: str) -> bool:
        from repro.util.errors import ChirpError

        try:
            self.stat(path)
            return True
        except ChirpError:
            return False
        except OSError:
            return False

    # -- bulk convenience built on the primitive interface ---------------

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """An entry's stat and, for a regular file of at most ``limit``
        bytes, its content (None otherwise): what a stub lookup needs."""
        st = self.stat(path)
        if limit < 0 or not st.is_file or st.size > limit:
            return st, None
        return st, self.read_file(path)

    def read_file(self, path: str) -> bytes:
        """Read a whole file via the handle interface."""
        with self.open(path, OpenFlags(read=True)) as h:
            chunks = []
            offset = 0
            while True:
                chunk = h.pread(1 << 20, offset)
                if not chunk:
                    break
                chunks.append(chunk)
                offset += len(chunk)
            return b"".join(chunks)

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        """Create/replace a whole file."""
        return self.put(path, data, OpenFlags(write=True, create=True, truncate=True), mode)

    def put(self, path: str, data: bytes, flags: OpenFlags, mode: int = 0o644) -> int:
        """A whole file written under ``flags``: ``wcx`` creates it
        exclusively (:class:`~repro.util.errors.AlreadyExistsError` when
        it exists), ``wt`` replaces one that must exist."""
        with self.open(path, flags, mode) as h:
            return write_all(h, data)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """Create a directory and any missing ancestors."""
        from repro.util.errors import AlreadyExistsError
        from repro.util.paths import normalize_virtual

        parts = [p for p in normalize_virtual(path).split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            try:
                self.mkdir(current, mode)
            except AlreadyExistsError:
                continue

    def walk(self, top: str = "/"):
        """Yield ``(dirpath, dirnames, filenames)`` like :func:`os.walk`."""
        import stat as stat_mod

        dirs, files = [], []
        for name in self.listdir(top):
            child = top.rstrip("/") + "/" + name
            try:
                st = self.stat(child)
            except Exception:
                files.append(name)  # failure coherence: list what we can
                continue
            (dirs if stat_mod.S_ISDIR(st.mode) else files).append(name)
        yield top, dirs, files
        for d in dirs:
            yield from self.walk(top.rstrip("/") + "/" + d)
