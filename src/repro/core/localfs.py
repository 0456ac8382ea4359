"""A local directory exposed through the abstraction interface.

This is the degenerate abstraction: no network at all.  It exists so the
adapter can mount local trees uniformly (the ``Unix`` baseline in the
paper's tables), and so the DPFS can treat its private metadata directory
exactly like any other filesystem -- recursion all the way down.
"""

from __future__ import annotations

import os

from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.interface import FileHandle, Filesystem
from repro.util.errors import (
    InvalidRequestError,
    error_from_status,
    status_from_exception,
)
from repro.util.paths import PathEscapeError, confine

__all__ = ["LocalFilesystem", "LocalHandle", "wrap_os_error"]


def wrap_os_error(exc: OSError, path: str = ""):
    """The Chirp error for an ``OSError`` raised on ``path``."""
    return error_from_status(status_from_exception(exc), f"{path}: {exc}")


class LocalHandle(FileHandle):
    """An open local file, position-less like every TSS handle."""

    def __init__(self, fd: int):
        self._fd = fd
        self._closed = False

    def pread(self, length: int, offset: int) -> bytes:
        try:
            return os.pread(self._fd, length, offset)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def pwrite(self, data: bytes, offset: int) -> int:
        try:
            return os.pwrite(self._fd, data, offset)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def fsync(self) -> None:
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
            os.ftruncate(self._fd, size)
        except OSError as exc:
            raise wrap_os_error(exc) from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                os.close(self._fd)
            except OSError:
                pass


class LocalFilesystem(Filesystem):
    """The abstraction interface over a confined local directory."""

    def __init__(self, root: str):
        self.root = os.path.realpath(root)
        if not os.path.isdir(self.root):
            raise NotADirectoryError(f"{root!r} is not a directory")

    def _real(self, path: str) -> str:
        try:
            return confine(self.root, path)
        except PathEscapeError as exc:
            raise InvalidRequestError(str(exc)) from exc

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> LocalHandle:
        real = self._real(path)
        if os.path.isdir(real):
            # os.open(dir, O_RDONLY) would succeed on Linux; the TSS
            # interface only opens files (matching the Chirp backend).
            from repro.util.errors import IsADirectoryError_

            raise IsADirectoryError_(path)
        try:
            fd = os.open(real, flags.to_os_flags(), mode & 0o777)
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc
        return LocalHandle(fd)

    def stat(self, path: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.stat(self._real(path)))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def lstat(self, path: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.lstat(self._real(path)))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def listdir(self, path: str) -> list[str]:
        try:
            return sorted(os.listdir(self._real(path)))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def unlink(self, path: str) -> None:
        try:
            os.unlink(self._real(path))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def rename(self, old: str, new: str) -> None:
        try:
            os.rename(self._real(old), self._real(new))
        except OSError as exc:
            raise wrap_os_error(exc, old) from exc

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        try:
            os.mkdir(self._real(path), mode & 0o777)
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def rmdir(self, path: str) -> None:
        try:
            os.rmdir(self._real(path))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def truncate(self, path: str, size: int) -> None:
        try:
            os.truncate(self._real(path), size)
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def utime(self, path: str, atime: int, mtime: int) -> None:
        try:
            os.utime(self._real(path), (atime, mtime))
        except OSError as exc:
            raise wrap_os_error(exc, path) from exc

    def statfs(self) -> StatFs:
        vfs = os.statvfs(self.root)
        return StatFs(vfs.f_blocks * vfs.f_frsize, vfs.f_bavail * vfs.f_frsize)
