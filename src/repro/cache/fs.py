"""Client caching as one more layer of the recursive interface.

The paper's resources cache nothing: a file server exports a bare
Unix-like protocol and every abstraction is built on top of it through
that same interface.  Caching is built the same way here.
:class:`CachedFilesystem` is a :class:`~repro.core.interface.Filesystem`
over any ``Filesystem`` -- CFS, DPFS, DSFS, any other layout of the
stub engine, a :class:`~repro.core.storefs.StoreFilesystem` -- and the
only code that reads or writes the cache.  The layers below it cache
nothing, so on a striped or replicated file it caches the one logical
file, not each member.

Keys are a per-instance namespace plus the normalized path, so two
cached filesystems over one :class:`CacheManager` never share entries.
One set of invalidation rules serves every mutation: it drops the
entry (and its blocks, when the bytes changed) and the parent
directory's entry, whose listing, nlink and mtime moved too; ``rename``
sweeps both subtrees.  Invalidation runs after the inner call, even a
failed one, and the metadata generation guard refuses any result
fetched before it.
"""

from __future__ import annotations

import itertools
import posixpath
from typing import Callable, TypeVar

from repro.cache.handle import CachedFileHandle, WriteThroughHandle
from repro.cache.manager import CacheManager
from repro.cache.meta import MetaCache
from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.interface import FileHandle, Filesystem
from repro.util.errors import DoesNotExistError
from repro.util.paths import normalize_virtual

__all__ = ["CachedFilesystem"]

_T = TypeVar("_T")

_namespaces = itertools.count()


class CachedFilesystem(Filesystem):
    """``fs`` seen through ``cache`` under its policy's coherence contract
    (see :mod:`repro.cache.policy`).

    Metadata modes serve ``stat``/``lstat``/``listdir`` from the
    metadata cache, absences included, and wrap writable handles so a
    client's own writes show in its next ``stat``.  With data caching
    (``private``), every handle is a :class:`CachedFileHandle` and
    ``read_file`` takes the handle path, so repeat reads hit the block
    cache.
    """

    def __init__(self, fs: Filesystem, cache: CacheManager):
        self.fs = fs
        self.cache = cache
        self._ns = f"fs{next(_namespaces)}:"

    def _key(self, path: str) -> str:
        return self._ns + normalize_virtual(path)

    # -- reads -----------------------------------------------------------

    def _meta(self, kind: str, path: str, fetch: Callable[[str], _T]) -> _T:
        cache = self.cache
        if not cache.meta_enabled:
            return fetch(path)
        key = self._key(path)
        hit = cache.meta.get(kind, key)
        if hit is MetaCache.NEGATIVE:
            raise DoesNotExistError(f"{path}: no such file or directory (cached)")
        if hit is not MetaCache.MISS:
            return hit
        # Sampled before the fetch: a mutation that invalidates the key
        # meanwhile makes the put below refuse the pre-mutation result.
        generation = cache.meta.generation(key)
        try:
            value = fetch(path)
        except DoesNotExistError:
            cache.meta.put_negative(
                kind, key, cache.policy.negative_expiry(), generation=generation
            )
            raise
        cache.meta.put(kind, key, value, cache.policy.meta_expiry(), generation=generation)
        return value

    def stat(self, path: str) -> ChirpStat:
        return self._meta("stat", path, self.fs.stat)

    def lstat(self, path: str) -> ChirpStat:
        return self._meta("lstat", path, self.fs.lstat)

    def listdir(self, path: str) -> list[str]:
        # Cached as a tuple, so a caller mutating its list cannot poison it.
        return list(self._meta("dirent", path, lambda p: tuple(self.fs.listdir(p))))

    def statfs(self) -> StatFs:
        return self.fs.statfs()

    def read_file(self, path: str) -> bytes:
        if self.cache.data_enabled:
            return super().read_file(path)
        return self.fs.read_file(path)

    # -- mutations -------------------------------------------------------

    def _drop(self, path: str, data: bool) -> None:
        """``path`` changed: drop its entries (its blocks too when
        ``data``) and its parent directory's."""
        norm = normalize_virtual(path)
        if data:
            self.cache.invalidate_data(self._ns + norm)
        else:
            self.cache.meta.invalidate(self._ns + norm)
        self.cache.meta.invalidate(self._ns + posixpath.dirname(norm))

    def _mutate(self, op: Callable[..., _T], path: str, *args, data: bool = True) -> _T:
        try:
            return op(path, *args)
        finally:
            self._drop(path, data)

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle:
        handle = self.fs.open(path, flags, mode)
        if flags.create or flags.truncate:
            # The file may have just come into existence, or lost its bytes.
            self._drop(path, data=flags.truncate)
        if self.cache.data_enabled:
            return CachedFileHandle(handle, self.cache, self._key(path))
        if self.cache.meta_enabled and flags.write:
            return WriteThroughHandle(handle, self.cache, self._key(path))
        return handle

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        # The inner fast path: a handle would install no blocks anyway.
        return self._mutate(self.fs.write_file, path, data, mode)

    def unlink(self, path: str) -> None:
        self._mutate(self.fs.unlink, path)

    def truncate(self, path: str, size: int) -> None:
        self._mutate(self.fs.truncate, path, size)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._mutate(self.fs.mkdir, path, mode, data=False)

    def rmdir(self, path: str) -> None:
        self._mutate(self.fs.rmdir, path, data=False)

    def utime(self, path: str, atime: int, mtime: int) -> None:
        self._mutate(self.fs.utime, path, atime, mtime, data=False)

    def rename(self, old: str, new: str) -> None:
        try:
            self.fs.rename(old, new)
        finally:
            # ``old`` may be a directory whose descendants' entries would
            # otherwise outlive it under the old prefix.
            for path in (old, new):
                self.cache.invalidate_subtree(self._key(path))
                self._drop(path, data=False)
