"""The shared engine of DPFS and DSFS: a stub-indirected filesystem.

The directory tree (wherever it lives -- see
:mod:`repro.core.metastore`) holds directories and *stub files*; file
data lives in per-volume directories on data servers.  This module
implements the paper's semantics over that structure:

- the crash-safe 3-step creation protocol (choose server + unique name;
  exclusively create the stub; exclusively create the data file), whose
  ordering guarantees a crash leaves at worst a *dangling stub* ("better
  than the alternative: a data file but no stub"),
- dangling stubs behave like dangling symlinks: ``open``/``stat`` say
  "file not found", ``lstat`` and ``unlink`` still work,
- deletion removes the data file first, then the stub,
- name-only operations (``mkdir``, ``rename``, ``rmdir``) touch only the
  directory tree,
- failure coherence: an unreachable data server takes out exactly the
  files stored there; everything else keeps working.
"""

from __future__ import annotations

import itertools
import posixpath
from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.cache.handle import CachedFileHandle
from repro.cache.manager import CacheManager, file_key
from repro.cache.meta import MetaCache
from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.cfs import ChirpFileHandle
from repro.core.interface import FileHandle, Filesystem, write_whole
from repro.core.metastore import MetadataStore, VOLUME_FILE
from repro.core.placement import PlacementPolicy, RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.stubs import STUB_MAX_BYTES, Stub, unique_data_name
from repro.util.errors import (
    AlreadyExistsError,
    ChirpError,
    DisconnectedError,
    DoesNotExistError,
    InvalidRequestError,
    IsADirectoryError_,
    NotAuthorizedError,
)
from repro.util.paths import normalize_virtual

__all__ = ["StubFilesystem"]

_T = TypeVar("_T")

_CREATE_ATTEMPTS = 4  # retries on data-name collision
_STUB_READ_ATTEMPTS = 5  # retries while a freshly created stub is empty

# Merged stats (namespace identity + data-file attributes) are cached
# under a synthetic per-instance "host" so two stub filesystems mounted
# over the same cache manager can never see each other's entries.
_stubfs_ns = itertools.count()


class StubFilesystem(Filesystem):
    """A distributed filesystem of stubs + data servers.

    Not constructed directly by users; see :class:`repro.core.dpfs.DPFS`
    and :class:`repro.core.dsfs.DSFS` for volume creation and opening.
    """

    def __init__(
        self,
        meta: MetadataStore,
        pool: ClientPool,
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
        cache: Optional[CacheManager] = None,
        avoid_servers: Optional[Callable[[], Iterable[tuple[str, int]]]] = None,
    ):
        if not servers:
            raise ValueError("a stub filesystem needs at least one data server")
        self.meta = meta
        self.pool = pool
        self.servers = [(h, int(p)) for h, p in servers]
        self.data_dir = normalize_virtual(data_dir)
        self.placement = placement or RoundRobinPlacement()
        self.policy = policy or RetryPolicy()
        self.sync_writes = sync_writes
        self.cache = cache
        # Advisory placement exclusions (e.g. servers advertising drain
        # in the catalog; see DrainingServerView).  Consulted per create;
        # the callable must be cheap and must not raise.
        self.avoid_servers = avoid_servers
        self._cache_host = f"stubfs{next(_stubfs_ns)}"

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _guard_name(path: str) -> str:
        norm = normalize_virtual(path)
        if posixpath.basename(norm) == VOLUME_FILE:
            raise NotAuthorizedError("the volume file is managed by the filesystem")
        return norm

    def _lookup(self, path: str) -> tuple[ChirpStat, Optional[Stub]]:
        """The namespace entry at ``path`` and, for a file, its stub.

        One metadata lookup (a ``statget`` on a DSFS directory server).
        A stub still empty because its creator sits between the
        exclusive create and the write is re-read a few times before it
        is declared never completed.
        """
        for _ in range(_STUB_READ_ATTEMPTS):
            st, raw = self.meta.stat_read(path, STUB_MAX_BYTES)
            if st.is_dir:
                return st, None
            if raw is None:
                if st.is_file and st.size <= STUB_MAX_BYTES:
                    raise NotAuthorizedError(f"{path}: stub is not readable")
                raise InvalidRequestError(f"{path}: not a stub file")
            if raw:
                return st, Stub.decode(raw)
            self.policy.clock.sleep(0.01)
        raise DoesNotExistError(f"{path}: stub never completed creation")

    def _stub(self, path: str) -> Stub:
        """The stub of the file at ``path`` (a directory has none)."""
        stub = self._lookup(path)[1]
        if stub is None:
            raise IsADirectoryError_(path)
        return stub

    def _on_data(self, path: str, op: Callable[[Stub], _T]) -> _T:
        """Run ``op`` against the data file behind ``path``'s stub.

        A concurrent creator may be between steps 2 and 3 (stub exists,
        data file not yet created); give it a moment before declaring
        the stub dangling.  Truly dangling stubs (crashed creator, data
        evicted) still surface as "file not found", per the paper.
        """
        for attempt in range(_STUB_READ_ATTEMPTS):
            stub = self._stub(path)
            try:
                return op(stub)
            except DoesNotExistError:
                if attempt + 1 < _STUB_READ_ATTEMPTS:
                    self.policy.clock.sleep(0.01)
        raise DoesNotExistError(f"{path}: dangling stub (no data file)")

    def _merged_key(self, path: str) -> str:
        return file_key(self._cache_host, 0, normalize_virtual(path))

    def _entry_changed(self, path: str, stub: Optional[Stub] = None) -> None:
        """Drop the merged stat for ``path`` and, when the stub is known,
        the data file's blocks + metadata on its server's shared key."""
        if self.cache is None:
            return
        self.cache.meta.invalidate(self._merged_key(path))
        if stub is not None:
            self.cache.invalidate_data(file_key(stub.host, stub.port, stub.path))

    def _data_handle(
        self, stub: Stub, flags: OpenFlags, mode: int, path: Optional[str] = None
    ) -> FileHandle:
        client = self.pool.get(*stub.endpoint)
        handle: FileHandle = ChirpFileHandle(
            client, stub.path, flags, mode, self.policy
        )
        cache = self.cache
        if cache is None or not cache.data_enabled:
            return handle
        data_key = file_key(stub.host, stub.port, stub.path)
        if flags.truncate:
            cache.invalidate_data(data_key)
        merged_key = self._merged_key(path) if path is not None else None

        def on_mutate():
            # The data write already invalidated the shared data-server
            # key (CachedFileHandle does that); the merged stat lives
            # under this filesystem's private namespace and must go too.
            if merged_key is not None:
                cache.meta.invalidate(merged_key)

        return CachedFileHandle(handle, cache, data_key, on_mutate=on_mutate)

    def _put_data(
        self, stub: Stub, data: bytes, flags: OpenFlags, mode: int, path: str
    ) -> int:
        """Write ``data`` as the whole data file behind ``stub``: one
        ``putflags`` where the data server speaks protocol v4, else open +
        pwrite + close through a handle."""
        client = self.pool.get(*stub.endpoint)
        if not self.policy.run(client.speaks_v4, client.ensure_connected):
            with self._data_handle(stub, flags, mode, path) as handle:
                return write_whole(handle, data)
        return self.policy.run(
            lambda: client.putflags(stub.path, data, flags, mode),
            client.ensure_connected,
        )

    # ------------------------------------------------------------------
    # open / create
    # ------------------------------------------------------------------

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle:
        path = self._guard_name(path)
        if self.sync_writes and flags.write and not flags.sync:
            flags = replace(flags, sync=True)
        if flags.create:
            return self._create_or_open(path, flags, mode)
        return self._open_existing(path, flags, mode)

    def _open_existing(self, path: str, flags: OpenFlags, mode: int) -> FileHandle:
        dflags = replace(flags, create=False, exclusive=False)
        return self._on_data(path, lambda stub: self._data_handle(stub, dflags, mode, path))

    def _excluded(self, dead: set[tuple[str, int]]) -> frozenset:
        """Placement exclusions: observed-dead plus advisory avoidance.

        The advisory set (draining servers) is dropped when honoring it
        would leave nothing to place on -- a write landing on a draining
        server beats a write failing outright.
        """
        if self.avoid_servers is None:
            return frozenset(dead)
        avoid = dead | {(h, int(p)) for h, p in self.avoid_servers()}
        if all(tuple(ep) in avoid for ep in self.servers):
            return frozenset(dead)
        return frozenset(avoid)

    def _create(self, path: str, make_data: Callable[[Stub], _T]) -> _T:
        """The crash-safe 3-step creation protocol; ``make_data`` is step 3.

        Raises :class:`AlreadyExistsError` when ``path`` already has a
        stub.  A step 3 that fails removes the step-2 stub again.
        """
        dead: set[tuple[str, int]] = set()
        for _ in range(_CREATE_ATTEMPTS):
            # Step 1: choose a server and generate a unique data name.
            try:
                endpoint = tuple(
                    self.placement.choose(self.servers, self._excluded(dead))
                )
            except LookupError:
                raise DisconnectedError(f"{path}: no data server for placement") from None
            data_path = self.data_dir + "/" + unique_data_name()
            stub = Stub(endpoint[0], endpoint[1], data_path)
            # Step 2: exclusively create the stub entry.
            if not self.meta.create_exclusive(path, stub.encode()):
                raise AlreadyExistsError(path)
            # Step 3: exclusively create the data file.
            try:
                result = make_data(stub)
            except AlreadyExistsError:
                # Unlikely data-name collision: abort this creation
                # (paper's rule) and retry with a fresh name.
                self.meta.unlink(path)
                continue
            except DisconnectedError:
                self.meta.unlink(path)
                dead.add(endpoint)
                continue
            except Exception:
                self.meta.unlink(path)
                raise
            # The path may have been cached as absent before creation.
            self._entry_changed(path)
            return result
        raise DisconnectedError(f"{path}: no data server accepted the new file")

    def _create_or_open(self, path: str, flags: OpenFlags, mode: int) -> FileHandle:
        dflags = replace(flags, create=True, exclusive=True, write=True)
        try:
            return self._create(
                path, lambda stub: self._data_handle(stub, dflags, mode, path)
            )
        except AlreadyExistsError:
            if flags.exclusive:
                raise
        return self._open_existing(path, flags, mode)

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------

    def stat(self, path: str) -> ChirpStat:
        path = self._guard_name(path)
        cache = self.cache
        key = None
        generation = 0
        if cache is not None and cache.meta_enabled:
            key = self._merged_key(path)
            cached = cache.meta.get("stat", key)
            if cached is MetaCache.NEGATIVE:
                raise DoesNotExistError(f"{path}: no such file or directory (cached)")
            if cached is not MetaCache.MISS:
                return cached
            # Sampled before the RPCs so a concurrent same-client
            # mutation's invalidation refuses this (now stale) result.
            generation = cache.meta.generation(key)
        try:
            merged = self._stat_uncached(path)
        except DoesNotExistError:
            if key is not None:
                cache.meta.put_negative(
                    "stat", key, cache.policy.negative_expiry(), generation=generation
                )
            raise
        if key is not None:
            cache.meta.put(
                "stat", key, merged, cache.policy.meta_expiry(), generation=generation
            )
        return merged

    def _stat_uncached(self, path: str) -> ChirpStat:
        mst, stub = self._lookup(path)
        if stub is None:
            return mst
        client = self.pool.get(*stub.endpoint)
        try:
            dst = self.policy.run(
                lambda: client.stat(stub.path), client.ensure_connected
            )
        except DoesNotExistError:
            raise DoesNotExistError(f"{path}: dangling stub (no data file)") from None
        # Identity (device/inode) comes from the namespace entry; content
        # attributes (size, times, mode bits) come from the data file.
        return ChirpStat(
            device=mst.device,
            inode=mst.inode,
            mode=dst.mode,
            nlink=mst.nlink,
            uid=dst.uid,
            gid=dst.gid,
            size=dst.size,
            atime=dst.atime,
            mtime=dst.mtime,
            ctime=dst.ctime,
        )

    def lstat(self, path: str) -> ChirpStat:
        """The stub entry itself -- works even when data is unreachable."""
        return self.meta.stat(self._guard_name(path))

    def listdir(self, path: str) -> list[str]:
        names = self.meta.listdir(path)
        if normalize_virtual(path) == "/":
            names = [n for n in names if n != VOLUME_FILE]
        return names

    def unlink(self, path: str, force: bool = False) -> None:
        """Delete data first, then the stub (the paper's ordering).

        ``force=True`` removes the stub even when the data server is
        unreachable -- the escape hatch for permanently lost servers.
        """
        path = self._guard_name(path)
        stub = self._stub(path)
        try:
            client = self.pool.get(*stub.endpoint)
            self.policy.run(
                lambda: client.unlink(stub.path), client.ensure_connected
            )
        except DoesNotExistError:
            pass  # dangling stub: nothing to delete on the data side
        except DisconnectedError:
            if not force:
                raise
        self.meta.unlink(path)
        self._entry_changed(path, stub)

    def rename(self, old: str, new: str) -> None:
        # Name-only: the stub moves, the data file never does.
        old, new = self._guard_name(old), self._guard_name(new)
        self.meta.rename(old, new)
        if self.cache is not None:
            # ``old`` may be a directory: descendants' merged stats are
            # keyed under the old prefix and must go too.  Data blocks
            # live under data-server keys, which a rename never moves.
            self.cache.invalidate_subtree(self._merged_key(old))
            self.cache.invalidate_subtree(self._merged_key(new))

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        path = self._guard_name(path)
        self.meta.mkdir(path, mode)
        # The path may have been cached as absent before creation.
        self._entry_changed(path)

    def rmdir(self, path: str) -> None:
        path = self._guard_name(path)
        self.meta.rmdir(path)
        self._entry_changed(path)

    def truncate(self, path: str, size: int) -> None:
        path = self._guard_name(path)
        stub = self._stub(path)
        client = self.pool.get(*stub.endpoint)
        self.policy.run(
            lambda: client.truncate(stub.path, size), client.ensure_connected
        )
        self._entry_changed(path, stub)

    def utime(self, path: str, atime: int, mtime: int) -> None:
        path = self._guard_name(path)
        stub = self._stub(path)
        client = self.pool.get(*stub.endpoint)
        self.policy.run(
            lambda: client.utime(stub.path, atime, mtime), client.ensure_connected
        )
        self._entry_changed(path)

    def statfs(self) -> StatFs:
        """Aggregate capacity over the *reachable* data servers."""
        total = free = 0
        reachable = 0
        for host, port in self.servers:
            client = self.pool.try_get(host, port)
            if client is None:
                continue
            try:
                fs = self.policy.run(client.statfs, client.ensure_connected)
            except ChirpError:
                continue
            total += fs.total_bytes
            free += fs.free_bytes
            reachable += 1
        if reachable == 0:
            raise DisconnectedError("no data server reachable for statfs")
        return StatFs(total, free)

    # ------------------------------------------------------------------
    # streaming fast path
    # ------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file read as one ``getfile`` on the data server.

        Mirrors :meth:`_open_existing`'s tolerance of the create window:
        a stub whose data file has not appeared yet gets a few retries
        before being declared dangling.  With a data-caching policy the
        handle path is used instead, so repeat reads hit the block cache.
        """
        if self.cache is not None and self.cache.data_enabled:
            return super().read_file(path)
        path = self._guard_name(path)

        def getfile(stub: Stub) -> bytes:
            client = self.pool.get(*stub.endpoint)
            return self.policy.run(
                lambda: client.getfile(stub.path), client.ensure_connected
            )

        return self._on_data(path, getfile)

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        """Whole-file create-or-replace in the fewest round trips.

        Create-first: ``putflags wcx`` of the stub, then ``putflags wcx``
        of the data file -- the 3-step protocol's order, each step one
        RPC, and a failed data write rolls the stub back as
        :meth:`open` does.  When the stub already exists the file is
        replaced in place: one lookup, then ``putflags wt`` on its data
        file, which never creates one, so a dangling stub stays dangling.
        With a data-caching policy the handle path is used instead, as
        :meth:`read_file` does.
        """
        if self.cache is not None and self.cache.data_enabled:
            return super().write_file(path, data, mode)
        path = self._guard_name(path)
        create = OpenFlags(write=True, create=True, exclusive=True, sync=self.sync_writes)
        try:
            return self._create(
                path, lambda stub: self._put_data(stub, data, create, mode, path)
            )
        except AlreadyExistsError:
            pass
        overwrite = OpenFlags(write=True, truncate=True, sync=self.sync_writes)

        def put(stub: Stub) -> int:
            n = self._put_data(stub, data, overwrite, mode, path)
            self._entry_changed(path, stub)
            return n

        return self._on_data(path, put)

    # ------------------------------------------------------------------
    # introspection used by tools and tests
    # ------------------------------------------------------------------

    def stub_for(self, path: str) -> Stub:
        """Expose the stub for a path (tools, tests, repair scripts)."""
        return self._stub(self._guard_name(path))
