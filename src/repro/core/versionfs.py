"""VersionedFS: a filesystem that transparently versions data.

The third word of the paper's future-work sentence ("filesystems that
transparently stripe, replicate, and **version** data"), and the enabling
piece of its distributed-backup vision: "allowing cooperating users to
easily record many backup images, thus allowing for on-line perusal,
recovery, and forensic analysis of data over time."

Every write session is copy-on-write: opening a file for writing creates
a fresh data file (seeded with the current contents unless truncating),
and *closing* the handle atomically commits it as the newest version.
The version history lives in the stub, updated by write-to-temp +
rename -- the same atomic primitive everything else here uses.  Reads,
stats, namespace operations and unlink are the stub engine's
(:mod:`repro.core.stubfs`) over a :class:`Versioned` layout.

Semantics:

- readers always see the latest *committed* version; a writer's
  in-progress changes are invisible until close (snapshot isolation at
  file granularity);
- a crash before close leaves the history untouched and at worst one
  orphan data file, which :func:`repro.core.fsck.fsck_volume`-style
  scanning can reclaim;
- ``versions(path)`` lists history; ``open_version``/``read_version``
  peruse it; ``restore`` promotes an old version (itself recorded as a
  new version -- history is append-only); ``prune`` trims old data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.core.interface import FileHandle, Filesystem
from repro.core.pool import ClientPool
from repro.core.stubfs import WCX, Layout, StubFilesystem
from repro.core.stubs import Stub, decode_doc, encode_doc
from repro.store.interface import write_all
from repro.util.errors import (
    AlreadyExistsError,
    ChirpError,
    DoesNotExistError,
    NotAuthorizedError,
)

__all__ = ["VersionedFS", "VersionStub", "Version", "Versioned"]

_TMP_SUFFIX = ".__vtmp"


@dataclass(frozen=True)
class Version:
    """One committed version of a file."""

    number: int
    host: str
    port: int
    path: str
    committed_at: float

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def member(self) -> Stub:
        """The data file this version's bytes live in."""
        return Stub(self.host, self.port, self.path)


@dataclass(frozen=True)
class VersionStub:
    """A file's version history (newest last)."""

    versions: tuple[Version, ...]

    def encode(self) -> bytes:
        return encode_doc(
            "vstub",
            versions=[[v.number, v.host, v.port, v.path, v.committed_at] for v in self.versions],
        )

    @classmethod
    def decode(cls, raw: bytes) -> "VersionStub":
        def parse(doc: dict) -> "VersionStub":
            versions = tuple(
                Version(int(number), str(host), int(port), str(path), float(at))
                for number, host, port, path, at in doc["versions"]
            )
            if not versions:
                raise ValueError("no versions")
            return cls(versions)

        return decode_doc(raw, "vstub", "version stub", parse)

    @property
    def latest(self) -> Version:
        return self.versions[-1]

    def get(self, number: int) -> Version:
        for v in self.versions:
            if v.number == number:
                return v
        raise DoesNotExistError(f"no version {number}")


class _CommitOnClose(FileHandle):
    """Wraps a data handle; commits the new version when closed."""

    def __init__(self, inner: FileHandle, commit):
        self._inner = inner
        self._commit = commit
        self._closed = False

    def pread(self, length: int, offset: int) -> bytes:
        return self._inner.pread(length, offset)

    def pwrite(self, data: bytes, offset: int) -> int:
        return self._inner.pwrite(data, offset)

    def fsync(self) -> None:
        self._inner.fsync()

    def fstat(self) -> ChirpStat:
        return self._inner.fstat()

    def ftruncate(self, size: int) -> None:
        self._inner.ftruncate(size)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._inner.fsync()
        except ChirpError:
            pass
        self._inner.close()
        self._commit()

    def abort(self) -> None:
        """Close without committing (the version never happened)."""
        self._closed = True
        self._inner.close()


class Versioned(Layout):
    """A version history: reads see the newest version's data file, and
    ``unlink`` removes the data of every version."""

    def decode(self, raw: bytes) -> VersionStub:
        return VersionStub.decode(raw)

    def members(self, stub: VersionStub) -> tuple[Stub, ...]:
        return (stub.latest.member,)

    def referenced(self, stub: VersionStub) -> tuple[Stub, ...]:
        # restore() makes versions share a data file; delete each once.
        return tuple(dict.fromkeys(v.member for v in stub.versions))


class VersionedFS(StubFilesystem):
    """A DSFS-shaped filesystem with per-file version history."""

    layout = Versioned()

    def __init__(
        self,
        meta: Filesystem,
        pool: Optional[ClientPool],
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        now=time.time,
        **kwargs,
    ):
        super().__init__(meta, pool, servers, data_dir, **kwargs)
        self.now = now

    @staticmethod
    def _guard_name(path: str) -> str:
        norm = StubFilesystem._guard_name(path)
        if norm.endswith(_TMP_SUFFIX):
            raise NotAuthorizedError("reserved name")
        return norm

    def listdir(self, path: str) -> list[str]:
        return [n for n in super().listdir(path) if not n.endswith(_TMP_SUFFIX)]

    def _current(self, path: str) -> Optional[VersionStub]:
        """The history at ``path``, or None when there is no file.  Only
        "does not exist" means absent: any other error propagates, so a
        metadata blip can never pass for a new file."""
        try:
            return self._stub(path)
        except DoesNotExistError:
            return None

    def _swing_stub(self, path: str, stub: VersionStub) -> None:
        """Atomically replace the version history via tmp + rename."""
        tmp = path + _TMP_SUFFIX
        try:
            self.meta.unlink(tmp)
        except ChirpError:
            pass
        try:
            self.meta.put(tmp, stub.encode(), WCX)
        except AlreadyExistsError:
            raise AlreadyExistsError(f"{path}: concurrent version commit") from None
        self.meta.rename(tmp, path)

    def _commit(self, path: str, member: Stub) -> None:
        """Record ``member`` as the newest version of ``path``."""
        current = self._current(path)
        if current is None:
            first = Version(1, member.host, member.port, member.path, self.now())
            try:
                self.meta.put(path, VersionStub((first,)).encode(), WCX)
                return
            except AlreadyExistsError:
                # we raced another creator: append to their history
                current = self._stub(path)
        version = Version(
            current.latest.number + 1, member.host, member.port, member.path, self.now()
        )
        self._swing_stub(path, VersionStub(current.versions + (version,)))

    # -- open (read latest / copy-on-write) ------------------------------

    def open(self, path: str, flags: OpenFlags, mode: int = 0o644) -> FileHandle:
        if not flags.write:
            return super().open(path, replace(flags, create=False), mode)
        return self._open_for_writing(self._guard_name(path), flags, mode)

    def _open_for_writing(self, path: str, flags: OpenFlags, mode: int) -> FileHandle:
        current = self._current(path)
        if current is not None and flags.exclusive:
            raise AlreadyExistsError(path)
        if current is None and not flags.create:
            raise DoesNotExistError(path)
        member = self._place(path, set())[0]

        # copy-on-write: seed with the current contents unless truncating.
        # On content-addressed servers the seed is a key link -- the new
        # version *shares* the old blob until it diverges, so snapshots
        # of unchanged files cost metadata, not storage.
        seed = current.latest if current is not None and not flags.truncate else None
        if seed is not None and self._seed_by_key(seed, member, mode):
            # The data file already exists with the seeded content; open
            # it without create/truncate so writes edit in place.
            dflags = replace(flags, create=False, exclusive=False, truncate=False)
            handle = self._data_handle(member, dflags, mode)
        else:
            dflags = replace(flags, create=True, exclusive=True)
            handle = self._data_handle(member, dflags, mode)
            if seed is not None:
                write_all(handle, self.member(seed.endpoint).read_file(seed.path))
        return _CommitOnClose(handle, lambda: self._commit(path, member))

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        """One new version: a fresh data file in one put, then the commit."""
        path = self._guard_name(path)
        member = self._place(path, set())[0]
        self.member(member.endpoint).put(member.path, data, WCX, mode)
        try:
            self._commit(path, member)
        except Exception:
            self._discard(member, None)
            raise
        return len(data)

    def _seed_by_key(self, source: Version, member: Stub, mode: int) -> bool:
        """Seed a new data file by content key instead of byte transfer.

        Works when both the source's server and the chosen target speak
        the CAS verbs and the target already holds the blob -- always
        true when they are the same server, which is the common snapshot
        case.  Any refusal (non-CAS server, key absent) returns False
        and the caller streams bytes instead, as it does on a volume
        whose members are not file servers (no pool).
        """
        if self.pool is None:
            return False
        try:
            key = self.pool.get(*source.endpoint).keyof(source.path)
            self.pool.get(*member.endpoint).putkey(member.path, key, mode)
        except ChirpError:
            return False
        return True

    def truncate(self, path: str, size: int) -> None:
        """Truncation is itself a versioned write."""
        flags = OpenFlags(read=True, write=True)
        with self._open_for_writing(self._guard_name(path), flags, 0o644) as handle:
            handle.ftruncate(size)

    # -- version perusal -------------------------------------------------

    def versions(self, path: str) -> list[Version]:
        """The file's committed history, oldest first."""
        return list(self.stub_for(path).versions)

    def open_version(self, path: str, number: int) -> FileHandle:
        version = self.stub_for(path).get(number)
        return self._data_handle(version.member, OpenFlags(read=True), 0)

    def read_version(self, path: str, number: int) -> bytes:
        version = self.stub_for(path).get(number)
        return self.member(version.endpoint).read_file(version.path)

    def restore(self, path: str, number: int) -> Version:
        """Promote an old version to newest (history stays append-only)."""
        path = self._guard_name(path)
        stub = self._stub(path)
        old = stub.get(number)
        promoted = Version(
            stub.latest.number + 1, old.host, old.port, old.path, self.now()
        )
        self._swing_stub(path, VersionStub(stub.versions + (promoted,)))
        return promoted

    def prune(self, path: str, keep: int = 1) -> int:
        """Drop all but the newest ``keep`` versions; returns data files
        actually deleted (a data file shared via ``restore`` survives
        until its last referencing version is pruned)."""
        if keep < 1:
            raise ValueError("must keep at least one version")
        path = self._guard_name(path)
        stub = self._stub(path)
        if len(stub.versions) <= keep:
            return 0
        kept = VersionStub(stub.versions[-keep:])
        self._swing_stub(path, kept)
        still_referenced = set(self.layout.referenced(kept))
        deleted = 0
        for member in self.layout.referenced(VersionStub(stub.versions[:-keep])):
            if member in still_referenced:
                continue
            try:
                self.member(member.endpoint).unlink(member.path)
                deleted += 1
            except ChirpError:
                continue
        return deleted
