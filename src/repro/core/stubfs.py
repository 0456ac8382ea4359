"""The stub engine behind every distributed filesystem here.

The directory tree holds directories and *stub files*; file data lives
in per-volume directories on data servers.  Both are plain
:class:`~repro.core.interface.Filesystem` values: the tree is ``meta``
(DSFS: a CFS over the volume root on a file server; DPFS: a
``StoreFilesystem`` over a private local directory), and a data server
is whatever ``members(endpoint)`` returns (default: a CFS over it), so
a volume can also run in memory, with no socket, or over other volumes.
This module implements the paper's semantics over that structure:

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

A :class:`Layout` says how one file's bytes sit on its data files (its
*members*): one file for DPFS and DSFS, ``n`` copies
(:mod:`repro.core.replfs`), ``k`` stripes (:mod:`repro.core.stripefs`)
or a version history (:mod:`repro.core.versionfs`).  The layout owns the
stub codec, the composite handle, the ``stat`` merge and the whole-file
split; the lookup, the create protocol, failover, the namespace, unlink,
statfs and the whole-file paths exist once, here.
"""

from __future__ import annotations

import functools
import json
import posixpath
from dataclasses import replace
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.core.cfs import CFS
from repro.core.interface import FileHandle, Filesystem
from repro.core.placement import PlacementPolicy, RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.transport.fanout import DEFAULT_FANOUT, FanoutPool
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
    PartialFailureError,
)
from repro.util.paths import normalize_virtual

__all__ = [
    "StubFilesystem", "Layout", "SINGLE", "VOLUME_FILE", "WCX", "chirp_member",
    "read_config", "write_config", "fan_out", "close_quietly",
]

_T = TypeVar("_T")

Endpoint = tuple[str, int]

VOLUME_FILE = ".tssvolume"

#: An exclusive create: the stub protocol's atomic primitive.
WCX = OpenFlags(write=True, create=True, exclusive=True)

_CREATE_ATTEMPTS = 4  # retries on data-name collision, a dead server or a racing unlink
_STUB_READ_ATTEMPTS = 5  # retries while a freshly created stub is empty

# A member that is missing or unreachable; a redundant layout carries on
# without it.
_LOST = (DoesNotExistError, DisconnectedError)


def chirp_member(
    pool: ClientPool, endpoint: Endpoint, policy: Optional[RetryPolicy] = None, root: str = "/"
) -> CFS:
    """The file server at ``endpoint`` (its ``root`` subtree) as a
    filesystem: the default member of a stub filesystem."""
    return CFS(pool.get(*endpoint), root, policy)


def read_config(tree: Filesystem) -> dict:
    """The volume configuration at the root of a volume's tree."""
    doc = json.loads(tree.read_file("/" + VOLUME_FILE).decode("utf-8"))
    if not isinstance(doc, dict) or doc.get("tss") != "volume":
        raise ValueError("not a TSS volume")
    return doc


def write_config(tree: Filesystem, doc: dict) -> None:
    """Make ``tree`` a volume's tree, configured by ``doc``."""
    content = (json.dumps({**doc, "tss": "volume"}, sort_keys=True) + "\n").encode("utf-8")
    try:
        tree.put("/" + VOLUME_FILE, content, WCX)
    except AlreadyExistsError:
        raise AlreadyExistsError("volume already initialized here") from None


def _one_error(failed: list, total: int) -> Exception:
    """The error a fan-out raises for its ``(index, member, error)``
    failures: the first that is not a lost member, else every
    unreachable member named in one :class:`PartialFailureError`, else
    the first missing member."""
    for _, _, exc in failed:
        if not isinstance(exc, _LOST):
            return exc
    unreachable = [
        (i, f"{m.host}:{m.port}", str(exc) or "disconnected")
        for i, m, exc in failed
        if isinstance(exc, DisconnectedError)
    ]
    if unreachable:
        return PartialFailureError(
            f"{len(unreachable)} of {total} members unreachable", failures=unreachable
        )
    return failed[0][2]


class Layout:
    """How a stub filesystem lays one file over its data files (members).

    This base class is the *single* layout of DPFS and DSFS: the stub is
    a :class:`~repro.core.stubs.Stub` naming one data file.  Layouts with
    more members override what differs; members are always ``Stub``
    values, so the engine reaches any of them the same way.
    """

    #: Members a new file gets, each on a distinct server.
    width = 1
    #: Members are whole copies: a read needs any one, and a write or
    #: open carries on without members that are missing or unreachable.
    redundant = False
    #: statfs reports raw capacity divided by this.
    divisor = 1

    def decode(self, raw: bytes):
        return Stub.decode(raw)

    def new_stub(self, members: Sequence[Stub]):
        """The stub of a new file over freshly named ``members``."""
        return members[0]

    def members(self, stub) -> tuple[Stub, ...]:
        """The data files holding the file's current bytes, in order."""
        return (stub,)

    def referenced(self, stub) -> tuple[Stub, ...]:
        """Every data file ``stub`` references: what ``unlink`` removes."""
        return self.members(stub)

    def handle(self, stub, opened: list[tuple[Stub, FileHandle]], fs: "StubFilesystem") -> FileHandle:
        """One open file over the ``(member, handle)`` pairs ``fs``
        opened, in the order reads should prefer them."""
        return opened[0][1]

    def merge_stat(self, mst: ChirpStat, stats: list[ChirpStat]) -> ChirpStat:
        """Identity (device/inode) from the namespace entry; content
        attributes (size, times, mode bits) from the data file."""
        dst = stats[0]
        return ChirpStat(mst.device, mst.inode, dst.mode, mst.nlink, dst.uid, dst.gid,
                         dst.size, dst.atime, dst.mtime, dst.ctime)

    def split(self, stub, data: bytes) -> list:
        """Each member's bytes when the whole file becomes ``data``."""
        return [data] * len(self.members(stub))

    def assemble(self, stub, parts: list[bytes]) -> bytes:
        """The whole file from the members' bytes (one copy if redundant)."""
        return parts[0]

    def truncate_sizes(self, stub, size: int) -> list[int]:
        return [size] * len(self.members(stub))


SINGLE = Layout()


class StubFilesystem(Filesystem):
    """A distributed filesystem of stubs + data servers.

    :param meta: the filesystem holding the directory tree and stubs.
    :param members: the filesystem of the data server at an endpoint
        (default: a :class:`~repro.core.cfs.CFS` over ``pool``'s session
        to it).  Called per operation, so it must be cheap.

    See :class:`repro.core.dpfs.DPFS` and :class:`repro.core.dsfs.DSFS`
    for volume creation and opening, and the replicated, striped and
    versioned filesystems, which set their own :attr:`layout`.
    """

    layout: Layout = SINGLE

    def __init__(
        self,
        meta: Filesystem,
        pool: Optional[ClientPool],
        servers: Sequence[Endpoint],
        data_dir: str,
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
        avoid_servers: Optional[Callable[[], Iterable[Endpoint]]] = None,
        members: Optional[Callable[[Endpoint], Filesystem]] = None,
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
        # Advisory placement exclusions (e.g. servers advertising drain
        # in the catalog; see DrainingServerView).  Consulted per create;
        # the callable must be cheap and must not raise.
        self.avoid_servers = avoid_servers
        self.member = members or self._chirp_member
        self._chirp_members: dict[Endpoint, CFS] = {}
        # Runs per-member calls and the statfs probes concurrently.
        self.fanout = FanoutPool(min(len(self.servers), DEFAULT_FANOUT))

    def _chirp_member(self, endpoint: Endpoint) -> CFS:
        """The default member: a CFS over the pool's current session, so
        a session the pool replaced (after ``evict``) is never used."""
        client = self.pool.get(*endpoint)
        fs = self._chirp_members.get(endpoint)
        if fs is None or fs.client is not client:
            fs = self._chirp_members[endpoint] = chirp_member(self.pool, endpoint, self.policy)
        return fs

    def quarantined(self, member: Stub) -> bool:
        """Whether ``member``'s server sits behind an open breaker (so
        redundant layouts try it last)."""
        return self.pool is not None and self.pool.health.is_open(*member.endpoint)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _guard_name(path: str) -> str:
        norm = normalize_virtual(path)
        if posixpath.basename(norm) == VOLUME_FILE:
            raise NotAuthorizedError("the volume file is managed by the filesystem")
        return norm

    def _lookup(self, path: str) -> tuple[ChirpStat, Optional[Any]]:
        """The namespace entry at ``path`` and, for a file, its stub.

        One metadata lookup (a ``statget`` on a DSFS directory server).
        A stub the lookup saw but did not bring back -- too big, or
        replaced between the lookup's open and its stat -- is read
        again.  A stub still empty because its creator sits between the
        exclusive create and the write is re-read a few times before it
        is declared never completed.
        """
        for _ in range(_STUB_READ_ATTEMPTS):
            st, raw = self.meta.stat_read(path, STUB_MAX_BYTES)
            if st.is_dir:
                return st, None
            if raw is None:
                if not st.is_file:
                    raise InvalidRequestError(f"{path}: not a stub file")
                raw = self.meta.read_file(path)
            if raw:
                return st, self.layout.decode(raw)
            self.policy.clock.sleep(0.01)
        raise DoesNotExistError(f"{path}: stub never completed creation")

    def _stub(self, path: str):
        """The stub of the file at ``path`` (a directory has none)."""
        stub = self._lookup(path)[1]
        if stub is None:
            raise IsADirectoryError_(path)
        return stub

    def _on_data(self, path: str, op: Callable[[Any], _T]) -> _T:
        """Run ``op`` against the data behind ``path``'s stub.

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

    def _each(self, members: Sequence[Stub], op: Callable[[Stub], _T]) -> list[tuple[Stub, _T]]:
        """``op`` on every member; ``(member, result)`` pairs, in member
        order.

        A redundant layout carries on without members that are missing
        or unreachable as long as one answered, and puts healthy servers
        first: a handle's reads prefer earlier copies, so a server with
        an open breaker only gets traffic when every healthy one is
        gone.  Otherwise a failure closes every handle the other members
        opened and raises one error for all of them.
        """
        if len(members) == 1:
            return [(members[0], op(members[0]))]
        if self.layout.redundant:
            members = sorted(members, key=self.quarantined)
        outcomes = fan_out(self.fanout, members, op)
        failed = [(i, m, e) for i, (m, _, e) in enumerate(outcomes) if e is not None]
        done = [(m, r) for m, r, e in outcomes if e is None]
        if failed and not (
            self.layout.redundant and done and all(isinstance(e, _LOST) for _, _, e in failed)
        ):
            for _, result in done:
                close_quietly(result)
            raise _one_error(failed, len(members))
        return done

    def _gather(self, stub, op: Callable[[Stub], _T]) -> list[_T]:
        """``op`` on the members a read needs: the first copy that
        answers in a redundant layout (failing over in order), else
        every member."""
        members = self.layout.members(stub)
        if not self.layout.redundant:
            return [result for _, result in self._each(members, op)]
        errors = []
        for member in sorted(members, key=self.quarantined):
            try:
                return [op(member)]
            except _LOST as exc:
                errors.append(exc)
        raise next((e for e in errors if isinstance(e, DisconnectedError)), errors[0])

    def _data_handle(self, member: Stub, flags: OpenFlags, mode: int) -> FileHandle:
        return self.member(member.endpoint).open(member.path, flags, mode)

    def _discard(self, member: Stub, result: Any) -> None:
        """Best-effort removal of a data file whose create succeeded
        while another member's failed."""
        close_quietly(result)
        try:
            self.member(member.endpoint).unlink(member.path)
        except ChirpError:
            pass

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

        def open_members(stub) -> FileHandle:
            opened = self._each(
                self.layout.members(stub), lambda m: self._data_handle(m, dflags, mode)
            )
            return self.layout.handle(stub, opened, self)

        return self._on_data(path, open_members)

    def _place(self, path: str, dead: set[Endpoint]) -> list[Stub]:
        """Step 1: distinct servers for a new file's members, each with a
        unique data name, never one observed dead.

        Advisory avoidance (draining servers) is dropped when honoring it
        would leave too few servers to place on -- a write landing on a
        draining server beats a write failing outright.  A redundant
        layout settles for fewer copies when too few servers are left.
        """
        excluded = set(dead)
        if self.avoid_servers is not None:
            avoid = dead | {(h, int(p)) for h, p in self.avoid_servers()}
            if sum(ep not in avoid for ep in self.servers) >= self.layout.width:
                excluded = avoid
        members: list[Stub] = []
        while len(members) < self.layout.width:
            try:
                host, port = self.placement.choose(self.servers, frozenset(excluded))
            except LookupError:
                break
            excluded.add((host, port))
            members.append(Stub(host, port, self.data_dir + "/" + unique_data_name()))
        if not members or (len(members) < self.layout.width and not self.layout.redundant):
            raise DisconnectedError(f"{path}: no data server for placement")
        return members

    def _create(self, path: str, step3: Callable[[Any], Callable[[Stub], _T]]):
        """The crash-safe 3-step creation protocol.

        ``step3(stub)`` gives the op that exclusively creates one member's
        data file; it runs on every member.  Returns the stub and the
        ``(member, result)`` pairs.  Raises :class:`AlreadyExistsError`
        when ``path`` already has a stub.  A step 3 that fails anywhere
        removes the data files it did make and the step-2 stub again; a
        server that could not be reached is left out of the next attempt.
        """
        dead: set[Endpoint] = set()
        for _ in range(_CREATE_ATTEMPTS):
            stub = self.layout.new_stub(self._place(path, dead))
            # Step 2: exclusively create the stub entry.
            self.meta.put(path, stub.encode(), WCX)
            # Step 3: exclusively create the data files.
            outcomes = fan_out(self.fanout, self.layout.members(stub), step3(stub))
            failed = [(m, e) for m, _, e in outcomes if e is not None]
            if not failed:
                return stub, [(m, r) for m, r, _ in outcomes]
            for member, result, exc in outcomes:
                if exc is None:
                    self._discard(member, result)
            self.meta.unlink(path)
            for _, exc in failed:
                if not isinstance(exc, (AlreadyExistsError, DisconnectedError)):
                    raise exc
            # An unlikely data-name collision aborts this creation (the
            # paper's rule) and retries with fresh names; an unreachable
            # server is retried without.
            dead.update(m.endpoint for m, e in failed if isinstance(e, DisconnectedError))
        raise DisconnectedError(f"{path}: no data server accepted the new file")

    def _create_or(self, path: str, create: Callable[[], _T], existing: Callable[[], _T]) -> _T:
        """``create()``, or ``existing()`` when ``path`` already has a stub.

        A racing ``unlink`` can remove the stub between the two, and
        ``existing()`` then finds no file; that goes back to the create
        rather than failing a call that may create.  A dangling stub is
        still there afterwards and stays "file not found".
        """
        for _ in range(_CREATE_ATTEMPTS):
            try:
                return create()
            except AlreadyExistsError:
                pass
            try:
                return existing()
            except DoesNotExistError:
                try:
                    self.meta.lstat(path)
                except DoesNotExistError:
                    continue
                raise
        raise DoesNotExistError(f"{path}: removed by a racing unlink on every attempt")

    def _create_or_open(self, path: str, flags: OpenFlags, mode: int) -> FileHandle:
        dflags = replace(flags, create=True, exclusive=True, write=True)

        def create() -> FileHandle:
            stub, opened = self._create(
                path, lambda stub: lambda m: self._data_handle(m, dflags, mode)
            )
            return self.layout.handle(stub, opened, self)

        if flags.exclusive:
            return create()
        return self._create_or(path, create, lambda: self._open_existing(path, flags, mode))

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------

    def stat(self, path: str) -> ChirpStat:
        path = self._guard_name(path)
        mst, stub = self._lookup(path)
        if stub is None:
            return mst
        try:
            stats = self._gather(stub, lambda m: self.member(m.endpoint).stat(m.path))
        except DoesNotExistError:
            raise DoesNotExistError(f"{path}: dangling stub (no data file)") from None
        return self.layout.merge_stat(mst, stats)

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

        ``force=True`` removes the stub even when a data server is
        unreachable -- the escape hatch for permanently lost servers.
        """
        path = self._guard_name(path)
        stub = self._stub(path)
        outcomes = fan_out(
            self.fanout,
            self.layout.referenced(stub),
            lambda m: self.member(m.endpoint).unlink(m.path),
        )
        for _, _, exc in outcomes:
            # A missing data file leaves nothing to delete on that side.
            if exc is None or isinstance(exc, DoesNotExistError):
                continue
            if not (force and isinstance(exc, DisconnectedError)):
                raise exc
        self.meta.unlink(path)

    def rename(self, old: str, new: str) -> None:
        # Name-only: the stub moves, the data file never does.
        old, new = self._guard_name(old), self._guard_name(new)
        self.meta.rename(old, new)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        path = self._guard_name(path)
        self.meta.mkdir(path, mode)

    def rmdir(self, path: str) -> None:
        path = self._guard_name(path)
        self.meta.rmdir(path)

    def truncate(self, path: str, size: int) -> None:
        path = self._guard_name(path)
        stub = self._stub(path)
        sizes = dict(zip(self.layout.members(stub), self.layout.truncate_sizes(stub, size)))
        self._each(list(sizes), lambda m: self.member(m.endpoint).truncate(m.path, sizes[m]))

    def utime(self, path: str, atime: int, mtime: int) -> None:
        path = self._guard_name(path)
        stub = self._lookup(path)[1]
        if stub is None:  # a directory lives in the metadata tree only
            self.meta.utime(path, atime, mtime)
            return
        members = self.layout.members(stub)
        self._each(members, lambda m: self.member(m.endpoint).utime(m.path, atime, mtime))

    def statfs(self) -> StatFs:
        """Aggregate capacity over the *reachable* data servers."""

        def probe(endpoint: Endpoint) -> Optional[StatFs]:
            try:
                return self.member(endpoint).statfs()
            except ChirpError:
                return None

        probes = [functools.partial(probe, ep) for ep in self.servers]
        reports = [fs for fs in self.fanout.run(probes) if fs is not None]
        if not reports:
            raise DisconnectedError("no data server reachable for statfs")
        # A replicated volume's usable capacity is divided by its copies.
        divisor = self.layout.divisor
        return StatFs(
            sum(fs.total_bytes for fs in reports) // divisor,
            sum(fs.free_bytes for fs in reports) // divisor,
        )

    def make_data_dirs(self, servers: Iterable[Endpoint]) -> None:
        """mkdir -p the volume's data directory on each of ``servers``."""
        for endpoint in servers:
            self.member(endpoint).makedirs(self.data_dir)

    def add_server(self, host: str, port: int) -> None:
        """Grow the volume onto a new data server, without downtime."""
        endpoint = (host, int(port))
        if endpoint in self.servers:
            return
        self.make_data_dirs([endpoint])
        self.servers.append(endpoint)
        doc = read_config(self.meta)
        doc["servers"] = self.servers
        self.meta.unlink("/" + VOLUME_FILE)
        write_config(self.meta, doc)

    # ------------------------------------------------------------------
    # whole-file paths
    # ------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file read: one whole-file read per member the layout
        needs (one ``getfile`` each on file servers).

        Mirrors :meth:`_open_existing`'s tolerance of the create window:
        a stub whose data file has not appeared yet gets a few retries
        before being declared dangling.
        """
        path = self._guard_name(path)

        def read(stub) -> bytes:
            parts = self._gather(stub, lambda m: self.member(m.endpoint).read_file(m.path))
            return self.layout.assemble(stub, parts)

        return self._on_data(path, read)

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> int:
        """Whole-file create-or-replace in the fewest round trips.

        Create-first: an exclusive ``put`` of the stub, then one of each
        member's data file -- the 3-step protocol's order, each step one
        RPC per file on file servers, and a failed data write rolls the
        stub back as :meth:`open` does.  When the stub already exists
        the file is replaced in place: one lookup, then a ``wt`` put on
        its data files, which never creates one, so a dangling stub
        stays dangling.
        """
        path = self._guard_name(path)

        def putter(stub, flags: OpenFlags) -> Callable[[Stub], int]:
            parts = dict(zip(self.layout.members(stub), self.layout.split(stub, data)))
            return lambda m: self.member(m.endpoint).put(m.path, parts[m], flags, mode)

        def create() -> int:
            flags = replace(WCX, sync=self.sync_writes)
            self._create(path, lambda stub: putter(stub, flags))
            return len(data)

        def put(stub) -> int:
            flags = OpenFlags(write=True, truncate=True, sync=self.sync_writes)
            self._each(self.layout.members(stub), putter(stub, flags))
            return len(data)

        return self._create_or(path, create, lambda: self._on_data(path, put))

    # ------------------------------------------------------------------
    # introspection used by tools and tests
    # ------------------------------------------------------------------

    def stub_for(self, path: str):
        """Expose the stub for a path (tools, tests, repair scripts)."""
        return self._stub(self._guard_name(path))


def fan_out(fanout: FanoutPool, items: Sequence, op: Callable[[Any], _T]) -> list:
    """``op(item)`` for every item, concurrently: one ``(item, result,
    error)`` per item, in order, for the caller to settle."""

    def attempt(item):
        try:
            return item, op(item), None
        except Exception as exc:  # noqa: BLE001 - settled by the caller
            return item, None, exc

    return fanout.run([functools.partial(attempt, item) for item in items])


def close_quietly(result: Any) -> None:
    """Close ``result`` if it is an open handle, ignoring errors."""
    if isinstance(result, FileHandle):
        try:
            result.close()
        except ChirpError:
            pass
