"""ReplicatedFS: a transparently replicating filesystem.

The paper's conclusion leaves this open: "One may imagine filesystems
that transparently stripe, replicate, and version data."  This module is
that extension for replication, built with exactly the pieces the TSS
already provides -- a directory tree, exclusive create, and file servers
-- demonstrating the architecture's claim that new abstractions need no
new server machinery.  It is a :class:`Replicated` layout of the stub
engine (:mod:`repro.core.stubfs`), which owns the create protocol,
lookup, failover and namespace; this module adds the codec, the handle
and replica maintenance.

Semantics:

- every file's stub lists ``copies`` locations on distinct servers;
- writes go to **all** live replicas (no write-behind -- direct access);
- reads are served by the first reachable replica, failing over in order;
- a replica whose server dies mid-handle is dropped from the handle (the
  file degrades but stays available as long as one replica lives);
  ``degraded`` on the handle reports this so callers can re-replicate;
- ``heal`` re-copies a file back up to its target replica count.

Divergence (a write that succeeded on some replicas when the client
crashed) is detected by ``verify``, which compares replica checksums;
policy-driven repair belongs to a GEMS-style auditor, not the filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.chirp.protocol import ChirpStat
from repro.core.interface import FileHandle, Filesystem
from repro.core.pool import ClientPool
from repro.core.stubfs import WCX, Layout, StubFilesystem, close_quietly, fan_out
from repro.core.stubs import Stub, decode_doc, encode_doc, parse_locations, unique_data_name
from repro.transport.fanout import DEFAULT_FANOUT, FanoutPool
from repro.util.errors import (
    AlreadyExistsError,
    ChirpError,
    DisconnectedError,
    DoesNotExistError,
    IntegrityError,
)

__all__ = ["ReplicatedFS", "MultiStub", "ReplicatedHandle", "Replicated"]


@dataclass(frozen=True)
class MultiStub:
    """A pointer to N replicas of one file's data."""

    locations: tuple[tuple[str, int, str], ...]  # (host, port, data path)

    def encode(self) -> bytes:
        return encode_doc("rstub", locations=[list(loc) for loc in self.locations])

    @classmethod
    def decode(cls, raw: bytes) -> "MultiStub":
        return decode_doc(
            raw, "rstub", "replicated stub", lambda doc: cls(parse_locations(doc))
        )


class ReplicatedHandle(FileHandle):
    """An open replicated file: reads fail over, writes fan out.

    Write-path fan-out (pwrite/fsync/ftruncate) pushes to every replica
    **concurrently** through a :class:`FanoutPool`; each replica server
    has its own connections at the transport layer, so write latency is
    the slowest replica, not the sum.  Survivor bookkeeping (dropping
    dead replicas, declaring the file unreachable) happens sequentially
    after the parallel round, so the handle's replica list never mutates
    under a worker.

    Degraded-mode reads: the read path consults each replica's circuit
    breaker and skips endpoints currently quarantined, so a read after a
    server death pays one failover instead of a full backoff schedule
    per operation.  Every replica dropped mid-handle is recorded in
    ``suspects`` (``host:port`` labels) so callers -- and a GEMS-style
    auditor -- know exactly which servers to re-replicate around.
    """

    def __init__(
        self,
        replicas: list[tuple[Stub, FileHandle]],
        fanout: Optional[FanoutPool] = None,
        quarantined: Callable[[Stub], bool] = lambda member: False,
    ):
        if not replicas:
            raise DoesNotExistError("no replica could be opened")
        #: ``(member, handle)`` per live replica, in read preference order.
        self._replicas = replicas
        self._quarantined = quarantined
        self.dropped = 0
        #: ``host:port`` of every replica dropped from this handle.
        self.suspects: list[str] = []
        self.fanout = fanout or FanoutPool(min(len(replicas), DEFAULT_FANOUT))

    @property
    def degraded(self) -> bool:
        return self.dropped > 0

    @property
    def width(self) -> int:
        return len(self._replicas)

    def _pick_reader(self) -> tuple[Stub, FileHandle]:
        """The first replica whose server is not quarantined.

        When every surviving replica is quarantined, the first is used
        anyway: a read against a suspect server beats refusing outright,
        and its failure feeds the breaker it would have consulted.
        """
        return next(
            (r for r in self._replicas if not self._quarantined(r[0])), self._replicas[0]
        )

    def _survivors_after(self, dead: tuple[Stub, FileHandle]) -> None:
        self._replicas.remove(dead)
        self.dropped += 1
        member, handle = dead
        label = f"{member.host}:{member.port}"
        if label not in self.suspects:
            self.suspects.append(label)
        close_quietly(handle)
        if not self._replicas:
            raise DisconnectedError("every replica of this file is unreachable")

    def _fanout_all(self, op) -> list:
        """Run ``op(handle)`` on every replica concurrently.

        Returns the successful results; replicas that raised
        DisconnectedError are dropped afterwards (raising only when none
        survive).  Other errors propagate.
        """
        outcomes = fan_out(self.fanout, list(self._replicas), lambda r: op(r[1]))
        for _, _, exc in outcomes:
            if exc is not None and not isinstance(exc, DisconnectedError):
                raise exc
        for replica, _, exc in outcomes:
            if exc is not None:
                self._survivors_after(replica)
        return [result for _, result, exc in outcomes if exc is None]

    def _read_any(self, op):
        """``op`` on the first healthy replica, failing over in order."""
        while True:
            replica = self._pick_reader()
            try:
                return op(replica[1])
            except DisconnectedError:
                self._survivors_after(replica)

    def pread(self, length: int, offset: int, deadline=None) -> bytes:
        """Read from the first healthy replica, failing over in order.

        ``deadline`` bounds the *total* time across every replica tried:
        it clamps each replica's retry backoff and socket waits, so a
        read against a sick file set returns data or
        :class:`~repro.util.errors.TimedOutError` within the budget.
        Only a replica handle that takes a deadline is handed one.
        """
        if deadline is None:
            return self._read_any(lambda h: h.pread(length, offset))
        return self._read_any(lambda h: h.pread(length, offset, deadline=deadline))

    def pwrite(self, data: bytes, offset: int) -> int:
        # Fan out; drop replicas that died, succeed if at least one took it.
        return self._fanout_all(lambda h: h.pwrite(data, offset))[0]

    def fsync(self) -> None:
        self._fanout_all(lambda h: h.fsync())

    def ftruncate(self, size: int) -> None:
        self._fanout_all(lambda h: h.ftruncate(size))

    def fstat(self) -> ChirpStat:
        return self._read_any(lambda h: h.fstat())

    def close(self) -> None:
        for _, handle in self._replicas:
            close_quietly(handle)


class Replicated(Layout):
    """``copies`` whole copies of every file on distinct servers.

    Writes go to every live copy; reads and stats are served by the
    first copy that answers; usable capacity is raw capacity divided by
    the copy count.
    """

    redundant = True

    def __init__(self, copies: int):
        self.width = self.divisor = copies

    def decode(self, raw: bytes) -> MultiStub:
        return MultiStub.decode(raw)

    def new_stub(self, members: Sequence[Stub]) -> MultiStub:
        return MultiStub(tuple((m.host, m.port, m.path) for m in members))

    def members(self, stub: MultiStub) -> tuple[Stub, ...]:
        return tuple(Stub(*loc) for loc in stub.locations)

    def handle(self, stub: MultiStub, opened, fs) -> ReplicatedHandle:
        handle = ReplicatedHandle(opened, fanout=fs.fanout, quarantined=fs.quarantined)
        handle.dropped = len(stub.locations) - len(opened)
        return handle


class ReplicatedFS(StubFilesystem):
    """A DSFS-shaped filesystem that keeps N copies of every file."""

    def __init__(
        self,
        meta: Filesystem,
        pool: Optional[ClientPool],
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        copies: int = 2,
        fanout_workers: Optional[int] = None,
        **kwargs,
    ):
        if copies < 1:
            raise ValueError("copies must be >= 1")
        if len(servers) < copies:
            raise ValueError("need at least as many servers as copies")
        super().__init__(meta, pool, servers, data_dir, **kwargs)
        self.copies = copies
        self.layout = Replicated(copies)
        if fanout_workers is not None:
            # Shared by every handle's replica fan-out; 1 forces serial pushes.
            self.fanout = FanoutPool(fanout_workers)
        #: ``host:port`` of every server that served bytes failing digest
        #: verification (see :meth:`read_verified`).  Mirrors
        #: :attr:`ReplicatedHandle.suspects`: corruption is the server
        #: *answering wrong*, not the transport failing, so it must not
        #: trip the circuit breaker -- this list is the parallel channel
        #: an auditor drains to know which servers to re-replicate around.
        self.suspects: list[str] = []

    # ------------------------------------------------------------------
    # replication maintenance
    # ------------------------------------------------------------------

    def verify(self, path: str) -> dict[tuple[str, int, str], str]:
        """Checksum every replica; returns location -> ok/missing/diverged.

        "ok" means *agrees with the majority checksum*.  With only two
        live replicas a divergence is a tie, and no filesystem-level
        information says which copy is the truth; the tie is broken
        deterministically in favor of the replica listed first in the
        stub (creation order).  Deployments that need real corruption
        arbitration should run ``copies >= 3`` so a majority exists.
        """
        stub = self.stub_for(path)
        digests, majority = self._digests(stub)
        out = {}
        for location, digest in digests.items():
            if digest is None:
                out[location] = "missing"
            elif digest == majority:
                out[location] = "ok"
            else:
                out[location] = "diverged"
        return out

    def _digests(
        self, stub: MultiStub
    ) -> tuple[dict[tuple[str, int, str], Optional[str]], Optional[str]]:
        """Advertised checksum of every replica (None when unreachable),
        in stub order, and their majority by count; ties go to the
        earliest location's digest."""
        outcomes = fan_out(
            self.fanout,
            self.layout.members(stub),
            lambda m: self.pool.get(*m.endpoint).checksum(m.path),
        )
        digests = {(m.host, m.port, m.path): digest for m, digest, _ in outcomes}
        seen = [d for d in digests.values() if d is not None]
        best_count = max(map(seen.count, seen), default=0)
        majority = next((d for d in seen if seen.count(d) == best_count), None)
        return digests, majority

    def read_verified(self, path: str) -> bytes:
        """Read a file's full contents, verified byte-for-byte.

        The expected digest is the majority of the replicas' *advertised*
        checksums (as in :meth:`verify`); the bytes actually fetched are
        then hashed against it before being returned.  The second hash is
        not redundant: on a content-addressed server the ``checksum`` RPC
        is an O(1) pointer read, blind to bitrot in the object at rest,
        so a replica can advertise the majority digest and still serve
        corrupt bytes.  Such a replica is treated as failed -- recorded
        in :attr:`suspects` and skipped -- and the read fails over to the
        next majority replica.  Corrupt bytes are never returned.
        """
        path = self._guard_name(path)
        stub = self._stub(path)
        digests, expected = self._digests(stub)
        if expected is None:
            raise DoesNotExistError(f"{path}: no replica reachable")
        last: Exception | None = None
        for location in stub.locations:
            if digests.get(location) != expected:
                continue  # missing or already known to diverge
            host, port, data_path = location
            client = self.pool.try_get(host, port)
            if client is None:
                continue
            try:
                return client.getfile_verified(data_path, expected)
            except IntegrityError as exc:
                label = f"{host}:{port}"
                if label not in self.suspects:
                    self.suspects.append(label)
                last = exc
            except ChirpError as exc:
                last = exc
        raise DoesNotExistError(
            f"{path}: no replica serves bytes matching digest {expected}"
        ) from last

    def heal(self, path: str) -> int:
        """Restore a file to its target replica count; returns copies added.

        Missing/diverged replicas are replaced by copies of a majority-
        checksum replica, landing on servers not already holding one.
        """
        path = self._guard_name(path)
        stub = self._stub(path)
        health = self.verify(path)
        good = [loc for loc in stub.locations if health[loc] == "ok"]
        if not good:
            raise DoesNotExistError(f"{path}: no intact replica to heal from")
        if len(good) >= self.copies:
            return 0
        source_host, source_port, source_path = good[0]
        source = self.pool.get(source_host, source_port)
        # Copy-by-reference setup: learn the source's content key once.
        # Targets that already hold the blob (CAS servers) then heal via
        # a metadata link; bytes are fetched lazily, only when a target
        # actually needs them.
        try:
            source_key = source.keyof(source_path)
        except ChirpError:
            source_key = None
        data = None
        occupied = {(h, p) for h, p, _ in good}
        new_locations = list(good)
        while len(new_locations) < self.copies:
            try:
                host, port = self.placement.choose(self.servers, frozenset(occupied))
            except LookupError:
                break
            occupied.add((host, port))
            data_path = self.data_dir + "/" + unique_data_name()
            try:
                client = self.pool.get(host, port)
                linked = False
                if source_key is not None:
                    try:
                        client.putkey(data_path, source_key)
                        linked = True
                    except ChirpError:
                        pass
                if not linked:
                    if data is None:
                        data = source.getfile(source_path)
                    client.putfile(data_path, data)
            except ChirpError:
                continue
            new_locations.append((host, port, data_path))
        added = len(new_locations) - len(good)
        # swing the stub to the healed location set, then retire bad data
        self.meta.unlink(path)
        try:
            self.meta.put(path, MultiStub(tuple(new_locations)).encode(), WCX)
        except AlreadyExistsError:
            raise AlreadyExistsError(f"{path}: concurrent recreation during heal") from None
        for location in stub.locations:
            if location not in new_locations and health[location] == "diverged":
                self._discard(Stub(*location), None)
        return added
