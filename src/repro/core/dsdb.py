"""DSDB: the distributed shared database.

"The DSDB is similar to the DSFS, except that a database server is used
to store file metadata as well as pointers to files.  A user queries the
database to yield the names of matching files, and then accesses them
directly with the adapter."

A DSDB record is a JSON object carrying user metadata plus the fields the
system maintains::

    {
      "id": ...,  "tss_kind": "file",  "name": "run5/traj.dcd",
      "size": 1048576,  "checksum": "…",
      "replicas": [ {"host": h, "port": p, "path": "/tssdata/vol/file-…",
                     "state": "ok"|"damaged"|"missing", …}, … ],

(``verify_replica`` can additionally answer ``unreachable`` -- an
inconclusive verdict that is never written into a replica's state.)
    }

Replication, auditing, and repair policies live in :mod:`repro.gems`;
this class provides the mechanism: ingest, query, direct fetch with
failover across replicas, replica copy/attach/drop, delete.
"""

from __future__ import annotations

import io
import tempfile
from typing import BinaryIO, Optional, Protocol, Sequence, Union

from repro.chirp.protocol import StatFs
from repro.core.placement import PlacementPolicy, RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.core.stubs import unique_data_name
from repro.transport.fanout import DEFAULT_FANOUT, FanoutPool
from repro.transport.recovery import RetryPolicy
from repro.db.query import Query
from repro.util.checksum import data_checksum, file_checksum, stream_checksum
from repro.util.errors import (
    ChirpError,
    DisconnectedError,
    DoesNotExistError,
    IntegrityError,
    InvalidRequestError,
    TryAgainError,
)

__all__ = ["DSDB", "Replica", "RecordStore"]

Replica = dict  # {"host", "port", "path", "state"}

FILE_KIND = "file"


class RecordStore(Protocol):
    """What DSDB needs from its database.

    Satisfied by both :class:`repro.db.engine.MetadataDB` (embedded) and
    :class:`repro.db.client.DatabaseClient` (remote server) -- the same
    recursive trick as everywhere else: local and remote are one interface.
    """

    def insert(self, record: dict) -> str: ...

    def get(self, rid: str) -> Optional[dict]: ...

    def update(self, rid: str, fields: dict) -> dict: ...

    def delete(self, rid: str) -> bool: ...

    def query(self, query: Query, limit: Optional[int] = None) -> list[dict]: ...

    def count(self, query: Query) -> int: ...


def live_replicas(record: dict) -> list[Replica]:
    """Replicas believed intact (state ``ok``)."""
    return [r for r in record.get("replicas", []) if r.get("state", "ok") == "ok"]


class DSDB:
    """A distributed shared database of files.

    :param db: the record store (embedded or remote).
    :param pool: shared client pool carrying the user's credentials.
    :param servers: file servers available for data placement.
    :param volume: name; data lands under ``/tssdata/<volume>`` on servers.
    """

    def __init__(
        self,
        db: RecordStore,
        pool: ClientPool,
        servers: Sequence[tuple[str, int]],
        volume: str = "dsdb",
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        if not servers:
            raise ValueError("a DSDB needs at least one file server")
        self.db = db
        self.pool = pool
        self.servers = [(h, int(p)) for h, p in servers]
        self.volume = volume
        self.data_dir = f"/tssdata/{volume}"
        self.placement = placement or RoundRobinPlacement()
        self.policy = policy or RetryPolicy()
        self.fanout = FanoutPool(min(max(len(self.servers), 1), DEFAULT_FANOUT))
        self._dirs_made: set[tuple[str, int]] = set()

    # ------------------------------------------------------------------
    # placement plumbing
    # ------------------------------------------------------------------

    def add_server(self, host: str, port: int) -> None:
        """New equipment arrives: start placing data on it, no downtime."""
        endpoint = (host, int(port))
        if endpoint not in self.servers:
            self.servers.append(endpoint)

    def remove_server(self, host: str, port: int) -> None:
        """Stop placing *new* data on a server (existing replicas remain
        in records until an auditor notices their fate)."""
        endpoint = (host, int(port))
        self.servers = [s for s in self.servers if s != endpoint]

    def _ensure_dir(self, endpoint: tuple[str, int]) -> None:
        if endpoint in self._dirs_made:
            return
        from repro.util.errors import AlreadyExistsError

        client = self.pool.get(*endpoint)
        current = ""
        for part in self.data_dir.strip("/").split("/"):
            current += "/" + part
            try:
                client.mkdir(current)
            except AlreadyExistsError:
                continue
        self._dirs_made.add(endpoint)

    def _place_bytes(
        self, data_or_file: Union[bytes, BinaryIO], exclude: frozenset
    ) -> Replica:
        """Store one copy on a fresh server; returns the replica descriptor.

        Write-path failure coherence, the mirror of :meth:`fetch`: a
        server that refuses the copy (down, draining, busy, circuit
        open) is excluded and the placement re-chosen, so one dead
        machine never fails a write the rest of the cluster could
        accept.  Raises the last transport error only once every
        candidate server has refused; raises ``LookupError`` when
        ``exclude`` already covered everything.
        """
        tried = set(exclude)
        last: Optional[ChirpError] = None
        while True:
            try:
                endpoint = tuple(self.placement.choose(self.servers, frozenset(tried)))
            except LookupError:
                if last is None:
                    raise
                raise last
            try:
                return self._store_bytes(endpoint, data_or_file)
            except ChirpError as exc:
                last = exc
                tried.add(endpoint)

    def _store_bytes(
        self,
        endpoint: tuple[str, int],
        data_or_file: Union[bytes, BinaryIO],
        path: Optional[str] = None,
    ) -> Replica:
        """Store one copy on a *given* server; returns the replica descriptor."""
        self._ensure_dir(endpoint)
        if path is None:
            path = self.data_dir + "/" + unique_data_name()
        client = self.pool.get(*endpoint)
        if isinstance(data_or_file, (bytes, bytearray, memoryview)):
            client.putfile(path, bytes(data_or_file))
        else:
            data_or_file.seek(0)
            client.putfile(path, data_or_file)
        return {"host": endpoint[0], "port": endpoint[1], "path": path, "state": "ok"}

    # ------------------------------------------------------------------
    # ingest / query / fetch / delete
    # ------------------------------------------------------------------

    def ingest(
        self,
        name: str,
        data: Union[bytes, BinaryIO, str],
        metadata: Optional[dict] = None,
        replicas: int = 1,
    ) -> dict:
        """Store a file and index it with one record.

        ``data`` may be bytes, a binary file object, or a local path.
        The requested copies are placed one after another on distinct
        servers when possible, then a single ``insert`` lists them all.
        The first copy is required (its failure fails the ingest); extra
        copies are best-effort (GEMS: "once a single copy of the data is
        accepted, the replicator process then works to replicate"), so a
        refused one is left for the keeper to restore.  Copies go out in
        series, not concurrently: servers sharing a CPU and a journal
        made two concurrent puts slower than two in a row.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        spool: Optional[BinaryIO] = None
        try:
            if isinstance(data, str):
                spool = open(data, "rb")
                checksum = stream_checksum(spool)
                size = spool.seek(0, io.SEEK_END)
                source: Union[bytes, BinaryIO] = spool
            elif isinstance(data, (bytes, bytearray, memoryview)):
                source = bytes(data)
                checksum = data_checksum(source)
                size = len(source)
            else:
                spool = data
                spool.seek(0)
                checksum = stream_checksum(spool)
                size = spool.seek(0, io.SEEK_END)
                source = spool

            copies = [self._place_bytes(source, frozenset())]
            exclude = {(copies[0]["host"], copies[0]["port"])}
            for _ in range(replicas - 1):
                try:
                    rep = self._place_bytes(source, frozenset(exclude))
                except (LookupError, ChirpError):
                    break  # fewer servers than copies, or none would take one
                copies.append(rep)
                exclude.add((rep["host"], rep["port"]))
            record = {
                "tss_kind": FILE_KIND,
                "name": name,
                "size": size,
                "checksum": checksum,
                "replicas": copies,
            }
            for key, value in (metadata or {}).items():
                record.setdefault(key, value)
            record["id"] = self.db.insert(record)
            return record
        finally:
            if spool is not None and isinstance(data, str):
                spool.close()

    def query(self, query: Query, limit: Optional[int] = None) -> list[dict]:
        return self.db.query(query, limit)

    def find(self, **equalities) -> list[dict]:
        """Shorthand equality query, always scoped to file records."""
        q = Query.where(tss_kind=FILE_KIND, **equalities)
        return self.db.query(q)

    def scan_records(
        self, after: Optional[str] = None, limit: Optional[int] = None
    ) -> list[dict]:
        """File records in id order, resuming past a cursor.

        The incremental-audit primitive: callers remember the last id
        they processed and pass it back as ``after``, so a scan
        interrupted (or rate-limited) mid-way continues where it stopped
        instead of restarting from the first record.  An empty result
        means the cursor reached the end of the keyspace.
        """
        q = Query.where(tss_kind=FILE_KIND)
        if after is not None:
            q = q.and_("id", "gt", after)
        records = sorted(self.db.query(q), key=lambda r: r["id"])
        return records[:limit] if limit is not None else records

    def get(self, rid: str) -> Optional[dict]:
        return self.db.get(rid)

    def fetch(
        self,
        record_or_id: Union[dict, str],
        sink: Optional[BinaryIO] = None,
        verify: bool = False,
    ) -> Union[bytes, int]:
        """Read a file directly from its replicas, failing over in order.

        This is the DSDB's failure coherence: any live replica serves the
        read; only when every replica is gone does the fetch fail.

        With ``verify=True`` the *fetched bytes* are hashed against the
        record's checksum before anything reaches the caller -- the
        corruption-safe read path.  (The ``checksum`` RPC is O(1)
        pointer metadata on content-addressed servers and so blind to
        at-rest bitrot; only hashing what was actually served catches a
        lying replica.)  A digest mismatch marks the replica ``damaged``
        in the record -- the read-repair trigger the keeper acts on --
        and fails over to the next replica.  Corrupt bytes are never
        written to ``sink``.
        """
        record = self._resolve(record_or_id)
        last: Optional[Exception] = None
        for rep in live_replicas(record) or record.get("replicas", []):
            client = self.pool.try_get(rep["host"], rep["port"])
            if client is None:
                last = DisconnectedError(f"{rep['host']}:{rep['port']} down")
                continue
            if not verify:
                try:
                    return client.getfile(rep["path"], sink)
                except ChirpError as exc:
                    last = exc
                    continue
            try:
                data = client.getfile_verified(rep["path"], record["checksum"])
            except IntegrityError as exc:
                record = self.mark_replica(record, rep, "damaged")
                last = exc
                continue
            except ChirpError as exc:
                last = exc
                continue
            if sink is None:
                return data
            sink.write(data)
            return len(data)
        raise DoesNotExistError(
            f"{record.get('name', record.get('id'))}: no replica available"
        ) from last

    def delete(self, record_or_id: Union[dict, str], force: bool = False) -> None:
        """Remove data replicas, then the record (data-first ordering)."""
        record = self._resolve(record_or_id)
        for rep in record.get("replicas", []):
            try:
                client = self.pool.get(rep["host"], rep["port"])
                client.unlink(rep["path"])
            except DoesNotExistError:
                continue
            except ChirpError:
                if not force:
                    raise
        self.db.delete(record["id"])

    def _resolve(self, record_or_id: Union[dict, str]) -> dict:
        if isinstance(record_or_id, dict):
            return record_or_id
        record = self.db.get(record_or_id)
        if record is None:
            raise DoesNotExistError(f"no record {record_or_id}")
        return record

    # ------------------------------------------------------------------
    # replica maintenance (mechanism used by the GEMS policies)
    # ------------------------------------------------------------------

    def verify_replica(self, record: dict, replica: Replica) -> str:
        """Check one replica: ``ok``, ``damaged``, ``missing`` or
        ``unreachable``.

        ``missing`` and ``damaged`` are *authoritative*: the server
        answered and either denied having the file or served the wrong
        digest.  ``unreachable`` is *inconclusive*: the server could not
        be asked (down, draining, stalled, circuit open) -- the replica
        may be perfectly intact, so callers must not treat it as lost.
        Conflating the two is how an auditor turns a rebooting server
        into data loss.
        """
        client = self.pool.try_get(replica["host"], replica["port"])
        if client is None:
            return "unreachable"
        try:
            digest = client.checksum(replica["path"])
        except DoesNotExistError:
            return "missing"
        except ChirpError:
            return "unreachable"
        return "ok" if digest == record["checksum"] else "damaged"

    def copy_replica(
        self,
        record_or_id: Union[dict, str],
        endpoint: tuple[str, int],
        path: Optional[str] = None,
    ) -> Replica:
        """Stream a live replica onto a *chosen* server; no record update.

        The mechanism half of journaled repair: the caller picks the
        target (and may pre-generate ``path`` so a crash leaves a
        findable orphan), this method moves the bytes, and
        :meth:`attach_replica` commits the result to the record --
        letting a repair journal write its intent entry between the two.

        The freshly written copy is always checked with the server-side
        ``checksum`` RPC (no payload crosses the wire) before being
        returned; a mismatch (torn write, lying server, bit rot in
        flight) removes the copy and raises :class:`TryAgainError`, so a
        bad copy can never be attached as live.

        Raises :class:`ChirpError` when no live source exists or the
        copy itself fails.
        """
        record = self._resolve(record_or_id)
        if not live_replicas(record):
            raise DoesNotExistError(
                f"{record.get('name', record.get('id'))}: no live source replica"
            )
        new_rep = self._link_by_key(record, tuple(endpoint), path)
        if new_rep is None:
            with tempfile.TemporaryFile() as spool:
                self.fetch(record, sink=spool)
                spool.seek(0)
                new_rep = self._store_bytes(tuple(endpoint), spool, path)
        client = self.pool.get(new_rep["host"], new_rep["port"])
        if client.checksum(new_rep["path"]) != record.get("checksum"):
            try:
                client.unlink(new_rep["path"])
            except ChirpError:
                pass  # an auditor pass will reap the orphan
            raise TryAgainError(
                f"{new_rep['path']}: verify-after-write checksum mismatch"
            )
        return new_rep

    def _link_by_key(
        self,
        record: dict,
        endpoint: tuple[str, int],
        path: Optional[str] = None,
    ) -> Optional[Replica]:
        """Copy-by-reference: when the target is content-addressed and
        already holds this record's blob, bind the path to the checksum
        key instead of streaming bytes.  Returns None when the fast path
        does not apply (non-CAS target, key absent, any error) so the
        caller falls back to the byte transfer.
        """
        key = record.get("checksum")
        if not key:
            return None
        client = self.pool.try_get(*endpoint)
        if client is None:
            return None
        try:
            self._ensure_dir(endpoint)
            if path is None:
                path = self.data_dir + "/" + unique_data_name()
            client.putkey(path, key)
        except (InvalidRequestError, DoesNotExistError):
            return None  # old/non-CAS server or blob not present
        except ChirpError:
            return None
        return {"host": endpoint[0], "port": endpoint[1], "path": path, "state": "ok"}

    def attach_replica(
        self, record_or_id: Union[dict, str], replica: Replica
    ) -> dict:
        """Commit a copied replica into its record (the repair 'commit')."""
        record = self._resolve(record_or_id)
        replicas = record.get("replicas", []) + [dict(replica)]
        return self.db.update(record["id"], {"replicas": replicas})

    def drop_replica(self, record_or_id: Union[dict, str], replica: Replica) -> dict:
        """Remove one replica's data and forget it in the record."""
        record = self._resolve(record_or_id)
        try:
            client = self.pool.get(replica["host"], replica["port"])
            client.unlink(replica["path"])
        except ChirpError:
            pass  # best effort; the record is authoritative
        replicas = [
            r
            for r in record.get("replicas", [])
            if (r["host"], r["port"], r["path"])
            != (replica["host"], replica["port"], replica["path"])
        ]
        return self.db.update(record["id"], {"replicas": replicas})

    def mark_replica(
        self, record_or_id: Union[dict, str], replica: Replica, state: str
    ) -> dict:
        """Record an auditor verdict about one replica."""
        record = self._resolve(record_or_id)
        replicas = []
        for r in record.get("replicas", []):
            if (r["host"], r["port"], r["path"]) == (
                replica["host"],
                replica["port"],
                replica["path"],
            ):
                r = dict(r)
                r["state"] = state
            replicas.append(r)
        return self.db.update(record["id"], {"replicas": replicas})

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    def statfs(self) -> StatFs:
        # One probe per server, concurrently: aggregate capacity of a
        # wide deployment answers in one server's round-trip time.
        def probe(host: str, port: int) -> Optional[StatFs]:
            client = self.pool.try_get(host, port)
            if client is None:
                return None
            try:
                return client.statfs()
            except ChirpError:
                return None

        reports = self.fanout.run([
            (lambda ep=ep: probe(*ep)) for ep in self.servers
        ])
        total = sum(fs.total_bytes for fs in reports if fs is not None)
        free = sum(fs.free_bytes for fs in reports if fs is not None)
        return StatFs(total, free)

    def stored_bytes(self) -> int:
        """Total bytes across all replicas of all records (GEMS budget)."""
        total = 0
        for record in self.db.query(Query.where(tss_kind=FILE_KIND)):
            total += record.get("size", 0) * len(record.get("replicas", []))
        return total
