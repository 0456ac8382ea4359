"""Durable record store with secondary indexes.

Storage layout: one :class:`~repro.util.jsonlog.RecordLog` (``db.log``)
replayed at open, whose torn tail (a crash mid-append) is truncated away
before anything else is appended.  Each log line is ``["put", record]``
or ``["del", record_id]``.  A mutation is logged (write + fsync) before
it is applied in memory, so one whose write fails is neither visible nor
replayed.  When the log accumulates enough dead weight it is compacted:
the live set is rewritten to a tmp file, renamed into place, and the
directory fsynced before the next append is acknowledged.

Records are dicts with a string ``id`` (assigned at insert when absent).
Secondary hash indexes are maintained for declared fields; equality terms
in a query use the best available index, remaining terms filter.
"""

from __future__ import annotations

import os
import threading
import uuid
from typing import Any, Iterator, Optional

from repro.db.query import Query
from repro.util.jsonlog import RecordLog

__all__ = ["Record", "MetadataDB"]

Record = dict  # alias documenting intent: records are plain JSON objects

_COMPACT_MIN_OPS = 1024  # do not bother compacting tiny logs


class MetadataDB:
    """An embedded metadata database.

    Thread-safe; every mutation is logged and flushed before it is
    acknowledged, so a crash loses at most the in-flight operation.

    :param path: directory for the log (created if missing); ``None``
        keeps the database purely in memory (handy in simulations).
    :param indexes: record fields to maintain secondary indexes on.
    """

    def __init__(self, path: Optional[str], indexes: tuple[str, ...] = ()):
        self.path = path
        self.index_fields = tuple(indexes)
        self._records: dict[str, Record] = {}
        self._indexes: dict[str, dict[Any, set[str]]] = {
            f: {} for f in self.index_fields
        }
        self._lock = threading.RLock()
        self._log: Optional[RecordLog] = None
        self._ops_since_compact = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._log = RecordLog(os.path.join(path, "db.log"))
            for op, payload in self._log.records():
                if op == "put":
                    self._install(payload)
                elif op == "del":
                    self._evict(payload)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "MetadataDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- durability -------------------------------------------------------

    def _apply(self, op: str, payload) -> None:
        """Log one mutation, then apply it, so a failed write changes
        nothing; compact once the log is mostly dead weight."""
        if self._log is not None:
            self._log.append([op, payload])
            self._ops_since_compact += 1
        if op == "put":
            self._install(payload)
        else:
            self._evict(payload)
        if (
            self._ops_since_compact >= _COMPACT_MIN_OPS
            and self._ops_since_compact > 4 * len(self._records)
        ):
            self._log.rewrite(["put", r] for r in self._records.values())
            self._ops_since_compact = 0

    # -- index maintenance ----------------------------------------------

    def _install(self, record: Record) -> None:
        rid = record["id"]
        self._evict(rid)
        self._records[rid] = record
        for field in self.index_fields:
            value = record.get(field)
            if isinstance(value, (str, int, float, bool)) or value is None:
                self._indexes[field].setdefault(value, set()).add(rid)

    def _evict(self, rid: str) -> None:
        old = self._records.pop(rid, None)
        if old is None:
            return
        for field in self.index_fields:
            value = old.get(field)
            bucket = self._indexes[field].get(value)
            if bucket is not None:
                bucket.discard(rid)
                if not bucket:
                    del self._indexes[field][value]

    # -- public operations -------------------------------------------------

    def insert(self, record: Record) -> str:
        """Insert (or overwrite) a record; returns its id."""
        with self._lock:
            record = dict(record)
            rid = record.setdefault("id", uuid.uuid4().hex)
            if not isinstance(rid, str) or not rid:
                raise ValueError("record id must be a non-empty string")
            self._apply("put", record)
            return rid

    def get(self, rid: str) -> Optional[Record]:
        with self._lock:
            rec = self._records.get(rid)
            return dict(rec) if rec is not None else None

    def update(self, rid: str, fields: dict) -> Record:
        """Merge fields into an existing record; raises KeyError if absent."""
        with self._lock:
            rec = self._records.get(rid)
            if rec is None:
                raise KeyError(rid)
            merged = dict(rec)
            merged.update(fields)
            merged["id"] = rid
            self._apply("put", merged)
            return dict(merged)

    def delete(self, rid: str) -> bool:
        with self._lock:
            if rid not in self._records:
                return False
            self._apply("del", rid)
            return True

    def query(self, query: Query, limit: Optional[int] = None) -> list[Record]:
        """All records matching the query (copy-safe)."""
        with self._lock:
            out = []
            for rec in self._candidates(query):
                if query.matches(rec):
                    out.append(dict(rec))
                    if limit is not None and len(out) >= limit:
                        break
            return out

    def count(self, query: Query) -> int:
        with self._lock:
            return sum(1 for rec in self._candidates(query) if query.matches(rec))

    def all_records(self) -> list[Record]:
        with self._lock:
            return [dict(r) for r in self._records.values()]

    def _candidates(self, query: Query) -> Iterator[Record]:
        """Pick the most selective available index for equality terms."""
        eq = query.equality_terms()
        best: Optional[set[str]] = None
        for field, value in eq.items():
            if field == "id":
                rec = self._records.get(value)
                yield from ([rec] if rec is not None else [])
                return
            if field in self._indexes:
                bucket = self._indexes[field].get(value, set())
                if best is None or len(bucket) < len(best):
                    best = bucket
        if best is not None:
            for rid in list(best):
                rec = self._records.get(rid)
                if rec is not None:
                    yield rec
            return
        yield from list(self._records.values())
