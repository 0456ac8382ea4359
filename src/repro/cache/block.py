"""Byte-budgeted, sharded LRU cache of aligned file blocks.

Entries are keyed ``(file_key, block_index)`` where ``file_key`` names
one remote file (``host:port:/server/path`` by convention -- the same
string the metadata cache uses, so one invalidation string covers both).
Only *full* blocks are cached: a short read marks end-of-file at fetch
time, and caching it would turn a later extension of the file into a
false EOF.  The tail block therefore always goes to the server, which
costs one RPC per file and buys a much simpler coherence story.

Concurrency: the map is sharded -- each shard owns an ``OrderedDict``
and its own lock, so readers on different files (or different blocks of
one file) rarely contend.  Invalidation races with in-flight fetches are
closed by per-file *epochs*: a reader samples ``epoch(key)`` before
issuing its RPC and passes it to :meth:`put`; any invalidation bumps the
epoch, so data fetched before a write can never be installed after the
write invalidated the range.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

__all__ = ["BlockCache"]

# Per-key epoch entries above this count collapse into the base value
# (see ``epoch``); bounds the map in long-running clients that touch
# many distinct files, without ever letting a key's epoch go backwards.
_EPOCH_LIMIT = 4096

_MAX_SHARDS = 8


class _Shard:
    __slots__ = ("lock", "entries", "bytes", "budget", "hits", "misses", "inserts", "evictions")

    def __init__(self, budget: int):
        self.lock = threading.Lock()
        self.entries: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self.bytes = 0
        self.budget = budget
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0


class BlockCache:
    """Thread-safe LRU block store with hit/miss/eviction counters."""

    def __init__(self, capacity_bytes: int, block_size: int):
        self.block_size = int(block_size)
        self.capacity_bytes = int(capacity_bytes)
        # Up to 8 shards, none under 8 blocks: a small cache whose keys
        # cluster in one shard must not evict far below its capacity.
        shards = min(_MAX_SHARDS, max(1, self.capacity_bytes // self.block_size // 8))
        # Ceil-divide the budget so the shard sum never undercuts the cap
        # by more than rounding; a single hot shard still evicts locally.
        per_shard = max(self.block_size, (self.capacity_bytes + shards - 1) // shards)
        self._shards = [_Shard(per_shard) for _ in range(shards)]
        self._epoch_lock = threading.Lock()
        # Keys not in the map implicitly sit at ``_epoch_base``.  When the
        # map outgrows _EPOCH_LIMIT it collapses: the base rises to the
        # map's maximum and the map empties.  That only ever *advances* a
        # key's observed epoch, so a stale fetch is still refused (at
        # worst a fresh fetch is refused too -- a harmless re-fetch).
        self._epoch_base = 0
        self._epochs: dict[str, int] = {}
        self._stat_lock = threading.Lock()
        self._stale_puts = 0
        self._invalidated = 0

    # -- epochs ----------------------------------------------------------

    def epoch(self, key: str) -> int:
        """Sample the invalidation epoch for ``key`` (before fetching)."""
        with self._epoch_lock:
            return self._epochs.get(key, self._epoch_base)

    def _bump_epoch(self, key: str) -> None:
        with self._epoch_lock:
            self._epochs[key] = self._epochs.get(key, self._epoch_base) + 1
            if len(self._epochs) > _EPOCH_LIMIT:
                self._epoch_base = max(self._epochs.values())
                self._epochs.clear()

    # -- data path -------------------------------------------------------

    def _shard(self, key: str, index: int) -> _Shard:
        return self._shards[hash((key, index)) % len(self._shards)]

    def get(self, key: str, index: int) -> Optional[bytes]:
        shard = self._shard(key, index)
        with shard.lock:
            data = shard.entries.get((key, index))
            if data is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end((key, index))
            shard.hits += 1
            return data

    def peek(self, key: str, index: int) -> bool:
        """Presence probe that touches neither LRU order nor counters."""
        shard = self._shard(key, index)
        with shard.lock:
            return (key, index) in shard.entries

    def put(self, key: str, index: int, data: bytes, epoch: Optional[int] = None) -> bool:
        """Install one full block; returns False if dropped.

        Short blocks are refused (EOF must never be cached -- see the
        module docstring).  With ``epoch``, the block is dropped -- or
        removed again -- if any invalidation for ``key`` has happened
        since the caller sampled :meth:`epoch`.
        """
        if len(data) != self.block_size:
            return False
        if epoch is not None and self.epoch(key) != epoch:
            with self._stat_lock:
                self._stale_puts += 1
            return False
        shard = self._shard(key, index)
        with shard.lock:
            old = shard.entries.pop((key, index), None)
            if old is not None:
                shard.bytes -= len(old)
            shard.entries[(key, index)] = data
            shard.bytes += len(data)
            shard.inserts += 1
            while shard.bytes > shard.budget and len(shard.entries) > 1:
                _, victim = shard.entries.popitem(last=False)
                shard.bytes -= len(victim)
                shard.evictions += 1
        # Close the sample->fetch->install race: if an invalidation slid
        # in between the epoch check above and the insert, take the
        # entry straight back out.
        if epoch is not None and self.epoch(key) != epoch:
            with shard.lock:
                stale = shard.entries.pop((key, index), None)
                if stale is not None:
                    shard.bytes -= len(stale)
            with self._stat_lock:
                self._stale_puts += 1
            return False
        return True

    # -- invalidation ----------------------------------------------------

    def invalidate_range(self, key: str, offset: int, length: int) -> int:
        """Drop every block overlapping ``[offset, offset+length)``."""
        if length <= 0:
            return 0
        self._bump_epoch(key)
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        dropped = 0
        for index in range(first, last + 1):
            shard = self._shard(key, index)
            with shard.lock:
                data = shard.entries.pop((key, index), None)
                if data is not None:
                    shard.bytes -= len(data)
                    dropped += 1
        if dropped:
            with self._stat_lock:
                self._invalidated += dropped
        return dropped

    def invalidate_file(self, key: str) -> int:
        """Drop every cached block of ``key`` (unlink/truncate/putfile)."""
        self._bump_epoch(key)
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                victims = [k for k in shard.entries if k[0] == key]
                for k in victims:
                    shard.bytes -= len(shard.entries.pop(k))
                dropped += len(victims)
        if dropped:
            with self._stat_lock:
                self._invalidated += dropped
        return dropped

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every block of ``prefix`` itself and of keys under
        ``prefix + "/"`` (directory rename: descendants moved with it).

        Epochs for the affected keys are bumped *before* the sweep so an
        in-flight fetch sampled pre-rename fails :meth:`put`'s re-check
        rather than re-installing a swept block.
        """
        child = prefix + "/"
        keys = {prefix}
        for shard in self._shards:
            with shard.lock:
                keys.update(
                    k[0]
                    for k in shard.entries
                    if k[0] == prefix or k[0].startswith(child)
                )
        for key in keys:
            self._bump_epoch(key)
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                victims = [
                    k
                    for k in shard.entries
                    if k[0] == prefix or k[0].startswith(child)
                ]
                for k in victims:
                    shard.bytes -= len(shard.entries.pop(k))
                dropped += len(victims)
        if dropped:
            with self._stat_lock:
                self._invalidated += dropped
        return dropped

    def clear(self) -> None:
        # Everything is gone, so any in-flight fetch's sampled epoch must
        # read as stale: raise the base past every recorded epoch.
        with self._epoch_lock:
            self._epoch_base = max(self._epochs.values(), default=self._epoch_base) + 1
            self._epochs.clear()
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.bytes = 0

    # -- accounting ------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        return sum(s.bytes for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    def snapshot(self) -> dict:
        hits = misses = inserts = evictions = cached = count = 0
        for shard in self._shards:
            with shard.lock:
                hits += shard.hits
                misses += shard.misses
                inserts += shard.inserts
                evictions += shard.evictions
                cached += shard.bytes
                count += len(shard.entries)
        with self._stat_lock:
            return {
                "hits": hits,
                "misses": misses,
                "inserts": inserts,
                "evictions": evictions,
                "invalidated_blocks": self._invalidated,
                "stale_puts": self._stale_puts,
                "cached_bytes": cached,
                "cached_blocks": count,
                "capacity_bytes": self.capacity_bytes,
                "block_size": self.block_size,
            }
