"""TTL metadata cache: stat/lstat/dirent results, including absences.

One entry caches the result of one metadata RPC under ``(kind, key)``
where ``kind`` is ``"stat"``, ``"lstat"`` or ``"dirent"`` and ``key`` is
the same file-key string the block cache uses.  A *negative* entry
records that the path did not exist -- the ``exists()`` probes that
dominate metadata traffic (the paper's Fig. 3 syscall table) hit those
just as hard as positive stats.

Entries carry an absolute expiry (``None`` = live until invalidated, the
``private`` mode) measured on an injectable clock, so TTL tests step a
:class:`~repro.util.clock.ManualClock` instead of sleeping.  The map is
LRU-bounded by entry count; metadata results are small, so a count bound
is an adequate byte bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.util.clock import Clock, MonotonicClock

__all__ = ["MetaCache"]

KINDS = ("stat", "lstat", "dirent")

# Per-key generation entries above this count collapse into the base
# value (see ``generation``); bounds the map without ever letting a
# key's generation go backwards.
_GEN_LIMIT = 4096


class MetaCache:
    """Thread-safe TTL+LRU cache of metadata results.

    :meth:`get` returns :data:`MetaCache.MISS`, :data:`MetaCache.NEGATIVE`,
    or the cached value.  The sentinels are class attributes so callers
    compare by identity.
    """

    MISS = object()
    NEGATIVE = object()

    def __init__(self, max_entries: int = 4096, clock: Optional[Clock] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.clock = clock or MonotonicClock()
        self._lock = threading.Lock()
        # (kind, key) -> (value | NEGATIVE, expires_at | None)
        self._entries: OrderedDict[tuple[str, str], tuple[object, Optional[float]]] = (
            OrderedDict()
        )
        # Invalidation generations close the fetch/invalidate race the
        # same way BlockCache epochs do: a reader samples generation(key)
        # before its RPC and passes it to put(); any invalidation of the
        # key bumps the generation, so a pre-mutation result can never be
        # installed after the mutation invalidated the entry.  Keys not
        # in the map implicitly sit at ``_gen_base``; pruning raises the
        # base to the map's maximum, which only ever *advances* a key's
        # generation (false-positive staleness, never a stale install).
        self._gen_base = 0
        self._gens: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.expired = 0
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_puts = 0

    def generation(self, key: str) -> int:
        """Sample the invalidation generation for ``key`` (before fetching)."""
        with self._lock:
            return self._gens.get(key, self._gen_base)

    def _bump_generation_locked(self, key: str) -> None:
        self._gens[key] = self._gens.get(key, self._gen_base) + 1
        if len(self._gens) > _GEN_LIMIT:
            self._gen_base = max(self._gens.values())
            self._gens.clear()

    def get(self, kind: str, key: str):
        now = self.clock.now()
        with self._lock:
            entry = self._entries.get((kind, key))
            if entry is None:
                self.misses += 1
                return MetaCache.MISS
            value, expires = entry
            if expires is not None and now >= expires:
                del self._entries[(kind, key)]
                self.expired += 1
                self.misses += 1
                return MetaCache.MISS
            self._entries.move_to_end((kind, key))
            if value is MetaCache.NEGATIVE:
                self.negative_hits += 1
            else:
                self.hits += 1
            return value

    def put(
        self,
        kind: str,
        key: str,
        value,
        ttl: Optional[float],
        generation: Optional[int] = None,
    ) -> None:
        """Install one result.  With ``generation``, the entry is dropped
        when any invalidation of ``key`` has happened since the caller
        sampled :meth:`generation` -- the fetch raced a mutation and its
        result predates the server's current state."""
        expires = None if ttl is None else self.clock.now() + ttl
        with self._lock:
            if (
                generation is not None
                and self._gens.get(key, self._gen_base) != generation
            ):
                self.stale_puts += 1
                return
            self._entries.pop((kind, key), None)
            self._entries[(kind, key)] = (value, expires)
            self.inserts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def put_negative(
        self,
        kind: str,
        key: str,
        ttl: Optional[float],
        generation: Optional[int] = None,
    ) -> None:
        self.put(kind, key, MetaCache.NEGATIVE, ttl, generation=generation)

    def invalidate(self, key: str) -> None:
        """Drop every kind of entry for ``key``."""
        with self._lock:
            self._bump_generation_locked(key)
            for kind in KINDS:
                if self._entries.pop((kind, key), None) is not None:
                    self.invalidations += 1

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop ``prefix`` itself and every key under ``prefix + "/"``.

        Directory renames strand descendant entries under the old name;
        this sweeps them (both sides of the rename call it) so a later
        reuse of the path can never serve a pre-rename result.
        """
        child = prefix + "/"
        with self._lock:
            victims = [
                k for k in self._entries if k[1] == prefix or k[1].startswith(child)
            ]
            for k in victims:
                del self._entries[k]
            self.invalidations += len(victims)
            for key in {prefix, *(k[1] for k in victims)}:
                self._bump_generation_locked(key)
        return len(victims)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gen_base = max(self._gens.values(), default=self._gen_base) + 1
            self._gens.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "negative_hits": self.negative_hits,
                "expired": self.expired,
                "inserts": self.inserts,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_puts": self.stale_puts,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }
