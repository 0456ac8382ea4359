"""Cache policy: how much consultative state a client may keep.

The paper's TSS "performs no buffering or caching": every ``stat`` and
``pread`` is a fresh RPC, which is what gives the shared DSFS its
Unix-like coherence.  That discipline is the *default* here too.  But the
paper's larger argument -- abstractions composed by unprivileged users on
top of raw servers -- invites exactly this kind of layered policy: a
cache at the abstraction layer that the user opts into when the workload
allows it (*A Generic Storage API* makes the same case for layering
caching and prefetch above a minimal storage interface).

Three modes:

``off``
    No caching anywhere.  Byte-for-byte the paper's semantics; the
    default everywhere.

``private``
    Full data + metadata caching with same-client write-through
    invalidation.  Correct for single-writer stacks -- a CFS scratch
    space or a DPFS, whose metadata is private by construction.  Another
    client's writes are NOT seen until this client's entries are
    invalidated or dropped; do not use on a shared DSFS.

``ttl``
    Bounded-staleness *metadata only* (stat/lstat/dirent, including
    negative entries).  Data reads stay uncached, so file contents keep
    the no-cache coherence guarantee; directory listings and attributes
    may be up to ``meta_ttl`` seconds old.  Safe for a shared DSFS where
    that staleness is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CachePolicy", "CACHE_MODES"]

CACHE_MODES = ("off", "private", "ttl")


@dataclass(frozen=True)
class CachePolicy:
    """Tunables for one :class:`~repro.cache.manager.CacheManager`.

    :param mode: ``off`` | ``private`` | ``ttl`` (see module docstring).
    :param block_size: data cache granularity; reads are served and
        fetched in aligned blocks of this size.
    :param capacity_bytes: byte budget for the block cache (LRU beyond).
    :param meta_ttl: lifetime of positive metadata entries in ``ttl``
        mode; ``private`` entries live until invalidated.
    :param negative_ttl: lifetime of negative (ENOENT) entries.
    :param readahead_blocks: prefetch window, in blocks, fetched ahead of
        a detected sequential reader (0 disables readahead).
    """

    mode: str = "off"
    block_size: int = 64 * 1024
    capacity_bytes: int = 64 * 1024 * 1024
    meta_ttl: float = 2.0
    negative_ttl: float = 1.0
    readahead_blocks: int = 8

    def __post_init__(self):
        if self.mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}, got {self.mode!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.capacity_bytes < self.block_size:
            raise ValueError("capacity_bytes must hold at least one block")
        if self.meta_ttl <= 0 or self.negative_ttl <= 0:
            raise ValueError("TTLs must be positive")
        if self.readahead_blocks < 0:
            raise ValueError("readahead_blocks must be >= 0")

    # -- what the mode permits -----------------------------------------

    @property
    def data_enabled(self) -> bool:
        """May file *contents* be cached?"""
        return self.mode == "private"

    @property
    def meta_enabled(self) -> bool:
        """May stat/lstat/dirent results be cached?"""
        return self.mode in ("private", "ttl")

    @property
    def readahead_enabled(self) -> bool:
        return self.data_enabled and self.readahead_blocks > 0

    def meta_expiry(self) -> float | None:
        """TTL for positive metadata entries (None = until invalidated)."""
        return None if self.mode == "private" else self.meta_ttl

    def negative_expiry(self) -> float | None:
        """TTL for negative entries.

        Negative entries expire even in ``private`` mode: another client
        may create the file, and a bounded window beats indefinite ENOENT
        on a path this client never wrote (its *own* creates invalidate
        promptly).
        """
        return self.negative_ttl
