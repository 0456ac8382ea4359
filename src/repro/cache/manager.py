"""The cache subsystem's front door: one object per client stack.

A :class:`CacheManager` bundles the block cache, the metadata cache and
the readahead fan-out under one :class:`~repro.cache.policy.CachePolicy`,
and exposes a ``snapshot()`` so the whole subsystem appears as the
``cache`` section of ``MetricsRegistry.snapshot()`` (attach with
``metrics.attach_section("cache", manager)`` -- the registry holds it
weakly, so whoever wires the cache must keep a reference, as the adapter
does).

Invalidation helpers take one file's key, the string the block and
metadata caches both file it under.  The keys are minted by
:class:`~repro.cache.fs.CachedFilesystem`, which with the handles it
opens is the only caller.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.cache.block import BlockCache
from repro.cache.meta import MetaCache
from repro.cache.policy import CachePolicy
from repro.transport.fanout import FanoutPool
from repro.util.clock import Clock

__all__ = ["CacheManager"]

#: Threads in the readahead fan-out pool.
READAHEAD_WORKERS = 2


class CacheManager:
    """Shared cache state for one adapter / pool / client stack.

    :param synchronous_readahead: run prefetch tasks inline instead of on
        the fan-out pool -- deterministic mode for tests.
    """

    def __init__(
        self,
        policy: Optional[CachePolicy] = None,
        clock: Optional[Clock] = None,
        synchronous_readahead: bool = False,
    ):
        self.policy = policy or CachePolicy()
        self.blocks = BlockCache(self.policy.capacity_bytes, self.policy.block_size)
        self.meta = MetaCache(clock=clock)
        self.synchronous_readahead = synchronous_readahead
        self._fanout: Optional[FanoutPool] = None
        self._lock = threading.Lock()
        self._ra_windows = 0
        self._ra_blocks = 0
        self._ra_dropped = 0
        self._ra_waits = 0

    # -- mode shortcuts --------------------------------------------------

    @property
    def data_enabled(self) -> bool:
        return self.policy.data_enabled

    @property
    def meta_enabled(self) -> bool:
        return self.policy.meta_enabled

    @property
    def readahead_enabled(self) -> bool:
        return self.policy.readahead_enabled

    # -- invalidation helpers --------------------------------------------

    def invalidate_data(self, key: str) -> None:
        """All blocks + metadata for one file (unlink/truncate/putfile)."""
        self.blocks.invalidate_file(key)
        self.meta.invalidate(key)

    def invalidate_subtree(self, key: str) -> None:
        """A rename moved ``key``, which may be a directory: entries for
        descendants are keyed under the old prefix and would otherwise
        survive to poison a later reuse of the path.  Sweeps blocks and
        metadata for ``key`` and everything under ``key + "/"``."""
        self.blocks.invalidate_prefix(key)
        self.meta.invalidate_prefix(key)

    def on_data_write(self, key: str, offset: int, length: int) -> None:
        """Write-through bookkeeping: a write landed on the server; the
        overlapped blocks and the file's size/times are now stale."""
        self.blocks.invalidate_range(key, offset, length)
        self.meta.invalidate(key)

    # -- readahead plumbing ----------------------------------------------

    def submit_readahead(self, task: Callable[[], int]):
        """Run a prefetch task; returns its Future (None when inline).

        ``task`` returns the number of blocks it installed.  Failures are
        swallowed and counted -- prefetch is advisory, never load-bearing.
        """

        def guarded() -> int:
            try:
                installed = task()
            except Exception:
                with self._lock:
                    self._ra_dropped += 1
                return 0
            with self._lock:
                self._ra_windows += 1
                self._ra_blocks += installed
            return installed

        if self.synchronous_readahead:
            guarded()
            return None
        with self._lock:
            if self._fanout is None:
                self._fanout = FanoutPool(READAHEAD_WORKERS)
            fanout = self._fanout
        return fanout.submit(guarded)

    def note_readahead_wait(self) -> None:
        """A foreground read blocked on an in-flight prefetch window."""
        with self._lock:
            self._ra_waits += 1

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            fanout, self._fanout = self._fanout, None
        if fanout is not None:
            fanout.shutdown()

    def __enter__(self) -> "CacheManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the operator read -----------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            readahead = {
                "windows": self._ra_windows,
                "blocks_prefetched": self._ra_blocks,
                "dropped": self._ra_dropped,
                "foreground_waits": self._ra_waits,
            }
        return {
            "mode": self.policy.mode,
            "block": self.blocks.snapshot(),
            "meta": self.meta.snapshot(),
            "readahead": readahead,
        }
