"""A consultative caching wrapper around any abstraction handle.

:class:`CachedFileHandle` interposes between the application-facing
layers (:class:`~repro.adapter.fileobj.AdapterFile`, ``read_file`` loops)
and a real handle (normally a
:class:`~repro.core.cfs.ChirpFileHandle`).  Reads are served from the
shared :class:`~repro.cache.block.BlockCache` in aligned blocks; misses
are fetched as one contiguous ranged ``pread`` spanning every missing
block, so a cold multi-block read still costs one RPC.  Writes go
straight through to the server -- the handle adds *no* write buffering,
keeping the paper's ordering guarantee -- and then invalidate the
overlapped blocks plus the file's cached metadata
(:class:`WriteThroughHandle`, which is also the whole handle when only
metadata is cached).

Sequential readahead: the handle watches its own read offsets; once
``READAHEAD_MIN_RUN`` consecutive sequential reads are seen, it keeps a
prefetch frontier ``readahead_blocks`` ahead of the reader, fetching each
window as a single ranged ``pread`` on the fan-out pool.  A foreground
miss that lands inside an in-flight window waits for that window rather
than duplicating the RPC.  Prefetch is advisory: any failure is counted
and swallowed, and per-file epochs (see the block cache) guarantee a
window fetched before a write can never be installed after it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.cache.manager import CacheManager
from repro.chirp.protocol import ChirpStat
from repro.core.interface import FileHandle

__all__ = ["CachedFileHandle", "WriteThroughHandle"]

#: Largest contiguous miss fetched as one RPC (bounds per-read memory).
_MAX_SPAN_BLOCKS = 32

#: How long a foreground read will wait on an in-flight prefetch window
#: before giving up and fetching for itself.
_INFLIGHT_WAIT = 60.0

#: Consecutive sequential reads seen before prefetch starts.
READAHEAD_MIN_RUN = 2


class WriteThroughHandle(FileHandle):
    """An inner handle whose writes drop the file's cached entries.

    Reads pass straight through.  A ``pwrite`` invalidates the blocks
    it overlapped and the file's metadata (its size and times moved);
    an ``ftruncate`` drops every block.  Used alone for writable
    handles when only metadata is cached (``ttl``), so a client's own
    writes show in its next ``stat``.

    :param inner: the real handle; owns recovery and ordering.
    :param cache: the stack's shared :class:`CacheManager`.
    :param key: the file's cache key.
    """

    def __init__(self, inner: FileHandle, cache: CacheManager, key: str):
        self.inner = inner
        self.cache = cache
        self.key = key

    def _inner_pread(self, length: int, offset: int, deadline=None) -> bytes:
        if deadline is None:
            return self.inner.pread(length, offset)
        return self.inner.pread(length, offset, deadline=deadline)

    def pread(self, length: int, offset: int, deadline=None) -> bytes:
        return self._inner_pread(length, offset, deadline)

    def pwrite(self, data: bytes, offset: int) -> int:
        n = self.inner.pwrite(data, offset)
        if n:
            self.cache.on_data_write(self.key, offset, n)
        return n

    def ftruncate(self, size: int) -> None:
        self.inner.ftruncate(size)
        self.cache.invalidate_data(self.key)

    def fsync(self) -> None:
        self.inner.fsync()

    def fstat(self) -> ChirpStat:
        return self.inner.fstat()

    def close(self) -> None:
        # A prefetch still in flight then fails harmlessly (counted as
        # dropped); nothing to cancel explicitly.
        self.inner.close()


class CachedFileHandle(WriteThroughHandle):
    """Block-cached, readahead-capable view of an inner handle."""

    def __init__(self, inner: FileHandle, cache: CacheManager, key: str):
        super().__init__(inner, cache, key)
        self._bs = cache.policy.block_size
        self._det_lock = threading.Lock()
        self._expected: Optional[int] = None  # next sequential offset
        self._run = 0  # consecutive sequential reads
        self._ra_next: Optional[int] = None  # prefetch frontier (block index)
        self._ra_eof = False  # a prefetch already hit EOF; stop scheduling
        self._inflight: dict[int, tuple[int, object]] = {}  # start -> (count, future)

    # -- read path -------------------------------------------------------

    def pread(self, length: int, offset: int, deadline=None) -> bytes:
        if length <= 0 or offset < 0:
            return self._inner_pread(length, offset, deadline)
        bs = self._bs
        blocks = self.cache.blocks
        last_wanted = (offset + length - 1) // bs
        parts: list[bytes] = []
        got = 0
        while got < length:
            pos = offset + got
            index = pos // bs
            data = blocks.get(self.key, index)
            if data is None:
                data = self._wait_inflight(index)
            if data is None:
                data = self._fetch_span(index, last_wanted, deadline)
            start = pos - index * bs
            take = data[start : start + (length - got)]
            parts.append(take)
            got += len(take)
            if len(data) < bs:
                break  # EOF falls inside this block
            if not take:
                break  # defensive: no forward progress
        result = parts[0] if len(parts) == 1 else b"".join(parts)
        self._note_read(offset, len(result))
        return result

    def _fetch_span(self, first: int, last_wanted: int, deadline=None) -> bytes:
        """Fetch the contiguous run of missing blocks starting at ``first``
        with one ranged read; install the full blocks; return the first
        block's data (short at EOF)."""
        blocks = self.cache.blocks
        count = 1
        while (
            first + count <= last_wanted
            and count < _MAX_SPAN_BLOCKS
            and not blocks.peek(self.key, first + count)
            and self._find_inflight(first + count) is None
        ):
            count += 1
        epoch = blocks.epoch(self.key)
        data = self._inner_pread(count * self._bs, first * self._bs, deadline)
        for i in range(len(data) // self._bs):
            blocks.put(
                self.key, first + i, data[i * self._bs : (i + 1) * self._bs], epoch=epoch
            )
        return data[: self._bs]

    # -- readahead -------------------------------------------------------

    def _find_inflight(self, index: int):
        with self._det_lock:
            for start, (count, future) in self._inflight.items():
                if start <= index < start + count:
                    return future
        return None

    def _wait_inflight(self, index: int) -> Optional[bytes]:
        future = self._find_inflight(index)
        if future is None:
            return None
        self.cache.note_readahead_wait()
        try:
            future.result(timeout=_INFLIGHT_WAIT)
        except Exception:
            return None
        return self.cache.blocks.get(self.key, index)

    def _note_read(self, offset: int, nbytes: int) -> None:
        if not self.cache.readahead_enabled:
            return
        policy = self.cache.policy
        schedule: Optional[tuple[int, int]] = None
        with self._det_lock:
            if self._expected is not None and offset == self._expected:
                self._run += 1
            else:
                self._run = 1
                self._ra_next = None
                self._ra_eof = False
            self._expected = offset + nbytes
            if self._run < READAHEAD_MIN_RUN or self._ra_eof:
                return
            cursor = self._expected // self._bs  # block the next read needs
            if self._ra_next is None or self._ra_next < cursor:
                self._ra_next = cursor
            # Keep the frontier at most one window ahead of the reader;
            # beyond that the reader is being out-run, not helped.
            if self._ra_next - cursor < policy.readahead_blocks:
                schedule = (self._ra_next, policy.readahead_blocks)
                self._ra_next += policy.readahead_blocks
        if schedule is None:
            return
        start, count = schedule
        epoch = self.cache.blocks.epoch(self.key)
        future = self.cache.submit_readahead(
            lambda: self._prefetch(start, count, epoch)
        )
        if future is not None:
            with self._det_lock:
                self._inflight[start] = (count, future)
            future.add_done_callback(lambda _f: self._drop_inflight(start))

    def _drop_inflight(self, start: int) -> None:
        with self._det_lock:
            self._inflight.pop(start, None)

    def _prefetch(self, start: int, count: int, epoch: int) -> int:
        data = self._inner_pread(count * self._bs, start * self._bs)
        installed = 0
        for i in range(len(data) // self._bs):
            if self.cache.blocks.put(
                self.key, start + i, data[i * self._bs : (i + 1) * self._bs], epoch=epoch
            ):
                installed += 1
        if len(data) < count * self._bs:
            with self._det_lock:
                self._ra_eof = True
        return installed

    # -- write path (write-through + invalidate) -------------------------

    def _mutated(self) -> None:
        # The file may have grown past a prefetch that hit EOF.
        with self._det_lock:
            self._ra_eof = False

    def pwrite(self, data: bytes, offset: int) -> int:
        n = super().pwrite(data, offset)
        self._mutated()
        return n

    def ftruncate(self, size: int) -> None:
        super().ftruncate(size)
        self._mutated()
