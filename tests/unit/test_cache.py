"""Unit tests for the client-side cache subsystem.

Covers the block cache (LRU budget, full-block rule, epochs), the
metadata cache (TTL, negatives, LRU bound), the cached handle (span
fetch, readahead, write-through invalidation) and the one decorator
that wires them over any filesystem,
:class:`~repro.cache.fs.CachedFilesystem`, over live CFS, DPFS and DSFS
volumes.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from repro.adapter.adapter import Adapter
from repro.cache.block import BlockCache
from repro.cache.fs import CachedFilesystem
from repro.cache.handle import CachedFileHandle
from repro.cache.manager import CacheManager
from repro.cache.meta import MetaCache
from repro.cache.policy import CachePolicy
from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.dpfs import DPFS
from repro.core.dsfs import DSFS
from repro.core.interface import Filesystem
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore
from repro.util.clock import ManualClock
from repro.util.errors import DoesNotExistError

BS = 16  # tiny blocks keep the tests readable


def block(byte: int, size: int = BS) -> bytes:
    return bytes([byte]) * size


# ----------------------------------------------------------------------
# BlockCache
# ----------------------------------------------------------------------


class TestBlockCache:
    def test_get_put_and_counters(self):
        bc = BlockCache(capacity_bytes=8 * BS, block_size=BS)
        assert bc.get("f", 0) is None
        assert bc.put("f", 0, block(1))
        assert bc.get("f", 0) == block(1)
        snap = bc.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["inserts"] == 1
        assert snap["cached_bytes"] == BS

    def test_short_blocks_are_never_cached(self):
        bc = BlockCache(capacity_bytes=8 * BS, block_size=BS)
        assert not bc.put("f", 0, b"short")
        assert bc.get("f", 0) is None

    def test_lru_eviction_respects_byte_budget(self):
        bc = BlockCache(capacity_bytes=4 * BS, block_size=BS)
        for i in range(6):
            assert bc.put("f", i, block(i))
        assert bc.cached_bytes <= 4 * BS
        snap = bc.snapshot()
        assert snap["evictions"] == 2
        # Oldest blocks went first.
        assert bc.get("f", 0) is None
        assert bc.get("f", 5) == block(5)

    def test_lru_order_follows_access(self):
        bc = BlockCache(capacity_bytes=2 * BS, block_size=BS)
        bc.put("f", 0, block(0))
        bc.put("f", 1, block(1))
        assert bc.get("f", 0) == block(0)  # refresh block 0
        bc.put("f", 2, block(2))  # evicts block 1, not 0
        assert bc.get("f", 0) == block(0)
        assert bc.get("f", 1) is None

    def test_peek_touches_nothing(self):
        bc = BlockCache(capacity_bytes=4 * BS, block_size=BS)
        bc.put("f", 0, block(0))
        before = bc.snapshot()
        assert bc.peek("f", 0)
        assert not bc.peek("f", 9)
        after = bc.snapshot()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_invalidate_range_drops_overlapped_blocks_only(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        for i in range(4):
            bc.put("f", i, block(i))
        # Touch bytes inside blocks 1 and 2.
        dropped = bc.invalidate_range("f", BS + 1, BS)
        assert dropped == 2
        assert bc.get("f", 0) == block(0)
        assert bc.get("f", 1) is None
        assert bc.get("f", 2) is None
        assert bc.get("f", 3) == block(3)

    def test_invalidate_file_is_per_key(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        bc.put("a", 0, block(1))
        bc.put("b", 0, block(2))
        assert bc.invalidate_file("a") == 1
        assert bc.get("a", 0) is None
        assert bc.get("b", 0) == block(2)

    def test_epoch_blocks_stale_install(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        epoch = bc.epoch("f")
        # Fetch was in flight when a write invalidated the file.
        bc.invalidate_range("f", 0, BS)
        assert not bc.put("f", 0, block(9), epoch=epoch)
        assert bc.get("f", 0) is None
        assert bc.snapshot()["stale_puts"] == 1

    def test_put_without_epoch_is_unconditional(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        bc.invalidate_file("f")
        assert bc.put("f", 0, block(3))

    def test_invalidate_prefix_sweeps_descendants_only(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        bc.put("h:1:/a", 0, block(1))
        bc.put("h:1:/a/x", 0, block(2))
        bc.put("h:1:/ab", 0, block(3))  # sibling sharing the prefix string
        stale = bc.epoch("h:1:/a/x")
        assert bc.invalidate_prefix("h:1:/a") == 2
        assert bc.get("h:1:/a", 0) is None
        assert bc.get("h:1:/a/x", 0) is None
        assert bc.get("h:1:/ab", 0) == block(3)
        # Descendant epochs were bumped: an in-flight fetch is refused.
        assert not bc.put("h:1:/a/x", 0, block(2), epoch=stale)

    def test_small_cache_holds_half_its_capacity_whatever_the_keys(self):
        rng = random.Random(7)
        for _ in range(200):
            bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
            keys = rng.sample(range(10**9), 8)
            for k in keys:
                assert bc.put(f"h:1:/{k}", 0, block(1))
            assert bc.snapshot()["evictions"] == 0
            assert all(bc.peek(f"h:1:/{k}", 0) for k in keys)

    def test_epoch_map_is_bounded_and_stays_monotonic(self):
        from repro.cache.block import _EPOCH_LIMIT

        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        stale = bc.epoch("survivor")
        bc.invalidate_file("survivor")
        for i in range(_EPOCH_LIMIT + 10):
            bc.invalidate_file(f"k{i}")
        assert len(bc._epochs) <= _EPOCH_LIMIT
        # Pruning collapses entries into the base but never rolls a key's
        # epoch backwards: the pre-invalidation sample is still refused.
        assert not bc.put("survivor", 0, block(1), epoch=stale)

    def test_clear_refuses_in_flight_puts(self):
        bc = BlockCache(capacity_bytes=16 * BS, block_size=BS)
        stale = bc.epoch("f")
        bc.clear()
        assert not bc.put("f", 0, block(1), epoch=stale)


# ----------------------------------------------------------------------
# MetaCache
# ----------------------------------------------------------------------


class TestMetaCache:
    def test_miss_then_hit(self):
        mc = MetaCache(clock=ManualClock())
        assert mc.get("stat", "k") is MetaCache.MISS
        mc.put("stat", "k", "value", ttl=None)
        assert mc.get("stat", "k") == "value"
        snap = mc.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1

    def test_ttl_expiry_on_manual_clock(self):
        clock = ManualClock()
        mc = MetaCache(clock=clock)
        mc.put("stat", "k", "value", ttl=2.0)
        clock.advance(1.9)
        assert mc.get("stat", "k") == "value"
        clock.advance(0.2)
        assert mc.get("stat", "k") is MetaCache.MISS
        assert mc.snapshot()["expired"] == 1

    def test_negative_entries_expire(self):
        clock = ManualClock()
        mc = MetaCache(clock=clock)
        mc.put_negative("stat", "gone", ttl=1.0)
        assert mc.get("stat", "gone") is MetaCache.NEGATIVE
        assert mc.snapshot()["negative_hits"] == 1
        clock.advance(1.5)
        assert mc.get("stat", "gone") is MetaCache.MISS

    def test_invalidate_covers_every_kind(self):
        mc = MetaCache(clock=ManualClock())
        mc.put("stat", "k", "s", ttl=None)
        mc.put("lstat", "k", "l", ttl=None)
        mc.put("dirent", "k", ("a", "b"), ttl=None)
        mc.invalidate("k")
        for kind in ("stat", "lstat", "dirent"):
            assert mc.get(kind, "k") is MetaCache.MISS
        assert mc.snapshot()["invalidations"] == 3

    def test_entry_bound_evicts_lru(self):
        mc = MetaCache(max_entries=2, clock=ManualClock())
        mc.put("stat", "a", 1, ttl=None)
        mc.put("stat", "b", 2, ttl=None)
        assert mc.get("stat", "a") == 1  # refresh a
        mc.put("stat", "c", 3, ttl=None)
        assert mc.get("stat", "b") is MetaCache.MISS
        assert mc.get("stat", "a") == 1
        assert len(mc) == 2

    def test_generation_refuses_stale_install(self):
        mc = MetaCache(clock=ManualClock())
        gen = mc.generation("k")
        # A same-client mutation invalidated the key mid-fetch.
        mc.invalidate("k")
        mc.put("stat", "k", "pre-mutation", ttl=None, generation=gen)
        assert mc.get("stat", "k") is MetaCache.MISS
        mc.put_negative("stat", "k", ttl=None, generation=gen)
        assert mc.get("stat", "k") is MetaCache.MISS
        assert mc.snapshot()["stale_puts"] == 2

    def test_generation_allows_unraced_install(self):
        mc = MetaCache(clock=ManualClock())
        gen = mc.generation("k")
        mc.put("stat", "k", "fresh", ttl=None, generation=gen)
        assert mc.get("stat", "k") == "fresh"

    def test_invalidate_prefix_sweeps_descendants_only(self):
        mc = MetaCache(clock=ManualClock())
        mc.put("stat", "h:1:/a", 1, ttl=None)
        mc.put("dirent", "h:1:/a", ("x",), ttl=None)
        mc.put("stat", "h:1:/a/x", 2, ttl=None)
        mc.put("stat", "h:1:/ab", 3, ttl=None)
        stale = mc.generation("h:1:/a/x")
        assert mc.invalidate_prefix("h:1:/a") == 3
        assert mc.get("stat", "h:1:/a") is MetaCache.MISS
        assert mc.get("stat", "h:1:/a/x") is MetaCache.MISS
        assert mc.get("stat", "h:1:/ab") == 3
        # Descendant generations were bumped too.
        mc.put("stat", "h:1:/a/x", "stale", ttl=None, generation=stale)
        assert mc.get("stat", "h:1:/a/x") is MetaCache.MISS

    def test_generation_map_is_bounded_and_stays_monotonic(self):
        from repro.cache.meta import _GEN_LIMIT

        mc = MetaCache(clock=ManualClock())
        stale = mc.generation("survivor")
        mc.invalidate("survivor")
        for i in range(_GEN_LIMIT + 10):
            mc.invalidate(f"k{i}")
        assert len(mc._gens) <= _GEN_LIMIT
        mc.put("stat", "survivor", "stale", ttl=None, generation=stale)
        assert mc.get("stat", "survivor") is MetaCache.MISS


# ----------------------------------------------------------------------
# CachePolicy modes
# ----------------------------------------------------------------------


class TestCachePolicy:
    def test_mode_gates(self):
        off = CachePolicy(mode="off")
        assert not off.data_enabled and not off.meta_enabled
        ttl = CachePolicy(mode="ttl")
        assert not ttl.data_enabled and ttl.meta_enabled
        assert not ttl.readahead_enabled
        private = CachePolicy(mode="private")
        assert private.data_enabled and private.meta_enabled
        assert private.readahead_enabled

    def test_expiries(self):
        private = CachePolicy(mode="private", negative_ttl=3.0)
        assert private.meta_expiry() is None  # until invalidated
        assert private.negative_expiry() == 3.0  # negatives always age out
        ttl = CachePolicy(mode="ttl", meta_ttl=5.0)
        assert ttl.meta_expiry() == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicy(mode="bogus")
        with pytest.raises(ValueError):
            CachePolicy(block_size=0)
        with pytest.raises(ValueError):
            CachePolicy(capacity_bytes=1, block_size=64)


# ----------------------------------------------------------------------
# CachedFileHandle over a local filesystem
# ----------------------------------------------------------------------


def make_cached(tmp_path, data: bytes, **policy_kwargs):
    policy_kwargs.setdefault("mode", "private")
    policy_kwargs.setdefault("block_size", BS)
    policy_kwargs.setdefault("capacity_bytes", 64 * BS)
    policy = CachePolicy(**policy_kwargs)
    cache = CacheManager(policy, synchronous_readahead=True)
    fs = StoreFilesystem(LocalDirStore(str(tmp_path)))
    fs.write_file("/data.bin", data)
    inner = fs.open("/data.bin", OpenFlags(read=True, write=True))
    return CachedFileHandle(inner, cache, "local:/data.bin"), cache, fs


class RecordingHandle:
    """Wraps a handle, recording every pread the cache actually issues."""

    def __init__(self, inner):
        self.inner = inner
        self.preads: list[tuple[int, int]] = []

    def pread(self, length, offset, deadline=None):
        self.preads.append((length, offset))
        return self.inner.pread(length, offset)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestCachedFileHandle:
    def test_reads_are_byte_identical(self, tmp_path):
        data = bytes(range(256)) * 4
        handle, cache, _ = make_cached(tmp_path, data)
        with handle:
            assert handle.pread(len(data), 0) == data
            assert handle.pread(7, 3) == data[3:10]
            assert handle.pread(100, len(data) - 5) == data[-5:]
            assert handle.pread(10, len(data) + 50) == b""

    def test_warm_reread_skips_the_server(self, tmp_path):
        data = block(1) * 8  # 8 full blocks, no tail
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=0)
        recorder = RecordingHandle(handle.inner)
        handle.inner = recorder
        with handle:
            assert handle.pread(len(data), 0) == data
            cold_rpcs = len(recorder.preads)
            assert handle.pread(len(data), 0) == data
            # Everything but the (uncacheable) tail probe is served locally.
            assert len(recorder.preads) == cold_rpcs
        assert cache.blocks.snapshot()["hits"] >= 8

    def test_cold_multiblock_read_is_one_span_rpc(self, tmp_path):
        data = block(2) * 8
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=0)
        recorder = RecordingHandle(handle.inner)
        handle.inner = recorder
        with handle:
            handle.pread(4 * BS, 0)
        assert recorder.preads == [(4 * BS, 0)]

    def test_write_through_invalidates_overlap(self, tmp_path):
        data = block(3) * 4
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=0)
        with handle:
            assert handle.pread(len(data), 0) == data
            handle.pwrite(b"XY", BS + 1)
            got = handle.pread(len(data), 0)
        assert got[BS + 1 : BS + 3] == b"XY"
        assert got[:BS] == block(3)

    def test_ftruncate_drops_every_block(self, tmp_path):
        data = block(4) * 4
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=0)
        with handle:
            handle.pread(len(data), 0)
            handle.ftruncate(BS)
            assert handle.pread(len(data), 0) == block(4)

    def test_sequential_reads_trigger_readahead(self, tmp_path):
        data = block(5) * 32
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=4)
        with handle:
            for i in range(8):
                assert handle.pread(BS, i * BS) == block(5)
        snap = cache.snapshot()["readahead"]
        assert snap["windows"] >= 1
        assert snap["blocks_prefetched"] >= 4

    def test_random_reads_do_not_trigger_readahead(self, tmp_path):
        data = block(6) * 32
        handle, cache, _ = make_cached(tmp_path, data, readahead_blocks=4)
        with handle:
            for i in (9, 2, 17, 5, 26, 11):
                handle.pread(BS, i * BS)
        assert cache.snapshot()["readahead"]["windows"] == 0

    def test_writes_drop_the_file_stat(self, tmp_path):
        handle, cache, _ = make_cached(tmp_path, block(7) * 4)
        with handle:
            for write in (lambda: handle.pwrite(b"z", 0), lambda: handle.ftruncate(4)):
                cache.meta.put("stat", handle.key, "stale", None)
                write()
                assert cache.meta.get("stat", handle.key) is MetaCache.MISS

    def test_manager_snapshot_shape(self, tmp_path):
        handle, cache, _ = make_cached(tmp_path, block(8) * 4)
        handle.close()
        snap = cache.snapshot()
        assert snap["mode"] == "private"
        assert set(snap) == {"mode", "block", "meta", "readahead"}
        assert set(snap["readahead"]) == {
            "windows",
            "blocks_prefetched",
            "dropped",
            "foreground_waits",
        }


# ----------------------------------------------------------------------
# Metadata caching over a live CFS
# ----------------------------------------------------------------------


@pytest.fixture()
def caching_cfs(client):
    cache = CacheManager(CachePolicy(mode="private", negative_ttl=30.0))
    yield CachedFilesystem(CFS(client), cache), cache
    cache.close()


class TestClientMetaCaching:
    def test_stat_served_from_cache(self, caching_cfs):
        fs, cache = caching_cfs
        fs.write_file("/f.txt", b"hello")
        st1 = fs.stat("/f.txt")
        st2 = fs.stat("/f.txt")
        assert st1.size == st2.size == 5
        assert cache.meta.snapshot()["hits"] >= 1

    def test_negative_stat_cached_until_created(self, caching_cfs):
        fs, cache = caching_cfs
        with pytest.raises(DoesNotExistError):
            fs.stat("/nope.txt")
        with pytest.raises(DoesNotExistError) as excinfo:
            fs.stat("/nope.txt")
        assert "cached" in str(excinfo.value)
        # Creating the file invalidates the negative entry at once.
        fs.write_file("/nope.txt", b"x")
        assert fs.stat("/nope.txt").size == 1

    def test_own_writes_invalidate_metadata(self, caching_cfs):
        fs, cache = caching_cfs
        fs.write_file("/grow.txt", b"ab")
        assert fs.stat("/grow.txt").size == 2
        with fs.open("/grow.txt", OpenFlags(write=True)) as h:
            h.pwrite(b"abcd", 0)
        assert fs.stat("/grow.txt").size == 4

    def test_getdir_cached_and_invalidated_by_membership(self, caching_cfs):
        fs, cache = caching_cfs
        fs.mkdir("/d")
        fs.write_file("/d/one", b"1")
        assert fs.listdir("/d") == ["one"]
        assert fs.listdir("/d") == ["one"]
        assert cache.meta.snapshot()["hits"] >= 1
        fs.write_file("/d/two", b"2")
        assert sorted(fs.listdir("/d")) == ["one", "two"]
        fs.unlink("/d/one")
        assert fs.listdir("/d") == ["two"]

    def test_rename_invalidates_both_names(self, caching_cfs):
        fs, cache = caching_cfs
        fs.write_file("/old.txt", b"abc")
        assert fs.stat("/old.txt").size == 3
        with pytest.raises(DoesNotExistError):
            fs.stat("/new.txt")
        fs.rename("/old.txt", "/new.txt")
        assert fs.stat("/new.txt").size == 3
        with pytest.raises(DoesNotExistError):
            fs.stat("/old.txt")

    def test_directory_rename_sweeps_descendant_entries(self, caching_cfs):
        # rename A->B then C->A: entries cached under /A must not survive
        # to describe the *old* children once the path is reused.
        fs, cache = caching_cfs
        fs.mkdir("/src")
        fs.write_file("/src/f", b"old")
        assert fs.stat("/src/f").size == 3
        assert fs.listdir("/src") == ["f"]
        fs.mkdir("/other")
        fs.write_file("/other/f", b"fresh-longer")
        fs.write_file("/other/g", b"x")
        fs.rename("/src", "/gone")
        fs.rename("/other", "/src")
        assert fs.stat("/src/f").size == 12
        assert sorted(fs.listdir("/src")) == ["f", "g"]

    def test_mkdir_rmdir_invalidate_metadata(self, caching_cfs):
        fs, cache = caching_cfs
        with pytest.raises(DoesNotExistError):
            fs.stat("/d")  # caches the absence
        fs.mkdir("/d")
        assert fs.stat("/d").mode  # negative entry was dropped
        fs.rmdir("/d")
        with pytest.raises(DoesNotExistError):
            fs.stat("/d")

    def test_uncached_client_unaffected(self, client):
        # The client caches nothing; plain operation still works.
        client.putfile("/plain.txt", b"xyz")
        assert client.stat("/plain.txt").size == 3


# ----------------------------------------------------------------------
# Stub-filesystem stat coherence (DPFS over a live server)
# ----------------------------------------------------------------------


@pytest.fixture()
def caching_dpfs(file_server, pool, tmp_path):
    cache = CacheManager(CachePolicy(mode="private", negative_ttl=300.0))
    dpfs = DPFS.create(str(tmp_path / "meta"), pool, [file_server.address], name="vol")
    yield CachedFilesystem(dpfs, cache)
    cache.close()


class TestStubfsMetaCoherence:
    def test_rmdir_invalidates_cached_dir_stat(self, caching_dpfs):
        fs = caching_dpfs
        fs.mkdir("/d")
        assert fs.stat("/d").is_dir  # now cached
        fs.rmdir("/d")
        with pytest.raises(DoesNotExistError):
            fs.stat("/d")

    def test_mkdir_invalidates_negative_stat(self, caching_dpfs):
        fs = caching_dpfs
        with pytest.raises(DoesNotExistError):
            fs.stat("/later")  # caches the absence
        fs.mkdir("/later")
        assert fs.stat("/later").is_dir

    def test_directory_rename_sweeps_descendant_stats(self, caching_dpfs):
        fs = caching_dpfs
        fs.mkdir("/a")
        fs.write_file("/a/f", b"old")
        assert fs.stat("/a/f").size == 3  # cached under /a/f's key
        fs.mkdir("/c")
        fs.write_file("/c/f", b"fresh-longer")
        assert fs.stat("/c/f").size == 12
        fs.rename("/a", "/b")
        fs.rename("/c", "/a")
        assert fs.stat("/a/f").size == 12
        assert fs.stat("/b/f").size == 3


# ----------------------------------------------------------------------
# One set of rules over CFS, DPFS and DSFS, in both metadata modes
# ----------------------------------------------------------------------

META_TTL = 5.0


class Stack(NamedTuple):
    cached: CachedFilesystem
    plain: Filesystem  # an uncached view of the same volume
    tree: Filesystem  # where the directories live, uncached
    clock: ManualClock


@pytest.fixture(
    params=[(k, m) for k in ("cfs", "dpfs", "dsfs") for m in ("private", "ttl")],
    ids=lambda p: "-".join(p),
)
def stack(request, file_server, pool, tmp_path):
    kind, mode = request.param
    address = file_server.address
    if kind == "cfs":
        def view():
            return CFS(pool.get(*address))
    elif kind == "dpfs":
        meta_root = str(tmp_path / "meta")
        DPFS.create(meta_root, pool, [address], name="vol")

        def view():
            return DPFS.open_volume(meta_root, pool)
    else:
        DSFS.create(pool, *address, "/vol", [address], name="vol")

        def view():
            return DSFS.open_volume(pool, *address, "/vol")
    clock = ManualClock()
    policy = CachePolicy(mode=mode, meta_ttl=META_TTL, negative_ttl=META_TTL)
    cache = CacheManager(policy, clock=clock)
    plain = view()
    yield Stack(CachedFilesystem(view(), cache), plain, getattr(plain, "meta", plain), clock)
    cache.close()


class TestCachedFilesystemCoherence:
    @pytest.mark.parametrize("change", ["mkdir", "write_file", "unlink"])
    def test_parent_stat_follows_a_change_inside_it(self, stack, change):
        fs = stack.cached
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        # Backdate the directory behind the cache's back, then cache it.
        stack.tree.utime("/d", 1000, 1000)
        assert fs.stat("/d").mtime == 1000
        if change == "mkdir":
            fs.mkdir("/d/sub")
        elif change == "write_file":
            fs.write_file("/d/g", b"y")
        else:
            fs.unlink("/d/f")
        got, want = fs.stat("/d"), stack.tree.stat("/d")
        assert want.mtime != 1000
        assert (got.nlink, got.mtime) == (want.nlink, want.mtime)

    @pytest.mark.parametrize("write", ["pwrite", "ftruncate"])
    def test_own_handle_write_shows_in_the_next_stat(self, stack, write):
        fs = stack.cached
        fs.write_file("/f", b"ab")
        assert fs.stat("/f").size == 2
        with fs.open("/f", OpenFlags(read=True, write=True)) as h:
            if write == "pwrite":
                h.pwrite(b"abcdef", 0)
            else:
                h.ftruncate(6)
            assert fs.stat("/f").size == 6
        assert stack.plain.stat("/f").size == 6

    @pytest.mark.parametrize(
        "stack", [(k, "ttl") for k in ("cfs", "dpfs", "dsfs")], indirect=True,
        ids=lambda p: "-".join(p),
    )
    def test_other_clients_change_shows_after_meta_ttl(self, stack):
        fs = stack.cached
        fs.write_file("/f", b"ab")
        assert fs.stat("/f").size == 2
        stack.plain.write_file("/f", b"abcdef")  # another client, uncached
        stack.clock.advance(META_TTL - 0.5)
        assert fs.stat("/f").size == 2  # bounded staleness, by contract
        stack.clock.advance(1.0)
        assert fs.stat("/f").size == 6


class TestAdapterCaching:
    @pytest.mark.parametrize("mode", ["private", "ttl"])
    def test_auto_namespaces_see_own_changes(self, file_server, pool, credentials, mode):
        host, port = file_server.address
        DSFS.create(pool, host, port, "/vol", [(host, port)], name="vol")
        cached = Adapter(credentials=credentials, cache_policy=CachePolicy(mode=mode))
        plain = Adapter(credentials=credentials)

        def assert_fresh(path):
            got, want = cached.stat(path), plain.stat(path)
            assert (got.st_nlink, got.st_mtime, got.st_size) == (
                want.st_nlink, want.st_mtime, want.st_size
            )

        with cached, plain:
            for base in (f"/cfs/{host}:{port}", f"/dsfs/{host}:{port}@vol"):
                assert isinstance(cached.resolve(base + "/d")[0], CachedFilesystem)
                cached.mkdir(base + "/d")
                assert_fresh(base + "/d")
                cached.mkdir(base + "/d/sub")
                assert_fresh(base + "/d")
                cached.write_bytes(base + "/d/f", b"ab")
                assert_fresh(base + "/d/f")
                with cached.open(base + "/d/f", "r+b") as fh:
                    fh.write(b"abcdef")
                assert_fresh(base + "/d/f")
