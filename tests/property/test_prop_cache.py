"""Property test: a private-mode cache is invisible to the reader.

Random sequences of pread/pwrite/ftruncate are applied to a
:class:`CachedFileHandle` wrapping a local store handle and
to an uncached reference handle on a second copy of the file; every
observable result must match byte-for-byte.  Readahead runs in
synchronous mode so the schedule is deterministic; a tiny block size and
capacity force block splits and LRU evictions constantly, which is where
the bugs would live.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.handle import CachedFileHandle
from repro.cache.manager import CacheManager
from repro.cache.policy import CachePolicy
from repro.chirp.protocol import OpenFlags
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore

BS = 8  # tiny blocks: every multi-byte read crosses boundaries

ops = st.lists(
    st.one_of(
        st.tuples(st.just("pread"), st.integers(0, 80), st.integers(0, 96)),
        st.tuples(st.just("pwrite"), st.binary(max_size=40), st.integers(0, 64)),
        st.tuples(st.just("truncate"), st.integers(0, 64), st.none()),
    ),
    max_size=40,
)


class TestPrivateCacheEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(initial=st.binary(max_size=96), operations=ops)
    def test_cached_reads_match_uncached(self, tmp_path_factory, initial, operations):
        root = tmp_path_factory.mktemp("cachefs")
        fs = StoreFilesystem(LocalDirStore(str(root)))
        fs.write_file("/cached.bin", initial)
        fs.write_file("/plain.bin", initial)

        policy = CachePolicy(
            mode="private",
            block_size=BS,
            capacity_bytes=4 * BS,  # tiny: constant LRU eviction
            readahead_blocks=2,
        )
        cache = CacheManager(policy, synchronous_readahead=True)
        flags = OpenFlags(read=True, write=True)
        cached = CachedFileHandle(fs.open("/cached.bin", flags), cache, "p:/cached.bin")
        plain = fs.open("/plain.bin", flags)
        try:
            for op, a, b in operations:
                if op == "pread":
                    assert cached.pread(a, b) == plain.pread(a, b)
                elif op == "pwrite":
                    assert cached.pwrite(a, b) == plain.pwrite(a, b)
                else:
                    cached.ftruncate(a)
                    plain.ftruncate(a)
            size = plain.fstat().size
            assert cached.pread(size + BS, 0) == plain.pread(size + BS, 0)
        finally:
            cached.close()
            plain.close()
        cache.close()
