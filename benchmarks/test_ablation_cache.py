"""Ablation: what does the client-side cache buy over a slow link?

The paper's TSS caches nothing, which is the right default for shared
volumes -- and leaves performance on the table for single-writer ones.
This ablation measures the cache subsystem over a ~1 ms loopback link
(the fault-injection proxy adds per-chunk latency in both directions):

- **warm reread**: a file read twice through a ``private``-mode cache;
  the second pass must not touch the wire at all,
- **sequential readahead**: a block-at-a-time sequential scan with the
  prefetch pipeline on vs off; the window fetches overlap the reader's
  consumption, so the scan approaches one round trip per *window*
  instead of one per block.

Criteria (DESIGN.md shape rules, not absolute numbers): warm reread at
least 5x faster than the uncached read; readahead at least 1.5x faster
than the same cache without readahead.

Set ``CACHE_BENCH_QUICK=1`` for the CI smoke configuration (smaller file,
same assertions).  Results land in ``benchmarks/results/BENCH_cache.json``.
"""

from __future__ import annotations

import getpass
import json
import os
import time

import pytest

from repro.auth.methods import AuthContext, ClientCredentials
from repro.cache.fs import CachedFilesystem
from repro.cache.manager import CacheManager
from repro.cache.policy import CachePolicy
from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.chirp.server import FileServer, ServerConfig
from repro.core.cfs import CFS
from repro.transport.faults import FaultPlan, FaultScript, FaultyListener

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

QUICK = bool(os.environ.get("CACHE_BENCH_QUICK"))

LINK_LATENCY = 0.001  # seconds added per forwarded chunk, each direction
BLOCK = 16 * 1024  # cache blocks; several per proxy chunk
FILE_BLOCKS = 32 if QUICK else 96  # sequential-scan file size, in blocks


@pytest.fixture(scope="module")
def slow_link(tmp_path_factory):
    """A live file server reachable only through a ~1 ms/chunk proxy."""
    tmp = tmp_path_factory.mktemp("cachebench")
    (tmp / "export").mkdir()
    challenge = tmp / "challenge"
    challenge.mkdir()
    auth = AuthContext(enabled=("unix",), unix_challenge_dir=str(challenge))
    server = FileServer(
        ServerConfig(
            root=str(tmp / "export"), owner=f"unix:{getpass.getuser()}", auth=auth
        )
    ).start()
    proxy = FaultyListener(
        server.address, FaultPlan(default=FaultScript(latency=LINK_LATENCY))
    ).start()
    seed = ChirpClient(
        *server.address, credentials=ClientCredentials(methods=("unix",))
    )
    data = bytes(i % 251 for i in range(FILE_BLOCKS * BLOCK))
    seed.putfile("/scan.bin", data)
    seed.close()
    yield {"proxy": proxy, "data": data, "server": server}
    proxy.stop()
    server.stop()


def open_stack(slow_link, policy: CachePolicy | None):
    """A CFS over the proxied link, optionally cached."""
    client = ChirpClient(
        *slow_link["proxy"].address, credentials=ClientCredentials(methods=("unix",))
    )
    if policy is None:
        return CFS(client), client, None
    cache = CacheManager(policy)
    return CachedFilesystem(CFS(client), cache), client, cache


def timed_read(fs, length: int, chunk: int) -> float:
    """Scan ``/scan.bin`` front to back in ``chunk``-sized preads."""
    start = time.perf_counter()
    with fs.open("/scan.bin", OpenFlags(read=True)) as h:
        offset = 0
        while offset < length:
            got = h.pread(chunk, offset)
            if not got:
                break
            offset += len(got)
    assert offset == length
    return time.perf_counter() - start


class TestCacheAblation:
    def test_warm_reread_and_readahead(self, slow_link, figure):
        data = slow_link["data"]
        results: dict = {"link_latency_s": LINK_LATENCY, "quick": QUICK}

        # -- uncached baseline: every byte crosses the slow link twice --
        fs, client, _ = open_stack(slow_link, None)
        uncached_1 = timed_read(fs, len(data), BLOCK)
        uncached_2 = timed_read(fs, len(data), BLOCK)
        client.close()
        uncached = min(uncached_1, uncached_2)

        # -- private cache, readahead off: warm pass is local ------------
        no_ra = CachePolicy(
            mode="private",
            block_size=BLOCK,
            capacity_bytes=4 * len(data),
            readahead_blocks=0,
        )
        fs, client, cache = open_stack(slow_link, no_ra)
        cold_no_ra = timed_read(fs, len(data), BLOCK)
        warm = timed_read(fs, len(data), BLOCK)
        warm_hits = cache.blocks.snapshot()["hits"]
        client.close()
        cache.close()

        # -- private cache, readahead on: cold scan is pipelined ---------
        with_ra = CachePolicy(
            mode="private",
            block_size=BLOCK,
            capacity_bytes=4 * len(data),
            readahead_blocks=8,
        )
        fs, client, cache = open_stack(slow_link, with_ra)
        cold_ra = timed_read(fs, len(data), BLOCK)
        ra_stats = cache.snapshot()["readahead"]
        client.close()
        cache.close()

        results.update(
            uncached_s=uncached,
            cold_no_readahead_s=cold_no_ra,
            warm_s=warm,
            cold_readahead_s=cold_ra,
            warm_speedup=uncached / warm,
            readahead_speedup=cold_no_ra / cold_ra,
            readahead=ra_stats,
        )

        report = figure("BENCH cache", "Client cache over a 1 ms/chunk link")
        report.header(f"sequential {len(data) >> 10} KiB scan, {BLOCK >> 10} KiB reads")
        report.row(f"uncached             {uncached * 1e3:9.1f} ms")
        report.row(f"cold, no readahead   {cold_no_ra * 1e3:9.1f} ms")
        report.row(f"cold, readahead x8   {cold_ra * 1e3:9.1f} ms")
        report.row(f"warm reread          {warm * 1e3:9.1f} ms")
        report.row(f"warm speedup         {uncached / warm:9.1f} x")
        report.row(f"readahead speedup    {cold_no_ra / cold_ra:9.1f} x")
        report.series("cache_ablation", results)

        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_cache.json"), "w") as f:
            json.dump(results, f, indent=2)

        # The warm pass touched the wire for nothing but open/close.
        assert warm_hits >= FILE_BLOCKS
        assert uncached / warm >= 5.0, f"warm reread only {uncached / warm:.1f}x"
        assert cold_no_ra / cold_ra >= 1.5, (
            f"readahead only {cold_no_ra / cold_ra:.2f}x"
        )
