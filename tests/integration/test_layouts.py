"""Replicated, striped and versioned files as layouts of the one stub engine.

Each layout keeps its stub codec and handle; the create protocol, the
lookup and failover are the engine's.  These tests pin what that buys:
the stub bytes on disk are exactly what volumes already hold, a create
skips servers it found dead, a metadata blip
never passes for a missing file, and a version history longer than one
lookup carries still reads.
"""

from __future__ import annotations

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.placement import RandomPlacement
from repro.core.replfs import MultiStub, ReplicatedFS
from repro.core.stripefs import StripedFS, StripeStub
from repro.core.stubs import STUB_MAX_BYTES, Stub
from repro.core.versionfs import Version, VersionedFS, VersionStub
from repro.transport.recovery import RetryPolicy
from repro.util.errors import DisconnectedError

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)

# Every stub kind, and the exact bytes existing volumes hold for it.
GOLDEN = {
    "stub": (
        Stub("h", 9094, "/tssdata/v/f1"),
        b'{"host": "h", "path": "/tssdata/v/f1", "port": 9094, "tss": "stub", "v": 1}\n',
    ),
    "rstub": (
        MultiStub((("a", 1, "/p1"), ("b", 2, "/p2"))),
        b'{"locations": [["a", 1, "/p1"], ["b", 2, "/p2"]], "tss": "rstub", "v": 1}\n',
    ),
    "sstub": (
        StripeStub(4096, (("a", 1, "/s0"), ("b", 2, "/s1"))),
        b'{"locations": [["a", 1, "/s0"], ["b", 2, "/s1"]], "stripe_size": 4096,'
        b' "tss": "sstub", "v": 1}\n',
    ),
    "vstub": (
        VersionStub((Version(1, "h", 1, "/v1", 100.0), Version(2, "h", 1, "/v2", 200.5))),
        b'{"tss": "vstub", "v": 1, "versions": [[1, "h", 1, "/v1", 100.0],'
        b' [2, "h", 1, "/v2", 200.5]]}\n',
    ),
}


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_stub_bytes_are_the_on_disk_format(kind):
    stub, raw = GOLDEN[kind]
    assert stub.encode() == raw
    assert type(stub).decode(raw) == stub


def make_volume(server_factory, pool, n_data: int, name: str):
    """``n_data`` data servers with ``/tssdata/<name>``, and the metadata
    store of a volume rooted at ``/<name>`` on a separate server."""
    servers = [server_factory.new() for _ in range(n_data)]
    dir_client = pool.get(*server_factory.new().address)
    dir_client.mkdir(f"/{name}")
    for s in servers:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir(f"/tssdata/{name}")
    return servers, CFS(dir_client, f"/{name}", FAST)


class TestCreateAroundADeadServer:
    def test_replicated_create_remembers_dead_servers(self, server_factory, pool):
        """Two live servers hold two copies; every create must find them,
        whatever placement draws first."""
        servers, meta = make_volume(server_factory, pool, 3, "r")
        fs = ReplicatedFS(
            meta, pool, [s.address for s in servers], "/tssdata/r",
            copies=2, placement=RandomPlacement(seed=7), policy=FAST,
        )
        servers[0].stop()
        live = {s.address for s in servers[1:]}
        for i in range(40):
            fs.write_file(f"/f{i}", b"copy %d" % i)
        for i in range(40):
            assert {(h, p) for h, p, _ in fs.stub_for(f"/f{i}").locations} == live
            assert fs.read_file(f"/f{i}") == b"copy %d" % i

    def test_striped_create_places_and_retries(self, server_factory, pool):
        servers, meta = make_volume(server_factory, pool, 4, "s")
        fs = StripedFS(
            meta, pool, [s.address for s in servers], "/tssdata/s",
            stripe_size=16, stripes=2, policy=FAST,
        )
        servers[1].stop()
        live = {s.address for s in servers} - {servers[1].address}
        data = bytes(range(100))
        for i in range(8):
            fs.write_file(f"/f{i}", data)
        for i in range(8):
            placed = {(h, p) for h, p, _ in fs.stub_for(f"/f{i}").locations}
            assert len(placed) == 2 and placed <= live
            assert fs.read_file(f"/f{i}") == data


class BlippingStore(CFS):
    """A directory server whose next ``blips`` stub reads fail on the wire."""

    blips = 0

    def _blip(self) -> None:
        if self.blips:
            self.blips -= 1
            raise DisconnectedError("metadata server blip")

    def read_file(self, path: str) -> bytes:
        self._blip()
        return super().read_file(path)

    def stat_read(self, path: str, limit: int):
        self._blip()
        return super().stat_read(path, limit)


class TestVersionedLookup:
    @pytest.fixture()
    def vfs(self, server_factory, pool):
        servers, meta = make_volume(server_factory, pool, 2, "v")
        return VersionedFS(
            BlippingStore(meta.client, "/v", FAST), pool,
            [s.address for s in servers], "/tssdata/v", policy=FAST,
        )

    def test_a_metadata_blip_is_not_a_missing_file(self, vfs):
        vfs.write_file("/doc", b"hello world")
        vfs.meta.blips = 1
        with pytest.raises(DisconnectedError):
            vfs.open("/doc", OpenFlags(write=True, create=True))
        assert [v.number for v in vfs.versions("/doc")] == [1]
        with vfs.open("/doc", OpenFlags(write=True, create=True)) as h:
            h.pwrite(b"J", 0)
        assert vfs.read_file("/doc") == b"Jello world"
        assert vfs.read_version("/doc", 1) == b"hello world"

    def test_a_history_longer_than_one_lookup_still_reads(self, vfs):
        for n in range(1, 61):
            vfs.write_file("/log", b"entry %d" % n)
        assert vfs.lstat("/log").size > STUB_MAX_BYTES
        assert len(vfs.versions("/log")) == 60
        assert vfs.read_file("/log") == b"entry 60"
        assert vfs.stat("/log").size == len(b"entry 60")
        assert vfs.read_version("/log", 1) == b"entry 1"
