"""Integration tests: StripedFS over live file servers."""

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.transport.recovery import RetryPolicy
from repro.core.stripefs import StripedFS, StripeStub
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)
STRIPE = 1024  # small stripes so modest files cross many boundaries


@pytest.fixture()
def stripefs(server_factory, pool):
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    dir_client = pool.get(*dir_server.address)
    dir_client.mkdir("/svol")
    for s in servers:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/svol")
    fs = StripedFS(
        CFS(dir_client, "/svol", FAST),
        pool,
        [s.address for s in servers],
        "/tssdata/svol",
        stripe_size=STRIPE,
        policy=FAST,
    )
    fs._test_servers = servers
    return fs


def pattern(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


class TestStripedIO:
    def test_roundtrip_multiple_stripes(self, stripefs):
        data = pattern(10 * STRIPE + 123)
        stripefs.write_file("/big", data)
        assert stripefs.read_file("/big") == data

    def test_data_actually_spreads(self, stripefs, pool):
        data = pattern(9 * STRIPE)
        stripefs.write_file("/spread", data)
        stub = stripefs.stub_for("/spread")
        assert len(stub.locations) == 3
        sizes = []
        for host, port, path in stub.locations:
            sizes.append(pool.get(host, port).stat(path).size)
        assert sizes == [3 * STRIPE] * 3  # perfectly balanced

    def test_logical_size_from_stripe_sizes(self, stripefs):
        data = pattern(5 * STRIPE + 17)
        stripefs.write_file("/sized", data)
        assert stripefs.stat("/sized").size == len(data)

    def test_random_access_reads(self, stripefs):
        data = pattern(7 * STRIPE)
        stripefs.write_file("/ra", data)
        with stripefs.open("/ra", OpenFlags(read=True)) as h:
            for offset, length in [
                (0, 10),
                (STRIPE - 5, 10),  # spans a stripe boundary
                (3 * STRIPE, 2 * STRIPE),  # multiple whole stripes
                (len(data) - 4, 100),  # crosses EOF
            ]:
                assert h.pread(length, offset) == data[offset : offset + length]

    def test_in_place_overwrite_across_boundary(self, stripefs):
        data = bytearray(pattern(4 * STRIPE))
        stripefs.write_file("/ow", bytes(data))
        with stripefs.open("/ow", OpenFlags(read=True, write=True)) as h:
            patch_at = STRIPE - 8
            patch = b"P" * 16  # straddles stripes 0 and 1
            h.pwrite(patch, patch_at)
        data[patch_at : patch_at + 16] = patch
        assert stripefs.read_file("/ow") == bytes(data)

    def test_truncate_shrinks_logically(self, stripefs):
        data = pattern(6 * STRIPE)
        stripefs.write_file("/tr", data)
        new_len = 2 * STRIPE + 100
        stripefs.truncate("/tr", new_len)
        assert stripefs.stat("/tr").size == new_len
        assert stripefs.read_file("/tr") == data[:new_len]

    def test_handle_ftruncate(self, stripefs):
        data = pattern(4 * STRIPE)
        stripefs.write_file("/ftr", data)
        with stripefs.open("/ftr", OpenFlags(read=True, write=True)) as h:
            h.ftruncate(STRIPE + 1)
            assert h.fstat().size == STRIPE + 1

    def test_sparse_hole_reads_short(self, stripefs):
        """The documented limitation: a logical hole inside an unwritten
        stripe tail reads as EOF, not zeros."""
        with stripefs.open(
            "/sparse", OpenFlags(read=True, write=True, create=True)
        ) as h:
            h.pwrite(b"Z", 2 * STRIPE)  # bytes 0..2*STRIPE-1 never written
            got = h.pread(2 * STRIPE + 1, 0)
        assert len(got) < 2 * STRIPE + 1

    def test_namespace_ops(self, stripefs):
        stripefs.mkdir("/d")
        stripefs.write_file("/d/f", pattern(100))
        assert stripefs.listdir("/d") == ["f"]
        stripefs.rename("/d/f", "/d/g")
        assert stripefs.read_file("/d/g") == pattern(100)
        stripefs.unlink("/d/g")
        stripefs.rmdir("/d")

    def test_unlink_removes_all_stripes(self, stripefs, pool):
        stripefs.write_file("/gone", pattern(5 * STRIPE))
        locations = stripefs.stub_for("/gone").locations
        stripefs.unlink("/gone")
        for host, port, path in locations:
            assert not pool.get(host, port).exists(path)

    def test_exclusive_create(self, stripefs):
        stripefs.write_file("/x", b"1")
        with pytest.raises(E.AlreadyExistsError):
            stripefs.open("/x", OpenFlags(write=True, create=True, exclusive=True))

    def test_losing_any_stripe_server_loses_the_file(self, stripefs, pool):
        """Striping's documented trade-off: no failure coherence within a
        file -- any stripe server down means the file is unavailable."""
        stripefs.write_file("/fragile", pattern(6 * STRIPE))
        host, port, _ = stripefs.stub_for("/fragile").locations[1]
        victim = next(s for s in stripefs._test_servers if s.address == (host, port))
        victim.stop()
        pool.evict(host, port)
        with pytest.raises(E.DisconnectedError):
            stripefs.read_file("/fragile")
        # but the namespace survives, and other files too
        assert "fragile" in stripefs.listdir("/")

    def test_stub_codec(self):
        stub = StripeStub(4096, (("a", 1, "/p0"), ("b", 2, "/p1")))
        assert StripeStub.decode(stub.encode()) == stub
        with pytest.raises(E.InvalidRequestError):
            StripeStub.decode(b'{"tss": "stub"}')

    def test_config_validation(self, stripefs, pool):
        with pytest.raises(ValueError):
            StripedFS(stripefs.meta, pool, stripefs.servers, "/d", stripe_size=0)
        with pytest.raises(ValueError):
            StripedFS(stripefs.meta, pool, stripefs.servers, "/d", stripes=7)
