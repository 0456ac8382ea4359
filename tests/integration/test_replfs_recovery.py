"""Integration tests: the ReplicatedFS extension and GEMS DB recovery.

Both are capabilities the paper names but leaves open: "filesystems that
transparently ... replicate" (section 10 future work) and "the database
could even be recovered automatically by rescanning the existing file
data" (section 5).
"""

import os

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.dsdb import DSDB
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.core.replfs import MultiStub, ReplicatedFS
from repro.transport.recovery import RetryPolicy
from repro.db.engine import MetadataDB
from repro.db.query import Query
from repro.gems.recovery import rebuild_database, rescan_servers
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def replfs(server_factory, pool):
    servers = [server_factory.new() for _ in range(4)]
    dir_server = server_factory.new()
    dir_client = pool.get(*dir_server.address)
    dir_client.mkdir("/rvol")
    for s in servers:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/rvol")
    meta = CFS(dir_client, "/rvol", FAST)
    fs = ReplicatedFS(
        meta,
        pool,
        [s.address for s in servers],
        "/tssdata/rvol",
        copies=2,
        placement=RoundRobinPlacement(seed=3),
        policy=FAST,
    )
    fs._test_servers = servers
    return fs


class TestMultiStub:
    def test_roundtrip(self):
        stub = MultiStub((("a", 1, "/p1"), ("b", 2, "/p2")))
        assert MultiStub.decode(stub.encode()) == stub

    def test_empty_locations_rejected(self):
        with pytest.raises(E.InvalidRequestError):
            MultiStub.decode(b'{"tss": "rstub", "v": 1, "locations": []}')

    def test_wrong_kind_rejected(self):
        from repro.core.stubs import Stub

        with pytest.raises(E.InvalidRequestError):
            MultiStub.decode(Stub("h", 1, "/p").encode())


class TestReplicatedFS:
    def test_write_lands_on_n_servers(self, replfs, pool):
        replfs.write_file("/f", b"replicated payload")
        stub = replfs.stub_for("/f")
        assert len(stub.locations) == 2
        assert len({(h, p) for h, p, _ in stub.locations}) == 2
        for host, port, path in stub.locations:
            assert pool.get(host, port).getfile(path) == b"replicated payload"

    def test_read_survives_one_server_loss(self, replfs, pool):
        replfs.write_file("/f", b"durable")
        host, port, _ = replfs.stub_for("/f").locations[0]
        victim = next(s for s in replfs._test_servers if s.address == (host, port))
        victim.stop()
        pool.evict(host, port)
        assert replfs.read_file("/f") == b"durable"
        assert replfs.stat("/f").size == 7

    def test_open_handle_degrades_but_survives(self, replfs, pool):
        replfs.write_file("/f", b"0123456789")
        handle = replfs.open("/f", OpenFlags(read=True))
        assert handle.width == 2 and not handle.degraded
        host, port, _ = replfs.stub_for("/f").locations[0]
        victim = next(s for s in replfs._test_servers if s.address == (host, port))
        victim.stop()
        pool.evict(host, port)
        assert handle.pread(4, 0) == b"0123"
        assert handle.degraded
        handle.close()

    def test_write_fans_out_to_all_replicas(self, replfs, pool):
        handle = replfs.open("/f", OpenFlags(write=True, create=True))
        handle.pwrite(b"both copies", 0)
        handle.close()
        for host, port, path in replfs.stub_for("/f").locations:
            assert pool.get(host, port).getfile(path) == b"both copies"

    def test_verify_detects_divergence(self, replfs, pool):
        replfs.write_file("/f", b"agree agree")
        host, port, path = replfs.stub_for("/f").locations[1]
        pool.get(host, port).putfile(path, b"i diverged!")
        health = replfs.verify("/f")
        states = sorted(health.values())
        assert states == ["diverged", "ok"]

    def test_heal_restores_replica_count(self, replfs, pool):
        replfs.write_file("/f", b"precious")
        host, port, path = replfs.stub_for("/f").locations[0]
        pool.get(host, port).unlink(path)  # lose one replica's data
        assert set(replfs.verify("/f").values()) == {"ok", "missing"}
        added = replfs.heal("/f")
        assert added == 1
        assert set(replfs.verify("/f").values()) == {"ok"}
        assert replfs.read_file("/f") == b"precious"

    def test_heal_replaces_diverged_copy(self, replfs, pool):
        replfs.write_file("/f", b"the true contents!")
        stub = replfs.stub_for("/f")
        # corrupt one replica; majority (here: tie broken by count order)
        # is resolved against the intact pair after a third copy exists
        host, port, path = stub.locations[1]
        pool.get(host, port).putfile(path, b"corrupted contents")
        # make the intact copy the majority by healing from scratch:
        # first mark the diverged one by unlinking it entirely
        pool.get(host, port).unlink(path)
        replfs.heal("/f")
        health = replfs.verify("/f")
        assert set(health.values()) == {"ok"}
        assert replfs.read_file("/f") == b"the true contents!"

    def test_read_verified_survives_diverged_replica(self, replfs, pool):
        replfs.write_file("/f", b"agree agree")
        host, port, path = replfs.stub_for("/f").locations[1]
        pool.get(host, port).putfile(path, b"i diverged!")
        # the diverged replica advertises a non-majority digest and is
        # filtered before any byte is fetched
        assert replfs.read_verified("/f") == b"agree agree"

    def test_read_verified_catches_a_lying_replica(
        self, server_factory, pool
    ):
        """A replica that advertises the majority digest but serves
        corrupt bytes (the shape of at-rest bitrot behind an O(1)
        checksum) is caught by hashing the fetched bytes, marked
        suspect, and failed over."""
        from repro.store import DiskFaultScript
        from repro.store.faulty import BITROT

        kind = os.environ.get("TSS_TEST_STORE", "local")
        servers = [
            server_factory.new(store=f"faulty+{kind}") for _ in range(3)
        ]
        dir_server = server_factory.new()
        dir_client = pool.get(*dir_server.address)
        dir_client.mkdir("/rv")
        for s in servers:
            c = pool.get(*s.address)
            c.mkdir("/tssdata")
            c.mkdir("/tssdata/rv")
        meta = CFS(dir_client, "/rv", FAST)
        fs = ReplicatedFS(
            meta, pool, [s.address for s in servers], "/tssdata/rv",
            copies=2, placement=RoundRobinPlacement(seed=3), policy=FAST,
        )
        payload = b"verified payload " * 50
        fs.write_file("/f", payload)
        host, port, path = fs.stub_for("/f").locations[0]
        victim = next(s for s in servers if s.address == (host, port))
        # rot in flight on the preferred replica's next read of this
        # file; its *advertised* checksum stays the majority digest
        victim.backend.store.plan.script(
            DiskFaultScript(op="pread", action=BITROT, path=path)
        )
        assert fs.read_verified("/f") == payload
        assert fs.suspects == [f"{host}:{port}"]

    def test_unlink_removes_every_replica(self, replfs, pool):
        replfs.write_file("/f", b"x")
        locations = replfs.stub_for("/f").locations
        replfs.unlink("/f")
        assert replfs.listdir("/") == []
        for host, port, path in locations:
            assert not pool.get(host, port).exists(path)

    def test_namespace_ops(self, replfs):
        replfs.mkdir("/d")
        replfs.write_file("/d/f", b"1")
        assert replfs.listdir("/d") == ["f"]
        replfs.rename("/d/f", "/d/g")
        assert replfs.read_file("/d/g") == b"1"
        replfs.unlink("/d/g")
        replfs.rmdir("/d")

    def test_statfs_divides_by_copies(self, replfs, pool):
        one = pool.get(*replfs.servers[0]).statfs()
        fs = replfs.statfs()
        assert fs.total_bytes <= (one.total_bytes * 4) // 2 + 1

    def test_exclusive_create(self, replfs):
        replfs.write_file("/x", b"1")
        with pytest.raises(E.AlreadyExistsError):
            replfs.open("/x", OpenFlags(write=True, create=True, exclusive=True))

    def test_config_validation(self, replfs, pool):
        with pytest.raises(ValueError):
            ReplicatedFS(replfs.meta, pool, replfs.servers[:1], "/d", copies=2)
        with pytest.raises(ValueError):
            ReplicatedFS(replfs.meta, pool, replfs.servers, "/d", copies=0)


class TestDatabaseRecovery:
    @pytest.fixture()
    def populated(self, server_factory, pool):
        servers = [server_factory.new() for _ in range(3)]
        db = MetadataDB(None, indexes=("tss_kind", "checksum"))
        dsdb = DSDB(
            db, pool, [s.address for s in servers],
            volume="gems", placement=RoundRobinPlacement(seed=4),
        )
        records = [
            dsdb.ingest(f"run{i}/out.dat", bytes([i]) * 2000, {"run": i}, replicas=2)
            for i in range(5)
        ]
        return dsdb, records, servers

    def test_rescan_finds_every_replica(self, populated, pool):
        dsdb, records, _servers = populated
        report = rescan_servers(pool, dsdb.servers, "gems")
        assert report.servers_scanned == 3
        assert report.replicas_found == 10  # 5 files x 2 copies
        assert len(report.by_checksum) == 5
        for replicas in report.by_checksum.values():
            assert len(replicas) == 2

    def test_rebuild_after_total_database_loss(self, populated, pool):
        dsdb, records, _servers = populated
        originals = {r["checksum"]: r for r in records}
        # catastrophe: the database is gone
        fresh_db = MetadataDB(None, indexes=("tss_kind", "checksum"))
        recovered_dsdb = DSDB(fresh_db, pool, dsdb.servers, volume="gems")
        report = rebuild_database(recovered_dsdb)
        assert report.records_rebuilt == 5
        # every file fetches, checksum-verified, from the rebuilt records
        for rec in recovered_dsdb.query(Query.where(tss_kind="file")):
            data = recovered_dsdb.fetch(rec["id"], verify=True)
            assert rec["checksum"] in originals
            assert len(data) == originals[rec["checksum"]]["size"]
            assert rec["recovered"] is True
            assert len(rec["replicas"]) == 2

    def test_rebuild_is_idempotent(self, populated, pool):
        dsdb, _records, _servers = populated
        first = rebuild_database(dsdb)
        assert first.records_rebuilt == 0  # records already known
        again = rebuild_database(dsdb)
        assert again.records_rebuilt == 0
        assert dsdb.db.count(Query.where(tss_kind="file")) == 5

    def test_rebuild_with_unreachable_server(self, populated, pool):
        dsdb, _records, servers = populated
        victim = servers[0]
        victim.stop()
        pool.evict(*victim.address)
        fresh_db = MetadataDB(None, indexes=("tss_kind", "checksum"))
        recovered = DSDB(fresh_db, pool, dsdb.servers, volume="gems")
        report = rebuild_database(recovered)
        assert report.servers_unreachable == 1
        # with 2 copies on 3 servers, every file still has >=1 replica on
        # the two surviving servers (pigeonhole), so nothing is lost
        assert report.records_rebuilt == 5
        for rec in recovered.query(Query.where(tss_kind="file")):
            assert recovered.fetch(rec["id"], verify=True)


class TestThreeCopyMajority:
    @pytest.fixture()
    def replfs3(self, server_factory, pool):
        servers = [server_factory.new() for _ in range(4)]
        dir_server = server_factory.new()
        dir_client = pool.get(*dir_server.address)
        dir_client.mkdir("/r3")
        for s in servers:
            c = pool.get(*s.address)
            c.mkdir("/tssdata")
            c.mkdir("/tssdata/r3")
        meta = CFS(dir_client, "/r3", FAST)
        return ReplicatedFS(
            meta, pool, [s.address for s in servers], "/tssdata/r3",
            copies=3, placement=RoundRobinPlacement(seed=5), policy=FAST,
        )

    @pytest.mark.parametrize("corrupt_index", [0, 1, 2])
    def test_majority_identifies_truth_wherever_corruption_lands(
        self, replfs3, pool, corrupt_index
    ):
        """With three copies, a single corrupted replica is outvoted no
        matter which position it holds -- including the first, which a
        two-copy tie-break would have wrongly trusted."""
        replfs3.write_file("/f", b"the truth" * 10)
        loc = replfs3.stub_for("/f").locations[corrupt_index]
        pool.get(loc[0], loc[1]).putfile(loc[2], b"a big lie" * 10)
        health = replfs3.verify("/f")
        assert health[loc] == "diverged"
        assert sorted(health.values()) == ["diverged", "ok", "ok"]
        replfs3.heal("/f")
        assert set(replfs3.verify("/f").values()) == {"ok"}
        assert replfs3.read_file("/f") == b"the truth" * 10
