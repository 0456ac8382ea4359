"""Integration tests: alternate store backends behind a live server.

Covers the visible ends of the abstraction/resource split: servers
running on memory and CAS resources serve the unchanged protocol, the
content-addressed verbs enable zero-payload replication and O(1)
key audits, and VersionedFS snapshots share storage on CAS servers.
"""

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.dsdb import DSDB
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.versionfs import VersionedFS
from repro.db.engine import MetadataDB
from repro.gems import Auditor, FixedCountPolicy, Keeper, KeeperConfig
from repro.transport.metrics import MetricsRegistry
from repro.util import errors as E
from repro.util.checksum import data_checksum

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


class TestAlternateBackends:
    def test_memory_server_roundtrip(self, server_factory, pool):
        server = server_factory.new(store="memory")
        client = pool.get(*server.address)
        client.mkdir("/d")
        client.putfile("/d/f.txt", b"in-memory bytes")
        assert client.getfile("/d/f.txt") == b"in-memory bytes"
        assert client.getdir("/d") == ["f.txt"]
        assert client.checksum("/d/f.txt") == data_checksum(b"in-memory bytes")
        client.unlink("/d/f.txt")
        assert not client.exists("/d/f.txt")
        assert server.build_report()["store"] == "memory"

    def test_cas_server_roundtrip_and_dedup(self, server_factory, pool):
        server = server_factory.new(store="cas")
        client = pool.get(*server.address)
        # the root ACL blob is itself a CAS object; count from here
        baseline = server.store.object_count()
        client.putfile("/a.txt", b"identical content")
        client.putfile("/b.txt", b"identical content")
        assert client.getfile("/a.txt") == b"identical content"
        assert client.getfile("/b.txt") == b"identical content"
        key = data_checksum(b"identical content")
        assert server.store.refcount(key) == 2
        assert server.store.object_count() == baseline + 1
        assert server.build_report()["store"] == "cas"

    def test_cas_verbs_over_the_wire(self, server_factory, pool):
        server = server_factory.new(store="cas")
        client = pool.get(*server.address)
        key = data_checksum(b"wire payload")
        assert client.lookup(key) is False
        client.putfile("/orig", b"wire payload")
        assert client.lookup(key) is True
        assert client.keyof("/orig") == key
        size = client.putkey("/copy", key)
        assert size == len(b"wire payload")
        assert client.getfile("/copy") == b"wire payload"

    def test_non_cas_server_refuses_cas_verbs(self, server_factory, pool):
        server = server_factory.new(store="local")
        client = pool.get(*server.address)
        client.putfile("/f", b"plain bytes")
        with pytest.raises(E.InvalidRequestError):
            client.keyof("/f")
        with pytest.raises(E.InvalidRequestError):
            client.lookup(data_checksum(b"plain bytes"))
        with pytest.raises(E.InvalidRequestError):
            client.putkey("/g", data_checksum(b"plain bytes"))


def _make_dsdb(server_factory, pool, n=2, store="cas"):
    servers = [server_factory.new(store=store) for _ in range(n)]
    db = MetadataDB(None, indexes=("tss_kind", "name"))
    dsdb = DSDB(
        db,
        pool,
        [s.address for s in servers],
        volume="gems",
        placement=RoundRobinPlacement(seed=2),
    )
    dsdb._test_servers = servers
    return dsdb


class TestCopyByReference:
    def test_replication_of_present_key_moves_no_payload(
        self, server_factory, pool, credentials
    ):
        dsdb = _make_dsdb(server_factory, pool)
        payload = b"replicate me by reference" * 100
        rec = dsdb.ingest("data/blob", payload, {})
        holder = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        target_server = next(
            s for s in dsdb._test_servers if s.address != holder
        )
        # The target already holds an object with this content (under an
        # unrelated path), so replication can bind a key instead of
        # streaming bytes.
        pool.get(*target_server.address).putfile("/unrelated", payload)

        registry = MetricsRegistry()
        metered = ClientPool(credentials, timeout=10.0, metrics=registry)
        try:
            dsdb.pool = metered
            new_rep = dsdb.copy_replica(rec, target_server.address)
        finally:
            dsdb.pool = pool
            metered.close()

        verbs = registry.snapshot()["verbs"]
        assert verbs["putkey"]["calls"] >= 1
        # the copy was verified after the write, by key, not by bytes
        assert verbs["checksum"]["calls"] == 1
        # zero payload bytes crossed the wire in either direction
        assert verbs.get("putfile", {}).get("bytes_out", 0) == 0
        assert verbs.get("getfile", {}).get("bytes_in", 0) == 0
        assert verbs.get("pread", {}).get("bytes_in", 0) == 0
        # ... and the replica is real
        assert new_rep["host"], new_rep["port"] == target_server.address
        assert pool.get(*target_server.address).getfile(new_rep["path"]) == payload

    def test_falls_back_to_byte_transfer_when_key_absent(
        self, server_factory, pool
    ):
        dsdb = _make_dsdb(server_factory, pool)
        payload = b"nowhere else"
        rec = dsdb.ingest("data/unique", payload, {})
        holder = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        target = next(
            s.address for s in dsdb._test_servers if s.address != holder
        )
        new_rep = dsdb.copy_replica(rec, target)
        assert pool.get(*target).getfile(new_rep["path"]) == payload

    def test_falls_back_on_non_cas_targets(self, server_factory, pool):
        dsdb = _make_dsdb(server_factory, pool, store="local")
        payload = b"old-style servers still replicate"
        rec = dsdb.ingest("data/legacy", payload, {})
        holder = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        target = next(
            s.address for s in dsdb._test_servers if s.address != holder
        )
        new_rep = dsdb.copy_replica(rec, target)
        assert pool.get(*target).getfile(new_rep["path"]) == payload


class TestKeyAudit:
    def test_key_audit_flags_corruption_without_payload_reads(
        self, server_factory, pool, credentials
    ):
        dsdb = _make_dsdb(server_factory, pool)
        rec = dsdb.ingest("data/audited", b"pristine content", {})
        replica = rec["replicas"][0]
        # Corrupt through the front door: overwriting the path rebinds
        # it to a different key, exactly what a tampered or torn replica
        # looks like to a key audit.
        pool.get(replica["host"], replica["port"]).putfile(
            replica["path"], b"tampered!"
        )

        registry = MetricsRegistry()
        metered = ClientPool(credentials, timeout=10.0, metrics=registry)
        try:
            dsdb.pool = metered
            report = Auditor(dsdb, mode="key").audit_once()
        finally:
            dsdb.pool = pool
            metered.close()

        assert report.damaged == 1
        verbs = registry.snapshot()["verbs"]
        assert verbs["keyof"]["calls"] >= 1
        # the audit never read file payload over the wire
        assert verbs.get("getfile", {}).get("bytes_in", 0) == 0
        assert verbs.get("pread", {}).get("bytes_in", 0) == 0
        assert "checksum" not in verbs

    def test_key_audit_passes_healthy_replicas(self, server_factory, pool):
        dsdb = _make_dsdb(server_factory, pool)
        dsdb.ingest("data/fine", b"intact", {})
        report = Auditor(dsdb, mode="key").audit_once()
        assert report.damaged == 0 and report.missing == 0
        assert report.healthy == report.replicas_checked

    def test_keeper_runs_key_audits(self, server_factory, pool, tmp_path):
        from repro.util.clock import ManualClock

        dsdb = _make_dsdb(server_factory, pool)
        rec = dsdb.ingest("data/kept", b"guarded", {})
        holder = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        spare = next(ep for ep in dsdb.servers if ep != holder)
        # a second, healthy copy
        rec = dsdb.attach_replica(rec, dsdb.copy_replica(rec, spare))
        replica = rec["replicas"][0]
        pool.get(replica["host"], replica["port"]).putfile(
            replica["path"], b"mangled"
        )
        keeper = Keeper(
            dsdb,
            FixedCountPolicy(2),
            KeeperConfig(
                state_dir=str(tmp_path / "keeper"),
                audit_mode="key",
                scan_batch=16,
                max_repairs_per_tick=16,
            ),
            clock=ManualClock(),
        )
        keeper.run_passes(2)
        assert keeper.snapshot()["damaged"] >= 1
        # the keeper healed it: a live replica with the right bytes
        healed = next(
            r for r in dsdb.find()[0]["replicas"] if r["state"] == "ok"
        )
        assert pool.get(healed["host"], healed["port"]).getfile(
            healed["path"]
        ) == b"guarded"

    def test_key_audit_falls_back_to_bytes_on_local_servers(
        self, server_factory, pool
    ):
        dsdb = _make_dsdb(server_factory, pool, store="local")
        rec = dsdb.ingest("data/legacy", b"pristine", {})
        replica = rec["replicas"][0]
        pool.get(replica["host"], replica["port"]).putfile(
            replica["path"], b"rotted"
        )
        report = Auditor(dsdb, mode="key").audit_once()
        assert report.damaged == 1


class TestVersionedSnapshotSharing:
    @pytest.fixture()
    def vfs(self, server_factory, pool):
        # One CAS data server so every version lands in the same store.
        data_server = server_factory.new(store="cas")
        dir_server = server_factory.new()
        dir_client = pool.get(*dir_server.address)
        dir_client.mkdir("/vvol")
        data_client = pool.get(*data_server.address)
        data_client.mkdir("/tssdata")
        data_client.mkdir("/tssdata/vvol")
        clock = {"now": 1000.0}

        def now():
            clock["now"] += 1.0
            return clock["now"]

        fs = VersionedFS(
            CFS(dir_client, "/vvol", FAST),
            pool,
            [data_server.address],
            "/tssdata/vvol",
            policy=FAST,
            now=now,
        )
        fs._data_server = data_server
        return fs

    def test_unchanged_snapshots_share_one_blob(self, vfs):
        payload = b"same bytes every night" * 50
        vfs.write_file("/backup.img", payload)
        vfs.write_file("/backup.img", payload)
        vfs.write_file("/backup.img", payload)
        assert len(vfs.versions("/backup.img")) == 3
        key = data_checksum(payload)
        store = vfs._data_server.store
        # three versions, one physical object
        assert store.refcount(key) == 3
        assert store.lookup_key(key)

    def test_modify_in_place_seeds_by_key(self, vfs):
        vfs.write_file("/doc", b"0123456789")
        before = vfs._data_server.store.snapshot().get("links", 0)
        handle = vfs.open("/doc", OpenFlags(write=True))
        handle.pwrite(b"AB", 2)
        handle.close()
        after = vfs._data_server.store.snapshot().get("links", 0)
        assert after > before  # the new version was seeded via putkey
        assert vfs.read_version("/doc", 1) == b"0123456789"
        assert vfs.read_file("/doc") == b"01AB456789"


class TestServerMetricsSection:
    def test_store_counters_surface_through_registry(
        self, server_factory, pool
    ):
        registry = MetricsRegistry()
        server = server_factory.new(store="cas", metrics=registry)
        baseline = server.store.used_bytes()  # the root ACL blob
        client = pool.get(*server.address)
        client.putfile("/a", b"counted content")
        client.putfile("/b", b"counted content")
        snap = registry.snapshot()
        assert snap["store"]["kind"] == "cas"
        assert snap["store"]["objects_ingested"] >= 1
        assert snap["store"]["dedup_hits"] >= 1
        assert snap["store"]["used_bytes"] == baseline + len(b"counted content")
