"""Integration tests: DSDB and the GEMS preservation machinery."""

import threading
import time

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.dsdb import DSDB, live_replicas
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.db.client import DatabaseClient
from repro.db.engine import MetadataDB
from repro.db.query import Query
from repro.db.server import DatabaseConfig, DatabaseServer
from repro.gems import (
    Auditor,
    BudgetGreedyPolicy,
    FixedCountPolicy,
    Keeper,
    KeeperConfig,
)
from repro.transport.metrics import MetricsRegistry
from repro.util import errors as E
from repro.util.clock import ManualClock


@pytest.fixture()
def dsdb(server_factory, pool):
    servers = [server_factory.new() for _ in range(4)]
    db = MetadataDB(None, indexes=("tss_kind", "name"))
    store = DSDB(
        db,
        pool,
        [s.address for s in servers],
        volume="gems",
        placement=RoundRobinPlacement(seed=2),
    )
    store._test_servers = servers  # handle for failure injection
    return store


def store_of(dsdb, endpoint):
    """The storage resource behind one server.  Damage goes through it,
    not through raw paths, so it lands on every store kind."""
    return next(s.backend.store for s in dsdb._test_servers if s.address == endpoint)


def kill_server_data(dsdb, endpoint) -> int:
    """Owner eviction: delete every gems file on one server's disk."""
    store = store_of(dsdb, endpoint)
    d = "/tssdata/gems"
    killed = 0
    if store.isdir(d):
        for name in store.listdir(d):
            store.unlink(f"{d}/{name}")
            killed += 1
    return killed


def damage(dsdb, rep, data: bytes) -> None:
    """Overwrite the head of one replica's bytes in place (same size
    when ``data`` is no longer than the file)."""
    store = store_of(dsdb, (rep["host"], rep["port"]))
    with store.open(rep["path"], OpenFlags(write=True), 0) as handle:
        handle.pwrite(data, 0)


class TestDsdbMechanism:
    def test_ingest_and_fetch(self, dsdb):
        rec = dsdb.ingest("run1/traj.dcd", b"payload", {"molecule": "bpti"})
        assert rec["size"] == 7
        assert dsdb.fetch(rec["id"]) == b"payload"

    def test_ingest_from_path_and_stream(self, dsdb, tmp_path):
        src = tmp_path / "data.bin"
        src.write_bytes(b"z" * 50000)
        rec = dsdb.ingest("from-path", str(src))
        assert rec["size"] == 50000
        with open(str(src), "rb") as f:
            rec2 = dsdb.ingest("from-stream", f)
        assert dsdb.fetch(rec2["id"]) == b"z" * 50000

    def test_multi_replica_ingest_uses_distinct_servers(self, dsdb):
        rec = dsdb.ingest("r", b"x" * 100, replicas=3)
        endpoints = {(r["host"], r["port"]) for r in rec["replicas"]}
        assert len(endpoints) == 3

    def test_replicas_capped_by_server_count(self, dsdb):
        rec = dsdb.ingest("r", b"x", replicas=10)
        assert len(rec["replicas"]) == 4

    def test_query_by_metadata(self, dsdb):
        dsdb.ingest("a", b"1", {"molecule": "bpti", "temperature": 300})
        dsdb.ingest("b", b"2", {"molecule": "villin", "temperature": 300})
        hits = dsdb.find(molecule="bpti")
        assert [h["name"] for h in hits] == ["a"]
        q = Query.where(tss_kind="file").and_("temperature", "ge", 300)
        assert dsdb.db.count(q) == 2

    def test_fetch_fails_over_dead_replica(self, dsdb, pool):
        rec = dsdb.ingest("r", b"important", replicas=2)
        first = rec["replicas"][0]
        server = next(
            s for s in dsdb._test_servers
            if s.address == (first["host"], first["port"])
        )
        server.stop()
        pool.evict(first["host"], first["port"])
        assert dsdb.fetch(rec["id"]) == b"important"

    def test_fetch_with_verify_skips_corrupt_replica(self, dsdb):
        rec = dsdb.ingest("r", b"good data!", replicas=2)
        damage(dsdb, rec["replicas"][0], b"corrupted!")
        assert dsdb.fetch(rec["id"], verify=True) == b"good data!"

    def test_all_replicas_gone_raises(self, dsdb):
        rec = dsdb.ingest("r", b"x")
        for rep in rec["replicas"]:
            kill_server_data(dsdb, (rep["host"], rep["port"]))
        with pytest.raises(E.DoesNotExistError):
            dsdb.fetch(rec["id"])

    def test_delete_removes_data_and_record(self, dsdb):
        rec = dsdb.ingest("r", b"x", replicas=2)
        dsdb.delete(rec["id"])
        assert dsdb.get(rec["id"]) is None
        assert dsdb.stored_bytes() == 0

    def test_add_and_drop_replica(self, dsdb):
        rec = dsdb.ingest("r", b"x" * 1000)
        holder = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        target = next(ep for ep in dsdb.servers if ep != holder)
        rec = dsdb.attach_replica(rec, dsdb.copy_replica(rec["id"], target))
        assert len(rec["replicas"]) == 2
        rec = dsdb.drop_replica(rec["id"], rec["replicas"][0])
        assert len(rec["replicas"]) == 1
        assert dsdb.fetch(rec["id"]) == b"x" * 1000

    def test_stored_bytes_counts_all_replicas(self, dsdb):
        dsdb.ingest("a", b"x" * 100, replicas=2)
        dsdb.ingest("b", b"y" * 50)
        assert dsdb.stored_bytes() == 250

    def test_works_against_remote_database(self, server_factory, pool, auth_context, credentials):
        """DSDB with the database behind the TCP server (the paper's
        deployment shape: a distinct database service)."""
        servers = [server_factory.new() for _ in range(2)]
        db = MetadataDB(None, indexes=("tss_kind",))
        with DatabaseServer(db, DatabaseConfig(auth=auth_context)) as dbs:
            remote = DatabaseClient(*dbs.address, credentials=credentials)
            dsdb = DSDB(remote, pool, [s.address for s in servers])
            rec = dsdb.ingest("remote-rec", b"over tcp", replicas=2)
            assert dsdb.fetch(rec["id"], verify=True) == b"over tcp"
            assert dsdb.find(name="remote-rec")
            remote.close()


class TestIngestShape:
    """An ingest is its copies in series, then one record listing them:
    a ``putfile`` per copy and a single ``db.insert``."""

    @pytest.fixture(params=["local", "cas"])
    def rig(self, request, server_factory, auth_context, credentials):
        servers = [server_factory.new(store=request.param) for _ in range(2)]
        metrics = MetricsRegistry()
        pool = ClientPool(credentials, timeout=10.0, metrics=metrics)
        db = MetadataDB(None, indexes=("tss_kind",))
        with DatabaseServer(db, DatabaseConfig(auth=auth_context)) as dbs:
            remote = DatabaseClient(*dbs.address, credentials=credentials, metrics=metrics)
            dsdb = DSDB(remote, pool, [s.address for s in servers], volume="gems")
            dsdb._test_servers = servers
            yield dsdb, metrics
            remote.close()
        pool.close()

    @staticmethod
    def rpcs(metrics, op) -> tuple:
        """``op``'s result and the RPCs it sent, by verb (counted as
        test_compound_verbs counts them)."""
        def calls():
            return {v: s["calls"] for v, s in metrics.snapshot()["verbs"].items()}

        before = calls()
        result = op()
        return result, {v: n - before.get(v, 0) for v, n in calls().items() if n != before.get(v, 0)}

    def test_two_copies_then_one_insert(self, rig):
        dsdb, metrics = rig
        dsdb.ingest("warm-up", b"w", replicas=2)  # makes the volume directories
        rec, sent = self.rpcs(metrics, lambda: dsdb.ingest("r", b"x" * 1000, replicas=2))
        assert sent == {"putfile": 2, "db.insert": 1}
        assert len({(r["host"], r["port"]) for r in rec["replicas"]}) == 2
        assert dsdb.get(rec["id"])["replicas"] == rec["replicas"]

    def test_a_refused_second_copy_still_acks(self, rig):
        dsdb, _metrics = rig
        dsdb._test_servers[1].stop()
        rec = dsdb.ingest("r", b"one copy", replicas=2)
        assert [(r["host"], r["port"], r["state"]) for r in rec["replicas"]] == [
            dsdb._test_servers[0].address + ("ok",)
        ]
        assert dsdb.get(rec["id"])["replicas"] == rec["replicas"]
        assert dsdb.fetch(rec["id"]) == b"one copy"


class TestAuditor:
    def test_clean_system_audits_clean(self, dsdb):
        dsdb.ingest("a", b"1", replicas=2)
        report = Auditor(dsdb).audit_once()
        assert report.replicas_checked == 2
        assert report.problems == 0

    def test_detects_missing_replicas(self, dsdb):
        rec = dsdb.ingest("a", b"1", replicas=2)
        victim = (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        killed = kill_server_data(dsdb, victim)
        report = Auditor(dsdb).audit_once()
        assert report.missing == killed == 1
        updated = dsdb.get(rec["id"])
        states = sorted(r["state"] for r in updated["replicas"])
        assert states == ["missing", "ok"]

    def test_detects_damaged_replicas(self, dsdb):
        rec = dsdb.ingest("a", b"pristine bytes", replicas=2)
        damage(dsdb, rec["replicas"][1], b"XX")
        report = Auditor(dsdb).audit_once()
        assert report.damaged == 1

    def test_location_only_audit_misses_corruption(self, dsdb):
        """The cheap audit mode catches deletion but not bit rot --
        documented behaviour, pinned here."""
        rec = dsdb.ingest("a", b"pristine bytes", replicas=1)
        damage(dsdb, rec["replicas"][0], b"XX")  # same size, different content
        report = Auditor(dsdb, mode="location").audit_once()
        assert report.damaged == 0

    def test_reports_lost_records(self, dsdb):
        rec = dsdb.ingest("a", b"1")
        kill_server_data(dsdb, (rec["replicas"][0]["host"], rec["replicas"][0]["port"]))
        report = Auditor(dsdb).audit_once()
        assert rec["id"] in report.lost_records

    def test_recovered_replica_marked_ok_again(self, dsdb):
        rec = dsdb.ingest("a", b"1", replicas=1)
        dsdb.mark_replica(rec["id"], rec["replicas"][0], "missing")
        report = Auditor(dsdb).audit_once()
        assert report.healthy == 1
        assert live_replicas(dsdb.get(rec["id"]))


def keeper_for(dsdb, policy, tmp_path, **config) -> Keeper:
    """A keeper over ``dsdb`` with its state under ``tmp_path``, on a
    :class:`ManualClock` unless ``clock`` says otherwise."""
    clock = config.pop("clock", ManualClock())
    return Keeper(
        dsdb,
        policy,
        KeeperConfig(state_dir=str(tmp_path / "keeper"), **config),
        clock=clock,
    )


def one_pass(keeper) -> dict:
    """Run one full audit-and-repair pass; its tick counts, summed."""
    ticks = keeper.run_passes(1)
    return {
        name: sum(getattr(t, name) for t in ticks)
        for name in ("missing", "damaged", "dropped", "committed")
    }


def live_count(dsdb) -> int:
    return sum(len(live_replicas(r)) for r in dsdb.find())


def live_bytes(dsdb) -> int:
    """Bytes held by replicas believed intact: unlike
    :meth:`DSDB.stored_bytes`, a ``missing`` or ``damaged`` replica the
    pass only marked does not count."""
    return sum(r["size"] * len(live_replicas(r)) for r in dsdb.find())


class TestReplicatorAndPreservation:
    """The keeper's audit-and-repair pass, the one GEMS repair loop."""

    def test_repair_restores_copy_count(self, dsdb, tmp_path):
        for i in range(4):
            dsdb.ingest(f"f{i}", bytes([i]) * 1000)
        policy = BudgetGreedyPolicy(8 * 1000)  # room for 2 copies each
        one_pass(keeper_for(dsdb, policy, tmp_path))
        assert live_bytes(dsdb) == dsdb.stored_bytes() == 8000
        assert live_count(dsdb) == 8

    def test_budget_is_respected(self, dsdb, tmp_path):
        for i in range(4):
            dsdb.ingest(f"f{i}", bytes([i]) * 1000)
        policy = BudgetGreedyPolicy(6500)
        one_pass(keeper_for(dsdb, policy, tmp_path))
        assert live_bytes(dsdb) <= dsdb.stored_bytes() <= 6500

    def test_failure_detect_and_repair_cycle(self, dsdb, tmp_path):
        """The Figure 9 story at test scale: fill to budget, induce a
        failure, watch audit + repair restore the stored volume."""
        recs = [dsdb.ingest(f"f{i}", bytes([i % 251]) * 500) for i in range(8)]
        policy = BudgetGreedyPolicy(16 * 500)  # room for 2 copies of each
        keeper = keeper_for(dsdb, policy, tmp_path)
        one_pass(keeper)
        assert live_bytes(dsdb) == 8000
        victim = dsdb.servers[0]
        killed = kill_server_data(dsdb, victim)
        assert killed > 0
        recovered = one_pass(keeper)
        assert recovered["missing"] == killed  # auditor noted each loss
        assert recovered["committed"] == killed  # a fresh copy for each
        assert live_bytes(dsdb) == dsdb.stored_bytes() == 8000  # repaired
        assert live_count(dsdb) == 16
        # and every file still fetches intact
        for rec in recs:
            assert dsdb.fetch(rec["id"], verify=True) == bytes([recs.index(rec) % 251]) * 500

    def test_damaged_replica_is_replaced(self, dsdb, tmp_path):
        rec = dsdb.ingest("a", b"precious cargo", replicas=2)
        damage(dsdb, rec["replicas"][0], b"XXXX")
        counts = one_pass(keeper_for(dsdb, FixedCountPolicy(2), tmp_path))
        assert counts["damaged"] == 1
        assert counts["dropped"] == 1
        assert counts["committed"] == 1
        fresh = dsdb.get(rec["id"])
        assert len(live_replicas(fresh)) == 2
        assert dsdb.fetch(fresh["id"], verify=True) == b"precious cargo"

    def test_unrepairable_record_does_not_wedge_the_loop(self, dsdb, tmp_path):
        rec = dsdb.ingest("gone", b"x")
        for rep in rec["replicas"]:
            kill_server_data(dsdb, (rep["host"], rep["port"]))
        dsdb.ingest("fine", b"y", replicas=1)
        counts = one_pass(keeper_for(dsdb, FixedCountPolicy(2), tmp_path))
        # the healthy record still got its second copy
        fine = dsdb.find(name="fine")[0]
        assert len(live_replicas(fine)) == 2
        assert counts["missing"] >= 1

    def test_last_copy_is_kept(self, dsdb, tmp_path):
        """A damaged only replica is the last pointer to the data: the
        pass marks it but neither forgets it nor unlinks its bytes."""
        rec = dsdb.ingest("only", b"the one and only copy", replicas=1)
        (only,) = rec["replicas"]
        damage(dsdb, only, b"XXX")
        counts = one_pass(keeper_for(dsdb, FixedCountPolicy(2), tmp_path))
        assert counts["damaged"] == 1
        assert counts["dropped"] == 0
        (kept,) = dsdb.get(rec["id"])["replicas"]
        assert (kept["host"], kept["port"], kept["path"]) == (
            only["host"], only["port"], only["path"]
        )
        assert kept["state"] == "damaged"
        assert store_of(dsdb, (only["host"], only["port"])).exists(only["path"])

    def test_background_service_runs(self, dsdb, tmp_path):
        rec = dsdb.ingest("a", b"1" * 100)
        keeper = keeper_for(
            dsdb, FixedCountPolicy(2), tmp_path, tick_interval=0.02, clock=None
        )
        keeper.start()
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and len(
                live_replicas(dsdb.get(rec["id"]))
            ) < 2:
                time.sleep(0.02)
        finally:
            keeper.stop()
        assert len(live_replicas(dsdb.get(rec["id"]))) == 2
        # stop() joined the loop thread and closed the journal
        assert "gems-keeper" not in {t.name for t in threading.enumerate()}
        with pytest.raises(ValueError):
            keeper.journal.intent(rec["id"], rec["replicas"][0])
