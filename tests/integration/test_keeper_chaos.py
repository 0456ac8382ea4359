"""Keeper chaos soak: self-healing under server loss and injected faults.

The acceptance scenario for the keeper: a replicated DSDB whose keeper
runs an incremental, journaled anti-entropy loop while a server is
killed mid-soak and another sits behind a seeded fault proxy.  The
replication factor must return to target within a bounded number of
passes; a simulated keeper crash mid-copy must leave the journal able to
recover or garbage-collect every in-flight copy (zero half-written
replicas counted live); and a rerun with the same seed must replay the
identical fault sequence (the proxy's event log is the witness).

Set ``KEEPER_SOAK_ARTIFACTS`` to a directory to get the keeper journal
and fault event log copied there (CI uploads them on failure).
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pytest

from repro.core.dsdb import DSDB, live_replicas
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.core.stubs import unique_data_name
from repro.db.engine import MetadataDB
from repro.gems import FixedCountPolicy, Keeper, KeeperConfig
from repro.gems.recovery import rescan_servers
from repro.store import DiskFaultPlan
from repro.transport.deadline import Deadline
from repro.transport.faults import STALL, FaultPlan, FaultScript, FaultyListener
from repro.transport.metrics import MetricsRegistry
from repro.util.clock import ManualClock

KEEPER_SEED = 20260805

# Fixed names and sizes so wire byte-offsets -- and therefore the fault
# proxy's trigger points -- are reproducible run to run.
PAYLOADS = {f"soak/f{i}": bytes([97 + i]) * (700 * (i + 1)) for i in range(6)}


def make_dsdb(pool, addresses, seed=2):
    db = MetadataDB(None, indexes=("tss_kind", "name"))
    return DSDB(
        db,
        pool,
        addresses,
        volume="gems",
        placement=RoundRobinPlacement(seed=seed),
    )


def make_keeper(dsdb, state_dir, *, copies=2, catalog=None, clock=None, **cfg):
    cfg.setdefault("scan_batch", 16)
    cfg.setdefault("max_repairs_per_tick", 16)
    return Keeper(
        dsdb,
        FixedCountPolicy(copies),
        KeeperConfig(state_dir=str(state_dir), **cfg),
        catalog=catalog,
        clock=clock or ManualClock(),
    )


def assert_replication_restored(dsdb, dead, copies=2):
    """Every record holds ``copies`` live replicas, none on ``dead``."""
    for record in dsdb.find():
        live = live_replicas(record)
        endpoints = {(r["host"], r["port"]) for r in live}
        assert len(live) >= copies, f"{record['name']}: only {len(live)} live"
        assert dead not in endpoints, f"{record['name']}: still counts {dead}"


def assert_no_half_written_live(dsdb):
    """The journal invariant: every live replica verifies clean."""
    for record in dsdb.find():
        for rep in live_replicas(record):
            assert dsdb.verify_replica(record, rep) == "ok", (
                f"{record['name']}: half-written replica counted live: {rep}"
            )


def save_artifacts(keeper, event_log=None, scrub_reports=None):
    out = os.environ.get("KEEPER_SOAK_ARTIFACTS")
    if not out:
        return
    os.makedirs(out, exist_ok=True)
    shutil.copy(keeper.journal.path, os.path.join(out, "keeper.journal"))
    with open(os.path.join(out, "keeper.snapshot.json"), "w") as f:
        json.dump(keeper.snapshot(), f, indent=2, sort_keys=True)
    if event_log is not None:
        with open(os.path.join(out, "fault-events.log"), "w") as f:
            f.write("\n".join(event_log) + "\n")
    if scrub_reports is not None:
        with open(os.path.join(out, "scrub-reports.json"), "w") as f:
            json.dump(scrub_reports, f, indent=2, sort_keys=True)


@pytest.fixture()
def world(server_factory, pool, tmp_path):
    servers = [server_factory.new() for _ in range(4)]
    dsdb = make_dsdb(pool, [s.address for s in servers])
    dsdb._test_servers = servers
    return dsdb, tmp_path / "keeper-state"


class TestKeeperSoak:
    def test_replication_restored_after_server_killed_mid_soak(
        self, world, pool
    ):
        dsdb, state_dir = world
        for name, data in PAYLOADS.items():
            dsdb.ingest(name, data, replicas=2)
        keeper = make_keeper(dsdb, state_dir)

        # A clean pass on a healthy deployment repairs nothing.
        keeper.run_passes(1)
        assert keeper.snapshot()["repairs_committed"] == 0

        # Kill one server mid-soak -- pick the one holding the most
        # replicas, the worst case for the repair budget.
        by_server = {}
        for record in dsdb.find():
            for rep in record["replicas"]:
                by_server.setdefault((rep["host"], rep["port"]), []).append(rep)
        dead = max(by_server, key=lambda ep: len(by_server[ep]))
        victim = next(s for s in dsdb._test_servers if s.address == dead)
        victim.stop()
        pool.evict(*dead)

        # Bounded convergence: the keeper may burn a pass discovering
        # the dead server as a copy target, but failure deprioritization
        # must steer it to healthy ground well within this budget.
        for _ in range(6):
            keeper.run_passes(1)
            try:
                assert_replication_restored(dsdb, dead)
                break
            except AssertionError:
                continue
        try:
            assert_replication_restored(dsdb, dead)
            snap = keeper.snapshot()
            assert snap["dropped"] >= len(by_server[dead])
            assert snap["repairs_committed"] >= len(by_server[dead])
            assert keeper.journal.in_flight() == []
            assert_no_half_written_live(dsdb)
        finally:
            save_artifacts(keeper)

    def test_incremental_scan_resumes_across_keeper_restart(self, world):
        dsdb, state_dir = world
        for name, data in PAYLOADS.items():
            dsdb.ingest(name, data, replicas=1)
        ids = sorted(r["id"] for r in dsdb.find())

        first = make_keeper(dsdb, state_dir, copies=1, scan_batch=4)
        tick = first.tick()
        assert tick.scanned == 4
        assert first.cursor == ids[3]
        first.journal.close()  # simulated shutdown mid-pass

        # A reborn keeper picks up at the persisted cursor: the next
        # batch is the *remaining* records, not the first four again.
        second = make_keeper(dsdb, state_dir, copies=1, scan_batch=4)
        assert second.cursor == ids[3]
        tick = second.tick()
        assert tick.scanned == 2
        assert second.tick().wrapped
        assert second.snapshot()["passes_completed"] == 1


class TestJournalCrashRecovery:
    def test_replay_recovers_or_collects_every_in_flight_copy(
        self, world, pool
    ):
        dsdb, state_dir = world
        recs = [
            dsdb.ingest(name, data, replicas=1)
            for name, data in list(PAYLOADS.items())[:3]
        ]
        keeper = make_keeper(dsdb, state_dir, copies=1)

        def spare_target(record):
            occupied = {(r["host"], r["port"]) for r in record["replicas"]}
            return next(ep for ep in dsdb.servers if ep not in occupied)

        # Crash A: copy finished, crash before attach+commit.  The bytes
        # are good; only the bookkeeping was lost.
        rec_a = recs[0]
        target_a = spare_target(rec_a)
        path_a = dsdb.data_dir + "/" + unique_data_name()
        rep_a = dsdb.copy_replica(rec_a, target_a, path=path_a)
        keeper.journal.intent(rec_a["id"], rep_a)

        # Crash B: copy torn mid-write -- garbage at the intent path.
        rec_b = recs[1]
        target_b = spare_target(rec_b)
        path_b = dsdb.data_dir + "/" + unique_data_name()
        dsdb._ensure_dir(target_b)
        pool.get(*target_b).putfile(path_b, b"torn half-written garbage")
        rep_b = {"host": target_b[0], "port": target_b[1], "path": path_b,
                 "state": "ok"}
        keeper.journal.intent(rec_b["id"], rep_b)

        # Crash C: intent written, crash before any byte moved.
        rec_c = recs[2]
        target_c = spare_target(rec_c)
        path_c = dsdb.data_dir + "/" + unique_data_name()
        keeper.journal.intent(
            rec_c["id"],
            {"host": target_c[0], "port": target_c[1], "path": path_c,
             "state": "ok"},
        )
        keeper.journal.close()  # the "crash"

        reborn = make_keeper(dsdb, state_dir, copies=1)
        snap = reborn.snapshot()
        assert snap["journal_recovered"] == 1
        assert snap["journal_garbage_collected"] == 2
        assert reborn.journal.in_flight() == []

        # A: attached and committed -- the finished copy was not wasted.
        live_a = live_replicas(dsdb.get(rec_a["id"]))
        assert (target_a[0], target_a[1]) in {
            (r["host"], r["port"]) for r in live_a
        }

        # B: never attached, and the torn bytes are gone from the disk.
        assert len(dsdb.get(rec_b["id"])["replicas"]) == 1
        server_b = next(
            s for s in dsdb._test_servers if s.address == target_b
        )
        assert not os.path.exists(
            os.path.join(server_b.backend.root, path_b.lstrip("/"))
        )

        # C: nothing to collect; record untouched.
        assert len(dsdb.get(rec_c["id"])["replicas"]) == 1

        # The invariant the journal exists to provide.
        assert_no_half_written_live(dsdb)

    def test_recovery_is_idempotent(self, world):
        dsdb, state_dir = world
        rec = dsdb.ingest("soak/idem", b"x" * 512, replicas=1)
        keeper = make_keeper(dsdb, state_dir, copies=1)
        target = next(
            ep for ep in dsdb.servers
            if ep != (rec["replicas"][0]["host"], rec["replicas"][0]["port"])
        )
        path = dsdb.data_dir + "/" + unique_data_name()
        rep = dsdb.copy_replica(rec, target, path=path)
        dsdb.attach_replica(rec, rep)  # crash *after* attach, before commit
        keeper.journal.intent(rec["id"], rep)
        keeper.journal.close()

        reborn = make_keeper(dsdb, state_dir, copies=1)
        assert reborn.snapshot()["journal_recovered"] == 1
        # Already attached: recovery must not attach a duplicate.
        record = dsdb.get(rec["id"])
        assert len(record["replicas"]) == 2
        assert reborn.journal.in_flight() == []


class TestCatalogDrivenDrain:
    def test_suspect_server_is_proactively_drained(self, world):
        dsdb, state_dir = world

        class StubCatalog:
            reports = []

            def try_discover(self):
                return self.reports

        clock = ManualClock()
        lifetime = 300.0
        catalog = StubCatalog()
        keeper = make_keeper(
            dsdb, state_dir, copies=1, catalog=catalog, clock=clock,
            catalog_lifetime=lifetime,
        )
        for name, data in PAYLOADS.items():
            dsdb.ingest(name, data, replicas=1)

        # The catalog keeps reporting every server but one.
        from repro.catalog.report import ServerReport

        suspect = dsdb.servers[0]
        catalog.reports = [
            ServerReport(type="chirp", name=f"{h}:{p}", owner="unix:x",
                         host=h, port=p)
            for h, p in dsdb.servers[1:]
        ]
        keeper.run_passes(1)
        assert keeper.suspects == set()  # grace period

        clock.advance(lifetime + 1)
        keeper.run_passes(2)
        assert keeper.suspects == {suspect}

        # Every record that lived on the suspect now also lives off it,
        # before the server has actually failed.
        for record in dsdb.find():
            endpoints = {(r["host"], r["port"]) for r in live_replicas(record)}
            assert endpoints - {suspect}, (
                f"{record['name']} still lives only on the suspect server"
            )
        assert keeper.snapshot()["proactive_copies"] >= 1
        assert_no_half_written_live(dsdb)

    def test_keeper_counters_surface_in_metrics(
        self, server_factory, credentials, tmp_path
    ):
        servers = [server_factory.new() for _ in range(2)]
        metered = ClientPool(
            credentials, timeout=10.0, metrics=MetricsRegistry()
        )
        try:
            dsdb = make_dsdb(metered, [s.address for s in servers])
            keeper = make_keeper(dsdb, tmp_path / "ks", copies=1)
            dsdb.ingest("m/x", b"data", replicas=1)
            keeper.run_passes(1)
            section = metered.metrics.snapshot()["keeper"]
            assert section["ticks"] >= 1
            assert section["records_scanned"] == 1
            assert section["passes_completed"] == 1
        finally:
            metered.close()


@pytest.mark.chaos
class TestSeededKeeperChaos:
    def chaos_soak(self, seed, server_factory, credentials, state_dir):
        """One soak: 4 servers -- one proxied+jittery, one killed mid-run."""
        servers = [server_factory.new() for _ in range(4)]
        proxy = FaultyListener(servers[1].address).start()
        addresses = [servers[0].address, proxy.address,
                     servers[2].address, servers[3].address]

        pool = ClientPool(credentials, timeout=5.0, metrics=MetricsRegistry())
        try:
            dsdb = make_dsdb(pool, addresses, seed=7)
            dsdb._test_servers = servers
            for name, data in PAYLOADS.items():
                dsdb.ingest(name, data, replicas=2)

            # Mid-soak: server 0 dies hard; the proxied server turns
            # jittery with a seeded truncation mix.  Latency stays zero
            # so the fault sequence depends only on byte offsets.
            # Evicting the proxy's warm connections forces the keeper
            # onto fresh -- faulted -- ones.
            servers[0].stop()
            pool.evict(*servers[0].address)
            proxy.plan = FaultPlan.chaos(
                seed,
                reset_rate=0.1,
                truncate_rate=0.25,
                latency=(0.0, 0.0),
                cut_range=(256, 4096),
            )
            pool.evict(*proxy.address)

            keeper = make_keeper(dsdb, state_dir)
            try:
                for _ in range(8):
                    keeper.run_passes(1)
                    try:
                        assert_replication_restored(dsdb, servers[0].address)
                        break
                    except AssertionError:
                        continue
                assert_replication_restored(dsdb, servers[0].address)
                assert keeper.journal.in_flight() == []
                assert_no_half_written_live(dsdb)
                snapshot = keeper.snapshot()
            finally:
                save_artifacts(keeper, event_log=proxy.event_log())
        finally:
            pool.close()
            proxy.stop()
        return {"log": proxy.event_log(), "snapshot": snapshot}

    def test_soak_heals_and_replays_identically(
        self, server_factory, credentials, tmp_path
    ):
        first = self.chaos_soak(
            KEEPER_SEED, server_factory, credentials, tmp_path / "k1"
        )
        second = self.chaos_soak(
            KEEPER_SEED, server_factory, credentials, tmp_path / "k2"
        )
        # Same seed, same workload: the proxy drew the identical fault
        # script for every connection, in order.
        assert first["log"] == second["log"]


@pytest.mark.chaos
class TestSeededBitrotSoak:
    """At-rest corruption under a live keeper, across store kinds.

    One replica of every record is silently rotted on disk (seeded byte
    flips through :meth:`FaultyStore.rot_at_rest`).  The stack must then
    hold three promises at once: no client read ever returns corrupted
    bytes (checksum-verified reads fail over and mark the replica
    damaged), the keeper restores the replication factor by dropping and
    re-replicating every corrupted replica (for CAS stores the damage is
    surfaced by ``scrub(quarantine=True)`` and fed through
    ``ingest_scrub_report``), and a rerun with the same seed replays the
    identical per-server fault event logs.
    """

    COPIES = 2

    def bitrot_soak(self, seed, server_factory, credentials, state_dir):
        kind = os.environ.get("TSS_TEST_STORE", "local")
        servers = [
            server_factory.new(store=f"faulty+{kind}") for _ in range(4)
        ]
        # Reseed each injector by server *index* (never by port: ports
        # are ephemeral) and log by content digest only, so the event
        # logs are comparable across reruns.
        for i, server in enumerate(servers):
            server.backend.store.plan = DiskFaultPlan(
                seed=seed + i, log_paths=False
            )
        pool = ClientPool(credentials, timeout=5.0, metrics=MetricsRegistry())
        try:
            dsdb = make_dsdb(pool, [s.address for s in servers], seed=7)
            for name, data in PAYLOADS.items():
                dsdb.ingest(name, data, replicas=self.COPIES)

            # Seeded corruption: one replica of every record rots on
            # disk, chosen from the record's (placement-ordered, hence
            # reproducible) replica list.
            by_address = {s.address: s for s in servers}
            rng = random.Random(seed)
            rotted = []
            for record in sorted(dsdb.find(), key=lambda r: r["name"]):
                rep = rng.choice(record["replicas"])
                victim = by_address[(rep["host"], rep["port"])]
                victim.backend.store.rot_at_rest(rep["path"])
                rotted.append(record["name"])
            assert len(rotted) == len(PAYLOADS)

            keeper = make_keeper(dsdb, state_dir, copies=self.COPIES)
            scrub_reports = {}
            try:
                if servers[0].backend.store.supports_cas:
                    # The O(1) checksum RPC cannot see at-rest rot on a
                    # CAS server; the byte-level scrub can.  Quarantine
                    # and feed the reports to the keeper as repair work.
                    marked = 0
                    for i, server in enumerate(servers):
                        report = server.backend.store.scrub(quarantine=True)
                        scrub_reports[f"server{i}"] = report
                        marked += keeper.ingest_scrub_report(
                            server.address, report
                        )
                    assert marked == len(rotted)

                # Corrupted bytes never reach a client: verified reads
                # serve pristine data and mark bad replicas damaged.
                for name, payload in PAYLOADS.items():
                    record = dsdb.find(name=name)[0]
                    assert dsdb.fetch(record, verify=True) == payload

                for _ in range(8):
                    keeper.run_passes(1)
                    try:
                        self.assert_pristine_everywhere(dsdb, pool)
                        break
                    except AssertionError:
                        continue
                self.assert_pristine_everywhere(dsdb, pool)
                assert keeper.journal.in_flight() == []
                # and still: no read returns corrupted bytes
                for name, payload in PAYLOADS.items():
                    record = dsdb.find(name=name)[0]
                    assert dsdb.fetch(record, verify=True) == payload
                snapshot = keeper.snapshot()
                assert (
                    snapshot["repairs_committed"]
                    + snapshot["scrub_replicas_marked"]
                ) >= 1
            finally:
                save_artifacts(
                    keeper,
                    event_log=[
                        event
                        for s in servers
                        for event in s.backend.store.plan.event_log()
                    ],
                    scrub_reports=scrub_reports or None,
                )
            logs = tuple(
                s.backend.store.plan.event_log() for s in servers
            )
        finally:
            pool.close()
        return {"logs": logs, "snapshot": snapshot, "rotted": rotted}

    def assert_pristine_everywhere(self, dsdb, pool):
        """RF is back and every live replica serves verified bytes."""
        for record in dsdb.find():
            live = live_replicas(record)
            assert len(live) >= self.COPIES, (
                f"{record['name']}: only {len(live)} live replicas"
            )
            for rep in live:
                client = pool.get(rep["host"], rep["port"])
                data = client.getfile_verified(
                    rep["path"], record["checksum"]
                )
                assert data == PAYLOADS[record["name"]]

    def test_bitrot_soak_heals_and_replays_identically(
        self, server_factory, credentials, tmp_path
    ):
        first = self.bitrot_soak(
            KEEPER_SEED, server_factory, credentials, tmp_path / "b1"
        )
        second = self.bitrot_soak(
            KEEPER_SEED, server_factory, credentials, tmp_path / "b2"
        )
        # Corruption actually happened, on reproducible servers...
        assert sum(len(log) for log in first["logs"]) == len(PAYLOADS)
        # ...and the same seed replayed the identical fault event logs.
        assert first["logs"] == second["logs"]


class TestRescanDeadline:
    def test_stalled_server_cannot_stall_the_rebuild(
        self, server_factory, credentials
    ):
        servers = [server_factory.new() for _ in range(2)]
        # Server 1 hides behind a proxy that goes silent immediately:
        # connections open, then nothing ever comes back -- the failure
        # mode that used to hang rescan_servers forever.  The stalled
        # dial is bounded by the pool's connect timeout; every RPC after
        # it is bounded by the deadline -- together they cap what a
        # silent server can cost the rebuild.
        proxy = FaultyListener(servers[1].address).start()
        pool = ClientPool(credentials, timeout=5.0, metrics=MetricsRegistry())
        try:
            dsdb = make_dsdb(pool, [servers[0].address, proxy.address])
            dsdb.ingest("r/a", b"alpha" * 100, replicas=2)

            proxy.plan = FaultPlan(
                default=FaultScript(cut_after_out=0, action=STALL)
            )
            pool.evict(*proxy.address)  # force fresh (stalled) connections

            deadline = Deadline(10.0)
            report = rescan_servers(
                pool, dsdb.servers, dsdb.volume, deadline=deadline
            )
            # The healthy server was fully scanned; the stalled one was
            # abandoned -- unreachable if the dial itself hung, timed out
            # if it got far enough for an RPC to hit the deadline.
            assert report.servers_timed_out + report.servers_unreachable >= 1
            assert report.replicas_found >= 1
        finally:
            pool.close()
            proxy.stop()

    def test_expired_deadline_short_circuits(self, world):
        dsdb, _ = world
        dsdb.ingest("r/b", b"beta", replicas=1)
        report = rescan_servers(
            dsdb.pool, dsdb.servers, dsdb.volume, deadline=Deadline(0.0)
        )
        assert report.deadline_expired
        assert report.servers_scanned == 0
