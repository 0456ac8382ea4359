"""Unit tests for the keeper's building blocks.

Everything here runs on fakes and a :class:`ManualClock` -- no sockets,
no disk beyond tmp_path -- so the control-loop logic (rate budgets,
journal replay, cursor persistence, catalog membership, target
deprioritization) is exercised deterministically.
"""

import json
import os

import pytest

from repro.catalog.report import ServerReport
from repro.core.dsdb import DSDB, FILE_KIND
from repro.core.placement import RoundRobinPlacement
from repro.db.engine import MetadataDB
from repro.db.query import Query
from repro.gems.keeper import (
    Keeper,
    KeeperConfig,
    RateBudget,
    RepairJournal,
)
from repro.gems.policy import FixedCountPolicy
from repro.gems.replicator import Replicator
from repro.transport.health import BreakerPolicy, HealthRegistry
from repro.util.clock import ManualClock


class FakePool:
    """Just enough of ClientPool for membership/recovery plumbing."""

    def __init__(self, health=None):
        self.health = health
        self.metrics = None

    def try_get(self, host, port):
        return None


class FakeDSDB:
    """Server bookkeeping only; no data path."""

    def __init__(self, servers, health=None):
        self.servers = [(h, int(p)) for h, p in servers]
        self.placement = RoundRobinPlacement(seed=0)
        self.pool = FakePool(health)
        self.data_dir = "/tssdata/test"

    def add_server(self, host, port):
        endpoint = (host, int(port))
        if endpoint not in self.servers:
            self.servers.append(endpoint)


class FakeCatalog:
    def __init__(self):
        self.reports = []

    def try_discover(self):
        return self.reports

    @staticmethod
    def report(host, port, type_="chirp"):
        return ServerReport(
            type=type_, name=f"{host}:{port}", owner="unix:x", host=host, port=port
        )


def make_keeper(tmp_path, servers, catalog=None, clock=None, **cfg):
    return Keeper(
        FakeDSDB(servers),
        FixedCountPolicy(2),
        KeeperConfig(state_dir=str(tmp_path / "keeper"), **cfg),
        catalog=catalog,
        clock=clock or ManualClock(),
    )


class TestRateBudget:
    def test_unmetered_never_sleeps(self):
        clock = ManualClock()
        budget = RateBudget(None, clock)
        assert budget.charge(10**9) == 0.0
        assert clock.now() == 0.0

    def test_first_charge_is_free_then_meters(self):
        clock = ManualClock()
        budget = RateBudget(10.0, clock)
        assert budget.charge(5) == 0.0  # books 0.5s, no wait yet
        assert budget.charge(5) == pytest.approx(0.5)  # pays the booking
        assert clock.now() == pytest.approx(0.5)

    def test_idle_time_is_not_banked(self):
        clock = ManualClock()
        budget = RateBudget(1.0, clock)
        budget.charge(1)
        clock.advance(100.0)  # long idle gap
        assert budget.charge(1) == 0.0  # ...but only one charge is free
        assert budget.charge(1) == pytest.approx(1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateBudget(0.0)

    def test_tracks_throttled_seconds(self):
        clock = ManualClock()
        budget = RateBudget(2.0, clock)
        budget.charge(4)
        budget.charge(4)
        assert budget.throttled_seconds == pytest.approx(2.0)


class TestRepairJournal:
    def test_intent_without_commit_is_in_flight(self, tmp_path):
        journal = RepairJournal(str(tmp_path / "j"))
        rep = {"host": "a", "port": 1, "path": "/p", "state": "ok"}
        seq1 = journal.intent("r1", rep)
        seq2 = journal.intent("r2", rep)
        journal.commit(seq1)
        pending = journal.in_flight()
        assert [e["seq"] for e in pending] == [seq2]
        assert pending[0]["record_id"] == "r2"

    def test_abort_also_resolves(self, tmp_path):
        journal = RepairJournal(str(tmp_path / "j"))
        seq = journal.intent("r", {"host": "a", "port": 1, "path": "/p"})
        journal.abort(seq, "copy failed")
        assert journal.in_flight() == []

    def test_sequence_numbers_survive_reopen(self, tmp_path):
        path = str(tmp_path / "j")
        first = RepairJournal(path)
        seq = first.intent("r", {"host": "a", "port": 1, "path": "/p"})
        first.close()
        second = RepairJournal(path)
        assert second.intent("r2", {"host": "b", "port": 2, "path": "/q"}) > seq

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RepairJournal(path)
        seq = journal.intent("r", {"host": "a", "port": 1, "path": "/p"})
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 99, "op": "comm')  # crash mid-append
        reopened = RepairJournal(path)
        assert [e["seq"] for e in reopened.in_flight()] == [seq]
        # Journaled after the torn reopen: must survive the next one.
        later = reopened.intent("r2", {"host": "b", "port": 2, "path": "/q"})
        reopened.close()
        again = RepairJournal(path)
        assert [e["seq"] for e in again.in_flight()] == [seq, later]
        again.close()


class TestCursorPersistence:
    def test_cursor_round_trips_between_keepers(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1)])
        keeper._cursor = "record-0042"
        keeper._counters["passes_completed"] = 3
        keeper._save_cursor()
        reborn = make_keeper(tmp_path, [("a", 1)])
        assert reborn.cursor == "record-0042"
        assert reborn.snapshot()["passes_completed"] == 3

    def test_corrupt_cursor_file_starts_fresh(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1)])
        with open(keeper._cursor_path, "w", encoding="utf-8") as f:
            f.write("not json{")
        reborn = make_keeper(tmp_path, [("a", 1)])
        assert reborn.cursor is None

    def test_cursor_file_is_json(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1)])
        keeper._cursor = "abc"
        keeper._save_cursor()
        with open(keeper._cursor_path, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc == {"cursor": "abc", "passes": 0}


class TestMembership:
    LIFETIME = 900.0

    def test_servers_absent_past_lifetime_become_suspect(self, tmp_path):
        clock = ManualClock()
        catalog = FakeCatalog()
        catalog.reports = [FakeCatalog.report("a", 1)]
        keeper = make_keeper(
            tmp_path, [("a", 1), ("b", 2)], catalog=catalog, clock=clock,
            catalog_lifetime=self.LIFETIME,
        )
        assert keeper.refresh_membership() == set()  # grace stamp for b
        clock.advance(self.LIFETIME + 1)
        assert keeper.refresh_membership() == {("b", 2)}
        # ...and a reappearance clears the suspicion.
        catalog.reports.append(FakeCatalog.report("b", 2))
        assert keeper.refresh_membership() == set()

    def test_new_catalog_server_is_admitted(self, tmp_path):
        catalog = FakeCatalog()
        catalog.reports = [
            FakeCatalog.report("a", 1),
            FakeCatalog.report("c", 3),
            FakeCatalog.report("db", 9, type_="database"),  # not a file server
        ]
        keeper = make_keeper(tmp_path, [("a", 1)], catalog=catalog)
        keeper.refresh_membership()
        assert ("c", 3) in keeper.dsdb.servers
        assert ("db", 9) not in keeper.dsdb.servers
        assert keeper.snapshot()["servers_admitted"] == 1

    def test_unreachable_catalog_keeps_previous_view(self, tmp_path):
        clock = ManualClock()
        catalog = FakeCatalog()
        catalog.reports = [FakeCatalog.report("a", 1), FakeCatalog.report("b", 2)]
        keeper = make_keeper(
            tmp_path, [("a", 1), ("b", 2)], catalog=catalog, clock=clock,
            catalog_lifetime=self.LIFETIME,
        )
        keeper.refresh_membership()
        catalog.reports = None  # catalog outage, not server absence
        clock.advance(self.LIFETIME + 1)

        def dead_discover():
            return None

        catalog.try_discover = dead_discover
        # Note: last_seen still ages, but absence of *evidence* must not
        # condemn servers -- both were seen before the outage began, so
        # they age out only because nothing refreshed them.  The keeper
        # still treats that as suspicion (conservative), but crucially it
        # does not crash or forget the server set.
        suspects = keeper.refresh_membership()
        assert keeper.dsdb.servers == [("a", 1), ("b", 2)]
        assert suspects == {("a", 1), ("b", 2)}

    def test_no_catalog_means_static_membership(self, tmp_path):
        clock = ManualClock()
        keeper = make_keeper(tmp_path, [("a", 1)], clock=clock)
        clock.advance(10 * self.LIFETIME)
        assert keeper.refresh_membership() == set()


class TestTargetSelection:
    def record(self, *endpoints):
        return {
            "id": "r1",
            "replicas": [
                {"host": h, "port": p, "path": "/x", "state": "ok"}
                for h, p in endpoints
            ],
        }

    def test_skips_occupied_and_avoided(self):
        dsdb = FakeDSDB([("a", 1), ("b", 2), ("c", 3)])
        replicator = Replicator(dsdb, FixedCountPolicy(2))
        target = replicator.choose_target(
            self.record(("a", 1)), avoid=frozenset({("b", 2)})
        )
        assert target == ("c", 3)

    def test_open_breaker_endpoints_are_skipped(self):
        clock = ManualClock()
        health = HealthRegistry(BreakerPolicy(failure_threshold=1), clock)
        health.for_endpoint("b", 2).record_failure()  # breaker open
        dsdb = FakeDSDB([("a", 1), ("b", 2)])
        replicator = Replicator(dsdb, FixedCountPolicy(2), health=health)
        assert replicator.choose_target(self.record()) in {("a", 1)}
        # Once the breaker closes again, b is eligible.
        health.for_endpoint("b", 2).record_success()
        choices = {replicator.choose_target(self.record()) for _ in range(8)}
        assert ("b", 2) in choices

    def test_repeat_offenders_sink_to_the_back(self):
        dsdb = FakeDSDB([("a", 1), ("b", 2), ("c", 3)])
        replicator = Replicator(dsdb, FixedCountPolicy(2))
        replicator.note_target_failure(("a", 1))
        for _ in range(8):
            assert replicator.choose_target(self.record()) != ("a", 1)
        # When every alternative also failed, the least-failed tier wins.
        replicator.note_target_failure(("b", 2))
        replicator.note_target_failure(("b", 2))
        replicator.note_target_failure(("c", 3))
        replicator.note_target_failure(("c", 3))
        for _ in range(8):
            assert replicator.choose_target(self.record()) == ("a", 1)
        # A success wipes the slate.
        replicator.note_target_success(("b", 2))
        for _ in range(8):
            assert replicator.choose_target(self.record()) == ("b", 2)

    def test_none_when_everything_is_excluded(self):
        dsdb = FakeDSDB([("a", 1)])
        replicator = Replicator(dsdb, FixedCountPolicy(2))
        assert replicator.choose_target(self.record(("a", 1))) is None


class TestConfigValidation:
    def test_rejects_bad_batch(self, tmp_path):
        with pytest.raises(ValueError):
            KeeperConfig(state_dir=str(tmp_path), scan_batch=0)

    def test_rejects_bad_repair_cap(self, tmp_path):
        with pytest.raises(ValueError):
            KeeperConfig(state_dir=str(tmp_path), max_repairs_per_tick=0)

    def test_state_dir_is_created(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1)])
        assert os.path.isdir(os.path.dirname(keeper._cursor_path))


class TestDeadServerHysteresis:
    """Unreachable != dead: only consecutive full passes declare death."""

    def _fold(self, keeper, unreachable=(), answered=()):
        keeper._pass_unreachable |= set(unreachable)
        keeper._pass_answered |= set(answered)
        keeper._fold_unreachable_pass()

    def test_one_unreachable_pass_is_not_dead(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)])
        self._fold(keeper, unreachable=[("b", 2)], answered=[("a", 1)])
        assert keeper.dead == set()

    def test_consecutive_passes_declare_dead(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)])
        self._fold(keeper, unreachable=[("b", 2)], answered=[("a", 1)])
        self._fold(keeper, unreachable=[("b", 2)], answered=[("a", 1)])
        assert keeper.dead == {("b", 2)}
        assert ("b", 2) in keeper._avoid()

    def test_an_answer_resets_the_streak(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)])
        self._fold(keeper, unreachable=[("b", 2)])
        self._fold(keeper, answered=[("b", 2)])  # came back mid-count
        self._fold(keeper, unreachable=[("b", 2)])
        assert keeper.dead == set()

    def test_answer_in_same_pass_outranks_unreachable(self, tmp_path):
        # One timed-out probe plus one authoritative answer in a single
        # pass means the server is alive.
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)])
        for _ in range(3):
            self._fold(keeper, unreachable=[("b", 2)], answered=[("b", 2)])
        assert keeper.dead == set()

    def test_fresh_catalog_report_is_proof_of_life(self, tmp_path):
        catalog = FakeCatalog()
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)], catalog=catalog)
        self._fold(keeper, unreachable=[("b", 2)])
        self._fold(keeper, unreachable=[("b", 2)])
        assert keeper.dead == {("b", 2)}
        catalog.reports = [FakeCatalog.report("b", 2)]
        keeper.refresh_membership()
        assert keeper.dead == set()
        assert ("b", 2) not in keeper._unreachable_streaks

    def test_config_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            KeeperConfig(state_dir=str(tmp_path), dead_after_passes=0)

    def test_configurable_patience(self, tmp_path):
        keeper = make_keeper(tmp_path, [("a", 1), ("b", 2)], dead_after_passes=3)
        self._fold(keeper, unreachable=[("b", 2)])
        self._fold(keeper, unreachable=[("b", 2)])
        assert keeper.dead == set()
        self._fold(keeper, unreachable=[("b", 2)])
        assert keeper.dead == {("b", 2)}


class _AuditDB:
    def __init__(self):
        self.updates = []

    def update(self, rid, fields):
        self.updates.append((rid, dict(fields)))
        return {"id": rid, **fields}


class _AuditDSDB:
    """Scripted verify_replica verdicts keyed by endpoint."""

    def __init__(self, verdicts):
        self.verdicts = verdicts
        self.db = _AuditDB()
        self.pool = FakePool()

    def verify_replica(self, record, replica):
        return self.verdicts[(replica["host"], int(replica["port"]))]


def _audit_record(*endpoints):
    return {
        "id": "r1",
        "replicas": [
            {"host": h, "port": p, "path": "/d/x", "state": s}
            for h, p, s in endpoints
        ],
    }


class TestAuditorUnreachableSemantics:
    """Absence of an answer is not evidence of absence."""

    def _audit(self, verdicts, record):
        from repro.gems.auditor import Auditor

        dsdb = _AuditDSDB(verdicts)
        auditor = Auditor(dsdb, mode="bytes")
        return auditor.audit_records([record]), dsdb

    def test_unreachable_leaves_state_untouched(self):
        report, dsdb = self._audit(
            {("a", 1): "ok", ("b", 2): "unreachable"},
            _audit_record(("a", 1, "ok"), ("b", 2, "ok")),
        )
        assert report.unreachable == 1
        assert report.missing == 0
        assert dsdb.db.updates == []  # nothing written on an inconclusive probe
        assert report.unreachable_endpoints == {("b", 2)}
        assert report.answered_endpoints == {("a", 1)}

    def test_missing_is_authoritative_and_recorded(self):
        report, dsdb = self._audit(
            {("a", 1): "ok", ("b", 2): "missing"},
            _audit_record(("a", 1, "ok"), ("b", 2, "ok")),
        )
        assert report.missing == 1
        [(rid, fields)] = dsdb.db.updates
        states = {(r["host"], r["port"]): r["state"] for r in fields["replicas"]}
        assert states[("b", 2)] == "missing"
        assert states[("a", 1)] == "ok"

    def test_fully_unreachable_record_is_not_lost(self):
        # Every server down (a reboot wave) must not read as data loss.
        report, dsdb = self._audit(
            {("a", 1): "unreachable", ("b", 2): "unreachable"},
            _audit_record(("a", 1, "ok"), ("b", 2, "ok")),
        )
        assert report.lost_records == []
        assert report.unreachable == 2
        assert dsdb.db.updates == []


class _CountingDSDB(DSDB):
    """A real DSDB over an in-memory database, with the data path faked:
    every replica audits ok and a copy moves no bytes.  Counts the rows
    its ``query`` returns."""

    def __init__(self, servers):
        super().__init__(MetadataDB(None), FakePool(), servers)
        self.query_rows = 0

    def query(self, query, limit=None):
        rows = super().query(query, limit)
        self.query_rows += len(rows)
        return rows

    def verify_replica(self, record, replica):
        return "ok"

    def copy_replica(self, record, endpoint, path=None):
        return {"host": endpoint[0], "port": endpoint[1], "path": path, "state": "ok"}


class TestRepairPlanning:
    N = 200

    def test_one_pass_reads_each_record_once_in_priority_order(self, tmp_path):
        dsdb = _CountingDSDB([("a", 1), ("b", 2), ("c", 3)])
        for i in range(self.N):
            dsdb.db.insert({
                "tss_kind": FILE_KIND,
                "size": i,
                "replicas": [{"host": "a", "port": 1, "path": f"/d/{i}", "state": "ok"}],
            })
        config = KeeperConfig(state_dir=str(tmp_path / "keeper"), scan_batch=16)
        keeper = Keeper(dsdb, FixedCountPolicy(2), config, clock=ManualClock())
        ticks = keeper.run_passes(1)
        # Planning each tick over every record read N rows per tick.
        assert dsdb.query_rows <= self.N + 2 * config.scan_batch
        # FixedCountPolicy repairs the biggest under-replicated records
        # first, across the whole pass, not batch by batch.
        repaired = sum(t.committed for t in ticks)
        assert repaired == (len(ticks) - 1) * config.max_repairs_per_tick
        files = dsdb.db.query(Query.where(tss_kind=FILE_KIND))
        copies = {r["size"]: len(r["replicas"]) for r in files}
        assert {size for size, n in copies.items() if n == 2} == set(
            range(self.N - repaired, self.N)
        )
