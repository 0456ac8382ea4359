"""The keeper: a self-healing anti-entropy daemon over a DSDB.

The paper's GEMS deployment promises *long-lived* preservation: "two
active components work in concert to maintain replicas", and the system
as a whole must outlive any single server -- or any single run of its
own maintenance processes.  The :class:`~repro.gems.auditor.Auditor`
and the :class:`~repro.gems.replicator.Replicator`'s target chooser
provide the mechanism; this module, the only audit-and-repair loop,
makes them *continuous* and *crash-safe*:

- **Incremental scanning.**  A persistent cursor
  (``keeper.cursor``) records the last audited record id, so a keeper
  restarted -- or merely rate-limited -- resumes its pass where it
  stopped instead of re-auditing from the top.  Scan and repair work are
  metered by :class:`RateBudget` (records/sec and repair bytes/sec), so
  healing trickles along under foreground traffic instead of starving
  it.

- **Catalog-driven membership.**  The keeper subscribes to catalog
  listings: servers newly reported are admitted as repair targets, and
  servers absent from every listing past the catalog lifetime become
  *suspect* -- the keeper proactively re-replicates records whose copies
  sit on them, and never chooses them as targets, so a decommissioned
  or dying server drains before it takes data with it.

- **Crash-safe repair.**  Every copy is bracketed by an append-only
  repair journal (``keeper.journal``): an ``intent`` entry (with the
  pre-generated destination path) before any byte moves, a ``commit``
  only after the copy is attached to its record, and verify-after-write
  via the server-side ``checksum`` RPC in between.  A keeper that
  crashes mid-copy leaves either a garbage-collectable orphan (intent,
  no commit, checksum bad/absent) or a committed replica (checksum ok
  -- the recovery attaches and commits it); never a half-written copy
  counted as live.

- **Last copy kept.**  A repair never drops a record's only replica,
  however bad its audit verdict: the record stays the authority and
  keeps its last pointer to the data, which is re-audited on every pass
  and becomes a repair source again once its server serves it intact.

- **Health-integrated targets.**  Target selection goes through the
  :class:`~repro.gems.replicator.Replicator`'s health-aware chooser, so
  endpoints with open circuit breakers are skipped rather than failed
  against on every pass.

The clock is injectable throughout, so the whole control loop runs
deterministically under :class:`~repro.util.clock.ManualClock` in tests.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.core.dsdb import DSDB, FILE_KIND, live_replicas
from repro.core.stubs import unique_data_name
from repro.db.query import Query
from repro.gems.auditor import Auditor
from repro.gems.policy import RecordSummary, ReplicationPolicy, plan_drops
from repro.gems.replicator import Replicator
from repro.util.clock import Clock, MonotonicClock
from repro.util.errors import ChirpError
from repro.util.jsonlog import RecordLog

__all__ = ["Keeper", "KeeperConfig", "KeeperTick", "RateBudget", "RepairJournal"]

log = logging.getLogger("repro.gems.keeper")

JOURNAL_NAME = "keeper.journal"
CURSOR_NAME = "keeper.cursor"

OP_INTENT = "intent"
OP_COMMIT = "commit"
OP_ABORT = "abort"


@dataclass
class KeeperConfig:
    """Tuning knobs for one keeper.

    :ivar state_dir: directory holding the cursor file and repair
        journal; created if missing.  This is the keeper's only local
        state -- everything else is rebuilt from the DSDB.
    :ivar scan_batch: records audited per tick (one cursor advance).
    :ivar records_per_sec: audit rate budget; None = unmetered.
    :ivar repair_bytes_per_sec: copy rate budget; None = unmetered.
    :ivar max_repairs_per_tick: copies attempted per tick, so one tick's
        repair work is bounded no matter how much damage a pass finds.
    :ivar catalog_lifetime: seconds a server may be absent from catalog
        listings before the keeper treats it as suspect (mirrors the
        catalog's own entry lifetime).
    :ivar tick_interval: sleep between ticks in the background loop.
    :ivar audit_mode: "bytes", "key" or "location" (see
        :class:`Auditor`).  "key" turns each replica check into an O(1)
        metadata comparison on CAS servers.
    :ivar dead_after_passes: full scan passes a server must stay
        unreachable before the keeper declares it dead and starts
        treating its replicas as missing.  The hysteresis that separates
        "rebooting" (no action beyond proactive copies) from "gone"
        (drop and re-replicate); one inconclusive probe never costs a
        replica.
    """

    state_dir: str
    scan_batch: int = 64
    records_per_sec: Optional[float] = None
    repair_bytes_per_sec: Optional[float] = None
    max_repairs_per_tick: int = 8
    catalog_lifetime: float = 900.0
    tick_interval: float = 1.0
    audit_mode: str = "bytes"
    dead_after_passes: int = 2

    def __post_init__(self):
        if self.scan_batch < 1:
            raise ValueError("scan_batch must be >= 1")
        if self.max_repairs_per_tick < 1:
            raise ValueError("max_repairs_per_tick must be >= 1")
        if self.dead_after_passes < 1:
            raise ValueError("dead_after_passes must be >= 1")


class RateBudget:
    """A smooth rate limiter: each unit of work books time at ``rate``.

    Deficit scheduling rather than token buckets: ``charge(n)`` books
    ``n / rate`` seconds of exclusive budget and sleeps until the booked
    window opens.  Work is never refused, only delayed, which is the
    right shape for anti-entropy (healing must always make progress,
    just never faster than the operator allowed).  A ``rate`` of None
    disables metering.
    """

    def __init__(self, rate: Optional[float], clock: Optional[Clock] = None):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        self.rate = rate
        self.clock = clock or MonotonicClock()
        self._ready_at = self.clock.now()
        self.throttled_seconds = 0.0

    def charge(self, units: float) -> float:
        """Meter ``units`` of work; returns the seconds actually slept."""
        if self.rate is None or units <= 0:
            return 0.0
        now = self.clock.now()
        wait = max(0.0, self._ready_at - now)
        self._ready_at = max(now, self._ready_at) + units / self.rate
        if wait > 0:
            self.clock.sleep(wait)
            self.throttled_seconds += wait
        return wait


class RepairJournal:
    """Append-only intent/commit journal for in-flight repair copies.

    One JSON object per line: ``{"seq", "op", "record_id", "replica",
    "note"}``.  Every append is flushed and fsynced before the copy it
    brackets proceeds, so the journal is always at least as current as
    the data servers.  ``in_flight()`` replays the file and returns
    intents with no matching commit/abort -- exactly the copies a crash
    may have left half-done.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._lock = threading.Lock()
        self._log = RecordLog(path)
        self._seq = max((e.get("seq", 0) for e in self._log.records()), default=0) + 1

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def intent(self, record_id: str, replica: dict) -> int:
        """Journal a copy about to start; returns its sequence number."""
        with self._lock:
            seq = self._seq
            self._log.append(
                {
                    "seq": seq,
                    "op": OP_INTENT,
                    "record_id": record_id,
                    "replica": dict(replica),
                }
            )
            self._seq += 1
            return seq

    def commit(self, seq: int, note: str = "") -> None:
        with self._lock:
            self._log.append({"seq": seq, "op": OP_COMMIT, "note": note})

    def abort(self, seq: int, note: str = "") -> None:
        with self._lock:
            self._log.append({"seq": seq, "op": OP_ABORT, "note": note})

    def in_flight(self) -> list[dict]:
        """Intent entries with no commit/abort, oldest first."""
        intents: dict[int, dict] = {}
        for entry in self._log.records():
            seq = entry.get("seq")
            if entry.get("op") == OP_INTENT:
                intents[seq] = entry
            elif entry.get("op") in (OP_COMMIT, OP_ABORT):
                intents.pop(seq, None)
        return [intents[seq] for seq in sorted(intents)]


@dataclass
class KeeperTick:
    """What one keeper tick did."""

    scanned: int = 0
    missing: int = 0
    damaged: int = 0
    unreachable: int = 0
    dropped: int = 0
    committed: int = 0
    aborted: int = 0
    proactive: int = 0
    wrapped: bool = False
    suspects: list = field(default_factory=list)
    draining: list = field(default_factory=list)
    admitted: list = field(default_factory=list)


class Keeper:
    """The long-running self-healing daemon (see module docstring).

    :param dsdb: the database under preservation.
    :param policy: replication policy driving repair planning.
    :param catalog: optional :class:`~repro.catalog.client.CatalogClient`
        for membership; without one the server set is static.
    :param config: see :class:`KeeperConfig`.
    :param clock: injectable time source for rates, membership aging and
        the background loop.
    :param metrics: a :class:`~repro.transport.metrics.MetricsRegistry`
        to surface keeper counters under a ``"keeper"`` snapshot
        section; defaults to the DSDB pool's registry.
    """

    def __init__(
        self,
        dsdb: DSDB,
        policy: ReplicationPolicy,
        config: KeeperConfig,
        catalog=None,
        clock: Optional[Clock] = None,
        metrics=None,
    ):
        self.dsdb = dsdb
        self.config = config
        self.catalog = catalog
        self.clock = clock or MonotonicClock()
        self.auditor = Auditor(dsdb, mode=config.audit_mode)
        self.replicator = Replicator(dsdb, policy)
        os.makedirs(config.state_dir, exist_ok=True)
        self.journal = RepairJournal(os.path.join(config.state_dir, JOURNAL_NAME))
        self._cursor_path = os.path.join(config.state_dir, CURSOR_NAME)
        self._cursor: Optional[str] = None
        self._load_cursor()
        self.scan_budget = RateBudget(config.records_per_sec, self.clock)
        self.repair_budget = RateBudget(config.repair_bytes_per_sec, self.clock)
        # endpoint -> last time it appeared in a catalog listing (this
        # clock); servers known before any listing get a grace stamp.
        self._last_seen: dict[tuple, float] = {}
        self.suspects: set[tuple] = set()
        # Servers advertising graceful drain in their catalog report:
        # alive (they refresh _last_seen) but about to go -- never a
        # repair target, and replicas on them get proactive copies.
        self.draining: set[tuple] = set()
        # Dead-server hysteresis: endpoints that answered no audit probe
        # accumulate one strike per *completed pass*; at
        # config.dead_after_passes strikes the server is declared dead
        # and its replicas become authoritatively missing.  One answered
        # probe clears the strikes (and the declaration).
        self._unreachable_streaks: dict[tuple, int] = {}
        self._pass_unreachable: set[tuple] = set()
        self._pass_answered: set[tuple] = set()
        self.dead: set[tuple] = set()
        # Repair planning state for the current pass: every file record's
        # summary, read with one query at the pass's first repair and kept
        # current from each batch's re-fetched records and each commit,
        # so a tick plans without re-reading the whole database.
        self._summaries: Optional[dict[str, RecordSummary]] = None
        self._counters = {
            "ticks": 0,
            "passes_completed": 0,
            "records_scanned": 0,
            "replicas_checked": 0,
            "missing": 0,
            "damaged": 0,
            "unreachable": 0,
            "dropped": 0,
            "journal_deferred": 0,
            "repairs_committed": 0,
            "repairs_aborted": 0,
            "proactive_copies": 0,
            "journal_recovered": 0,
            "journal_garbage_collected": 0,
            "servers_admitted": 0,
            "scrub_reports_ingested": 0,
            "scrub_replicas_marked": 0,
        }
        self._counters["passes_completed"] = self._restored_passes
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = metrics if metrics is not None else getattr(
            dsdb.pool, "metrics", None
        )
        if registry is not None:
            registry.attach_section("keeper", self)
        self.recover()

    # -- state files ----------------------------------------------------

    def _load_cursor(self) -> None:
        try:
            with open(self._cursor_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (FileNotFoundError, ValueError):
            self._restored_passes = 0
            return
        self._cursor = doc.get("cursor")
        self._restored_passes = int(doc.get("passes", 0))

    def _save_cursor(self) -> None:
        tmp = self._cursor_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "cursor": self._cursor,
                    "passes": self._counters["passes_completed"],
                },
                f,
            )
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._cursor_path)

    @property
    def cursor(self) -> Optional[str]:
        return self._cursor

    # -- crash recovery -------------------------------------------------

    def recover(self) -> int:
        """Resolve every in-flight journaled copy; returns how many.

        For each intent without a commit: if the destination copy
        verifies against the record checksum it is attached (if not
        already) and committed -- the crash lost only the bookkeeping;
        otherwise the copy (whole, torn, or absent) is unlinked
        best-effort, detached if attached, and the intent aborted.  The
        invariant either way: no half-written copy is ever counted live.

        A destination that cannot be *asked* resolves nothing: the
        intent stays in flight for a later pass, because dropping an
        attached replica on an unreachable-but-healthy server would
        manufacture data loss out of a network blip.
        """
        resolved = 0
        for entry in self.journal.in_flight():
            seq = entry["seq"]
            replica = entry["replica"]
            record = self.dsdb.get(entry["record_id"])
            state = (
                self.dsdb.verify_replica(record, replica)
                if record is not None
                else "missing"
            )
            if state == "unreachable":
                self._counters["journal_deferred"] += 1
                continue
            attached = record is not None and any(
                (r["host"], r["port"], r["path"])
                == (replica["host"], replica["port"], replica["path"])
                for r in record.get("replicas", [])
            )
            if state == "ok":
                if not attached:
                    self.dsdb.attach_replica(record, replica)
                self.journal.commit(seq, "recovered")
                self._counters["journal_recovered"] += 1
            else:
                if attached:
                    self.dsdb.drop_replica(record, replica)
                else:
                    client = self.dsdb.pool.try_get(
                        replica["host"], replica["port"]
                    )
                    if client is not None:
                        try:
                            client.unlink(replica["path"])
                        except ChirpError:
                            pass  # absent, or the server will be audited later
                self.journal.abort(seq, "crash-recovery gc")
                self._counters["journal_garbage_collected"] += 1
            resolved += 1
        if resolved:
            log.info(
                "journal recovery: %d in-flight copies resolved "
                "(%d recovered, %d garbage-collected)",
                resolved,
                self._counters["journal_recovered"],
                self._counters["journal_garbage_collected"],
            )
        return resolved

    # -- membership -----------------------------------------------------

    def refresh_membership(self, tick: Optional[KeeperTick] = None) -> set:
        """Update the server view from catalog listings.

        Newly listed file servers join the DSDB placement set; known
        servers missing from every listing for longer than
        ``catalog_lifetime`` become suspect.  With no catalog (or none
        reachable) the previous view stands -- membership decisions are
        never made on a communication failure alone.
        """
        now = self.clock.now()
        known = {tuple(ep) for ep in self.dsdb.servers}
        for ep in known:
            self._last_seen.setdefault(ep, now)
        if self.catalog is not None:
            reports = self.catalog.try_discover()
            if reports is not None:
                draining = set()
                for report in reports:
                    if report.type != "chirp":
                        continue
                    ep = (report.host, int(report.port))
                    self._last_seen[ep] = now
                    # A fresh catalog report is proof of life: clear any
                    # dead-server declaration.  Without this, a server
                    # whose replicas were all dropped is never audited
                    # again and would stay "dead" (and excluded as a
                    # repair target) forever after it comes back.
                    self._unreachable_streaks.pop(ep, None)
                    self.dead.discard(ep)
                    if getattr(report, "draining", False):
                        draining.add(ep)
                    if ep not in known:
                        self.dsdb.add_server(*ep)
                        known.add(ep)
                        self._counters["servers_admitted"] += 1
                        if tick is not None:
                            tick.admitted.append(ep)
                        log.info("admitted new server %s:%d", *ep)
                # Only a fresh listing updates the drain view; like the
                # suspect set, it is never changed on a communication
                # failure alone.
                self.draining = draining
        lifetime = self.config.catalog_lifetime
        self.suspects = {
            ep for ep in known if now - self._last_seen[ep] > lifetime
        }
        if tick is not None:
            tick.suspects = sorted(self.suspects)
            tick.draining = sorted(self.draining)
        return self.suspects

    # -- scrub ingestion ------------------------------------------------

    def ingest_scrub_report(self, endpoint: tuple, report: dict) -> int:
        """Turn one server's store scrub report into repair work items.

        A content-addressed store's ``scrub()`` walks objects at rest
        and reports keys whose bytes no longer hash to their name (the
        only audit that catches bitrot the O(1) ``checksum`` RPC is
        blind to).  This method closes the loop: every replica on
        ``endpoint`` whose record checksum is a corrupt or quarantined
        key is marked ``damaged``, so the next repair pass drops it
        (:func:`~repro.gems.policy.plan_drops`) and re-replicates from
        an intact copy.  Returns how many replicas were marked.
        """
        host, port = endpoint[0], int(endpoint[1])
        bad_keys = list(report.get("corrupt", ())) + list(
            report.get("quarantined", ())
        )
        marked = 0
        for key in dict.fromkeys(bad_keys):
            for record in self.dsdb.find(checksum=key):
                for rep in record.get("replicas", []):
                    if (rep["host"], int(rep["port"])) != (host, port):
                        continue
                    if rep.get("state") == "damaged":
                        continue
                    self.dsdb.mark_replica(record, rep, "damaged")
                    marked += 1
        self._counters["scrub_reports_ingested"] += 1
        self._counters["scrub_replicas_marked"] += marked
        if marked:
            log.info(
                "scrub report from %s:%d: %d replicas marked damaged",
                host, port, marked,
            )
        return marked

    # -- the tick -------------------------------------------------------

    def tick(self) -> KeeperTick:
        """One bounded slice of anti-entropy work."""
        tick = KeeperTick()
        self._counters["ticks"] += 1
        self.refresh_membership(tick)
        batch = self.dsdb.scan_records(
            after=self._cursor, limit=self.config.scan_batch
        )
        if not batch:
            # End of the keyspace: the pass is complete; the next tick
            # starts over from the top.
            tick.wrapped = True
            self._cursor = None
            self._summaries = None
            self._counters["passes_completed"] += 1
            self._fold_unreachable_pass()
            self._save_cursor()
            return tick
        self.scan_budget.charge(len(batch))
        report = self.auditor.audit_records(batch)
        self._pass_unreachable |= report.unreachable_endpoints
        self._pass_answered |= report.answered_endpoints
        tick.scanned = report.records
        tick.missing = report.missing
        tick.damaged = report.damaged
        tick.unreachable = report.unreachable
        self._counters["records_scanned"] += report.records
        self._counters["replicas_checked"] += report.replicas_checked
        self._counters["missing"] += report.missing
        self._counters["damaged"] += report.damaged
        self._counters["unreachable"] += report.unreachable
        self._cursor = batch[-1]["id"]
        self._save_cursor()
        self._repair(batch, tick)
        return tick

    def _fold_unreachable_pass(self) -> None:
        """End-of-pass bookkeeping for the dead-server hysteresis."""
        for endpoint in self._pass_answered:
            self._unreachable_streaks.pop(endpoint, None)
        for endpoint in self._pass_unreachable - self._pass_answered:
            self._unreachable_streaks[endpoint] = (
                self._unreachable_streaks.get(endpoint, 0) + 1
            )
        dead = {
            endpoint
            for endpoint, strikes in self._unreachable_streaks.items()
            if strikes >= self.config.dead_after_passes
        }
        for endpoint in sorted(dead - self.dead):
            log.warning(
                "server %s:%d unreachable for %d passes: declared dead",
                endpoint[0], endpoint[1], self.config.dead_after_passes,
            )
        self.dead = dead
        self._pass_unreachable = set()
        self._pass_answered = set()

    def _repair(self, batch: list[dict], tick: KeeperTick) -> None:
        budget_left = self.config.max_repairs_per_tick
        if self._summaries is None:
            records = self.dsdb.query(Query.where(tss_kind=FILE_KIND))
            self._summaries = {
                r["id"]: RecordSummary.from_record(r) for r in records
            }
        summaries = self._summaries
        # Drop what the audit just noted (refetch: states changed above).
        for stale in batch:
            record = self.dsdb.get(stale["id"])
            if record is None:
                summaries.pop(stale["id"], None)
                continue
            # Replicas on declared-dead servers become authoritatively
            # missing -- the hysteresis already separated "gone" from
            # "rebooting".
            if self.dead:
                for rep in list(record.get("replicas", [])):
                    endpoint = (rep["host"], int(rep["port"]))
                    if endpoint in self.dead and rep.get("state", "ok") == "ok":
                        record = self.dsdb.mark_replica(record, rep, "missing")
            for bad in plan_drops(record):
                # Last-copy guard: never forget the final pointer to the
                # data.  A record with zero replicas is unrepairable, so
                # a bad last copy stays in the record (and keeps being
                # re-audited) until a repair restores redundancy or the
                # server comes back intact.
                if len(record.get("replicas", [])) <= 1:
                    break
                record = self.dsdb.drop_replica(record, bad)
                tick.dropped += 1
                self._counters["dropped"] += 1
            summaries[record["id"]] = RecordSummary.from_record(record)
        # Proactive drain: records in this batch with live copies on
        # suspect or draining servers get one extra copy on healthy
        # ground now, before those servers finish dying.
        if self.suspects or self.draining:
            for stale in batch:
                if budget_left <= 0:
                    break
                record = self.dsdb.get(stale["id"])
                if record is not None and self._proactive_copy(record, tick):
                    budget_left -= 1
        # Policy-planned repairs, highest priority first.
        plan = self.replicator.policy.plan_additions(
            list(summaries.values()), len(self.dsdb.servers)
        )
        if plan:
            log.info(
                "repair plan: %d under-replicated records (avoid=%s)",
                len(plan), sorted("%s:%d" % ep for ep in self._avoid()),
            )
        for record_id in plan:
            if budget_left <= 0:
                break
            record = self.dsdb.get(record_id)
            if record is None:
                summaries.pop(record_id, None)
                continue
            if not live_replicas(record):
                continue
            target = self.replicator.choose_target(
                record, avoid=self._avoid()
            )
            if target is None:
                log.info("no repair target for record %s", record_id)
                continue
            self._journaled_copy(record, target, tick)
            budget_left -= 1

    def _avoid(self) -> frozenset:
        """Endpoints repair must not target: suspect, draining or dead."""
        return frozenset(self.suspects | self.draining | self.dead)

    def _proactive_copy(self, record: dict, tick: KeeperTick) -> bool:
        """One extra copy off suspect/draining ground; True when an attempt
        was made (success or failure -- either way it consumed repair
        budget)."""
        doomed = self.suspects | self.draining | self.dead
        live = live_replicas(record)
        if not any((r["host"], r["port"]) in doomed for r in live):
            return False
        target = self.replicator.choose_target(record, avoid=self._avoid())
        if target is None:
            return False
        if self._journaled_copy(record, target, tick):
            tick.proactive += 1
            self._counters["proactive_copies"] += 1
        return True

    def _journaled_copy(
        self, record: dict, target: tuple, tick: KeeperTick
    ) -> bool:
        """One intent → copy → verify → attach → commit cycle."""
        path = self.dsdb.data_dir + "/" + unique_data_name()
        pending = {
            "host": target[0],
            "port": int(target[1]),
            "path": path,
            "state": "ok",
        }
        seq = self.journal.intent(record["id"], pending)
        self.repair_budget.charge(record.get("size", 0))
        try:
            replica = self.dsdb.copy_replica(record, target, path=path)
            record = self.dsdb.attach_replica(record, replica)
        except (ChirpError, LookupError) as exc:
            client = self.dsdb.pool.try_get(*target)
            if client is not None:
                try:
                    client.unlink(path)
                except ChirpError:
                    pass
            self.journal.abort(seq, str(exc))
            self.replicator.note_target_failure(target)
            tick.aborted += 1
            self._counters["repairs_aborted"] += 1
            log.info(
                "repair of %s -> %s:%d aborted: %s",
                record["id"], target[0], int(target[1]), exc,
            )
            return False
        self.journal.commit(seq)
        if self._summaries is not None:
            self._summaries[record["id"]] = RecordSummary.from_record(record)
        log.info(
            "repair: record %s copied to %s:%d",
            record["id"], target[0], int(target[1]),
        )
        self.replicator.note_target_success(target)
        tick.committed += 1
        self._counters["repairs_committed"] += 1
        return True

    # -- observability --------------------------------------------------

    def snapshot(self) -> dict:
        """Keeper counters for the metrics snapshot's ``keeper`` section."""
        with self._lock:
            snap = dict(self._counters)
        snap["cursor"] = self._cursor
        snap["suspect_servers"] = sorted(
            "%s:%d" % ep for ep in self.suspects
        )
        snap["draining_servers"] = sorted(
            "%s:%d" % ep for ep in self.draining
        )
        snap["dead_servers"] = sorted("%s:%d" % ep for ep in self.dead)
        snap["scan_throttled_seconds"] = self.scan_budget.throttled_seconds
        snap["repair_throttled_seconds"] = self.repair_budget.throttled_seconds
        return snap

    # -- background mode ------------------------------------------------

    def run_passes(self, passes: int, max_ticks: int = 10000) -> list[KeeperTick]:
        """Run synchronously until ``passes`` full scans complete."""
        done = self._counters["passes_completed"] + passes
        ticks = []
        while self._counters["passes_completed"] < done and len(ticks) < max_ticks:
            ticks.append(self.tick())
        return ticks

    def start(self) -> "Keeper":
        if self._thread is not None:
            raise RuntimeError("keeper already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="gems-keeper", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.journal.close()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception:  # pragma: no cover - keeper must not die
                log.exception("keeper tick failed; continuing")
            self._stop.wait(self.config.tick_interval)
