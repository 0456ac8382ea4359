"""GEMS preservation timeline at paper scale (Figure 9).

"A modest data set of 14 GB is entered into GEMS for safekeeping.  The
user specifies that up to 40 GB of space may be used ... At three points
during the life of this run, three failures are induced by forcibly
deleting data from one, five, and ten disks.  As the auditor process
discovers the losses, the replicator brings the system back into a
desired state."

The *planning* code here is the real one -- the
:class:`~repro.gems.policy.BudgetGreedyPolicy` that drives production
repair -- run against simulated storage and a simulated clock, because
14 GB and hour-scale timelines do not fit in a unit-test budget.  Time is
stepped at a fixed quantum; replication progresses at a configured
aggregate copy rate; the auditor only *discovers* losses on its own
period, which is what produces the visible lag between a failure dip and
the start of recovery in the figure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.gems.policy import BudgetGreedyPolicy, RecordSummary, ReplicationPolicy
from repro.sim.params import GB, MB

__all__ = ["GemsSimulation", "GemsSample"]


@dataclass(frozen=True)
class GemsSample:
    """One sample of the preservation run."""

    time: float
    stored_bytes: int  # bytes actually on disks
    believed_bytes: int  # bytes the database thinks are on disks
    events: tuple[str, ...] = ()


@dataclass
class _SimRecord:
    record_id: str
    size: int
    #: where the database believes replicas are
    believed: set[int] = field(default_factory=set)
    #: where data actually is (diverges after a failure, until audit)
    actual: set[int] = field(default_factory=set)


class GemsSimulation:
    """Figure 9 at full scale on a virtual clock."""

    def __init__(
        self,
        n_files: int = 140,
        file_bytes: int = 100 * MB,
        budget_bytes: int = 40 * GB,
        n_servers: int = 30,
        replication_rate: float = 20 * MB,  # aggregate copy throughput
        audit_interval: float = 120.0,
        step: float = 10.0,
        failures: tuple[tuple[float, int], ...] = (
            (1800.0, 1),
            (2700.0, 5),
            (3600.0, 10),
        ),
        duration: float = 5400.0,
        seed: int = 9,
        policy: ReplicationPolicy | None = None,
    ):
        self.n_files = n_files
        self.file_bytes = file_bytes
        self.budget_bytes = budget_bytes
        self.n_servers = n_servers
        self.replication_rate = replication_rate
        self.audit_interval = audit_interval
        self.step = step
        self.failures = sorted(failures)
        self.duration = duration
        self.rng = random.Random(seed)
        self.policy = policy or BudgetGreedyPolicy(budget_bytes)
        self.records: list[_SimRecord] = []
        self.timeline: list[GemsSample] = []

    # -- state helpers ------------------------------------------------------

    def _ingest(self) -> None:
        """The dataset arrives with a single copy each, spread round-robin."""
        for i in range(self.n_files):
            server = i % self.n_servers
            self.records.append(
                _SimRecord(f"f{i}", self.file_bytes, {server}, {server})
            )

    def stored_bytes(self) -> int:
        return sum(r.size * len(r.actual) for r in self.records)

    def believed_bytes(self) -> int:
        return sum(r.size * len(r.believed) for r in self.records)

    def _fail_disks(self, count: int) -> list[int]:
        """Forcibly delete all dataset replicas on ``count`` random disks."""
        candidates = [s for s in range(self.n_servers)
                      if any(s in r.actual for r in self.records)]
        victims = self.rng.sample(candidates, min(count, len(candidates)))
        for r in self.records:
            r.actual.difference_update(victims)
        return victims

    def _audit(self) -> int:
        """Reconcile belief with reality; returns replicas newly noted lost."""
        noted = 0
        for r in self.records:
            lost = r.believed - r.actual
            noted += len(lost)
            r.believed &= r.actual
        return noted

    def _replication_targets(self) -> list[_SimRecord]:
        """Ask the real policy what to copy next, in priority order."""
        summaries = [
            RecordSummary(r.record_id, r.size, len(r.believed))
            for r in self.records
        ]
        plan = self.policy.plan_additions(summaries, self.n_servers)
        by_id = {r.record_id: r for r in self.records}
        return [by_id[rid] for rid in plan]

    def _copy_one(self, record: _SimRecord) -> bool:
        """Place one new replica of a record (instantaneous bookkeeping;
        the caller charges the copy's transfer time)."""
        if not record.actual:
            return False  # nothing to copy from
        options = [s for s in range(self.n_servers) if s not in record.believed]
        if not options:
            return False
        # Prefer the emptiest server, like MostFreePlacement.
        load = {s: 0 for s in options}
        for r in self.records:
            for s in r.actual:
                if s in load:
                    load[s] += r.size
        target = min(options, key=lambda s: (load[s], s))
        record.believed.add(target)
        record.actual.add(target)
        return True

    # -- the run ----------------------------------------------------------

    def run(self) -> list[GemsSample]:
        self._ingest()
        now = 0.0
        next_audit = 0.0
        pending_failures = list(self.failures)
        copy_debt = 0.0  # bytes of copying currently owed to the budget
        plan_queue: list[_SimRecord] = []
        self.timeline = [
            GemsSample(0.0, self.stored_bytes(), self.believed_bytes(), ("ingest",))
        ]
        while now < self.duration:
            now += self.step
            events: list[str] = []
            # 1. induced failures
            while pending_failures and pending_failures[0][0] <= now:
                _, count = pending_failures.pop(0)
                victims = self._fail_disks(count)
                events.append(f"failure:{len(victims)}-disks")
            # 2. the auditor's periodic pass
            if now >= next_audit:
                noted = self._audit()
                if noted:
                    events.append(f"audit-noted:{noted}")
                next_audit = now + self.audit_interval
                plan_queue = self._replication_targets()
            # 3. the replicator copies at the aggregate rate
            copy_debt += self.replication_rate * self.step
            while plan_queue and copy_debt >= plan_queue[0].size:
                record = plan_queue.pop(0)
                if self._copy_one(record):
                    copy_debt -= record.size
                    events.append(f"replicated:{record.record_id}")
            if not plan_queue:
                copy_debt = min(copy_debt, float(self.file_bytes))
            self.timeline.append(
                GemsSample(
                    now, self.stored_bytes(), self.believed_bytes(), tuple(events)
                )
            )
        return self.timeline

    # -- figure summaries used by the bench -------------------------------

    def stored_series_gb(self) -> list[tuple[float, float]]:
        return [(pt.time, pt.stored_bytes / GB) for pt in self.timeline]

    def min_after(self, t: float, window: float = 300.0) -> float:
        pts = [p.stored_bytes for p in self.timeline if t <= p.time <= t + window]
        return min(pts) / GB if pts else float("nan")

    def value_at(self, t: float) -> float:
        best = min(self.timeline, key=lambda p: abs(p.time - t))
        return best.stored_bytes / GB
