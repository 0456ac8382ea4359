"""GEMS: Grid Enabled Molecular Simulations -- preservation on a DSDB.

The paper's bioinformatics deployment: files are stored on file servers
and indexed in a database, and "two active components work in concert to
maintain replicas":

- the auditor "periodically scans the database and then verifies the
  location and integrity of data on file servers", noting damage and
  loss (:class:`~repro.gems.auditor.Auditor`);
- the replicator "examines the notations and then repairs them by
  re-replicating the remaining copies", up to a user-specified storage
  budget (a :class:`~repro.gems.policy.ReplicationPolicy` plans the
  copies, :class:`~repro.gems.replicator.Replicator` picks their
  targets).

:class:`~repro.gems.keeper.Keeper` is the one loop that runs both: a
journaled, rate-limited, crash-safe audit-and-repair daemon that never
forgets the last replica of a record.
"""

from repro.gems.policy import (
    ReplicationPolicy,
    BudgetGreedyPolicy,
    FixedCountPolicy,
    plan_drops,
)
from repro.gems.auditor import Auditor, AuditReport
from repro.gems.replicator import Replicator
from repro.gems.keeper import (
    Keeper,
    KeeperConfig,
    KeeperTick,
    RateBudget,
    RepairJournal,
)
from repro.gems.recovery import RecoveryReport, rebuild_database, rescan_servers

__all__ = [
    "RecoveryReport",
    "rebuild_database",
    "rescan_servers",
    "ReplicationPolicy",
    "BudgetGreedyPolicy",
    "FixedCountPolicy",
    "plan_drops",
    "Auditor",
    "AuditReport",
    "Replicator",
    "Keeper",
    "KeeperConfig",
    "KeeperTick",
    "RateBudget",
    "RepairJournal",
]
