"""The auditor: verify the location and integrity of every replica."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.core.dsdb import DSDB, FILE_KIND
from repro.db.query import Query

__all__ = ["Auditor", "AuditReport"]

log = logging.getLogger("repro.gems.auditor")


@dataclass
class AuditReport:
    """Outcome of one full audit pass."""

    records: int = 0
    replicas_checked: int = 0
    healthy: int = 0
    missing: int = 0
    damaged: int = 0
    #: replicas whose server could not be asked -- an inconclusive
    #: verdict, not a problem: the state in the record is left alone.
    unreachable: int = 0
    #: record ids with zero live replicas after the audit -- data loss.
    lost_records: list[str] = field(default_factory=list)
    #: endpoints that failed to answer any probe this pass, and endpoints
    #: that gave at least one authoritative verdict.  The keeper's
    #: dead-server hysteresis consumes these: only an endpoint that
    #: stays on the unreachable side for several full passes is declared
    #: dead.
    unreachable_endpoints: set = field(default_factory=set)
    answered_endpoints: set = field(default_factory=set)

    @property
    def problems(self) -> int:
        return self.missing + self.damaged


class Auditor:
    """Scans the database and checks each replica against its checksum.

    The auditor only *observes and notes*: replica states move between
    ``ok``, ``missing`` and ``damaged`` in the database, and repair is
    left entirely to the replicator -- the paper's two-process split.
    A replica that reappears intact (e.g. a server came back from a
    network partition) is marked ``ok`` again.

    A server that cannot be *asked* yields an ``unreachable`` verdict,
    which changes nothing in the database: absence of an answer is not
    evidence of absence.  Marking such replicas ``missing`` would let
    the repair pass drop acknowledged copies during an ordinary reboot
    or drain -- with every replica's server briefly down, that is
    silent data loss.  Unreachable servers are instead handled by the
    keeper's suspect machinery (proactive extra copies on healthy
    ground), and the replica is re-audited once the server answers.

    Three audit modes, cheapest last:

    - ``bytes``: the server re-reads the replica and checksums it (the
      classic audit; catches bitrot but costs a full file read);
    - ``key``: ask a content-addressed server for the key its namespace
      binds the path to and compare it to the record's checksum --
      O(1) metadata on both ends, no payload read.  Non-CAS servers
      refuse the ``keyof`` verb, and the auditor falls back to ``bytes``
      for that replica.  On-disk blob bitrot is out of scope here (the
      binding, not the bytes, is audited); ``tss store scrub`` owns
      that;
    - ``location``: stat only -- catches deletion, not corruption.
    """

    def __init__(self, dsdb: DSDB, mode: str = "bytes"):
        if mode not in ("bytes", "key", "location"):
            raise ValueError(f"unknown audit mode {mode!r}")
        self.mode = mode
        self.dsdb = dsdb

    def audit_once(self) -> AuditReport:
        report = self.audit_records(self.dsdb.query(Query.where(tss_kind=FILE_KIND)))
        if report.problems:
            log.info(
                "audit: %d replicas checked, %d missing, %d damaged",
                report.replicas_checked,
                report.missing,
                report.damaged,
            )
        return report

    def audit_records(self, records: list[dict]) -> AuditReport:
        """Audit just the given records (one incremental-scan batch).

        The keeper feeds this cursor-bounded slices of the database so a
        long audit spreads across many rate-limited ticks instead of one
        monolithic pass.
        """
        report = AuditReport()
        for record in records:
            report.records += 1
            changed = False
            replicas = []
            for replica in record.get("replicas", []):
                report.replicas_checked += 1
                endpoint = (replica["host"], int(replica["port"]))
                state = self._check(record, replica)
                if state == "unreachable":
                    # Inconclusive: leave the recorded state untouched.
                    report.unreachable += 1
                    report.unreachable_endpoints.add(endpoint)
                    replicas.append(replica)
                    continue
                report.answered_endpoints.add(endpoint)
                if state == "ok":
                    report.healthy += 1
                elif state == "missing":
                    report.missing += 1
                else:
                    report.damaged += 1
                if state != replica.get("state", "ok"):
                    replica = dict(replica)
                    replica["state"] = state
                    changed = True
                replicas.append(replica)
            if changed:
                record = self.dsdb.db.update(record["id"], {"replicas": replicas})
            if not any(r.get("state", "ok") == "ok" for r in replicas):
                report.lost_records.append(record["id"])
        return report

    def _check(self, record: dict, replica: dict) -> str:
        if self.mode == "bytes":
            return self.dsdb.verify_replica(record, replica)
        if self.mode == "key":
            return self._check_key(record, replica)
        # Location-only audit: cheaper, catches deletion but not corruption.
        client = self.dsdb.pool.try_get(replica["host"], replica["port"])
        if client is None:
            return "unreachable"
        from repro.util.errors import ChirpError, DoesNotExistError

        try:
            st = client.stat(replica["path"])
        except DoesNotExistError:
            return "missing"
        except ChirpError:
            return "unreachable"
        return "ok" if st.size == record.get("size", st.size) else "damaged"

    def _check_key(self, record: dict, replica: dict) -> str:
        """Key-comparison audit: compare stored binding to the record's
        checksum without reading the file over the wire."""
        from repro.util.errors import (
            ChirpError,
            DoesNotExistError,
            InvalidRequestError,
            UnknownError,
        )

        client = self.dsdb.pool.try_get(replica["host"], replica["port"])
        if client is None:
            return "unreachable"
        try:
            key = client.keyof(replica["path"])
        except InvalidRequestError:
            # Not a CAS server: the metadata shortcut does not exist
            # there, so pay for the byte-level audit.
            return self.dsdb.verify_replica(record, replica)
        except DoesNotExistError:
            return "missing"
        except UnknownError:
            # The server found the entry but could not resolve its key:
            # a corrupt pointer record, i.e. damage rather than absence.
            return "damaged"
        except ChirpError:
            return "unreachable"
        expected = record.get("checksum")
        return "ok" if expected and key == expected else "damaged"
