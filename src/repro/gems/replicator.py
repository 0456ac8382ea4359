"""The replicator: where the next copy of a record should go."""

from __future__ import annotations

from typing import Optional

from repro.core.dsdb import DSDB
from repro.gems.policy import ReplicationPolicy
from repro.transport.health import HealthRegistry

__all__ = ["Replicator"]

Endpoint = tuple  # (host, port)


class Replicator:
    """The replication policy plus the keeper's repair-target chooser.

    The keeper (:class:`~repro.gems.keeper.Keeper`) runs the repair
    pass; the replicator holds the policy that plans it and picks the
    server each new copy lands on.

    Target selection is *health-integrated*: endpoints whose circuit
    breaker is open (see :class:`~repro.transport.health.HealthRegistry`)
    are skipped outright rather than failing every pass, and endpoints
    that failed as copy targets accumulate a consecutive-failure count
    that pushes them to the back of the candidate ordering -- a server
    that is down but whose breaker has not tripped (e.g. the pool never
    dials it outside repair) stops being the first pick on every pass.
    """

    def __init__(
        self,
        dsdb: DSDB,
        policy: ReplicationPolicy,
        health: Optional[HealthRegistry] = None,
    ):
        self.dsdb = dsdb
        self.policy = policy
        self.health = health if health is not None else getattr(
            dsdb.pool, "health", None
        )
        #: endpoint -> consecutive failures as a *copy target*
        self.target_failures: dict[Endpoint, int] = {}

    # -- target selection ----------------------------------------------

    def choose_target(
        self, record: dict, avoid: frozenset = frozenset()
    ) -> Optional[Endpoint]:
        """Best server for this record's next copy, or None.

        Candidates are servers not already holding a replica and not in
        ``avoid`` (e.g. catalog-suspect endpoints).  Open-breaker
        endpoints are dropped; survivors with the fewest consecutive
        target failures form the front tier (repeat offenders only get
        picked when nothing better exists), and the DSDB's placement
        policy spreads copies across that tier.
        """
        occupied = {(r["host"], r["port"]) for r in record.get("replicas", [])}
        candidates = [
            tuple(ep)
            for ep in self.dsdb.servers
            if tuple(ep) not in occupied and tuple(ep) not in avoid
        ]
        if self.health is not None:
            candidates = [
                ep for ep in candidates if not self.health.is_open(*ep)
            ]
        if not candidates:
            return None
        best = min(self.target_failures.get(ep, 0) for ep in candidates)
        tier = [ep for ep in candidates if self.target_failures.get(ep, 0) == best]
        try:
            return tuple(self.dsdb.placement.choose(tier))
        except LookupError:
            return None

    def note_target_failure(self, endpoint: Endpoint) -> None:
        endpoint = tuple(endpoint)
        self.target_failures[endpoint] = self.target_failures.get(endpoint, 0) + 1

    def note_target_success(self, endpoint: Endpoint) -> None:
        self.target_failures.pop(tuple(endpoint), None)
