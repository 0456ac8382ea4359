"""Shared Chirp sessions for multi-server abstractions.

A DPFS/DSFS/DSDB touches many file servers; keeping one *session* per
server and sharing it across all handles keeps the congestion windows
warm (the single-connection design the paper contrasts with FTP) and
bounds socket usage.  The pool also carries the user's credentials so an
abstraction can be built from a list of ``(host, port)`` pairs alone --
e.g. straight out of a catalog query.

Since the transport refactor this is a thin facade: connection
lifecycle, caps and metrics live in
:class:`~repro.transport.endpoint.EndpointManager`; this module maps
each endpoint to the one :class:`~repro.chirp.client.ChirpClient`
session riding on it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.auth.methods import ClientCredentials
from repro.chirp.client import ChirpClient
from repro.transport.endpoint import DEFAULT_MAX_CONNS, EndpointManager
from repro.transport.health import HealthRegistry
from repro.transport.metrics import MetricsRegistry
from repro.transport.recovery import RetryPolicy

__all__ = ["ClientPool"]


class ClientPool:
    """A thread-safe cache of :class:`ChirpClient` keyed by endpoint.

    :param max_conns_per_endpoint: connection cap handed to every
        endpoint; >1 lets fan-out abstractions overlap RPCs to the same
        server.

    Sessions cache nothing; client caching wraps the filesystems built
    over the pool instead.
    """

    def __init__(
        self,
        credentials: Optional[ClientCredentials] = None,
        timeout: float = 30.0,
        max_conns_per_endpoint: int = DEFAULT_MAX_CONNS,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        health: Optional[HealthRegistry] = None,
    ):
        self.endpoints = EndpointManager(
            credentials=credentials,
            timeout=timeout,
            max_conns_per_endpoint=max_conns_per_endpoint,
            policy=policy,
            metrics=metrics,
            health=health,
        )
        self.credentials = self.endpoints.credentials
        self.timeout = timeout
        self._clients: dict[tuple[str, int], ChirpClient] = {}
        self._lock = threading.Lock()

    @property
    def metrics(self) -> MetricsRegistry:
        return self.endpoints.metrics

    @property
    def health(self) -> HealthRegistry:
        """Per-endpoint circuit breakers shared by every session."""
        return self.endpoints.health

    def get(self, host: str, port: int) -> ChirpClient:
        """Connect (or reuse the cached session) to a server.

        A cached-but-dead client is returned as-is -- *deliberately*:
        handle-level recovery owns reconnection so that generation
        numbers advance exactly once per reconnect, no matter how many
        handles notice the failure.  Callers that want a pool with no
        dead sessions (e.g. before a placement decision) call
        :meth:`evict_dead` explicitly.
        """
        key = (host, int(port))
        with self._lock:
            client = self._clients.get(key)
            if client is None:
                client = ChirpClient(
                    host, int(port), endpoint=self.endpoints.endpoint(host, int(port))
                )
                self._clients[key] = client
            return client

    def try_get(self, host: str, port: int) -> Optional[ChirpClient]:
        """Like :meth:`get` but returns None when the server is down."""
        from repro.util.errors import ChirpError

        try:
            return self.get(host, port)
        except ChirpError:
            return None

    def evict(self, host: str, port: int) -> None:
        """Forget a server entirely: close and drop its session *and* its
        endpoint (e.g. after a permanent failure), so the next
        :meth:`get` starts from scratch."""
        with self._lock:
            client = self._clients.pop((host, int(port)), None)
        if client is not None:
            client.close()
        self.endpoints.evict(host, int(port))

    def evict_dead(self) -> list[tuple[str, int]]:
        """Drop every cached session whose endpoint holds no live
        connection; returns the endpoints evicted.

        The cheap liveness check (no RPC, just socket state) for callers
        that must not be handed a dead session silently -- the complement
        of :meth:`get`'s hands-off contract.  Sessions with handles in
        active recovery are *not* special-cased: eviction closes the old
        endpoint, and recovering handles dial a fresh one on next use.
        """
        with self._lock:
            dead = [
                key
                for key, client in self._clients.items()
                if not client.endpoint.is_connected
            ]
        for host, port in dead:
            self.evict(host, port)
        return dead

    def close_all(self) -> None:
        """Close every session and every endpoint."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()
        self.endpoints.close_all()

    def close(self) -> None:
        self.close_all()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._clients)
