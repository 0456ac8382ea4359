"""Endpoint sessions: an elastic pool of connections to one server.

The paper's rule -- keep one warm TCP channel per server so the
congestion window survives across operations -- is preserved *per
connection*; what this layer adds is that a busy client may hold a small
number of such channels to the same server (``max_conns_per_endpoint``),
so fan-out abstractions (striping, replication, parallel ingest) issue
genuinely concurrent RPCs instead of serializing on one socket lock.

Ownership inversion: the endpoint, not each handle, owns connection
lifecycle.  Sessions (:class:`~repro.chirp.client.ChirpClient`,
:class:`~repro.db.client.DatabaseClient`) check connections out and back
in; recovery dials through here; and generation numbers -- the token
file handles use to learn their connection-scoped fd died -- advance
exactly once per reconnect, no matter how many handles notice the
failure.

Growth is demand-driven: a second connection is dialed only when every
live connection is checked out and the cap allows it.  Checkout never
*blocks* on a full pool; it returns the least-loaded live connection and
the caller queues on that connection's own lock, so the cap bounds
sockets without deadlock.  Idle extra connections are kept (warm windows
are the point); they die with the endpoint or the server.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.auth.methods import ClientCredentials, authenticate_client
from repro.transport.connection import Connection, Reply
from repro.transport.health import EndpointHealth, HealthRegistry
from repro.transport.metrics import MetricsRegistry, default_registry
from repro.transport.recovery import RetryPolicy
from repro.util.errors import CircuitOpenError, DisconnectedError, TimedOutError
from repro.util.wire import LineStream

__all__ = ["Endpoint", "EndpointManager", "EndpointSession", "DEFAULT_MAX_CONNS"]

DEFAULT_MAX_CONNS = 4


class Endpoint:
    """A session with one server, multiplexed over elastic connections.

    :param host: server address.
    :param port: server port.
    :param credentials: presented on every dialed connection.
    :param timeout: connect and per-operation socket timeout.
    :param max_conns: connection cap for this endpoint (>= 1).
    :param policy: recovery policy; available to sessions and handles so
        backoff lives in one place.
    :param metrics: registry observing every RPC on every connection.
    :param health: circuit breaker for this endpoint; when set, every
        dial is gated on it and every transport outcome is recorded.
        ``None`` (standalone endpoints) disables breaking entirely.
    """

    def __init__(
        self,
        host: str,
        port: int,
        credentials: Optional[ClientCredentials] = None,
        timeout: float = 30.0,
        max_conns: int = DEFAULT_MAX_CONNS,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        health: Optional[EndpointHealth] = None,
    ):
        if max_conns < 1:
            raise ValueError("max_conns must be >= 1")
        self.host = host
        self.port = int(port)
        self.credentials = credentials or ClientCredentials()
        self.timeout = timeout
        self.max_conns = max_conns
        self.policy = policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else default_registry()
        self.health = health
        #: Advances exactly once per reconnect-from-dead; fds opened on an
        #: older generation are gone.  Growth dials do not bump it.
        self.generation = 0
        self.subject: Optional[str] = None
        self._conns: list[Connection] = []
        self._rr = 0
        self._lock = threading.Lock()
        # Serializes reconnects so concurrent recoveries bump the
        # generation once, and serializes growth so a burst of checkouts
        # does not dial a stampede of sockets.
        self._dial_lock = threading.Lock()

    # -- dialing ---------------------------------------------------------

    def _dial(self) -> Connection:
        """One connect+authenticate attempt; no retry, no registration.

        Gated on the circuit breaker: an open breaker refuses instantly
        with :class:`CircuitOpenError` instead of paying the connect
        timeout against a server already known to be sick.  The breaker
        fast-fail itself is *not* recorded as a failure -- only real
        transport outcomes move the breaker.
        """
        if self.health is not None and not self.health.allow():
            raise CircuitOpenError(
                f"{self.host}:{self.port} circuit open; dial refused"
            )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except socket.timeout as exc:
            self._record_failure()
            raise TimedOutError(f"connect to {self.host}:{self.port}") from exc
        except OSError as exc:
            self._record_failure()
            raise DisconnectedError(
                f"connect to {self.host}:{self.port} failed: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = LineStream(sock)
        try:
            subject = authenticate_client(stream, self.credentials)
        except (DisconnectedError, TimedOutError):
            # The server died mid-handshake: a transport failure.
            stream.close()
            self._record_failure()
            raise
        except Exception:
            # A protocol-level refusal (bad credentials) is the server
            # *working*; it must not move the breaker.
            stream.close()
            raise
        self._record_success()
        return Connection(
            self.host,
            self.port,
            stream,
            subject,
            self.generation,
            metrics=self.metrics,
            on_death=self._discard,
        )

    def _record_failure(self) -> None:
        if self.health is not None:
            self.health.record_failure()

    def _record_success(self) -> None:
        if self.health is not None:
            self.health.record_success()

    def connect(self) -> None:
        """Tear down every connection and dial a fresh one (new generation).

        The hard-reset path: every outstanding fd dies.  Sessions call it
        from their own ``connect()``; handle recovery prefers
        :meth:`ensure_connected`.
        """
        with self._dial_lock:
            self._close_all()
            self._redial()

    def ensure_connected(self) -> None:
        """Reconnect only if every connection is down.

        Handle recovery entry point: when several handles notice the same
        dead server, only the first dials (one generation bump); the rest
        find a live connection already in place.
        """
        if self.live_count > 0:
            return
        with self._dial_lock:
            if self.live_count > 0:
                return
            self._redial()

    def _redial(self) -> None:
        """Dial the first connection of a new generation (under
        ``_dial_lock``)."""
        conn = self._dial()
        with self._lock:
            self.generation += 1
            conn.generation = self.generation
            self.subject = conn.subject
            self._conns.append(conn)

    # -- checkout / checkin ----------------------------------------------

    def checkout(self) -> Connection:
        """Lease a connection for one exchange.

        Prefers an idle connection; dials a new one when all are busy and
        the cap allows; otherwise returns the least-loaded connection
        (the caller serializes on its lock).  Raises
        :class:`DisconnectedError` when the endpoint has no live
        connection -- recovery is the caller's policy decision, never an
        implicit side effect of checkout (:meth:`call`, the stateless
        exchange, is the one caller that redials).
        """
        grow = False
        with self._lock:
            self._prune_locked()
            if not self._conns:
                raise DisconnectedError(
                    f"not connected to {self.host}:{self.port}"
                )
            conn = self._pick_locked()
            if conn.busy > 0 and len(self._conns) < self.max_conns:
                grow = True
            else:
                conn.busy += 1
                return conn
        # Grow outside the pool lock: dialing authenticates and must not
        # stall other checkouts.  One grower at a time; losers fall back.
        if grow and self._dial_lock.acquire(blocking=False):
            try:
                try:
                    fresh = self._dial()
                except (DisconnectedError, TimedOutError):
                    fresh = None
                if fresh is not None:
                    with self._lock:
                        if len(self._conns) < self.max_conns:
                            fresh.busy += 1
                            self._conns.append(fresh)
                            return fresh
                    fresh.close()  # lost the race; cap reached meanwhile
            finally:
                self._dial_lock.release()
        with self._lock:
            self._prune_locked()
            if not self._conns:
                raise DisconnectedError(
                    f"not connected to {self.host}:{self.port}"
                )
            conn = self._pick_locked()
            conn.busy += 1
            return conn

    def call(self, verb: str, *args: object, **options) -> Reply:
        """One stateless exchange (:meth:`Connection.call`) on any live
        connection.

        An endpoint whose every connection has died (the server was
        restarted under us) is *redialed* first: a stateless exchange
        carries no per-fd state, so there is nothing to recover beyond
        the TCP channel itself.  Without this, a long-lived session (the
        keeper's repair pool, a DSDB's database client) stays wedged on
        a dead socket forever after its server reboots.  The dial is
        breaker-gated, so a known-sick server refuses instantly.  A
        disconnect *during* the exchange still propagates -- retrying a
        possibly-applied operation is the caller's policy decision.
        """
        try:
            conn = self.checkout()
        except DisconnectedError:
            self.ensure_connected()
            conn = self.checkout()
        try:
            return conn.call(verb, *args, **options)
        finally:
            self.checkin(conn)

    def checkin(self, conn: Connection) -> None:
        with self._lock:
            if conn.busy > 0:
                conn.busy -= 1
            if conn.closed and conn in self._conns:
                self._conns.remove(conn)
        if not conn.closed:
            # A connection returned alive means the exchange succeeded:
            # reset the breaker's consecutive-failure count so sporadic
            # drops spread over a long session never accumulate to a trip.
            self._record_success()

    def _pick_locked(self) -> Connection:
        """Least-loaded connection, round-robin among ties."""
        best = None
        n = len(self._conns)
        for i in range(n):
            conn = self._conns[(self._rr + i) % n]
            if best is None or conn.busy < best.busy:
                best = conn
                if conn.busy == 0:
                    break
        self._rr = (self._rr + 1) % max(1, n)
        return best

    def _prune_locked(self) -> None:
        self._conns = [c for c in self._conns if not c.closed]

    def _discard(self, conn: Connection) -> None:
        """Death callback from a connection that failed mid-exchange."""
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)
        self._record_failure()

    # -- state -----------------------------------------------------------

    @property
    def live_count(self) -> int:
        with self._lock:
            self._prune_locked()
            return len(self._conns)

    @property
    def is_connected(self) -> bool:
        return self.live_count > 0

    def raw_stream(self):
        """The stream of one live connection, or None.

        Diagnostics/back-compat only (protocol tests write malformed
        lines directly); real traffic goes through checkout/checkin.
        """
        with self._lock:
            for conn in self._conns:
                if not conn.closed:
                    return conn.stream
        return None

    def _close_all(self) -> None:
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()

    def close(self) -> None:
        """Drop every connection.  The endpoint stays usable: a later
        ``connect()``/``ensure_connected()`` dials anew."""
        self._close_all()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Endpoint({self.host}:{self.port}, conns={self.live_count}/"
            f"{self.max_conns}, gen={self.generation})"
        )


class EndpointSession:
    """A client session over one :class:`Endpoint`: what
    :class:`~repro.chirp.client.ChirpClient` and
    :class:`~repro.db.client.DatabaseClient` share.

    The session owns no socket -- its endpoint does -- and adds only a
    vocabulary on top of :meth:`Endpoint.call`.  ``endpoint`` shares an
    existing endpoint (the :class:`~repro.core.pool.ClientPool` path);
    when omitted, a private one is built from ``host``, ``port``,
    ``credentials``, ``timeout`` and those ``options`` that are not
    None.
    """

    def __init__(
        self,
        host: str,
        port: int,
        credentials: Optional[ClientCredentials],
        timeout: float,
        endpoint: Optional[Endpoint],
        **options,
    ):
        if endpoint is None:
            options = {k: v for k, v in options.items() if v is not None}
            endpoint = Endpoint(
                host, int(port), credentials=credentials, timeout=timeout, **options
            )
        self.endpoint = endpoint
        self.host = endpoint.host
        self.port = endpoint.port
        self.credentials = endpoint.credentials
        self.timeout = endpoint.timeout

    @property
    def subject(self) -> Optional[str]:
        return self.endpoint.subject

    @property
    def is_connected(self) -> bool:
        return self.endpoint.is_connected

    @property
    def _stream(self):
        """One live connection's raw stream (protocol tests poke the wire)."""
        return self.endpoint.raw_stream()

    def connect(self) -> None:
        self.endpoint.connect()

    def close(self) -> None:
        self.endpoint.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EndpointManager:
    """All of one principal's endpoint sessions, keyed by server address.

    Carries the credentials, timeout, connection cap, recovery policy,
    metrics registry and health registry that every endpoint inherits, so
    an abstraction can be built from a list of ``(host, port)`` pairs
    alone.  Health is on by default: every managed endpoint gets a
    circuit breaker from one shared :class:`HealthRegistry`, which is
    attached to the metrics registry so ``snapshot()`` shows quarantined
    servers.  Pass an explicit registry to share breaker state across
    managers, or construct endpoints directly to opt out.
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
        self.credentials = credentials or ClientCredentials()
        self.timeout = timeout
        self.max_conns_per_endpoint = max_conns_per_endpoint
        self.policy = policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else default_registry()
        self.health = health if health is not None else HealthRegistry()
        self.metrics.attach_health(self.health)
        self._endpoints: dict[tuple[str, int], Endpoint] = {}
        self._lock = threading.Lock()

    def endpoint(self, host: str, port: int) -> Endpoint:
        """The (possibly not yet connected) endpoint for a server."""
        key = (host, int(port))
        with self._lock:
            ep = self._endpoints.get(key)
            if ep is None:
                ep = Endpoint(
                    host,
                    int(port),
                    credentials=self.credentials,
                    timeout=self.timeout,
                    max_conns=self.max_conns_per_endpoint,
                    policy=self.policy,
                    metrics=self.metrics,
                    health=self.health.for_endpoint(host, port),
                )
                self._endpoints[key] = ep
            return ep

    def evict(self, host: str, port: int) -> None:
        """Drop a known-dead endpoint: close its connections and forget
        it, so the next ``endpoint()`` call starts from scratch."""
        with self._lock:
            ep = self._endpoints.pop((host, int(port)), None)
        if ep is not None:
            ep.close()

    def close_all(self) -> None:
        with self._lock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
        for ep in endpoints:
            ep.close()

    def __enter__(self) -> "EndpointManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._endpoints)
