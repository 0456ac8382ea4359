"""Lifecycle of the shared server core under each of the four daemons.

The Chirp file server, the metadata database, the catalog's query port
and the NFS-like baseline all run on :class:`repro.util.server.ServerCore`,
so they share one shutdown contract: ``stop()`` is prompt whether a
session is idle or a connection never authenticated, leaves no thread of
the daemon running, and ends every open session.  Also here: the request
gate's drain semantics on the database, and the Chirp verb table telling
the ``BUSY`` path where a refused request's payload length sits.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.baselines.nfslike import NfsLikeClient, NfsLikeServer
from repro.catalog.server import CatalogServer
from repro.chirp.client import ChirpClient
from repro.chirp.server import FileServer, ServerConfig
from repro.db.client import DatabaseClient
from repro.db.engine import MetadataDB
from repro.db.server import DatabaseConfig, DatabaseServer
from repro.util.errors import BusyError, DisconnectedError, StatusCode
from repro.util.wire import LineStream, pack_line
from tests.conftest import run_in_thread


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _catalog_session(address):
    """A raw query connection: the catalog has no sessions beyond one query."""
    stream = LineStream(socket.create_connection(address, timeout=5.0))

    def rpc():
        stream.write_line("query", "json")
        return stream.read_line()

    return rpc, stream.close


@pytest.fixture(params=["chirp", "db", "catalog", "nfslike"])
def daemon(request, tmp_path, auth_context, credentials, owner_subject):
    """``(make_server, connect)``; ``connect(address)`` opens an
    established session and returns its ``(rpc, close)``."""
    kind = request.param
    root = tmp_path / "export"
    root.mkdir()
    if kind == "chirp":
        def make():
            return FileServer(ServerConfig(root=str(root), owner=owner_subject, auth=auth_context))

        def connect(address):
            c = ChirpClient(*address, credentials=credentials, timeout=5.0)
            return c.whoami, c.close
    elif kind == "db":
        def make():
            return DatabaseServer(MetadataDB(None), DatabaseConfig(auth=auth_context))

        def connect(address):
            c = DatabaseClient(*address, credentials=credentials, timeout=5.0)
            return (lambda: c.get("nothing")), c.close
    elif kind == "catalog":
        make, connect = CatalogServer, _catalog_session
    else:
        def make():
            return NfsLikeServer(str(root))

        def connect(address):
            c = NfsLikeClient(*address, timeout=5.0)
            return (lambda: c.getattr("/")), c.close
    return make, connect


class TestStop:
    @pytest.mark.parametrize("session", ["idle", "pre_auth"])
    def test_stop_is_prompt_joins_threads_and_ends_sessions(self, daemon, session):
        make, connect = daemon
        before = set(threading.enumerate())
        server = make().start()
        rpc = close = None
        try:
            if session == "idle":
                rpc, close = connect(server.address)  # established, then left idle
            else:
                close = socket.create_connection(server.address, timeout=5.0).close
            assert _wait_for(lambda: server.snapshot()["connections"] == 1)

            t0 = time.monotonic()
            server.stop()
            assert time.monotonic() - t0 < 1.0

            leftover = [t for t in threading.enumerate() if t not in before]
            assert leftover == [], f"threads still alive after stop(): {leftover}"
            if rpc is not None:
                with pytest.raises(DisconnectedError):
                    rpc()
        finally:
            server.stop()
            if close is not None:
                close()


class _GatedDB(MetadataDB):
    """An in-memory database whose inserts wait for the test's go-ahead."""

    def __init__(self):
        super().__init__(None)
        self.entered = threading.Event()
        self.release = threading.Event()

    def insert(self, record):
        self.entered.set()
        assert self.release.wait(10.0), "test never released the insert"
        return super().insert(record)


class TestDatabaseDrain:
    def test_admitted_command_answered_later_one_refused(self, auth_context, credentials):
        db = _GatedDB()
        server = DatabaseServer(db, DatabaseConfig(auth=auth_context)).start()
        early = DatabaseClient(*server.address, credentials=credentials, timeout=10.0)
        late = DatabaseClient(*server.address, credentials=credentials, timeout=10.0)
        try:
            pending = run_in_thread(early.insert, {"acked": True})
            assert db.entered.wait(5.0)
            drain = run_in_thread(server.drain, 10.0)
            assert _wait_for(lambda: server.draining)

            with pytest.raises(BusyError) as refusal:
                late.get("anything")
            assert refusal.value.retry_after_s > 0

            db.release.set()
            rid = pending.result()
            assert drain.result() is True
            assert db.get(rid)["acked"] is True
        finally:
            db.release.set()
            early.close()
            late.close()
            server.stop()


class TestChirpRefusedPayloads:
    """A refused payload verb must not leave its payload on the wire."""

    @pytest.mark.parametrize(
        "request_line",
        [
            ("pwrite", 3, 3000, 0),
            ("putfile", "/refused", 0o644, 3000),
            ("putflags", "/refused", "wcx", 0o644, 3000),
        ],
        ids=["pwrite", "putfile", "putflags"],
    )
    def test_refusal_keeps_the_connection_parseable(
        self, server_factory, credentials, request_line
    ):
        server = server_factory.new(max_inflight_per_subject=1, busy_retry_ms=25)
        holder = ChirpClient(*server.address, credentials=credentials, timeout=10.0)
        probe = ChirpClient(*server.address, credentials=credentials, timeout=10.0)
        stream = probe._stream
        gate = threading.Event()

        class Held:
            """Hands out the payload's first byte, then holds the rest."""

            chunks = [b"h", b"eld"]

            def read(self, n=-1):
                if len(self.chunks) == 1:
                    assert gate.wait(10.0)
                return self.chunks.pop(0) if self.chunks else b""

        held = run_in_thread(holder.putfile, "/held", Held(), length=4)
        try:
            # The subject's one in-flight slot is taken: the request is refused.
            assert _wait_for(lambda: server.snapshot()["in_flight"] == 1)
            stream.write(pack_line(*request_line) + b"p" * 3000)
            assert int(stream.read_tokens()[0]) == int(StatusCode.BUSY)
            assert server.shed_requests == 1
        finally:
            gate.set()
            assert held.result() == 4
        # The holder reads its reply before the server ends that request,
        # and the next request must not find the subject's slot taken.
        assert _wait_for(lambda: server.snapshot()["in_flight"] == 0)
        try:
            # Had the payload stayed on the wire, this line would be read
            # as the tail of a 3000-byte junk request.
            stream.write_line("whoami")
            assert stream.read_tokens() == ["0", probe.whoami()]
        finally:
            holder.close()
            probe.close()
