"""Protocol v4: the compound verbs and the DSFS paths built on them.

``statget`` answers a stat plus the bytes of a small file in one round
trip; ``putflags`` is a whole-file put carrying open flags (``wcx`` for
an exclusive create, ``wt`` to replace without creating).  Clients
require a v4 server and send both verbs without a probe.  Exact RPC
counts per DSFS operation are the contract, read from a
:class:`MetricsRegistry`.
"""

from __future__ import annotations

import getpass

import pytest

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.core.dsfs import DSFS
from repro.core.cfs import CFS
from repro.core.pool import ClientPool
from repro.core.replfs import ReplicatedFS
from repro.core.stripefs import StripedFS
from repro.core.versionfs import VersionedFS
from repro.store.faulty import EIO, DiskFaultScript
from repro.transport.metrics import MetricsRegistry
from repro.util.errors import (
    AlreadyExistsError,
    DoesNotExistError,
    NotAuthorizedError,
    StatusCode,
    UnknownError,
)
from repro.util.wire import pack_line

WCX = OpenFlags(write=True, create=True, exclusive=True)
WT = OpenFlags(write=True, truncate=True)
ME = f"unix:{getpass.getuser()}"


def calls(metrics: MetricsRegistry) -> dict[str, int]:
    return {verb: s["calls"] for verb, s in metrics.snapshot()["verbs"].items()}


def rpcs(metrics: MetricsRegistry, op) -> dict[str, int]:
    """The RPCs ``op`` sent, by verb."""
    before = calls(metrics)
    op()
    after = calls(metrics)
    return {v: n - before.get(v, 0) for v, n in after.items() if n != before.get(v, 0)}


def record_requests(server) -> list[list[str]]:
    """Every request line ``server`` receives from now on, as tokens."""
    seen: list[list[str]] = []
    handle = server.handle

    def recording(conn, tokens):
        seen.append(tokens)
        return handle(conn, tokens)

    server.handle = recording
    return seen


@pytest.fixture(params=["local", "cas", "memory"])
def server(request, server_factory):
    return server_factory.new(store=request.param)


@pytest.fixture()
def client(server, credentials):
    c = ChirpClient(*server.address, credentials=credentials, timeout=10.0, metrics=MetricsRegistry())
    yield c
    c.close()


def raw_reply(client, *request, payload=b""):
    """Send one hand-made request on a live connection; the reply tokens."""
    stream = client._stream
    stream.write(pack_line(*request) + payload)
    return stream.read_tokens()


def still_parses(client):
    assert raw_reply(client, "whoami") == ["0", client.whoami()]


class TestStatget:
    def test_small_file_comes_back_whole(self, client):
        client.putfile("/f", b"hello")
        st, data = client.statget("/f", 4096)
        assert (st.size, data) == (5, b"hello")

    def test_no_data_answers_minus_one(self, client):
        client.mkdir("/d")
        client.putfile("/big", b"x" * 100)
        for path, limit in (("/d", 4096), ("/big", 99)):
            reply = raw_reply(client, "statget", path, limit)
            assert (reply[0], len(reply), reply[-1]) == ("0", 12, "-1")
            still_parses(client)  # no payload followed the -1
        assert client.statget("/big", 99)[1] is None

    def test_limit_is_capped_by_the_server(self, client):
        client.putfile("/huge", b"h" * (100 * 1024))
        assert raw_reply(client, "statget", "/huge", 10**9)[-1] == "-1"
        still_parses(client)

    def test_list_without_read_gets_the_stat_only(self, server, client):
        client.putfile("/f", b"secret")
        # Hand the export to another owner, so this client is a visitor.
        owner = server.backend.owner_subject = "unix:someone-else"
        server.backend.setacl(owner, "/", ME, "none")
        outsider = ChirpClient(*server.address, credentials=client.credentials)
        try:
            with pytest.raises(NotAuthorizedError):
                outsider.statget("/f", 4096)
            server.backend.setacl(owner, "/", ME, "l")
            st, data = outsider.statget("/f", 4096)
            assert (st.size, data) == (6, None)
            server.backend.setacl(owner, "/", ME, "rl")
            assert outsider.statget("/f", 4096)[1] == b"secret"
        finally:
            outsider.close()

    def test_acl_file_is_refused(self, client):
        with pytest.raises(NotAuthorizedError):
            client.statget("/.__acl", 4096)


class TestPutflags:
    def test_wcx_is_an_exclusive_create(self, client):
        assert client.putflags("/n", b"abc", WCX) == 3
        with pytest.raises(AlreadyExistsError):
            client.putflags("/n", b"other", WCX)
        assert client.getfile("/n") == b"abc"

    def test_wt_replaces_and_never_creates(self, client):
        with pytest.raises(DoesNotExistError):
            client.putflags("/missing", b"x", WT)
        with pytest.raises(DoesNotExistError):
            client.stat("/missing")
        client.putfile("/f", b"old and longer")
        assert client.putflags("/f", b"new", WT) == 3
        assert client.getfile("/f") == b"new"

    def test_quota_refusal_keeps_the_connection_parseable(self, server_factory, credentials):
        server = server_factory.new(quota_bytes=1000)
        with ChirpClient(*server.address, credentials=credentials) as c:
            reply = raw_reply(c, "putflags", "/f", "wcx", 0o644, 5000, payload=b"q" * 5000)
            assert int(reply[0]) == StatusCode.NO_SPACE
            still_parses(c)
            with pytest.raises(DoesNotExistError):
                c.stat("/f")  # refused before anything was created

    def test_read_only_refusal_keeps_the_connection_parseable(self, server, client):
        server.backend._enter_read_only("eio")
        reply = raw_reply(client, "putflags", "/f", "wcx", 0o644, 3000, payload=b"r" * 3000)
        assert int(reply[0]) == StatusCode.TRY_AGAIN
        still_parses(client)

    def test_failed_exclusive_put_leaves_nothing(self, server_factory, credentials):
        server = server_factory.new(store="faulty+local")
        server.store.plan.script(DiskFaultScript(op="pwrite", action=EIO, path="/f"))
        with ChirpClient(*server.address, credentials=credentials) as c:
            with pytest.raises(UnknownError):
                c.putflags("/f", b"doomed", WCX)
            with pytest.raises(DoesNotExistError):
                c.stat("/f")
            assert c.putflags("/f", b"second try", WCX) == 10


class DsfsRig:
    """A DSFS volume: the directory tree on one server, data on another."""

    def __init__(self, server_factory, credentials):
        self.servers = [server_factory.new(), server_factory.new()]
        self.seen = [record_requests(s) for s in self.servers]
        self.metrics = MetricsRegistry()
        self.pool = ClientPool(credentials, metrics=self.metrics)
        dir_server, data_server = self.servers
        self.fs = DSFS.create(
            self.pool, *dir_server.address, "/vol", [data_server.address]
        )
        self.fs.write_file("/warm", b"both sessions are dialed")

    def count(self, op) -> int:
        return sum(rpcs(self.metrics, op).values())

    def close(self):
        self.pool.close()


@pytest.fixture(params=["v4"])  # the protocol the counts are pinned for
def rig(server_factory, credentials):
    r = DsfsRig(server_factory, credentials)
    yield r
    r.close()


class TestDsfsRoundTrips:
    # operation -> RPCs
    EXPECTED = {
        "create": 2,
        "overwrite": 3,
        "stat": 2,
        "read": 2,
        "open-existing": 3,
        "unlink": 3,
    }

    def test_rpcs_per_operation(self, rig):
        fs = rig.fs
        handles = []
        ops = {
            "create": lambda: fs.write_file("/f", b"first"),
            "overwrite": lambda: fs.write_file("/f", b"second!"),
            "stat": lambda: fs.stat("/f"),
            "read": lambda: fs.read_file("/f"),
            "open-existing": lambda: handles.append(fs.open("/f", OpenFlags(read=True))),
        }
        for name, op in ops.items():
            assert rig.count(op) == self.EXPECTED[name], name
        handles[0].close()
        assert fs.stat("/f").size == 7
        assert fs.read_file("/f") == b"second!"
        assert rig.count(lambda: fs.unlink("/f")) == self.EXPECTED["unlink"]
        assert not fs.exists("/f")

    def test_first_write_on_a_fresh_pool_sends_no_probe(self, rig, credentials):
        data_requests = rig.seen[1]
        start = len(data_requests)
        metrics = MetricsRegistry()
        with ClientPool(credentials, metrics=metrics) as pool:
            fs = DSFS.open_volume(pool, *rig.servers[0].address, "/vol")
            assert sum(rpcs(metrics, lambda: fs.write_file("/fresh", b"new")).values()) == 2
        assert data_requests[start][0] == "putflags"

    def test_sync_writes_add_s(self, rig):
        data_requests = rig.seen[1]
        start = len(data_requests)
        fs = DSFS.open_volume(rig.pool, *rig.servers[0].address, "/vol", sync_writes=True)
        fs.write_file("/synced", b"durable")
        fs.write_file("/synced", b"durable again")
        assert fs.read_file("/synced") == b"durable again"
        opened = [t[2] for t in data_requests[start:] if t[0] == "putflags"]
        assert opened == ["wcxs", "wts"]


class LayoutRig:
    """Every layout of the stub engine over the same three data servers,
    the directory trees on a fourth."""

    def __init__(self, server_factory, credentials):
        self.servers = [server_factory.new() for _ in range(4)]
        self.metrics = MetricsRegistry()
        self.pool = ClientPool(credentials, metrics=self.metrics)
        dir_server, *data_servers = self.servers
        data = [s.address for s in data_servers]
        dsfs = DSFS.create(self.pool, *dir_server.address, "/vol", data, name="layouts")
        dir_client = self.pool.get(*dir_server.address)

        def meta(root: str) -> CFS:
            dir_client.mkdir(root)
            return CFS(dir_client, root)

        self.fs = {
            "dsfs": dsfs,
            "replicated": ReplicatedFS(meta("/r"), self.pool, data, dsfs.data_dir, copies=2),
            "striped": StripedFS(meta("/s"), self.pool, data, dsfs.data_dir, stripe_size=1024),
            "versioned": VersionedFS(meta("/v"), self.pool, data, dsfs.data_dir),
        }
        for server in self.servers:
            self.pool.get(*server.address).whoami()  # every session is dialed

    def count(self, op) -> int:
        return sum(rpcs(self.metrics, op).values())

    def close(self):
        self.pool.close()


@pytest.fixture(params=["v4"])  # the protocol the counts are pinned for
def layout_rig(server_factory, credentials):
    r = LayoutRig(server_factory, credentials)
    yield r
    r.close()


class TestLayoutRoundTrips:
    # layout -> operation -> RPCs; None where the count is not part of
    # the contract.
    EXPECTED = {
        "dsfs": {"create": 2, "stat": 2, "read": 2, "unlink": 3},
        "replicated": {"create": 3, "stat": 2, "read": 2, "unlink": 4},
        "striped": {"create": 4, "stat": 4, "read": 4, "unlink": 5},
        "versioned": {"create": None, "stat": 2, "read": 2, "unlink": None},
    }

    @pytest.mark.parametrize("layout", list(EXPECTED))
    def test_rpcs_per_operation(self, layout_rig, layout):
        fs = layout_rig.fs[layout]
        data = bytes(range(256)) * 20  # spans all three 1 KiB stripes
        got = {}
        ops = {
            "create": lambda: fs.write_file("/f", data),
            "stat": lambda: fs.stat("/f"),
            "read": lambda: got.setdefault("bytes", fs.read_file("/f")),
            "unlink": lambda: fs.unlink("/f"),
        }
        for name, op in ops.items():
            n = layout_rig.count(op)
            expected = self.EXPECTED[layout][name]
            if expected is not None:
                assert n == expected, name
        assert got["bytes"] == data
        assert not fs.exists("/f")
